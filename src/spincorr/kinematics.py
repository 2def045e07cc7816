"""The phase-space state, and the kinematic momentum with its Lorentz factor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParticleParams


@dataclass(frozen=True)
class PhaseState:
    """Phase-space point (x, p, s, t) with p canonical and s in units of hbar."""

    x: np.ndarray
    p: np.ndarray
    s: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        # validated on Python floats: numpy reductions on 3-vectors cost more
        # than the arithmetic. |s|^2 is a plain sum of squares, not hypot, so
        # a spin whose squares overflow to inf or underflow to 0 is rejected,
        # as it is by the array norm
        if not all(map(math.isfinite, self.x.ravel().tolist() + self.p.ravel().tolist())):
            raise ValueError("non-finite phase-space point")
        s = self.s.ravel().tolist()
        smag = math.sqrt(sum([c * c for c in s]))
        if not (math.isfinite(smag) and smag > 0):
            raise ValueError("spin must be finite and nonzero")


# read outside the tests only by perfbench's probes; the point kernel forms pi itself
def kinematic_momentum(p: np.ndarray, A: np.ndarray, params: ParticleParams) -> np.ndarray:
    """pi = p - (e/c) A."""
    return np.asarray(p, dtype=float) - (params.e / params.c) * np.asarray(A, dtype=float)


# read outside the tests only by perfbench's probes; the point kernel forms gamma_pi itself
def gamma_pi(pi: np.ndarray, params: ParticleParams) -> float:
    """sqrt(1 + (pi/mc)^2), always >= 1."""
    r = np.asarray(pi, dtype=float) / params.mc
    return float(np.sqrt(1.0 + r @ r))
