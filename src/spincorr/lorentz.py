"""Boosted fields, the field tensor, and the covariant precession RHS.

Metric signature (+,-,-,-); the field tensor has F^{0i} = -E_i and
F^{ij} = -eps_ijk B_k with eps_123 = +1. The spin enters only as the
four-vector S, never as its dual tensor.
"""

from __future__ import annotations

import numpy as np

from .params import ParticleParams

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# loose tolerance on U.S = 0 around double-precision accumulation
BMT_PRE_TOL = 1e-8


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[0] - a[1:] @ b[1:])


def boost_fields(E: np.ndarray, B: np.ndarray, beta: np.ndarray):
    """Boosted field components; beta in units of c."""
    E, B, beta = (np.asarray(a, dtype=float) for a in (E, B, beta))
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must satisfy |beta| < 1")
    gamma = 1.0 / np.sqrt(1.0 - b2)
    coef = gamma ** 2 / (gamma + 1.0)
    Ep = gamma * (E + np.cross(beta, B)) - coef * beta * (beta @ E)
    Bp = gamma * (B - np.cross(beta, E)) - coef * beta * (beta @ B)
    return Ep, Bp


def field_tensor(E: np.ndarray, B: np.ndarray) -> np.ndarray:
    """F^{alpha beta} with F^{0i} = -E_i and F^{ij} = -eps_ijk B_k."""
    E, B = np.asarray(E, dtype=float), np.asarray(B, dtype=float)
    return np.array(
        [
            [0.0, -E[0], -E[1], -E[2]],
            [E[0], 0.0, -B[2], B[1]],
            [E[1], B[2], 0.0, -B[0]],
            [E[2], -B[1], B[0], 0.0],
        ]
    )


def bmt_rhs(
    S: np.ndarray,
    U: np.ndarray,
    F: np.ndarray,
    f: np.ndarray,
    params: ParticleParams,
) -> np.ndarray:
    """Proper-time derivative of the spin 4-vector (modified BMT form).

    gamma_m F S + (1/c^2)(gamma_m - e/mc) U (S.F.U) - (1/mc^2) U (S.f),
    where f is any non-Lorentz 4-force (the field-gradient force here).
    """
    S, U, F, f = (np.asarray(a, dtype=float) for a in (S, U, F, f))
    c = params.c
    scale = max(1.0, float(np.abs(S).max()) * c)
    if abs(minkowski_dot(U, S)) > BMT_PRE_TOL * scale:
        raise ValueError("spin constraint U.S = 0 violated")
    gm = params.gamma_m
    a = gm - params.e / (params.m * c)
    FS = F @ (METRIC @ S)
    SFU = minkowski_dot(S, F @ (METRIC @ U))
    Sf = minkowski_dot(S, f)
    return gm * FS + (a / c ** 2) * U * SFU - U * Sf / (params.m * c ** 2)
