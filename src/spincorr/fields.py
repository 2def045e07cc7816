"""Static electromagnetic field models with exact analytic derivatives.

Every model returns potentials, fields and all first spatial derivatives
in closed form; nothing is differentiated numerically. Jacobians use the
convention jac[i, j] = d(component i)/d(x_j).

A model has one implementation, `components(x, y, z)`. It returns a
FieldSample in component form: a vector is a 3-tuple and a Jacobian a
3-tuple of rows. Each component is a float at one point, or an array of
shape (N,) when x, y, z are arrays of N points, so the same arithmetic
serves one particle and an ensemble. `sample_field` packs it into arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# the zero vector and Jacobian; Superposition skips adding them
ZERO3 = (0.0, 0.0, 0.0)
ZERO33 = (ZERO3, ZERO3, ZERO3)


def math_of(u):
    """The module whose sqrt/sin/cos fit u: numpy for an array, math for a float."""
    return np if isinstance(u, np.ndarray) else math


class FieldSample(NamedTuple):
    """Potentials, fields and first derivatives.

    Static fields only, so E = -grad(phi) and B = curl(A) exactly. From
    `sample_field` the vectors are arrays of shape (3,) and Jacobians
    (3, 3) at one point, with a leading axis of length N at N points;
    from a model's `components` they are tuples of components.
    """

    phi: float
    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    grad_phi: np.ndarray
    jac_A: np.ndarray
    grad_E: np.ndarray
    grad_B: np.ndarray

    @staticmethod
    def zero() -> "FieldSample":
        return FieldSample(0.0, ZERO3, ZERO3, ZERO3, ZERO3, ZERO33, ZERO33, ZERO33)

    def __add__(self, other: "FieldSample") -> "FieldSample":
        """Field-by-field sum (not tuple concatenation)."""
        return FieldSample(*map(_add, self, other))


def _add(u, v):
    """u + v for numbers, arrays or nested tuples of them; adding zero is skipped."""
    if u is ZERO3 or u is ZERO33:
        return v
    if v is ZERO3 or v is ZERO33:
        return u
    return tuple(map(_add, u, v)) if isinstance(u, tuple) else u + v


@dataclass(frozen=True)
class Uniform:
    """Homogeneous E0, B0 with phi = -E0.x.

    Landau-type gauge A = (B_y z - B_z y, 0, B_x y): for motion along x
    with B along z the canonical force equals the Lorentz force pointwise.
    """

    E0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    B0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # an all-zero field is stored as the ZERO3 sentinel, which the
        # kernels skip
        for name, v in (("_E", self.E0), ("_B", self.B0)):
            t = tuple(np.asarray(v, dtype=float).tolist())
            object.__setattr__(self, name, ZERO3 if t == ZERO3 else t)

    def components(self, x, y, z) -> FieldSample:
        (Ex, Ey, Ez), (Bx, By, Bz) = E, B = self._E, self._B
        phi = -(Ex * x + Ey * y + Ez * z)
        A = (By * z - Bz * y, 0.0, Bx * y)
        jac_A = ((0.0, -Bz, By), ZERO3, (0.0, Bx, 0.0))
        grad_phi = ZERO3 if E is ZERO3 else (-Ex, -Ey, -Ez)
        return FieldSample(phi, A, E, B, grad_phi, jac_A, ZERO33, ZERO33)


@dataclass(frozen=True)
class SternGerlach:
    """Divergence- and curl-free magnetic gradient field.

    B = (-(b/2)x, -(b/2)y, B0 + b z), realized by the vector potential
    A = (-y(B0 + bz)/2, x(B0 + bz)/2, 0). A legitimate vacuum
    magnetostatic field: div B = 0 and curl B = 0 identically.
    """

    B0: float = 1.0
    b: float = 0.1

    def components(self, x, y, z) -> FieldSample:
        b = self.b
        Bz = self.B0 + b * z
        B = (-0.5 * b * x, -0.5 * b * y, Bz)
        grad_B = ((-0.5 * b, 0.0, 0.0), (0.0, -0.5 * b, 0.0), (0.0, 0.0, b))
        A = (-0.5 * y * Bz, 0.5 * x * Bz, 0.0)
        jac_A = ((0.0, -0.5 * Bz, -0.5 * y * b), (0.5 * Bz, 0.0, 0.5 * x * b), ZERO3)
        return FieldSample(0.0, A, ZERO3, B, ZERO3, jac_A, ZERO33, grad_B)


@dataclass(frozen=True)
class SinusoidalElectrostatic:
    """E = (lam sin(2 pi x/L), 0, 0) from phi = (lam L/2 pi) cos(2 pi x/L)."""

    lam: float = 1.0
    L: float = 1.0

    def components(self, x, y, z) -> FieldSample:
        k, lam = 2.0 * math.pi / self.L, self.lam
        lib = math_of(x)
        s, c = lib.sin(k * x), lib.cos(k * x)
        grad_E = ((lam * k * c, 0.0, 0.0), ZERO3, ZERO3)
        return FieldSample(lam / k * c, ZERO3, (lam * s, 0.0, 0.0), ZERO3, (-lam * s, 0.0, 0.0), ZERO33, grad_E, ZERO33)


@dataclass(frozen=True)
class SinusoidalMagnetostatic:
    """B = (0, 0, lam cos(2 pi x/L)) from A = (0, (lam L/2 pi) sin(2 pi x/L), 0)."""

    lam: float = 1.0
    L: float = 1.0

    def components(self, x, y, z) -> FieldSample:
        k, lam = 2.0 * math.pi / self.L, self.lam
        lib = math_of(x)
        s, c = lib.sin(k * x), lib.cos(k * x)
        jac_A = (ZERO3, (lam * c, 0.0, 0.0), ZERO3)
        grad_B = (ZERO3, ZERO3, (-lam * k * s, 0.0, 0.0))
        return FieldSample(0.0, (0.0, lam / k * s, 0.0), ZERO3, (0.0, 0.0, lam * c), ZERO3, jac_A, ZERO33, grad_B)


@dataclass(frozen=True)
class Superposition:
    models: tuple

    def __init__(self, *models):
        object.__setattr__(self, "models", tuple(models))

    def components(self, x, y, z) -> FieldSample:
        """Each model's sample, summed field by field in model order."""
        samples = [model.components(x, y, z) for model in self.models]
        return functools.reduce(FieldSample.__add__, samples) if samples else FieldSample.zero()


def to_array(v, shape=()) -> np.ndarray:
    """Components (a number, an array or nested tuples of them) as one array.

    Each component is broadcast to `shape`; the tuple axes follow it, so
    a vector at N points has shape (N, 3) and a Jacobian (N, 3, 3).
    """
    if not shape:
        return np.array(v, dtype=float)
    if isinstance(v, tuple):
        return np.stack([to_array(c, shape) for c in v], axis=len(shape))
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


# read outside the tests only by perfbench's probes; the point kernel calls components itself
def sample_field(model, x: np.ndarray) -> FieldSample:
    """Evaluate a field model at position x (all derivatives analytic).

    x of shape (3,) gives (3,) vectors and (3, 3) Jacobians; x of shape
    (N, 3) samples each row and gives (N, 3) and (N, 3, 3).
    """
    x = np.asarray(x, dtype=float)
    f = model.components(*(x.tolist() if x.ndim == 1 else x.T))
    shape = x.shape[:-1]
    phi = to_array(f.phi, shape).copy() if shape else float(f.phi)
    return FieldSample(phi, *(to_array(v, shape) for v in f[1:]))
