"""Static electromagnetic field models with exact analytic derivatives.

Every model returns potentials, fields and all first spatial derivatives
in closed form; nothing is differentiated numerically. Jacobians use the
convention jac[i, j] = d(component i)/d(x_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ZERO3 = np.zeros(3)
_ZERO33 = np.zeros((3, 3))


@dataclass(frozen=True)
class FieldSample:
    """Potentials, fields and first derivatives at one point.

    Static fields only, so E = -grad(phi) and B = curl(A) exactly.
    """

    phi: float
    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    grad_phi: np.ndarray
    jac_A: np.ndarray
    grad_E: np.ndarray
    grad_B: np.ndarray

    @property
    def div_E(self) -> float:
        return float(np.trace(self.grad_E))

    @property
    def div_B(self) -> float:
        return float(np.trace(self.grad_B))

    @property
    def curl_B(self) -> np.ndarray:
        g = self.grad_B
        return np.array([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]])

    @staticmethod
    def zero() -> "FieldSample":
        return FieldSample(0.0, _ZERO3, _ZERO3, _ZERO3, _ZERO3, _ZERO33, _ZERO33, _ZERO33)

    def __add__(self, other: "FieldSample") -> "FieldSample":
        return FieldSample(
            self.phi + other.phi,
            self.A + other.A,
            self.E + other.E,
            self.B + other.B,
            self.grad_phi + other.grad_phi,
            self.jac_A + other.jac_A,
            self.grad_E + other.grad_E,
            self.grad_B + other.grad_B,
        )


@dataclass(frozen=True)
class Uniform:
    """Homogeneous E0, B0 with phi = -E0.x.

    Landau-type gauge A = (B_y z - B_z y, 0, B_x y): for motion along x
    with B along z the canonical force equals the Lorentz force pointwise.
    """

    E0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    B0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def sample(self, x: np.ndarray) -> FieldSample:
        E0 = np.asarray(self.E0, dtype=float)
        B0 = np.asarray(self.B0, dtype=float)
        phi = -float(E0 @ x)
        A = np.array([B0[1] * x[2] - B0[2] * x[1], 0.0, B0[0] * x[1]])
        jac_A = np.array(
            [
                [0.0, -B0[2], B0[1]],
                [0.0, 0.0, 0.0],
                [0.0, B0[0], 0.0],
            ]
        )
        return FieldSample(phi, A, E0.copy(), B0.copy(), -E0, jac_A, _ZERO33, _ZERO33)


@dataclass(frozen=True)
class SternGerlach:
    """Divergence- and curl-free magnetic gradient field.

    B = (-(b/2)x, -(b/2)y, B0 + b z), realized by the vector potential
    A = (-y(B0 + bz)/2, x(B0 + bz)/2, 0). A legitimate vacuum
    magnetostatic field: div B = 0 and curl B = 0 identically.
    """

    B0: float = 1.0
    b: float = 0.1

    def sample(self, x: np.ndarray) -> FieldSample:
        B0, b = self.B0, self.b
        Bz = B0 + b * x[2]
        B = np.array([-0.5 * b * x[0], -0.5 * b * x[1], Bz])
        grad_B = np.array(
            [
                [-0.5 * b, 0.0, 0.0],
                [0.0, -0.5 * b, 0.0],
                [0.0, 0.0, b],
            ]
        )
        A = np.array([-0.5 * x[1] * Bz, 0.5 * x[0] * Bz, 0.0])
        jac_A = np.array(
            [
                [0.0, -0.5 * Bz, -0.5 * x[1] * b],
                [0.5 * Bz, 0.0, 0.5 * x[0] * b],
                [0.0, 0.0, 0.0],
            ]
        )
        return FieldSample(0.0, A, _ZERO3, B, _ZERO3, jac_A, _ZERO33, grad_B)


@dataclass(frozen=True)
class SinusoidalElectrostatic:
    """E = (lam sin(2 pi x/L), 0, 0) from phi = (lam L/2 pi) cos(2 pi x/L)."""

    lam: float = 1.0
    L: float = 1.0

    def sample(self, x: np.ndarray) -> FieldSample:
        k = 2.0 * np.pi / self.L
        s, c = np.sin(k * x[0]), np.cos(k * x[0])
        phi = self.lam / k * c
        E = np.array([self.lam * s, 0.0, 0.0])
        grad_phi = np.array([-self.lam * s, 0.0, 0.0])
        grad_E = np.zeros((3, 3))
        grad_E[0, 0] = self.lam * k * c
        return FieldSample(phi, _ZERO3, E, _ZERO3, grad_phi, _ZERO33, grad_E, _ZERO33)


@dataclass(frozen=True)
class SinusoidalMagnetostatic:
    """B = (0, 0, lam cos(2 pi x/L)) from A = (0, (lam L/2 pi) sin(2 pi x/L), 0)."""

    lam: float = 1.0
    L: float = 1.0

    def sample(self, x: np.ndarray) -> FieldSample:
        k = 2.0 * np.pi / self.L
        s, c = np.sin(k * x[0]), np.cos(k * x[0])
        A = np.array([0.0, self.lam / k * s, 0.0])
        jac_A = np.zeros((3, 3))
        jac_A[1, 0] = self.lam * c
        B = np.array([0.0, 0.0, self.lam * c])
        grad_B = np.zeros((3, 3))
        grad_B[2, 0] = -self.lam * k * s
        return FieldSample(0.0, A, _ZERO3, B, _ZERO3, jac_A, _ZERO33, grad_B)


@dataclass(frozen=True)
class Superposition:
    models: tuple

    def __init__(self, *models):
        object.__setattr__(self, "models", tuple(models))

    def sample(self, x: np.ndarray) -> FieldSample:
        total = FieldSample.zero()
        for model in self.models:
            total = total + model.sample(x)
        return total


def sample_field(model, x: np.ndarray) -> FieldSample:
    """Evaluate a field model at position x (all derivatives analytic)."""
    return model.sample(np.asarray(x, dtype=float))
