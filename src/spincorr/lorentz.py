"""Boosts, spin four-vector/tensor duality, and the covariant precession RHS.

Metric signature (+,-,-,-); the totally antisymmetric symbol is fixed by
eps^{0123} = +1, chosen so the rest-frame spin tensor reproduces the
standard component matrix (S^{12} = -s_z for spin along z).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .kinematics import gamma_pi, v_pi
from .params import ParticleParams

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# loose tolerance around double-precision accumulation
PRE_TOL = 1e-10
BMT_PRE_TOL = 1e-8


def _eps4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        sign = 1.0
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS4 = _eps4()


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[0] - a[1:] @ b[1:])


def boost_matrix(beta: np.ndarray) -> np.ndarray:
    """Pure boost with velocity beta (units of c)."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must satisfy |beta| < 1")
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam = np.eye(4)
    lam[0, 0] = gamma
    lam[0, 1:] = lam[1:, 0] = -gamma * beta
    if b2 > 0.0:
        lam[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


def boost_four_vector(v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return boost_matrix(beta) @ np.asarray(v, dtype=float)


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


def fields_from_tensor(F: np.ndarray):
    E = np.array([F[1, 0], F[2, 0], F[3, 0]])
    B = np.array([F[3, 2], F[1, 3], F[2, 1]])
    return E, B


def spin_tensor_from_vector(S: np.ndarray, U: np.ndarray, c: float = 1.0) -> np.ndarray:
    """S^{mu nu} = (1/c) eps^{mu nu alpha beta} U_alpha S_beta.

    Requires U.U = c^2 and U.S = 0 (the tensor is the dual of S in the
    rest frame defined by U).
    """
    S, U = np.asarray(S, dtype=float), np.asarray(U, dtype=float)
    if abs(minkowski_dot(U, U) - c ** 2) > PRE_TOL * c ** 2:
        raise ValueError("U.U must equal c^2")
    if abs(minkowski_dot(U, S)) > PRE_TOL * max(1.0, float(np.abs(S).max()) * c):
        raise ValueError("U.S must vanish")
    U_lo, S_lo = METRIC @ U, METRIC @ S
    return np.einsum("mnab,a,b->mn", EPS4, U_lo, S_lo) / c


def spin_vector_from_tensor(T: np.ndarray, U: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Inverse duality S^alpha = (1/2c) eps^{alpha beta gamma delta} U_beta S_{gamma delta}."""
    T, U = np.asarray(T, dtype=float), np.asarray(U, dtype=float)
    U_lo = METRIC @ U
    T_lo = METRIC @ T @ METRIC
    return np.einsum("abgd,b,gd->a", EPS4, U_lo, T_lo) / (2.0 * c)


def spin_four_vector_lab(s: np.ndarray, pi: np.ndarray, params: ParticleParams) -> np.ndarray:
    """Lab-frame spin 4-vector for rest-frame spin s comoving with v_pi.

    Boosts S = (0, s) from the comoving frame; satisfies U_pi.S = 0 and
    S.S = -|s|^2 by construction.
    """
    s, pi = np.asarray(s, dtype=float), np.asarray(pi, dtype=float)
    g = gamma_pi(pi, params)
    beta = v_pi(pi, params) / params.c
    bs = float(beta @ s)
    S = np.empty(4)
    S[0] = g * bs
    S[1:] = s + (g ** 2 / (g + 1.0)) * bs * beta
    return S


def four_velocity(pi: np.ndarray, params: ParticleParams) -> np.ndarray:
    """U_pi^alpha = (gamma_pi c, pi/m)."""
    pi = np.asarray(pi, dtype=float)
    U = np.empty(4)
    U[0] = gamma_pi(pi, params) * params.c
    U[1:] = pi / params.m
    return U


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


def lorentz_force_rhs(U: np.ndarray, F: np.ndarray, f: np.ndarray, params: ParticleParams) -> np.ndarray:
    """dU/dtau = (e/mc) F U + f/m, the covariant orbital equation."""
    U, F, f = (np.asarray(a, dtype=float) for a in (U, F, f))
    return (params.e / (params.m * params.c)) * (F @ (METRIC @ U)) + f / params.m
