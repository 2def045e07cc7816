"""Field transforms and the covariant RHS, against per-row Lorentz oracles.

The boost matrix, the tensor-to-field map, the per-row spin 4-vector and
4-velocity, and the covariant orbital RHS live here: they are the
independent oracles of `boost_fields`, `classical._four_vectors` and the
`bmt_rhs` closure.
"""

import numpy as np
import pytest

from spincorr import ParticleParams, gamma_pi, v_pi
from spincorr.classical import _four_vectors
from spincorr.lorentz import METRIC, bmt_rhs, boost_fields, field_tensor, minkowski_dot

RNG = np.random.default_rng(7041776)
PARAMS = ParticleParams.from_moment(m=1.0, e=0.7, mu_prime=0.13)


def boost_matrix(beta):
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


def fields_from_tensor(F):
    E = np.array([F[1, 0], F[2, 0], F[3, 0]])
    B = np.array([F[3, 2], F[1, 3], F[2, 1]])
    return E, B


def spin_four_vector_lab(s, pi, params):
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


def four_velocity(pi, params):
    """U_pi^alpha = (gamma_pi c, pi/m)."""
    pi = np.asarray(pi, dtype=float)
    U = np.empty(4)
    U[0] = gamma_pi(pi, params) * params.c
    U[1:] = pi / params.m
    return U


def lorentz_force_rhs(U, F, f, params):
    """dU/dtau = (e/mc) F U + f/m, the covariant orbital equation."""
    U, F, f = (np.asarray(a, dtype=float) for a in (U, F, f))
    return (params.e / (params.m * params.c)) * (F @ (METRIC @ U)) + f / params.m


def random_beta(max_speed=0.9):
    b = RNG.uniform(-1, 1, size=3)
    return b / np.linalg.norm(b) * RNG.uniform(0.05, max_speed)


class TestBoostMatrix:
    def test_identity_at_rest(self):
        assert np.allclose(boost_matrix(np.zeros(3)), np.eye(4))

    def test_textbook_x_boost(self):
        lam = boost_matrix(np.array([0.6, 0, 0]))
        assert lam[0, 0] == pytest.approx(1.25)
        assert lam[1, 0] == pytest.approx(-0.75)
        assert lam[1, 1] == pytest.approx(1.25)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            boost_matrix(np.array([1.0, 0, 0]))

    def test_metric_preservation(self):
        for _ in range(1000):
            lam = boost_matrix(random_beta())
            assert np.abs(lam.T @ METRIC @ lam - METRIC).max() < 1e-13

    def test_inverse_boost(self):
        for _ in range(1000):
            beta = random_beta()
            assert np.abs(boost_matrix(beta) @ boost_matrix(-beta) - np.eye(4)).max() < 1e-13

    def test_rest_momentum_boost(self):
        v = np.array([PARAMS.mc, 0, 0, 0])
        out = boost_matrix(np.array([0.6, 0, 0])) @ v
        assert np.allclose(out, [1.25 * PARAMS.mc, -0.75 * PARAMS.mc, 0, 0])

    def test_norm_preserved(self):
        for _ in range(200):
            v = RNG.normal(size=4)
            vp = boost_matrix(random_beta()) @ v
            assert minkowski_dot(vp, vp) == pytest.approx(minkowski_dot(v, v), abs=1e-12)


class TestBoostFields:
    def test_identity(self):
        E, B = RNG.normal(size=3), RNG.normal(size=3)
        Ep, Bp = boost_fields(E, B, np.zeros(3))
        assert np.allclose(Ep, E) and np.allclose(Bp, B)

    def test_perpendicular_magnetic(self):
        beta = 0.6
        g = 1.25
        Ep, Bp = boost_fields(np.zeros(3), np.array([0, 0, 2.0]), np.array([beta, 0, 0]))
        assert np.allclose(Ep, [0, -g * beta * 2.0, 0], atol=1e-14)
        assert np.allclose(Bp, [0, 0, g * 2.0], atol=1e-14)

    def test_tensor_transform_oracle(self):
        # independent oracle: F' = Lambda F Lambda^T on the rank-2 tensor
        for _ in range(1000):
            E, B, beta = RNG.normal(size=3), RNG.normal(size=3), random_beta()
            Ep, Bp = boost_fields(E, B, beta)
            lam = boost_matrix(beta)
            Ft, Bt = fields_from_tensor(lam @ field_tensor(E, B) @ lam.T)
            assert np.abs(Ep - Ft).max() < 1e-13
            assert np.abs(Bp - Bt).max() < 1e-13


class TestSpinFourVectorLab:
    def test_rest(self):
        s = np.array([0.1, 0.2, 0.3])
        assert np.allclose(spin_four_vector_lab(s, np.zeros(3), PARAMS), [0, 0.1, 0.2, 0.3])

    def test_transverse_spin_unchanged(self):
        pi = np.array([1.3 * PARAMS.mc, 0, 0])
        s = np.array([0, 0.4, -0.2])
        S = spin_four_vector_lab(s, pi, PARAMS)
        assert S[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(S[1:], s)

    def test_transversality_and_norm(self):
        for _ in range(500):
            pi = RNG.normal(scale=2 * PARAMS.mc, size=3)
            s = RNG.normal(size=3)
            S = spin_four_vector_lab(s, pi, PARAMS)
            U = four_velocity(pi, PARAMS)
            assert abs(minkowski_dot(U, S)) < 1e-12 * max(1.0, np.abs(s).max() * PARAMS.c)
            assert minkowski_dot(S, S) == pytest.approx(-float(s @ s), rel=1e-12, abs=1e-13)

    def test_array_four_vectors_match_per_row(self):
        """S and U for all rows at once equal the per-row oracles."""
        pn, rng, n = ParticleParams.neutral(mu_prime=0.11), np.random.default_rng(2718), 500
        pi = rng.normal(size=(n, 3)) * np.logspace(-4, 0.5, n)[:, None] * pn.mc
        s = rng.normal(size=(n, 3))
        gammas = np.sqrt(1.0 + np.einsum("ij,ij->i", pi, pi) / pn.mc ** 2)
        S, U = _four_vectors(pi, gammas, s, pn)
        for i in range(n):
            S_ref = spin_four_vector_lab(s[i], pi[i], pn)
            U_ref = four_velocity(pi[i], pn)
            assert np.abs(S[i] - S_ref).max() <= 1e-14 * np.abs(S_ref).max()
            assert np.abs(U[i] - U_ref).max() <= 1e-14 * np.abs(U_ref).max()


class TestBmtRhs:
    def test_rest_frame_larmor(self):
        c = PARAMS.c
        s = np.array([0.3, -0.1, 0.5])
        B = np.array([0.2, 0.4, -0.7])
        out = bmt_rhs(
            np.concatenate([[0.0], s]),
            np.array([c, 0, 0, 0]),
            field_tensor(np.zeros(3), B),
            np.zeros(4),
            PARAMS,
        )
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(out[1:], PARAMS.gamma_m * np.cross(s, B), atol=1e-14)

    def test_zero_fields(self):
        S = spin_four_vector_lab(RNG.normal(size=3), np.zeros(3), PARAMS)
        out = bmt_rhs(S, np.array([PARAMS.c, 0, 0, 0]), np.zeros((4, 4)), np.zeros(4), PARAMS)
        assert np.all(out == 0.0)

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError):
            bmt_rhs(
                np.array([1.0, 0, 0, 0]),
                np.array([PARAMS.c, 0, 0, 0]),
                np.zeros((4, 4)),
                np.zeros(4),
                PARAMS,
            )

    def test_orthogonality_closure(self):
        # U.(dS/dtau) + S.(dU/dtau) = 0 with the covariant force RHS,
        # for generic gamma_m and generic non-Lorentz force f
        for _ in range(500):
            pr = PARAMS
            pi = RNG.normal(scale=pr.mc, size=3)
            s = RNG.normal(size=3)
            U = four_velocity(pi, pr)
            S = spin_four_vector_lab(s, pi, pr)
            F = field_tensor(RNG.normal(size=3), RNG.normal(size=3))
            f = RNG.normal(size=4)
            dS = bmt_rhs(S, U, F, f, pr)
            dU = lorentz_force_rhs(U, F, f, pr)
            total = minkowski_dot(U, dS) + minkowski_dot(S, dU)
            assert abs(total) < 1e-12 * max(1.0, np.abs(dS).max(), np.abs(dU).max())

    def test_dirac_value_contraction(self):
        # gamma_m = e/mc, f = 0: U.(dS/dtau) reduces to -(S.dU/dtau)
        pr = ParticleParams.dirac(m=1.0, e=0.8)
        for _ in range(100):
            pi = RNG.normal(scale=pr.mc, size=3)
            s = RNG.normal(size=3)
            U = four_velocity(pi, pr)
            S = spin_four_vector_lab(s, pi, pr)
            F = field_tensor(RNG.normal(size=3), RNG.normal(size=3))
            dS = bmt_rhs(S, U, F, np.zeros(4), pr)
            dU = lorentz_force_rhs(U, F, np.zeros(4), pr)
            assert abs(minkowski_dot(U, dS) + minkowski_dot(S, dU)) < 1e-12
