"""Field models, particle parameters and kinematics."""

import numpy as np
import pytest

from spincorr import (
    ParticleParams,
    PhaseState,
    SinusoidalElectrostatic,
    SinusoidalMagnetostatic,
    SternGerlach,
    Superposition,
    Uniform,
    gamma_pi,
    kinematic_momentum,
    sample_field,
    v_pi,
)
from spincorr.fields import ZERO3, ZERO33, FieldSample, to_array

RNG = np.random.default_rng(20260814)


def all_models():
    return [
        Uniform(E0=np.array([0.3, -0.2, 0.5]), B0=np.array([0.1, 0.7, -0.4])),
        SternGerlach(B0=1.0, b=0.1),
        SinusoidalElectrostatic(lam=0.8, L=2.5),
        SinusoidalMagnetostatic(lam=0.6, L=1.7),
        Superposition(
            Uniform(B0=np.array([0.0, 0.0, 1.0])),
            SinusoidalElectrostatic(lam=0.5, L=3.0),
        ),
    ]


def div(grad):
    """Trace of a Jacobian jac[i, j] = d(component i)/d(x_j): div E or div B."""
    return np.trace(grad, axis1=-2, axis2=-1)


def curl(g):
    """Curl from a Jacobian jac[i, j] = d(component i)/d(x_j)."""
    return np.stack([g[..., 2, 1] - g[..., 1, 2], g[..., 0, 2] - g[..., 2, 0], g[..., 1, 0] - g[..., 0, 1]], axis=-1)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar or vector function."""
    out = []
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        out.append((np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * h))
    return np.stack(out, axis=-1)


class TestParticleParams:
    def test_moment_identity_enforced(self):
        with pytest.raises(ValueError):
            ParticleParams(m=1.0, e=1.0, gamma_m=2.0, mu_prime=0.0)

    def test_positive_constants_enforced(self):
        with pytest.raises(ValueError):
            ParticleParams(m=-1.0, e=0.0, gamma_m=0.0, mu_prime=0.0)

    def test_dirac_preset_has_g2(self):
        p = ParticleParams.dirac(m=1.5, e=0.9)
        assert p.gamma_m == pytest.approx(p.e / (p.m * p.c), rel=1e-15)
        assert p.mu_prime == 0.0

    def test_neutral_preset(self):
        p = ParticleParams.neutral(mu_prime=0.08)
        assert p.e == 0.0
        assert p.gamma_m == pytest.approx(2 * 0.08, rel=1e-15)


class TestFieldModels:
    def test_uniform_is_constant(self):
        m = Uniform(B0=np.array([0.0, 0.0, 1.0]))
        for _ in range(5):
            s = sample_field(m, RNG.normal(size=3))
            assert np.allclose(s.B, [0, 0, 1])
            assert np.allclose(s.E, 0)
            assert div(s.grad_E) == 0.0

    def test_uniform_zero_field_is_sentinel(self):
        # an all-zero E0 (or B0) is stored as ZERO3, and a zero E gives a ZERO3
        # grad_phi; every component keeps the value of the general formula
        E1, B1 = np.array([0.3, -0.2, 0.5]), np.array([0.4, 0.9, -0.6])
        for E0, B0 in ((np.zeros(3), B1), (E1, np.zeros(3)), (np.zeros(3), np.zeros(3)), (E1, B1)):
            model = Uniform(E0=E0, B0=B0)
            for shape in ((), (4,)):
                x, y, z = RNG.normal(size=(3,) + shape)
                (Ex, Ey, Ez), (Bx, By, Bz) = E0, B0
                want = (
                    -(Ex * x + Ey * y + Ez * z),
                    (By * z - Bz * y, 0.0, Bx * y),
                    (Ex, Ey, Ez),
                    (Bx, By, Bz),
                    (-Ex, -Ey, -Ez),
                    ((0.0, -Bz, By), (0.0, 0.0, 0.0), (0.0, Bx, 0.0)),
                    ((0.0, 0.0, 0.0),) * 3,
                    ((0.0, 0.0, 0.0),) * 3,
                )
                got = model.components(x, y, z)
                for g, w in zip(got, want):
                    assert np.array_equal(to_array(g, shape), to_array(w, shape))
                assert (got.E is ZERO3, got.grad_phi is ZERO3) == (not E0.any(), not E0.any())
                assert (got.B is ZERO3) == (not B0.any())

    def test_stern_gerlach_at_origin(self):
        s = sample_field(SternGerlach(B0=1.0, b=0.1), np.zeros(3))
        assert np.allclose(s.B, [0, 0, 1])
        assert s.grad_B[0, 0] == pytest.approx(-0.05)
        assert s.grad_B[2, 2] == pytest.approx(0.1)
        assert div(s.grad_B) == pytest.approx(0.0, abs=1e-15)

    def test_stern_gerlach_is_curl_free(self):
        for _ in range(20):
            s = sample_field(SternGerlach(B0=1.0, b=0.3), RNG.normal(size=3))
            assert np.allclose(curl(s.grad_B), 0.0, atol=1e-14)

    def test_sinusoidal_electrostatic_quarter_period(self):
        s = sample_field(SinusoidalElectrostatic(lam=1.0, L=1.0), np.array([0.25, 0, 0]))
        assert s.E[0] == pytest.approx(1.0)
        assert div(s.grad_E) == pytest.approx(0.0, abs=1e-12)

    def test_sinusoidal_models_are_periodic(self):
        x = RNG.normal(size=3)
        for m in (SinusoidalElectrostatic(0.8, 2.5), SinusoidalMagnetostatic(0.6, 1.7)):
            a, b = sample_field(m, x), sample_field(m, x + np.array([m.L, 0, 0]))
            assert np.allclose(a.E, b.E, atol=1e-12)
            assert np.allclose(a.B, b.B, atol=1e-12)

    def test_divergence_of_b_vanishes_everywhere(self):
        for m in all_models():
            for _ in range(50):
                s = sample_field(m, RNG.normal(scale=2.0, size=3))
                assert abs(div(s.grad_B)) < 1e-14

    def test_potentials_reproduce_fields(self):
        # E = -grad(phi) and B = curl(A), from the stored analytic derivatives
        for m in all_models():
            for _ in range(20):
                s = sample_field(m, RNG.normal(size=3))
                assert np.allclose(s.E, -s.grad_phi, atol=1e-13)
                j = s.jac_A
                curl_A = np.array(
                    [j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1]]
                )
                assert np.allclose(s.B, curl_A, atol=1e-13)

    def test_derivatives_match_finite_differences(self):
        # independent oracle: central differences at step 1e-6, tolerance 1e-8
        for m in all_models():
            for _ in range(10):
                x = RNG.normal(size=3)
                s = sample_field(m, x)
                fd_phi = fd_gradient(lambda y: sample_field(m, y).phi, x)
                fd_A = fd_gradient(lambda y: sample_field(m, y).A, x)
                fd_E = fd_gradient(lambda y: sample_field(m, y).E, x)
                fd_B = fd_gradient(lambda y: sample_field(m, y).B, x)
                assert np.allclose(s.grad_phi, fd_phi, atol=1e-8)
                assert np.allclose(s.jac_A, fd_A, atol=1e-8)
                assert np.allclose(s.grad_E, fd_E, atol=1e-8)
                assert np.allclose(s.grad_B, fd_B, atol=1e-8)

    def test_superposition_sums_samples(self):
        u = Uniform(B0=np.array([0.0, 0.0, 2.0]))
        g = SternGerlach(B0=0.5, b=0.2)
        x = RNG.normal(size=3)
        s = sample_field(Superposition(u, g), x)
        su, sg = sample_field(u, x), sample_field(g, x)
        assert np.allclose(s.B, su.B + sg.B)
        assert np.allclose(s.jac_A, su.jac_A + sg.jac_A)


# ---------------------------------------------------------------------------
# oracles: the validation and the fold that the float-side PhaseState check
# and the one-pass Superposition replaced


def oracle_validate(x, p, s):
    """PhaseState's checks as numpy reductions; raises what PhaseState must raise."""
    x, p, s = (np.asarray(v, dtype=float) for v in (x, p, s))
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
        raise ValueError("non-finite phase-space point")
    with np.errstate(all="ignore"):
        smag = np.linalg.norm(s)
    if not (np.isfinite(smag) and smag > 0):
        raise ValueError("spin must be finite and nonzero")


def oracle_components(models, x, y, z):
    """Superposition.components as a sum of samples started from FieldSample.zero()."""
    return sum((m.components(x, y, z) for m in models), FieldSample.zero())


def outcome(f, *args):
    """(exception type, message) of f(*args), or None when it returns."""
    try:
        f(*args)
    except Exception as e:
        return type(e), str(e)
    return None


X0, P0, S0 = [0.1, -0.2, 0.3], [0.4, 0.5, -0.6], [0.6, 0.0, 0.3]
NAN, INF = float("nan"), float("inf")
# (x, p, s) inputs on both sides of every test, including |s|^2 overflowing
# to inf (1e154 squared twice) and underflowing to 0 (1e-170 squared)
VALIDATION_GRID = [
    (X0, P0, S0),
    ([0, 1, 2], (3, 4, 5), [0, 0, 1]),
    ([NAN, 0.0, 0.0], P0, S0),
    ([0.0, INF, 0.0], P0, S0),
    ([0.0, 0.0, -INF], P0, S0),
    (X0, [NAN, 0.0, 0.0], S0),
    (X0, [0.0, -INF, 0.0], S0),
    (X0, [0.0, 0.0, INF], S0),
    ([NAN, 0.0, 0.0], P0, [0.0, 0.0, 0.0]),
    (X0, P0, [0.0, 0.0, 0.0]),
    (X0, P0, [-0.0, 0.0, -0.0]),
    (X0, P0, [NAN, 1.0, 0.0]),
    (X0, P0, [0.0, INF, 0.0]),
    (X0, P0, [-INF, -INF, -INF]),
    (X0, P0, [1e200, 0.0, 0.0]),
    (X0, P0, [1e200, 1e200, 1e200]),
    (X0, P0, [1e154, 0.0, 0.0]),
    (X0, P0, [1e154, 1e154, 0.0]),
    (X0, P0, [1e-200, 0.0, 0.0]),
    (X0, P0, [1e-200, 1e-200, 1e-200]),
    (X0, P0, [1e-160, 0.0, 0.0]),
    (X0, P0, [1e-170, 0.0, 0.0]),
    (X0, P0, [1e-200, 1.0, 1e200]),
    ([1e200, -1e200, 1e300], [1e-200, 0.0, -1e-300], S0),
    ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [[0.0] * 3, [1.0] * 3], [[0.0] * 3, [0.0, 1.0, 0.0]]),
    ([[0.1, 0.2, 0.3], [0.4, NAN, 0.6]], P0, S0),
    (X0, P0, [[0.0] * 3, [0.0] * 3]),
    (X0, P0, [[1.0, 0.0, 0.0], [0.0, INF, 0.0]]),
    (1.0, 2.0, 3.0),
    ([], [], [1.0]),
    (X0, P0, []),
    ("nan", P0, S0),
    ("x", P0, S0),
    (X0, P0, [1j, 0.0, 0.0]),
]


class TestPhaseStateValidation:
    @pytest.mark.parametrize("x, p, s", VALIDATION_GRID)
    def test_matches_oracle(self, x, p, s):
        expected = outcome(oracle_validate, x, p, s)
        assert outcome(PhaseState, x, p, s) == expected
        if expected is None:
            st = PhaseState(x, p, s)
            for got, given in ((st.x, x), (st.p, p), (st.s, s)):
                ref = np.asarray(given, dtype=float)
                assert got.dtype == float and got.shape == ref.shape and np.array_equal(got, ref)


def assert_same_sample(got, ref, n=None):
    """Field by field: the same values and the same zero sentinels."""
    for a, b in zip(got, ref):
        assert (a is ZERO3, a is ZERO33) == (b is ZERO3, b is ZERO33)
        if n is None:
            assert a == b
        else:
            assert np.array_equal(to_array(a, (n,)), to_array(b, (n,)))


FOLD_CASES = {
    "empty": (),
    "uniform": (Uniform(E0=np.array([0.3, -0.2, 0.5]), B0=np.array([0.1, 0.7, -0.4])),),
    "sin_electric": (SinusoidalElectrostatic(lam=0.8, L=2.5),),
    "oracle_field": (SternGerlach(B0=1.0, b=0.3), SinusoidalElectrostatic(lam=0.4, L=2.0)),
    "uniform_b_gradient": (Uniform(B0=np.array([0.0, 0.5, 0.3])), SternGerlach(B0=0.8, b=0.2)),
    # three B contributions, so a fold in another order changes the bits
    "three_b": (
        Uniform(E0=np.array([0.1, 0.0, -0.2]), B0=np.array([0.2, 0.5, 0.3])),
        SternGerlach(B0=0.8, b=0.2),
        SinusoidalMagnetostatic(lam=0.6, L=1.7),
    ),
    "four": (
        Uniform(E0=np.array([0.1, 0.0, -0.2]), B0=np.array([0.0, 0.5, 0.3])),
        SternGerlach(B0=0.8, b=0.2),
        SinusoidalElectrostatic(lam=0.4, L=2.0),
        SinusoidalMagnetostatic(lam=0.6, L=1.7),
    ),
}


class TestSuperpositionFold:
    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_floats_match_oracle(self, name):
        models = FOLD_CASES[name]
        for x, y, z in RNG.normal(size=(300, 3)).tolist():
            assert_same_sample(Superposition(*models).components(x, y, z), oracle_components(models, x, y, z))

    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_arrays_match_oracle(self, name):
        models = FOLD_CASES[name]
        x, y, z = RNG.normal(size=(3, 1000))
        got = Superposition(*models).components(x, y, z)
        assert_same_sample(got, oracle_components(models, x, y, z), 1000)

    def test_empty_is_zero(self):
        for point in ((0.1, 0.2, 0.3), tuple(RNG.normal(size=(3, 5)))):
            assert Superposition().components(*point) == FieldSample.zero()


class TestKinematics:
    params = ParticleParams.from_moment(m=1.0, e=0.7, mu_prime=0.13)

    def test_zero_potential(self):
        p = RNG.normal(size=3)
        assert np.allclose(kinematic_momentum(p, np.zeros(3), self.params), p)

    def test_exact_cancellation(self):
        pr = self.params
        A = np.array([pr.c / pr.e, 0, 0])
        assert np.allclose(kinematic_momentum(np.array([1.0, 0, 0]), A, pr), 0.0)

    def test_neutral_particle_ignores_potential(self):
        pr = ParticleParams.neutral(mu_prime=0.1)
        p, A = RNG.normal(size=3), RNG.normal(size=3)
        assert np.allclose(kinematic_momentum(p, A, pr), p)

    def test_gamma_rest(self):
        assert gamma_pi(np.zeros(3), self.params) == 1.0

    def test_gamma_sqrt3(self):
        pi = np.array([0, 0, np.sqrt(3.0)]) * self.params.mc
        assert gamma_pi(pi, self.params) == pytest.approx(2.0, rel=1e-15)

    def test_gamma_from_velocity_roundtrip(self):
        pr = self.params
        for _ in range(100):
            pi = RNG.normal(scale=pr.mc, size=3)
            v = v_pi(pi, pr)
            beta2 = (v @ v) / pr.c ** 2
            assert gamma_pi(pi, pr) == pytest.approx(1.0 / np.sqrt(1.0 - beta2), rel=1e-14)

    def test_gamma_at_least_one(self):
        pr = self.params
        for _ in range(100):
            pi = RNG.normal(scale=3 * pr.mc, size=3)
            g = gamma_pi(pi, pr)
            assert g >= 1.0
            assert (g == 1.0) == bool(np.all(pi == 0.0))

    def test_v_pi_magnitude(self):
        pr = self.params
        pi = np.array([np.sqrt(3.0) * pr.mc, 0, 0])
        assert np.linalg.norm(v_pi(pi, pr)) == pytest.approx(np.sqrt(3) / 2 * pr.c, rel=1e-15)

    def test_momentum_velocity_inverse(self):
        pr = self.params
        for _ in range(20):
            pi = RNG.normal(scale=pr.mc, size=3)
            v = v_pi(pi, pr)
            assert np.allclose(pr.m * gamma_pi(pi, pr) * v, pi, rtol=1e-14)
