"""Component-form classical kernels against the np.cross reference formulas.

The reference below is the array formulation the component kernels
replaced: each state is sampled into (3,)/(3, 3) arrays and the
Hamiltonian, its gradient and F_pi are written with np.cross and matrix
products. The kernels must reproduce it for one particle (float
components) and for an ensemble ((N,) array components).
"""

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
)
from spincorr import classical
from spincorr.fields import to_array
from spincorr.classical import (
    H_BLOCK,
    IntegratorSpec,
    eom_rhs,
    h_total,
    integrate,
    precession_vector,
)

PARAMS = ParticleParams.from_moment(m=1.0, e=0.7, mu_prime=0.13)
STATES = 1000
RTOL = 1e-13

MODELS = {
    "uniform": Uniform(E0=np.array([0.3, -0.2, 0.5]), B0=np.array([0.4, 0.9, -0.6])),
    "stern_gerlach": SternGerlach(B0=1.0, b=0.3),
    "sin_electric": SinusoidalElectrostatic(lam=0.4, L=2.0),
    "sin_magnetic": SinusoidalMagnetostatic(lam=0.6, L=1.7),
    "superposition": Superposition(
        Uniform(E0=np.array([0.1, 0.0, -0.2]), B0=np.array([0.0, 0.5, 0.3])),
        SternGerlach(B0=0.8, b=0.2),
        SinusoidalElectrostatic(lam=0.4, L=2.0),
        SinusoidalMagnetostatic(lam=0.6, L=1.7),
    ),
}


# ---------------------------------------------------------------------------
# reference: the np.cross formulation on (3,) arrays


def ref_coefficients(g, params):
    gm, e, mc = params.gamma_m, params.e, params.mc
    kb = (gm - e / mc) / mc ** 2
    weights = (
        gm - e / mc + e / (mc * g),
        kb / (g * (g + 1.0)),
        gm / (mc * g) - e / (mc ** 2 * (g + 1.0)),
    )
    slopes = (
        -e / (mc * g * g),
        -kb * (2.0 * g + 1.0) / (g * (g + 1.0)) ** 2,
        -gm / (mc * g * g) + e / (mc ** 2 * (g + 1.0) ** 2),
    )
    return weights, slopes


def ref_precession(pi, E, B, params):
    (a, b, d), _ = ref_coefficients(gamma_pi(pi, params), params)
    return a * B - b * (pi @ B) * pi - d * np.cross(pi, E)


def ref_h_total(x, p, s, model, params):
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    orbital = gamma_pi(pi, params) * params.mc2 + params.e * sample.phi
    return orbital - float(s @ ref_precession(pi, sample.E, sample.B, params))


def ref_spin_grad(pi, g, s, sample, params):
    """d(H_spin)/d(pi) and the explicit-x gradient d(H_spin)/dx at fixed pi."""
    E, B = sample.E, sample.B
    (a, b, d), (da, db, dd) = ref_coefficients(g, params)
    sB, piB, spi = float(s @ B), float(pi @ B), float(s @ pi)
    pixE = float(s @ np.cross(pi, E))
    dg_dpi = pi / (g * params.mc ** 2)
    dH_dpi = (-da * sB + db * piB * spi + dd * pixE) * dg_dpi + b * (B * spi + piB * s) + d * np.cross(E, s)
    dH_dx = -a * (s @ sample.grad_B) + b * spi * (pi @ sample.grad_B) + d * (np.cross(pi, sample.grad_E.T) @ s)
    return dH_dpi, dH_dx


def ref_eom(x, p, s, model, params):
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    g = gamma_pi(pi, params)
    dHs_dpi, dHs_dx = ref_spin_grad(pi, g, s, sample, params)
    dH_dpi = pi / (g * params.m) + dHs_dpi
    dH_dx = params.e * sample.grad_phi + dHs_dx - (params.e / params.c) * (sample.jac_A.T @ dH_dpi)
    ds = np.cross(s, ref_precession(pi, sample.E, sample.B, params))
    return dH_dpi, -dH_dx, ds


def ref_explicit_gradient(x, p, s, model, params):
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    return ref_spin_grad(pi, gamma_pi(pi, params), s, sample, params)[1]


# ---------------------------------------------------------------------------


def random_states(seed, n=STATES):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), rng.normal(size=(n, 3))


def assert_close(new, ref):
    """Agreement to RTOL, relative to the largest magnitude of the reference."""
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert new.shape == ref.shape
    scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
    assert float(np.abs(new - ref).max()) <= RTOL * scale


@pytest.mark.parametrize("name", sorted(MODELS))
class TestAgainstReference:
    def test_one_particle(self, name):
        model = MODELS[name]
        X, P, S = random_states(11)
        for x, p, s in zip(X, P, S):
            st = PhaseState(x, p, s)
            for new, ref in zip(eom_rhs(st, model, PARAMS), ref_eom(x, p, s, model, PARAMS)):
                assert_close(new, ref)
            assert_close(h_total(st, model, PARAMS), ref_h_total(x, p, s, model, PARAMS))
            grad = classical._eom_kernel(model, PARAMS)([*x, *p, *s], eom=False)[1]
            assert_close(grad, ref_explicit_gradient(x, p, s, model, PARAMS))
            smp = sample_field(model, x)
            pi = kinematic_momentum(p, smp.A, PARAMS)
            assert_close(precession_vector(pi, smp.E, smp.B, PARAMS), ref_precession(pi, smp.E, smp.B, PARAMS))

    def test_ensemble(self, name):
        model = MODELS[name]
        X, P, S = random_states(12)
        n = len(X)
        refs = [ref_eom(x, p, s, model, PARAMS) for x, p, s in zip(X, P, S)]
        new = classical._eom_kernel(model, PARAMS)([*X.T, *P.T, *S.T])
        for k in range(3):
            assert_close(to_array(tuple(new[3 * k : 3 * k + 3]), (n,)), [r[k] for r in refs])
        ref_h = [ref_h_total(x, p, s, model, PARAMS) for x, p, s in zip(X, P, S)]
        assert_close(classical._eom_kernel(model, PARAMS)([*X.T, *P.T, *S.T], eom=None), ref_h)
        # F_pi over the ensemble from the same point kernel
        F = classical._eom_kernel(model, PARAMS)([*X.T, *P.T, *S.T], eom=False)[4]
        smp = sample_field(model, X)
        pis = kinematic_momentum(P, smp.A, PARAMS)
        assert_close(to_array(F, (n,)), [ref_precession(*row, PARAMS) for row in zip(pis, smp.E, smp.B)])

    def test_sample_field_rows(self, name):
        # sampling N points at once gives each point's single sample
        model = MODELS[name]
        X, _, _ = random_states(13, n=50)
        rows = sample_field(model, X)
        for i, x in enumerate(X):
            one = sample_field(model, x)
            for a, b in zip(rows, one):
                np.testing.assert_allclose(np.asarray(a)[i], b, rtol=1e-15, atol=1e-15)


def test_trajectory_h_blocks_match_rows():
    # 2.5 blocks of rows, so the filled H crosses two block boundaries
    model = MODELS["superposition"]
    steps = 5 * H_BLOCK // 2
    st = PhaseState(np.array([0.1, 0.2, -0.1]), np.array([0.3, -0.2, 0.25]), np.array([0.3, 0.1, 0.35]))
    traj = integrate(st, model, PARAMS, IntegratorSpec(step=1e-3), steps * 1e-3)
    assert len(traj) == steps + 1
    per_row = np.array([h_total(traj.state(i), model, PARAMS) for i in range(len(traj))])
    assert_close(traj.h_total, per_row)


def test_h_blocked_offsets_match_per_state_rows():
    # 130 states of 18 offsets: 56-state blocks, the last one partial
    model = MODELS["superposition"]
    X, P, S = random_states(14, n=130)
    ys = np.concatenate([X, P, S], axis=1)
    offsets = np.random.default_rng(15).normal(scale=1e-3, size=(18, 9))
    H = classical.h_total_blocked(ys, model, PARAMS, offsets)
    assert H.shape == (130, 18)
    for y, row in zip(ys, H):
        d = y + offsets
        assert_close(row, classical._eom_kernel(model, PARAMS)(list(d.T), eom=None))


# ---------------------------------------------------------------------------
# signed zeros: each "+ 0.0" of the kernel turns a -0.0 into +0.0, which
# == and np.array_equal do not see; these states pin the sign bit of every
# output. Each "+ 0.0" of _eom_kernel, removed on its own, flips at least one.

NEUTRAL = ParticleParams.neutral(mu_prime=0.11)
NEGATIVE = ParticleParams.from_moment(m=1.0, e=-0.7, mu_prime=0.13)
SG = SternGerlach(B0=1.0, b=0.2)
SG_E = Superposition(SG, Uniform(E0=np.array([0.3, -0.2, 0.1])))
SG_SIN_E = Superposition(SG, SinusoidalElectrostatic(lam=0.4, L=2.0))
SIGNED_ZERO_STATES = [
    # (model, particle, y = (x, p, s), sign of each dy/dt component)
    (SG, PARAMS, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5), "+++++++++"),
    (SG, PARAMS, (0.0, 0.0, 0.0, 0.0, -0.0, -0.5, 0.0, 0.0, 0.0), "+--++++++"),
    (SternGerlach(B0=-0.0, b=0.2), PARAMS, (0.0, 0.0, -0.0, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0), "+-+++++++"),
    (Uniform(B0=np.array([0.0, 0.0, 1.0])), PARAMS, (0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.5, 0.5, 0.0), "---++++-+"),
    (
        Superposition(SG, Uniform(E0=np.array([0.0, -0.0, 0.1]))),
        NEUTRAL,
        (0.0, -0.5, 0.0, -0.0, -0.5, 0.0, 0.0, 0.0, 0.5),
        "+--+-+-++",
    ),
    (SG_E, NEUTRAL, (0.0, 0.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0), "++++++-++"),
    (SG_E, NEUTRAL, (0.0, 0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0), "++++++-+-"),
    (SG_E, NEUTRAL, (0.0, 0.0, 0.0, 0.0, -0.0, 0.5, 0.5, 0.0, 0.5), "+-+-+++--"),
    (SG_E, NEUTRAL, (0.0, 0.0, 0.0, 0.5, 0.0, -0.0, 0.5, 0.0, 0.0), "+++--++-+"),
    (SG_SIN_E, NEGATIVE, (0.0, -0.5, 2.0, -0.125, 0.0, 0.0, -0.0, -0.125, -0.5), "+++-+++-+"),
    (SG_SIN_E, NEUTRAL, (4.0, 4.0, 0.5, -0.5, -0.0, 4.0, 4.0, -0.0, -0.5), "+++--+---"),
    (
        Superposition(SternGerlach(B0=1.0, b=-0.2), SinusoidalElectrostatic(lam=0.4, L=2.0)),
        NEUTRAL,
        (0.0, -0.5, 0.0, 0.5, -0.5, 0.0, 0.5, -0.0, -0.0),
        "+-+++----",
    ),
]


@pytest.mark.parametrize("model, params, y, signs", SIGNED_ZERO_STATES)
def test_kernel_signed_zeros(model, params, y, signs):
    rhs = classical._eom_kernel(model, params)
    expected = [s == "-" for s in signs]
    assert [bool(np.signbit(v)) for v in rhs(list(y))] == expected
    # the (N,) array path rounds its zeros as the float path does
    assert [bool(np.signbit(v).all()) for v in rhs([np.array([c]) for c in y])] == expected
