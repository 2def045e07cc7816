"""Hamiltonians, gradients, integration and covariant diagnostics."""

import dis
import functools
import math

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
    kinematic_momentum,
    sample_field,
)
from spincorr import checks, classical, fields
from spincorr.classical import (
    DiagnosticError,
    IntegrationError,
    IntegratorSpec,
    bmt_consistency_residual,
    covariance_scaling,
    eom_rhs,
    h_total,
    integrate,
    precession_vector,
)
from spincorr.config import SCHEMA
from spincorr.fields import ZERO3, ZERO33, FieldSample, math_of, to_array
from spincorr.lorentz import boost_fields

RNG = np.random.default_rng(31415926)
PARAMS = ParticleParams.from_moment(m=1.0, e=0.7, mu_prime=0.13)
NO_FIELD = Uniform()
# the gradient oracle's field: a Stern-Gerlach trap plus a sinusoidal E
ORACLE_FIELD = Superposition(SternGerlach(B0=1.0, b=0.3), SinusoidalElectrostatic(lam=0.4, L=2.0))


def gamma_pi(pi, params):
    """sqrt(1 + |pi|^2/(mc)^2), |pi|^2 summed per component as the point kernel sums it."""
    pi0, pi1, pi2 = np.asarray(pi, dtype=float).tolist()
    return math.sqrt(1.0 + (pi0 * pi0 + pi1 * pi1 + pi2 * pi2) / params.mc ** 2)


def v_pi(pi, params):
    """pi / (gamma_pi m), below c in magnitude."""
    pi = np.asarray(pi, dtype=float)
    return pi / (gamma_pi(pi, params) * params.m)


def random_state(scale_p=1.0):
    return PhaseState(RNG.normal(size=3), RNG.normal(scale=scale_p, size=3), RNG.normal(size=3))


def flip_spin(st):
    return PhaseState(st.x, st.p, -st.s)


def explicit_gradient(st, model, params=PARAMS):
    """d(H_spin)/dx at fixed pi: minus the Stern-Gerlach force."""
    return np.array(oracle_point(st.x.tolist(), st.p.tolist(), st.s.tolist(), model, params)[1])


def gradient_oracle_per_state(seed):
    """check_gradient_oracle as a per-state loop: 18 displaced H rows and one
    eom_rhs call per state, drawn as three normal(size=3) each.

    Returns (worst, worst_state, worst_part).
    """
    model = ORACLE_FIELD
    h_rows = classical._eom_kernel(model, checks.CANONICAL)
    rng = np.random.default_rng(seed)
    h = 1e-6
    offsets = np.zeros((18, 9))
    offsets[0::2], offsets[1::2] = h * np.eye(9), -h * np.eye(9)
    worst, worst_state, worst_part = 0.0, None, None
    for i in range(1000):
        st = PhaseState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        dx, dp, ds = eom_rhs(st, model, checks.CANONICAL)
        ys = np.concatenate([st.x, st.p, st.s]) + offsets
        H = h_rows(list(ys.T), eom=None)
        fd = (H[0::2] - H[1::2]) / (2 * h)
        fd_x, fd_p, grad_s = fd[0:3], fd[3:6], fd[6:9]
        err = np.abs(np.concatenate([dx - fd_p, dp + fd_x, ds - np.cross(grad_s, st.s)]))
        if err.max() > worst:
            worst, worst_state, worst_part = float(err.max()), i, ("dx", "dp", "ds")[int(err.argmax()) // 3]
    return worst, worst_state, worst_part


# ---------------------------------------------------------------------------
# oracles: the ndarray stepper and the every-term kernel that the float-native
# stepper and the straight-line kernel replaced, on their own vector helpers,
# local fields and weights


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _comb(c1, u, c2, v, c3=0.0, w=ZERO3):
    """c1 u + c2 v + c3 w, componentwise."""
    return (
        c1 * u[0] + c2 * v[0] + c3 * w[0],
        c1 * u[1] + c2 * v[1] + c3 * w[1],
        c1 * u[2] + c2 * v[2] + c3 * w[2],
    )


def _vecmat(u, M):
    """u @ M for a 3x3 Jacobian given as rows: sum_i u_i d(component i)/dx_j."""
    return ZERO3 if M is ZERO33 else _comb(u[0], M[0], u[1], M[1], u[2], M[2])


def _local(x, p, model, params):
    """Field components from the field oracle, kinematic momentum pi and gamma_pi at (x, p)."""
    f = oracle_components(model, *x)
    ec, A = params.e / params.c, f.A
    pi = (p[0] - ec * A[0], p[1] - ec * A[1], p[2] - ec * A[2])
    g2 = 1.0 + _dot(pi, pi) / params.mc ** 2
    return f, pi, math_of(g2).sqrt(g2)


def _coefficients(g, params):
    """Weights (a, b, d) of F_pi = a B - b (pi.B) pi - d (pi x E)."""
    gm, em, mc = params.gamma_m, params.e / params.mc, params.mc
    u, w, kb = 1.0 / g, 1.0 / (g + 1.0), (gm - em) / mc ** 2
    return gm - em + em * u, kb * u * w, (gm * u - em * w) / mc


def _weight_derivatives(g, params):
    """d/dg of the weights (a, b, d) of F_pi."""
    gm, em, mc = params.gamma_m, params.e / params.mc, params.mc
    u, w, kb = 1.0 / g, 1.0 / (g + 1.0), (gm - em) / mc ** 2
    return -em * u * u, -kb * u * w * (u + w), (em * w * w - gm * u * u) / mc


def oracle_eom_arrays(x, p, s, model, params):
    """(dx/dt, dp/dt, ds/dt) in component form, every E and grad-E term formed."""
    f, pi, g = _local(x, p, model, params)
    E, B = f.E, f.B
    a, b, d = _coefficients(g, params)
    da, db, dd = _weight_derivatives(g, params)
    spi, piB = _dot(s, pi), _dot(pi, B)
    dHs_dg = -da * _dot(s, B) + db * piB * spi + dd * _dot(E, _cross(s, pi))
    dH_dpi = _comb((1.0 / params.m + dHs_dg / params.mc ** 2) / g, pi, b * spi, B, b * piB, s)
    dH_dpi = _comb(1.0, dH_dpi, d, _cross(E, s))
    chain = _vecmat(dH_dpi, f.jac_A)
    dB = _vecmat(_comb(-a, s, b * _dot(s, pi), pi), f.grad_B)
    grad = _comb(1.0, dB, d, _vecmat(_cross(s, pi), f.grad_E))
    dp = _comb(-params.e, f.grad_phi, -1.0, grad, params.e / params.c, chain)
    F = _comb(a, B, -b * _dot(pi, B), pi, -d, _cross(pi, E))
    return dH_dpi, dp, _cross(s, F)


def oracle_point(x, p, s, model, params):
    """(H, d(H_spin)/dx at fixed pi, pi, gamma_pi, F_pi, E, B) in component form, every E and grad-E term
    formed; E and B as the model gives them."""
    f, pi, g = _local(x, p, model, params)
    a, b, d = _coefficients(g, params)
    dB = _vecmat(_comb(-a, s, b * _dot(s, pi), pi), f.grad_B)
    grad = _comb(1.0, dB, d, _vecmat(_cross(s, pi), f.grad_E))
    F = _comb(a, f.B, -b * _dot(pi, f.B), pi, -d, _cross(pi, f.E))
    return g * params.mc2 + params.e * f.phi - _dot(s, F), grad, pi, g, F, f.E, f.B


def oracle_stage(y, h, pairs, ks):
    """y + h * (w_1 k_1 + w_2 k_2 + ...) per component over a row's (w_j, j)
    pairs, the terms added in tableau order; y itself without pairs."""
    if not pairs:
        return y
    (w, j), rest = pairs[0], pairs[1:]
    if not rest:
        return [yi + h * (w * a) for yi, a in zip(y, ks[j])]
    acc = [w * a for a in ks[j]]
    for w, j in rest:
        acc = [c + w * a for c, a in zip(acc, ks[j])]
    return [yi + h * c for yi, c in zip(y, acc)]


def component_norm(u):
    """|u| as sqrt(u1 u1 + u2 u2 + u3 u3), the squares added in component order."""
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def oracle_integrate(state0, model, params, spec, T, norm=np.linalg.norm):
    """integrate as an ndarray stepper: y is a (9,) array, each stage point
    y + h * sum(w * k) over the nonzero weights, the spin norm `norm`."""
    stages, weights, err_weights = classical.TABLEAUX[spec.method]
    fixed = err_weights is None
    n = max(1, int(round(T / spec.step)))
    h = T / n if fixed else min(spec.step, T)

    def increment(h, weights, ks):
        return h * sum(w * k for w, k in zip(weights, ks) if w)

    def rhs(y):
        v = y.tolist()
        dx, dp, ds = oracle_eom_arrays(v[0:3], v[3:6], v[6:9], model, params)
        return np.array(dx + dp + ds)

    ts, ys, drifts = [state0.t], [np.concatenate([state0.x, state0.p, state0.s])], [0.0]
    y, t, drift_cum, attempts, rejected = ys[0], 0.0, 0.0, 0, 0
    s0_mag = float(norm(state0.s))

    def trajectory():
        Y = np.array(ys)
        s = Y[:, 6:9]
        hs = classical.h_total_blocked(Y, model, params)
        calls = len(stages) * attempts
        return classical.Trajectory(
            np.array(ts), Y[:, 0:3], Y[:, 3:6], s, hs, np.linalg.norm(s, axis=1), np.array(drifts), calls, rejected
        )

    while (len(ts) <= n) if fixed else (t < T * (1.0 - 1e-12)):
        if not fixed:
            if attempts >= spec.max_steps:
                raise IntegrationError("max step count exceeded", trajectory())
            h = min(h, T - t)
            if h < max(1e-14 * max(1.0, abs(t)), 1e-12 * T):
                raise IntegrationError("step size underflow", trajectory())
        ks = []
        for row in stages:
            ks.append(rhs(y + increment(h, row, ks)))
        accept, factor = True, 1.0
        if not fixed:
            err = float(np.abs(increment(h, err_weights, ks)).max())
            scale = spec.tol * max(1.0, float(np.abs(y).max()))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            mag_before = float(norm(y[6:9]))
            y = y + increment(h, weights, ks)
            t = len(ts) * h if fixed else t + h
            raw = float(norm(y[6:9]))
            drift_cum += (raw - mag_before) / s0_mag
            if abs(raw - s0_mag) / s0_mag > classical.SPIN_RENORM_THRESHOLD:
                y[6:9] *= s0_mag / raw
            ts.append(state0.t + t)
            ys.append(y)
            drifts.append(drift_cum)
        else:
            rejected += 1
        h *= factor
        attempts += 1
    return trajectory()


# ---------------------------------------------------------------------------
# the slow path: the hand-written field components, the closure point kernel
# and the per-row stage functions that the generated step replaced, kept as
# the oracle of the generated code, bit for bit

ZERO_SAMPLE = FieldSample(0.0, ZERO3, ZERO3, ZERO3, ZERO3, ZERO33, ZERO33, ZERO33)


def _add(u, v):
    """u + v for numbers, arrays or nested tuples of them; adding zero is skipped."""
    if u is ZERO3 or u is ZERO33:
        return v
    if v is ZERO3 or v is ZERO33:
        return u
    return tuple(map(_add, u, v)) if isinstance(u, tuple) else u + v


def add_samples(u, v):
    """Field-by-field sum of two samples."""
    return FieldSample(*map(_add, u, v))


def oracle_components(model, x, y, z):
    """The model's FieldSample from the hand-written formulas the generated components replaced, zero
    sentinels included; a Superposition sums its models' samples field by field in model order."""
    if isinstance(model, Superposition):
        samples = [oracle_components(m, x, y, z) for m in model.models]
        return functools.reduce(add_samples, samples) if samples else ZERO_SAMPLE
    if isinstance(model, Uniform):
        E, B = (tuple(np.asarray(v, dtype=float).tolist()) for v in (model.E0, model.B0))
        E, B = (ZERO3 if v == ZERO3 else v for v in (E, B))
        (Ex, Ey, Ez), (Bx, By, Bz) = E, B
        phi = -(Ex * x + Ey * y + Ez * z)
        A = (By * z - Bz * y, 0.0, Bx * y)
        jac_A = ((0.0, -Bz, By), ZERO3, (0.0, Bx, 0.0))
        grad_phi = ZERO3 if E is ZERO3 else (-Ex, -Ey, -Ez)
        return FieldSample(phi, A, E, B, grad_phi, jac_A, ZERO33, ZERO33)
    if isinstance(model, SternGerlach):
        b = model.b
        Bz = model.B0 + b * z
        B = (-0.5 * b * x, -0.5 * b * y, Bz)
        A = (-0.5 * y * Bz, 0.5 * x * Bz, 0.0)
        jac_A = ((0.0, -0.5 * Bz, -0.5 * y * b), (0.5 * Bz, 0.0, 0.5 * x * b), ZERO3)
        grad_B = ((-0.5 * b, 0.0, 0.0), (0.0, -0.5 * b, 0.0), (0.0, 0.0, b))
        return FieldSample(0.0, A, ZERO3, B, ZERO3, jac_A, ZERO33, grad_B)
    k, lam = 2.0 * math.pi / model.L, model.lam
    lib = math_of(x)
    s, c = lib.sin(k * x), lib.cos(k * x)
    if isinstance(model, SinusoidalElectrostatic):
        grad_E = ((lam * k * c, 0.0, 0.0), ZERO3, ZERO3)
        return FieldSample(lam / k * c, ZERO3, (lam * s, 0.0, 0.0), ZERO3, (-lam * s, 0.0, 0.0), ZERO33, grad_E, ZERO33)
    jac_A = (ZERO3, (lam * c, 0.0, 0.0), ZERO3)
    grad_B = (ZERO3, ZERO3, (-lam * k * s, 0.0, 0.0))
    return FieldSample(0.0, (0.0, lam / k * s, 0.0), ZERO3, (0.0, 0.0, lam * c), ZERO3, jac_A, ZERO33, grad_B)


def slow_kernel(model, params, components=None):
    """The closure point kernel of H = gamma_pi mc^2 + e phi - s.F_pi, on the field oracle's components (or on
    `components`), every branch on a zero sentinel taken at each call."""
    components = components or functools.partial(oracle_components, model)
    e, gm, mc = params.e, params.gamma_m, params.mc
    ec, em, mc_sq, inv_m = e / params.c, e / mc, mc ** 2, 1.0 / params.m
    gme, kb, sqrt = gm - em, (gm - em) / mc_sq, math.sqrt

    def kernel(y, eom=True):
        x0, x1, x2, p0, p1, p2, s0, s1, s2 = y
        phi, (A0, A1, A2), E, B, grad_phi, jac_A, grad_E, grad_B = components(x0, x1, x2)
        B0, B1, B2 = B
        pi0, pi1, pi2 = p0 - ec * A0, p1 - ec * A1, p2 - ec * A2
        g2 = 1.0 + (pi0 * pi0 + pi1 * pi1 + pi2 * pi2) / mc_sq
        g = sqrt(g2) if g2.__class__ is float else math_of(g2).sqrt(g2)
        u, w = 1.0 / g, 1.0 / (g + 1.0)
        a, b, d = gme + em * u, kb * u * w, (gm * u - em * w) / mc
        piB = pi0 * B0 + pi1 * B1 + pi2 * B2
        c4 = -b * piB
        F0, F1, F2 = a * B0 + c4 * pi0, a * B1 + c4 * pi1, a * B2 + c4 * pi2
        if E is ZERO3:
            F0, F1, F2 = F0 + 0.0, F1 + 0.0, F2 + 0.0
        else:
            E0, E1, E2 = E
            F0, F1, F2 = F0 - d * (pi1 * E2 - pi2 * E1), F1 - d * (pi2 * E0 - pi0 * E2), F2 - d * (pi0 * E1 - pi1 * E0)
        H = None if eom else g * params.mc2 + e * phi - (s0 * F0 + s1 * F1 + s2 * F2)
        if eom is None:
            return H
        spi = s0 * pi0 + s1 * pi1 + s2 * pi2
        sxpi0, sxpi1, sxpi2 = s1 * pi2 - s2 * pi1, s2 * pi0 - s0 * pi2, s0 * pi1 - s1 * pi0
        c2 = b * spi
        if grad_B is ZERO33:
            gr0 = gr1 = gr2 = 0.0
        else:
            q0, q1, q2 = -a * s0 + c2 * pi0 + 0.0, -a * s1 + c2 * pi1 + 0.0, -a * s2 + c2 * pi2 + 0.0
            (G00, G01, G02), (G10, G11, G12), (G20, G21, G22) = grad_B
            gr0 = q0 * G00 + q1 * G10 + q2 * G20
            gr1 = q0 * G01 + q1 * G11 + q2 * G21
            gr2 = q0 * G02 + q1 * G12 + q2 * G22
        if grad_E is not ZERO33:
            (G00, G01, G02), (G10, G11, G12), (G20, G21, G22) = grad_E
            gr0 = gr0 + d * (sxpi0 * G00 + sxpi1 * G10 + sxpi2 * G20) + 0.0
            gr1 = gr1 + d * (sxpi0 * G01 + sxpi1 * G11 + sxpi2 * G21) + 0.0
            gr2 = gr2 + d * (sxpi0 * G02 + sxpi1 * G12 + sxpi2 * G22) + 0.0
        if not eom:
            return H, (gr0, gr1, gr2), (pi0, pi1, pi2), g, (F0, F1, F2), E, B
        da, db, dd = -em * u * u, -kb * u * w * (u + w), (em * w * w - gm * u * u) / mc
        dHs_dg = -da * (s0 * B0 + s1 * B1 + s2 * B2) + db * piB * spi
        if E is not ZERO3:
            dHs_dg = dHs_dg + dd * (E0 * sxpi0 + E1 * sxpi1 + E2 * sxpi2)
        c1, c3 = (inv_m + dHs_dg / mc_sq) / g, b * piB
        v0, v1, v2 = c1 * pi0 + c2 * B0 + c3 * s0, c1 * pi1 + c2 * B1 + c3 * s1, c1 * pi2 + c2 * B2 + c3 * s2
        if E is not ZERO3:
            v0 = v0 + d * (E1 * s2 - E2 * s1) + 0.0
            v1 = v1 + d * (E2 * s0 - E0 * s2) + 0.0
            v2 = v2 + d * (E0 * s1 - E1 * s0) + 0.0
        if jac_A is ZERO33:
            ch0 = ch1 = ch2 = 0.0
        else:
            (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = jac_A
            ch0 = v0 * J00 + v1 * J10 + v2 * J20
            ch1 = v0 * J01 + v1 * J11 + v2 * J21
            ch2 = v0 * J02 + v1 * J12 + v2 * J22
        if grad_phi is ZERO3:
            dp0, dp1, dp2 = -gr0 + ec * ch0 + 0.0, -gr1 + ec * ch1 + 0.0, -gr2 + ec * ch2 + 0.0
        else:
            P0, P1, P2 = grad_phi
            dp0, dp1, dp2 = -e * P0 - gr0 + ec * ch0, -e * P1 - gr1 + ec * ch1, -e * P2 - gr2 + ec * ch2
        return [v0, v1, v2, dp0, dp1, dp2, s1 * F2 - s2 * F1, s2 * F0 - s0 * F2, s0 * F1 - s1 * F0]

    return kernel


def _nonzero(weights):
    """The (weight, stage index) pairs of a tableau row with a nonzero weight."""
    return tuple((w, j) for j, w in enumerate(weights) if w)


def _stage(pairs):
    """y + h * (w_1 k_1 + w_2 k_2 + ...) over a row's (w_j, j) pairs as one straight-line function (y, h, ks) -> list,
    per component, the terms added in tableau order (y itself without pairs); the weights are bound as names."""
    if not pairs:
        return lambda y, h, ks: y
    terms = " + ".join(f"w{n} * k{j}[{{i}}]" for n, (_, j) in enumerate(pairs))
    point = ", ".join(f"y[{i}] + h * ({terms.format(i=i)})" for i in range(9))
    namespace = {f"w{n}": w for n, (w, _) in enumerate(pairs)}
    exec(f"def stage(y, h, ks):\n    {''.join(f'k{j} = ks[{j}]; ' for _, j in pairs)}return [{point}]", namespace)
    return namespace["stage"]


@functools.cache
def _steppers(method):
    """The stage functions of a tableau's rows, its solution weights and its error weights (None for a
    fixed-step method)."""
    stages, weights, err_weights = classical.TABLEAUX[method]
    err = None if err_weights is None else _stage(_nonzero(err_weights))
    return [_stage(_nonzero(row)) for row in stages], _stage(_nonzero(weights)), err


def slow_integrate(state0, model, params, spec, T):
    """integrate as one slow-kernel call per stage and one stage function per tableau row, each row stored
    into the arrays as it is accepted; H from the slow kernel per H_BLOCK rows."""
    stages, step, err_point = _steppers(spec.method)
    fixed = err_point is None
    n = max(1, int(round(T / spec.step)))
    h = T / n if fixed else min(spec.step, T)
    rhs = slow_kernel(model, params)
    size = min(n, spec.max_steps) + 1
    ts, ys, drifts = np.empty(size), np.empty((size, 9)), np.empty(size)
    y = state0.x.tolist() + state0.p.tolist() + state0.s.tolist()
    ts[0], ys[0], drifts[0] = state0.t, y, 0.0
    rows, t, drift_cum, attempts, rejected = 1, 0.0, 0.0, 0, 0
    mag = s0_mag = component_norm(y[6:9])

    def trajectory():
        blocks = range(0, rows, classical.H_BLOCK)
        hs = np.concatenate([rhs(list(ys[i : min(i + classical.H_BLOCK, rows)].T), eom=None) for i in blocks])
        s = ys[:rows, 6:9]
        calls = len(stages) * attempts
        return classical.Trajectory(
            ts[:rows], ys[:rows, 0:3], ys[:rows, 3:6], s, hs, np.linalg.norm(s, axis=1), drifts[:rows], calls, rejected
        )

    while (rows <= n) if fixed else (t < T * (1.0 - 1e-12)):
        if not fixed:
            if attempts >= spec.max_steps:
                raise IntegrationError("max step count exceeded", trajectory())
            h = min(h, T - t)
            if h < max(1e-14 * max(1.0, abs(t)), 1e-12 * T):
                raise IntegrationError("step size underflow", trajectory())
        ks = []
        for stage in stages:
            ks.append(rhs(stage(y, h, ks)))
        accept, factor = True, 1.0
        if not fixed:
            err = max(map(abs, err_point((0.0,) * 9, h, ks)))
            scale = spec.tol * max(1.0, max(map(abs, y)))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            y = step(y, h, ks)
            t = rows * h if fixed else t + h
            raw = component_norm(y[6:9])
            drift_cum += (raw - mag) / s0_mag
            mag = raw
            if abs(raw - s0_mag) / s0_mag > classical.SPIN_RENORM_THRESHOLD:
                r = s0_mag / raw
                y[6:9] = [c * r for c in y[6:9]]
                mag = component_norm(y[6:9])
            if rows == len(ts):
                ts, ys, drifts = (np.concatenate([a, np.empty_like(a)]) for a in (ts, ys, drifts))
            ts[rows], ys[rows], drifts[rows] = state0.t + t, y, drift_cum
            rows += 1
        else:
            rejected += 1
        h *= factor
        attempts += 1
    return trajectory()


def assert_same_trajectory(traj, ref):
    """Every field of the trajectory equal to the reference's, the sign of every zero included."""
    for name in ("t", "x", "p", "s", "h_total", "s_mag", "spin_drift"):
        got, want = getattr(traj, name), getattr(ref, name)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name
    assert (traj.rhs_calls, traj.rejected) == (ref.rhs_calls, ref.rejected)


def assert_matches_oracle(traj, ref):
    """The trajectory equals the oracle's bit for bit; the spin norms may differ by round-off."""
    for name in ("t", "x", "p", "s", "h_total"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    assert np.abs(traj.spin_drift - ref.spin_drift).max() <= 1e-15
    assert np.abs(traj.s_mag - ref.s_mag).max() <= 1e-15
    assert (traj.rhs_calls, traj.rejected) == (ref.rhs_calls, ref.rejected)


class TestHamiltonians:
    # H is linear in s, so H(s) + H(-s) isolates the orbital energy and
    # H(s) - H(-s) the spin coupling -2 s.F_pi

    def test_rest_energy(self):
        st = PhaseState(np.zeros(3), np.zeros(3), np.array([0, 0, 0.5]))
        assert h_total(st, NO_FIELD, PARAMS) == pytest.approx(PARAMS.mc2)

    def test_gamma_two_energy(self):
        p = np.array([np.sqrt(3.0) * PARAMS.mc, 0, 0])
        st = PhaseState(np.zeros(3), p, np.array([0, 0, 0.5]))
        assert h_total(st, NO_FIELD, PARAMS) == pytest.approx(2 * PARAMS.mc2, rel=1e-14)

    def test_orbit_equals_gamma_mc2_plus_potential(self):
        model = SinusoidalElectrostatic(lam=0.4, L=2.0)
        for _ in range(50):
            st = random_state()
            sample = sample_field(model, st.x)
            pi = kinematic_momentum(st.p, sample.A, PARAMS)
            want = gamma_pi(pi, PARAMS) * PARAMS.mc2 + PARAMS.e * sample.phi
            orbital = 0.5 * (h_total(st, model, PARAMS) + h_total(flip_spin(st), model, PARAMS))
            assert orbital == pytest.approx(want, rel=1e-14)

    def test_h_spin_is_projection(self):
        model = SternGerlach(B0=1.0, b=0.2)
        for _ in range(50):
            st = random_state()
            sample = sample_field(model, st.x)
            pi = kinematic_momentum(st.p, sample.A, PARAMS)
            want = -st.s @ precession_vector(pi, sample.E, sample.B, PARAMS)
            # the difference of two O(1) energies rounds to half an ulp of H
            spin = 0.5 * (h_total(st, model, PARAMS) - h_total(flip_spin(st), model, PARAMS))
            assert spin == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_h_spin_orthogonal_spin(self):
        st = PhaseState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0]))
        assert h_total(st, Uniform(B0=np.array([0, 0, 2.0])), PARAMS) == PARAMS.mc2

    def test_larmor_energy(self):
        B0 = 1.7
        st = PhaseState(np.zeros(3), np.zeros(3), np.array([0, 0, PARAMS.hbar / 2]))
        want = PARAMS.mc2 - PARAMS.gamma_m * PARAMS.hbar * B0 / 2
        assert h_total(st, Uniform(B0=np.array([0, 0, B0])), PARAMS) == pytest.approx(want, rel=1e-14)

    def test_total_is_sum(self):
        # gamma_pi mc^2 + e phi - s.F_pi, with potential, E and B all present
        model = Superposition(SternGerlach(B0=1.0, b=0.2), SinusoidalElectrostatic(lam=0.4, L=2.0))
        for _ in range(50):
            st = random_state()
            sample = sample_field(model, st.x)
            pi = kinematic_momentum(st.p, sample.A, PARAMS)
            want = (
                gamma_pi(pi, PARAMS) * PARAMS.mc2
                + PARAMS.e * sample.phi
                - st.s @ precession_vector(pi, sample.E, sample.B, PARAMS)
            )
            assert h_total(st, model, PARAMS) == pytest.approx(want, rel=1e-15)

    def test_field_free_total(self):
        # no field: neither the potential nor the spin contributes
        for _ in range(20):
            st = random_state()
            assert h_total(st, NO_FIELD, PARAMS) == pytest.approx(gamma_pi(st.p, PARAMS) * PARAMS.mc2, rel=1e-15)


class TestPrecessionVector:
    def test_larmor_limit(self):
        B = np.array([0.3, -0.2, 0.9])
        F = precession_vector(np.zeros(3), np.zeros(3), B, PARAMS)
        assert np.allclose(F, PARAMS.gamma_m * B, rtol=1e-15)

    def test_g2_longitudinal_term_vanishes(self):
        pr = ParticleParams.dirac(m=1.0, e=0.8)
        for _ in range(20):
            pi = RNG.normal(scale=pr.mc, size=3)
            B = RNG.normal(size=3)
            F = precession_vector(pi, np.zeros(3), B, pr)
            g = gamma_pi(pi, pr)
            assert np.allclose(F, (pr.e / (pr.mc * g)) * B, rtol=1e-13)

    def test_low_speed_agreement_slope(self):
        E, B = np.array([0.4, 0.1, -0.3]), np.array([-0.2, 0.5, 0.7])
        diffs = []
        betas = [1e-2, 1e-3]
        for b in betas:
            pi = np.array([0, 0, b]) * PARAMS.mc  # beta ~ b to leading order
            # leading small-velocity form of F_pi
            beta = v_pi(pi, PARAMS) / PARAMS.c
            gm, e, mc = PARAMS.gamma_m, PARAMS.e, PARAMS.mc
            low = gm * B - 0.5 * (gm - e / mc) * (beta @ B) * beta - (gm - e / (2 * mc)) * np.cross(beta, E)
            d = precession_vector(pi, E, B, PARAMS) - low
            diffs.append(np.abs(d).max())
        slope = np.polyfit(np.log(betas), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)


class TestGradients:
    def test_uniform_field_no_gradient_force(self):
        model = Uniform(E0=np.array([0.1, 0.2, 0.3]), B0=np.array([0.5, -0.4, 0.8]))
        st = random_state()
        assert np.allclose(explicit_gradient(st, model), 0.0, atol=1e-15)

    def test_orbital_momentum_gradient_is_velocity(self):
        for _ in range(20):
            st = random_state()
            dx, _, _ = eom_rhs(st, NO_FIELD, PARAMS)
            assert np.allclose(dx, v_pi(st.p, PARAMS), rtol=1e-14)

    def test_finite_difference_oracle(self):
        # 1000 random states: (dH/dx, dH/dp) = (-dp/dt, dx/dt) against
        # central differences of h_total
        model = SternGerlach(B0=1.0, b=0.3)
        h = 1e-6
        for _ in range(1000):
            st = random_state()
            dHp, dp, _ = eom_rhs(st, model, PARAMS)
            dHx = -dp
            j = RNG.integers(3)
            dx = np.zeros(3)
            dx[j] = h
            fd_x = (
                h_total(PhaseState(st.x + dx, st.p, st.s), model, PARAMS)
                - h_total(PhaseState(st.x - dx, st.p, st.s), model, PARAMS)
            ) / (2 * h)
            fd_p = (
                h_total(PhaseState(st.x, st.p + dx, st.s), model, PARAMS)
                - h_total(PhaseState(st.x, st.p - dx, st.s), model, PARAMS)
            ) / (2 * h)
            assert abs(dHx[j] - fd_x) < 1e-7
            assert abs(dHp[j] - fd_p) < 1e-7


class TestGradientOracleCheck:
    @pytest.mark.parametrize("seed", [7, SCHEMA["seed"][1], 123])
    def test_matches_per_state_loop(self, seed):
        r = checks.check_gradient_oracle(seed)
        worst, state, part = gradient_oracle_per_state(seed)
        assert r.value == worst
        assert (r.detail["worst_state"], r.detail["worst_part"]) == (state, part)
        assert r.passed

    def test_work_counts(self, monkeypatch):
        # an H call is a kernel call with eom=None, on the columns of its rows
        calls = {"eom": 0, "h": 0, "rows": 0}
        eom, make_kernel = checks.eom_rhs, classical._eom_kernel

        def counted_eom(*args):
            calls["eom"] += 1
            return eom(*args)

        def counted_kernel(model, params):
            kernel = make_kernel(model, params)

            def counted(y, eom=True):
                if eom is None:
                    calls["h"] += 1
                    calls["rows"] += len(y[0])
                    assert len(y[0]) <= classical.H_BLOCK
                return kernel(y, eom)

            return counted

        monkeypatch.setattr(checks, "eom_rhs", counted_eom)
        monkeypatch.setattr(classical, "_eom_kernel", counted_kernel)
        d = checks.check_gradient_oracle().detail
        assert (d["eom_calls"], d["h_rows"], d["h_calls"]) == (1000, 18000, 18)
        assert (calls["eom"], calls["rows"], calls["h"]) == (d["eom_calls"], d["h_rows"], d["h_calls"])
        assert 0 <= d["worst_state"] < 1000 and d["worst_part"] in ("dx", "dp", "ds")

    def test_fails_without_stern_gerlach_force(self, monkeypatch):
        # a dp/dt that drops the field-gradient term -d(H_spin)/dx
        eom = checks.eom_rhs

        def no_gradient_force(st, model, params):
            dx, dp, ds = eom(st, model, params)
            return dx, dp + explicit_gradient(st, model, params), ds

        monkeypatch.setattr(checks, "eom_rhs", no_gradient_force)
        r = checks.check_gradient_oracle()
        assert not r.passed
        assert r.detail["worst_part"] == "dp"


class TestEomRhs:
    def test_pure_lorentz_force(self):
        B0, p = 0.9, 1.3
        model = Uniform(B0=np.array([0, 0, B0]))
        st = PhaseState(np.zeros(3), np.array([p, 0, 0]), np.array([0, 0, 1e-30]))
        dx, dp, _ = eom_rhs(st, model, PARAMS)
        v = p / (PARAMS.m * gamma_pi(np.array([p, 0, 0]), PARAMS))
        assert dp[1] == pytest.approx(-PARAMS.e * v * B0 / PARAMS.c, rel=1e-12)
        assert abs(dp[0]) < 1e-12 and abs(dp[2]) < 1e-12

    def test_larmor_spin_rate(self):
        model = Uniform(B0=np.array([0, 0, 1.2]))
        s = np.array([0.3, 0.4, 0.5])
        st = PhaseState(np.zeros(3), np.zeros(3), s)
        _, _, ds = eom_rhs(st, model, PARAMS)
        assert np.allclose(ds, np.cross(s, PARAMS.gamma_m * np.array([0, 0, 1.2])), rtol=1e-14)

    def test_stern_gerlach_gradient_force(self):
        b = 0.4
        model = SternGerlach(B0=1.0, b=b)
        st = PhaseState(np.zeros(3), np.zeros(3), np.array([0, 0, PARAMS.hbar / 2]))
        _, dp, _ = eom_rhs(st, model, PARAMS)
        assert np.allclose(dp, [0, 0, PARAMS.hbar * PARAMS.gamma_m * b / 2], rtol=1e-13)


class TestIntegrate:
    def test_larmor_one_period(self):
        B0 = 1.0
        model = Uniform(B0=np.array([0, 0, B0]))
        TL = 2 * np.pi / (PARAMS.gamma_m * B0)
        s0 = np.array([1.0, 0.0, 0.5])
        traj = integrate(
            PhaseState(np.zeros(3), np.zeros(3), s0),
            model,
            PARAMS,
            IntegratorSpec(step=TL / 1000),
            TL,
        )
        assert np.abs(traj.s[-1] - s0).max() < 1e-8 * np.linalg.norm(s0)

    def test_zero_fields_exact(self):
        st = PhaseState(np.zeros(3), np.array([0.4, 0.2, -0.1]), np.array([0.3, 0.1, 0.9]))
        traj = integrate(st, NO_FIELD, PARAMS, IntegratorSpec(step=0.01), 1.0)
        v = v_pi(st.p, PARAMS)
        assert np.allclose(traj.x[-1], v * 1.0, atol=1e-13)
        assert np.allclose(traj.p[-1], st.p)
        assert np.allclose(traj.s[-1], st.s)

    def test_pitch_lock_short(self):
        # g = 2: longitudinal polarization is frozen in a uniform B.
        # Spin kept in the orbital plane so the spin energy carries no
        # momentum dependence (s.B = 0) and the lock is exact.
        pr = ParticleParams.dirac(m=1.0, e=1.0)
        B0 = 1.0
        p0 = np.array([pr.mc, 0.0, 0.0])
        g = gamma_pi(p0, pr)
        Tc = 2 * np.pi * g * pr.mc / (pr.e * B0)
        model = Uniform(B0=np.array([0, 0, B0]))
        s0 = np.array([0.48, 0.36, 0.0])
        traj = integrate(PhaseState(np.zeros(3), p0, s0), model, pr, IntegratorSpec(step=Tc / 4000), 2 * Tc)
        pi = np.array(
            [kinematic_momentum(p, sample_field(model, x).A, pr) for x, p in zip(traj.x, traj.p)]
        )
        pitch = np.einsum("ij,ij->i", traj.s, pi) / np.linalg.norm(pi, axis=1)
        assert np.abs(pitch - pitch[0]).max() < 1e-8

    def test_spin_magnitude_recorded_drift(self):
        model = SternGerlach(B0=1.0, b=0.2)
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        traj = integrate(st, model, PARAMS, IntegratorSpec(step=1e-3), 2.0)
        assert np.abs(traj.spin_drift).max() < 1e-11
        assert np.abs(traj.s_mag - traj.s_mag[0]).max() < 1e-11

    def test_rkf45_matches_rk4(self):
        model = SternGerlach(B0=1.0, b=0.2)
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        a = integrate(st, model, PARAMS, IntegratorSpec(step=1e-4), 1.0)
        # an initial step of 0.5 is rejected before the step size settles
        for step0 in (1e-3, 0.5):
            b = integrate(st, model, PARAMS, IntegratorSpec(method="rkf45", step=step0, tol=1e-12), 1.0)
            assert np.abs(a.x[-1] - b.x[-1]).max() < 1e-8
            assert np.abs(a.s[-1] - b.s[-1]).max() < 1e-8

    def assert_failure_carries_accepted_prefix(self, model, spec, message):
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        with pytest.raises(IntegrationError) as err:
            integrate(st, model, PARAMS, spec, 10.0)
        with pytest.raises(IntegrationError) as ref:
            oracle_integrate(st, model, PARAMS, spec, 10.0)
        assert str(err.value) == str(ref.value) == message
        assert err.value.partial is not None and len(err.value.partial) >= 1
        assert_matches_oracle(err.value.partial, ref.value.partial)

    def test_max_steps_carries_partial(self):
        spec = IntegratorSpec(method="rkf45", step=1e-3, tol=1e-12, max_steps=5)
        self.assert_failure_carries_accepted_prefix(SternGerlach(B0=1.0, b=0.2), spec, "max step count exceeded")

    def test_step_underflow_carries_partial(self):
        # at tol = 1e-30 the error estimate is round-off: every step is
        # rejected until h falls below the 1e-12 T floor, and the partial
        # trajectory is the oracle's (here the initial row alone)
        spec = IntegratorSpec(method="rkf45", step=1e-3, tol=1e-30, max_steps=1000)
        self.assert_failure_carries_accepted_prefix(SternGerlach(B0=10.0, b=0.2), spec, "step size underflow")

    def test_unreachable_tol_underflows_promptly(self):
        # in this weaker trap round-off-sized steps of ~1e-13 pass the error
        # test, so only the floor relative to T ends the run before max_steps
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        spec = IntegratorSpec(method="rkf45", step=1e-3, tol=1e-30)
        with pytest.raises(IntegrationError, match="^step size underflow$") as err:
            integrate(st, SternGerlach(B0=1.0, b=0.2), PARAMS, spec, 10.0)
        assert err.value.partial.rhs_calls < 1000

    def test_nan_error_estimate_ends_the_run(self):
        # a spin of 1e100 has a finite H, but the first step's stages overflow into NaN, the error
        # estimate's first component included; such a step used to be retried until max_steps
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5e100, 0.2e100, 0.8e100]))
        spec = IntegratorSpec(method="rkf45", step=1e-3, tol=1e-12, max_steps=1000)
        with pytest.raises(IntegrationError, match="^error estimate is NaN$") as err:
            integrate(st, SternGerlach(B0=1.0, b=0.2), checks.CANONICAL, spec, 10.0)
        partial = err.value.partial
        assert (len(partial), partial.rhs_calls, partial.rejected) == (1, 6, 0)
        assert np.isfinite(partial.h_total).all()

    @pytest.mark.parametrize("index", [0, 4, 8])
    def test_nan_anywhere_in_the_error_estimate(self, monkeypatch, index):
        # the step's estimate with one NaN component from the third attempt on: the run ends there with
        # the two attempts before it, as a run with max_steps = 2 does; max alone drops a NaN after the first
        real = classical.compiled

        def compiled(source):
            make = real(source)
            if "def step(" not in source:
                return make

            def poisoned(consts):
                step, attempts = make(consts), []

                def nan_step(y, h):
                    y_next, increment = step(y, h)
                    attempts.append(h)
                    if len(attempts) >= 3:
                        increment[index] = math.nan
                    return y_next, increment

                return nan_step

            return poisoned

        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        model, spec = SternGerlach(B0=1.0, b=0.2), IntegratorSpec(method="rkf45", step=1e-3, tol=1e-12, max_steps=2)
        with pytest.raises(IntegrationError, match="^max step count exceeded$") as ref:
            integrate(st, model, PARAMS, spec, 10.0)
        monkeypatch.setattr(classical, "compiled", compiled)
        with pytest.raises(IntegrationError, match="^error estimate is NaN$") as err:
            integrate(st, model, PARAMS, IntegratorSpec(method="rkf45", step=1e-3, tol=1e-12, max_steps=1000), 10.0)
        assert err.value.partial.rhs_calls == ref.value.partial.rhs_calls + 6
        assert len(err.value.partial) == len(ref.value.partial) == 3
        for column in ("t", "x", "p", "s", "h_total", "s_mag", "spin_drift"):
            assert np.array_equal(getattr(err.value.partial, column), getattr(ref.value.partial, column))

    def test_energy_conservation_short(self):
        model = SternGerlach(B0=1.0, b=0.2)
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        traj = integrate(st, model, PARAMS, IntegratorSpec(step=1e-3), 5.0)
        drift = np.abs(traj.h_total - traj.h_total[0]).max() / abs(traj.h_total[0])
        assert drift < 1e-10


# the five field models, and a Uniform B alone, whose E is the zero sentinel
KERNEL_MODELS = {
    "uniform": Uniform(E0=np.array([0.3, -0.2, 0.5]), B0=np.array([0.4, 0.9, -0.6])),
    "uniform_b": Uniform(B0=np.array([0.4, 0.9, -0.6])),
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


def oracle_runs():
    """The integrations compared against oracle_integrate: (state0, model, params, spec, T)."""
    larmor_T = 2 * np.pi / checks.CANONICAL.gamma_m
    dirac = ParticleParams.dirac(m=1.0, e=1.0)
    p0 = np.array([dirac.mc, 0.0, 0.0])
    cyclotron_T = 2 * np.pi * gamma_pi(p0, dirac) * dirac.mc / dirac.e
    uniform_b = Uniform(B0=np.array([0.0, 0.0, 1.0]))
    trap = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
    return {
        # the conservation check's state, field and step, over its first 2000 steps
        "conservation": (
            PhaseState(np.array([0.1, 0.2, -0.1]), np.array([0.3, -0.2, 0.25]), np.array([0.3, 0.1, 0.35])),
            SternGerlach(B0=5.0, b=0.01),
            checks.CANONICAL,
            IntegratorSpec(step=2e-4),
            2000 * 2e-4,
        ),
        "larmor": (
            PhaseState(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.25])),
            uniform_b,
            checks.CANONICAL,
            IntegratorSpec(step=larmor_T / 1000),
            larmor_T,
        ),
        # the pitch-lock check's step, over one of its ten periods
        "pitch_lock": (
            PhaseState(np.zeros(3), p0, np.array([0.48, 0.36, 0.0])),
            uniform_b,
            dirac,
            IntegratorSpec(step=cyclotron_T / 2000),
            cyclotron_T,
        ),
        "superposition": (trap, ORACLE_FIELD, PARAMS, IntegratorSpec(step=1e-3), 2.0),
        # an initial step of 0.5 is rejected before the step size settles
        "rkf45": (trap, SternGerlach(B0=1.0, b=0.2), PARAMS, IntegratorSpec(method="rkf45", step=0.5, tol=1e-12), 1.0),
        # rkf45's multi-pair stage rows with every E, grad-E and grad-phi term present
        "rkf45_superposition": (trap, ORACLE_FIELD, PARAMS, IntegratorSpec(method="rkf45", step=0.5, tol=1e-12), 1.0),
    }


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(oracle_runs()))
    def test_integrate_matches_oracle(self, name):
        args = oracle_runs()[name]
        assert_matches_oracle(integrate(*args), oracle_integrate(*args))

    @pytest.mark.parametrize("name", sorted(oracle_runs()))
    def test_every_step_renormalized_matches_oracle(self, name, monkeypatch):
        # no run drifts past the default threshold; at 0 every step whose |s| moved is renormalized, so
        # the |s| carried to the next step is the one recomputed after the renormalization. The oracle
        # forms |s| in component order, as integrate does (np.linalg.norm differs in the last bits)
        args = oracle_runs()[name]
        default = integrate(*args)
        monkeypatch.setattr(classical, "SPIN_RENORM_THRESHOLD", 0.0)
        traj = integrate(*args)
        assert not np.array_equal(traj.s, default.s)
        assert_matches_oracle(traj, oracle_integrate(*args, norm=component_norm))

    def test_stage_functions_match_the_fold(self):
        # the slow path's stage, solution and error rows of both tableaux (arities 0 to 5) against the
        # per-component fold, equal with the sign of every zero, on random y and ks holding +-0.0;
        # the error row also from the origin, as the slow path evaluates it
        rng = np.random.default_rng(2718)
        rows = []
        for method, (stages, weights, err_weights) in classical.TABLEAUX.items():
            fns, step, err = _steppers(method)
            rows += [*zip(stages, fns), (weights, step)] + ([] if err is None else [(err_weights, err)])
        rows.append(((0.0, 0.0, 0.0), _stage(_nonzero((0.0, 0.0, 0.0)))))
        pairs = [tuple((w, j) for j, w in enumerate(row) if w) for row, _ in rows]
        assert {len(p) for p in pairs} == {0, 1, 2, 3, 4, 5}
        scales = [0.0, -0.0, 1.0, 1e-200, 1e200]
        for _ in range(200):
            y = (rng.normal(size=9) * rng.choice(scales, size=9)).tolist()
            ks = (rng.normal(size=(6, 9)) * rng.choice(scales, size=(6, 9))).tolist()
            h = float(rng.uniform(1e-4, 0.5))
            for (_, stage), row_pairs in zip(rows, pairs):
                for start in (y, (0.0,) * 9):
                    got, want = stage(start, h, ks), oracle_stage(start, h, row_pairs, ks)
                    if not row_pairs:
                        assert got is start
                    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_step_compiled_once_per_structure(self):
        # a second run on another Stern-Gerlach trap, the same source with other constants, compiles nothing
        state0, model, params, spec, T = oracle_runs()["rkf45"]
        integrate(state0, model, params, spec, T)
        misses = fields.compiled.cache_info().misses
        other = SternGerlach(B0=2.0, b=0.1)
        traj = integrate(state0, other, params, spec, T)
        assert fields.compiled.cache_info().misses == misses
        assert_matches_oracle(traj, oracle_integrate(state0, other, params, spec, T))

    def test_rk4_work_counters(self):
        traj = integrate(*oracle_runs()["conservation"])
        assert (len(traj) - 1, traj.rhs_calls, traj.rejected) == (2000, 4 * 2000, 0)

    def test_rkf45_work_counters(self):
        traj = integrate(*oracle_runs()["rkf45"])
        assert traj.rejected >= 1
        assert traj.rhs_calls == 6 * (len(traj) - 1 + traj.rejected)

    def test_eom_rhs_matches_parent(self):
        # eom_rhs at 1000 random states on the gradient oracle's field against
        # its parent: (3,) arrays of the slow kernel's components, with the
        # field summed from a zero sample and no PhaseState validation
        def from_zero(x, y, z):
            return functools.reduce(add_samples, (oracle_components(m, x, y, z) for m in ORACLE_FIELD.models), ZERO_SAMPLE)

        kernel = slow_kernel(ORACLE_FIELD, PARAMS, from_zero)
        for y in np.random.default_rng(5150).normal(size=(1000, 9)):
            x, p, s = y[0:3], y[3:6], y[6:9]
            k = kernel(y.tolist())
            ref = tuple(map(np.array, (k[0:3], k[3:6], k[6:9])))
            got = eom_rhs(PhaseState(x, p, s), ORACLE_FIELD, PARAMS)
            assert len(got) == 3
            for a, b in zip(got, ref):
                assert a.shape == b.shape == (3,) and np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_kernel_matches_oracle(self, name):
        # bit for bit, on 1000 random states: one float state at a time and
        # all states as (N,) components; the derivatives of kernel(y), the
        # (H, grad, pi, gamma_pi, F_pi, E, B) of kernel(y, eom=False) and the
        # H of kernel(y, eom=None)
        model = KERNEL_MODELS[name]
        X, P, S = np.random.default_rng(4242).normal(size=(3, 1000, 3))
        rhs = classical._eom_kernel(model, PARAMS)
        for x, p, s in zip(X.tolist(), P.tolist(), S.tolist()):
            dx, dp, ds = oracle_eom_arrays(x, p, s, model, PARAMS)
            assert rhs(x + p + s) == list(dx + dp + ds)
            point = oracle_point(x, p, s, model, PARAMS)
            assert rhs(x + p + s, eom=False) == point
            assert rhs(x + p + s, eom=None) == point[0]
        new = rhs([*X.T, *P.T, *S.T])
        ref = oracle_eom_arrays(X.T, P.T, S.T, model, PARAMS)
        for k in range(3):
            assert np.array_equal(to_array(tuple(new[3 * k : 3 * k + 3]), (1000,)), to_array(ref[k], (1000,)))
        new = rhs([*X.T, *P.T, *S.T], eom=False)
        ref = oracle_point(X.T, P.T, S.T, model, PARAMS)
        assert len(new) == len(ref) == 7
        for got, want in zip(new, ref):
            assert np.array_equal(to_array(got, (1000,)), to_array(want, (1000,)))
        assert np.array_equal(rhs([*X.T, *P.T, *S.T], eom=None), new[0])


# the models of the field-oracle comparisons: every kernel model, the all-zero Uniform, a Uniform E alone,
# the empty Superposition, one that holds a Superposition, and one whose phi is -0.0 + -0.0 (a sum started
# from a zero phi would give +0.0)
FIELD_MODELS = {
    **KERNEL_MODELS,
    "uniform_zero": Uniform(),
    "uniform_e": Uniform(E0=np.array([0.3, -0.2, 0.5])),
    "superposition_empty": Superposition(),
    "superposition_nested": Superposition(ORACLE_FIELD, Uniform(B0=np.array([0.0, 0.5, 0.3])), ORACLE_FIELD),
    "superposition_zero_phi": Superposition(Uniform(), Uniform(B0=np.array([0.0, 0.5, 0.3]))),
}


def sentinels(sample):
    """Which fields of a sample, and which rows of its Jacobians, are the zero sentinels."""
    return [(v is ZERO3, v is ZERO33, isinstance(v, tuple) and tuple(r is ZERO3 for r in v)) for v in sample]


def slow_path_runs():
    """(state0, model, params, spec, T) of the integrations compared with slow_integrate: every kernel model
    under rk4 (600 steps) and under rkf45 (590 to 2430 steps, after rejections)."""
    trap = PhaseState(np.array([0.1, -0.2, 0.05]), np.array([0.3, 0.0, 0.1]), np.array([0.5, 0.2, 0.8]))
    runs = {}
    for name, model in KERNEL_MODELS.items():
        runs[f"rk4-{name}"] = (trap, model, PARAMS, IntegratorSpec(step=1e-3), 0.6)
        # an initial step of 0.2 is rejected before the step size settles
        runs[f"rkf45-{name}"] = (trap, model, PARAMS, IntegratorSpec(method="rkf45", step=0.2, tol=1e-15), 3.0)
    return runs


class TestSlowPath:
    @pytest.mark.parametrize("name", sorted(FIELD_MODELS))
    def test_components_match_the_field_oracle(self, name):
        # == on 300 float points, the sentinels included, and on 300 points as (N,) arrays with every sign bit
        model = FIELD_MODELS[name]
        X = np.random.default_rng(808).normal(scale=2.0, size=(300, 3))
        for x, y, z in X.tolist():
            got, want = model.components(x, y, z), oracle_components(model, x, y, z)
            assert got == want and sentinels(got) == sentinels(want)
        got, want = model.components(*X.T), oracle_components(model, *X.T)
        assert sentinels(got) == sentinels(want)
        for a, b in zip(got, want):
            a, b = to_array(a, (300,)), to_array(b, (300,))
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("name", sorted(slow_path_runs()))
    def test_integrate_matches_the_slow_path(self, name):
        args = slow_path_runs()[name]
        traj = integrate(*args)
        assert len(traj) > 500
        if args[3].method == "rkf45":
            assert traj.rejected >= 1
        assert_same_trajectory(traj, slow_integrate(*args))

    @pytest.mark.parametrize(
        "spec, model, message",
        [
            (IntegratorSpec(method="rkf45", step=1e-3, tol=1e-14, max_steps=600), SternGerlach(1.0, 0.2), "max step"),
            (IntegratorSpec(method="rkf45", step=1e-3, tol=1e-30, max_steps=1000), SternGerlach(10.0, 0.2), "underflow"),
        ],
    )
    def test_failures_match_the_slow_path(self, spec, model, message):
        st = PhaseState(np.zeros(3), np.array([0.3, 0, 0]), np.array([0.5, 0.2, 0.8]))
        with pytest.raises(IntegrationError, match=message) as err:
            integrate(st, model, PARAMS, spec, 10.0)
        with pytest.raises(IntegrationError, match=message) as ref:
            slow_integrate(st, model, PARAMS, spec, 10.0)
        assert_same_trajectory(err.value.partial, ref.value.partial)

    @pytest.mark.parametrize("name", sorted(FIELD_MODELS))
    def test_point_kernel_matches_the_slow_kernel(self, name):
        # every call form on 100 float states and on them as (N,) arrays, the sign of every zero included,
        # and E and B the same sentinels
        model = FIELD_MODELS[name]
        Y = np.random.default_rng(909).normal(size=(100, 9))
        new, old = classical._eom_kernel(model, PARAMS), slow_kernel(model, PARAMS)
        for y, shape in [*((row, ()) for row in Y.tolist()), (list(Y.T), (100,))]:
            for eom in (True, False, None):
                got, want = new(y, eom), old(y, eom)
                if eom is False:
                    assert sentinels(got[-2:]) == sentinels(want[-2:])
                for a, b in zip(_flat(got), _flat(want), strict=True):
                    a, b = to_array(a, shape), to_array(b, shape)
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _flat(v):
    """Nested tuples and lists of numbers or arrays as one flat tuple."""
    return tuple(c for u in v for c in _flat(u)) if isinstance(v, (tuple, list)) else (v,)


class TestGeneratedCode:
    @pytest.mark.parametrize("name", sorted(FIELD_MODELS))
    def test_sentinel_slots_fixed_per_instance(self, name):
        # the same sentinels at 100 random points, one at a time and as (N,) arrays
        model = FIELD_MODELS[name]
        X = np.random.default_rng(111).normal(scale=3.0, size=(100, 3))
        first = sentinels(model.components(*X[0]))
        assert all(sentinels(model.components(x, y, z)) == first for x, y, z in X.tolist())
        assert sentinels(model.components(*X.T)) == first

    def test_uniform_structures(self):
        # a zero E or B is not written, so those Uniforms compile to code of their own
        E, B = np.array([0.3, -0.2, 0.5]), np.array([0.4, 0.9, -0.6])
        both = Uniform(E0=E, B0=B)
        for model in (Uniform(), Uniform(B0=B), Uniform(E0=E)):
            assert model.source[0] != both.source[0]
            assert classical._eom_kernel(model, PARAMS).__code__ is not classical._eom_kernel(both, PARAMS).__code__
        assert Uniform(E0=2 * E, B0=-B).source[0] is both.source[0]

    def test_stern_gerlach_instances_share_code(self):
        # one code object per structure, each instance with its own constants
        a, b = SternGerlach(B0=1.0, b=0.2), SternGerlach(B0=5.0, b=0.01)
        assert a.source[0] is b.source[0]
        for source in (classical._point_source, functools.partial(classical._step_source, "rk4")):
            assert fields.compiled(source(*a.source[:2])) is fields.compiled(source(*b.source[:2]))
        assert classical._eom_kernel(a, PARAMS).__code__ is classical._eom_kernel(b, PARAMS).__code__
        assert a.components.__code__ is b.components.__code__
        y = [0.1, -0.2, 0.3, 0.4, 0.1, -0.3, 0.5, 0.2, 0.8]
        ka, kb = classical._eom_kernel(a, PARAMS)(y), classical._eom_kernel(b, PARAMS)(y)
        assert ka != kb
        assert ka == slow_kernel(a, PARAMS)(y) and kb == slow_kernel(b, PARAMS)(y)
        st = PhaseState(np.array(y[0:3]), np.array(y[3:6]), np.array(y[6:9]))
        for model in (a, b):
            args = (st, model, PARAMS, IntegratorSpec(step=1e-2), 0.5)
            assert_same_trajectory(integrate(*args), slow_integrate(*args))

    def test_stern_gerlach_step_is_optimized(self):
        # the conservation check's step: fewer binary operations than the 770 of the step before the
        # optimizing pass, and no more locals than its 124, so no renaming of a value per stage
        model = SternGerlach(B0=5.0, b=0.01)
        source = classical._step_source("rk4", *model.source[:2])
        step = fields.compiled(source)(classical._particle(checks.CANONICAL) + model.source[2])
        ops = [i.opname for i in dis.get_instructions(step)]
        assert ops.count("BINARY_OP") < 770
        assert step.__code__.co_nlocals <= 124

    def test_pass_folds_where_no_zero_sign_reaches_a_result(self):
        # z and b are read through; u is a divisor, so its zero product stays; q reaches a result only through
        # r's closing + 0.0, so its product by 0.0 and its own + 0.0 go; r is kept, so its + 0.0 stays; s
        # reaches a result with no + 0.0 after it; k ends in + 0.0 and is returned; dead is read by nothing
        source = """\
z = 0.0
b = c
u = m * z + n
q = a * x + c * z + 0.0
r = q * b + x * z + 0.0
s = y - e * z
d = 1.0 / u
k = d * x + w * z + 0.0
dead = q * q
if flag: return k"""
        assert fields.optimized(fields.statements(source), ("r", "s")) == [
            "u = m * 0.0 + n",
            "q = a * x",
            "r = q * c + 0.0",
            "s = y - e * 0.0",
            "d = 1.0 / u",
            "k = d * x + 0.0",
            "if flag: return k",
        ]

    @pytest.mark.parametrize("name", sorted(FIELD_MODELS))
    def test_pass_inputs_assign_each_name_once(self, name):
        # fields.optimized reads a name bound to a name or to 0.0 as that in every later line, so it needs each
        # name assigned once: in a model's source with its zeros, and with either form of the template after it
        groups, _, field = fields.layout(FIELD_MODELS[name].source[0])
        for form in (frozenset(groups), frozenset(groups | {"point"})):
            pairs = fields.statements(field) + fields.statements(classical._hamiltonian(form))
            targets = [target for target, _ in pairs if target]
            assert len(targets) == len(set(targets))

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_overflowing_stage_is_not_finite(self, method):
        # the pass is exact for finite stage values: where a stage overflows (pi past 1e300), the optimized
        # step and the slow path's stages both leave a non-finite y
        model, y, h = SternGerlach(B0=1.0, b=0.2), [1e300, -0.0, 1e300, 0.3, 0.0, -0.0, 0.5, -0.0, 0.8], 1e-3
        make = fields.compiled(classical._step_source(method, *model.source[:2]))
        got = make(classical._particle(PARAMS) + model.source[2])(y, h)
        stages, solution, _ = _steppers(method)
        rhs, ks = slow_kernel(model, PARAMS), []
        for stage in stages:
            ks.append(rhs(stage(y, h, ks)))
        for y_next in (got[0] if method == "rkf45" else got, solution(y, h, ks)):
            assert not all(map(math.isfinite, y_next))


# a negative charge and a charge of -0.0: ec * 0.0 is -0.0 under both, where under PARAMS it is +0.0
SIGNED_CHARGES = {
    "positive": PARAMS,
    "negative": ParticleParams.from_moment(m=1.0, e=-0.7, mu_prime=0.13),
    "negative_zero": ParticleParams.from_moment(m=1.0, e=-0.0, mu_prime=0.13),
}


def signed_zero_states(seed, n):
    """n random rows of y = (x, p, s) with about 30% of their components +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(n, 9))
    zeros = rng.random(size=(n, 9)) < 0.3
    Y[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return Y


def signed_zero_runs():
    """(state0, model, params, spec, T) of slow-path comparisons from states with +-0.0 components: every kernel
    model under each signed charge, rk4 (300 steps) and rkf45. On the axis state a Stern-Gerlach trap keeps
    x0, x1, p0, p1, s0 and s1 at their zeros for the whole run."""
    axis = PhaseState(np.array([0.0, -0.0, 0.1]), np.array([-0.0, 0.0, 0.2]), np.array([0.0, -0.0, 0.8]))
    trap = PhaseState(np.array([0.1, -0.0, 0.0]), np.array([0.3, -0.0, 0.0]), np.array([-0.0, 0.5, 0.8]))
    runs = {}
    for charge, params in SIGNED_CHARGES.items():
        if params is not PARAMS:
            for name, model in KERNEL_MODELS.items():
                runs[f"rk4-{name}-{charge}"] = (trap, model, params, IntegratorSpec(step=1e-3), 0.3)
                rkf45 = IntegratorSpec(method="rkf45", step=0.2, tol=1e-13)
                runs[f"rkf45-{name}-{charge}"] = (trap, model, params, rkf45, 1.0)
        runs[f"rk4-axis-{charge}"] = (axis, SternGerlach(B0=1.0, b=0.2), params, IntegratorSpec(step=1e-3), 0.3)
    return runs


class TestSignedCharges:
    """The generated code against the slow path and the oracle, bit for bit, under a negative charge and a
    charge of -0.0, on states that hold +0.0 and -0.0 components."""

    @pytest.mark.parametrize("charge", sorted(SIGNED_CHARGES))
    @pytest.mark.parametrize("name", sorted(FIELD_MODELS))
    def test_point_kernel_matches_the_slow_kernel(self, name, charge):
        model, params = FIELD_MODELS[name], SIGNED_CHARGES[charge]
        Y = signed_zero_states(606, 100)
        new, old = classical._eom_kernel(model, params), slow_kernel(model, params)
        for y, shape in [*((row, ()) for row in Y.tolist()), (list(Y.T), (100,))]:
            for eom in (True, False, None):
                got, want = new(y, eom), old(y, eom)
                for a, b in zip(_flat(got), _flat(want), strict=True):
                    a, b = to_array(a, shape), to_array(b, shape)
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("name", sorted(signed_zero_runs()))
    def test_integrate_matches_the_slow_path(self, name):
        args = signed_zero_runs()[name]
        assert_same_trajectory(integrate(*args), slow_integrate(*args))

    def test_axis_run_keeps_its_zeros(self):
        # the axis run's zero components stay zeros, so their signs are compared at every row
        traj = integrate(*signed_zero_runs()["rk4-axis-negative"])
        assert len(traj) == 301 and not traj.x[:, :2].any() and not traj.p[:, :2].any() and not traj.s[:, :2].any()

    def test_both_charges_in_one_process(self):
        # one step code serves both charges, its constants bound per run
        trap = PhaseState(np.array([0.1, -0.0, 0.0]), np.array([0.3, -0.0, 0.0]), np.array([-0.0, 0.5, 0.8]))
        model = Superposition(SternGerlach(B0=1.0, b=0.2), Uniform(B0=np.array([0.0, 0.3, 0.0])))
        runs = [(trap, model, p, IntegratorSpec(step=1e-3), 0.3) for p in (PARAMS, SIGNED_CHARGES["negative"])]
        first = integrate(*runs[0])
        misses = fields.compiled.cache_info().misses
        second = integrate(*runs[1])
        assert fields.compiled.cache_info().misses == misses
        assert not np.array_equal(first.x, second.x)
        assert_same_trajectory(first, slow_integrate(*runs[0]))
        assert_same_trajectory(second, slow_integrate(*runs[1]))

    @pytest.mark.parametrize("charge", sorted(SIGNED_CHARGES))
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_kernel_matches_oracle(self, name, charge):
        model, params = KERNEL_MODELS[name], SIGNED_CHARGES[charge]
        Y = signed_zero_states(707, 300)
        rhs = classical._eom_kernel(model, params)
        for y in Y.tolist():
            x, p, s = y[0:3], y[3:6], y[6:9]
            dx, dp, ds = oracle_eom_arrays(x, p, s, model, params)
            assert rhs(y) == list(dx + dp + ds)
            point = oracle_point(x, p, s, model, params)
            assert rhs(y, eom=False) == point
            assert rhs(y, eom=None) == point[0]


class TestBmtConsistency:
    # The covariant comparison drops terms quadratic in the spin (the
    # Thomas rotation sourced by the gradient force itself), so the
    # diagnostics run a neutral dipole on a slow beam where that defect
    # sits far below both the stencil error and the f-term.
    NEUTRAL = ParticleParams.neutral(mu_prime=0.11)

    def make_traj(self, model, steps, T, p0, s0=None):
        s0 = np.array([0.2, 0.1, 0.45]) if s0 is None else s0
        st = PhaseState(np.zeros(3), p0, s0)
        return integrate(st, model, self.NEUTRAL, IntegratorSpec(step=T / steps), T)

    def test_uniform_fields_small_residual(self):
        pn = self.NEUTRAL
        B0 = 1.0
        TL = 2 * np.pi / (pn.gamma_m * B0)
        model = Uniform(E0=np.array([0.2, 0.1, 0.0]), B0=np.array([0, 0, B0]))
        traj = self.make_traj(model, 1000, TL, p0=np.array([0.3, 0.1, 0]) * pn.mc)
        assert bmt_consistency_residual(traj, model, pn) < 1e-8

    def test_zero_fields_round_off(self):
        traj = self.make_traj(NO_FIELD, 100, 1.0, p0=np.array([0.4, 0, 0]))
        assert bmt_consistency_residual(traj, NO_FIELD, self.NEUTRAL) < 1e-10

    def test_stencil_order(self):
        model = SternGerlach(B0=5.0, b=0.01)
        p0 = np.array([1e-4, 3e-5, -2e-5]) * self.NEUTRAL.mc
        T = 4.0
        resids = []
        steps = [10, 20, 40]
        for n in steps:
            traj = self.make_traj(model, n, T, p0=p0)
            resids.append(bmt_consistency_residual(traj, model, self.NEUTRAL))
        slope = np.polyfit(np.log([T / n for n in steps]), np.log(resids), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_gradient_force_term_matters(self):
        model = SternGerlach(B0=5.0, b=0.01)
        p0 = np.array([1e-4, 3e-5, -2e-5]) * self.NEUTRAL.mc
        traj = self.make_traj(model, 40, 4.0, p0=p0)
        with_f = bmt_consistency_residual(traj, model, self.NEUTRAL, include_gradient_force=True)
        without_f = bmt_consistency_residual(traj, model, self.NEUTRAL, include_gradient_force=False)
        assert without_f >= 10 * with_f

    def test_one_field_sample_per_call(self, monkeypatch):
        # E and B come from one call of the point kernel on all rows
        model = SternGerlach(B0=5.0, b=0.01)
        traj = self.make_traj(model, 40, 4.0, p0=np.array([1e-4, 3e-5, -2e-5]) * self.NEUTRAL.mc)
        resid = bmt_consistency_residual(traj, model, self.NEUTRAL)
        calls, make_kernel = [], classical._eom_kernel

        def counted_kernel(model, params):
            kernel = make_kernel(model, params)

            def counted(y, eom=True):
                calls.append(len(y[0]))
                return kernel(y, eom)

            return counted

        monkeypatch.setattr(classical, "_eom_kernel", counted_kernel)
        assert bmt_consistency_residual(traj, model, self.NEUTRAL) == resid
        assert calls == [len(traj)]

    def test_too_coarse_rejected(self):
        traj = self.make_traj(NO_FIELD, 3, 1.0, p0=np.zeros(3))
        with pytest.raises(DiagnosticError):
            bmt_consistency_residual(traj, NO_FIELD, self.NEUTRAL)


def boosted_precession_pair(pi, s, E, B, beta, params, drop_spin_energy):
    """(gamma * F_pi(pi, E, B), F_pi(pi', E', B')) under the boost rules, at any beta.

    The momentum rule boosts (kinetic energy / c, pi) as a 4-vector. With
    drop_spin_energy the kinetic energy is the orbital part alone, which is
    the replacement rule's weak-field step; keeping the spin energy exposes
    the quadratic-in-field remainder that covariance_scaling measures. This
    is the oracle for covariance_scaling, written step by step.
    """
    pi = np.asarray(pi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    g = 1.0 / np.sqrt(1.0 - b2)
    Ep, Bp = boost_fields(E, B, beta)
    kinetic = gamma_pi(pi, params) * params.mc2
    if not drop_spin_energy:
        kinetic += -float(np.asarray(s, float) @ precession_vector(pi, E, B, params))
    pip = pi.copy()
    if b2 > 0.0:
        pip = pip + (g - 1.0) / b2 * (beta @ pi) * beta
    pip = pip - (g / params.c) * beta * kinetic
    return g * precession_vector(pi, E, B, params), precession_vector(pip, Ep, Bp, params)


def rest_frame_residual(pi, s, E, B, params, drop_spin_energy):
    """max |lhs - rhs| of boosted_precession_pair for the boost into the rest frame, beta = v_pi / c."""
    beta = v_pi(pi, params) / params.c
    lhs, rhs = boosted_precession_pair(pi, s, E, B, beta, params, drop_spin_energy)
    return float(np.abs(lhs - rhs).max())


class TestBoostCovariance:
    def random_inputs(self, max_beta=0.5, rng=RNG):
        pr = ParticleParams.neutral(mu_prime=0.08)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        beta_mag = rng.uniform(0.1, max_beta)
        pi = direction * beta_mag / np.sqrt(1 - beta_mag ** 2) * pr.mc
        return pr, pi, rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)

    def test_exact_balance_for_neutral_rest_boost(self):
        # with the spin energy dropped, the boosted precession vector
        # reproduces gamma * F_pi identically at linear order
        for _ in range(50):
            pr, pi, s, E, B = self.random_inputs()
            assert rest_frame_residual(pi, s, E, B, pr, drop_spin_energy=True) < 1e-13

    def test_scan_equals_step_by_step_oracle(self):
        # the scan forms beta, gamma and the beta-parallel momentum term once
        # and F_pi once per amplitude; each residual is still the oracle's, bit
        # for bit, at every amplitude of 1000 random rest boosts
        lams = [1e-2, 1e-3, 1e-4]
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            pr, pi, s, E, B = self.random_inputs(max_beta=0.95, rng=rng)
            resid, _ = covariance_scaling(pi, s, E, B, pr, lams)
            assert resid == [rest_frame_residual(pi, s, lam * E, lam * B, pr, drop_spin_energy=False) for lam in lams]

    def test_light_speed_boost_refused(self):
        # at |pi| = 1e8 mc, beta = v_pi / c rounds to 1
        pr = ParticleParams.neutral(mu_prime=0.08)
        with pytest.raises(ValueError, match=r"\|beta\| < 1"):
            covariance_scaling(np.array([1e8, 0.0, 0.0]), np.ones(3), np.ones(3), np.ones(3), pr, [1e-2, 1e-3, 1e-4])

    def test_quadratic_remainder_slope(self):
        for _ in range(5):
            pr, pi, s, E, B = self.random_inputs()
            _, slope = covariance_scaling(pi, s, E, B, pr, [1e-2, 1e-3, 1e-4])
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_check_detail_holds_residuals(self):
        r = checks.check_boost_covariance(seed=11)
        lams = list(SCHEMA["amplitudes"][1])
        assert r.detail["seed"] == 11 and len(r.detail["residuals"]) == len(r.value["slopes"]) == 3
        for resid, slope in zip(r.detail["residuals"], r.value["slopes"]):
            assert len(resid) == len(lams) and all(type(v) is float and v > 0 for v in resid)
            assert float(np.polyfit(np.log(lams), np.log(resid), 1)[0]) == slope

    def test_charged_generic_boost_is_linear(self):
        # for a charged particle under a generic boost the defect is first
        # order in the amplitude: the single-overall-factor form needs the
        # additional rotation that only the neutral rest-frame case avoids
        pr = PARAMS
        pi = RNG.normal(size=3) * 0.4 * pr.mc
        beta = RNG.normal(size=3)
        beta *= 0.4 / np.linalg.norm(beta)
        E, B, s = RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
        resid = []
        lams = [1e-2, 1e-3, 1e-4]
        for lam in lams:
            lhs, rhs = boosted_precession_pair(pi, s, lam * E, lam * B, beta, pr, drop_spin_energy=True)
            resid.append(np.abs(lhs - rhs).max())
        slope = np.polyfit(np.log(lams), np.log(resid), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)
