"""Classical spin-orbit dynamics at linear order in the field strength.

The total Hamiltonian is the relativistic orbital energy plus the spin
coupling -s.F_pi, where F_pi is the precession angular velocity built
from the kinematic momentum. Hamilton's equations pick up the
field-gradient (Stern-Gerlach) force from the spin term, and the spin
itself precesses as ds/dt = s x F_pi. Quadratic-in-field remainders are
deliberately dropped; their size is measured, not modeled.

The Hamiltonian is written once, in one straight-line point kernel of the
field model and the particle: on x, p and s as components (one particle or
an ensemble, one code path) it gives H and its parts or the equations of motion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import ZERO3, ZERO33, Uniform, math_of, to_array
from .kinematics import PhaseState
from .lorentz import bmt_rhs, boost_fields, field_tensor
from .params import ParticleParams


class IntegrationError(RuntimeError):
    """Adaptive step underflow; carries the partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DiagnosticError(RuntimeError):
    """A trajectory diagnostic cannot be evaluated on the given input."""


class ConfigurationError(ValueError):
    """Lattice or parameter combination outside the validated domain."""


def scaling_amplitudes(lambdas) -> list:
    """The amplitude list of a scaling fit, refused unless it holds at
    least three finite, positive, geometrically spaced, distinct values.
    """
    lambdas = list(lambdas)
    if len(lambdas) < 3:
        raise ConfigurationError("amplitudes: need at least three values")
    if not all(math.isfinite(a) for a in lambdas):
        raise ConfigurationError("amplitudes: must all be finite")
    if not all(a > 0 for a in lambdas):
        raise ConfigurationError("amplitudes: must all be positive")
    ratios = [lambdas[i] / lambdas[i + 1] for i in range(len(lambdas) - 1)]
    if abs(ratios[0] - 1.0) <= 1e-6 or any(abs(r / ratios[0] - 1.0) > 1e-6 for r in ratios):
        raise ConfigurationError("amplitudes: must be geometrically spaced (constant successive ratio other than 1)")
    return lambdas


def fit_slope(xs, residuals) -> float:
    """Slope of log residual against log x, in the order given."""
    if not all(r > 0.0 and math.isfinite(r) for r in residuals):
        raise DiagnosticError("degenerate residual, cannot fit a scaling slope")
    logs = [[math.log(v) for v in values] for values in (xs, residuals)]
    return float(np.polyfit(*logs, 1)[0])


# ---------------------------------------------------------------------------
# The Hamiltonian: one point kernel


def _eom_kernel(model, params: ParticleParams):
    """The point kernel of H = gamma_pi mc^2 + e phi - s.F_pi, with the parameter ratios formed once.

    On y = (x, p, s) as nine components it forms the fields, pi, gamma_pi,
    the weights (a, b, d) of F_pi, F_pi and H, and returns H if eom is None;
    then grad = d(H_spin)/dx at fixed pi, minus the Stern-Gerlach force, and
    returns (H, grad, pi, gamma_pi, F_pi, E, B) if eom is False, E and B as the
    model gave them (E may be the ZERO3 sentinel); else dy/dt.

    Vector operations are written out per component, each + 0.0 standing for the
    zero third term of c1 u + c2 v + c3 w, so that a -0.0 rounds as there. Every
    E, grad-E and grad-phi term is skipped when the model returns the zero sentinel.
    """
    components, e, gm, mc = model.components, params.e, params.gamma_m, params.mc
    ec, em, mc_sq, inv_m = e / params.c, e / mc, mc ** 2, 1.0 / params.m
    gme, kb, sqrt = gm - em, (gm - em) / mc_sq, math.sqrt

    def kernel(y, eom=True):
        x0, x1, x2, p0, p1, p2, s0, s1, s2 = y
        phi, (A0, A1, A2), E, B, grad_phi, jac_A, grad_E, grad_B = components(x0, x1, x2)
        B0, B1, B2 = B
        pi0, pi1, pi2 = p0 - ec * A0, p1 - ec * A1, p2 - ec * A2
        g2 = 1.0 + (pi0 * pi0 + pi1 * pi1 + pi2 * pi2) / mc_sq
        g = sqrt(g2) if g2.__class__ is float else math_of(g2).sqrt(g2)
        # F_pi = a B - b (pi.B) pi - d (pi x E); b vanishes at g = 2, d has the Thomas weight
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
        # grad = d(H_spin)/dx at fixed pi, H_spin = -a s.B + b (pi.B)(s.pi) + d (s x pi).E
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
        # dH/dpi: pi/(g m) plus the spin term, whose weights depend on pi through dg/dpi = pi/(g (mc)^2)
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
        # canonical force: scalar potential, grad, and the chain through pi(x) = p - (e/c)A(x)
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
        # ds/dt = s x F_pi
        return [v0, v1, v2, dp0, dp1, dp2, s1 * F2 - s2 * F1, s2 * F0 - s0 * F2, s0 * F1 - s1 * F0]

    return kernel


def precession_vector(pi: np.ndarray, E: np.ndarray, B: np.ndarray, params: ParticleParams) -> np.ndarray:
    """F_pi(pi, E, B), from the kernel of Uniform(E, B) at the origin, where A = 0 and so p = pi."""
    y = [0.0, 0.0, 0.0, *np.asarray(pi, dtype=float).tolist(), 0.0, 0.0, 0.0]
    return np.array(_eom_kernel(Uniform(E, B), params)(y, eom=False)[4])


def h_total(state: PhaseState, model, params: ParticleParams) -> float:
    """gamma_pi mc^2 + e phi - s.F_pi at the state's phase-space point."""
    return _eom_kernel(model, params)(state.x.tolist() + state.p.tolist() + state.s.tolist(), eom=None)


# rows per array evaluation of H over many states: one call per block, not
# per row, with temporaries bounded to the block's size
H_BLOCK = 1024


def h_total_blocked(ys: np.ndarray, model, params: ParticleParams, offsets=None) -> np.ndarray:
    """H at each row of an (N, 9) array of y = (x, p, s), one kernel call on the columns per H_BLOCK rows.

    With a (K, 9) array of offsets, H at each row plus each offset instead,
    as an (N, K) array; a block then holds H_BLOCK // K rows of ys.
    """
    kernel = _eom_kernel(model, params)
    k = 1 if offsets is None else len(offsets)
    per = H_BLOCK // k
    hs = []
    for i in range(0, len(ys), per):
        b = ys[i : i + per] if offsets is None else (ys[i : i + per, None, :] + offsets).reshape(-1, 9)
        hs.append(kernel(list(b.T), eom=None))
    H = np.concatenate(hs)
    return H if offsets is None else H.reshape(len(ys), k)


def eom_rhs(state: PhaseState, model, params: ParticleParams):
    """(dx/dt, dp/dt, ds/dt) of the full Hamilton flow with precession."""
    k = _eom_kernel(model, params)(state.x.tolist() + state.p.tolist() + state.s.tolist())
    return np.array(k[0:3]), np.array(k[3:6]), np.array(k[6:9])


# ---------------------------------------------------------------------------
# Integration

# Butcher tableaux: (stage matrix rows, solution weights, error weights).
# Error weights are the 5th- minus 4th-order weights of an embedded pair;
# None marks a fixed-step method.
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
TABLEAUX = {
    "rk4": (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6), None),
    # Fehlberg 4(5), advancing with the 5th-order solution
    "rkf45": (
        (
            (),
            (1 / 4,),
            (3 / 32, 9 / 32),
            (1932 / 2197, -7200 / 2197, 7296 / 2197),
            (439 / 216, -8.0, 3680 / 513, -845 / 4104),
            (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
        ),
        _RKF_B5,
        tuple(b5 - b4 for b5, b4 in zip(_RKF_B5, _RKF_B4)),
    ),
}


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    step: float = 1e-3
    tol: float = 1e-10
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in TABLEAUX:
            raise ValueError("method must be one of " + ", ".join(map(repr, TABLEAUX)))
        if not (self.step > 0 and self.tol > 0 and self.max_steps > 0):
            raise ValueError("step, tol and max_steps must be positive")


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    s: np.ndarray
    h_total: np.ndarray
    s_mag: np.ndarray
    spin_drift: np.ndarray
    # right-hand-side evaluations made, and adaptive steps rejected
    rhs_calls: int
    rejected: int

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.x[i], self.p[i], self.s[i], float(self.t[i]))


# relative |s| drift beyond which the spin is renormalized; the raw drift
# is still accumulated in spin_drift so the integrator stays honest
SPIN_RENORM_THRESHOLD = 1e-12


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
    fixed-step method), built once per tableau."""
    stages, weights, err_weights = TABLEAUX[method]
    err = None if err_weights is None else _stage(_nonzero(err_weights))
    return [_stage(_nonzero(row)) for row in stages], _stage(_nonzero(weights)), err


def _spin_norm(y):
    return math.sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8])


def integrate(state0: PhaseState, model, params: ParticleParams, spec: IntegratorSpec, T: float) -> Trajectory:
    """Integrate Hamilton's flow for duration T, recording conservation data.

    One explicit Runge-Kutta stepper serves every method in TABLEAUX. A
    method without error weights takes round(T/step) equal steps; one
    with them adapts the step to keep the embedded error estimate below
    tol (relative to max(1, |y|)) and raises IntegrationError, carrying
    the trajectory so far, when it exceeds max_steps or the step
    underflows: falls below 1e-12 T or the round-off of t.

    y = (x, p, s) is carried as nine floats, the components the kernel
    takes and returns; the tableau's `_stage` functions form each stage
    point, the step and the error estimate.
    """
    if T <= 0:
        raise ValueError("duration must be positive")
    stages, step, err_point = _steppers(spec.method)
    fixed = err_point is None
    n = max(1, int(round(T / spec.step)))
    if fixed and n > spec.max_steps:
        raise ValueError("step count exceeds max_steps")
    h = T / n if fixed else min(spec.step, T)
    rhs = _eom_kernel(model, params)

    # rows of (t, y = (x, p, s), cumulative spin drift); an adaptive run
    # accepts at most max_steps steps, and doubles the buffers if it needs
    # more rows than its initial step suggests
    size = min(n, spec.max_steps) + 1
    ts, ys, drifts = np.empty(size), np.empty((size, 9)), np.empty(size)
    y = state0.x.tolist() + state0.p.tolist() + state0.s.tolist()
    ts[0], ys[0], drifts[0] = state0.t, y, 0.0
    rows, t, drift_cum, attempts, rejected = 1, 0.0, 0.0, 0, 0
    mag = s0_mag = _spin_norm(y)

    def trajectory():
        hs = h_total_blocked(ys[:rows], model, params)
        s = ys[:rows, 6:9]
        calls = len(stages) * attempts
        return Trajectory(
            ts[:rows], ys[:rows, 0:3], ys[:rows, 3:6], s, hs, np.linalg.norm(s, axis=1), drifts[:rows], calls, rejected
        )

    while (rows <= n) if fixed else (t < T * (1.0 - 1e-12)):
        if not fixed:
            if attempts >= spec.max_steps:
                raise IntegrationError("max step count exceeded", trajectory())
            h = min(h, T - t)
            # the 1e-12 T floor ends a run whose tol sits below the error
            # estimate's round-off: it would accept round-off-sized steps
            # until max_steps
            if h < max(1e-14 * max(1.0, abs(t)), 1e-12 * T):
                raise IntegrationError("step size underflow", trajectory())
        ks = []
        for stage in stages:
            ks.append(rhs(stage(y, h, ks)))
        accept, factor = True, 1.0
        if not fixed:
            # the increment alone, as the point from the origin; abs drops the sign of a zero
            err = max(map(abs, err_point((0.0,) * 9, h, ks)))
            scale = spec.tol * max(1.0, max(map(abs, y)))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            y = step(y, h, ks)
            t = rows * h if fixed else t + h
            raw = _spin_norm(y)
            drift_cum += (raw - mag) / s0_mag
            mag = raw  # carried to the next step, and recomputed only after a renormalization
            if abs(raw - s0_mag) / s0_mag > SPIN_RENORM_THRESHOLD:
                r = s0_mag / raw
                y[6:9] = [c * r for c in y[6:9]]
                mag = _spin_norm(y)
            if rows == len(ts):
                ts, ys, drifts = (np.concatenate([a, np.empty_like(a)]) for a in (ts, ys, drifts))
            ts[rows], ys[rows], drifts[rows] = state0.t + t, y, drift_cum
            rows += 1
        else:
            rejected += 1
        h *= factor
        attempts += 1
    return trajectory()


# ---------------------------------------------------------------------------
# Covariant consistency diagnostic


def _four_vectors(pi, gammas, s, params: ParticleParams):
    """Lab spin 4-vectors S and 4-velocities U of N rows, from (N, 3) pi and s and (N,) gamma_pi.

    S boosts the rest-frame (0, s) along pi, so U.S = 0 and S.S = -|s|^2;
    U = (gamma_pi c, pi/m). tests/test_lorentz.py holds the per-row oracle.
    """
    g = gammas[:, None]
    beta = pi / (g * params.m) / params.c
    bs = np.einsum("ij,ij->i", beta, s)[:, None]
    S = np.concatenate([g * bs, s + (g ** 2 / (g + 1.0)) * bs * beta], axis=1)
    U = np.concatenate([g * params.c, pi / params.m], axis=1)
    return S, U


def bmt_consistency_residual(
    traj: Trajectory, model, params: ParticleParams, include_gradient_force: bool = True
) -> float:
    """Max deviation between the numerical dS/dtau and the covariant RHS.

    The lab spin 4-vector is rebuilt along the trajectory, differentiated
    with a five-point fourth-order stencil (dtau = dt/gamma_pi), and
    compared against the covariant precession RHS. The non-Lorentz force
    enters as f = (f3.v/c, gamma_pi * f3), with v = pi/(gamma_pi m) and f3
    the field-gradient force, making f orthogonal to the 4-velocity for
    static fields.
    """
    n = len(traj)
    if n < 5:
        raise DiagnosticError("need at least 5 uniform samples for the stencil")
    dts = np.diff(traj.t)
    dt = float(dts[0])
    if np.abs(dts - dt).max() > 1e-9 * abs(dt):
        raise DiagnosticError("stencil differentiation needs a uniform time grid")

    # fields, pi, gamma_pi and the gradient 4-force at every row at once, from one field sample
    _, grad, pi, gammas, _, E, B = _eom_kernel(model, params)([*traj.x.T, *traj.p.T, *traj.s.T], eom=False)
    E, B, pi = (to_array(v, (n,)) for v in (E, B, pi))
    f4 = np.zeros((n, 4))
    if include_gradient_force:
        f4[:, 1:] = -gammas[:, None] * to_array(grad, (n,))
        f4[:, 0] = np.einsum("ij,ij->i", f4[:, 1:], pi) / (gammas * params.m * params.c)
    S, U = _four_vectors(pi, gammas, traj.s, params)
    # per row, because bmt_rhs enforces the constraint U.S = 0 on each state
    rhs = np.array([bmt_rhs(S[i], U[i], field_tensor(E[i], B[i]), f4[i], params) for i in range(n)])

    # five-point interior stencil, then dS/dtau = gamma * dS/dt
    idx = np.arange(2, n - 2)
    dSdt = (S[idx - 2] - 8 * S[idx - 1] + 8 * S[idx + 1] - S[idx + 2]) / (12.0 * dt)
    resid = gammas[idx, None] * dSdt - rhs[idx]
    return float(np.abs(resid).max())


# ---------------------------------------------------------------------------
# Boost covariance of the precession vector; pi, s, E and B are 3-vectors


def covariance_scaling(pi, s, E, B, params: ParticleParams, lambdas):
    """Residual-vs-amplitude scan of the covariance defect of the boost into
    the instantaneous rest frame, beta = pi / (gamma_pi m c).

    At each amplitude the defect is max |gamma F_pi(pi, E, B) - F_pi(pi', E', B')|,
    with (E', B') the boosted fields and pi' the momentum rule: (kinetic
    energy / c, pi) boosted as a 4-vector. The kinetic energy keeps the spin
    energy -s.F_pi, which makes the defect quadratic in the amplitude; that
    remainder is exactly what the weak-field replacement neglects. Returns
    (residuals, slope) with slope fit on log-log axes, or NaN, which fails
    every bound, where the defect underflowed and left no slope to fit.
    """
    lambdas = scaling_amplitudes(lambdas)
    pi, s, E, B = (np.asarray(v, dtype=float) for v in (pi, s, E, B))
    # gamma_pi from the field-free kernel at the origin, where A = 0 and so p = pi
    g_pi = _eom_kernel(Uniform(), params)([0.0, 0.0, 0.0, *pi.tolist(), 0.0, 0.0, 0.0], eom=False)[3]
    beta = pi / (g_pi * params.m) / params.c
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must satisfy |beta| < 1")
    g = 1.0 / np.sqrt(1.0 - b2)
    orbital_energy = g_pi * params.mc2
    # pi with its component along beta stretched by gamma; the energy term is per amplitude
    pi_par = pi + (g - 1.0) / b2 * (beta @ pi) * beta if b2 > 0.0 else pi
    resid = []
    for lam in lambdas:
        E_lam, B_lam = lam * E, lam * B
        F = precession_vector(pi, E_lam, B_lam, params)
        kinetic = orbital_energy - float(s @ F)
        Ep, Bp = boost_fields(E_lam, B_lam, beta)
        Fp = precession_vector(pi_par - (g / params.c) * beta * kinetic, Ep, Bp, params)
        resid.append(float(np.abs(g * F - Fp).max()))
    try:
        return resid, fit_slope(lambdas, resid)
    except DiagnosticError:
        return resid, math.nan
