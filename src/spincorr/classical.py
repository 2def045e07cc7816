"""Classical spin-orbit dynamics at linear order in the field strength.

The total Hamiltonian is the relativistic orbital energy plus the spin
coupling -s.F_pi, where F_pi is the precession angular velocity built
from the kinematic momentum. Hamilton's equations pick up the
field-gradient (Stern-Gerlach) force from the spin term, and the spin
itself precesses as ds/dt = s x F_pi. Quadratic-in-field remainders are
deliberately dropped; their size is measured, not modeled.

The kernels take x, p and s in the component form of fields, so one code
path serves one particle and an ensemble; each evaluation computes
gamma_pi and the weights of F_pi once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ZERO3, ZERO33, math_of, to_array
from .kinematics import PhaseState, gamma_pi, v_pi
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
# Hamiltonian and its gradient


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


def _coefficients(g, params: ParticleParams):
    """Weights (a, b, d) of F_pi = a B - b (pi.B) pi - d (pi x E), and their g-derivatives.

    a carries the magnetic torque, b the longitudinal-polarization
    correction (proportional to gamma_m - e/mc, vanishing at g = 2) and d
    the spin-orbit term with its Thomas-precession weight.
    """
    gm, em, mc = params.gamma_m, params.e / params.mc, params.mc
    u, w, kb = 1.0 / g, 1.0 / (g + 1.0), (gm - em) / mc ** 2
    weights = (gm - em + em * u, kb * u * w, (gm * u - em * w) / mc)
    return weights, (-em * u * u, -kb * u * w * (u + w), (em * w * w - gm * u * u) / mc)


def _local(x, p, model, params):
    """Field components, kinematic momentum pi and gamma_pi at (x, p)."""
    f = model.components(*x)
    ec, A = params.e / params.c, f.A
    pi = (p[0] - ec * A[0], p[1] - ec * A[1], p[2] - ec * A[2])
    g2 = 1.0 + _dot(pi, pi) / params.mc ** 2
    return f, pi, math_of(g2).sqrt(g2)


def _precession(pi, E, B, weights, piB=None):
    """F_pi in component form; piB is pi.B when the caller has formed it."""
    a, b, d = weights
    c2 = -b * (_dot(pi, B) if piB is None else piB)
    return _comb(a, B, c2, pi) if E is ZERO3 else _comb(a, B, c2, pi, -d, _cross(pi, E))


def _explicit_gradient(f, pi, s, weights, spi=None, sxpi=None):
    """d(H_spin)/dx at fixed pi: the field-gradient (Stern-Gerlach) term.

    H_spin = -a s.B + b (pi.B)(s.pi) + d s.(pi x E), and s.(pi x dE) =
    (s x pi).dE. spi and sxpi are s.pi and s x pi when the caller has
    formed them.
    """
    a, b, d = weights
    dB = _vecmat(_comb(-a, s, b * (_dot(s, pi) if spi is None else spi), pi), f.grad_B)
    if f.grad_E is ZERO33:
        return dB
    return _comb(1.0, dB, d, _vecmat(_cross(s, pi) if sxpi is None else sxpi, f.grad_E))


def precession_vector(pi: np.ndarray, E: np.ndarray, B: np.ndarray, params: ParticleParams) -> np.ndarray:
    """Instantaneous precession angular velocity F_pi(pi, E, B)."""
    pi = np.asarray(pi, dtype=float)
    return np.array(_precession(pi, E, B, _coefficients(gamma_pi(pi, params), params)[0]))


def _h_total_arrays(x, p, s, model, params):
    f, pi, g = _local(x, p, model, params)
    F = _precession(pi, f.E, f.B, _coefficients(g, params)[0])
    return g * params.mc2 + params.e * f.phi - _dot(s, F)


def h_total(state: PhaseState, model, params: ParticleParams) -> float:
    """gamma_pi mc^2 + e phi - s.F_pi at the state's phase-space point."""
    return _h_total_arrays(state.x.tolist(), state.p.tolist(), state.s.tolist(), model, params)


def h_total_rows(x, p, s, model, params: ParticleParams) -> np.ndarray:
    """H at each row of (N, 3) arrays x, p and s, in one array evaluation."""
    return _h_total_arrays(x.T, p.T, s.T, model, params)


# rows per array evaluation of H over many states: one call per block, not
# per row, with temporaries bounded to the block's size
H_BLOCK = 1024


def h_total_blocked(ys: np.ndarray, model, params: ParticleParams, offsets=None) -> np.ndarray:
    """H at each row of an (N, 9) array of y = (x, p, s), one h_total_rows call per H_BLOCK rows.

    With a (K, 9) array of offsets, H at each row plus each offset instead,
    as an (N, K) array; a block then holds H_BLOCK // K rows of ys.
    """
    k = 1 if offsets is None else len(offsets)
    per = H_BLOCK // k
    hs = []
    for i in range(0, len(ys), per):
        b = ys[i : i + per] if offsets is None else (ys[i : i + per, None, :] + offsets).reshape(-1, 9)
        hs.append(h_total_rows(b[:, 0:3], b[:, 3:6], b[:, 6:9], model, params))
    H = np.concatenate(hs)
    return H if offsets is None else H.reshape(len(ys), k)


def _eom_arrays(x, p, s, model, params):
    """(dx/dt, dp/dt, ds/dt) in component form.

    s x pi, s.pi and pi.B are formed once, and every E, grad-E and
    grad-phi term is skipped when the model returns the zero sentinel for
    it; adding an exact zero would not change a component.
    """
    f, pi, g = _local(x, p, model, params)
    E, B = f.E, f.B
    weights, (da, db, dd) = _coefficients(g, params)
    _, b, d = weights
    spi, piB, sxpi = _dot(s, pi), _dot(pi, B), _cross(s, pi)
    # dH/dpi: the velocity v_pi plus the spin term, whose weights depend
    # on pi through dg/dpi = pi/(g (mc)^2)
    dHs_dg = -da * _dot(s, B) + db * piB * spi
    if E is not ZERO3:
        dHs_dg = dHs_dg + dd * _dot(E, sxpi)
    dH_dpi = _comb((1.0 / params.m + dHs_dg / params.mc ** 2) / g, pi, b * spi, B, b * piB, s)
    if E is not ZERO3:
        dH_dpi = _comb(1.0, dH_dpi, d, _cross(E, s))
    # canonical x-gradient: scalar potential, explicit field gradients,
    # and the chain through pi(x) = p - (e/c)A(x)
    chain = _vecmat(dH_dpi, f.jac_A)
    grad = _explicit_gradient(f, pi, s, weights, spi, sxpi)
    if f.grad_phi is ZERO3:
        dp = _comb(-1.0, grad, params.e / params.c, chain)
    else:
        dp = _comb(-params.e, f.grad_phi, -1.0, grad, params.e / params.c, chain)
    return dH_dpi, dp, _cross(s, _precession(pi, E, B, weights, piB))


def eom_rhs(state: PhaseState, model, params: ParticleParams):
    """(dx/dt, dp/dt, ds/dt) of the full Hamilton flow with precession."""
    return tuple(map(np.array, _eom_arrays(state.x.tolist(), state.p.tolist(), state.s.tolist(), model, params)))


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


def _weighted_sum(pairs, ks):
    """sum_j w_j k_j per component over the (w_j, j) pairs, added in tableau order."""
    (w, j), rest = pairs[0], pairs[1:]
    acc = [w * c for c in ks[j]]
    for w, j in rest:
        acc = [a + w * c for a, c in zip(acc, ks[j])]
    return acc


def _norm3(u):
    return math.sqrt(_dot(u, u))


def integrate(state0: PhaseState, model, params: ParticleParams, spec: IntegratorSpec, T: float) -> Trajectory:
    """Integrate Hamilton's flow for duration T, recording conservation data.

    One explicit Runge-Kutta stepper serves every method in TABLEAUX. A
    method without error weights takes round(T/step) equal steps; one
    with them adapts the step to keep the embedded error estimate below
    tol (relative to max(1, |y|)) and raises IntegrationError, carrying
    the trajectory so far, when it exceeds max_steps or the step
    underflows: falls below 1e-12 T or the round-off of t.

    y = (x, p, s) is carried as nine floats, the components the kernel
    takes; each stage point is y + h * (w_1 k_1 + w_2 k_2 + ...) over the
    row's nonzero weights.
    """
    if T <= 0:
        raise ValueError("duration must be positive")
    stages, weights, err_weights = TABLEAUX[spec.method]
    fixed = err_weights is None
    n = max(1, int(round(T / spec.step)))
    if fixed and n > spec.max_steps:
        raise ValueError("step count exceeds max_steps")
    h = T / n if fixed else min(spec.step, T)
    stage_pairs = [_nonzero(row) for row in stages]
    step_pairs = _nonzero(weights)
    err_pairs = None if fixed else _nonzero(err_weights)

    # rows of (t, y = (x, p, s), cumulative spin drift); an adaptive run
    # accepts at most max_steps steps, and doubles the buffers if it needs
    # more rows than its initial step suggests
    size = min(n, spec.max_steps) + 1
    ts, ys, drifts = np.empty(size), np.empty((size, 9)), np.empty(size)
    y = state0.x.tolist() + state0.p.tolist() + state0.s.tolist()
    ts[0], ys[0], drifts[0] = state0.t, y, 0.0
    rows, t, drift_cum, attempts, rejected = 1, 0.0, 0.0, 0, 0
    s0_mag = _norm3(y[6:9])

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
        for pairs in stage_pairs:
            yk = [yi + h * a for yi, a in zip(y, _weighted_sum(pairs, ks))] if pairs else y
            dx, dp, ds = _eom_arrays(yk[0:3], yk[3:6], yk[6:9], model, params)
            ks.append(dx + dp + ds)
        accept, factor = True, 1.0
        if not fixed:
            err = max(abs(h * a) for a in _weighted_sum(err_pairs, ks))
            scale = spec.tol * max(1.0, max(map(abs, y)))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            mag_before = _norm3(y[6:9])
            y = [yi + h * a for yi, a in zip(y, _weighted_sum(step_pairs, ks))]
            t = rows * h if fixed else t + h
            raw = _norm3(y[6:9])
            drift_cum += (raw - mag_before) / s0_mag
            if abs(raw - s0_mag) / s0_mag > SPIN_RENORM_THRESHOLD:
                r = s0_mag / raw
                y[6:9] = [c * r for c in y[6:9]]
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

    S boosts the rest-frame (0, s) along v_pi, so U.S = 0 and S.S = -|s|^2;
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
    enters as f = (f3.v_pi/c, gamma_pi * f3) with f3 the field-gradient
    force, making f orthogonal to the 4-velocity for static fields.
    """
    n = len(traj)
    if n < 5:
        raise DiagnosticError("need at least 5 uniform samples for the stencil")
    dts = np.diff(traj.t)
    dt = float(dts[0])
    if np.abs(dts - dt).max() > 1e-9 * abs(dt):
        raise DiagnosticError("stencil differentiation needs a uniform time grid")

    # fields, pi, gamma_pi and the gradient 4-force at every row at once
    f, pi_c, gammas = _local(traj.x.T, traj.p.T, model, params)
    E, B, pi = (to_array(v, (n,)) for v in (f.E, f.B, pi_c))
    f4 = np.zeros((n, 4))
    if include_gradient_force:
        grad = _explicit_gradient(f, pi_c, traj.s.T, _coefficients(gammas, params)[0])
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
# Boost covariance of the precession vector; pi, s, E, B and beta are 3-vectors


def boosted_precession_pair(pi, s, E, B, beta, params: ParticleParams, drop_spin_energy: bool = True):
    """(gamma * F_pi(pi, E, B), F_pi(pi', E', B')) under the boost rules.

    The momentum rule boosts (kinetic energy / c, pi) as a 4-vector. With
    drop_spin_energy the kinetic energy is the orbital part alone, which
    is the replacement rule's weak-field step; keeping the spin energy
    exposes the quadratic-in-field remainder instead.
    """
    pi = np.asarray(pi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must satisfy |beta| < 1")
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


def rest_frame_covariance_residual(pi, s, E, B, params: ParticleParams, drop_spin_energy: bool = False) -> float:
    """Covariance defect for the boost into the instantaneous rest frame.

    For a chargeless particle the boosted precession vector matches
    gamma * F_pi exactly at linear order; with the spin energy kept in
    the momentum rule the defect is the genuine quadratic remainder.
    """
    beta = v_pi(np.asarray(pi, dtype=float), params) / params.c
    lhs, rhs = boosted_precession_pair(pi, s, E, B, beta, params, drop_spin_energy)
    return float(np.abs(lhs - rhs).max())


def covariance_scaling(pi, s, E, B, params: ParticleParams, lambdas, drop_spin_energy: bool = False):
    """Residual-vs-amplitude scan of the rest-frame covariance defect.

    Returns (residuals, slope) with slope fit on log-log axes. Keeping
    the spin energy in the momentum rule makes the defect quadratic in
    the amplitude; the dropped remainder is exactly what the weak-field
    replacement neglects.
    """
    lambdas = scaling_amplitudes(lambdas)
    resid = [
        rest_frame_covariance_residual(pi, s, lam * np.asarray(E, float), lam * np.asarray(B, float), params, drop_spin_energy)
        for lam in lambdas
    ]
    return resid, fit_slope(lambdas, resid)
