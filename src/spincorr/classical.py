"""Classical spin-orbit dynamics at linear order in the field strength.

The total Hamiltonian is the relativistic orbital energy plus the spin
coupling -s.F_pi, where F_pi is the precession angular velocity built
from the kinematic momentum. Hamilton's equations pick up the
field-gradient (Stern-Gerlach) force from the spin term, and the spin
itself precesses as ds/dt = s x F_pi. Quadratic-in-field remainders are
deliberately dropped; their size is measured, not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSample, sample_field
from .kinematics import PhaseState, gamma_pi, kinematic_momentum, v_pi
from .lorentz import bmt_rhs, boost_fields, field_tensor, four_velocity, spin_four_vector_lab
from .params import ParticleParams


class IntegrationError(RuntimeError):
    """Adaptive step underflow; carries the partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DiagnosticError(RuntimeError):
    """A trajectory diagnostic cannot be evaluated on the given input."""


# ---------------------------------------------------------------------------
# Hamiltonian and its gradient


def _coefficients(g: float, params: ParticleParams):
    """Weights (a, b, d) of F_pi = a B - b (pi.B) pi - d (pi x E), and their g-derivatives.

    a carries the magnetic torque, b the longitudinal-polarization
    correction (proportional to gamma_m - e/mc, vanishing at g = 2) and d
    the spin-orbit term with its Thomas-precession weight.
    """
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


def precession_vector(pi: np.ndarray, E: np.ndarray, B: np.ndarray, params: ParticleParams) -> np.ndarray:
    """Instantaneous precession angular velocity F_pi(pi, E, B)."""
    pi = np.asarray(pi, dtype=float)
    (a, b, d), _ = _coefficients(gamma_pi(pi, params), params)
    return a * np.asarray(B, float) - b * (pi @ B) * pi - d * np.cross(pi, np.asarray(E, float))


def _h_total_arrays(x, p, s, model, params):
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    orbital = gamma_pi(pi, params) * params.mc2 + params.e * sample.phi
    return orbital - float(s @ precession_vector(pi, sample.E, sample.B, params))


def h_total(state: PhaseState, model, params: ParticleParams) -> float:
    """gamma_pi mc^2 + e phi - s.F_pi at the state's phase-space point."""
    return _h_total_arrays(state.x, state.p, state.s, model, params)


def _spin_grad(pi, g, s, sample: FieldSample, params):
    """d(H_spin)/d(pi) and the explicit-x gradient d(H_spin)/dx at fixed pi.

    H_spin = -a(g) s.B + b(g)(pi.B)(s.pi) + d(g) s.(pi x E) with
    g = gamma_pi; chain rule uses dg/dpi_k = pi_k/(g (mc)^2).
    """
    E, B = sample.E, sample.B
    (a, b, d), (da, db, dd) = _coefficients(g, params)

    sB = float(s @ B)
    piB = float(pi @ B)
    spi = float(s @ pi)
    pixE = float(s @ np.cross(pi, E))

    dg_dpi = pi / (g * params.mc ** 2)
    dH_dpi = (
        (-da * sB + db * piB * spi + dd * pixE) * dg_dpi
        + b * (B * spi + piB * s)
        + d * np.cross(E, s)
    )
    # explicit field gradients, columns grad[:, j] = d(field)/dx_j
    dH_dx = (
        -a * (s @ sample.grad_B)
        + b * spi * (pi @ sample.grad_B)
        + d * (np.cross(pi, sample.grad_E.T) @ s)
    )
    return dH_dpi, dH_dx


def _eom_arrays(x, p, s, model, params):
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    dHs_dpi, dHs_dx = _spin_grad(pi, gamma_pi(pi, params), s, sample, params)
    dH_dpi = v_pi(pi, params) + dHs_dpi
    # canonical x-gradient: scalar potential, explicit field gradients,
    # and the chain through pi(x) = p - (e/c)A(x)
    dH_dx = (
        params.e * sample.grad_phi
        + dHs_dx
        - (params.e / params.c) * (sample.jac_A.T @ dH_dpi)
    )
    ds = np.cross(s, precession_vector(pi, sample.E, sample.B, params))
    return dH_dpi, -dH_dx, ds


def eom_rhs(state: PhaseState, model, params: ParticleParams):
    """(dx/dt, dp/dt, ds/dt) of the full Hamilton flow with precession."""
    return _eom_arrays(state.x, state.p, state.s, model, params)


def stern_gerlach_force(x, p, s, model, params: ParticleParams) -> np.ndarray:
    """Field-gradient 3-force -grad(H_spin) at fixed kinematic momentum.

    This is the linear-in-field piece; the chain through A(x) inside pi
    is quadratic in the field strength and excluded.
    """
    sample = sample_field(model, x)
    pi = kinematic_momentum(p, sample.A, params)
    return -_spin_grad(pi, gamma_pi(pi, params), s, sample, params)[1]


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

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.x[i], self.p[i], self.s[i], float(self.t[i]))


# relative |s| drift beyond which the spin is renormalized; the raw drift
# is still accumulated in spin_drift so the integrator stays honest
SPIN_RENORM_THRESHOLD = 1e-12


def _increment(h, weights, ks):
    """h * sum_j w_j k_j over the nonzero weights."""
    return h * sum(w * k for w, k in zip(weights, ks) if w)


def integrate(
    state0: PhaseState,
    model,
    params: ParticleParams,
    spec: IntegratorSpec,
    T: float,
) -> Trajectory:
    """Integrate Hamilton's flow for duration T, recording conservation data.

    One explicit Runge-Kutta stepper serves every method in TABLEAUX. A
    method without error weights takes round(T/step) equal steps; one
    with them adapts the step to keep the embedded error estimate below
    tol (relative to max(1, |y|)) and raises IntegrationError, carrying
    the trajectory so far, when it exceeds max_steps or the step
    underflows.
    """
    if T <= 0:
        raise ValueError("duration must be positive")
    stages, weights, err_weights = TABLEAUX[spec.method]
    fixed = err_weights is None
    n = max(1, int(round(T / spec.step)))
    if fixed and n > spec.max_steps:
        raise ValueError("step count exceeds max_steps")
    h = T / n if fixed else min(spec.step, T)

    def rhs(y):
        return np.concatenate(_eom_arrays(y[0:3], y[3:6], y[6:9], model, params))

    # rows of (t, y = (x, p, s), cumulative spin drift); an adaptive run
    # accepts at most max_steps steps, and doubles the buffers if it needs
    # more rows than its initial step suggests
    size = min(n, spec.max_steps) + 1
    ts, ys, drifts = np.empty(size), np.empty((size, 9)), np.empty(size)
    y = np.concatenate([state0.x, state0.p, state0.s])
    ts[0], ys[0], drifts[0] = state0.t, y, 0.0
    rows, t, drift_cum, attempts = 1, 0.0, 0.0, 0
    s0_mag = float(np.linalg.norm(state0.s))

    def trajectory():
        hs = np.empty(rows)
        for i in range(rows):
            hs[i] = _h_total_arrays(ys[i, 0:3], ys[i, 3:6], ys[i, 6:9], model, params)
        s = ys[:rows, 6:9]
        return Trajectory(ts[:rows], ys[:rows, 0:3], ys[:rows, 3:6], s, hs, np.linalg.norm(s, axis=1), drifts[:rows])

    while (rows <= n) if fixed else (t < T * (1.0 - 1e-12)):
        if not fixed:
            if attempts >= spec.max_steps:
                raise IntegrationError("max step count exceeded", trajectory())
            h = min(h, T - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step size underflow", trajectory())
        ks = []
        for row in stages:
            ks.append(rhs(y + _increment(h, row, ks)))
        accept, factor = True, 1.0
        if not fixed:
            err = float(np.abs(_increment(h, err_weights, ks)).max())
            scale = spec.tol * max(1.0, float(np.abs(y).max()))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            mag_before = float(np.linalg.norm(y[6:9]))
            y = y + _increment(h, weights, ks)
            t = rows * h if fixed else t + h
            raw = float(np.linalg.norm(y[6:9]))
            drift_cum += (raw - mag_before) / s0_mag
            if abs(raw - s0_mag) / s0_mag > SPIN_RENORM_THRESHOLD:
                y[6:9] *= s0_mag / raw
            if rows == len(ts):
                ts, ys, drifts = (np.concatenate([a, np.empty_like(a)]) for a in (ts, ys, drifts))
            ts[rows], ys[rows], drifts[rows] = state0.t + t, y, drift_cum
            rows += 1
        h *= factor
        attempts += 1
    return trajectory()


# ---------------------------------------------------------------------------
# Covariant consistency diagnostic


def bmt_consistency_residual(
    traj: Trajectory,
    model,
    params: ParticleParams,
    include_gradient_force: bool = True,
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

    S = np.empty((n, 4))
    rhs = np.empty((n, 4))
    gammas = np.empty(n)
    for i in range(n):
        s = traj.s[i]
        sample = sample_field(model, traj.x[i])
        pi = kinematic_momentum(traj.p[i], sample.A, params)
        g = gamma_pi(pi, params)
        gammas[i] = g
        S[i] = spin_four_vector_lab(s, pi, params)
        U = four_velocity(pi, params)
        if include_gradient_force:
            f3 = -g * _spin_grad(pi, g, s, sample, params)[1]
            f = np.concatenate([[f3 @ v_pi(pi, params) / params.c], f3])
        else:
            f = np.zeros(4)
        rhs[i] = bmt_rhs(S[i], U, field_tensor(sample.E, sample.B), f, params)

    # five-point interior stencil, then dS/dtau = gamma * dS/dt
    idx = np.arange(2, n - 2)
    dSdt = (S[idx - 2] - 8 * S[idx - 1] + 8 * S[idx + 1] - S[idx + 2]) / (12.0 * dt)
    resid = gammas[idx, None] * dSdt - rhs[idx]
    return float(np.abs(resid).max())


# ---------------------------------------------------------------------------
# Boost covariance of the precession vector


def boosted_precession_pair(
    pi: np.ndarray,
    s: np.ndarray,
    E: np.ndarray,
    B: np.ndarray,
    beta: np.ndarray,
    params: ParticleParams,
    drop_spin_energy: bool = True,
):
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


def rest_frame_covariance_residual(
    pi: np.ndarray,
    s: np.ndarray,
    E: np.ndarray,
    B: np.ndarray,
    params: ParticleParams,
    drop_spin_energy: bool = False,
) -> float:
    """Covariance defect for the boost into the instantaneous rest frame.

    For a chargeless particle the boosted precession vector matches
    gamma * F_pi exactly at linear order; with the spin energy kept in
    the momentum rule the defect is the genuine quadratic remainder.
    """
    beta = v_pi(np.asarray(pi, dtype=float), params) / params.c
    lhs, rhs = boosted_precession_pair(pi, s, E, B, beta, params, drop_spin_energy)
    return float(np.abs(lhs - rhs).max())


def covariance_scaling(
    pi: np.ndarray,
    s: np.ndarray,
    E: np.ndarray,
    B: np.ndarray,
    params: ParticleParams,
    lambdas,
    drop_spin_energy: bool = False,
):
    """Residual-vs-amplitude scan of the rest-frame covariance defect.

    Returns (residuals, slope) with slope fit on log-log axes. Keeping
    the spin energy in the momentum rule makes the defect quadratic in
    the amplitude; the dropped remainder is exactly what the weak-field
    replacement neglects.
    """
    lambdas = list(lambdas)
    if len(lambdas) < 3:
        raise ValueError("need at least 3 amplitudes")
    resid = [
        rest_frame_covariance_residual(pi, s, lam * np.asarray(E, float), lam * np.asarray(B, float), params, drop_spin_energy)
        for lam in lambdas
    ]
    slope = float(np.polyfit(np.log(lambdas), np.log(resid), 1)[0])
    return resid, slope
