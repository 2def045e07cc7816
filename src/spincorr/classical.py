"""Classical spin-orbit dynamics at linear order in the field strength.

The total Hamiltonian is the relativistic orbital energy plus the spin
coupling -s.F_pi, where F_pi is the precession angular velocity built
from the kinematic momentum. Hamilton's equations pick up the
field-gradient (Stern-Gerlach) force from the spin term, and the spin
itself precesses as ds/dt = s x F_pi. Quadratic-in-field remainders are
deliberately dropped; their size is measured, not modeled.

The Hamiltonian is written once, as one kernel template. The point kernel
(H and its parts or the equations of motion, for one particle or an
ensemble) and one Runge-Kutta step per tableau are generated from it, the
model's source inlined, via fields.optimized: exact for finite stage values.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .fields import _NAME, Uniform, compiled, field_source, layout, make_source, optimized, statements, substitute, to_array
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
# The Hamiltonian: one kernel template

# H = gamma_pi mc^2 + e phi - s.F_pi on y = (x, p, s) as x0, x1, x2, p0, p1, p2, s0, s1, s2, over the slots
# of a field model's source (fields.py) and the constants of _PARTICLE. A line with $i stands for its three
# components, ($i, $j, $k) cyclic; "{X: text}" keeps text where the field writes slot group X ("point": in
# the point kernel), "{!X: text}" where it does not, so each branch on a zero sentinel is resolved when the
# code is generated. Each + 0.0 stands for the zero third term of c1 u + c2 v + c3 w, so that a -0.0
# rounds as there.
_HAMILTONIAN = """\
pi$i = p$i - ec * A$i
g2 = 1.0 + (pi0 * pi0 + pi1 * pi1 + pi2 * pi2) / mc_sq
g = sqrt(g2){point: if g2.__class__ is float else math_of(g2).sqrt(g2)}
# F_pi = a B - b (pi.B) pi - d (pi x E); b vanishes at g = 2, d has the Thomas weight
u, w = 1.0 / g, 1.0 / (g + 1.0)
a, b, d = gme + em * u, kb * u * w, (gm * u - em * w) / mc
piB = pi0 * B0 + pi1 * B1 + pi2 * B2
c4 = -b * piB
F$i = a * B$i + c4 * pi$i{!E: + 0.0}{E: - d * (pi$j * E$k - pi$k * E$j)}
{point: H = None if eom else g * mc2 + e * phi - (s0 * F0 + s1 * F1 + s2 * F2)}
{point: if eom is None: return H}
spi = s0 * pi0 + s1 * pi1 + s2 * pi2
sxpi$i = s$j * pi$k - s$k * pi$j
c2 = b * spi
# grad = d(H_spin)/dx at fixed pi, H_spin = -a s.B + b (pi.B)(s.pi) + d (s x pi).E
q$i = -a * s$i + c2 * pi$i + 0.0
gr$i = {G: q0 * G0$i + q1 * G1$i + q2 * G2$i}{!G: 0.0}{K: + d * (sxpi0 * K0$i + sxpi1 * K1$i + sxpi2 * K2$i) + 0.0}
{point: if not eom: return H, (gr0, gr1, gr2), (pi0, pi1, pi2), g, (F0, F1, F2), {E: (E0, E1, E2)}{!E: ZERO3}, \
{B: (B0, B1, B2)}{!B: ZERO3}}
# dH/dpi: pi/(g m) plus the spin term, whose weights depend on pi through dg/dpi = pi/(g (mc)^2)
da, db, dd = -em * u * u, -kb * u * w * (u + w), (em * w * w - gm * u * u) / mc
dHs_dg = -da * (s0 * B0 + s1 * B1 + s2 * B2) + db * piB * spi{E: + dd * (E0 * sxpi0 + E1 * sxpi1 + E2 * sxpi2)}
c1, c3 = (inv_m + dHs_dg / mc_sq) / g, b * piB
v$i = c1 * pi$i + c2 * B$i + c3 * s$i{E: + d * (E$j * s$k - E$k * s$j) + 0.0}
# canonical force: scalar potential, grad, and the chain through pi(x) = p - (e/c)A(x)
ch$i = {J: v0 * J0$i + v1 * J1$i + v2 * J2$i}{!J: 0.0}
dp$i = {P: -e * P$i - gr$i + ec * ch$i}{!P: -gr$i + ec * ch$i + 0.0}
# ds/dt = s x F_pi
ds$i = s$j * F$k - s$k * F$j
{point: return [v0, v1, v2, dp0, dp1, dp2, ds0, ds1, ds2]}
"""
_BRANCH = re.compile(r"\{(!?)(\w+):([^{}]*)\}")
# the particle's constants the template reads, as _particle forms them
_PARTICLE = ("e", "ec", "em", "gm", "gme", "kb", "mc", "mc_sq", "mc2", "inv_m")
_Y = ("x0", "x1", "x2", "p0", "p1", "p2", "s0", "s1", "s2")
_EOM = ("v0", "v1", "v2", "dp0", "dp1", "dp2", "ds0", "ds1", "ds2")


def _particle(params: ParticleParams) -> tuple:
    e, gm, mc = params.e, params.gamma_m, params.mc
    em = e / mc
    return e, e / params.c, em, gm, gm - em, (gm - em) / mc ** 2, mc, mc ** 2, params.mc2, 1.0 / params.m


@functools.cache
def _hamiltonian(groups):
    """The template for a frozenset of slot groups (and "point"): its branches resolved, its $i lines written out."""
    text, last, lines = _HAMILTONIAN, None, []
    while text != last:
        text, last = _BRANCH.sub(lambda m: m[3] if (m[2] in groups) != (m[1] == "!") else "", text), text
    for line in text.splitlines():
        for i, j, k in ("012", "120", "201")[: 3 if "$" in line else 1]:
            lines.append(" ".join(line.replace("$i", i).replace("$j", j).replace("$k", k).split()))
    return "\n".join(line for line in lines if line and line[0] != "#")


@functools.cache
def _point_source(text, names):
    body = _hamiltonian(frozenset(layout(text)[0] | {"point"}))
    return field_source("kernel(y, eom=True)", text, _PARTICLE + names, [f"{', '.join(_Y)} = y"], body)


def _eom_kernel(model, params: ParticleParams):
    """The point kernel: the template with the model's source inlined, compiled once per source text, with the
    model's and the particle's constants bound.

    On y = (x, p, s) as nine components, floats at one point or (N,) arrays at N points, kernel(y, eom=None)
    returns H; kernel(y, eom=False) returns (H, grad, pi, gamma_pi, F_pi, E, B), grad = d(H_spin)/dx at fixed
    pi, minus the Stern-Gerlach force, and E and B as the model writes them (ZERO3 where it writes none);
    kernel(y) returns dy/dt.
    """
    text, names, values = model.source
    return compiled(_point_source(text, names))(_particle(params) + values)


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


# accepted rows held as lists between flushes into integrate's arrays
ROW_CHUNK = 256

# relative |s| drift beyond which the spin is renormalized; the raw drift
# is still accumulated in spin_drift so the integrator stays honest
SPIN_RENORM_THRESHOLD = 1e-12


def _combination(weights, i, y):
    """y + h * (w_1 k_1 + w_2 k_2 + ...) in component i over a row's nonzero weights in order; y without one."""
    terms = [f"{w!r} * k{j}_{i}" for j, w in enumerate(weights) if w]
    return f"{y} + h * ({' + '.join(terms)})" if terms else y


@functools.cache
def _step_source(method, text, names):
    """Source of step(y, h), one step of a tableau: per stage its point, the model's source and the template's
    equations of motion; then the next y and, for an embedded pair, the error increment."""
    stages, weights, err_weights = TABLEAUX[method]
    groups, _, field = layout(text)
    block = "\n".join(optimized(statements(field) + statements(_hamiltonian(frozenset(groups))), _EOM))
    body, read = [", ".join(f"y{i}" for i in range(9)) + " = y"], set(_NAME.findall(block))
    for j, row in enumerate(stages):
        rename = {v: f"k{j}_{i}" for i, v in enumerate(_EOM)}
        for i, x in enumerate(_Y):
            point = _combination(row, i, f"y{i}")
            if point == f"y{i}":
                rename[x] = point
            elif x in read:
                body.append(f"{x} = {point}")
        body += substitute(block, rename).splitlines()
    y = ", ".join(_combination(weights, i, f"y{i}") for i in range(9))
    err = "" if err_weights is None else ", [" + ", ".join(_combination(err_weights, i, "0.0") for i in range(9)) + "]"
    return make_source("step(y, h)", _PARTICLE + names, body + [f"return [{y}]{err}"])


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

    y = (x, p, s) is carried as nine floats; one generated function per
    tableau and field-model source takes each step. Accepted rows gather
    in lists, flushed into the arrays every ROW_CHUNK rows.
    """
    if T <= 0:
        raise ValueError("duration must be positive")
    stages, _, err_weights = TABLEAUX[spec.method]
    fixed = err_weights is None
    n = max(1, int(round(T / spec.step)))
    if fixed and n > spec.max_steps:
        raise ValueError("step count exceeds max_steps")
    h = T / n if fixed else min(spec.step, T)
    text, names, values = model.source
    step = compiled(_step_source(spec.method, text, names))(_particle(params) + values)

    # rows of (t, y = (x, p, s), cumulative spin drift); an adaptive run
    # accepts at most max_steps steps, and doubles the buffers if it needs
    # more rows than its initial step suggests
    size = min(n, spec.max_steps) + 1
    ts, ys, drifts = np.empty(size), np.empty((size, 9)), np.empty(size)
    y = state0.x.tolist() + state0.p.tolist() + state0.s.tolist()
    ts[0], ys[0], drifts[0] = state0.t, y, 0.0
    rows, t, drift_cum, attempts, rejected = 1, 0.0, 0.0, 0, 0
    chunk = []  # the accepted rows (t, *y, drift) not yet in the arrays
    mag = s0_mag = _spin_norm(y)

    def flush():
        nonlocal ts, ys, drifts
        while rows > len(ts):
            ts, ys, drifts = (np.concatenate([a, np.empty_like(a)]) for a in (ts, ys, drifts))
        if chunk:
            block, start = np.array(chunk), rows - len(chunk)
            ts[start:rows], ys[start:rows], drifts[start:rows] = block[:, 0], block[:, 1:10], block[:, 10]
            chunk.clear()

    def trajectory():
        flush()
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
        accept, factor = True, 1.0
        if fixed:
            y_next = step(y, h)
        else:
            y_next, increment = step(y, h)
            # abs drops the sign of a zero
            err = max(map(abs, increment))
            scale = spec.tol * max(1.0, max(map(abs, y)))
            accept = err <= scale
            factor = min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0))
        if accept:
            y = y_next
            t = rows * h if fixed else t + h
            raw = _spin_norm(y)
            drift_cum += (raw - mag) / s0_mag
            mag = raw  # carried to the next step, and recomputed only after a renormalization
            if abs(raw - s0_mag) / s0_mag > SPIN_RENORM_THRESHOLD:
                r = s0_mag / raw
                y[6:9] = [c * r for c in y[6:9]]
                mag = _spin_norm(y)
            chunk.append([state0.t + t, *y, drift_cum])
            rows += 1
            if len(chunk) == ROW_CHUNK:
                flush()
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
    # gamma_pi from the kernel of Uniform(E, B) at the origin, where A = 0 and so p = pi: the kernel that
    # precession_vector builds below, so no other one is compiled
    g_pi = _eom_kernel(Uniform(E, B), params)([0.0, 0.0, 0.0, *pi.tolist(), 0.0, 0.0, 0.0], eom=False)[3]
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
