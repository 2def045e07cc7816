"""The verification battery: every check the result records can report.

Each function runs one self-contained experiment at a pinned preset and
returns a CheckResult whose name is stable across the CLI, the JSON
artifacts and the acceptance suite. Tolerances live here, next to the
experiment that owns them.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .classical import (
    H_BLOCK,
    IntegratorSpec,
    _eom_kernel,
    bmt_consistency_residual,
    covariance_scaling,
    eom_rhs,
    fit_slope,
    h_total_blocked,
    integrate,
)
from .config import BETA_FLOOR, SCHEMA
from .fields import SternGerlach, Uniform
from .kinematics import PhaseState
from .params import ParticleParams
from . import qfw

# check parameter -> the config key whose value run_checks passes to it
RUN_PARAMS = {
    "seed": "seed",
    "order": "order",
    "lambdas": "amplitudes",
    "profile": "profile",
    "beta_max": "boost.beta_max",
}
# leading terms of a nonzero exact residual written to a failing check's detail
RESIDUAL_TERMS_SHOWN = 5

# canonical particle: anomalous charged dipole used by the orbit checks
CANONICAL = ParticleParams.from_moment(m=1.0, e=0.7, mu_prime=0.13)
NEUTRAL_SLOW = ParticleParams.neutral(mu_prime=0.11)


def _jsonable(v):
    """Strip numpy scalar types so the records serialize canonically, and write a Fraction as its float;
    a non-finite float, not JSON, becomes None."""
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating, Fraction)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# bound kind -> its verdict on a value v, given the limits (a, b)
VERDICTS = {
    "<": lambda v, a, b: v < a,
    ">=": lambda v, a, b: v >= a,
    "==": lambda v, a, b: v == a,
    "[]": lambda v, a, b: a <= v <= b,
    "+-": lambda v, a, b: abs(v - a) <= b,
}


@dataclass(frozen=True)
class Bound:
    """One bound a check gates on: its kind, a key of VERDICTS, and its limits a and b.

    A list or dict value passes when every entry passes; NaN passes no kind.
    """

    kind: str
    a: object
    b: float | None = None

    def passes(self, v) -> bool:
        if isinstance(v, (list, tuple, dict)):
            return all(map(self.passes, v.values() if isinstance(v, dict) else v))
        return bool(VERDICTS[self.kind](v, self.a, self.b))

    def limits(self):
        """The bound as results.json records it: a limit, or a band as [low, high]."""
        if self.kind == "+-":
            return [self.a - self.b, self.a + self.b]
        return self.a if self.b is None else [self.a, self.b]


@dataclass
class CheckResult:
    name: str
    value: object
    # one Bound on the whole value, or a dict of Bounds keyed by the value keys they gate
    bounds: Bound | dict
    expected_fail: bool = False
    detail: dict = dc_field(default_factory=dict)
    # wall time of the check; meta.json records it, results.json does not
    wall_s: float = 0.0

    @property
    def passed(self) -> bool:
        if isinstance(self.bounds, Bound):
            return self.bounds.passes(self.value)
        return all(b.passes(self.value[k]) for k, b in self.bounds.items())

    def to_json(self) -> dict:
        b = self.bounds
        return {
            "name": self.name,
            "value": _jsonable(self.value),
            "tolerance": _jsonable(b.limits() if isinstance(b, Bound) else {k: x.limits() for k, x in b.items()}),
            "pass": self.passed,
            "expected_fail": bool(self.expected_fail),
            "detail": _jsonable(self.detail),
        }


CHECK_INFO = {
    "larmor_limit": "spin at rest in a uniform B rotates by the analytic angle",
    "conservation": "|s| and H stay constant along the gradient-trap orbit",
    "pitch_lock": "g = 2 freezes the longitudinal polarization in a uniform B",
    "bmt_consistency": "covariant precession matches at stencil order; the "
    "gradient four-force term is load-bearing",
    "gradient_oracle": "analytic equations of motion equal finite differences "
    "of the Hamiltonian",
    "case_equality": "operator square-root series equals the claimed "
    "Weyl-ordered closed form, exactly",
    "ordering_identity": "the symmetrized triple product matches the "
    "Weyl-ordered magnetic coupling modulo reordering",
    "darwin_anchors": "contact-term coefficients evaluate exactly for the "
    "pure-charge and pure-moment particles",
    "spectrum_preservation": "the exact transform is isospectral and "
    "block-diagonal",
    "correspondence_scaling": "transform-vs-classical-image residual shrinks "
    "quadratically in the field amplitude",
    "negative_result": "the flat contact candidate underperforms the "
    "velocity-weighted form across the spectrum",
    "parity": "both Hamiltonians commute with parity",
    "boost_covariance": "boosted precession matches the single-factor form "
    "to second order in the amplitude",
}


def _work(*trajs) -> dict:
    """The integrator's work counters, summed over the trajectories a check ran."""
    return {
        "rhs_calls": sum(t.rhs_calls for t in trajs),
        "steps": sum(len(t) - 1 for t in trajs),
        "rejected": sum(t.rejected for t in trajs),
    }


def check_larmor_limit() -> CheckResult:
    B0 = 1.0
    model = Uniform(B0=np.array([0.0, 0.0, B0]))
    rate = CANONICAL.gamma_m * B0
    T = 2.0 * math.pi / rate
    s0 = np.array([1.0, 0.0, 0.25])
    traj = integrate(
        PhaseState(np.zeros(3), np.zeros(3), s0),
        model,
        CANONICAL,
        IntegratorSpec(step=T / 1000),
        T,
    )
    # accumulate the in-plane rotation angle, winding included
    ang = np.unwrap(np.arctan2(traj.s[:, 1], traj.s[:, 0]))
    theta = abs(ang[-1] - ang[0])
    rel = abs(theta - rate * T) / (rate * T)
    return CheckResult("larmor_limit", rel, Bound("<", 1e-6), detail=_work(traj))


def check_conservation() -> CheckResult:
    model = SternGerlach(B0=5.0, b=0.01)
    st = PhaseState(
        np.array([0.1, 0.2, -0.1]),
        np.array([0.3, -0.2, 0.25]),
        np.array([0.3, 0.1, 0.35]),
    )
    dt = 2e-4
    n_spin, n_energy = 100_000, 10_000
    traj = integrate(st, model, CANONICAL, IntegratorSpec(step=dt), n_spin * dt)
    spin_drift = float(np.abs(traj.spin_drift).max())
    h = traj.h_total[: n_energy + 1]
    energy_drift = float(np.abs(h - h[0]).max() / abs(h[0]))
    value = {"spin_drift": spin_drift, "energy_drift": energy_drift}
    bounds = {"spin_drift": Bound("<", 1e-9), "energy_drift": Bound("<", 1e-8)}
    return CheckResult("conservation", value, bounds, detail={**_work(traj), "energy_steps": n_energy, "dt": dt})


def check_pitch_lock() -> CheckResult:
    pr = ParticleParams.dirac(m=1.0, e=1.0)
    B0 = 1.0
    model = Uniform(B0=np.array([0.0, 0.0, B0]))
    kernel = _eom_kernel(model, pr)
    p0 = np.array([pr.mc, 0.0, 0.0])
    s0 = np.array([0.48, 0.36, 0.0])  # in the orbital plane: s.B = 0
    g = kernel([0.0, 0.0, 0.0, *p0.tolist(), *s0.tolist()], eom=False)[3]
    Tc = 2.0 * math.pi * g * pr.mc / (pr.e * B0)
    traj = integrate(
        PhaseState(np.zeros(3), p0, s0), model, pr, IntegratorSpec(step=Tc / 2000), 10 * Tc
    )
    # pi over all rows, each component an (N,) array since p is one
    pi = np.column_stack(kernel([*traj.x.T, *traj.p.T, *traj.s.T], eom=False)[2])
    pitch = np.einsum("ij,ij->i", traj.s, pi) / np.linalg.norm(pi, axis=1)
    dev = float(np.abs(pitch - pitch[0]).max())
    return CheckResult("pitch_lock", dev, Bound("<", 1e-8), detail={**_work(traj), "periods": 10})


def check_bmt_consistency() -> CheckResult:
    model = SternGerlach(B0=5.0, b=0.01)
    p0 = np.array([1e-4, 3e-5, -2e-5]) * NEUTRAL_SLOW.mc
    s0 = np.array([0.2, 0.1, 0.45])
    T = 4.0
    steps = (10, 20, 40)
    trajs = [
        integrate(PhaseState(np.zeros(3), p0, s0), model, NEUTRAL_SLOW, IntegratorSpec(step=T / n), T)
        for n in steps
    ]
    resids = [bmt_consistency_residual(traj, model, NEUTRAL_SLOW) for traj in trajs]
    order = fit_slope([T / n for n in steps], resids)
    # the f-term ratio on the finest run, whose residual with f is resids[-1]
    with_f = resids[-1]
    without_f = bmt_consistency_residual(trajs[-1], model, NEUTRAL_SLOW, include_gradient_force=False)
    ratio = float(without_f / with_f)
    value = {"stencil_order": order, "f_term_ratio": ratio}
    bounds = {"stencil_order": Bound("[]", 3.7, 4.3), "f_term_ratio": Bound(">=", 10.0)}
    return CheckResult(
        "bmt_consistency", value, bounds, detail={**_work(*trajs), "residuals": [float(r) for r in resids]}
    )


def check_gradient_oracle(seed: int = SCHEMA["seed"][1]) -> CheckResult:
    """Analytic (dx, dp, ds)/dt at random states against central differences of H.

    Each state's equations of motion come from one eom_rhs call, the
    single-particle path; the 18 displaced H values of all states come
    from the array path, in blocks of H_BLOCK rows. detail counts that
    work and names the state and the part (dx, dp or ds) that hold the
    largest error.
    """
    from .fields import SinusoidalElectrostatic, Superposition

    model = Superposition(
        SternGerlach(B0=1.0, b=0.3), SinusoidalElectrostatic(lam=0.4, L=2.0)
    )
    states, h = 1000, 1e-6
    # row i is state i's y = (x, p, s): the same draws as three normal(size=3) per state
    ys = np.random.default_rng(seed).normal(size=(states, 9))
    # columns 2j and 2j+1 displace coordinate j of y by +h and -h
    offsets = np.zeros((18, 9))
    offsets[0::2], offsets[1::2] = h * np.eye(9), -h * np.eye(9)
    H = h_total_blocked(ys, model, CANONICAL, offsets)
    fd = (H[:, 0::2] - H[:, 1::2]) / (2 * h)
    rates = np.empty((states, 9))
    for i, y in enumerate(ys):
        rates[i, 0:3], rates[i, 3:6], rates[i, 6:9] = eom_rhs(PhaseState(y[0:3], y[3:6], y[6:9]), model, CANONICAL)
    dx, dp, ds = rates[:, 0:3], rates[:, 3:6], rates[:, 6:9]
    fd_x, fd_p, grad_s = fd[:, 0:3], fd[:, 3:6], fd[:, 6:9]
    # spin flows against its gradient: ds/dt = dH/ds x s
    err = np.abs(np.concatenate([dx - fd_p, dp + fd_x, ds - np.cross(grad_s, ys[:, 6:9])], axis=1))
    state, col = np.unravel_index(int(err.argmax()), err.shape)
    worst = float(err[state, col])
    detail = {
        "states": states,
        "seed": seed,
        "eom_calls": states,
        "h_rows": states * len(offsets),
        "h_calls": -(-states // (H_BLOCK // len(offsets))),
        "worst_state": int(state),
        "worst_part": ("dx", "dp", "ds")[col // 3],
    }
    return CheckResult("gradient_oracle", worst, Bound("<", 1e-7), detail=detail)


def check_case_equality(order: int = SCHEMA["order"][1]) -> CheckResult:
    """Series equals closed form in both cases; detail holds each case's work counters.

    A failing case also gets its leading residual terms as text.
    """
    from .opalg.identities import case_algebra, verify_case
    from .opalg.printing import expr_to_text, leading_terms

    residual_terms = {}
    detail = {"order": order}
    for case in ("I", "II"):
        alg = case_algebra(case)
        ok, residual = verify_case(case, order, alg)
        tag = f"case_{case.lower()}"
        residual_terms[f"{tag}_residual_terms"] = len(residual)
        detail[f"{tag}_dropped_derivatives"] = alg.dropped_derivatives
        detail[f"{tag}_memo_words"] = alg.memo_words
        if not ok:
            detail[f"{tag}_leading_residual"] = expr_to_text(leading_terms(residual, RESIDUAL_TERMS_SHOWN))
    return CheckResult("case_equality", residual_terms, Bound("==", 0), detail=detail)


def check_ordering_identity(seed: int = SCHEMA["seed"][1]) -> CheckResult:
    """The double-cross ordering identity; a failing run also gets, per component,
    the leading terms of the residual's field-derivative-free part as text.
    """
    from .opalg.identities import matchup_report
    from .opalg.printing import expr_to_text, leading_terms

    rep = matchup_report(trials=8, seed=seed)
    value = {
        "commuting_identity": rep["commuting_identity"],
        "homogeneous_exact": rep["homogeneous_exact"],
        "epsilon_expansion": rep["epsilon_expansion"],
        "defect_decomposition": rep["defect_decomposition"],
        "shadow_zero": rep["shadow_zero"],
    }
    detail = {"defect_coefficients": [str(c) for c in rep["defect_coefficients"]]}
    if not rep["ok"]:
        detail["leading_residual"] = [
            expr_to_text(leading_terms(h, RESIDUAL_TERMS_SHOWN)) for h in rep["homogeneous_residual"]
        ]
    return CheckResult("ordering_identity", value, Bound("==", True), detail=detail)


def check_darwin_anchors() -> CheckResult:
    m, e = Fraction(3, 2), Fraction(5, 7)
    dirac_val = qfw.darwin_coefficient(m, e, gamma_m=e / m)
    mu_p = Fraction(4, 11)
    neutral_val = qfw.darwin_coefficient(Fraction(2), 0, gamma_m=2 * mu_p)
    bounds = {"dirac": Bound("==", e / (8 * m ** 2)), "neutral": Bound("==", -mu_p / 4)}
    detail = {"dirac_exact": str(dirac_val), "neutral_exact": str(neutral_val)}
    return CheckResult("darwin_anchors", {"dirac": dirac_val, "neutral": neutral_val}, bounds, detail=detail)


def _qfw_defaults(case):
    lat = qfw.default_lattice(case)
    return lat, qfw.default_params(case, lat)


def check_spectrum_preservation(transforms=qfw.exact_transform) -> CheckResult:
    """(H, H') at two amplitudes per case, H' from `transforms` and H rebuilt on its orbital."""
    worst_spec, worst_block = 0.0, 0.0
    fw_blocks, components = {}, {}
    for case in (qfw.CASE_I, qfw.CASE_II):
        lat, par = _qfw_defaults(case)
        for lam in (1e-2, 1e-3):
            orb, Hfw = transforms(case, lat, lam, par)
            H = qfw.build_hamiltonian(case, lat, par, orb)
            # spectra and block defect from each dense matrix alone: a
            # measurement independent of the transform's block bookkeeping
            M = Hfw.matrix
            a, comp_h = qfw.component_spectrum(H.matrix)
            b, comp_hp = qfw.component_spectrum(M)
            worst_spec = max(worst_spec, float(np.abs(a - b).max()))
            worst_block = max(worst_block, qfw.block_diagonality_defect(M))
            tag = f"case_{case.lower()}"
            # each block's two beta halves are eigh'd apart
            fw_blocks[tag] = [[2 * len(Hfw.blocks), Hfw.blocks.shape[-1] // 2]]
            components[tag] = {"H": comp_h, "H_transformed": comp_hp}
    value = {"spectrum": worst_spec, "block_diagonality": worst_block}
    bounds = {"spectrum": Bound("<", 1e-10), "block_diagonality": Bound("<", 1e-11)}
    # [number of blocks, dimension] of the transform's eigh stacks, and
    # [number of components, size] of each side's nonzero pattern
    detail = {"fw_blocks": fw_blocks, "components": components}
    return CheckResult("spectrum_preservation", value, bounds, detail=detail)


def check_correspondence_scaling(
    lambdas=SCHEMA["amplitudes"][1],
    profile: str = SCHEMA["profile"][1],
    darwin=qfw.darwin_vs_classical_hd,
    transforms=qfw.exact_transform,
) -> CheckResult:
    """Residual slopes of both cases; case II's residuals and slope are read from the Darwin report `darwin`."""
    lat1, par1 = _qfw_defaults(qfw.CASE_I)
    res_i, slope_i = qfw.residual_scaling(qfw.CASE_I, lat1, par1, lambdas, transforms)
    drop_darwin = profile == "negative-result"
    rep = darwin(*_qfw_defaults(qfw.CASE_II), lambdas, transforms)
    residual, slope = (
        ("residual_no_darwin", "slope_without_darwin") if drop_darwin else ("residual_correct", "slope_with_darwin")
    )
    res_ii = [rep[residual][lam] for lam in lambdas]
    slope_ii = rep[slope]
    value = {"case_i_slope": slope_i, "case_ii_slope": slope_ii}
    bounds = {"case_i_slope": Bound("+-", 2.0, 0.1), "case_ii_slope": Bound("+-", 1.0 if drop_darwin else 2.0, 0.1)}
    return CheckResult(
        "correspondence_scaling",
        value,
        bounds,
        expected_fail=drop_darwin,
        detail={
            "lambdas": list(lambdas),
            "darwin_included": not drop_darwin,
            # particle-half residual at each amplitude, in lambdas order
            "residuals": {"case_i": res_i, "case_ii": res_ii},
            # [number of blocks, width] of the per-block H and H'
            "blocks": {
                "case_i": qfw.block_shapes(qfw.CASE_I, lat1),
                "case_ii": qfw.block_shapes(qfw.CASE_II, qfw.default_lattice(qfw.CASE_II)),
            },
        },
    )


def check_negative_result(
    lambdas=SCHEMA["amplitudes"][1], darwin=qfw.darwin_vs_classical_hd, transforms=qfw.exact_transform
) -> CheckResult:
    """The flat Darwin candidate against the 1/gamma form, from the Darwin report `darwin`.

    The report holds measurements only; every bound is applied here. The
    candidate must trail the 1/gamma form by at least (gamma_max - 1)/2 of
    the Darwin term, match it near rest, and omitting Darwin must cost one
    order of the slope.
    """
    rep = darwin(*_qfw_defaults(qfw.CASE_II), lambdas, transforms)
    required_gap = (rep["gamma_max"] - 1.0) / 2.0
    value = {
        "gap_over_darwin": rep["gap_over_darwin"],
        "required_gap": required_gap,
        "fit_rel_dev": rep["fit_rel_dev"],
        "nonrel_form_rel_diff": rep["nonrel_form_rel_diff"],
        "slope_with_darwin": rep["slope_with_darwin"],
        "slope_without_darwin": rep["slope_without_darwin"],
    }
    bounds = {
        "gap_over_darwin": Bound(">=", required_gap),
        "nonrel_form_rel_diff": Bound("<", 1e-3),
        "slope_with_darwin": Bound("+-", 2.0, 0.1),
        "slope_without_darwin": Bound("+-", 1.0, 0.1),
    }
    return CheckResult("negative_result", value, bounds)


def check_parity(transforms=qfw.exact_transform) -> CheckResult:
    """(H, H') at amplitude 1e-2 per case, H' from `transforms` and H rebuilt on its orbital."""
    worst = 0.0
    per_case = {}
    for case in (qfw.CASE_I, qfw.CASE_II):
        lat, par = _qfw_defaults(case)
        orb, Hfw = transforms(case, lat, 1e-2, par)
        dev_h, dev_hp = qfw.parity_check(qfw.build_hamiltonian(case, lat, par, orb), Hfw)
        per_case[case] = {"H": dev_h, "H_transformed": dev_hp}
        worst = max(worst, dev_h, dev_hp)
    return CheckResult("parity", worst, Bound("<", 1e-12), detail=per_case)


def check_boost_covariance(
    seed: int = SCHEMA["seed"][1],
    lambdas=SCHEMA["amplitudes"][1],
    beta_max: float = SCHEMA["boost.beta_max"][1],
) -> CheckResult:
    """Rest-boost covariance defect at three random boosts; its slope in the amplitude must be 2.

    detail holds each boost's defect at every amplitude, the data its slope is fit to.
    """
    pr = ParticleParams.neutral(mu_prime=0.08)
    rng = np.random.default_rng(seed)
    slopes, residuals = [], []
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        beta_mag = rng.uniform(BETA_FLOOR, beta_max)
        pi = direction * beta_mag / math.sqrt(1.0 - beta_mag ** 2) * pr.mc
        s, E, B = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        resid, slope = covariance_scaling(pi, s, E, B, pr, lambdas)
        slopes.append(float(slope))
        residuals.append([float(r) for r in resid])
    value = {"slopes": slopes}
    return CheckResult(
        "boost_covariance", value, {"slopes": Bound("+-", 2.0, 0.1)}, detail={"seed": seed, "residuals": residuals}
    )


MODE_CHECKS = {
    "simulate": (
        "larmor_limit",
        "conservation",
        "pitch_lock",
        "bmt_consistency",
        "gradient_oracle",
    ),
    "boost": ("boost_covariance",),
    "verify-algebra": ("case_equality", "ordering_identity"),
    "verify-fw": (
        "darwin_anchors",
        "spectrum_preservation",
        "correspondence_scaling",
        "negative_result",
        "parity",
    ),
}


def run_checks(cfg) -> list:
    """Execute the checks of the run's mode, in their declared order.

    Each check gets the run parameters its signature names (`RUN_PARAMS`),
    read from the RunConfig `cfg`. The lattice checks get a fresh cache of
    `transforms` and `darwin`, each read from qfw at call time, so each
    (case, lattice, amplitude, params) is transformed once and criteria 10
    and 11 read one case II report. Only `args` holds the caches: they are
    freed when the run returns. The checks call both positionally, so equal
    calls share a key.
    """
    args = {param: cfg[key] for param, key in RUN_PARAMS.items()}
    args["transforms"] = functools.cache(qfw.exact_transform)
    args["darwin"] = functools.cache(qfw.darwin_vs_classical_hd)
    out = []
    for name in MODE_CHECKS[cfg.mode]:
        check = globals()[f"check_{name}"]
        kwargs = {param: args[param] for param in inspect.signature(check).parameters}
        t0 = time.perf_counter()
        r = check(**kwargs)
        r.wall_s = time.perf_counter() - t0
        out.append(r)
    return out
