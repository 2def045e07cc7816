"""The four benchmark workloads, each driven through spincorr's public API.

A workload object is built once per process (imports and inputs are
set-up time) and then runs `iteration()`. An iteration returns its
verdicts, the counters that must repeat exactly, the units of work it did
and the seconds that work took. `traced_expected` names per-layer counters
the traced run must reproduce exactly. Every call into the program goes
through a module attribute, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import numpy as np

from spincorr import checks, classical, cli, fields, kinematics

PROBE_STATES = 256
PROBE_SECONDS = 0.25


def _probe(tracer, model, params, states):
    """Per-call cost of the classical layer's public kernels on `states`.

    Each kernel runs over all states in rounds until PROBE_SECONDS have
    passed (at least three rounds); one span covers one round.
    """
    samples = [fields.sample_field(model, st.x) for st in states]
    pis = [kinematics.kinematic_momentum(st.p, smp.A, params) for st, smp in zip(states, samples)]
    kernels = {
        "sample_field": lambda: [fields.sample_field(model, st.x) for st in states],
        "kinematic_momentum": lambda: [
            kinematics.kinematic_momentum(st.p, smp.A, params) for st, smp in zip(states, samples)
        ],
        "gamma_pi": lambda: [kinematics.gamma_pi(pi, params) for pi in pis],
        "eom_rhs": lambda: [classical.eom_rhs(st, model, params) for st in states],
        "h_total": lambda: [classical.h_total(st, model, params) for st in states],
    }
    with tracer.span("probe"):
        for name, run in kernels.items():
            rounds, t_end = 0, time.perf_counter() + PROBE_SECONDS
            while rounds < 3 or time.perf_counter() < t_end:
                with tracer.span(f"probe.{name}", {"calls": len(states)}):
                    run()
                rounds += 1


class Orbit:
    """Long sequential RK4 stepping: the conservation check's energy window."""

    name = "orbit"
    steps = 10_000
    dt = 2e-4
    traced_expected = {}

    def __init__(self, seed, out_root):
        self.seed = seed
        self.model = fields.SternGerlach(B0=5.0, b=0.01)
        # the conservation check's initial state, particle and step size
        self.state0 = kinematics.PhaseState(
            np.array([0.1, 0.2, -0.1]), np.array([0.3, -0.2, 0.25]), np.array([0.3, 0.1, 0.35])
        )
        self.spec = classical.IntegratorSpec(step=self.dt)
        self.traj = None

    def iteration(self):
        t0 = time.perf_counter()
        traj = classical.integrate(self.state0, self.model, checks.CANONICAL, self.spec, self.steps * self.dt)
        t1 = time.perf_counter()
        h = traj.h_total
        energy_drift = float(np.abs(h - h[0]).max() / abs(h[0]))
        spin_drift = float(np.abs(traj.spin_drift).max())
        larmor = checks.check_larmor_limit()
        self.traj = traj
        return {
            # the conservation check's own bounds, and Larmor's verdict
            "verdicts": {
                "energy_drift": energy_drift < 1e-8,
                "spin_drift": spin_drift < 1e-9,
                "larmor_limit": bool(larmor.passed),
            },
            "counters": {"classical.rk4_steps.window": len(traj) - 1},
            "expected": {"classical.rk4_steps.window": self.steps},
            "work": len(traj) - 1,
            "work_s": t1 - t0,
        }

    def probe(self, tracer):
        rng = np.random.default_rng(self.seed)
        idx = np.sort(rng.choice(len(self.traj), PROBE_STATES, replace=False))
        _probe(tracer, self.model, checks.CANONICAL, [self.traj.state(int(i)) for i in idx])


class Oracle:
    """The classical layer used pointwise: no long integration."""

    name = "oracle"
    states = 1000
    traced_expected = {"checks.oracle_states": states}

    def __init__(self, seed, out_root):
        self.seed = seed

    def iteration(self):
        t0 = time.perf_counter()
        grad = checks.check_gradient_oracle(self.seed)
        t1 = time.perf_counter()
        bmt = checks.check_bmt_consistency()
        boost = checks.check_boost_covariance(self.seed)
        return {
            "verdicts": {
                "gradient_oracle": bool(grad.passed),
                "bmt_consistency": bool(bmt.passed),
                "boost_covariance": bool(boost.passed),
            },
            "counters": {},
            "expected": {},
            "work": self.states,
            "work_s": t1 - t0,
        }

    def probe(self, tracer):
        # the first states check_gradient_oracle draws, in its field model
        model = fields.Superposition(
            fields.SternGerlach(B0=1.0, b=0.3), fields.SinusoidalElectrostatic(lam=0.4, L=2.0)
        )
        rng = np.random.default_rng(self.seed)
        states = [
            kinematics.PhaseState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
            for _ in range(PROBE_STATES)
        ]
        _probe(tracer, model, checks.CANONICAL, states)


class _CliMode:
    """One `spincorr <mode>` run through cli.main, in-process."""

    argv = ()
    checks_per_run = 0
    traced_expected = {}

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out = out_root / self.name

    def iteration(self):
        argv = [*self.argv, "--seed", str(self.seed), "--out", str(self.out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        t1 = time.perf_counter()
        path = self.out / "results.json"
        data = path.read_bytes() if path.is_file() else b""
        record = json.loads(data) if data else {}
        return {
            "verdicts": {"exit_code_0": rc == 0, "results_pass": record.get("pass") is True},
            "counters": self.counters(record),
            "expected": {},
            "work": self.checks_per_run,
            "work_s": t1 - t0,
            "digest": hashlib.sha256(data).hexdigest() if data else None,
        }

    def counters(self, record):
        return {}


class LatticeMode(_CliMode):
    """`verify-fw`, default profile: dense assembly, eriksen_fw, Weyl series, parity."""

    name = "lattice"
    argv = ("verify-fw",)
    checks_per_run = len(checks.MODE_CHECKS["verify-fw"])


class AlgebraMode(_CliMode):
    """`verify-algebra --order 8` with a cold Algebra memo, as every user run has."""

    name = "algebra"
    argv = ("verify-algebra", "--order", "8")
    checks_per_run = len(checks.MODE_CHECKS["verify-algebra"])

    def counters(self, record):
        for chk in record.get("checks", []):
            if chk["name"] == "case_equality":
                return {
                    f"opalg.residual_terms.{case}": chk["value"][f"{case}_residual_terms"]
                    for case in ("case_i", "case_ii")
                }
        return {}


WORKLOADS = {w.name: w for w in (Orbit, Oracle, LatticeMode, AlgebraMode)}
