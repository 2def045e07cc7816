"""spincorr benchmark: four workloads, measured end to end or traced per layer.

    python3 perfbench/run.py --workload {orbit,oracle,lattice,algebra} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else. With --trace 0 the run measures the
end-to-end metrics of BENCHMARK.json with no instrumentation; with
--trace 1 it runs one untraced and one traced iteration and reports the
per-layer metrics. The last line of standard output is the result object;
the line before it carries the environment, verdicts, counters and
results.json digests. See perfbench/README.md.
"""

import os

# BLAS and OpenMP are pinned before numpy can load, in this process and in
# every child it starts; unpinned, the dense lattice checks swing 18-73x.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
# one child must end well inside the 180 s a whole run is allowed
CHILD_TIMEOUT_S = 150
# share of a traced iteration that spans around program calls must cover
MIN_ATTRIBUTED_FRAC = 0.95

CHECKS_RUN = (
    "larmor_limit",
    "gradient_oracle",
    "bmt_consistency",
    "boost_covariance",
    "darwin_anchors",
    "spectrum_preservation",
    "correspondence_scaling",
    "negative_result",
    "parity",
    "case_equality",
    "ordering_identity",
)
PROBED = (
    ("fields.sample_field_us", "sample_field"),
    ("kinematics.kinematic_momentum_us", "kinematic_momentum"),
    ("kinematics.gamma_pi_us", "gamma_pi"),
    ("classical.eom_rhs_us", "eom_rhs"),
    ("classical.h_total_us", "h_total"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("orbit", "oracle", "lattice", "algebra"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: what a child process does (see child())
    p.add_argument("--child", choices=("setup", "iteration", "traced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import spincorr from this checkout's src/, refusing any other copy."""
    pkg = SRC / "spincorr"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spincorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spincorr

    if Path(spincorr.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: spincorr imported from {spincorr.__file__}, not {pkg}")


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    # the ceiling keeps git from reporting a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def monotonic():
    """System-wide monotonic clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, mode):
    """Run one child process in `mode` and return its result object.

    Returns the child's set-up time too: from just before the process is
    started to the child's first timed call, covering interpreter start,
    imports and construction of the workload's inputs.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", mode,
    ]
    t_spawn = monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise SystemExit(f"perfbench: {mode} child ran past {CHILD_TIMEOUT_S} s")
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {mode} child failed (exit {child.returncode})")
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("t_ready") - t_spawn
    return res


def judge(runs):
    """(attempted, failed verdict names, counter problems) over iterations."""
    attempted, failed, problems = 0, [], []
    for i, r in enumerate(runs):
        for name, ok in r["verdicts"].items():
            attempted += 1
            if not ok:
                failed.append(f"iteration {i}: {name}")
        for name, want in r["expected"].items():
            if r["counters"].get(name) != want:
                problems.append(f"iteration {i}: {name} = {r['counters'].get(name)}, expected {want}")
        if any(r["counters"].get(k) != v for k, v in runs[0]["counters"].items()):
            problems.append(f"iteration {i}: counters differ from iteration 0")
    return attempted, failed, problems


def end_to_end(args):
    """Cold iterations, one process each, until the next would end past --seconds.

    Each iteration's process gives one set-up sample, and set-up-only
    processes follow until there are SETUP_SAMPLES. Each timing is the mean
    of the run's samples: on a host whose speed swings both ways in spells,
    the mean came out steadier from run to run than the fastest sample or
    the median (perfbench/README.md, "Host noise").
    """
    runs, t_start = [], monotonic()
    while True:
        t0 = monotonic()
        runs.append(spawn(args, "iteration"))
        now = monotonic()
        if now - t_start + (now - t0) > args.seconds:
            break
    setups = [r["setup_s"] for r in runs]
    setups += [spawn(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    attempted, failed, problems = judge(runs)
    values = {
        "setup_s": statistics.mean(setups),
        "wall_s": statistics.mean(r["wall_s"] for r in runs),
        "work_per_s": sum(r["work"] for r in runs) / sum(r["work_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pass_frac": (attempted - len(failed)) / attempted,
    }
    detail = {
        "setup_samples_s": setups,
        "wall_samples_s": [r["wall_s"] for r in runs],
        "work_per_s_samples": [r["work"] / r["work_s"] for r in runs],
    }
    return values, runs, attempted, failed, problems, detail


def traced(args):
    """One cold untraced iteration, then one cold traced iteration with probes."""
    runs = [spawn(args, "iteration"), spawn(args, "traced")]
    untraced, traced_run = runs
    attempted, failed, problems = judge(runs)
    values = traced_run.pop("layers")
    values["trace.overhead_s"] = traced_run["wall_s"] - untraced["wall_s"]
    values["cli.results_digests_distinct"] = len({r["digest"] for r in runs if r.get("digest")})
    if values["trace.attributed_frac"] < MIN_ATTRIBUTED_FRAC:
        problems.append(f"spans cover only {values['trace.attributed_frac']:.3f} of the traced iteration")
    detail = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced_run["wall_s"],
        "trace_file": traced_run["trace_file"],
    }
    return values, runs, attempted, failed, problems, detail


def layer_values(tracer, root, result, traced_wall):
    """Per-layer metrics from the spans of one traced iteration and its probes.

    trace.overhead_s and cli.results_digests_distinct need the untraced
    iteration too; the parent process adds them.
    """
    from spans import self_times, totals

    spans = tracer.spans

    def per_call(name, scale):
        calls, total, _ = totals(spans, name)
        return total / calls * scale if calls else 0.0

    v = {}
    for metric, kernel in PROBED:
        per = [s.duration / s.attrs["calls"] for s in spans if s.name == f"probe.{kernel}"]
        v[metric] = statistics.median(per) * 1e6 if per else 0.0

    _, integ_s, integ = totals(spans, "classical.integrate")
    steps = sum(a["steps"] for a in integ)
    v["classical.rk4_steps"] = steps
    v["classical.integrate_step_us"] = integ_s / steps * 1e6 if steps else 0.0
    v["classical.bmt_consistency_residual_ms"] = per_call("classical.bmt_consistency_residual", 1e3)
    v["classical.covariance_scaling_ms"] = per_call("classical.covariance_scaling", 1e3)
    v["lorentz.bmt_rhs_us"] = per_call("lorentz.bmt_rhs", 1e6)
    # check_gradient_oracle makes one eom_rhs call per state it evaluates
    oracle_ids = {s.id for s in spans if s.name == "checks.gradient_oracle"}
    v["checks.oracle_states"] = sum(1 for s in spans if s.name == "classical.eom_rhs" and s.parent in oracle_ids)

    for case in ("case_i", "case_ii"):
        for fn in ("build_hamiltonian", "eriksen_fw", "build_correspondence"):
            v[f"qfw.{fn}_ms.{case}"] = per_call(f"qfw.{fn}.{case}", 1e3)
    v["qfw.parity_check_ms"] = per_call("qfw.parity_check", 1e3)
    v["qfw.darwin_vs_classical_hd_ms"] = per_call("qfw.darwin_vs_classical_hd", 1e3)
    eig = [totals(spans, f"numpy.linalg.{f}") for f in ("eigh", "eigvalsh")]
    v["qfw.eigh_calls"] = sum(c for c, _, _ in eig)
    v["qfw.eigh_s"] = sum(t for _, t, _ in eig)
    v["qfw.eigh_n3"] = sum(a["n"] ** 3 for _, _, attrs in eig for a in attrs)

    for case in ("case_i", "case_ii"):
        for fn in ("series_sqrt_expand", "claimed_expansion"):
            v[f"opalg.{fn}_s.{case}"] = totals(spans, f"opalg.{fn}.{case}")[1]
        alg = tracer.algebras.get(case)
        # the memo has no public size accessor; its entry count is the work measure
        v[f"opalg.memo_words.{case}"] = len(alg._word_memo) if alg else 0
        v[f"opalg.dropped_derivatives.{case}"] = alg.dropped_derivatives if alg else 0
        v[f"opalg.residual_terms.{case}"] = result["counters"].get(f"opalg.residual_terms.{case}", 0)
    v["opalg.matchup_report_s"] = totals(spans, "opalg.matchup_report")[1]
    calls, mult_s, _ = totals(spans, "opalg.multiply")
    v["opalg.multiply_calls"] = calls
    v["opalg.multiply_s"] = mult_s

    for name in CHECKS_RUN:
        v[f"checks.{name}_s"] = totals(spans, f"checks.{name}")[1]
    mains = [s for s in spans if s.name == "cli.main"]
    overheads = [
        m.duration - sum(s.duration for s in spans if s.parent == m.id and s.name.startswith("checks."))
        for m in mains
    ]
    v["cli.overhead_ms"] = statistics.mean(overheads) * 1e3 if overheads else 0.0
    v["trace.attributed_frac"] = (traced_wall - self_times(spans)[root]) / traced_wall
    v["env.blas_threads"] = blas_threads()
    return v


def blas_threads():
    """The BLAS/OpenMP thread count this process runs with; all variables must agree."""
    counts = {os.environ.get(var) for var in THREAD_VARS}
    if len(counts) != 1:
        raise SystemExit(f"perfbench: thread variables disagree: {sorted(map(str, counts))}")
    return int(counts.pop())


def child(args):
    """Body of one child process: set up, run one iteration, print its result."""
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    run_dir = OUT / f"runs-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    t_ready = monotonic()
    out = {"t_ready": t_ready}
    if args.child == "setup":
        print(json.dumps(out))
        return
    try:
        if args.child == "iteration":
            out.update(wl.iteration())
            out["wall_s"] = monotonic() - t_ready
        else:
            from spans import Instrumentation, Tracer

            tracer = Tracer()
            inst = Instrumentation(tracer).install()
            try:
                t0 = monotonic()
                with tracer.span("iteration") as root:
                    out.update(wl.iteration())
                out["wall_s"] = monotonic() - t0
            finally:
                inst.remove()
            if hasattr(wl, "probe"):
                wl.probe(tracer)
            out["layers"] = layer_values(tracer, root, out, out["wall_s"])
            for name, want in {**wl.traced_expected, "env.blas_threads": int(BLAS_THREADS)}.items():
                out["counters"][name] = out["layers"][name]
                out["expected"][name] = want
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            out["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment(args.seed)
    print(json.dumps(out))


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        child(args)
        return 0
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    OUT.mkdir(exist_ok=True)
    values, runs, attempted, failed, problems, detail = (traced if args.trace else end_to_end)(args)
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "iterations": len(runs),
        "environment": runs[-1]["environment"],
        "failed_frac": len(failed) / attempted,
        "failed_frac_base": f"{len(failed)} failed of {attempted} verdicts",
        "failed_verdicts": failed,
        "counter_problems": problems,
        "counters": runs[-1]["counters"],
        "results_sha256": [r["digest"] for r in runs if r.get("digest")],
        **detail,
    }
    print(json.dumps({"perfbench": info}))
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
