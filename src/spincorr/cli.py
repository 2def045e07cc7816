"""Command-line front end: run experiments, persist results, render reports.

Subcommands map onto the verification battery: simulate runs the orbit
checks plus a configured trajectory export, boost runs the covariance
scan, verify-algebra the exact symbolic checks, verify-fw the lattice
transform checks, and report re-renders a previous run's JSON.

Exit codes: 0 all checks pass, 1 a check failed (artifacts are still
written), 2 configuration problem, 3 internal error.

Result files are deterministic for the same config, seed and BLAS thread
count: results.json is byte-identical across such reruns (the lattice
checks' eigensolver values move in the last digits with the thread
count); the timestamp and wall time live in a separate meta.json so they
cannot perturb the record. meta.json also records the numpy version, the
name and version of the BLAS library numpy was built with, and the
BLAS/OpenMP thread-count variables ("unset" where a variable is not
set), so a run can be matched with the library and thread count it ran
under, and each check's wall time by name.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checks import CHECK_INFO, run_checks
from .classical import integrate
from .config import MODES, PROFILES, ConfigError, RunConfig, load_config

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

# BLAS/OpenMP thread-count variables; the lattice checks' eigensolver
# values move in the last digits with the thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_info() -> dict:
    """Name and version of numpy's BLAS build dependency ("unknown" where numpy does not say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {}
    return {key: str(blas.get(key, "unknown")) for key in ("name", "version")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description="relativistic spin dynamics and lattice transform verification",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    descriptions = {
        "simulate": "integrate a configured scenario and run the orbit checks",
        "boost": "rest-frame covariance amplitude scan",
        "verify-algebra": "exact operator-algebra identities",
        "verify-fw": "lattice transform versus the classical image",
        "report": "render a previous run's results",
    }
    for mode in MODES:
        sp = sub.add_parser(mode, help=descriptions[mode])
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        sp.add_argument("--out", metavar="DIR", help="artifact directory")
        sp.add_argument("--seed", type=int, metavar="U64", help="random seed")
        sp.add_argument("--profile", choices=list(PROFILES), help="check profile")
        sp.add_argument("--order", type=int, metavar="N", help="symbolic expansion order")
        sp.add_argument(
            "--lambda-list",
            metavar="CSV",
            dest="lambda_list",
            help="comma-separated field amplitudes",
        )
    return parser


def _overrides_from_args(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.profile is not None:
        out["profile"] = args.profile
    if args.order is not None:
        out["order"] = args.order
    if args.lambda_list is not None:
        out["amplitudes"] = args.lambda_list
    if args.out is not None:
        out["out"] = args.out
    return out


def _run_id(cfg: RunConfig) -> str:
    tag = f"{cfg.config_hash()}:{cfg.mode}:{cfg['seed']}:{cfg['profile']}"
    return hashlib.sha256(tag.encode()).hexdigest()[:12]


def _trajectory_rows(cfg: RunConfig):
    traj = integrate(
        cfg.state0(), cfg.field_model(), cfg.particle(), cfg.integrator(), cfg["duration"]
    )
    h0 = traj.h_total[0]
    rows = []
    for i in range(len(traj)):
        rows.append(
            {
                "t": float(traj.t[i]),
                "x": [float(v) for v in traj.x[i]],
                "p": [float(v) for v in traj.p[i]],
                "s": [float(v) for v in traj.s[i]],
                "h_total": float(traj.h_total[i]),
                "s_mag": float(traj.s_mag[i]),
                "h_drift": float((traj.h_total[i] - h0) / abs(h0)),
                "s_drift": float(traj.spin_drift[i]),
            }
        )
    return rows


def _write_trajectory(rows, out_dir: Path):
    (out_dir / "trajectory.json").write_text(
        json.dumps(rows, sort_keys=True, indent=2) + "\n"
    )
    header = [
        "t", "x1", "x2", "x3", "p1", "p2", "p3", "s1", "s2", "s3",
        "h_total", "s_mag", "h_drift", "s_drift",
    ]
    with (out_dir / "trajectory.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            writer.writerow(
                [r["t"], *r["x"], *r["p"], *r["s"], r["h_total"], r["s_mag"],
                 r["h_drift"], r["s_drift"]]
            )


def render_report(record: dict) -> str:
    lines = [
        f"run {record['run_id']}  mode={record['mode']}  profile={record['profile']}",
        f"config {record['config_hash'][:12]}  seed={record['seed']}",
        "",
    ]
    for chk in record["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        if chk.get("expected_fail"):
            status += " [negative-result profile]"
        lines.append(f"{status:6s} {chk['name']}")
        lines.append(f"       claim: {CHECK_INFO.get(chk['name'], '')}")
        lines.append(f"       value: {json.dumps(chk['value'], sort_keys=True)}")
        lines.append(f"       tolerance: {json.dumps(chk['tolerance'], sort_keys=True)}")
    n_pass = sum(1 for c in record["checks"] if c["pass"])
    lines.append("")
    verdict = "PASS" if record["pass"] else "FAIL"
    lines.append(f"overall: {verdict} ({n_pass}/{len(record['checks'])} checks)")
    return "\n".join(lines) + "\n"


def _execute(cfg: RunConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    results = run_checks(cfg)
    record = {
        "run_id": _run_id(cfg),
        "mode": cfg.mode,
        "profile": cfg["profile"],
        "seed": cfg["seed"],
        "config_hash": cfg.config_hash(),
        "checks": [r.to_json() for r in results],
        "pass": all(r.passed for r in results),
    }
    if cfg.mode == "simulate":
        _write_trajectory(_trajectory_rows(cfg), out_dir)
    (out_dir / "results.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )
    meta = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "numpy": np.__version__,
        "blas": _blas_info(),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "check_wall_s": {r.name: r.wall_s for r in results},
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    (out_dir / "report.txt").write_text(render_report(record))
    return record


def _report_mode(cfg: RunConfig) -> int:
    path = Path(cfg.out) / "results.json"
    if not path.is_file():
        print(f"no results found at {path}", file=sys.stderr)
        return EXIT_CONFIG
    record = json.loads(path.read_text())
    sys.stdout.write(render_report(record))
    return EXIT_PASS if record["pass"] else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.mode, args.config, _overrides_from_args(args))
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    if args.mode == "report":
        return _report_mode(cfg)
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        record = _execute(cfg, out_dir)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the contract maps these to 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(render_report(record))
    return EXIT_PASS if record["pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
