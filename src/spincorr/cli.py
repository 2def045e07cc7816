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
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from operator import itemgetter
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


# the flags that set a config key, in --help order: flag -> (config key, argparse options). A flag's
# value stays text: load_config parses it as the same key in a config file, so a bad flag is listed
# with every other problem
_KEY_FLAGS = {
    "--out": ("out", {"metavar": "DIR", "help": "artifact directory"}),
    "--seed": ("seed", {"metavar": "U64", "help": "random seed"}),
    "--profile": ("profile", {"metavar": "{" + ",".join(PROFILES) + "}", "help": "check profile"}),
    "--order": ("order", {"metavar": "N", "help": "symbolic expansion order"}),
    "--lambda-list": ("amplitudes", {"metavar": "CSV", "help": "comma-separated field amplitudes"}),
}


def build_parser() -> argparse.ArgumentParser:
    # flags are exact names: a prefix such as --lambda is refused, not read as --lambda-list
    parser = argparse.ArgumentParser(
        prog="spincorr", description="relativistic spin dynamics and lattice transform verification", allow_abbrev=False
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
        sp = sub.add_parser(mode, help=descriptions[mode], allow_abbrev=False)
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for flag, (key, options) in _KEY_FLAGS.items():
            sp.add_argument(flag, dest=key, **options)
    return parser


def _overrides_from_args(args) -> dict:
    # a flag not given is None, which load_config skips
    return {key: getattr(args, key) for key, _ in _KEY_FLAGS.values()}


def _run_id(cfg: RunConfig) -> str:
    tag = f"{cfg.config_hash()}:{cfg.mode}:{cfg['seed']}:{cfg['profile']}"
    return hashlib.sha256(tag.encode()).hexdigest()[:12]


# one trajectory.json record as json.dumps(records, sort_keys=True, indent=2) writes it: keys sorted,
# the indentation written out, and %r of a float, the form json writes
_RECORD = (
    '  {\n    "h_drift": %r,\n    "h_total": %r,\n    "p": [\n      %r,\n      %r,\n      %r\n    ],\n'
    '    "s": [\n      %r,\n      %r,\n      %r\n    ],\n    "s_drift": %r,\n    "s_mag": %r,\n    "t": %r,\n'
    '    "x": [\n      %r,\n      %r,\n      %r\n    ]\n  }'
)
# one trajectory.csv row as csv.writer writes it: str of a float, which is its repr, and \r\n at the end
_CSV_HEADER = "t,x1,x2,x3,p1,p2,p3,s1,s2,s3,h_total,s_mag,h_drift,s_drift\r\n"
_CSV_ROW = ",".join(["%r"] * 14) + "\r\n"
# a trajectory.csv row's values in the order _RECORD takes its keys: h_drift, h_total, p, s, s_drift, s_mag, t, x
_RECORD_VALUES = itemgetter(12, 10, 4, 5, 6, 7, 8, 9, 13, 11, 0, 1, 2, 3)


def _write_trajectory(traj, out_dir: Path):
    """trajectory.json, one record per row, and trajectory.csv, from the Trajectory's columns.

    h_drift is relative to |H| at the first row, which load_config refuses to be zero.
    trajectory.json is byte-identical to json.dumps(records, sort_keys=True, indent=2) + "\n", and
    trajectory.csv to what csv.writer writes for the header and the rows.
    """
    h = traj.h_total
    h_drift = (h - h[0]) / abs(h[0])
    table = np.column_stack([traj.t, traj.x, traj.p, traj.s, h, traj.s_mag, h_drift, traj.spin_drift])
    # NaN and Infinity are not JSON, so a non-finite row raises, as json.dumps(..., allow_nan=False) does
    if not np.isfinite(table).all():
        raise ValueError("Out of range float values are not JSON compliant")
    rows = table.tolist()
    (out_dir / "trajectory.json").write_text("[\n" + ",\n".join(_RECORD % _RECORD_VALUES(r) for r in rows) + "\n]\n")
    (out_dir / "trajectory.csv").write_text(_CSV_HEADER + "".join(_CSV_ROW % tuple(r) for r in rows), newline="")


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
        traj = integrate(cfg.state0(), cfg.field_model(), cfg.particle(), cfg.integrator(), cfg["duration"])
        _write_trajectory(traj, out_dir)
    # the checks write a non-finite value as null, so NaN and Infinity never reach the file
    (out_dir / "results.json").write_text(
        json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _read_results(cfg: RunConfig) -> tuple[dict, str]:
    """The record of a previous run and its report; a missing or malformed record is a ConfigError."""
    path = Path(cfg.out) / "results.json"
    if not path.is_file():
        raise ConfigError([f"no results found at {path}"])
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        return record, render_report(record)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError([f"{path} is not a results record: {type(exc).__name__}: {exc}"]) from None


def main(argv=None) -> int:
    # "--flag value" as "--flag=value" for each flag with a value, so the value may start with "-"
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        joined += [joined.pop() + "=" + arg] if joined and joined[-1] in ("--config", *_KEY_FLAGS) else [arg]
    args = build_parser().parse_args(joined)
    try:
        cfg = load_config(args.mode, args.config, _overrides_from_args(args))
        if args.mode == "report":
            record, report = _read_results(cfg)
        else:
            out_dir = Path(cfg.out)
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError([f"out: cannot make the artifact directory {out_dir}: {exc.strerror}"]) from None
            record = _execute(cfg, out_dir)
            report = render_report(record)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the contract maps these to 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report)
    return EXIT_PASS if record["pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
