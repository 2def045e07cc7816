"""Self-check of the benchmark: exact counters repeat exactly between runs.

    python3 perfbench/selfcheck.py

Runs the traced run of each of the four workloads twice with one seed and
compares the counters that must not move between two runs of the same
code. Exits with status 1 if any run is not correct or any exact counter
differs. A results.json digest that differs between runs is printed as a
finding about the byte-identity claim; it does not fail the check. Takes
about three minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7
WORKLOADS = ("orbit", "oracle", "lattice", "algebra")
EXACT = (
    "classical.rk4_steps",
    "checks.oracle_states",
    "qfw.eigh_calls",
    "qfw.eigh_n3",
    "opalg.memo_words.case_i",
    "opalg.memo_words.case_ii",
    "opalg.dropped_derivatives.case_i",
    "opalg.dropped_derivatives.case_ii",
    "opalg.residual_terms.case_i",
    "opalg.residual_terms.case_ii",
    "env.blas_threads",
)


def traced_run(workload, seed):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=300).stdout
    info, result = (json.loads(line) for line in out.splitlines()[-2:])
    return info["perfbench"], result


def main():
    ok = True
    for wl in WORKLOADS:
        (info1, res1), (info2, res2) = traced_run(wl, SEED), traced_run(wl, SEED)
        for res, info in ((res1, info1), (res2, info2)):
            if not res["correct"]:
                ok = False
                print(f"{wl}: run not correct: {info['failed_verdicts'] + info['counter_problems']}")
        for name in EXACT:
            a, b = res1["metrics"][name]["value"], res2["metrics"][name]["value"]
            status = "same" if a == b else "DIFFERS"
            ok = ok and a == b
            print(f"{wl}: {name} {a} / {b} {status}")
        digests = set(info1["results_sha256"]) | set(info2["results_sha256"])
        if len(digests) > 1:
            print(f"{wl}: finding: results.json differs between runs of the same seed: {sorted(digests)}")
        elif digests:
            print(f"{wl}: results.json byte-identical over 4 iterations in 2 runs: {digests.pop()}")
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
