"""Check that the work counts repeat exactly: two traced runs with the same
seed must report identical per-operation counts on every workload.

    python3 perfbench/check_repeat.py [--seed 7]

Exits 0 when every count repeats and 1 otherwise.  Later changes may cite
these counts as counts, not as timings.
"""

import argparse
import sys

from report import run

import workloads

SECONDS = 2.0  # whole cycles are run, so the counts per operation do not depend on it
COUNTS = (
    "numerics.integrate.nfev",
    "numerics.integrate.steps",
    "exprlang.evaluate.calls",
    "numerics.jacobian.calls",
    "numerics.jvp.calls",
)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    ok = True
    for workload in sorted(workloads.WORKLOADS):
        first, second = (run(workload, args.seed, SECONDS, 1) for _ in range(2))
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok = ok and same
            print(f"{'ok  ' if same else 'DIFF'} {workload:<18} {name:<26} {a!r} {b!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
