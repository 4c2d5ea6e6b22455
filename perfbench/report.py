"""Print every end-to-end and per-layer metric, with its unit, for every
workload: one untraced and one traced run of ``run.py`` per workload, each
in its own fresh interpreter, one at a time.

    python3 perfbench/report.py [--seed 1]

Each run measures for ``run_seconds`` from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` invocation; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} (trace {trace})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    results = {w: {t: run(w, args.seed, spec["run_seconds"], t) for t in (0, 1)}
               for w in names}

    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"{'metric':<{width}}  {'unit':<14}" + "".join(f"{w:>18}" for w in names))
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for m in metrics:
            row = "".join(f"{results[w][trace]['metrics'][m['name']]['value']:>18.6g}"
                          for w in names)
            print(f"{m['name']:<{width}}  {m['unit']:<14}{row}")
    failed = {w: sum(results[w][t]["failed"] for t in (0, 1)) for w in names}
    attempted = {w: sum(results[w][t]["attempted"] for t in (0, 1)) for w in names}
    print(f"{'fail_rate':<{width}}  {'ratio':<14}"
          + "".join(f"{failed[w] / attempted[w]:>18.6g}" for w in names))
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
