"""Benchmark of the diffdiss verification pipeline, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The workload's operations (see
``workloads.py``) are CLI subcommands run in-process through
``diffdiss.cli.main`` on seeded configs: a closed loop with one client that
repeats the whole operation cycle until ``--seconds`` have passed, so every
run holds the same mix.  Every operation's exit code, JSON report and CSV
trace are checked.  Times are scaled to a reference core speed measured
while each operation runs (see calibrate.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics, per traced
operation, plus the tracing overhead.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy of the result (and, when
traced, every span) is written to ``.perfbench_results/``; CLI outputs go to
``.perfbench_work/``, which is removed on exit.
"""

import os

# Pin native thread pools before numpy is imported, here and in children.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import diffdiss from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "diffdiss", "__init__.py")):
        raise SystemExit(f"error: no diffdiss sources under {SRC}")
    sys.path.insert(0, SRC)
    import diffdiss
    from diffdiss import cli, dissipativity, examples, exprlang, incremental, interconnect, systems

    if not os.path.realpath(diffdiss.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: diffdiss was imported from {diffdiss.__file__}, not {SRC}")
    return {"cli": cli, "dissipativity": dissipativity, "examples": examples,
            "exprlang": exprlang, "incremental": incremental, "interconnect": interconnect,
            "systems": systems}


def _child_seconds(argv: list) -> float:
    """Wall time from starting ``argv`` to the CLOCK_MONOTONIC reading it
    prints last (the clock is shared by all processes)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - t0


def _setup_seconds(workload: str, seed: int, work: str) -> list:
    """Set-up times, one fresh interpreter at a time: importing diffdiss and
    generating the inputs, each between two runs of the import yardstick
    (see calibrate.py).  Returns (wall s, scaled s) per interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    yardstick = [sys.executable, "-c", calibrate.IMPORT_PROBE]
    before = _child_seconds(yardstick)
    times = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(work, f"setup-{k}")
        os.makedirs(out)
        wall = _child_seconds([sys.executable, probe, workload, str(seed), out])
        after = _child_seconds(yardstick)
        times.append((wall, wall * calibrate.REFERENCE_IMPORT_S / (0.5 * (before + after))))
        before = after
        shutil.rmtree(out)
    return times


class Loop:
    """Runs operations through ``cli.main`` and records latency and failures."""

    def __init__(self, cli, work: str):
        self.cli = cli
        self.out = os.path.join(work, "out")
        self.attempted = 0
        self.failures = []

    def run(self, op: dict, tracer=None) -> tuple[float, float]:
        """Runs ``op``; returns its wall time and its time scaled to the
        reference core speed (see calibrate.py)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [op["command"], "--config", op["config_path"], "--out", self.out, "--quiet"]
        gc.collect()
        code, error = None, None
        with calibrate.Sampler(None if tracer is None else tracer.exclude) as sampler:
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.span("cli.main", self.cli.main, argv)
            except SystemExit as exc:  # argparse rejects the argument list
                error = f"SystemExit({exc.code})"
            except Exception as exc:  # counted as a failed operation, never fatal
                error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is None:
            try:
                workloads.check(op, code, self.out)
            except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op['label']}: {error}")
        return sampler.elapsed, sampler.scaled


def _run_cycles(loop, ops, seconds, modules, traced):
    """Whole cycles until ``seconds`` have passed.  Traced runs alternate an
    untraced and a traced cycle, so both see the same machine state.
    Returns (label, wall s, scaled s) per untraced and traced op."""
    tracer = tracing.Tracer() if traced else None
    plain, with_trace = [], []
    loop.run(ops[0])  # warm-up: first-call costs, not counted
    start = time.perf_counter()
    while True:
        plain.extend((op["label"], *loop.run(op)) for op in ops)
        if traced:
            saved = tracing.install(tracer, modules)
            try:
                for op in ops:
                    tracer.op_id += 1
                    with_trace.append((op["label"], *loop.run(op, tracer)))
            finally:
                tracing.uninstall(saved)
        if time.perf_counter() - start >= seconds:
            return plain, with_trace, tracer


def _tail(latencies):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    modules = _import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup = _setup_seconds(args.workload, args.seed, work)
        config_dir = os.path.join(work, "configs")
        os.makedirs(config_dir)
        ops = workloads.generate(args.workload, args.seed, config_dir)
        loop = Loop(modules["cli"], work)
        plain, with_trace, tracer = _run_cycles(loop, ops, args.seconds, modules, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    failed = len(loop.failures)
    latencies = [s[2] for s in plain]
    tail, tail_pct, n = _tail(latencies)
    info = {
        "samples": n,
        "tail_percentile": tail_pct,
        "fail_rate": failed / loop.attempted,
        "wall_op_ms_p50": statistics.median(wall for _, wall, _ in plain) * 1e3,
        "wall_setup_s": statistics.median(wall for wall, _ in setup),
    }
    if args.trace:
        p50_plain = statistics.median(latencies) * 1e3
        p50_traced = statistics.median(s[2] for s in with_trace) * 1e3
        time_scale = sum(s[2] for s in with_trace) / sum(s[1] for s in with_trace)
        layers = tracing.layer_metrics(tracer, len(with_trace), time_scale)
        metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
        metrics["trace.op_ms_p50_traced"] = _metric(p50_traced, "ms")
        metrics["trace.op_ms_p50_untraced"] = _metric(p50_plain, "ms")
        metrics["trace.overhead_ms"] = _metric(p50_traced - p50_plain, "ms")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "ops_per_s": _metric(n / sum(latencies), "1/s"),
            "op_ms_p50": _metric(statistics.median(latencies) * 1e3, "ms"),
            "op_ms_tail": _metric(tail * 1e3, "ms"),
            "setup_s": _metric(statistics.median(scaled for _, scaled in setup), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
        }
        wanted = spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise SystemExit(f"error: metrics {got} do not match BENCHMARK.json {expected}")

    for failure in loop.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} ops attempted, {failed} failed")
    print(f"  {'fail_rate':<52} {info['fail_rate']:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"  op_ms_tail is p{tail_pct:.1f} of {n} untraced samples ({TAIL_BEYOND} beyond it)")
    print(f"  times are scaled to the reference core (calibrate.py); unscaled: "
          f"op_ms_p50 {info['wall_op_ms_p50']:.1f} ms, setup_s {info['wall_setup_s']:.4f} s")
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  info=info, failures=loop.failures,
                  samples={"untraced": plain, "traced": with_trace,
                           "setup": setup})
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
