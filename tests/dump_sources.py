"""Write every program source the golden cases, or the benchmark's
workloads, compile, for review.

    python tests/dump_sources.py DIR
    python tests/dump_sources.py --workloads SEED DIR

The first form runs each case of ``test_golden_bytes.CASES`` with a
recording ``exprlang._code`` and writes each distinct source that case
compiles to ``DIR/<case>/<sha256>.py``, named by the sha256 of its text: the
digests ``test_generated_sources_match_recorded_digests`` hashes into
``SOURCES``.  The second runs, through ``cli.main``, each operation of the
four workloads that ``perfbench/workloads.generate`` makes at ``SEED`` and
writes its sources to ``DIR/<workload>/<operation>/<sha256>.py``.  Run it on
two checkouts and ``diff -r`` the two directories to see which programs a
change generates differently.  The file name does not match ``test_*.py``,
so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE.parent / "perfbench")]

from diffdiss import cli, exprlang  # noqa: E402

import test_golden_bytes as golden  # noqa: E402
import workloads  # noqa: E402


def recorded(folder: Path, run):
    """``run()``, with each source ``exprlang._code`` returns written to
    ``folder``, named by its sha256."""
    code = exprlang._code
    folder.mkdir(parents=True)

    def recording(source, free):
        out = code(source, free)
        name = hashlib.sha256(out[0].encode()).hexdigest()
        (folder / f"{name}.py").write_text(out[0])
        return out

    exprlang._code = recording
    try:
        return run()
    finally:
        exprlang._code = code


def dump(root: Path) -> None:
    for case, (argv, config, expected) in sorted(golden.CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            recorded(root / case, lambda: golden._digests(Path(tmp), argv, config, expected))


def dump_workloads(root: Path, seed: int) -> None:
    for workload in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            for op in workloads.generate(workload, seed, tmp):
                argv = [op["command"], "--config", op["config_path"],
                        "--out", str(Path(tmp) / "out"), "--quiet"]
                code = recorded(root / workload / op["label"], lambda: cli.main(argv))
                if code != op["expect_code"]:
                    sys.exit(f"{op['label']} exited {code}, not {op['expect_code']}")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        dump(Path(sys.argv[1]))
    elif len(sys.argv) == 4 and sys.argv[1] == "--workloads":
        dump_workloads(Path(sys.argv[3]), int(sys.argv[2]))
    else:
        sys.exit(__doc__)
