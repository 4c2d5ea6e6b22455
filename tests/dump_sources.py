"""Write every program source the golden cases compile, for review.

    python tests/dump_sources.py DIR

runs each case of ``test_golden_bytes.CASES`` with a recording
``exprlang._code`` and writes each distinct source that case compiles to
``DIR/<case>/<sha256>.py``, named by the sha256 of its text: the digests
``test_generated_sources_match_recorded_digests`` hashes into ``SOURCES``.
Run it on two checkouts and ``diff -r`` the two directories to see which
programs a change generates differently.  The file name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from diffdiss import exprlang  # noqa: E402

import test_golden_bytes as golden  # noqa: E402


def dump(root: Path) -> None:
    code = exprlang._code
    for case, (argv, config, expected) in sorted(golden.CASES.items()):
        folder = root / case
        folder.mkdir(parents=True)

        def recording(source, free, folder=folder):
            out = code(source, free)
            name = hashlib.sha256(out[0].encode()).hexdigest()
            (folder / f"{name}.py").write_text(out[0])
            return out

        exprlang._code = recording
        try:
            with tempfile.TemporaryDirectory() as tmp:
                golden._digests(Path(tmp), argv, config, expected)
        finally:
            exprlang._code = code


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    dump(Path(sys.argv[1]))
