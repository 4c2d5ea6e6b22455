"""The library runs on numpy alone: scipy, hypothesis and pytest are
test-only dependencies, so importing the package and its command line must
not import them.  Seeded draws come from ``numerics.uniform_draws``, so no
command imports numpy.random either, and only ``numerics`` takes
eigenvalues from numpy.linalg."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import diffdiss

TEST_ONLY = ("scipy", "hypothesis", "pytest")
SRC = str(Path(diffdiss.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter importing ``diffdiss`` from this
    checkout; return its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_library_imports_no_test_only_dependency():
    code = ("import json, sys\n"
            "import diffdiss, diffdiss.cli\n"
            f"print(json.dumps([m for m in {TEST_ONLY!r} if m in sys.modules]))\n")
    assert json.loads(_fresh(code)) == []


SCALAR = {"n": 1, "q": 1, "f": ["-x1"], "g": [["1"]], "h": ["x1"]}
IDENTITY = {"storage": {"M": "identity"}, "supply": {"W": "identity"}}
SEEDED_COMMANDS = {
    # converge runs finsler_length's spot checks
    "converge": dict(IDENTITY, system=SCALAR, supply={"W": "identity", "strictness": "output"},
                     run={"x0": [1.0], "x0_b": [2.0], "t_final": 6.0, "tol": 1e-2}),
    # a state-coupled loop runs check_equalization's seeded pairs
    "interconnect": dict(IDENTITY, system=SCALAR,
                         run={"x0": [0.5, -0.2], "t_final": 0.1, "seed": 3},
                         interconnect={"coupling": "state", "system2": SCALAR,
                                       "storage2": {"M": "identity"},
                                       "supply2": {"W": "identity"},
                                       "k1": ["x1"], "k2": ["x1"]}),
    "certify-uc": dict(IDENTITY, system=SCALAR, pi=[[1.0]],
                       grid={"lo": [-1.0], "hi": [1.0], "counts": [3], "extra_random": 4,
                             "seed": 5}),
}


def test_seeded_commands_do_not_import_numpy_random(tmp_path):
    runs = []
    for command, cfg in SEEDED_COMMANDS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        runs.append([command, "--config", str(path)])
    runs.append(["demo", "rc", "--t-final", "0.2"])
    code = ("import json, sys\n"
            "from diffdiss import cli\n"
            f"codes = [cli.main(argv + ['--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
            f"         for argv in {runs!r}]\n"
            "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n")
    assert json.loads(_fresh(code)) == [[0, 0, 0, 0], False]


def test_eigenvalues_are_taken_only_in_numerics():
    # every margin goes through numerics' eigenvalue path, with its nan rule
    # for non-finite matrices and its LAPACK steps for 2 x 2 stacks
    calls = re.compile(r"linalg\s*\.\s*eigvalsh|import.*\beigvalsh\b")
    found = [f"{path.name}:{k}"
             for path in sorted(Path(diffdiss.__file__).resolve().parent.rglob("*.py"))
             if path.name != "numerics.py"
             for k, line in enumerate(path.read_text().splitlines(), 1) if calls.search(line)]
    assert found == []
