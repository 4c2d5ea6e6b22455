"""The library runs on numpy alone: scipy, hypothesis and pytest are
test-only dependencies, so importing the package and its command line must
not import them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import diffdiss

TEST_ONLY = ("scipy", "hypothesis", "pytest")


def test_library_imports_no_test_only_dependency():
    src = str(Path(diffdiss.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "import diffdiss, diffdiss.cli\n"
            f"print(json.dumps([m for m in {TEST_ONLY!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert json.loads(out.stdout) == []
