"""The benchmark tracer patches functions by (module, attribute) name; every
name it lists must exist on ``diffdiss`` so a refactor cannot silently leave
a traced layer unmeasured."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
_TARGETS = sorted({(mod, attr) for mod, attr, *_ in _tracing.STORED + _tracing.FOLDED})


@pytest.mark.parametrize("module, attr", _TARGETS)
def test_target_resolves(module, attr):
    target = getattr(importlib.import_module(f"diffdiss.{module}"), attr, None)
    assert callable(target), f"diffdiss.{module}.{attr} is traced but does not exist"
