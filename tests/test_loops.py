"""A feedback loop is a plain DynSystem: its storage, its exogenous signals
and the maps it compiles, or falls back from compiling."""

import numpy as np
import pytest

from diffdiss import (
    QuadraticDifferentialStorage,
    Signal,
    SupplyRate,
    output_feedback,
    state_feedback,
)
from diffdiss.exprlang import compile_map, parse
from diffdiss.systems import DynSystem

from conftest import scalar_leaky
from test_interconnect import _expr_system


def _passive(sys, storage=None):
    sys.storage = storage or QuadraticDifferentialStorage.identity(sys.n)
    sys.supply = SupplyRate.identity(sys.q)
    return sys


def test_loops_are_plain_dyn_systems():
    s1, s2 = _passive(scalar_leaky()), _passive(scalar_leaky(2.0))
    k = lambda x: [x[0]]
    assert type(output_feedback(s1, s2)) is DynSystem
    assert type(state_feedback(s1, s2, k, k)) is DynSystem


def test_a_subsystem_projector_gives_a_block_projector():
    # system 1 stores only its first displacement; system 2 has no projector,
    # so the loop's projector is diag(P1, I) and S = (dx1^2 + dx3^2) / 2
    p1 = [[1.0, 0.0], [0.0, 0.0]]
    s1 = _passive(_expr_system(["-x1 + x2", "-x2"], [["1"], ["0"]], ["x1"]),
                  QuadraticDifferentialStorage(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
                                               p_fun=lambda x: p1))
    loop = output_feedback(s1, _passive(scalar_leaky()))
    x = [0.1, 0.2, 0.3]
    assert loop.storage.n == 3
    assert loop.storage.p_fun(x) == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert loop.storage.value(x, [1.0, 5.0, 2.0]) == 2.5
    batch = [np.full(4, v) for v in x]
    np.testing.assert_array_equal(loop.storage.value(batch, [np.full(4, 1.0), 5.0, 2.0]),
                                  np.full(4, 2.5))


def test_a_feedback_map_reading_past_its_states_keeps_the_closures():
    # k1 reads x2, but system 1 has one state: the compiled loop cannot stand
    # k1 in, so the loop runs the closures, which raise when called
    plant = lambda: _passive(_expr_system(["-x1"], [["1"]], ["x1"]))
    k2 = compile_map([parse("x1")], ["x1"])
    fits = state_feedback(plant(), plant(), compile_map([parse("x1")], ["x1"]), k2)
    assert hasattr(fits.f, "asts")
    loop = state_feedback(plant(), plant(), compile_map([parse("x1 + x2")], ["x1", "x2"]), k2)
    assert not hasattr(loop.f, "asts")
    for call in (loop.f, loop.h):
        with pytest.raises(IndexError):
            call([0.1, 0.2], {})


def test_exogenous_names_merge_only_when_they_are_one_signal():
    s1, s2 = (_expr_system(["-x1 + w"], [["1"]], ["x1"], exo=("w",)) for _ in range(2))
    assert output_feedback(s1, s2).exo == s1.exo == s2.exo  # one signal under one name
    s2.exo = {"w": Signal.constant(1.0)}
    with pytest.raises(ValueError, match="^exogenous signal name clash: 'w'$"):
        output_feedback(s1, s2)
