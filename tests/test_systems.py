import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss import (
    DynSystem,
    Rk4,
    Rk45,
    Signal,
    SignalError,
    lift,
    rc_circuit,
    simulate,
    simulate_ensemble,
    simulate_prolonged,
)
from diffdiss.examples import MotorParams, induction_motor_virtual, lti
import diffdiss.systems as systems
from diffdiss.numerics import FLOAT_ERRORS, DualScalar, IntegrationError, sin, value_part
from diffdiss import exprlang, numerics
from diffdiss.exprlang import EvalError, compile_map, parse
from diffdiss.interconnect import state_feedback
from diffdiss.systems import batch_rows

from conftest import rotation, scalar_cubic, scalar_leaky


class TestSignal:
    def test_constant_and_zero(self):
        assert Signal.constant(2.5).value(10.0) == 2.5
        assert Signal.zero().value(3.0) == 0.0
        assert Signal.constant(2.5).deriv(1.0) == 0.0

    def test_analytic_derivatives(self):
        from diffdiss.numerics import sin

        s = Signal.analytic(lambda t: sin(2.0 * t))
        assert s.value(0.3) == pytest.approx(math.sin(0.6))
        assert s.deriv(0.3) == pytest.approx(2.0 * math.cos(0.6))
        assert s.deriv2(0.3) == pytest.approx(-4.0 * math.sin(0.6))

    def test_expr_signal(self):
        s = Signal.from_expr("t^2 + 1")
        assert s.value(3.0) == 10.0
        assert s.deriv(3.0) == pytest.approx(6.0)

    def test_derivatives_accept_dual_time(self):
        assert Signal.constant(2.5).deriv(DualScalar(0.3, 1.0)) == 0.0
        s = Signal.from_expr("t^3")
        d = s.deriv(DualScalar(2.0, 1.0))
        assert (d.value, d.deriv) == pytest.approx((12.0, 12.0))
        assert s.deriv2(2.0) == pytest.approx(12.0)

    def test_only_sampled_signals_are_not_smooth(self):
        s = Signal.sampled([0.0, 1.0], [0.0, 2.0])
        assert not s.smooth
        assert Signal.zero().smooth and Signal.from_expr("t").smooth
        with pytest.raises(SignalError):
            s.deriv2(0.5)

    def test_expr_signal_rejects_other_variables(self):
        with pytest.raises(SignalError):
            Signal.from_expr("t + x")

    def test_sampled_interpolates_and_guards_range(self):
        s = Signal.sampled([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert s.value(0.5) == pytest.approx(1.0)
        with pytest.raises(SignalError):
            s.value(3.0)
        with pytest.raises(SignalError):
            s.deriv(0.5)


class TestLift:
    def test_lti_lift_is_same_matrices(self, rng):
        a = [[-1.0, 2.0], [0.0, -3.0]]
        b = [[1.0], [0.5]]
        c = [[1.0, 1.0]]
        sys = lti(a, b, c)
        lifted = lift(sys)
        # displacement block evolves by exactly A dx + B du, output by C dx
        for _ in range(10):
            x = rng.standard_normal(2).tolist()
            dx = rng.standard_normal(2).tolist()
            u = rng.standard_normal(1).tolist()
            du = rng.standard_normal(1).tolist()
            r = lifted.rhs(0.0, x + dx, u + du)
            want = np.asarray(a) @ dx + np.asarray(b) @ du
            assert np.allclose(r[2:], want, atol=1e-13)
            y = lifted.output(0.0, x + dx, u + du)
            assert y[1] == pytest.approx(float(np.asarray(c)[0] @ dx), abs=1e-13)

    def test_scalar_cubic_lift(self):
        sys = scalar_cubic()
        lifted = lift(sys)
        r = lifted.rhs(0.0, [2.0, 1.0], [0.0, 0.5])
        # d(dx)/dt = -3 x^2 dx + du
        assert r[1] == pytest.approx(-12.0 + 0.5)

    def test_rc_lift_reproduces_capacitor_displacement_law(self):
        rc = rc_circuit()
        lifted = lift(rc.system)
        q, dq, i_in, di_in = 0.4, 0.7, 0.2, -0.1
        r = lifted.rhs(0.0, [q, dq], [i_in, di_in])
        dmu = 1.0 + 3.0 * q * q
        # d(dq)/dt equals the capacitor-current displacement dI - dmu dq / R
        assert r[1] == pytest.approx(di_in - dmu * dq / rc.params.R, abs=1e-14)
        y = lifted.output(0.0, [q, dq], [i_in, di_in])
        assert y[1] == pytest.approx(dmu * dq, abs=1e-14)  # dV = mu'(q) dq

    def test_lift_records_base(self):
        sys = scalar_cubic()
        lifted = lift(sys)
        assert lifted.base is sys
        relift = lift(lifted.base)
        assert relift.rhs(0.0, [1.0, 2.0], [0.0, 0.0]) == pytest.approx(
            lifted.rhs(0.0, [1.0, 2.0], [0.0, 0.0])
        )

    def test_exogenous_signals_are_frozen_coefficients(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [-e["w"] * x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
            exo={"w": Signal.constant(3.0)},
        )
        lifted = lift(sys)
        r = lifted.rhs(0.0, [1.0, 1.0], [0.0, 0.0])
        assert r[1] == pytest.approx(-3.0)  # no displacement of w enters

    def test_each_lifted_map_evaluates_its_base_map_once(self):
        calls = {"f": 0, "g": 0, "h": 0, "i": 0}

        def counted(name, fun):
            def wrapped(x, e):
                calls[name] += 1
                return fun(x, e)

            return wrapped

        sys = DynSystem(
            2, 1,
            counted("f", lambda x, e: [x[1], -x[0] - x[1] ** 3]),
            counted("g", lambda x, e: [[0.0], [1.0 + x[0] * x[0]]]),
            counted("h", lambda x, e: [x[1]]),
            i=counted("i", lambda x, e: [[x[0]]]),
        )
        lifted = lift(sys)
        X = [0.3, -0.2, 1.0, 0.5]
        for name in ("f", "g", "h", "i"):
            before = dict(calls)
            getattr(lifted, name)(X, {})
            assert calls[name] == before[name] + 1
            assert sum(calls.values()) == sum(before.values()) + 1

    def test_lifted_values_match_base_maps_bitwise(self):
        rc = rc_circuit()
        lifted = lift(rc.system)
        for q, dq in ((0.4, 0.7), (-1.3, 0.25), (1e-3, -2.0)):
            assert lifted.f([q, dq], {})[0] == rc.system.f([q], {})[0]
            assert lifted.h([q, dq], {})[0] == rc.system.h([q], {})[0]
            assert lifted.g([q, dq], {}) == [[1.0, 0.0], [0.0, 1.0]]

    def test_rhs_with_matches_rhs(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [-e["w"] * x[0]],
            lambda x, e: [[2.0 + x[0]]],
            lambda x, e: [x[0]],
            exo={"w": Signal.from_expr("1 + t")},
        )
        assert sys.rhs(0.5, [0.3], [0.7]) == sys.rhs_with([0.3], {"w": 1.5}, [0.7])

    def test_short_matrix_rows_raise(self):
        """A g or i row with fewer than q entries raises, naming the system,
        instead of dropping the inputs past it."""
        sys = DynSystem(1, 2, lambda x, e: [x[0]], lambda x, e: [[1.0]],
                        lambda x, e: [x[0], 0.0], i=lambda x, e: [[1.0], [0.0]], name="short")
        with pytest.raises(ValueError, match="system 'short': each g row must have 2 entries"):
            sys.rhs_with([0.5], {}, [1.0, 100.0])
        with pytest.raises(ValueError, match="system 'short': each i row must have 2 entries"):
            sys.output_with([0.5], {}, [1.0, 100.0])
        with pytest.raises(ValueError, match="each g row must have 4 entries"):
            lift(sys).rhs_with([0.5, 1.0], {}, [1.0, 100.0, 0.0, 0.0])

    def test_full_matrix_rows_on_a_batch(self):
        sys = DynSystem(1, 2, lambda x, e: [x[0]], lambda x, e: [[1.0, x[0]]],
                        lambda x, e: [x[0], 0.0], i=lambda x, e: [[1.0, 0.0], [0.0, x[0]]])
        x = [np.array([0.5, 2.0])]
        u = [np.array([1.0, 3.0]), np.array([100.0, 0.5])]
        assert np.array_equal(sys.rhs_with(x, {}, u)[0], [0.5 + 1.0 + 50.0, 2.0 + 3.0 + 1.0])
        y = sys.output_with(x, {}, u)
        assert np.array_equal(y[0], [1.5, 5.0]) and np.array_equal(y[1], [50.0, 1.0])


def _config_system():
    """An expression system whose maps use every builtin, ``/`` and both
    kinds of ``^``, with an exogenous signal and a throughput."""
    from diffdiss.cli import _build_expr_system

    spec = {
        "n": 2, "q": 2,
        "f": ["sin(x1) * cos(x2) - tan(x1 / 4) + w * x2",
              "exp(-x1^2) - log(2 + x2^2) + sqrt(1 + x1^2)^1.5 - x2^3 / (1 + x1^2)"],
        "g": [["1 + abs(x1)", "tanh(x2)"], ["atan2(x2, x1 + 3)", "min(x1, x2) + 2"]],
        "h": ["max(x1, w) + x2", "atan2(x1, 2)"],
        "i": [["0.5", "0"], ["min(x2, 0.1)", "1 + abs(x2)"]],
        "exo": {"w": {"kind": "expr", "expr": "sin(3*t)"}},
    }
    return _build_expr_system(spec, "/system")


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestBatchLift:
    """One call of a lifted map over a batch of points (1-d arrays per state
    entry, exo values and inputs per point or shared) equals the point by
    point evaluation bit for bit."""

    @pytest.mark.parametrize("name", ["rc", "motor", "lti", "config"])
    def test_batch_matches_pointwise(self, name, rng):
        sys = {
            "rc": lambda: rc_circuit().system,
            "motor": lambda: induction_motor_virtual().system,
            "lti": lambda: lti([[-1.0, 2.0], [-3.0, -0.5]], [[1.0], [0.5]], [[1.0, -1.0]],
                               [[0.25]]),
            "config": _config_system,
        }[name]()
        lifted = lift(sys)
        B = 7
        X = rng.uniform(-1.5, 1.5, size=(B, 2 * sys.n))
        U = rng.uniform(-1.0, 1.0, size=(B, 2 * sys.q))
        times = rng.uniform(0.0, 2.0, size=B)
        exo = [lifted.exo_at(t) for t in times]
        per_point_exo = {k: np.array([ek[k] for ek in exo]) for k in lifted.exo}
        cols = list(X.T)
        for E, U_b, e_at, u_at in (
            # the post pass: exo values and inputs differ per point
            (per_point_exo, list(U.T), lambda k: exo[k], lambda k: U[k].tolist()),
            # the homotopy RHS: one time, shared exo values and inputs
            (exo[0], U[0].tolist(), lambda k: exo[0], lambda k: U[0].tolist()),
        ):
            with np.errstate(**FLOAT_ERRORS):
                rhs = batch_rows(lifted.rhs_with(cols, E, U_b), B)
                out = batch_rows(lifted.output_with(cols, E, U_b), B)
            for k in range(B):
                x = X[k].tolist()
                assert np.array_equal(_bits(rhs[k]), _bits(lifted.rhs_with(x, e_at(k), u_at(k))))
                assert np.array_equal(_bits(out[k]),
                                      _bits(lifted.output_with(x, e_at(k), u_at(k))))

    def test_branching_map_rejects_a_batch(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [x[0] if x[0] > 0 else -x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
        )
        lifted = lift(sys)
        assert lifted.f([0.5, 1.0], {}) == [0.5, 1.0]
        with pytest.raises(TypeError, match="batched value"):
            lifted.f([np.array([0.5, -0.5]), np.array([1.0, 1.0])], {})


def _tangent_free_config_system():
    """An expression system whose maps all have static dual kinds (no min/max
    of a dual and a plain operand), with an exogenous signal and a throughput."""
    from diffdiss.cli import _build_expr_system

    spec = {
        "n": 2, "q": 2,
        "f": ["sin(x1) * cos(x2) - tan(x1 / 4) + w * x2",
              "exp(-x1^2) - log(2 + x2^2) + sqrt(1 + x1^2)^1.5 - x2^3 / (1 + x1^2)"],
        "g": [["1 + abs(x1)", "tanh(x2)"], ["atan2(x2, x1 + 3)", "min(x1, x2) + 2"]],
        "h": ["x1 / (2 + w) + x2", "atan2(x1, 2)"],
        "i": [["0.5", "0"], ["x2^-2", "1 + abs(x2)"]],
        "exo": {"w": {"kind": "expr", "expr": "sin(3*t)"}},
    }
    return _build_expr_system(spec, "/system")


def _python_maps(sys):
    """The same system with each map wrapped in a Python callable, which the
    lift evaluates through a dual pass."""
    wrap = lambda fun: None if fun is None else (lambda x, e: fun(x, e))
    return DynSystem(sys.n, sys.q, wrap(sys.f), wrap(sys.g), wrap(sys.h), i=wrap(sys.i),
                     exo=sys.exo, name=sys.name)


class TestTangentLift:
    """Expression maps are lifted through their compiled tangents; the result
    is bit for bit the dual lift of the same maps."""

    SYSTEMS = {"rc": lambda: rc_circuit().system, "config": _tangent_free_config_system,
               "config-min-max": _config_system}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_tangent_lift_equals_dual_lift(self, name, rng):
        sys = self.SYSTEMS[name]()
        python = _python_maps(sys)
        m = 4
        x0s = rng.uniform(-0.8, 0.8, size=(m, sys.n)) + 1.5 * (name != "rc")
        dx0s = rng.uniform(-1.0, 1.0, size=(m, sys.n))
        u = [Signal.from_expr(f"{k + 1}*sin(t)") for k in range(sys.q)]
        du = [Signal.from_expr(f"cos({k + 2}*t)") for k in range(sys.q)]
        for x0, dx0 in ((x0s, dx0s), (x0s[:1], dx0s[:1])):
            got = simulate_ensemble(sys, x0, dx0, u=u, du=du, t_final=0.2, stepper=Rk4(1e-2))
            want = simulate_ensemble(python, x0, dx0, u=u, du=du, t_final=0.2,
                                     stepper=Rk4(1e-2))
            for a, b in zip(got, want):
                _assert_same_run(a, b)

    @pytest.mark.parametrize("name", ["rc", "config"])
    def test_lift_runs_no_dual_pass(self, name, rng, monkeypatch):
        import diffdiss.systems

        def refuse(*args):
            raise AssertionError("systems.seed was called")

        monkeypatch.setattr(diffdiss.systems, "seed", refuse)
        sys = self.SYSTEMS[name]()
        x0s = rng.uniform(1.0, 1.5, size=(3, sys.n))
        u = [Signal.from_expr("sin(t)")] * sys.q
        simulate_ensemble(sys, x0s, x0s - 1.0, u=u, t_final=0.05, stepper=Rk4(1e-2))
        simulate_prolonged(sys, x0s[0], x0s[1], u=u, t_final=0.05, stepper=Rk4(1e-2))


def _entry_bits(out) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in out]


def _fused(lifted) -> bool:
    """Whether ``lifted.rhs_with`` is one generated program of f and g."""
    return hasattr(lifted.rhs_with, "source")


def _expr_system(f, g, h="x1"):
    from diffdiss.cli import _build_expr_system

    return _build_expr_system({"n": len(f), "q": len(g[0]), "f": f, "g": g,
                               "h": [h] * len(g[0])}, "/system")


class TestFusedLift:
    """A lift of compiled f and g runs one generated program for f + g·u and
    its tangent; it gives what the lift of the same maps wrapped in Python
    (one dual pass each) gives, bit for bit, errors included."""

    @pytest.mark.parametrize("name", ["rc", "config", "output-i1", "state-i12",
                                      "state-two-port"])
    def test_equals_the_dual_lift_bit_for_bit(self, name, rng):
        from test_interconnect import _LOOPS  # loops with throughput and exo signals

        systems = {"rc": lambda: rc_circuit().system, "config": _tangent_free_config_system}
        sys = systems.get(name, lambda: _LOOPS[name]()[0])()
        lifted, reference = lift(sys), lift(_python_maps(sys))
        assert _fused(lifted) and not _fused(reference)
        n, q = sys.n, sys.q
        names = sorted(sys.exo)
        for m in (None, 1, 4):  # floats, then batches of one and of several members
            shape = (2 * n,) if m is None else (2 * n, m)
            X = list(rng.uniform(0.6, 1.4, shape))
            U = list(rng.uniform(-1.0, 1.0, (2 * q,) if m is None else (2 * q, m)))
            U[q] = 0.0  # a zero du, shared by all members
            e = {w: 0.3 if m is None else rng.uniform(0.0, 1.0, m) for w in names}
            if m is None:
                X, U = [float(v) for v in X], [float(v) for v in U]
            with np.errstate(**FLOAT_ERRORS):
                got = lifted.rhs_with(X, e, U)
                want = reference.rhs_with(X, e, U)
            assert _entry_bits(got) == _entry_bits(want)

    def test_zero_terms_of_dot_are_kept(self):
        # the value rows multiply du by g's 0.0 padding: 0.0 * inf is nan
        sys = _tangent_free_config_system()
        lifted, reference = lift(sys), lift(_python_maps(sys))
        X, U = [1.2, 0.8, 0.5, -0.5], [0.5, -0.25, math.inf, -0.0]
        got = lifted.rhs_with(X, {"w": 0.3}, U)
        assert math.isnan(got[0])
        assert _entry_bits(got) == _entry_bits(reference.rhs_with(X, {"w": 0.3}, U))

    def test_trajectories_equal_the_dual_lift(self, rng):
        sys = _tangent_free_config_system()
        x0s = rng.uniform(1.0, 1.5, size=(3, sys.n))
        u = [Signal.from_expr("sin(t)"), Signal.from_expr("0.5*cos(t)")]
        for x0 in (x0s, x0s[:1]):
            got = simulate_ensemble(sys, x0, x0 - 1.0, u=u, du=u[::-1], t_final=0.1,
                                    stepper=Rk4(1e-2))
            want = simulate_ensemble(_python_maps(sys), x0, x0 - 1.0, u=u, du=u[::-1],
                                     t_final=0.1, stepper=Rk4(1e-2))
            for a, b in zip(got, want):
                _assert_same_run(a, b)

    @pytest.mark.parametrize("f, g", [
        (["min(x1, 1)"], [["1"]]),
        (["-x1"], [["x1^0"]]),
    ])
    def test_mixed_kinds_are_fused(self, f, g):
        sys = _expr_system(f, g)
        lifted = lift(sys)
        assert _fused(lifted)
        X, U = [0.5, 1.0], [0.3, 0.2]
        want = lift(_python_maps(sys)).rhs_with(X, {}, U)
        assert _entry_bits(lifted.rhs_with(X, {}, U)) == _entry_bits(want)

    def test_equal_rows_of_g_share_their_dot_chains(self, rng):
        # the motor's g has two equal rows: their g·u chains are one chain
        sys = induction_motor_virtual().system
        lifted, reference = lift(sys), lift(_python_maps(sys))
        stack = systems._stack_field(lifted, [Signal.analytic(math.sin)] * 4)
        for source in (lifted.rhs_with.source, stack.source):
            right = re.findall(r"(?m)^ +t\d+ = (.*)$", source)
            assert len(right) == len(set(right))
        names = sorted(sys.exo)
        for m in (None, 5):
            shape = lambda k: (k,) if m is None else (k, m)
            X, U = list(rng.uniform(-1.0, 1.0, shape(8))), list(rng.uniform(-1.0, 1.0, shape(4)))
            e = {w: rng.uniform(0.0, 1.0, shape(1))[0] for w in names}
            if m is None:
                X, U, e = ([float(v) for v in X], [float(v) for v in U],
                           {w: float(v) for w, v in e.items()})
            assert _entry_bits(lifted.rhs_with(X, e, U)) == _entry_bits(
                reference.rhs_with(X, e, U))

    def test_batch_temporaries_are_freed(self, rng):
        import tracemalloc

        lifted = lift(induction_motor_virtual().system)
        assert _fused(lifted)
        N = 3600
        X = list(rng.standard_normal((2 * lifted.base.n, N)))
        U = list(rng.standard_normal((2 * lifted.base.q, N)))
        e = {name: rng.standard_normal(N) for name in lifted.exo}
        lifted.rhs_with(X, e, U)
        tracemalloc.start()
        try:
            lifted.rhs_with(X, e, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.5 MB when every temporary lives until the program returns
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("f, g, offset", [
        (["x1 + 2/(x1 - 1)"], [["1/(x1 - 1)"]], 6),  # f and g share the divisor: f's offset
        (["x1^2"], [["3/(x1 - 1)"]], 1),  # only g divides by zero: g's offset
        (["sqrt(x1 - 2) + 1/(x1 - 1)"], [["1/(x1 - 1)"]], 0),  # f's first guard fails first
    ])
    def test_first_error_is_the_dual_lift_error(self, f, g, offset):
        sys = _expr_system(f, g)
        lifted, reference = lift(sys), lift(_python_maps(sys))
        assert _fused(lifted)
        for X in ([1.0, 1.0], [np.array([2.0, 1.0]), np.array([1.0, 1.0])]):
            errors = []
            for system in (lifted, reference):
                with pytest.raises(EvalError) as caught, np.errstate(**FLOAT_ERRORS):
                    system.rhs_with(X, {}, [0.5, 0.0])
                errors.append((str(caught.value), caught.value.offset))
            assert errors[0] == errors[1]
            assert errors[0][1] == offset


class TestSimulate:
    def test_decay_to_one_over_e(self):
        traj = simulate(scalar_leaky(), [1.0], t_final=1.0, stepper=Rk4(1e-3))
        assert abs(traj.y[-1, 0] - math.exp(-1.0)) < 1e-8

    def test_step_response(self):
        traj = simulate(
            scalar_leaky(), [0.0], u=Signal.constant(1.0), t_final=1.0, stepper=Rk4(1e-3)
        )
        assert abs(traj.x[-1, 0] - (1.0 - math.exp(-1.0))) < 1e-8

    def test_input_dimension_checked(self):
        with pytest.raises(ValueError):
            simulate(scalar_leaky(), [0.0], u=[Signal.zero(), Signal.zero()])

    def test_batched_outputs_equal_per_sample_outputs(self):
        # a time-varying rotor speed, so the exo values differ per sample
        sys = induction_motor_virtual(MotorParams(omega_r=Signal.from_expr("9 + sin(3*t)"))).system
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        traj = simulate(sys, [1.0, 0.0, 1.3, 0.2], u=u, t_final=0.3, stepper=Rk4(1e-2))
        want = [sys.output(t, traj.x[k].tolist(), traj.u[k].tolist())
                for k, t in enumerate(traj.times)]
        assert np.array_equal(traj.y, np.array(want))

    def test_sampling_equals_per_sample_evaluation(self):
        """Each input and exogenous signal is sampled in one call; ``u`` and
        ``y`` are the bytes of evaluating the signals and the output at each
        sample in turn."""
        from diffdiss.cli import _build_expr_system

        sys = _build_expr_system({
            "n": 1, "q": 4,
            "f": ["-x1 + w"], "g": [["1", "0.5", "0.25", "0.1"]],
            "h": ["x1*w", "x1", "sin(x1)", "x1^2"],
            "i": [["0.5", "0", "0", "0"], ["0", "1 + w", "0", "0"],
                  ["0", "0", "x1", "0"], ["0", "0", "0", "2"]],
            "exo": {"w": {"kind": "expr", "expr": "0.3*cos(5*t)"}},
        }, "/system")
        u = [Signal.from_expr("0.4*sin(2*t) - 0.1"), Signal.constant(0.7),
             Signal.sampled([0.0, 0.2, 0.45, 0.7], [0.0, 0.5, -0.3, 0.2]),
             lambda t: math.cos(t) ** 2]
        traj = simulate(sys, [0.6], u=u, t_final=0.7, stepper=Rk4(1e-2))
        sigs = [s if isinstance(s, Signal) else Signal.analytic(s) for s in u]
        want_u = np.array([[s.value(t) for s in sigs] for t in traj.times])
        want_y = np.array([sys.output(t, traj.x[k].tolist(), want_u[k].tolist())
                           for k, t in enumerate(traj.times)])
        assert traj.u.tobytes() == want_u.tobytes()
        assert traj.y.tobytes() == want_y.tobytes()


class TestSimulateProlonged:
    def test_zero_section_invariant(self):
        traj = simulate_prolonged(scalar_cubic(), [1.0], [0.0], t_final=1.0)
        assert np.max(np.abs(traj.dx)) == 0.0

    def test_lti_matrix_exponential_action(self):
        a = [[-0.3, 1.0], [-1.0, -0.3]]
        sys = lti(a, [[0.0], [1.0]], [[1.0, 0.0]])
        dx0 = [0.7, -0.2]
        traj = simulate_prolonged(sys, [1.0, 1.0], dx0, t_final=2.0, stepper=Rk4(1e-3))
        import scipy.linalg

        want = scipy.linalg.expm(np.asarray(a) * 2.0) @ dx0
        assert np.allclose(traj.dx[-1], want, atol=1e-8)

    def test_cubic_quadrature_oracle(self):
        traj = simulate_prolonged(scalar_cubic(), [1.0], [1.0], t_final=1.0, stepper=Rk4(1e-3))
        xs = traj.x[:, 0]
        integral = np.concatenate(
            ([0.0], np.cumsum(0.5 * (xs[1:] ** 2 + xs[:-1] ** 2) * np.diff(traj.times)))
        )
        oracle = np.exp(-3.0 * integral)
        assert np.max(np.abs(oracle - traj.dx[:, 0])) < 1e-6

    def test_variational_flow_linearity(self, rng):
        sys = scalar_cubic()
        base = simulate_prolonged(sys, [0.8], [1.0], t_final=1.0, stepper=Rk4(1e-3))
        lam = 3.7
        scaled = simulate_prolonged(sys, [0.8], [lam], t_final=1.0, stepper=Rk4(1e-3))
        assert np.allclose(scaled.dx, lam * base.dx, atol=1e-10)
        a, b = rng.standard_normal(2)
        one = simulate_prolonged(sys, [0.8], [a], t_final=1.0, stepper=Rk4(1e-3))
        two = simulate_prolonged(sys, [0.8], [b], t_final=1.0, stepper=Rk4(1e-3))
        both = simulate_prolonged(sys, [0.8], [a + b], t_final=1.0, stepper=Rk4(1e-3))
        assert np.allclose(both.dx, one.dx + two.dx, atol=1e-10)

    def test_first_order_consistency_with_forward_difference(self):
        sys = scalar_cubic()
        traj = simulate_prolonged(sys, [1.0], [1.0], t_final=1.0, stepper=Rk4(1e-3))
        errs = []
        for eps in (1e-3, 1e-4):
            base = simulate(sys, [1.0], t_final=1.0, stepper=Rk4(1e-3))
            pert = simulate(sys, [1.0 + eps], t_final=1.0, stepper=Rk4(1e-3))
            fd = (pert.x[:, 0] - base.x[:, 0]) / eps
            errs.append(np.max(np.abs(fd - traj.dx[:, 0])))
        order = math.log10(errs[0] / errs[1])
        assert order >= 0.9

    def test_rotation_preserves_displacement_norm(self):
        traj = simulate_prolonged(rotation(), [1.0, 0.0], [0.6, 0.8], t_final=3.0)
        norms = np.linalg.norm(traj.dx, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_throughput_output_displacement(self):
        sys = lti([[-1.0]], [[1.0]], [[1.0]], d=[[2.0]])
        traj = simulate_prolonged(
            sys, [0.5], [1.0], u=Signal.constant(0.3), du=Signal.constant(0.1), t_final=0.5
        )
        # dy = C dx + D du throughout
        assert np.allclose(traj.dy, traj.dx + 2.0 * traj.du, atol=1e-13)

    def test_state_dependent_throughput_displacement(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [-x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
            i=lambda x, e: [[1.0 + x[0] ** 2]],
        )
        traj = simulate_prolonged(
            sys, [0.7], [1.0], u=Signal.constant(0.3), du=Signal.constant(0.1), t_final=0.5
        )
        # dy = Dh dx + [Di u] dx + i du with Di = 2x
        x = traj.x[:, 0]
        want = traj.dx[:, 0] + 2.0 * x * traj.u[:, 0] * traj.dx[:, 0] \
            + (1.0 + x**2) * traj.du[:, 0]
        assert np.max(np.abs(traj.dy[:, 0] - want)) < 1e-13


_COLUMNS = ("times", "x", "dx", "u", "du", "y", "dy", "xdot", "dxdot")


def _assert_same_run(got, want):
    for col in _COLUMNS:
        assert np.array_equal(getattr(got, col), getattr(want, col)), col


def _solve(monkeypatch, limit, *args, **kwargs):
    """``simulate_ensemble(*args, **kwargs)`` with the member-loop limit set
    to ``limit`` (None keeps it): the members, the ODE solution, the name
    of the solver that ran (``_integrate_floats`` on floats, ``integrate``
    on arrays) and the number of calls of the field it received."""
    runs = []

    def recording(name):
        solve = getattr(systems, name)

        def recorded(field, *solve_args):
            calls = []
            sol = solve(lambda t, z: calls.append(t) or field(t, z), *solve_args)
            runs.append((sol, name, len(calls)))
            return sol

        return recorded

    with monkeypatch.context() as patch:
        if limit is not None:
            patch.setattr(systems, "_MEMBER_LOOP_MAX", limit)
        for name in ("integrate", "_integrate_floats"):
            patch.setattr(systems, name, recording(name))
        members = simulate_ensemble(*args, **kwargs)
    ((sol, solver, calls),) = runs
    return members, sol, solver, calls


def _run(monkeypatch, limit, *args, **kwargs):
    """:func:`_solve` without the count of field calls."""
    return _solve(monkeypatch, limit, *args, **kwargs)[:3]


def _assert_paths_agree(monkeypatch, *args, **kwargs):
    """The member loop and the array path give the same bits and counts."""
    m = len(args[1])
    loop, loop_sol, loop_solver = _run(monkeypatch, m, *args, **kwargs)
    array, array_sol, array_solver = _run(monkeypatch, 0, *args, **kwargs)
    assert (loop_solver, array_solver) == ("_integrate_floats", "integrate")
    for got, want in zip(loop, array, strict=True):
        for col in _COLUMNS:
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
    for count in ("nfev", "n_accepted", "n_rejected"):
        assert getattr(loop_sol, count) == getattr(array_sol, count), count
    return loop


def _paths_raise(monkeypatch, error, *args, **kwargs):
    """The exception each path raises, as (type, text, last good time)."""
    raised = []
    for limit in (len(args[1]), 0):
        with pytest.raises(error) as info:
            _run(monkeypatch, limit, *args, **kwargs)
        raised.append((type(info.value), str(info.value),
                       getattr(info.value, "last_good_time", None)))
    return raised


class TestEnsemble:
    """Members of one stacked integration against solo runs."""

    def _rc_members(self, rng, m=5):
        x0s = rng.uniform(-1.0, 1.0, size=(m, 1))
        dx0s = rng.uniform(-1.0, 1.0, size=(m, 1))
        amp, freq, bias = rng.uniform(0.2, 1.0, m), rng.uniform(0.5, 3.0, m), rng.uniform(-0.3, 0.3, m)
        drive = Signal.analytic(lambda t: amp * sin(freq * t) + bias)
        solo_drive = lambda k: Signal.analytic(lambda t: amp[k] * sin(freq[k] * t) + bias[k])
        return x0s, dx0s, drive, solo_drive

    def test_rc_per_member_drive_equals_solo_runs_under_rk4(self, rng):
        rc = rc_circuit()
        x0s, dx0s, drive, solo_drive = self._rc_members(rng)
        members = simulate_ensemble(rc.system, x0s, dx0s, u=drive, t_final=0.3,
                                    stepper=Rk4(1e-2))
        assert len(members) == len(x0s)
        for k, member in enumerate(members):
            solo = simulate_prolonged(rc.system, x0s[k], dx0s[k], u=solo_drive(k),
                                      t_final=0.3, stepper=Rk4(1e-2))
            _assert_same_run(member, solo)

    def test_motor_with_exogenous_speed_equals_solo_runs_under_rk4(self, rng):
        sys = induction_motor_virtual(MotorParams(omega_r=Signal.from_expr("9 + sin(3*t)"))).system
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        x0s = rng.uniform(-1.5, 1.5, size=(3, 4))
        dx0s = rng.uniform(-1.0, 1.0, size=(3, 4))
        du = [Signal.constant(0.1), Signal.from_expr("0.05*t")]
        members = simulate_ensemble(sys, x0s, dx0s, u=u, du=du, t_final=0.2, stepper=Rk4(1e-2))
        for k, member in enumerate(members):
            solo = simulate_prolonged(sys, x0s[k].tolist(), dx0s[k].tolist(), u=u, du=du,
                                      t_final=0.2, stepper=Rk4(1e-2))
            _assert_same_run(member, solo)

    def test_one_member_equals_simulate_prolonged(self):
        sys = lti([[-1.0, 2.0], [-3.0, -0.5]], [[1.0], [0.5]], [[1.0, -1.0]], [[0.25]])
        u, du = Signal.from_expr("sin(2*t)"), Signal.constant(0.1)
        (member,) = simulate_ensemble(sys, [[0.4, -0.2]], [[1.0, 0.5]], u=u, du=du,
                                      t_final=0.5, stepper=Rk45(1e-8))
        solo = simulate_prolonged(sys, [0.4, -0.2], [1.0, 0.5], u=u, du=du,
                                  t_final=0.5, stepper=Rk45(1e-8))
        _assert_same_run(member, solo)

    def test_one_member_with_array_drive_equals_scalar_drive(self, rng):
        rc = rc_circuit()
        x0s, dx0s, drive, solo_drive = self._rc_members(rng, m=1)
        (member,) = simulate_ensemble(rc.system, x0s, dx0s, u=drive, t_final=0.3,
                                      stepper=Rk4(1e-2))
        solo = simulate_prolonged(rc.system, x0s[0], dx0s[0], u=solo_drive(0),
                                  t_final=0.3, stepper=Rk4(1e-2))
        _assert_same_run(member, solo)

    def test_one_member_reads_a_constant_input_once(self):
        du = Signal.constant(0.25)
        calls = []
        du.at = lambda t: calls.append(t) or 0.25
        rc = rc_circuit()
        u = Signal.from_expr("0.5*sin(2*t)")
        (member,) = simulate_ensemble(rc.system, [[0.3]], [[0.5]], u=u, du=du,
                                      t_final=0.2, stepper=Rk4(1e-2))
        assert calls == []
        same = simulate_prolonged(rc.system, [0.3], [0.5], u=u, du=lambda t: 0.25,
                                  t_final=0.2, stepper=Rk4(1e-2))
        _assert_same_run(member, same)
        simulate(rc.system, [0.3], u=du, t_final=0.2, stepper=Rk4(1e-2))
        assert calls == []

    def test_one_member_maps_see_python_floats(self):
        seen = set()

        def f(x, e):
            # x is seeded with dx under the lift; a value part that was an
            # np.float64 would divide by zero under FLOAT_ERRORS, not as floats do
            seen.update(type(v.value if isinstance(v, DualScalar) else v) for v in x)
            return [x[0] * np.float64(-1.0)]

        sys = DynSystem(1, 1, f, lambda x, e: [[1.0]], lambda x, e: [x[0]])
        u = Signal.analytic(lambda t: np.float64(0.5) * t)
        simulate_prolonged(sys, [1.0], [0.5], u=u, t_final=0.05, stepper=Rk4(1e-2))
        simulate(sys, [1.0], u=u, t_final=0.05, stepper=Rk4(1e-2))
        # the pass after integration calls f on arrays of all the samples
        assert seen == {float, np.ndarray}

    def test_rk45_members_share_one_grid_within_tolerance(self, rng, monkeypatch):
        rc = rc_circuit()
        x0s, dx0s, drive, solo_drive = self._rc_members(rng, m=4)
        members, sol, _ = _run(monkeypatch, None, rc.system, x0s, dx0s, u=drive, t_final=1.0,
                               stepper=Rk45(1e-8))
        assert sol.nfev == 1 + 6 * (sol.n_accepted + sol.n_rejected)
        for k, member in enumerate(members):
            assert member.times is sol.times
            ref = simulate_prolonged(rc.system, x0s[k], dx0s[k], u=solo_drive(k),
                                     t_final=1.0, stepper=Rk45(1e-12))
            # compare at the shared grid's final time, which both runs end on
            assert member.times[-1] == ref.times[-1] == 1.0
            assert np.allclose(member.x[-1], ref.x[-1], rtol=0.0, atol=1e-7)
            assert np.allclose(member.dx[-1], ref.dx[-1], rtol=0.0, atol=1e-7)

    def test_member_loop_equals_array_path_for_the_motor_under_rk45(self, rng, monkeypatch):
        sys = induction_motor_virtual(MotorParams(omega_r=Signal.from_expr("9 + sin(3*t)"))).system
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        x0s = rng.uniform(-1.5, 1.5, size=(9, 4))
        dx0s = rng.uniform(-1.0, 1.0, size=(9, 4))
        _assert_paths_agree(monkeypatch, sys, x0s, dx0s, u=u, t_final=0.5, stepper=Rk45(1e-8))

    @pytest.mark.parametrize("stepper", [Rk4(1e-2), Rk45(1e-8)], ids=["rk4", "rk45"])
    def test_member_loop_indexes_a_per_member_drive(self, rng, monkeypatch, stepper):
        x0s, dx0s, drive, solo_drive = self._rc_members(rng)
        members = _assert_paths_agree(monkeypatch, rc_circuit().system, x0s, dx0s, u=drive,
                                      du=Signal.constant(0.3), t_final=0.5, stepper=stepper)
        assert members[2].u[:, 0].tobytes() == solo_drive(2).many(members[2].times).tobytes()

    def test_member_loop_equals_array_path_for_a_compiled_state_loop(self, rng, monkeypatch):
        plant = lambda: _expr_system(["-0.25*x1"], [["1/(1 + 3*x1^2)"]])
        k = compile_map([parse("x1 + x1^3")], ["x1"])
        loop = state_feedback(plant(), plant(), k, k)
        x0s = rng.uniform(-1.0, 1.0, size=(4, 2))
        dx0s = rng.uniform(-1.0, 1.0, size=(4, 2))
        u = [Signal.from_expr("0.5*sin(2*t)"), 0.0]
        _assert_paths_agree(monkeypatch, loop, x0s, dx0s, u=u, t_final=0.5, stepper=Rk4(1e-2))

    @pytest.mark.parametrize("extra, solver", [(0, "_integrate_floats"), (1, "integrate")])
    def test_member_count_at_and_past_the_loop_limit(self, rng, monkeypatch, extra, solver):
        m = systems._MEMBER_LOOP_MAX + extra
        x0s = rng.uniform(-1.0, 1.0, size=(m, 1))
        dx0s = rng.uniform(-1.0, 1.0, size=(m, 1))
        args = (rc_circuit().system, x0s, dx0s)
        kwargs = dict(u=Signal.from_expr("0.6*sin(1.7*t)"), t_final=0.3, stepper=Rk4(1e-2))
        assert _run(monkeypatch, None, *args, **kwargs)[2] == solver
        _assert_paths_agree(monkeypatch, *args, **kwargs)

    @pytest.mark.parametrize("m, limit", [(1, None), (3, None), (3, 0)])
    def test_constant_exogenous_signal_is_read_once(self, monkeypatch, m, limit):
        w = Signal.constant(0.5)
        calls = []
        w.at = lambda t: calls.append(t) or 0.5
        sys = DynSystem(
            1, 1, compile_map([parse("-w*x1 - x1^3")], ["x1"], {"w"}),
            lambda x, e: [[1.0]], lambda x, e: [x[0]], exo={"w": w},
        )
        x0s = np.linspace(0.2, 0.8, m)[:, None]
        _run(monkeypatch, limit, sys, x0s, np.ones((m, 1)), u=Signal.from_expr("sin(t)"),
             t_final=0.2, stepper=Rk4(1e-2))
        assert calls == []

    def test_python_maps_of_a_stack_run_on_arrays(self, monkeypatch):
        seen = set()

        def f(x, e):
            seen.add(type(value_part(x[0])))
            return [-x[0] * x[0] * x[0]]

        sys = DynSystem(1, 1, f, lambda x, e: [[1.0]], lambda x, e: [x[0]])
        _, _, solver = _run(monkeypatch, None, sys, [[0.5], [0.7], [0.9]], np.ones((3, 1)),
                            t_final=0.05, stepper=Rk4(1e-2))
        assert solver == "integrate"
        assert seen == {np.ndarray}

    def test_eval_error_is_the_array_paths(self, monkeypatch):
        # member 0 fails the sqrt guard in the call where member 1 fails the
        # log guard, which the array program checks first
        sys = _expr_system(["-1 + 0*log(x1)", "-1 + 0*sqrt(x2)"], [["0"], ["0"]])
        raised = _paths_raise(monkeypatch, EvalError, sys, [[1.0, 0.1], [0.1, 1.0]],
                              np.ones((2, 2)), t_final=1.0, stepper=Rk4(1e-2))
        assert raised[0] == raised[1]
        assert "log of a non-positive value" in raised[0][1]

    @pytest.mark.parametrize("f, x0s, w, text", [
        # w reaches 0 at t = 0.5
        ("-x1 + 0*log(w)", [[1.0], [0.5]], "0.5 - t", "log of a non-positive value"),
        # member 1 fails the sqrt guard in the first call, where the hoisted
        # log guard fails too; the array program checks sqrt first
        ("-1 + 0*sqrt(x1) + 0*log(w)", [[1.0], [-1.0]], "-t", "sqrt of a negative value"),
    ])
    def test_hoisted_guard_error_is_the_array_paths(self, monkeypatch, f, x0s, w, text):
        # log(w) reads no state, so the stack program checks its guard once,
        # before the members
        from diffdiss.cli import _build_expr_system

        sys = _build_expr_system({"n": 1, "q": 1, "f": [f], "g": [["1"]], "h": ["x1"],
                                  "exo": {"w": {"kind": "expr", "expr": w}}}, "/system")
        source = systems._stack_field(lift(sys), systems.signal_vector(None, 2)).source
        assert source.index("log of a non-positive") < source.index("for j in")
        raised = _paths_raise(monkeypatch, EvalError, sys, x0s, np.ones((2, 1)),
                              t_final=1.0, stepper=Rk4(0.1))
        assert raised[0] == raised[1]
        assert text in raised[0][1]

    @pytest.mark.parametrize("stepper", [Rk4(1e-2), Rk45(1e-8)], ids=["rk4", "rk45"])
    def test_stack_makes_one_program_call_per_field_call(self, rng, monkeypatch, stepper):
        calls = {"stack": 0, "member": 0}
        lifted_rhs, stack_field = exprlang.lifted_rhs, systems._stack_field

        def counting_rhs(f, g):
            rhs = lifted_rhs(f, g)

            def counted(X, e, U):
                calls["member"] += type(X[0]) is float  # not the pass after integration
                return rhs(X, e, U)

            return counted

        def counting_stack(lifted, sigs):
            stack = stack_field(lifted, sigs)
            return lambda t, Z: calls.__setitem__("stack", calls["stack"] + 1) or stack(t, Z)

        monkeypatch.setattr(exprlang, "lifted_rhs", counting_rhs)
        monkeypatch.setattr(systems, "_stack_field", counting_stack)
        sys = induction_motor_virtual(MotorParams(omega_r=Signal.from_expr("9 + sin(3*t)"))).system
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        x0s = rng.uniform(-1.5, 1.5, size=(9, 4))
        _, _, solver, field_calls = _solve(monkeypatch, None, sys, x0s, x0s / 2, u=u,
                                           t_final=0.2, stepper=stepper)
        assert solver == "_integrate_floats" and field_calls > 0
        assert calls == {"stack": field_calls, "member": 0}

    def test_one_member_under_rk45_runs_the_stack_field(self, monkeypatch):
        # the value-kind rhs_with runs only in the pass after integration,
        # on arrays, and the run has the bits of rhs_with's field on floats
        on_floats = []
        lifted_rhs = exprlang.lifted_rhs

        def counting_rhs(f, g):
            rhs = lifted_rhs(f, g)
            return lambda X, e, U: on_floats.append(type(X[0]) is float) or rhs(X, e, U)

        monkeypatch.setattr(exprlang, "lifted_rhs", counting_rhs)
        sys, u = rc_circuit().system, Signal.from_expr("0.6*sin(1.7*t)")
        _, sol, solver, field_calls = _solve(monkeypatch, None, sys, [[0.4]], [[-0.7]], u=u,
                                             t_final=0.5, stepper=Rk45(1e-8))
        assert solver == "_integrate_floats" and sol.nfev == field_calls > 0
        assert on_floats == [False]
        field = systems._float_field(lift(sys), [u, Signal.zero()])
        with np.errstate(**FLOAT_ERRORS):
            want = systems._integrate_floats(field, [0.4, -0.7], (0.0, 0.5), Rk45(1e-8))
        assert (sol.times.tobytes(), sol.states.tobytes()) == (want.times.tobytes(),
                                                               want.states.tobytes())
        assert on_floats.count(True) == want.nfev

    @pytest.mark.parametrize("stepper, text", [
        (Rk4(1e-2), "non-finite state during RK4 step"),
        (Rk45(1e-6), "step-size underflow"),
    ], ids=["rk4", "rk45"])
    def test_blow_up_is_the_array_paths(self, monkeypatch, stepper, text):
        # x1 = x0 / (1 - x0 t) leaves the floats before t = 1/3
        sys = _expr_system(["x1^2"], [["1"]])
        raised = _paths_raise(monkeypatch, IntegrationError, sys, [[2.0], [3.0]],
                              np.ones((2, 1)), t_final=1.0, stepper=stepper)
        assert raised[0] == raised[1]
        assert text in raised[0][1]
        assert 0.3 < raised[0][2] < 0.4

    @pytest.mark.parametrize("dx0s", [np.zeros((3, 1)), np.zeros((2, 2)), np.zeros(2)])
    def test_mismatched_shapes_rejected(self, dx0s):
        with pytest.raises(ValueError):
            simulate_ensemble(scalar_cubic(), np.zeros((2, 1)), dx0s)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            simulate_ensemble(scalar_cubic(), np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("stepper", [Rk4(1e-2), Rk45(1e-10)], ids=["rk4", "rk45"])
    @pytest.mark.parametrize("path, m, limit, solver", [
        ("array", 3, 0, "integrate"),
        ("one-member", 1, None, "_integrate_floats"),
        ("stack", 3, None, "_integrate_floats"),
    ])
    def test_nfev_is_the_number_of_field_calls(self, monkeypatch, stepper, path, m, limit, solver):
        # one member of Python maps: the float field, with no generated step
        sys = rc_circuit().system if m > 1 else DynSystem(
            1, 1, lambda x, e: [-x[0] - x[0] ** 3], lambda x, e: [[1.0]], lambda x, e: [x[0]])
        x0s = np.linspace(-0.9, 0.9, m)[:, None]
        step_up = Signal.sampled([0.0, 0.2, 0.21, 1.0], [0.0, 0.0, 4.0, 4.0])  # Rk45 rejects there
        _, sol, ran, calls = _solve(monkeypatch, limit, sys, x0s, np.ones((m, 1)), u=step_up,
                                    t_final=0.45, stepper=stepper)
        assert ran == solver
        assert sol.nfev == calls > 0
        if isinstance(stepper, Rk45):
            assert sol.n_rejected > 0

    def test_python_float_division_by_zero_raises_as_before(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [1.0 / x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
        )
        with pytest.raises(ZeroDivisionError):
            simulate_prolonged(sys, [0.0], [1.0], t_final=0.1, stepper=Rk4(1e-2))
        with pytest.raises(ZeroDivisionError):
            simulate_ensemble(sys, [[0.0]], [[1.0]], t_final=0.1, stepper=Rk4(1e-2))


def _config_expr_system(spec):
    from diffdiss.cli import _build_expr_system

    return _build_expr_system(spec, "/system")


def _plant():
    return _expr_system(["-0.25*x1"], [["1/(1 + 3*x1^2)"]])


# one-member runs whose lift is one generated program: (system, x0, dx0, u, du)
_STEP_CASES = {
    "rc-expression-drive": lambda: (rc_circuit().system, [0.4], [-0.7],
                                    Signal.from_expr("0.6*sin(1.7*t) + (-0.1)"), None),
    "state-loop": lambda: (state_feedback(_plant(), _plant(), *[compile_map([parse("x1 + x1^3")],
                                                                            ["x1"])] * 2),
                           [0.5, -0.3], [0.2, 0.9], [Signal.from_expr("0.5*sin(2*t)"), 0.0], None),
    "constant-inputs": lambda: (_config_expr_system({
        "n": 2, "q": 1, "f": ["-x1 + x2", "-x1 - x2 - x2/(1 + x2^2)"], "g": [["0"], ["1"]],
        "h": ["x2"]}), [0.5, -0.2], [0.3, 0.4], 0.25, Signal.constant(-0.3)),
    # x1 = -0.0 with f = x1: the row is -0.0 + (0.0 + 1.0*0.0), which is +0.0
    "zero-du-signed-zero": lambda: (_expr_system(["x1"], [["1"]]), [-0.0], [-0.0], None, None),
    "exo-expression": lambda: (_config_expr_system({
        "n": 2, "q": 1, "exo": {"w": {"kind": "expr", "expr": "0.3*sin(2*t)"}},
        "f": ["-x1 + x2", "-x1 - (1 + w)*x2 - x2/(1 + x2^2)"], "g": [["0"], ["1 + w^2"]],
        "h": ["x2"]}), [0.5, -0.2], [0.3, 0.4], Signal.from_expr("cos(t)"), None),
    "exo-sampled-and-constant": lambda: (_config_expr_system({
        "n": 1, "q": 1, "exo": {"w": {"kind": "sampled", "times": [0.0, 5.0],
                                      "values": [0.5, 1.5]}, "c": 0.75},
        "f": ["-w*x1 - c*x1^3"], "g": [["1"]], "h": ["x1"]}), [0.8], [0.5], None, None),
    # read in this order: an expression between a sampled signal and a constant
    "exo-sampled-expression-constant": lambda: (_config_expr_system({
        "n": 1, "q": 1, "exo": {"s": {"kind": "sampled", "times": [0.0, 5.0],
                                      "values": [0.5, 1.5]},
                                "w": {"kind": "expr", "expr": "0.3*sin(2*t) + 0.1"},
                                "c": 0.75},
        "f": ["-(s + w)*x1 - c*x1^3"], "g": [["1 + w^2"]], "h": ["x1"]}),
        [0.8], [0.5], Signal.from_expr("sin(2*t)"), None),
    "constant-exo": lambda: (_config_expr_system({
        "n": 1, "q": 1, "exo": {"c": 0.75}, "f": ["-c*x1 - x1^3"], "g": [["c"]],
        "h": ["x1"]}), [0.8], [0.5], Signal.from_expr("sin(t)"), None),
    "sampled-input": lambda: (rc_circuit().system, [0.4], [-0.7],
                              Signal.sampled([0.0, 0.5, 1.0, 5.0], [0.0, 0.3, -0.2, 0.4]),
                              Signal.from_expr("0.1*t")),
    # min/max of a dual and a plain operand, and x1^0, have static kinds
    "mixed-kinds": lambda: (_expr_system(["-x1 + min(x1, 0.3)*x2", "-x2 - max(0.1, x2)*x1"],
                                         [["0.2*x1^0"], ["1"]]),
                            [0.5, 0.2], [0.3, -0.0], Signal.from_expr("0.5*sin(3*t)"), None),
    "length-one-array-input": lambda: (rc_circuit().system, [0.4], [-0.7],
                                       Signal.analytic(lambda t: np.array([0.5 * sin(t)])), None),
}


def _step_run(sys, x0, dx0, u, du, span, dt, generated):
    """``_integrate_floats`` of the one-member field of ``sys``, stepped by
    ``_rk4_step_floats`` or by the generated run: the solution's bits and
    counts, or the error's type, text and last good time (or offset), with
    the number of field calls made by then."""
    lifted = lift(sys)
    sigs = systems.signal_vector(u, sys.q) + systems.signal_vector(du, sys.q)
    calls = []
    field = systems._float_field(lifted, sigs)
    counted = lambda t, x: calls.append(t) or field(t, x)
    run = (systems._rk4_run(lifted, sigs),) if generated else ()
    try:
        with np.errstate(**FLOAT_ERRORS):
            sol = systems._integrate_floats(counted, list(x0) + list(dx0), span, Rk4(dt), *run)
    except Exception as err:  # the same exception type and text is the contract
        where = getattr(err, "last_good_time", getattr(err, "offset", None))
        return (type(err), str(err), where), len(calls)
    return (sol.times.tobytes(), sol.states.tobytes(), sol.nfev, sol.n_accepted), len(calls)


class TestGeneratedStep:
    """Under ``Rk4`` a one-member run of a generated lift takes every step
    in one generated program: the times, states, ``nfev`` and errors of
    ``_rk4_step_floats`` on the field, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_STEP_CASES))
    @given(dt=st.floats(min_value=1e-3, max_value=0.1), k=st.integers(1, 30),
           frac=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_equals_the_field_steps(self, case, dt, k, frac):
        span = (0.0, dt * (k + frac))  # ends with a clipped step
        args = _STEP_CASES[case]()
        want, calls = _step_run(*args, span, dt, generated=False)
        got, none = _step_run(*args, span, dt, generated=True)
        assert got == want
        assert none == 0 and want[2] == calls == 4 * (k + 1)

    def test_guard_hit_first_in_stage_three(self):
        # xdot = x from x = 1 at dt 0.1: the third stage's state is c
        a = 0.5 * 0.1
        c = 1.0 + a * (1.0 + a * 1.0)
        sys = _expr_system([f"x1 + 0/(x1 - {c!r})"], [["1"]])
        want, calls = _step_run(sys, [1.0], [0.5], None, None, (0.0, 1.0), 0.1, False)
        got, _ = _step_run(sys, [1.0], [0.5], None, None, (0.0, 1.0), 0.1, True)
        assert got == want
        assert calls == 3 and want[:2] == (EvalError, "division by zero at offset 6")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_in_stage_two(self, bad):
        # the input turns non-finite after t = 0.2525: in the second stage of
        # the step from 0.25.  An unchecked inf would reach sin in stage three
        u = Signal.analytic(lambda t: bad if t > 0.2525 else 0.3)
        sys = _expr_system(["sin(x1)"], [["1"]])
        want, calls = _step_run(sys, [0.5], [0.5], u, None, (0.0, 1.0), 0.01, False)
        got, _ = _step_run(sys, [0.5], [0.5], u, None, (0.0, 1.0), 0.01, True)
        assert got == want
        assert calls == 4 * 25 + 2
        assert want == (IntegrationError, "non-finite state during RK4 step (last good t = 0.25)",
                        0.25)

    def test_expression_exo_is_written_out(self, monkeypatch):
        """An expression exogenous signal is float code in the step: a run
        neither calls its ``at`` nor its ``value``, and gives the field's bits."""
        sys, x0, dx0, u, du = _STEP_CASES["exo-expression"]()
        w = sys.exo["w"]
        reads = []
        at, value = w.at, Signal.value
        w.at = lambda t: reads.append(t) or at(t)

        def counted(self, t):
            if self is w:
                reads.append(t)
            return value(self, t)

        monkeypatch.setattr(Signal, "value", counted)
        args = (sys, x0, dx0, u, du, (0.0, 0.5), 0.01)
        got, _ = _step_run(*args, generated=True)
        assert reads == []
        traj = simulate_prolonged(sys, x0, dx0, u=u, t_final=0.5, stepper=Rk4(0.01))
        assert reads == [] and len(traj.times) == 51
        want, calls = _step_run(*args, generated=False)
        assert got == want and len(reads) == 2 * calls > 0  # value, then at, per field call

    def test_sampled_input_queried_past_its_end(self):
        u = Signal.sampled([0.0, 0.5], [0.1, 0.3])
        args = (rc_circuit().system, [0.4], [-0.7], u, None, (0.0, 1.0), 0.1)
        want, calls = _step_run(*args, False)
        assert _step_run(*args, True)[0] == want
        assert calls == 4 * 5 + 2
        assert want[:2] == (SignalError, "sampled signal queried at t=0.55 outside [0, 0.5]")

    def test_built_only_for_one_member_of_a_generated_lift_under_rk4(self, monkeypatch):
        built = []
        make = systems._rk4_run
        monkeypatch.setattr(systems, "_rk4_run", lambda *args: built.append(args) or make(*args))
        u = Signal.from_expr("sin(t)")
        runs = [
            (scalar_cubic(), Rk4(1e-2), 1),  # Python maps
            (rc_circuit().system, Rk45(1e-8), 1),
            (rc_circuit().system, Rk4(1e-2), 3),  # a stack
        ]
        for sys, stepper, m in runs:
            simulate_ensemble(sys, np.full((m, 1), 0.4), np.full((m, 1), 0.5), u=u,
                              t_final=0.1, stepper=stepper)
        assert built == []
        simulate_prolonged(rc_circuit().system, [0.4], [0.5], u=u, t_final=0.1,
                           stepper=Rk4(1e-2))
        assert len(built) == 1

    def test_float_programs_free_nothing(self):
        # a float program holds floats: it is the generated lines as they are
        lifted = lift(induction_motor_virtual().system)
        sigs = systems.signal_vector([0.5, -0.5], 2) * 2
        for program in (systems._rk4_run(lifted, sigs), systems._stack_field(lifted, sigs)):
            assert "del " not in program.source
        assert "del " in lifted.rhs_with.source

    def test_runs_of_one_structure_share_one_code(self):
        import re

        from diffdiss.examples import RcParams

        def run(sys, u):
            lifted = lift(sys)
            return systems._rk4_run(lifted, systems.signal_vector(u, sys.q) * 2)

        rcs = [run(rc_circuit(RcParams(R=r, mu=mu)).system, Signal.from_expr(drive))
               for r, mu, drive in [(1.7, "q + 0.37*q^3", "0.45*sin(1.9*t)"),
                                    (2.3, "q + 1.3*q^3", "0.83*sin(4.1*t)")]]
        plant = lambda rate: _expr_system([f"-{rate}*x1"], [["1/(1 + 3*x1^2)"]])
        k = compile_map([parse("x1 + x1^3")], ["x1"])
        loops = [run(state_feedback(plant(rate), plant(rate), k, k), [0.0, 0.0])
                 for rate in ("0.45", "0.83")]
        for a, b in (rcs, loops):
            assert a.__code__ is b.__code__
            for fn in (a, b):
                # the only numbers left are the step's own 0.0, 0.5, 2.0 and 6.0
                # (a name goes with the dot before it, as in ``states.append``)
                left = re.sub(r"\.?[A-Za-z_]\w*|\[\d+\]|'[^']*'", "", fn.source)
                assert set(re.findall(r"[\d.]+", left)) <= {"0.0", "0.5", "2.0", "6.0"}
                names = set(re.findall(r"[A-Za-z_]\w*", fn.source))
                assert names.isdisjoint({"q", "x1", "x2", "t_final"})


class TestRunProgram:
    """The generated run takes every step of the grid in one call: its
    times, states, counts and errors are those of ``_integrate_floats``
    with ``_rk4_step_floats`` on the float field, bit for bit."""

    def _same(self, *args):
        """``_step_run`` of ``args`` by the field steps, after checking that
        the run program gives the same outcome with no field call."""
        want, calls = _step_run(*args, False)
        assert _step_run(*args, True) == (want, 0)
        return want, calls

    def test_clipped_last_step(self):
        want, calls = self._same(rc_circuit().system, [0.4], [-0.7], Signal.from_expr("sin(3*t)"),
                                 None, (0.0, 0.1005), 1e-3)
        times = np.frombuffer(want[0])
        assert len(times) == 102 and times[-1] == 0.1005 and calls == want[2] == 4 * 101

    @pytest.mark.parametrize("t_final", [0.0, 1e-16])
    def test_zero_length_span(self, t_final):
        want, calls = self._same(rc_circuit().system, [0.4], [-0.7], None, None, (0.0, t_final),
                                 1e-3)
        assert np.frombuffer(want[0]).tolist() == [0.0] and calls == want[2] == 0

    def test_non_finite_state_mid_run(self):
        # xdot = x^3 from x = 1 blows up at t = 0.5; the steps lag a little
        want, calls = self._same(_expr_system(["x1^3"], [["1"]]), [1.0], [0.5], None, None,
                                 (0.0, 1.0), 1e-2)
        assert want[0] is IntegrationError and 0.5 < want[2] < 0.6 and calls > 4 * 50

    def test_guard_hit_mid_run(self):
        # xdot = 1 from x = 0: c is the state after five steps, which the
        # fourth stage of step five (x_4 + h*1.0) reaches first
        c = 0.0
        for _ in range(5):
            c = c + 0.1 / 6.0 * (((1.0 + 2.0 * 1.0) + 2.0 * 1.0) + 1.0)
        sys = _expr_system([f"1 + 0/(x1 - {c!r})"], [["1"]])
        want, calls = self._same(sys, [0.0], [0.5], None, None, (0.0, 1.0), 0.1)
        assert want == (EvalError, "division by zero at offset 5", 5) and calls == 4 * 5

    def test_rows_whose_sum_overflows_pass(self):
        # at t = 0 the first stage's rows are (1e308, 1e308): their sum is
        # inf, each row is finite; the other stages read u = du = 0
        big = Signal.analytic(lambda t: 1e308 if t == 0.0 else 0.0)
        want, calls = self._same(_expr_system(["-x1"], [["1"]]), [0.4], [0.5], big, big,
                                 (0.0, 0.05), 1e-2)
        states = np.frombuffer(want[1])
        assert np.isfinite(states).all() and states[2] > 1e305 and calls == 4 * 5

    @pytest.mark.parametrize("stage", ["1", "2", "4", "update"])
    def test_non_finite_raises_at_the_step_floats_stage_time(self, stage):
        t, h = 0.25, 0.01
        when = {"1": t, "2": t + 0.5 * h, "4": t + h, "update": t}[stage]
        if stage == "update":  # finite rows of 1e308 overflow the update's sum
            u = Signal.constant(1e308)
        else:
            u = Signal.analytic(lambda s: math.nan if s >= when else 0.3)
        lifted = lift(_expr_system(["sin(x1)"], [["1"]]))
        sigs = systems.signal_vector(u, 1) + systems.signal_vector(None, 1)
        field = systems._float_field(lifted, sigs)
        with pytest.raises(systems._NonFinite) as want:
            numerics._rk4_step_floats(numerics._finite_floats(field), t, [0.5, 0.5], h)
        states = []
        with pytest.raises(systems._NonFinite) as got:
            systems._rk4_run(lifted, sigs)([(t, h)], [0.5, 0.5], states)
        assert got.value.t == want.value.t == when and states == []


class TestSignalOrder:
    """Every path reads the inputs, then the exogenous signals: when a
    sampled input and a sampled exogenous signal leave their ranges in the
    same stage, each run raises the input's error."""

    INPUT = "outside [-1, 0.5]"  # the exogenous signal's would say [0, 0.5]

    def _args(self, m):
        sys = _config_expr_system({
            "n": 1, "q": 1, "exo": {"w": {"kind": "sampled", "times": [0.0, 0.5],
                                          "values": [0.5, 1.5]}},
            "f": ["-w*x1"], "g": [["1"]], "h": ["x1"]})
        u = Signal.sampled([-1.0, 0.5], [0.1, 0.3])
        return (sys, np.linspace(0.2, 0.8, m)[:, None], np.ones((m, 1))), dict(u=u, t_final=1.0)

    @pytest.mark.parametrize("stepper", [Rk4(0.1), Rk45(1e-8)], ids=["rk4", "rk45"])
    def test_one_member(self, monkeypatch, stepper):
        args, kwargs = self._args(1)
        assert "rhs_with" in vars(lift(args[0]))  # so Rk4 runs the generated step
        with pytest.raises(SignalError, match=re.escape(self.INPUT)):
            _run(monkeypatch, None, *args, stepper=stepper, **kwargs)

    def test_two_members_on_both_paths(self, monkeypatch):
        args, kwargs = self._args(2)
        raised = _paths_raise(monkeypatch, SignalError, *args, stepper=Rk4(0.1), **kwargs)
        assert raised[0] == raised[1]
        assert self.INPUT in raised[0][1]

    def test_plain_simulate(self):
        (sys, _, _), kwargs = self._args(1)
        with pytest.raises(SignalError, match=re.escape(self.INPUT)):
            simulate(sys, [0.5], stepper=Rk4(0.1), **kwargs)
