import math

import numpy as np
import pytest

from diffdiss import (
    DynSystem,
    Rk4,
    Signal,
    SignalError,
    lift,
    rc_circuit,
    simulate,
    simulate_prolonged,
)
from diffdiss.examples import lti

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
