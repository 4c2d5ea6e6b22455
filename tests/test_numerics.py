import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffdiss import numerics
from diffdiss.numerics import (
    DualScalar,
    IntegrationError,
    Rk4,
    Rk45,
    integrate,
    jacobian,
    jvp,
    nsd_margin,
    psd_margin,
    sym,
)
from diffdiss.examples import MotorParams, motor_currents
from diffdiss.exprlang import EvalError, evaluate, parse

from test_exprlang import _exprs


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def central_fd(fun, x, j, h):
    xp = list(x)
    xm = list(x)
    xp[j] += h
    xm[j] -= h
    return [(a - b) / (2 * h) for a, b in zip(fun(xp), fun(xm))]


class TestDualScalar:
    def test_product_rule(self):
        a = DualScalar(2.0, 3.0)
        b = DualScalar(5.0, 7.0)
        c = a * b
        assert c.value == 10.0
        assert c.deriv == 2.0 * 7.0 + 3.0 * 5.0

    def test_constant_has_zero_deriv(self):
        x = DualScalar(1.5, 1.0)
        assert (x * 0.0 + 4.0).deriv == 0.0

    def test_division(self):
        x = DualScalar(3.0, 1.0)
        y = 1.0 / x
        assert y.value == pytest.approx(1.0 / 3.0)
        assert y.deriv == pytest.approx(-1.0 / 9.0)

    def test_integer_power_negative_base(self):
        x = DualScalar(-2.0, 1.0)
        y = x**3
        assert y.value == -8.0
        assert y.deriv == 12.0

    @given(finite, st.floats(min_value=-3.0, max_value=3.0))
    def test_chain_rule_matches_fd(self, x0, v):
        fun = lambda t: numerics.tanh(t * t + numerics.sin(t))
        d = fun(DualScalar(x0, v)).deriv
        h = 1e-6
        fd = (fun(x0 + h) - fun(x0 - h)) / (2 * h) * v
        assert d == pytest.approx(fd, abs=1e-6)

    def test_nested_second_derivative(self):
        # d2/dt2 of sin at 0.3
        t = DualScalar(DualScalar(0.3, 1.0), DualScalar(1.0, 0.0))
        out = numerics.sin(t)
        assert out.deriv.deriv == pytest.approx(-math.sin(0.3), abs=1e-12)

    def test_atan2_min_max_abs(self):
        y = DualScalar(1.0, 1.0)
        assert numerics.atan2(y, 2.0).deriv == pytest.approx(2.0 / 5.0)
        assert numerics.minimum(DualScalar(1.0, 5.0), DualScalar(2.0, 7.0)).deriv == 5.0
        assert numerics.maximum(DualScalar(1.0, 5.0), DualScalar(2.0, 7.0)).deriv == 7.0
        assert numerics.absolute(DualScalar(-3.0, 1.0)).deriv == -1.0


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class TestBatch:
    """DualScalar parts and the scalar functions accept 1-d float arrays;
    every element must equal the scalar evaluation bit for bit."""

    xs = np.array([-2.5, -0.3, 0.0, 0.4, 1.7, 3.1])

    def test_array_times_dual_stays_dual(self):
        d = DualScalar(self.xs, np.ones_like(self.xs))
        for out in (self.xs * d, self.xs + d, self.xs - d, self.xs / DualScalar(2.0, 1.0)):
            assert isinstance(out, DualScalar)
            assert out.value.dtype == float and out.value.shape == self.xs.shape

    def test_transcendentals_match_math_per_element(self):
        pos = np.abs(self.xs) + 0.5
        for name, arg in (("sin", self.xs), ("cos", self.xs), ("tan", self.xs),
                          ("exp", self.xs), ("tanh", self.xs), ("log", pos), ("sqrt", pos)):
            got = getattr(numerics, name)(arg)
            want = [getattr(math, name)(v) for v in arg.tolist()]
            assert bits(got) == bits(want), name
            dual = getattr(numerics, name)(DualScalar(arg, np.ones_like(arg)))
            for k, v in enumerate(arg.tolist()):
                one = getattr(numerics, name)(DualScalar(v, 1.0))
                assert bits([dual.value[k], dual.deriv[k]]) == bits([one.value, one.deriv]), name
        got = numerics.atan2(self.xs, 0.5)
        assert bits(got) == bits([math.atan2(v, 0.5) for v in self.xs.tolist()])

    def test_math_domain_errors_kept(self):
        with pytest.raises(ValueError):
            numerics.log(np.array([1.0, -1.0]))
        with pytest.raises(OverflowError):
            numerics.exp(np.array([0.0, 1e6]))

    def test_min_max_abs_elementwise(self):
        a = DualScalar(self.xs, self.xs * 2.0 + 1.0)
        b = DualScalar(-self.xs[::-1].copy(), np.full(self.xs.shape, 3.0))
        for fn in (numerics.minimum, numerics.maximum):
            batch = fn(a, b)
            batch_const = fn(a, 0.25)
            for k in range(len(self.xs)):
                ak = DualScalar(float(a.value[k]), float(a.deriv[k]))
                bk = DualScalar(float(b.value[k]), float(b.deriv[k]))
                one = fn(ak, bk)
                assert bits([batch.value[k], batch.deriv[k]]) == bits([one.value, one.deriv])
                one_const = fn(ak, 0.25)
                want = [numerics.value_part(one_const), numerics.deriv_part(one_const)]
                assert bits([batch_const.value[k], batch_const.deriv[k]]) == bits(want)
        batch = abs(a)
        for k, (v, d) in enumerate(zip(a.value.tolist(), a.deriv.tolist())):
            one = abs(DualScalar(v, d))
            assert bits([batch.value[k], batch.deriv[k]]) == bits([one.value, one.deriv])

    def test_nested_batch(self):
        vp, dp = numerics.value_part, numerics.deriv_part

        def parts(x, k=None):
            out = [vp(vp(x)), dp(vp(x)), vp(dp(x)), dp(dp(x))]
            return [p[k] if isinstance(p, np.ndarray) else p for p in out]

        def second_order(t):
            return DualScalar(DualScalar(t, 1.0), DualScalar(1.0, 0.0))

        out = numerics.minimum(numerics.sin(second_order(self.xs)), 0.5)
        for k, v in enumerate(self.xs.tolist()):
            one = numerics.minimum(numerics.sin(second_order(v)), 0.5)
            assert bits(parts(out, k)) == bits(parts(one))

    def test_comparing_a_batch_raises(self):
        d = DualScalar(self.xs, 1.0)
        with pytest.raises(TypeError, match="batched value"):
            d < 1.0
        with pytest.raises(TypeError, match="batched value"):
            DualScalar(1.0, 0.0) >= d
        with pytest.raises(TypeError, match="batched value"):
            d < DualScalar(np.array([1.0]), 0.0)


class TestJacobian:
    def test_linear_map(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        fun = lambda x: [a[0][0] * x[0] + a[0][1] * x[1], a[1][0] * x[0] + a[1][1] * x[1]]
        assert np.allclose(jacobian(fun, [0.7, -0.3]), a)

    def test_scalar_cubic(self):
        j = jacobian(lambda x: [-x[0] ** 3], [2.0])
        assert j.shape == (1, 1)
        assert j[0, 0] == pytest.approx(-12.0)

    def test_motor_current_map_at_zero_flux(self):
        # saturation contributes nothing at zero flux: the Jacobian is the
        # constant inverse-inductance matrix acting blockwise on R^2
        p = MotorParams()
        fun = lambda x: [*motor_currents(p, x)[0], *motor_currents(p, x)[1]]
        j = jacobian(fun, [0.0, 0.0, 0.0, 0.0])
        a_r = 1.0 / p.L_r + 1.0 / p.L_l
        a_s = 1.0 / p.L_s + 1.0 / p.L_l
        b = 1.0 / p.L_l
        expected = np.kron(np.array([[a_r, -b], [-b, a_s]]), np.eye(2))
        assert np.allclose(j, expected, atol=1e-12)
        fd = np.array([central_fd(fun, [0.0] * 4, jj, 1e-6) for jj in range(4)]).T
        assert np.allclose(j, fd, atol=1e-6)

    def test_fd_convergence_order(self):
        fun = lambda x: [numerics.sin(x[0]) * x[1], numerics.exp(x[0] - x[1] ** 2)]
        x = [0.4, -0.8]
        j = jacobian(fun, x)
        errs = []
        for h in (1e-3, 1e-4):
            fd = np.array([central_fd(fun, x, jj, h) for jj in range(2)]).T
            errs.append(np.max(np.abs(fd - j)))
        order = math.log(errs[0] / errs[1]) / math.log(10.0)
        assert order >= 1.9

    def test_failing_column_reported(self):
        with pytest.raises(numerics.NumericalError, match="column 0"):
            jacobian(lambda x: [x[0] / (x[1] - 1.0)], [0.0, 1.0])

    def test_nonfinite_output_reported(self):
        big = 1e308
        with pytest.raises(numerics.NumericalError, match="column"):
            jacobian(lambda x: [big * x[0] * big], [1.0])

    def test_jvp_matches_jacobian_action(self):
        fun = lambda x: [x[0] * x[1], x[1] ** 2, numerics.cos(x[0])]
        x = [0.3, 1.7]
        v = [0.5, -1.1]
        j = jacobian(fun, x)
        assert np.allclose(jvp(fun, x, v), j @ v)


class TestIntegrate:
    def test_constant_field(self):
        sol = integrate(lambda t, x: np.zeros_like(x), [3.0, -1.0], (0.0, 2.0), Rk4(0.1))
        assert np.allclose(sol.states, [3.0, -1.0])
        assert sol.times[0] == 0.0 and sol.times[-1] == 2.0

    def test_exponential_decay(self):
        sol = integrate(lambda t, x: -x, [1.0], (0.0, 1.0), Rk4(1e-3))
        assert abs(sol.states[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_harmonic_oscillator_period(self):
        field = lambda t, x: np.array([x[1], -x[0]])
        sol = integrate(field, [1.0, 0.0], (0.0, 2.0 * math.pi), Rk4(1e-3))
        assert np.linalg.norm(sol.states[-1] - [1.0, 0.0]) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_steppers_reject_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            Rk4(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            Rk45(bad)

    @pytest.mark.parametrize("span", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_span_rejected(self, span):
        with pytest.raises(ValueError, match="t_span must be finite"):
            integrate(lambda t, x: -x, [1.0], span, Rk4(0.1))

    def test_rk4_fourth_order(self):
        # dt pair chosen so truncation error stays well above roundoff
        errs = []
        for dt in (2e-2, 1e-2):
            sol = integrate(lambda t, x: -x, [1.0], (0.0, 1.0), Rk4(dt))
            errs.append(abs(sol.states[-1, 0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0

    def test_adaptive_matches_fixed(self):
        field = lambda t, x: np.array([x[1], -numerics.sin(x[0])])
        ref = integrate(field, [1.2, 0.0], (0.0, 5.0), Rk4(1e-4))
        sol = integrate(field, [1.2, 0.0], (0.0, 5.0), Rk45(1e-10))
        assert sol.times[-1] == 5.0
        assert np.linalg.norm(sol.states[-1] - ref.states[-1]) < 1e-7

    def test_initial_state_exact(self):
        x0 = [0.123456789, -9.87]
        sol = integrate(lambda t, x: -x, x0, (0.0, 0.5), Rk45())
        assert sol.states[0].tolist() == x0

    def test_blowup_reports_last_good_time(self):
        with np.errstate(over="ignore"), pytest.raises(IntegrationError) as err:
            integrate(lambda t, x: x * x, [1.0], (0.0, 5.0), Rk4(1e-2))
        assert 0.0 < err.value.last_good_time < 5.0

    def test_final_partial_step(self):
        sol = integrate(lambda t, x: -x, [1.0], (0.0, 0.1234), Rk4(1e-2))
        assert sol.times[-1] == 0.1234
        assert abs(sol.states[-1, 0] - math.exp(-0.1234)) < 1e-10

    def test_rk4_counts_four_calls_per_step(self):
        sol = integrate(lambda t, x: -x, [1.0], (0.0, 0.1234), Rk4(1e-2))
        assert sol.n_accepted == len(sol.times) - 1 == 13
        assert sol.n_rejected == 0
        assert sol.nfev == 4 * sol.n_accepted

    def test_rk45_reuses_last_stage(self):
        # forced van der Pol at mu = 5: time-dependent, with some rejected steps
        calls = []

        def field(t, x):
            calls.append(t)
            return np.array([x[1], 5.0 * (1.0 - x[0] * x[0]) * x[1] - x[0] + math.sin(t)])

        sol = integrate(field, [2.0, 0.0], (0.0, 5.0), Rk45(1e-8))
        assert sol.n_rejected > 0
        assert sol.n_accepted == len(sol.times) - 1
        assert sol.nfev == len(calls) == 1 + 6 * (sol.n_accepted + sol.n_rejected)
        times, states = _dopri_all_stages(field, [2.0, 0.0], 0.0, 5.0, 1e-8)
        assert np.array_equal(sol.times, times)
        assert np.array_equal(sol.states, states)

    def test_last_stage_point_is_the_fifth_order_solution(self):
        # so the stepper takes x5 as the point of the stage it evaluates last
        assert numerics._DP_A[6] == numerics._DP_B5[:6]
        assert numerics._DP_B5[6] == 0.0 and numerics._DP_C[6] == 1.0

    def test_counts_on_empty_span(self):
        sol = integrate(lambda t, x: -x, [1.0], (0.0, 0.0), Rk45())
        assert (sol.nfev, sol.n_accepted, sol.n_rejected) == (0, 0, 0)

    def test_solution_invariants_enforced(self):
        from diffdiss.numerics import OdeSolution

        with pytest.raises(ValueError, match="increasing"):
            OdeSolution([0.0, 0.0], [[1.0], [1.0]], "fixed-rk4", 1e-3)
        with pytest.raises(ValueError, match="finite"):
            OdeSolution([0.0, 1.0], [[1.0], [float("nan")]], "fixed-rk4", 1e-3)


def _forced_pendulum(t, x):
    # indexes its state, so it runs on a float array and on a list of floats
    return [x[1], -math.sin(x[0]) - 0.1 * x[1] + 0.3 * math.cos(1.3 * t)]


def _solution_bits(sol):
    return (sol.times.tobytes(), sol.states.tobytes(), sol.nfev, sol.n_accepted,
            sol.n_rejected, sol.stepper_id, sol.tolerance)


def _integration_error(solve, field, x0, span, stepper):
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as err:
        solve(field, x0, span, stepper)
    return str(err.value), err.value.last_good_time


class TestFloatEntry:
    """``_integrate_floats``, the entry of fields on lists of floats, against
    the public ``integrate`` on arrays: the same bits, counts and errors."""

    @given(dt=st.floats(min_value=1e-3, max_value=0.1), k=st.integers(1, 40),
           frac=st.floats(min_value=0.05, max_value=0.95), t0=st.sampled_from([0.0, 0.25]))
    @settings(max_examples=60, deadline=None)
    def test_rk4_gives_the_bits_of_integrate(self, dt, k, frac, t0):
        span = (t0, t0 + dt * (k + frac))  # ends with a clipped step
        want = integrate(_forced_pendulum, [1.2, -0.4], span, Rk4(dt))
        got = numerics._integrate_floats(_forced_pendulum, [1.2, -0.4], span, Rk4(dt))
        assert want.times[-1] == got.times[-1] == span[1]
        assert _solution_bits(got) == _solution_bits(want)

    def test_rk45_gives_the_bits_of_integrate(self):
        want = integrate(_forced_pendulum, [1.2, -0.4], (0.0, 3.0), Rk45(1e-9))
        got = numerics._integrate_floats(_forced_pendulum, [1.2, -0.4], (0.0, 3.0), Rk45(1e-9))
        assert _solution_bits(got) == _solution_bits(want)

    def test_field_sees_lists_of_python_floats(self):
        seen = set()

        def field(t, x):
            seen.update(type(v) for v in x)
            assert type(x) is list
            return [np.float64(-x[0]), 1]

        numerics._integrate_floats(field, [1.0, 0.0], (0.0, 0.05), Rk4(1e-2))
        assert seen == {float}

    @pytest.mark.parametrize("field", [
        lambda t, x: [x[0] * x[0]],  # the state overflows
        lambda t, x: [-x[0] if t < 0.237 else math.nan],  # the field turns non-finite
    ], ids=["blow-up", "nan-field"])
    @pytest.mark.parametrize("stepper", [Rk4(1e-2), Rk45(1e-8)], ids=["rk4", "rk45"])
    def test_non_finite_raises_as_integrate_does(self, field, stepper):
        want = _integration_error(integrate, field, [1.0], (0.0, 5.0), stepper)
        got = _integration_error(numerics._integrate_floats, field, [1.0], (0.0, 5.0), stepper)
        assert got == want
        assert 0.0 < got[1] < 5.0

    def test_checks_are_shared(self):
        with pytest.raises(ValueError, match="t_span must be finite"):
            numerics._integrate_floats(_forced_pendulum, [1.0, 0.0], (0.0, math.inf), Rk4(0.1))
        with pytest.raises(IntegrationError, match="non-finite initial state"):
            numerics._integrate_floats(_forced_pendulum, [math.nan, 0.0], (0.0, 1.0), Rk4(0.1))
        sol = numerics._integrate_floats(_forced_pendulum, [1.0, 0.0], (0.0, 0.0), Rk4(0.1))
        assert (sol.nfev, sol.n_accepted, sol.states.tolist()) == (0, 0, [[1.0, 0.0]])


def _dopri_all_stages(field, x0, t0, t1, tol):
    """Reference Dormand-Prince 5(4) that evaluates all seven stages on
    every attempt; step control as in ``numerics.integrate``."""
    x = np.asarray(x0, dtype=float)
    t, h = t0, min((t1 - t0) / 100.0, 0.1)
    times, states = [t], [x.copy()]
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        ks = []
        for i in range(7):
            xi = x.copy()
            for j, aij in enumerate(numerics._DP_A[i]):
                if aij != 0.0:
                    xi = xi + (h * aij) * ks[j]
            ks.append(np.asarray(field(t + numerics._DP_C[i] * h, xi), dtype=float))
        x5 = x.copy()
        err = np.zeros_like(x)
        for i in range(7):
            if numerics._DP_B5[i] != 0.0:
                x5 = x5 + (h * numerics._DP_B5[i]) * ks[i]
            db = numerics._DP_B5[i] - numerics._DP_B4[i]
            if db != 0.0:
                err = err + (h * db) * ks[i]
        ratio = float(np.max(np.abs(err) / (tol * (1.0 + np.maximum(np.abs(x), np.abs(x5))))))
        if ratio <= 1.0:
            t = t1 if t1 - (t + h) < 1e-14 * max(1.0, abs(t1)) else t + h
            x = x5
            times.append(t)
            states.append(x.copy())
            h *= max(0.2, 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2))
        else:
            h *= max(0.1, min(1.0, 0.9 * ratio ** -0.2))
    return np.array(times), np.array(states)


class TestMargins:
    def test_negative_identity(self):
        assert nsd_margin(-np.eye(2)) == pytest.approx(-1.0)

    def test_skew_is_zero(self):
        assert nsd_margin(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(0.0)

    def test_sym_idempotent_margin_exact(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            assert nsd_margin(a) == nsd_margin(sym(a))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_skew_invariance(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((3, 3))
        l = gen.standard_normal((3, 3))
        skew = l - l.T
        assert nsd_margin(a + skew) == pytest.approx(nsd_margin(a), abs=1e-12)

    def test_constructed_spectrum(self, rng):
        # orthogonal conjugation of a known spectrum plus a skew part
        lam = np.array([-3.0, -1.0, 0.5, 2.5])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag(lam) @ q.T
        skew = rng.standard_normal((4, 4))
        skew = skew - skew.T
        assert nsd_margin(a + skew) == pytest.approx(2.5, abs=1e-12)
        assert psd_margin(a + skew) == pytest.approx(-3.0, abs=1e-12)

    def test_quadratic_form_oracle(self, rng):
        # random sampling certifies a lower bound; a shifted power iteration
        # provides the independent tight value
        a = rng.standard_normal((4, 4))
        margin = nsd_margin(a)
        s = sym(a)
        vs = rng.standard_normal((100_000, 4))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        sampled = np.max(np.einsum("ij,jk,ik->i", vs, s, vs))
        assert sampled <= margin + 1e-12
        shift = 1.0 + np.max(np.sum(np.abs(s), axis=1))
        v = vs[int(np.argmax(np.einsum("ij,jk,ik->i", vs, s, vs)))]
        for _ in range(500):
            v = s @ v + shift * v
            v /= np.linalg.norm(v)
        assert float(v @ s @ v) == pytest.approx(margin, abs=1e-6)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            nsd_margin(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# batched Jacobians, stacked margins and the shared gradient

_VARS = ["x", "y", "zz", "q_c", "w1"]


class TestBatchJacobian:
    """A 2-d ``x`` is a batch of points: ``jacobian`` returns their stacked
    Jacobians, each bit-identical to the call on that point alone."""

    @given(
        _exprs(3),
        _exprs(2),
        st.lists(st.floats(-50.0, 50.0), min_size=4 * 5, max_size=4 * 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_stacked_scalar_calls(self, e1, e2, values):
        fun = lambda z: [evaluate(e1, dict(zip(_VARS, z))), evaluate(e2, dict(zip(_VARS, z)))]
        pts = np.array(values).reshape(4, 5)
        singles = []
        for p in pts:
            try:
                singles.append(jacobian(fun, p.tolist()))
            except (numerics.NumericalError, EvalError):
                singles.append(None)
        if any(j is None for j in singles):
            with pytest.raises((numerics.NumericalError, EvalError)):
                jacobian(fun, pts)
            return
        batch = jacobian(fun, pts)
        assert batch.shape == (4, 2, 5)
        assert np.array_equal(batch, np.stack(singles))

    def test_constant_and_linear_entries_broadcast(self):
        fun = lambda z: [1.0, 2.0 * z[1], z[0] * z[1]]
        pts = np.array([[0.5, -1.0], [2.0, 3.0], [0.0, 0.0]])
        batch = jacobian(fun, pts)
        assert np.array_equal(batch, np.stack([jacobian(fun, p.tolist()) for p in pts]))

    def test_one_dimensional_x_unchanged(self):
        fun = lambda z: [z[0] * z[1], numerics.sin(z[0])]
        assert jacobian(fun, [0.3, 1.7]).shape == (2, 2)
        assert jacobian(fun, np.array([0.3, 1.7])).shape == (2, 2)

    def test_division_by_zero_maps_to_the_scalar_error(self):
        fun = lambda z: [z[0] / (z[1] - 1.0)]
        with pytest.raises(numerics.NumericalError) as scalar:
            jacobian(fun, [0.5, 1.0])
        with pytest.raises(numerics.NumericalError) as batch:
            jacobian(fun, np.array([[0.5, 2.0], [0.5, 1.0]]))
        prefix = "Jacobian evaluation failed in column 0: "
        assert str(scalar.value).startswith(prefix)
        assert str(batch.value).startswith(prefix)
        assert isinstance(batch.value.__cause__, FloatingPointError)

    def test_math_domain_error_mapped(self):
        with pytest.raises(numerics.NumericalError, match="failed in column 0"):
            jacobian(lambda z: [numerics.exp(z[0])], np.array([[0.0], [1e6]]))

    def test_nonfinite_entry_names_column_and_first_point(self):
        # column 0 is finite everywhere; column 1 overflows once |x2| > ~1e108
        fun = lambda z: [z[0], z[1] * z[1] * 1e200]
        pts = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 1e109], [4.0, 2e109]])
        with pytest.raises(numerics.NumericalError) as caught:
            jacobian(fun, pts)
        assert str(caught.value) == "non-finite Jacobian entries in column 1 at x = (3.0, 1e+109)"

    def test_expression_guard_still_raises_eval_error(self):
        e = parse("log(x)")
        with pytest.raises(EvalError):
            jacobian(lambda z: [evaluate(e, {"x": z[0]})], np.array([[1.0], [-1.0]]))

    def test_zero_over_zero_in_a_dual_rule_raises_like_floats(self):
        # atan2's derivative rule divides 0 by 0 at x = 0: floats raise, and
        # a batch must too, even though "^ 0" drops the nan it would give
        e = parse("atan2(0, x) ^ 0")
        fun = lambda z: [evaluate(e, {"x": z[0]})]
        with pytest.raises(numerics.NumericalError):
            jacobian(fun, [0.0])
        with pytest.raises(numerics.NumericalError, match="failed in column 0"):
            jacobian(fun, np.array([[1.0], [0.0]]))


class TestJacobianBlockCheck:
    """Each column's block is tested for finiteness as a whole and scanned
    per point only when that test fails: the error still names the first
    failing column and, in it, the first bad point."""

    def test_nonfinite_only_in_column_0(self):
        fun = lambda z: [z[0] * z[0] * 1e200, z[1]]
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [1e109, 3.0], [2e109, 4.0]])
        with pytest.raises(numerics.NumericalError) as caught:
            jacobian(fun, pts)
        assert str(caught.value) == "non-finite Jacobian entries in column 0 at x = (1e+109, 3.0)"

    def test_nonfinite_in_both_columns_reports_column_0(self):
        # column 1 is bad from the first point, column 0 only from the second
        fun = lambda z: [z[0] * z[1] * 1e200]
        pts = np.array([[1e109, 1.0], [1.0, 1e109], [1e109, 1e109]])
        with pytest.raises(numerics.NumericalError) as caught:
            jacobian(fun, pts)
        assert str(caught.value) == "non-finite Jacobian entries in column 0 at x = (1.0, 1e+109)"

    @pytest.mark.parametrize("first, later", [(np.nan, np.inf), (np.inf, np.nan),
                                              (-np.inf, np.nan), (np.nan, -np.inf)])
    def test_nan_and_inf_are_both_found_first_one_named(self, first, later):
        coef = np.array([1.0, 2.0, first, 3.0, later])
        fun = lambda z: [z[0] + z[1], z[0] * coef]
        pts = np.column_stack([np.arange(5.0), -np.arange(5.0)])
        with pytest.raises(numerics.NumericalError) as caught:
            jacobian(fun, pts)
        assert str(caught.value) == "non-finite Jacobian entries in column 0 at x = (2.0, -2.0)"

    def test_exception_in_column_1_only(self):
        # raises only on the pass that differentiates along x2
        fun = lambda z: [z[0] + 1.0 / (1.0 - numerics.deriv_part(z[1]))]
        pts = np.array([[0.5, 1.0], [1.5, 2.0]])
        with pytest.raises(numerics.NumericalError) as caught:
            jacobian(fun, pts)
        assert str(caught.value).startswith("Jacobian evaluation failed in column 1: ")
        assert isinstance(caught.value.__cause__, ZeroDivisionError)

    @given(
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25, -3.0]),
                           st.tuples(*[st.integers(0, 3)] * 3)),
                 min_size=1, max_size=4).map(tuple),
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 2.0, -0.5]),
                           st.tuples(*[st.integers(0, 3)] * 3)),
                 min_size=0, max_size=3).map(tuple),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, -0.75, 3.0]),
                 min_size=3 * 6, max_size=3 * 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_bits_equal_stacked_points_for_polynomials(self, p1, p2, values):
        # polynomials with -0.0 coefficients and points: the batch keeps the
        # signs of zeros that the per-point call gives
        def poly(terms, z):
            acc = 0.0
            for coef, powers in terms:
                term = coef
                for zk, k in zip(z, powers):
                    term = term * zk ** k
                acc = acc + term
            return acc

        fun = lambda z: [poly(p1, z), poly(p2, z)]
        pts = np.array(values).reshape(6, 3)
        batch = jacobian(fun, pts)
        singles = np.stack([jacobian(fun, p.tolist()) for p in pts])
        assert batch.shape == (6, 2, 3)
        assert batch.tobytes() == singles.tobytes()


def _stacked_rows(rows, size):
    """``batch_matrix`` as it was written before it filled one array: an
    ``np.stack`` of each row's ``batch_rows``."""
    return np.stack([numerics.batch_rows(row, size) for row in rows], axis=1)


class TestBatchMatrix:
    """``batch_matrix`` fills one (N, r, c) array entry by entry, with the
    bits, and the errors, of stacking its rows' ``batch_rows``."""

    @pytest.mark.parametrize("r, c", [(1, 1), (2, 2), (3, 3), (3, 2), (4, 1)])
    def test_bits_equal_stacked_rows(self, rng, r, c):
        size = 7
        pool = [0.0, -0.0, 2.5, np.float64(-1.25), 3, rng.standard_normal(size),
                np.full(size, -0.0), rng.integers(-3, 4, size)]
        for trial in range(10):
            rows = [[pool[k] for k in rng.integers(0, len(pool), c)] for _ in range(r)]
            got = numerics.batch_matrix(rows, size)
            assert got.shape == (size, r, c)
            assert got.tobytes() == _stacked_rows(rows, size).tobytes()

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [3.0]],
        [],
        [[1.0, np.ones(3)], [2.0, 3.0]],
        [[1.0, 2.0], [np.ones(2), 3.0, 4.0]],
        [[1.0, 2.0], [3.0], [np.ones(4)]],
        [[1.0], [np.ones((5, 1))]],
    ], ids=["ragged", "no-rows", "wrong-length", "ragged-after-wrong-length",
            "wrong-length-in-a-ragged-stack", "two-dimensional-entry"])
    def test_errors_equal_stacked_rows(self, rows):
        with pytest.raises(Exception) as want:
            _stacked_rows(rows, 5)
        with pytest.raises(want.type) as got:
            numerics.batch_matrix(rows, 5)
        assert str(got.value) == str(want.value)


class TestFirstNonFinite:
    """``argworst`` and ``_eigvalsh`` test a whole array before they scan
    it, and still locate a single bad entry anywhere in it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 6, 12])
    def test_argworst_names_the_bad_index(self, rng, bad, k):
        values = rng.standard_normal(13)
        values[k] = bad
        with pytest.raises(numerics.NumericalError, match=rf"^v is not finite at k = {k}$"):
            numerics.argworst(values, "v", lambda i: f"k = {i}")

    def test_argworst_first_of_several(self):
        values = np.array([0.5, 1.0, np.inf, 2.0, np.nan])
        with pytest.raises(numerics.NumericalError, match=r"^v is not finite at k = 2$"):
            numerics.argworst(values, "v", lambda i: f"k = {i}")
        assert numerics.argworst(values[:2], "v", str) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k, i, j", [(0, 0, 0), (4, 1, 0), (8, 0, 1)])
    def test_eigvalsh_nan_at_the_bad_matrix(self, rng, bad, r, k, i, j):
        a = sym(rng.standard_normal((9, r, r)))
        a[k, i, j] = bad
        lam = numerics._eigvalsh(a)
        assert np.isnan(lam[k]).all()
        good = [m for m in range(9) if m != k]
        assert _hex(lam[good]) == _hex([np.linalg.eigvalsh(a[m]) for m in good])


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in np.ravel(values)]


class TestStackedMargins:
    """``sym``, the margins and ``frobenius`` accept (..., r, c) stacks and
    give each matrix's scalar result bit for bit."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_margins_equal_per_matrix(self, rng, r):
        # compared by bits: -0.0 and 0.0 are equal as floats, but reports
        # print them differently
        a = rng.standard_normal((50, r, r)) * 10.0 ** rng.integers(-3, 4, (50, 1, 1))
        for fn in (nsd_margin, psd_margin):
            stacked = fn(a)
            assert stacked.shape == (50,)
            assert _hex(stacked) == _hex([fn(m) for m in a])
        assert np.array_equal(sym(a), np.stack([sym(m) for m in a]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 4), (4, 4)])
    def test_frobenius_equal_per_matrix(self, rng, shape):
        a = rng.standard_normal((400, *shape)) * 10.0 ** rng.integers(-5, 6, (400, 1, 1))
        stacked = numerics.frobenius(a)
        assert stacked.shape == (400,)
        assert np.array_equal(stacked, [numerics.frobenius(m) for m in a])

    def test_higher_stacks_keep_their_shape(self, rng):
        a = rng.standard_normal((3, 5, 2, 2))
        a[1, 2] *= 1e150  # one matrix that LAPACK rescales
        for fn in (nsd_margin, psd_margin):
            got = fn(a)
            assert got.shape == (3, 5)
            assert _hex(got) == _hex([fn(m) for m in a.reshape(-1, 2, 2)])
        assert numerics.frobenius(a).shape == (3, 5)

    def test_nonfinite_matrix_gives_nan_margin(self):
        a = np.zeros((3, 2, 2))
        a[1, 0, 0] = np.nan
        a[2, 1, 0] = np.inf
        for fn in (nsd_margin, psd_margin):
            got = fn(a)
            assert got[0] == 0.0 and np.isnan(got[1]) and np.isnan(got[2])
            assert math.isnan(fn(a[1]))
            with pytest.raises(numerics.NumericalError, match=r"^margin is not finite at k = 1$"):
                numerics.argworst(got, "margin", lambda k: f"k = {k}")

    def test_stack_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            psd_margin(np.ones((4, 2, 3)))


class TestOverflowingSym:
    """A + A^T that overflows (or adds inf to -inf) makes that matrix's
    margin nan without a warning, on the 2 x 2 kernel's LAPACK fallback and
    on LAPACK itself; every other margin keeps its bits."""

    @pytest.mark.parametrize("stack, bad", [
        ([[[1.0, 2.0], [0.5, -3.0]], [[1.0, 1e308], [1e308, 1.0]]], 1),
        ([[[1.0, np.inf], [-np.inf, 1.0]], [[1.0, 2.0], [0.5, -3.0]]], 0),
        ([[[1.0, 1e308, 0.0], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]], 0),
        ([[[1.0, 0.0, 0.5], [0.0, -2.0, 0.0], [0.25, 0.0, 1.0]],
          [[1.0, 0.0, -1e308], [0.0, 1.0, 0.0], [-1e308, 0.0, 1.0]],
          [[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, 0.5, 3.0]]], 1),
    ], ids=["2x2-overflow", "2x2-inf-minus-inf", "3x3-single", "3x3-middle"])
    def test_margins_nan_without_warning(self, stack, bad):
        stack = np.array(stack)
        good = [k for k in range(len(stack)) if k != bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (nsd_margin, psd_margin):
                got = fn(stack)
                assert np.isnan(got[bad])
                assert _hex(got[good]) == _hex([fn(stack[k]) for k in good])
                assert math.isnan(fn(stack[bad]))


# the largest |entry| of sym(A) for which neither dsterf (below 2^-405) nor
# dsyevd (above 2^485) rescales a 2 x 2 matrix
_UNSCALED = (2.0 ** -405, 2.0 ** 485)


def _lapack_2x2_family(name: str, gen, n: int) -> np.ndarray:
    """``n`` 2 x 2 matrices of the named family, drawn from ``gen``."""
    if name == "random":
        return gen.standard_normal((n, 2, 2)) * 10.0 ** gen.integers(-3, 4, (n, 1, 1))
    if name == "integer":
        return gen.integers(-4, 5, (n, 2, 2)).astype(float)
    if name == "skew-off-diagonal":
        # off-diagonals that cancel in sym(A), exactly or to a few ulps
        a = gen.standard_normal((n, 2, 2))
        ulps = gen.integers(-3, 4, n) * (gen.random(n) < 0.5)
        a[:, 0, 1] = -a[:, 1, 0] * (1.0 + 2.0 ** -52 * ulps)
        return a
    if name == "near-split":
        a = gen.standard_normal((n, 2, 2))
        scale = 10.0 ** -gen.uniform(9.0, 30.0, n)
        a[:, 0, 1] *= scale
        a[:, 1, 0] *= scale
        return a
    if name == "equal-opposite-diagonal":
        a = gen.standard_normal((n, 2, 2)) * 10.0 ** gen.integers(-3, 4, (n, 1, 1))
        kind = gen.integers(0, 3, n)
        a[:, 1, 1] = np.where(kind == 0, a[:, 0, 0], np.where(kind == 1, -a[:, 0, 0], a[:, 1, 1]))
        tiny = gen.random(n) < 0.3
        a[tiny, 0, 1] *= 1e-12
        a[tiny, 1, 0] *= 1e-12
        return a
    if name == "scales":
        return gen.standard_normal((n, 2, 2)) * 10.0 ** gen.uniform(-120.0, 144.0, (n, 1, 1))
    if name == "signed-zeros":
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0 ** -60, -3.0, 0.5])
        return values[gen.integers(0, len(values), (n, 2, 2))]
    if name == "split-boundary":
        # |e| within a few ulps of dsterf's split threshold sqrt(|d1 d2|) eps,
        # where its two split tests disagree
        d1 = gen.standard_normal(n) * 10.0 ** gen.integers(-5, 6, n)
        d2 = np.where(gen.random(n) < 0.5, d1 * (1.0 + 2.0 ** -52 * gen.integers(-4, 5, n)),
                      gen.standard_normal(n) * 10.0 ** gen.integers(-5, 6, n))
        e = np.sqrt(np.abs(d1 * d2)) * 2.0 ** -53 * (1.0 + 2.0 ** -52 * gen.integers(-8, 9, n))
        e = np.where(gen.random(n) < 0.5, e, -e)
        return np.stack([np.stack([d1, e], -1), np.stack([e, d2], -1)], -2)
    raise KeyError(name)


_LAPACK_2X2_FAMILIES = ["random", "integer", "skew-off-diagonal", "near-split",
                        "equal-opposite-diagonal", "scales", "signed-zeros", "split-boundary"]


class TestLapack2x2:
    """The margins of a (..., 2, 2) stack come from LAPACK's own steps for
    n = 2 run in numpy (``numerics._dsyevd_2x2``).  The oracle is numpy's
    ``eigvalsh`` of sym(A) on this machine, compared bit for bit."""

    @staticmethod
    def assert_lapack_bits(a):
        a = np.asarray(a, dtype=float)
        ref = np.linalg.eigvalsh(sym(a))
        assert _hex(psd_margin(a)) == _hex(ref[..., 0])
        assert _hex(nsd_margin(a)) == _hex(ref[..., -1])

    @pytest.mark.parametrize("family", _LAPACK_2X2_FAMILIES)
    def test_family_equals_lapack(self, family):
        a = _lapack_2x2_family(family, np.random.default_rng(26), 40_000)
        assert numerics._dsyevd_2x2(a)[1].all()
        self.assert_lapack_bits(a)

    @given(st.sampled_from(_LAPACK_2X2_FAMILIES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_seeded_family_equals_lapack(self, family, seed):
        self.assert_lapack_bits(_lapack_2x2_family(family, np.random.default_rng(seed), 500))

    @given(st.lists(st.lists(st.floats(-1e140, 1e140), min_size=4, max_size=4),
                    min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_entries_equal_lapack(self, rows):
        self.assert_lapack_bits(np.array(rows).reshape(-1, 2, 2))

    @pytest.mark.parametrize("entries", [
        # the first split test holds and the second does not
        ["0x1.056d262302f08p+5", "0x1.056d262302f0ap-48", "0x1.056d262302f0ap-48",
         "0x1.056d262302f0bp+5"],
        # the second split test holds and the first does not
        ["-0x1.d8e44bd357d60p-13", "0x1.d8e44bd357d60p-66", "0x1.d8e44bd357d60p-66",
         "-0x1.d8e44bd357d60p-13"],
        # d = (0.0, -0.0): dlasrt keeps a tie in its order, so the margins
        # are psd 0.0 and nsd -0.0
        ["0x0.0p+0", "-0x1.0p+0", "0x1.0p+0", "-0x0.0p+0"],
    ])
    def test_split_tests_and_tie_order(self, entries):
        a = np.array([float.fromhex(v) for v in entries]).reshape(1, 2, 2)
        self.assert_lapack_bits(a)

    @pytest.mark.parametrize("bound", _UNSCALED)
    @pytest.mark.parametrize("slot", [(0, 0), (1, 1), (1, 0)])
    def test_window_edges(self, bound, slot):
        # the largest entry of sym(A) one ulp inside, on and one ulp outside
        # each bound, on a diagonal or on the off-diagonal pair
        inside = [np.nextafter(bound, 1.0), bound]
        outside = np.nextafter(bound, 0.0 if bound < 1.0 else np.inf)
        cases = []
        for top in [*inside, outside]:
            for sign in (1.0, -1.0):
                a = np.array([[0.25, -0.5], [-0.5, 0.75]]) * top
                a[slot] = a[slot[::-1]] = sign * top
                cases.append(a)
        a = np.stack(cases)
        assert numerics._dsyevd_2x2(a)[1].tolist() == [True] * 4 + [False] * 2
        self.assert_lapack_bits(a)

    def test_mixed_stack(self, rng):
        # matrices inside the window, outside it and non-finite, interleaved:
        # each margin is the one LAPACK gives that matrix alone, and nan for
        # a non-finite entry
        a = rng.standard_normal((12, 2, 2)) * np.array(
            [1.0, 1e-130, 1e150, 1e-310, 1.0, 1e-120, 1e144, 0.0, 1e300, 1.0, 1.0, 1.0]
        )[:, None, None]
        a[9, 0, 1] = np.nan
        a[10, 1, 1] = -np.inf
        a[11, 1, 0] = 1e308
        a[11, 0, 1] = 1e308
        assert numerics._dsyevd_2x2(a)[1].tolist() == [
            True, False, False, False, True, True, True, True, False, False, False, False]
        for fn in (nsd_margin, psd_margin):
            with np.errstate(over="ignore"):  # sym(A) of the last matrix overflows
                singles = [fn(m) for m in a]
                assert all(math.isnan(v) for v in singles[9:])
                assert _hex(fn(a)) == _hex(singles)


class TestGradient:
    @staticmethod
    def potential(x):
        return 0.5 * x[0] * x[0] + 0.25 * x[0] ** 4 + numerics.sin(x[1]) * x[0]

    def test_floats(self):
        g = numerics.gradient(self.potential, [0.7, -0.4])
        assert g[0] == pytest.approx(0.7 + 0.7 ** 3 + math.sin(-0.4))
        assert g[1] == pytest.approx(math.cos(-0.4) * 0.7)

    def test_duals_give_the_hessian(self):
        x = [0.7, -0.4]
        hess = jacobian(lambda z: numerics.gradient(self.potential, z), x)
        want = [[1.0 + 3.0 * 0.49, math.cos(-0.4)], [math.cos(-0.4), -math.sin(-0.4) * 0.7]]
        assert np.allclose(hess, want, atol=1e-12)
        assert np.array_equal(hess, hess.T)

    def test_batch_equals_each_point(self):
        pts = np.array([[0.7, -0.4], [-1.2, 2.0], [0.0, 0.0]])
        batch = numerics.gradient(self.potential, list(pts.T))
        for k, p in enumerate(pts):
            one = numerics.gradient(self.potential, p.tolist())
            assert [float(b[k]) for b in batch] == one


class TestUniformDraws:
    """``uniform_draws`` is numpy's default generator without numpy.random:
    numpy itself is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 160 - 1), st.integers(min_value=0, max_value=300))
    @example(0, 300)
    @example(2 ** 32 - 1, 3)
    @example(2 ** 32, 3)
    @example(2 ** 128 - 1, 3)
    @example(2 ** 128, 3)
    @example(5, 256)
    @example(5, 257)
    def test_equals_numpy_default_rng(self, seed, count):
        want = np.random.default_rng(seed).random(count)
        assert [d.hex() for d in numerics.uniform_draws(seed, count)] == [
            float(d).hex() for d in want]

    @pytest.mark.parametrize("seed", [0, 2 ** 100 + 9])
    def test_a_long_stream_spans_several_jump_blocks(self, seed):
        want = np.random.default_rng(seed).random(1000)
        assert [d.hex() for d in numerics.uniform_draws(seed, 1000)] == [
            float(d).hex() for d in want]

    def test_numpy_integers_and_bools_are_seeds(self):
        assert numerics.uniform_draws(np.int64(5), 4) == numerics.uniform_draws(5, 4)
        assert numerics.uniform_draws(True, 4) == numerics.uniform_draws(1, 4)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 70), 1.5, 2.0, "3", None, [1, 2]])
    def test_a_negative_or_non_integer_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            numerics.uniform_draws(seed, 3)

    def test_a_negative_count_raises(self):
        with pytest.raises(ValueError, match="count must be non-negative"):
            numerics.uniform_draws(0, -1)
