import math

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_counts_on_empty_span(self):
        sol = integrate(lambda t, x: -x, [1.0], (0.0, 0.0), Rk45())
        assert (sol.nfev, sol.n_accepted, sol.n_rejected) == (0, 0, 0)

    def test_solution_invariants_enforced(self):
        from diffdiss.numerics import OdeSolution

        with pytest.raises(ValueError, match="increasing"):
            OdeSolution([0.0, 0.0], [[1.0], [1.0]], "fixed-rk4", 1e-3)
        with pytest.raises(ValueError, match="finite"):
            OdeSolution([0.0, 1.0], [[1.0], [float("nan")]], "fixed-rk4", 1e-3)


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


class TestStackedMargins:
    """``sym``, the margins and ``frobenius`` accept (..., r, c) stacks and
    give each matrix's scalar result bit for bit."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_margins_equal_per_matrix(self, rng, r):
        a = rng.standard_normal((50, r, r)) * 10.0 ** rng.integers(-3, 4, (50, 1, 1))
        for fn in (nsd_margin, psd_margin):
            stacked = fn(a)
            assert stacked.shape == (50,)
            assert np.array_equal(stacked, [fn(m) for m in a])
        assert np.array_equal(sym(a), np.stack([sym(m) for m in a]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 4), (4, 4)])
    def test_frobenius_equal_per_matrix(self, rng, shape):
        a = rng.standard_normal((400, *shape)) * 10.0 ** rng.integers(-5, 6, (400, 1, 1))
        stacked = numerics.frobenius(a)
        assert stacked.shape == (400,)
        assert np.array_equal(stacked, [numerics.frobenius(m) for m in a])

    def test_higher_stacks_keep_their_shape(self, rng):
        a = rng.standard_normal((3, 5, 2, 2))
        assert nsd_margin(a).shape == (3, 5)
        assert numerics.frobenius(a).shape == (3, 5)

    def test_nonfinite_matrix_gives_nan_margin(self):
        a = np.zeros((3, 2, 2))
        a[1, 0, 0] = np.nan
        a[2, 1, 0] = np.inf
        for fn in (nsd_margin, psd_margin):
            got = fn(a)
            assert got[0] == 0.0 and np.isnan(got[1]) and np.isnan(got[2])
            assert math.isnan(fn(a[1]))

    def test_stack_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            psd_margin(np.ones((4, 2, 3)))


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
