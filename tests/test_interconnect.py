import json

import numpy as np
import pytest

from diffdiss import (
    AlgebraicLoopError,
    QuadraticDifferentialStorage,
    Rk4,
    Signal,
    SupplyRate,
    audit,
    build_equalizing_feedback,
    check_equalization,
    output_feedback,
    simulate_prolonged,
    state_feedback,
)
from diffdiss.cli import _build_system
from diffdiss.examples import induction_motor_virtual, lti
from diffdiss.exprlang import EvalError, compile_map, compile_matrix, parse
from diffdiss.interconnect import EqualizationReport, _lattice
from diffdiss.numerics import NumericalError, jacobian
from diffdiss.systems import DynSystem, lift

from conftest import scalar_leaky


def _passive_scalar(rate=1.0, strict_rate=None):
    sys = scalar_leaky(rate)
    sys.storage = QuadraticDifferentialStorage.identity(1)
    strictness = "state" if strict_rate is not None else "none"
    sys.supply = SupplyRate.identity(1, strictness=strictness, state_rate=strict_rate)
    return sys


class TestOutputFeedback:
    def test_skew_coupling_closed_loop(self):
        s1 = _passive_scalar()
        s2 = _passive_scalar()
        loop = output_feedback(s1, s2)
        assert loop.n == 2 and loop.q == 2
        r = loop.rhs(0.0, [1.0, 2.0], [0.1, -0.2])
        # x1dot = -x1 - x2 + v1 ; x2dot = -x2 + x1 + v2
        assert r[0] == pytest.approx(-1.0 - 2.0 + 0.1)
        assert r[1] == pytest.approx(-2.0 + 1.0 - 0.2)

    def test_loop_audit_passes_with_inputs(self):
        loop = output_feedback(_passive_scalar(), _passive_scalar())
        traj = simulate_prolonged(
            loop, [1.0, -0.5], [0.7, 0.3],
            u=[Signal.from_expr("sin(t)"), Signal.zero()],
            du=[Signal.from_expr("0.2*cos(t)"), Signal.zero()],
            t_final=3.0, stepper=Rk4(1e-3),
        )
        report = audit(traj, loop.storage, loop.supply)
        assert report.passed

    def test_composite_storage_nonincreasing_unforced(self):
        loop = output_feedback(_passive_scalar(), _passive_scalar())
        traj = simulate_prolonged(loop, [1.0, -0.5], [0.7, 0.3], t_final=5.0)
        report = audit(traj, loop.storage, loop.supply)
        assert report.passed
        assert np.all(np.diff(report.S) <= 1e-12)

    def test_cross_terms_never_enter_supply(self, rng):
        # composite supply is <dy1,dv1> + <dy2,dv2> exactly
        loop = output_feedback(_passive_scalar(), _passive_scalar())
        traj = simulate_prolonged(
            loop, [0.5, 0.2], [0.3, -0.1],
            u=[Signal.from_expr("sin(t)"), Signal.from_expr("cos(t)")],
            du=[Signal.constant(0.2), Signal.constant(-0.3)],
            t_final=1.0,
        )
        report = audit(traj, loop.storage, loop.supply)
        manual = np.sum(traj.dy * traj.du, axis=1)
        assert np.max(np.abs(report.Q - manual)) < 1e-12

    def test_strict_rates_combine_by_min_with_half_argument(self):
        s1 = _passive_scalar(1.0, strict_rate=lambda s: 2.0 * s)
        s2 = _passive_scalar(1.5, strict_rate=lambda s: 3.0 * s)
        loop = output_feedback(s1, s2)
        assert loop.supply.strictness == "state"
        assert loop.supply.state_rate(4.0) == pytest.approx(2.0 * (4.0 / 2.0))
        traj = simulate_prolonged(loop, [1.0, -1.0], [1.0, 0.5], t_final=10.0,
                                  stepper=Rk4(1e-3))
        report = audit(traj, loop.storage, loop.supply, tol=1e-8)
        assert report.passed

    def test_double_throughput_rejected(self):
        d = [[1.0]]
        s1 = lti([[-1.0]], [[1.0]], [[1.0]], d=d)
        s2 = lti([[-1.0]], [[1.0]], [[1.0]], d=d)
        with pytest.raises(AlgebraicLoopError):
            output_feedback(s1, s2)

    def test_single_throughput_either_side(self, rng):
        plain = lti([[-1.0]], [[1.0]], [[1.0]])
        thru = lti([[-2.0]], [[1.0]], [[1.0]], d=[[0.5]])
        for loop, order in ((output_feedback(thru, plain), "first"),
                            (output_feedback(plain, thru), "second")):
            x = rng.standard_normal(2).tolist()
            v = rng.standard_normal(2).tolist()
            r = loop.rhs(0.0, x, v)
            y = loop.output(0.0, x, v)
            x1, x2 = x
            v1, v2 = v
            if order == "first":
                u1 = -x2 + v1
                y1 = x1 + 0.5 * u1
                u2 = y1 + v2
                assert r == pytest.approx([-2.0 * x1 + u1, -x2 + u2])
                assert y == pytest.approx([y1, x2])
            else:
                y2 = x2 + 0.5 * (x1 + v2)
                u1 = -y2 + v1
                assert r == pytest.approx([-x1 + u1, -2.0 * x2 + x1 + v2])
                assert y == pytest.approx([x1, y2])

    def test_port_dimension_mismatch(self):
        s1 = lti([[-1.0]], [[1.0]], [[1.0]])
        s2 = lti([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]],
                 [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            output_feedback(s1, s2)


def _curvature_matched_scalar(damping: float = 1.0):
    """Scalar system passing the uniform certificate with state-dependent
    storage factor M(x) = 1 + 3x^2 (the Hessian of x^2/2 + x^4/4), constant
    gain M(x) g(x) = 1, and matched supply tensor W(x) = M(x)."""
    m = lambda x: 1.0 + 3.0 * x[0] ** 2
    sys = DynSystem(
        1, 1,
        lambda x, e: [-damping * x[0]],
        lambda x, e: [[1.0 / m(x)]],
        lambda x, e: [x[0]],
        name="curvature-matched",
    )
    sys.storage = QuadraticDifferentialStorage(lambda x: [[m(x)]], 1)
    sys.supply = SupplyRate(lambda x: [[m(x)]], 1)
    return sys


def _potential(x):
    return 0.5 * x[0] ** 2 + 0.25 * x[0] ** 4


class TestEqualization:
    def test_zero_feedback_zero_residual(self):
        s1 = _curvature_matched_scalar()
        s2 = _curvature_matched_scalar()
        zero = lambda x: [0.0 * x[0]]
        report = check_equalization(s1, s2, zero, zero,
                                    s1.supply.w_fun, s2.supply.w_fun)
        assert report.max_residual == 0.0
        assert report.passed

    def test_gradient_feedback_equalizes(self):
        s1 = _curvature_matched_scalar()
        s2 = _curvature_matched_scalar()
        k = build_equalizing_feedback(_potential, [[1.0]], 1)
        report = check_equalization(s1, s2, k, k, s1.supply.w_fun, s2.supply.w_fun,
                                    n_random=100)
        assert report.n_pairs == 200
        assert report.max_residual <= 1e-8

    def test_hand_computed_failure(self):
        idm = lambda x, e: [x[0]]
        s1 = DynSystem(1, 1, lambda x, e: [-x[0]], lambda x, e: [[1.0]], idm)
        s2 = DynSystem(1, 1, lambda x, e: [-x[0]], lambda x, e: [[1.0]], idm)
        eye = lambda x: [[1.0]]
        k1 = lambda x: [x[0]]
        k2 = lambda x: [-x[0]]
        report = check_equalization(s1, s2, k1, k2, eye, eye)
        assert report.max_residual == pytest.approx(2.0)
        assert not report.passed

    def test_throughput_rejected(self):
        s = lti([[-1.0]], [[1.0]], [[1.0]], d=[[1.0]])
        with pytest.raises(ValueError):
            check_equalization(s, s, lambda x: [x[0]], lambda x: [x[0]],
                               lambda x: [[1.0]], lambda x: [[1.0]])


class TestBuildEqualizingFeedback:
    def test_quadratic_potential_identity_gain(self, rng):
        k = build_equalizing_feedback(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2),
                                      np.eye(2), 2)
        for _ in range(5):
            x = rng.standard_normal(2).tolist()
            assert k(x) == pytest.approx(x)

    def test_scalar_quartic_potential(self):
        k = build_equalizing_feedback(_potential, [[1.0]], 1)
        for x in (-1.5, 0.0, 0.7):
            assert k([x])[0] == pytest.approx(x + x**3)

    def test_zero_gain_decouples(self):
        k = build_equalizing_feedback(_potential, [[0.0]], 1)
        assert k([2.0])[0] == 0.0


class TestStateFeedback:
    def test_zero_feedback_decouples(self):
        s1 = _passive_scalar()
        s2 = _passive_scalar()
        zero = lambda x: [0.0]
        loop = state_feedback(s1, s2, zero, zero)
        traj = simulate_prolonged(loop, [1.0, -0.7], [0.5, 0.4], t_final=2.0)
        report = audit(traj, loop.storage, loop.supply)
        one = simulate_prolonged(s1, [1.0], [0.5], t_final=2.0)
        r1 = audit(one, s1.storage, s1.supply)
        two = simulate_prolonged(s2, [-0.7], [0.4], t_final=2.0)
        r2 = audit(two, s2.storage, s2.supply)
        assert report.passed
        assert np.max(np.abs(report.S - (r1.S + r2.S))) < 1e-12

    def test_equalized_loop_audit_passes(self):
        s1 = _curvature_matched_scalar()
        s2 = _curvature_matched_scalar()
        k = build_equalizing_feedback(_potential, [[1.0]], 1)
        loop = state_feedback(s1, s2, k, k)
        traj = simulate_prolonged(loop, [0.8, -0.6], [0.5, 0.7], t_final=3.0,
                                  stepper=Rk4(1e-3))
        report = audit(traj, loop.storage, loop.supply, tol=1e-9)
        assert report.passed

    def test_sign_flipped_feedback_fails(self):
        # weak internal damping so the uncancelled cross term can dominate
        s1 = _curvature_matched_scalar(damping=0.1)
        s2 = _curvature_matched_scalar(damping=0.1)
        k = build_equalizing_feedback(_potential, [[1.0]], 1)
        k_bad = lambda x: [-k(x)[0]]
        eq = check_equalization(s1, s2, k, k_bad, s1.supply.w_fun, s2.supply.w_fun)
        assert not eq.passed
        loop = state_feedback(s1, s2, k, k_bad)
        traj = simulate_prolonged(loop, [0.8, 0.6], [0.5, 0.7], t_final=3.0,
                                  stepper=Rk4(1e-3))
        report = audit(traj, loop.storage, loop.supply, tol=1e-9)
        assert not report.passed
        assert report.worst_violation > 1e-3
        # the correctly equalized loop passes on the same weak plant
        good = state_feedback(s1, s2, k, k)
        traj_good = simulate_prolonged(good, [0.8, 0.6], [0.5, 0.7], t_final=3.0,
                                       stepper=Rk4(1e-3))
        assert audit(traj_good, good.storage, good.supply, tol=1e-9).passed


# ---------------------------------------------------------------------------
# batched equalization check against a per-point reference


def _ref_check_equalization(s1, s2, k1, k2, w1_fun, w2_fun, n_random=100, seed=0,
                            box=(-1.0, 1.0), tol=1e-8, t=0.0):
    """The per-pair loop ``check_equalization`` ran before it was batched."""
    e1, e2 = s1.exo_at(t), s2.exo_at(t)
    lo, hi = box
    lattice1 = _lattice(s1.n, lo, hi, 10)
    lattice2 = _lattice(s2.n, lo, hi, 10)
    pairs = [(p1, p2) for p1 in lattice1 for p2 in lattice2]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        pairs.append((lo + rng.random(s1.n) * (hi - lo), lo + rng.random(s2.n) * (hi - lo)))
    worst, worst_pair = -1.0, (lattice1[0], lattice2[0])
    for p1, p2 in pairs:
        x1, x2 = p1.tolist(), p2.tolist()
        jh1 = jacobian(lambda z: s1.h(z, e1), x1)
        jh2 = jacobian(lambda z: s2.h(z, e2), x2)
        jk1 = jacobian(k1, x1)
        jk2 = jacobian(k2, x2)
        w1 = np.asarray(w1_fun(x1), dtype=float)
        w2 = np.asarray(w2_fun(x2), dtype=float)
        resid = float(np.max(np.abs(jh1.T @ w1 @ jk2 - (jh2.T @ w2 @ jk1).T)))
        if resid > worst:
            worst, worst_pair = resid, (p1, p2)
    return EqualizationReport(worst, tuple(map(float, worst_pair[0])),
                              tuple(map(float, worst_pair[1])), len(pairs), tol, worst <= tol)


def _same(a, b) -> bool:
    return json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestBatchedEqualizationMatchesReference:
    def test_gradient_feedback(self):
        s1 = _curvature_matched_scalar()
        s2 = _curvature_matched_scalar(damping=0.3)
        k = build_equalizing_feedback(_potential, [[1.0]], 1)
        for k2 in (k, lambda x: [-k(x)[0]]):
            args = (s1, s2, k, k2, s1.supply.w_fun, s2.supply.w_fun)
            assert _same(check_equalization(*args, seed=3), _ref_check_equalization(*args, seed=3))

    def test_zero_residual_ties_pick_the_first_pair(self):
        s1 = _curvature_matched_scalar()
        zero = lambda x: [0.0 * x[0]]
        report = check_equalization(s1, s1, zero, zero, s1.supply.w_fun, s1.supply.w_fun)
        assert _same(report, _ref_check_equalization(s1, s1, zero, zero, s1.supply.w_fun,
                                                     s1.supply.w_fun))
        assert report.worst_x1 == (-1.0,) and report.worst_x2 == (-1.0,)

    def test_unequal_state_dimensions(self):
        s1 = lti([[-1.0, 0.5], [-0.5, -2.0]], [[1.0], [0.3]], [[1.0, 0.3]])
        s2 = _curvature_matched_scalar()
        k1 = lambda x: [x[0] * x[1] + 0.5 * x[0]]
        k2 = lambda x: [x[0] + x[0] * x[0] * x[0]]
        w1 = lambda x: [[2.0 + x[1] * x[1]]]
        args = (s1, s2, k1, k2, w1, s2.supply.w_fun)
        kwargs = dict(n_random=17, seed=5, box=(-2.0, 0.5))
        report = check_equalization(*args, **kwargs)
        assert report.n_pairs == 117
        assert _same(report, _ref_check_equalization(*args, **kwargs))

    def test_no_random_pairs(self):
        s1 = _curvature_matched_scalar()
        k = lambda x: [x[0]]
        args = (s1, s1, k, k, s1.supply.w_fun, lambda x: [[1.0]])
        assert _same(check_equalization(*args, n_random=0),
                     _ref_check_equalization(*args, n_random=0))

    def test_nan_residual_names_the_first_pair(self):
        s1 = _curvature_matched_scalar()
        k = lambda x: [x[0]]
        w_nan = lambda x: [[1.0 + 0.0 * (1e300 * x[0] * 1e300)]]  # nan wherever x != 0
        with pytest.raises(NumericalError) as caught:
            check_equalization(s1, s1, k, k, w_nan, s1.supply.w_fun)
        assert str(caught.value) == (
            "equalization residual is not finite at x1 = (-1.0,), x2 = (-1.0,)")


# ---------------------------------------------------------------------------
# loops of expression systems are compiled maps

_W = Signal.from_expr("0.5 + sin(t)")


def _expr_system(f, g, h, i=None, exo=()):
    """A system whose maps are compiled from the expression strings given."""
    names = [f"x{k + 1}" for k in range(len(f))]
    vector = lambda rows: compile_map([parse(s) for s in rows], names, exo)
    matrix = lambda rows: compile_matrix([[parse(s) for s in row] for row in rows], names, exo)
    return DynSystem(len(f), len(h), vector(f), matrix(g), vector(h),
                     i=None if i is None else matrix(i), exo={name: _W for name in exo})


def _python(sys):
    """``sys`` with each map wrapped in a Python function, which has no ASTs."""
    wrap = lambda fn: None if fn is None else (lambda x, e: fn(x, e))
    return DynSystem(sys.n, sys.q, wrap(sys.f), wrap(sys.g), wrap(sys.h), i=wrap(sys.i),
                     exo=sys.exo, name=sys.name)


def _plant1(i=None, g="1/(1 + x1^2)"):
    return _expr_system(["-x1 + x2*w", "-x2^3 + sin(x1)"], [[g], ["x2"]],
                        ["x1 + 0.5*x2"], i=i, exo=("w",))


def _plant2(i=None):
    return _expr_system(["-0.7*x1 - x1^3"], [["2 + cos(x1)"]], ["x1*w"], i=i, exo=("w",))


_K1 = compile_map([parse("x1 + x2^3")], ["x1", "x2"])
_K2 = compile_map([parse("x1 + x1^3")], ["x1"])


def _two_port(i=None):
    return _expr_system(["-x1 + x2", "-x2 - x1*x2^2"], [["1", "x1"], ["0.5", "exp(-x2)"]],
                        ["x1", "x2 - x1"], i=i)


def _loops(plant1, plant2, *k):
    """The loop of the two plants, compiled, and the same loop of Python maps."""
    couple = state_feedback if k else output_feedback
    wrapped = [lambda x, k=k: k(x) for k in k]
    return couple(plant1, plant2, *k), couple(_python(plant1), _python(plant2), *wrapped)


_LOOPS = {
    "output": lambda: _loops(_plant1(), _plant2()),
    "output-i1": lambda: _loops(_plant1(i=[["0.3 + x2^2"]]), _plant2()),
    "output-i2": lambda: _loops(_plant1(), _plant2(i=[["1 + x1^2"]])),
    "output-two-port-i2": lambda: _loops(_two_port(), _two_port(i=[["1", "x1"], ["0", "2"]])),
    "state": lambda: _loops(_plant1(), _plant2(), _K1, _K2),
    "state-i1": lambda: _loops(_plant1(i=[["0.3 + x2^2"]]), _plant2(), _K1, _K2),
    "state-i12": lambda: _loops(_plant1(i=[["0.3 + x2^2"]]), _plant2(i=[["1 + x1^2"]]),
                                _K1, _K2),
    "state-two-port": lambda: _loops(
        _two_port(), _two_port(i=[["x2", "0"], ["0", "1"]]),
        compile_map([parse("x1 + x2"), parse("x2^3")], ["x1", "x2"]),
        compile_map([parse("sin(x1)"), parse("x1 - x2")], ["x1", "x2"])),
}


def _assert_bits(a, b):
    """``a`` and ``b`` are the same nested lists of the same float bits."""
    if isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for u, v in zip(a, b):
            _assert_bits(u, v)
    else:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _maps(sys, x, e, u):
    i = [] if sys.i is None else sys.i(x, e)
    return [sys.f(x, e), sys.g(x, e), sys.h(x, e), i, sys.rhs_with(x, e, u),
            sys.output_with(x, e, u)]


class TestComposedLoop:
    @pytest.mark.parametrize("case", sorted(_LOOPS))
    def test_maps_and_lift_match_the_closures_bit_for_bit(self, case, rng):
        loop, reference = _LOOPS[case]()
        assert hasattr(loop.f, "asts") and not hasattr(reference.f, "asts")
        assert (loop.i is None) == (reference.i is None)
        n, q = loop.n, loop.q
        for size in (None, 5):
            shape = (n,) if size is None else (n, size)
            x = list(rng.uniform(-1.0, 1.0, shape))
            dx = list(rng.uniform(-1.0, 1.0, shape))
            u = list(rng.uniform(-1.0, 1.0, (2 * q,)))
            e = {"w": 0.25 if size is None else rng.uniform(0.0, 1.0, size)}
            if size is None:
                x, dx = [float(v) for v in x], [float(v) for v in dx]
            _assert_bits(_maps(loop, x, e, u[:q]), _maps(reference, x, e, u[:q]))
            _assert_bits(_maps(lift(loop), x + dx, e, u), _maps(lift(reference), x + dx, e, u))

    @pytest.mark.parametrize("coupling", ["output", "state"])
    def test_evaluation_errors_match_the_closures(self, coupling):
        k = (_K1, _K2) if coupling == "state" else ()
        loop, reference = _loops(_plant1(g="1/(x1 - 0.5)"), _plant2(), *k)
        x = [0.5, 0.2, -0.3]
        batch = [np.array([0.1, 0.5]), np.array([0.2, 0.2]), np.array([-0.3, 0.4])]
        for args in ((x, [0.1, 0.3]), (batch, [0.1, 0.3])):
            for sys in (loop, reference):
                for call in (lambda s: s.rhs_with(args[0], {"w": 0.25}, [0.0, 0.0]),
                             lambda s: lift(s).rhs_with(args[0] + args[0], {"w": 0.25},
                                                        [0.0] * 4)):
                    with pytest.raises(EvalError) as caught:
                        with np.errstate(all="raise"):
                            call(sys)
                    assert str(caught.value) == "division by zero at offset 1"
                    assert caught.value.offset == 1

    def test_trajectory_matches_the_closures(self):
        loop, reference = _LOOPS["state-i1"]()
        u = [Signal.from_expr("sin(t)"), Signal.from_expr("0.3*cos(2*t)")]
        got, want = (simulate_prolonged(s, [0.3, -0.2, 0.6], [1.0, 0.5, -0.4], u=u,
                                        t_final=0.2, stepper=Rk4(1e-2))
                     for s in (loop, reference))
        for name in ("x", "dx", "y", "dy", "xdot", "dxdot"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_a_python_constituent_keeps_the_closures(self):
        loop = output_feedback(_plant1(), _python(_plant2()))
        assert not hasattr(loop.f, "asts")
        loop = state_feedback(_plant1(), _plant2(), _K1, lambda x: _K2(x))
        assert not hasattr(loop.f, "asts")

    def test_nested_loops_compose(self):
        inner, reference = _LOOPS["output"]()
        outer = output_feedback(inner, _two_port())
        assert hasattr(outer.f, "asts")
        x = [0.3, -0.2, 0.6, 0.1, -0.7]
        want = output_feedback(reference, _python(_two_port()))
        _assert_bits(_maps(lift(outer), x + x, {"w": 0.5}, [0.1, 0.2, 0.3, 0.4] * 2),
                     _maps(lift(want), x + x, {"w": 0.5}, [0.1, 0.2, 0.3, 0.4] * 2))

    def test_registry_motor_composes(self, rng):
        # the motor is a compiled system, so its loop with an expression system is too
        motor = induction_motor_virtual().system
        plant = _two_port(i=[["1", "x1"], ["0", "2"]])
        loop = output_feedback(motor, plant)
        reference = output_feedback(_python(motor), _python(plant))
        assert hasattr(loop.f, "asts") and not hasattr(reference.f, "asts")
        e = {"omega_r": 9.0, "omega_s": 10.0}
        x, dx = rng.uniform(-1.0, 1.0, (2, 6)).tolist()
        u = rng.uniform(-1.0, 1.0, 8).tolist()
        _assert_bits(_maps(loop, x, e, u[:4]), _maps(reference, x, e, u[:4]))
        _assert_bits(_maps(lift(loop), x + dx, e, u), _maps(lift(reference), x + dx, e, u))

    @pytest.mark.parametrize("coupling", ["output", "state"])
    def test_lifting_a_config_loop_runs_no_dual_pass(self, coupling, monkeypatch):
        import diffdiss.systems

        def refuse(*args):
            raise AssertionError("systems.seed was called")

        monkeypatch.setattr(diffdiss.systems, "seed", refuse)
        plant = {"n": 1, "q": 1, "f": ["-0.25*x1"], "g": [["1/(1 + 3*x1^2)"]], "h": ["x1"]}
        s1, _ = _build_system({"system": plant})
        s2, _ = _build_system({"system": plant})
        k = compile_map([parse("x1 + x1^3")], ["x1"])
        loop = state_feedback(s1, s2, k, k) if coupling == "state" else output_feedback(s1, s2)
        lifted = lift(loop)
        lifted.rhs_with([0.5, -0.3, 0.2, 0.9], {}, [0.1, 0.0, 0.0, 0.0])
        lifted.output_with([0.5, -0.3, 0.2, 0.9], {}, [0.1, 0.0, 0.0, 0.0])
        simulate_prolonged(loop, [0.5, -0.3], [0.2, 0.9], u=[Signal.from_expr("sin(t)"), 0.0],
                           t_final=0.05, stepper=Rk4(1e-2))
