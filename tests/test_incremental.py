import math

import numpy as np
import pytest

from diffdiss import (
    DynSystem,
    InvalidFinslerStructure,
    NumericalError,
    QuadraticDifferentialStorage,
    Rk4,
    Rk45,
    Signal,
    SupplyRate,
    UnboundedTrajectoryError,
    fd_oracle,
    finsler_length,
    homotopy_integrate,
    simulate_prolonged,
    verify_nonexpansion,
    verify_output_convergence,
)
from diffdiss.examples import lti
from diffdiss.exprlang import EvalError, compile_matrix, parse
from diffdiss.incremental import _library_gauge, _trapezoid

from conftest import rotation, scalar_cubic, scalar_leaky, scalar_stiffening


def euclid(x, dx):
    return float(np.linalg.norm(dx))


class TestHomotopyIntegrate:
    def test_constant_curve_gives_zero_displacements(self):
        fam = homotopy_integrate(scalar_cubic(), lambda s: [1.0], t_final=0.5, n_s=5)
        for m in fam.members:
            assert np.max(np.abs(m.dx)) == 0.0
            assert np.allclose(m.x, fam.members[0].x)

    def test_lti_members_share_exponential_displacement(self):
        a = [[-0.4, 1.0], [-1.0, -0.4]]
        sys = lti(a, [[1.0], [0.0]], [[1.0, 0.0]])
        xa = np.array([1.0, 0.0])
        xb = np.array([0.0, 1.0])
        fam = homotopy_integrate(
            sys, lambda s: (xa + s * (xb - xa)).tolist(), t_final=2.0, n_s=5,
            gamma0_deriv=lambda s: (xb - xa).tolist(), stepper=Rk4(1e-3),
        )
        import scipy.linalg

        want = scipy.linalg.expm(np.asarray(a) * 2.0) @ (xb - xa)
        for m in fam.members:
            assert np.allclose(m.dx[-1], want, atol=1e-8)

    def test_endpoint_difference_is_integral_of_displacements(self):
        # fundamental theorem of calculus in the homotopy parameter
        sys = scalar_cubic()
        fam = homotopy_integrate(sys, lambda s: [0.5 + 1.0 * s], t_final=1.0,
                                 n_s=33, stepper=Rk4(1e-3))
        end_diff = fam.members[-1].x[-1, 0] - fam.members[0].x[-1, 0]
        vals = np.array([m.dx[-1, 0] for m in fam.members])
        integral = np.trapezoid(vals, fam.s_grid)
        assert abs(end_diff - integral) < 1e-4

    def test_dual_derivative_of_initial_curve(self):
        # gamma0 given without an explicit derivative: seeded through duals
        fam = homotopy_integrate(scalar_leaky(), lambda s: [s * s], t_final=0.1, n_s=5)
        assert fam.members[2].dx[0, 0] == pytest.approx(1.0)  # d(s^2)/ds at 0.5

    def test_members_share_grid_under_adaptive_stepping(self):
        fam = homotopy_integrate(scalar_cubic(), lambda s: [0.5 + s], t_final=1.0,
                                 n_s=5, stepper=Rk45(1e-8))
        for m in fam.members:
            assert np.array_equal(m.times, fam.times)

    def test_endpoint_members_match_independent_simulations(self):
        from diffdiss import simulate

        sys = scalar_cubic()
        fam = homotopy_integrate(sys, lambda s: [0.5 + s], t_final=1.0, n_s=5,
                                 stepper=Rk4(1e-3))
        solo_a = simulate(sys, [0.5], t_final=1.0, stepper=Rk4(1e-3))
        solo_b = simulate(sys, [1.5], t_final=1.0, stepper=Rk4(1e-3))
        assert np.max(np.abs(fam.members[0].x[:, 0] - solo_a.x[:, 0])) < 1e-12
        assert np.max(np.abs(fam.members[-1].x[:, 0] - solo_b.x[:, 0])) < 1e-12

    def test_members_equal_solo_prolonged_runs_under_rk4(self):
        # the batched RHS and post pass reproduce a solo run bit for bit
        from diffdiss.examples import MotorParams, induction_motor_virtual

        # a time-varying rotor speed, so the exo values differ per sample
        params = MotorParams(omega_r=Signal.from_expr("9 + sin(3*t)"))
        sys = induction_motor_virtual(params).system
        a = np.array([1.0, 0.0, 1.3, 0.2])
        b = a + np.array([0.4, -0.3, 0.5, 0.1])
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        gamma0 = lambda s: (a + s * (b - a)).tolist()
        fam = homotopy_integrate(sys, gamma0, u=u, t_final=0.2, n_s=5, stepper=Rk4(1e-2),
                                 gamma0_deriv=lambda s: (b - a).tolist())
        for m, s in zip(fam.members, fam.s_grid):
            solo = simulate_prolonged(sys, gamma0(float(s)), (b - a).tolist(), u=u,
                                      t_final=0.2, stepper=Rk4(1e-2))
            for col in ("times", "x", "dx", "u", "du", "y", "dy", "xdot", "dxdot"):
                assert np.array_equal(getattr(m, col), getattr(solo, col)), col

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            homotopy_integrate(scalar_cubic(), lambda s: [s], n_s=2)


class TestFinslerLength:
    def test_straight_line_euclidean_length(self):
        a = np.array([0.2, -0.1])
        b = np.array([1.0, 0.7])
        sys = lti([[0.0, 0.0], [0.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        fam = homotopy_integrate(
            sys, lambda s: (a + s * (b - a)).tolist(), t_final=0.01, n_s=9,
            gamma0_deriv=lambda s: (b - a).tolist(),
        )
        trace = finsler_length(fam, euclid)
        assert trace.lengths[0] == pytest.approx(float(np.linalg.norm(b - a)), rel=1e-9)

    def test_identical_family_zero_length(self):
        fam = homotopy_integrate(scalar_cubic(), lambda s: [1.0], t_final=0.2, n_s=5)
        trace = finsler_length(fam, euclid)
        assert np.max(trace.lengths) == 0.0

    def test_non_homogeneous_gauge_rejected(self):
        fam = homotopy_integrate(scalar_cubic(), lambda s: [0.5 + s], t_final=0.2, n_s=5)
        with pytest.raises(InvalidFinslerStructure):
            finsler_length(fam, lambda x, dx: float(np.linalg.norm(dx)) ** 2 + 0.1)

    def test_storage_gauge_accepted(self):
        storage = QuadraticDifferentialStorage.identity(1)
        fam = homotopy_integrate(scalar_stiffening(), lambda s: [0.5 + s], t_final=0.5, n_s=5)
        trace = finsler_length(fam, storage.gauge)
        assert np.all(np.diff(trace.lengths) <= 0.0)
        assert trace.convexity_violations == 0  # quadratic gauges are strictly convex

    @pytest.mark.parametrize("rows", [
        [["2", "0.5"], ["-0.5", "1"]],
        [["1", "0"], ["x1", "1 + x2^2"]],
    ], ids=["constant", "expression"])
    def test_library_gauge_batched_equals_per_point(self, rows):
        storage = QuadraticDifferentialStorage(
            compile_matrix([[parse(c) for c in row] for row in rows], ["x1", "x2"]), 2)
        fam = homotopy_integrate(rotation(), lambda s: [0.3 + s, -0.2 + 0.5 * s],
                                 t_final=0.5, n_s=9, stepper=Rk4(1e-2))
        assert _library_gauge(fam, storage.gauge) is not None
        batched = finsler_length(fam, storage.gauge)
        per_point = finsler_length(fam, lambda x, dx: storage.gauge(x, dx))
        assert batched.lengths.tobytes() == per_point.lengths.tobytes()
        assert batched.convexity_violations == per_point.convexity_violations

    @pytest.mark.parametrize("case", ["rotation", "motor"])
    def test_lengths_are_each_times_trapezoid(self, case):
        if case == "rotation":
            storage = QuadraticDifferentialStorage.identity(2)
            fam = homotopy_integrate(rotation(), lambda s: [0.3 + s, -0.2 + 0.5 * s],
                                     t_final=0.5, n_s=17, stepper=Rk4(1e-2))
        else:  # a converge run's family: 9 members under Rk45, the motor's storage
            from diffdiss.examples import induction_motor_virtual

            motor = induction_motor_virtual()
            storage = motor.storage
            a, b = [1.0, 0.0, 1.3, 0.2], [1.5, -0.3, 1.0, 0.6]
            line = lambda s: [p + s * (q - p) for p, q in zip(a, b)]
            fam = homotopy_integrate(motor.system, line,
                                     gamma0_deriv=lambda s: [q - p for p, q in zip(a, b)],
                                     u=[Signal.from_expr("0.3*sin(t)"),
                                        Signal.from_expr("0.2*cos(t)")],
                                     t_final=4.0, n_s=9, stepper=Rk45(1e-8))
        python_gauge = lambda x, dx: storage.gauge(x, dx)
        assert _library_gauge(fam, storage.gauge) is not None and len(fam.times) > 50
        for gauge in (storage.gauge, python_gauge):
            trace = finsler_length(fam, gauge)
            want = [_trapezoid(np.array([python_gauge(m.x[k].tolist(), m.dx[k].tolist())
                                         for m in fam.members]), fam.s_grid)
                    for k in range(len(fam.times))]
            assert trace.lengths.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("case", ["guard", "zero-over-zero"])
    def test_library_gauge_that_raises_raises_as_per_point(self, case):
        if case == "guard":
            # M is defined only where x1 >= 0, and the rotation leaves that half plane
            storage = QuadraticDifferentialStorage(
                compile_matrix([[parse("sqrt(x1)"), parse("0")], [parse("0"), parse("1")]],
                               ["x1", "x2"]), 2)
            fam = homotopy_integrate(rotation(), lambda s: [0.3 + s, 0.2], t_final=2.5,
                                     n_s=5, stepper=Rk4(1e-2))
            error = EvalError
        else:
            # the middle member rests at x = 0, where a batch gives nan for 0/0
            storage = QuadraticDifferentialStorage(lambda x: [[x[0] / x[0]]], 1)
            fam = homotopy_integrate(scalar_cubic(), lambda s: [s - 0.5], t_final=0.1,
                                     n_s=5, stepper=Rk4(1e-2))
            error = ZeroDivisionError
        raised = []
        for gauge in (storage.gauge, lambda x, dx: storage.gauge(x, dx)):
            with pytest.raises(error) as info:
                finsler_length(fam, gauge, homogeneity_checks=0)
            raised.append((str(info.value), getattr(info.value, "offset", None)))
        assert raised[0] == raised[1]

    def test_flat_gauge_convexity_violations_reported_not_fatal(self):
        rot = rotation()
        fam = homotopy_integrate(rot, lambda s: [1.0 + s, s], t_final=0.2, n_s=5)
        box = lambda x, dx: float(np.max(np.abs(dx)))  # subadditive, not strictly
        trace = finsler_length(fam, box, homogeneity_checks=50)
        assert trace.convexity_violations >= 0  # counted, never raises

    def test_refinement_converges_quadratically(self):
        sys = scalar_cubic()
        lengths = {}
        for n_s in (5, 9, 17):
            fam = homotopy_integrate(sys, lambda s: [0.3 + 1.2 * s], t_final=1.0,
                                     n_s=n_s, stepper=Rk4(1e-3))
            lengths[n_s] = finsler_length(fam, euclid).lengths[-1]
        # trapezoid halving the mesh shrinks the error by about 4
        d1 = abs(lengths[9] - lengths[5])
        d2 = abs(lengths[17] - lengths[9])
        assert d2 <= 0.5 * d1

    def test_chord_never_exceeds_length(self):
        sys = scalar_stiffening()
        fam = homotopy_integrate(sys, lambda s: [0.2 + 1.5 * s], t_final=1.0,
                                 n_s=17, stepper=Rk4(1e-3))
        trace = finsler_length(fam, euclid)
        chord = np.abs(fam.members[-1].x[:, 0] - fam.members[0].x[:, 0])
        assert np.all(chord <= trace.lengths * (1.0 + 1e-2) + 1e-12)


class TestNonexpansion:
    def test_contracting_scalar(self):
        fam = homotopy_integrate(scalar_stiffening(), lambda s: [0.5 + s],
                                 t_final=1.0, n_s=9, stepper=Rk4(1e-3))
        report = verify_nonexpansion(fam, euclid)
        assert report.passed
        assert np.all(np.diff(report.trace.lengths) < 0.0)  # strictly decreasing

    def test_rotation_boundary_case(self):
        fam = homotopy_integrate(rotation(), lambda s: [1.0 + s, -0.5 * s],
                                 t_final=2.0 * math.pi, n_s=9, stepper=Rk4(1e-3))
        report = verify_nonexpansion(fam, euclid)
        assert report.passed
        assert abs(report.margin) < 1e-6  # equality within tolerance

    def test_expanding_scalar_fails(self):
        growing = DynSystem(1, 1, lambda x, e: [x[0]], lambda x, e: [[1.0]],
                            lambda x, e: [x[0]])
        fam = homotopy_integrate(growing, lambda s: [0.1 + 0.5 * s], t_final=1.0, n_s=9)
        report = verify_nonexpansion(fam, euclid)
        assert not report.passed
        assert report.margin < 0.0


class TestFdOracle:
    def test_lti_exact_for_any_eps(self):
        sys = lti([[-1.0, 2.0], [0.0, -3.0]], [[1.0], [1.0]], [[1.0, 0.0]])
        traj = simulate_prolonged(sys, [1.0, -1.0], [0.3, 0.4],
                                  u=Signal.from_expr("sin(t)"), t_final=1.0,
                                  stepper=Rk4(1e-3))
        for eps in (1e-2, 1e-5):
            fd = fd_oracle(sys, [1.0, -1.0], [0.3, 0.4], eps,
                           u=Signal.from_expr("sin(t)"), t_final=1.0, stepper=Rk4(1e-3))
            assert np.max(np.abs(fd.values - traj.dx)) < 1e-8

    def test_cubic_first_order_convergence(self):
        sys = scalar_cubic()
        traj = simulate_prolonged(sys, [1.0], [1.0], t_final=1.0, stepper=Rk4(1e-3))
        errs = []
        for eps in (1e-3, 1e-4):
            fd = fd_oracle(sys, [1.0], [1.0], eps, t_final=1.0, stepper=Rk4(1e-3))
            errs.append(np.max(np.abs(fd.values[:, 0] - traj.dx[:, 0])))
        assert 7.0 <= errs[0] / errs[1] <= 13.0

    def test_zero_direction(self):
        fd = fd_oracle(scalar_cubic(), [1.0], [0.0], 1e-3, t_final=0.5)
        assert np.max(np.abs(fd.values)) == 0.0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_oracle(scalar_cubic(), [1.0], [1.0], 0.0)


def _strict_scalar():
    sys = scalar_leaky()
    storage = QuadraticDifferentialStorage.identity(1)
    # xdot = -x, y = x: dS/dt = -2S = dy du - dy^2 with du = 0 satisfied
    # with margin, so the output-strict supply is honest
    supply = SupplyRate.identity(1, strictness="output")
    return sys, storage, supply


class TestOutputConvergence:
    def test_identical_starts_zero_gap(self):
        sys, storage, supply = _strict_scalar()
        report = verify_output_convergence(sys, storage, supply, [1.0], [1.0],
                                           t_final=2.0, tol=1e-3, n_s=3)
        assert report.passed
        assert report.final_gap <= 1e-12

    def test_scalar_gap_decays_at_analytic_rate(self):
        sys, storage, supply = _strict_scalar()
        u = Signal.from_expr("0.5*sin(t)")
        t_final = 6.0
        report = verify_output_convergence(sys, storage, supply, [1.0], [2.0],
                                           u=u, t_final=t_final, tol=1e-2, n_s=5)
        assert report.passed
        assert report.barbalat_ok
        expected = math.exp(-t_final)
        assert report.final_gap / report.initial_gap == pytest.approx(expected, rel=1.0)
        # monotone storage-metric decay of the transported curve
        assert np.all(np.diff(report.lengths.lengths) <= 1e-12)

    def test_barbalat_bound_holds_per_node(self):
        sys, storage, supply = _strict_scalar()
        report = verify_output_convergence(sys, storage, supply, [0.5], [1.5],
                                           t_final=4.0, tol=0.1, n_s=5)
        for integral, s0 in report.barbalat_bounds:
            assert integral <= s0 * (1.0 + 1e-9) + 1e-12

    def test_requires_output_strict_supply(self):
        sys, storage, _ = _strict_scalar()
        with pytest.raises(ValueError, match="output-strict"):
            verify_output_convergence(sys, storage, SupplyRate.identity(1),
                                      [0.0], [1.0])

    def test_zero_over_zero_in_the_supply_fails_the_check(self):
        # member s = 0 rests at x = 0, where W = x/x is 0/0: a float call
        # raised, a batch gives nan, and a nan must not pass the bound
        sys, storage, _ = _strict_scalar()
        supply = SupplyRate(lambda x: [[x[0] / x[0]]], 1, strictness="output")
        with pytest.raises(NumericalError, match="member s=0 .* t = 0"):
            verify_output_convergence(sys, storage, supply, [0.0], [1.0],
                                      t_final=0.5, n_s=3, stepper=Rk4(1e-2))

    def test_unbounded_trajectory_detected(self):
        growing = DynSystem(1, 1, lambda x, e: [x[0]], lambda x, e: [[1.0]],
                            lambda x, e: [x[0]])
        storage = QuadraticDifferentialStorage.identity(1)
        supply = SupplyRate.identity(1, strictness="output")
        with pytest.raises(UnboundedTrajectoryError):
            verify_output_convergence(growing, storage, supply, [1.0], [2.0],
                                      t_final=30.0, n_s=3, state_bound=100.0)
