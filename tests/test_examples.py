import math

import numpy as np
import pytest

from diffdiss import (
    FeedforwardConstructionError,
    ModelDomainError,
    MotorParams,
    Rk4,
    RcParams,
    Signal,
    audit,
    induction_motor_virtual,
    motor_currents,
    motor_feedforward,
    motor_flux_margins,
    rc_circuit,
    simulate,
    simulate_prolonged,
)
from diffdiss import examples
from diffdiss.examples import RcCircuit, lti, motor_field
from diffdiss.numerics import cos as d_cos, dot, jvp, mat_vec, seed, sin as d_sin
from diffdiss.systems import DynSystem, lift


class TestRcCircuit:
    def test_linear_capacitor_reduces_to_classical(self):
        rc = rc_circuit(RcParams(mu="q"))
        traj = rc.port_trajectory(0.5, 1.0, Signal.from_expr("0.3*sin(t)"),
                                  t_final=2.0, stepper=Rk4(1e-3))
        report = audit(traj, rc.storage, rc.supply)
        assert report.passed
        # with mu' = 1 the slack is exactly R * di_r^2 = dV^2 / R
        want = traj.du[:, 0] ** 2 / rc.params.R
        assert np.max(np.abs(report.slack - want)) < 1e-12

    def test_dissipation_identity_random_trajectories(self, rng):
        rc = rc_circuit()
        for _ in range(10):
            q0, dq0 = rng.uniform(-1.0, 1.0, size=2)
            amp, freq = rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0)
            drive = Signal.analytic(lambda t, a=amp, w=freq: a * d_sin(w * t))
            traj = rc.port_trajectory(q0, dq0, drive, t_final=1.0, stepper=Rk4(1e-3))
            report = audit(traj, rc.storage, rc.supply)
            assert report.passed
            w = np.array([rc.supply.w_matrix([x])[0, 0] for x in traj.x[:, 0]])
            di_r = traj.du[:, 0] / rc.params.R
            resid = report.dSdt - report.Q + w * rc.params.R * di_r**2
            assert np.max(np.abs(resid)) < 1e-9

    def test_decreasing_law_accepted_on_safe_interval(self):
        rc = rc_circuit(RcParams(mu="q - q^3", q_range=(-0.5, 0.5)))
        assert rc.supply.w_matrix([0.0])[0, 0] == pytest.approx(1.0)

    def test_decreasing_law_rejected_past_turning_point(self):
        with pytest.raises(ModelDomainError) as err:
            rc_circuit(RcParams(mu="q - q^3", q_range=(-0.6, 0.6)))
        assert str(err.value) == ("mu is not strictly increasing on [-0.6, 0.6] "
                                  "(d mu/dq <= 0 at q = -0.6)")

    def test_batched_slope_check_equals_scalar_slopes(self):
        for mu in ("q + q^3", "q", "exp(q) + tanh(q)/3"):
            rc = rc_circuit(RcParams(mu=mu))
            qs = np.linspace(-1.5, 1.5, rc.params.n_check)
            batch = np.broadcast_to(rc._dmu(qs), qs.shape)
            assert np.array_equal(batch, [rc._dmu(float(q)) for q in qs])

    def test_first_bad_point_is_reported(self):
        with pytest.raises(ModelDomainError, match=r"at q = 0\.58\)"):
            rc_circuit(RcParams(mu="q - q^3", q_range=(0.0, 1.0), n_check=101))

    def test_nan_slope_fails_the_monotonicity_check(self, monkeypatch):
        slope = RcCircuit._dmu

        def nan_at_half(self, q):
            return np.where(q == 0.5, np.nan, slope(self, q))

        monkeypatch.setattr(RcCircuit, "_dmu", nan_at_half)
        with pytest.raises(ModelDomainError, match=r"at q = 0\.5\)"):
            rc_circuit(RcParams(q_range=(0.0, 1.0), n_check=11))

    @pytest.mark.parametrize("mu, q_range, located", [
        ("q + sqrt(abs(q))", (0.0, 1.0), "at q = 0 (float division by zero)"),
        ("q + sqrt(abs(q))", (-1.0, 1.0), "at q = 0 (float division by zero)"),
        ("q + 1/q", (-1.0, 1.0), "at q = 0 (division by zero at offset 5)"),
        ("log(q) + q", (-1.0, 1.0), "at q = -1 (log of a non-positive value at offset 0)"),
    ])
    def test_slope_that_cannot_be_computed_is_located(self, mu, q_range, located):
        with pytest.raises(ModelDomainError) as err:
            rc_circuit(RcParams(mu=mu, q_range=q_range, n_check=11))
        assert str(err.value) == f"d mu/dq cannot be computed {located}"

    @pytest.mark.parametrize("mu", ["q + q^3", "q", "exp(q) + tanh(q)/3", "q + min(q, 0.5)",
                                    "q^0 + q", "q + q*q/4 - 1/(3 - q)"])
    def test_slope_is_the_dual_pass(self, rng, mu):
        # mu' comes from the tangent of the compiled mu, which is a dual pass
        # of mu bit for bit, on floats and batches
        rc = rc_circuit(RcParams(mu=mu, q_range=(-0.2, 0.2)))
        batch = rng.uniform(-1.5, 1.5, 7)
        for q in (*batch.tolist(), 0.0, -0.0, batch):
            want = jvp(lambda z: [rc.mu_value(z[0])], [q], [1.0])[0]
            assert np.asarray(rc._dmu(q)).tobytes() == np.asarray(want).tobytes()

    def test_runtime_domain_guard(self):
        rc = rc_circuit(RcParams(mu="q - q^3", q_range=(-0.5, 0.5)))
        with pytest.raises(ModelDomainError, match=r"^d mu/dq = -2 <= 0 at q = -1$"):
            rc.supply.w_matrix([-1.0])
        with pytest.raises(ModelDomainError):
            rc.supply.w_matrix([1.0])

    def test_mu_must_use_q_only(self):
        with pytest.raises(ModelDomainError):
            rc_circuit(RcParams(mu="q + z"))


class TestMotorModel:
    def test_linear_limit_constant_coupling(self):
        p = MotorParams(kappa_r=0.0, kappa_s=0.0, omega_r=Signal.zero(),
                        omega_s=Signal.zero())
        motor = induction_motor_virtual(p)
        traj = simulate_prolonged(motor.system, [1.0, 0.0, 0.5, -0.2], [1.0, -1.0, 0.5, 0.3],
                                  t_final=2.0, stepper=Rk4(1e-3))
        report = audit(traj, motor.storage, motor.supply)
        assert report.passed
        # slack equals the constant-coupling quadratic form minus the strict
        # output term
        m = motor.coupling_matrix([0.0, 0.0, 0.0, 0.0])
        w = motor.supply.w_matrix([0.0] * 4)
        for k in range(0, len(traj.times), 500):
            dphi = traj.dx[k]
            dy = traj.dy[k]
            want = float(dphi @ m @ dphi - dy @ w @ dy)
            assert report.slack[k] == pytest.approx(want, abs=1e-10)

    def test_flux_margins_on_grid(self):
        motor = induction_motor_virtual(MotorParams())
        report = motor_flux_margins(motor)
        assert report.passed
        assert report.min_saturation_margin > 0.0
        assert report.leakage_margin >= -1e-12

    def test_current_flux_alignment(self, rng):
        # the saturation term is parallel to the flux: the cross component
        # of F vanishes identically
        p = MotorParams()
        for _ in range(20):
            phi = rng.standard_normal(2)
            mag2 = float(phi @ phi)
            f = [p.kappa_r * mag2 * phi[0], p.kappa_r * mag2 * phi[1]]
            cross = f[0] * phi[1] - f[1] * phi[0]
            assert abs(cross) <= 1e-12

    def test_rotation_terms_never_enter_energy_balance(self, rng):
        # skew rotation blocks drop out of d|phi|^2/dt pointwise
        p = MotorParams()
        motor = induction_motor_virtual(p)
        u = [Signal.from_expr("0.2*sin(t)"), Signal.constant(0.1)]
        traj = simulate(motor.system, [1.0, 0.2, 0.8, -0.1], u=u, t_final=1.0,
                        stepper=Rk4(1e-2))
        for k in range(0, len(traj.times), 10):
            t = traj.times[k]
            x = traj.x[k].tolist()
            uv = traj.u[k].tolist()
            xdot = motor.system.rhs(t, x, uv)
            i_r, i_s = motor_currents(p, x)
            lhs = 2.0 * float(np.asarray(x) @ xdot)
            rhs = -2.0 * p.R_r * (x[0] * i_r[0] + x[1] * i_r[1])
            rhs += -2.0 * p.R_s * (x[2] * i_s[0] + x[3] * i_s[1])
            rhs += 2.0 * (x[2] * uv[0] + x[3] * uv[1])
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_virtual_embedding_under_time_varying_speed(self):
        # a trajectory of the flux equations driven by a rotor-speed record
        # satisfies the virtual system built with that same record
        omega_r = Signal.from_expr("9 + 0.5*sin(3*t)")
        p = MotorParams(omega_r=omega_r)
        motor = induction_motor_virtual(p)
        u = [Signal.constant(0.3), Signal.zero()]
        traj = simulate(motor.system, [1.0, 0.0, 1.2, 0.1], u=u, t_final=1.0,
                        stepper=Rk4(1e-3))
        rebuilt = induction_motor_virtual(MotorParams(omega_r=omega_r))
        for k in range(0, len(traj.times), 100):
            t = traj.times[k]
            r1 = motor.system.rhs(t, traj.x[k].tolist(), traj.u[k].tolist())
            r2 = rebuilt.system.rhs(t, traj.x[k].tolist(), traj.u[k].tolist())
            assert r1 == pytest.approx(r2, abs=1e-15)
        # central-difference consistency of the recorded trajectory
        mid = len(traj.times) // 2
        h = traj.times[mid + 1] - traj.times[mid]
        fd = (traj.x[mid + 1] - traj.x[mid - 1]) / (2.0 * h)
        rhs = motor.system.rhs(traj.times[mid], traj.x[mid].tolist(),
                               traj.u[mid].tolist())
        assert np.max(np.abs(fd - rhs)) < 1e-4


class TestMotorFeedforward:
    def test_constant_reference_closed_form_linear(self):
        p = MotorParams(kappa_r=0.0, kappa_s=0.0)
        phi_s_ref, u_s = motor_feedforward(p)
        w_g = 10.0 - 9.0
        scale = p.L_l * (1.0 / p.L_r + 1.0 / p.L_l)
        rot = p.L_l * w_g / p.R_r
        # phi_r* = (1, 0): stator reference is scale*(1,0) + rot*j(1,0)
        assert phi_s_ref[0].value(0.0) == pytest.approx(scale)
        assert phi_s_ref[1].value(0.0) == pytest.approx(rot)
        # constant reference, constant speeds: u_s is constant
        assert u_s[0].value(0.0) == pytest.approx(u_s[0].value(5.0))
        assert u_s[1].value(0.0) == pytest.approx(u_s[1].value(5.0))

    def test_zero_reference_gives_zero_input(self):
        p = MotorParams(phi_r_ref=(Signal.zero(), Signal.zero()))
        phi_s_ref, u_s = motor_feedforward(p)
        assert phi_s_ref[0].value(1.0) == 0.0
        assert phi_s_ref[1].value(1.0) == 0.0
        assert u_s[0].value(1.0) == 0.0
        assert u_s[1].value(1.0) == 0.0

    def test_saturated_reference_is_exact_trajectory(self):
        p = MotorParams()
        phi_s_ref, u_s = motor_feedforward(p)  # residual check ran inside
        motor = induction_motor_virtual(p)
        x0 = [1.0, 0.0, phi_s_ref[0].value(0.0), phi_s_ref[1].value(0.0)]
        traj = simulate(motor.system, x0, u=list(u_s), t_final=2.0, stepper=Rk4(1e-3))
        ref = np.array([[1.0, 0.0, phi_s_ref[0].value(t), phi_s_ref[1].value(t)]
                        for t in traj.times])
        assert np.max(np.abs(traj.x - ref)) < 1e-8

    def test_time_varying_reference(self):
        ref = (Signal.analytic(lambda t: d_cos(0.5 * t)),
               Signal.analytic(lambda t: d_sin(0.5 * t)))
        p = MotorParams(phi_r_ref=ref)
        phi_s_ref, u_s = motor_feedforward(p)
        assert math.isfinite(u_s[0].value(0.7))

    def test_sampled_reference_rejected(self):
        ref = (Signal.sampled([0.0, 1.0], [1.0, 1.0]), Signal.zero())
        with pytest.raises(FeedforwardConstructionError):
            motor_feedforward(MotorParams(phi_r_ref=ref))

    @pytest.mark.parametrize("row", range(4))
    def test_check_runs_the_integrated_field(self, monkeypatch, row):
        # the residual check compares with motor_field itself, so a drift off
        # by 1e-6 in any one row fails it
        field = examples.motor_field

        def perturbed(p, x, e):
            out = field(p, x, e)
            out[row] += 1e-6
            return out

        monkeypatch.setattr(examples, "motor_field", perturbed)
        with pytest.raises(FeedforwardConstructionError,
                           match=r"residual 1e-06 > 1e-08 at t = 0$"):
            motor_feedforward(MotorParams())

    def test_input_is_the_stator_law_of_motor_currents(self):
        # u_s = d(phi_s*)/dt + omega_s j phi_s* + R_s i_s, with i_s from motor_currents
        p = MotorParams(phi_r_ref=(Signal.analytic(lambda t: 1.0 + 0.2 * d_sin(t)),
                                   Signal.analytic(lambda t: 0.1 * d_cos(t))))
        phi_s_ref, u_s = motor_feedforward(p)
        t = 0.7
        x = [p.phi_r_ref[0].value(t), p.phi_r_ref[1].value(t),
             phi_s_ref[0].value(t), phi_s_ref[1].value(t)]
        i_s = motor_currents(p, x)[1]
        rot = [-x[3], x[2]]
        for k in range(2):
            want = phi_s_ref[k].deriv(t) + 10.0 * rot[k] + p.R_s * i_s[k]
            assert u_s[k].value(t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_regulation_converges(self):
        p = MotorParams()
        phi_s_ref, u_s = motor_feedforward(p)
        motor = induction_motor_virtual(p)
        ref0 = np.array([1.0, 0.0, phi_s_ref[0].value(0.0), phi_s_ref[1].value(0.0)])
        x0 = ref0 + np.array([0.4, -0.3, 0.2, 0.5])
        traj = simulate(motor.system, x0.tolist(), u=list(u_s), t_final=10.0,
                        stepper=Rk4(2e-3))
        ref_t = np.array([[1.0, 0.0, phi_s_ref[0].value(t), phi_s_ref[1].value(t)]
                          for t in traj.times])
        gap = np.linalg.norm(traj.x - ref_t, axis=1)
        assert gap[-1] <= 1e-3 * gap[0]


def _bits(values) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _dual_lift(sys: DynSystem, f, g, h, i=None) -> DynSystem:
    """The lift of ``sys`` with its maps replaced by the Python maps ``f``,
    ``g``, ``h`` and ``i``, which the lift runs as dual passes."""
    return lift(DynSystem(sys.n, sys.q, f, g, h, i=i, exo=sys.exo))


def _points(rng, n: int, members: int, width: int):
    """(X, U): a point of the lift of an n-state system and its input, for
    one member as floats or for a stack of ``members`` as strided arrays
    (the layout an ensemble's field hands the lift), with a per-member du."""
    if members == 1:
        return rng.standard_normal(2 * n).tolist(), rng.standard_normal(2 * width).tolist()
    X = list(rng.standard_normal((members, 2 * n)).T)
    return X, rng.standard_normal(width).tolist() + list(rng.standard_normal((width, members)))


class TestCompiledMotor:
    """The registry motor's maps are compiled from one run of
    ``motor_field`` on traced values: their tangents and the fused lifted
    right-hand side are, bit for bit, a dual pass of ``motor_field``."""

    PARAMS = {
        "default": {},
        "linear": {"kappa_r": 0.0, "kappa_s": 0.0},
        "expression-speed": {"omega_r": Signal.from_expr("9 + 0.5*sin(3*t)"), "kappa_s": 0.3},
    }

    @pytest.mark.parametrize("members", [1, 9])
    @pytest.mark.parametrize("case", sorted(PARAMS))
    def test_tangent_and_lifted_rhs_are_the_dual_pass(self, rng, case, members):
        p = MotorParams(**self.PARAMS[case])
        sys = induction_motor_virtual(p).system
        g_rows = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        reference = _dual_lift(sys, lambda x, e: motor_field(p, x, e),
                               lambda x, e: g_rows, lambda x, e: [x[2], x[3]])
        lifted = lift(sys)
        assert hasattr(lifted.rhs_with, "source")  # the fused generated program
        for t in (0.0, 0.37, 2.5):
            e = sys.exo_at(t)
            X, U = _points(rng, 4, members, 2)
            x, dx = X[:4], X[4:]
            want = motor_field(p, seed(x, dx), e)
            values, derivs = sys.f.tangent(x, dx, e)
            assert _bits(values) == _bits([w.value for w in want])
            assert _bits(derivs) == _bits([w.deriv for w in want])
            assert _bits(sys.f(x, e)) == _bits(motor_field(p, x, e))
            assert _bits(lifted.rhs_with(X, e, U)) == _bits(reference.rhs_with(X, e, U))
            assert _bits(lifted.output_with(X, e, U)) == _bits(reference.output_with(X, e, U))

    def test_homotopy_stack_runs_no_dual_pass(self, monkeypatch):
        import diffdiss.systems
        from diffdiss.numerics import Rk45
        from diffdiss.systems import simulate_ensemble

        def refuse(*args):
            raise AssertionError("systems.seed was called")

        monkeypatch.setattr(diffdiss.systems, "seed", refuse)
        p = MotorParams(omega_r=Signal.from_expr("9 + 0.5*sin(3*t)"))
        sys = induction_motor_virtual(p).system
        x0s = [[1.0, 0.0, 1.3 + 0.1 * k, 0.2] for k in range(9)]
        dx0s = [[0.1, -0.1, 0.05 * k, 0.0] for k in range(9)]
        u = [Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")]
        for stepper in (Rk4(1e-2), Rk45(tol=1e-8)):
            simulate_ensemble(sys, x0s, dx0s, u=u, t_final=0.1, stepper=stepper)

    def test_batched_speeds_match_the_dual_pass(self, rng):
        # the pass after integration reads each speed as one array of samples
        p = MotorParams(omega_r=Signal.from_expr("9 + 0.5*sin(3*t)"))
        sys = induction_motor_virtual(p).system
        times = np.linspace(0.0, 2.0, 9)
        e = {name: sig.many(times) for name, sig in sys.exo.items()}
        X, U = _points(rng, 4, 9, 2)
        want = motor_field(p, seed(X[:4], X[4:]), e)
        values, derivs = sys.f.tangent(X[:4], X[4:], e)
        assert _bits(values) == _bits([w.value for w in want])
        assert _bits(derivs) == _bits([w.deriv for w in want])


class TestLtiBuilder:
    def test_matrices_realized(self, rng):
        a = [[-1.0, 2.0], [0.5, -3.0]]
        b = [[1.0], [0.0]]
        c = [[0.0, 1.0]]
        d = [[0.3]]
        sys = lti(a, b, c, d)
        x = rng.standard_normal(2).tolist()
        u = rng.standard_normal(1).tolist()
        assert sys.rhs(0.0, x, u) == pytest.approx((np.asarray(a) @ x + np.asarray(b) @ u))
        assert sys.output(0.0, x, u) == pytest.approx(np.asarray(c) @ x + np.asarray(d) @ u)

    def test_large_system_builds_and_lifts(self, rng):
        # A, B, C, D stay Python maps of their rows, so an n-state LTI builds
        # in O(n^2) list copies with no per-entry program and no recursion
        n = 1000
        a = rng.standard_normal((n, n)).tolist()
        b = rng.standard_normal((n, 1)).tolist()
        c = rng.standard_normal((1, n)).tolist()
        sys = lti(a, b, c, d=[[0.5]])
        lifted = lift(sys)
        assert (lifted.n, lifted.q) == (2 * n, 2)
        x = rng.standard_normal(n).tolist()
        assert _bits(sys.f(x, {})) == _bits(mat_vec(a, x))
        assert _bits(sys.output_with(x, {}, [0.3])) == _bits(
            [hx + dot(row, [0.3]) for hx, row in zip(mat_vec(c, x), [[0.5]])])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lti([[1.0, 0.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            lti([[1.0]], [[1.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            lti([[1.0]], [[1.0]], [[1.0]], d=[[1.0, 0.0]])


class TestRcSupplyBatch:
    """The RC supply tensor W = 1 / mu'(q) is evaluated over a whole grid by
    the certificate checkers."""

    def test_batch_equals_each_point(self):
        rc = rc_circuit(RcParams(mu="q + q^3 + 0.1*sin(q)"))
        qs = np.linspace(-2.0, 2.0, 9)
        batch = rc.supply.w_fun([qs])[0][0]
        for k, q in enumerate(qs.tolist()):
            assert batch[k] == rc.supply.w_fun([q])[0][0]

    def test_domain_error_at_the_first_bad_point(self):
        rc = rc_circuit(RcParams(mu="q - q^3", q_range=(-0.5, 0.5)))
        with pytest.raises(ModelDomainError) as caught:
            rc.supply.w_fun([np.array([0.0, 0.1, -1.0, 2.0])])
        with pytest.raises(ModelDomainError) as single:
            rc.supply.w_fun([-1.0])
        assert str(caught.value) == str(single.value)


class TestFluxMarginsStacked:
    """The saturation margins come from one stacked eigenvalue call; a
    non-finite margin is an error, never skipped."""

    def test_matches_per_point_margins(self):
        from diffdiss import GridSpec
        from diffdiss.numerics import psd_margin

        motor = induction_motor_virtual(MotorParams(kappa_r=0.8, kappa_s=0.3, L_r=0.7))
        grid = GridSpec.box([-2.0] * 4, [2.0] * 4, [3] * 4, extra_random=64, seed=5)
        pts = grid.points()
        stack = motor.saturation_block(pts)
        for k, pt in enumerate(pts):
            assert stack[k].tobytes() == motor.saturation_block(pt.tolist()).tobytes()
        report = motor_flux_margins(motor, grid)
        assert report.min_saturation_margin == min(
            psd_margin(motor.saturation_block(pt.tolist())) for pt in pts)
        assert report.n_points == len(pts)

    def test_nonfinite_margin_raises(self):
        from diffdiss.numerics import NumericalError

        motor = induction_motor_virtual(MotorParams(kappa_r=math.inf))
        with pytest.raises(NumericalError, match=r"flux saturation margin is not finite "
                                                 r"at x = \(-2\.0, -2\.0, -2\.0, -2\.0\)"):
            motor_flux_margins(motor)
