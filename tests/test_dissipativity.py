import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss import (
    GridSpec,
    InvalidCertificate,
    InvalidSupply,
    QuadraticDifferentialStorage,
    Rk4,
    SupplyRate,
    audit,
    check_ap,
    check_uc,
    rc_circuit,
    simulate_prolonged,
)
from diffdiss.dissipativity import SupplyIntegrabilityError
from diffdiss.examples import lti
from diffdiss.numerics import NumericalError
from diffdiss.systems import DynSystem, Signal

from conftest import scalar_leaky, scalar_stiffening


class TestStorage:
    def test_identity_factor_value(self):
        s = QuadraticDifferentialStorage.identity(2)
        assert s.value([0.0, 0.0], [3.0, 4.0]) == 12.5

    def test_zero_displacement(self, rng):
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0 + x[0] ** 2, 0.0], [0.0, 2.0]], 2
        )
        for _ in range(5):
            assert s.value(rng.standard_normal(2).tolist(), [0.0, 0.0]) == 0.0

    def test_state_dependent_factor(self):
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0, 0.0], [0.0, 1.0 + x[0] ** 2]], 2
        )
        assert s.value([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_homogeneity(self, rng):
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0 + x[1] ** 2, 0.5], [0.0, 2.0]], 2
        )
        x = rng.standard_normal(2).tolist()
        dx = rng.standard_normal(2).tolist()
        for lam in (0.25, 2.0, 117.0):
            assert s.value(x, [lam * v for v in dx]) == pytest.approx(
                lam**2 * s.value(x, dx), rel=1e-12
            )
            assert s.gauge(x, [lam * v for v in dx]) == pytest.approx(
                lam * s.gauge(x, dx), rel=1e-12
            )

    def test_projector_vertical_invariance(self, rng):
        proj = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
            3,
            p_fun=lambda x: proj,
        )
        x = [0.1, 0.2, 0.3]
        dx = rng.standard_normal(3).tolist()
        for _ in range(10):
            w = rng.standard_normal()
            vertical = [0.0, 0.0, w]  # kernel of the projector
            shifted = [a + b for a, b in zip(dx, vertical)]
            assert s.value(x, shifted) == pytest.approx(s.value(x, dx), rel=1e-12)

    def test_non_idempotent_projector_rejected(self):
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
            p_fun=lambda x: [[1.0, 0.1], [0.0, 0.9]],
        )
        with pytest.raises(ValueError, match="idempotent"):
            s.value([0.0, 0.0], [1.0, 1.0])

    def test_from_potential_builds_hessian_factor(self):
        s = QuadraticDifferentialStorage.from_potential(
            lambda x: 0.5 * x[0] ** 2 + 0.25 * x[0] ** 4, 1
        )
        # factor at x is 1 + 3x^2
        assert s.value([1.0], [1.0]) == pytest.approx(0.5 * 16.0)
        assert s.value([0.0], [2.0]) == pytest.approx(2.0)

    def test_from_potential_symmetric_mixed_partials(self):
        s = QuadraticDifferentialStorage.from_potential(
            lambda x: x[0] ** 2 * x[1] + x[1] ** 3, 2
        )
        m = np.asarray(s.m_fun([0.3, -0.4]), dtype=float)
        assert np.allclose(m, m.T, atol=1e-12)

    def test_rate_matches_grad_split(self, rng):
        s = QuadraticDifferentialStorage(
            lambda x: [[1.0 + x[0] ** 2, 0.0], [x[1], 2.0]], 2
        )
        x = rng.standard_normal(2).tolist()
        dx = rng.standard_normal(2).tolist()
        xdot = rng.standard_normal(2).tolist()
        dxdot = rng.standard_normal(2).tolist()
        direct = s.rate(x, dx, xdot, dxdot)
        split = float(s.grad_x(x, dx) @ xdot + s.grad_dx(x, dx) @ dxdot)
        assert direct == pytest.approx(split, rel=1e-12)


class TestSupply:
    def test_orthogonal_pairing(self):
        w = SupplyRate.identity(2)
        assert w.value([0.0], [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_aligned_pairing(self):
        w = SupplyRate.identity(2)
        assert w.value([0.0], [1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_rc_supply_value(self):
        rc = rc_circuit()
        # W(1) = 1/mu'(1) = 1/4; dV = 2, dI = 1 pairs to 0.5
        assert rc.supply.value([1.0], [1.0], [2.0]) == pytest.approx(0.5)

    def test_asymmetric_tensor_rejected(self):
        w = SupplyRate(lambda x: [[1.0, 0.1], [0.0, 1.0]], 2)
        with pytest.raises(InvalidSupply):
            w.value([0.0], [1.0, 0.0], [0.0, 1.0])

    def test_output_strict_subtracts_output_energy(self):
        w = SupplyRate.identity(1, strictness="output")
        assert w.value([0.0], [2.0], [3.0]) == pytest.approx(2.0 * 3.0 - 4.0)


def _storage1() -> QuadraticDifferentialStorage:
    return QuadraticDifferentialStorage.identity(1)


class TestAudit:
    def test_passive_lti(self):
        traj = simulate_prolonged(
            scalar_leaky(), [1.0], [1.0], u=Signal.from_expr("sin(t)"),
            du=Signal.from_expr("0.5*cos(t)"), t_final=2.0, stepper=Rk4(1e-3),
        )
        report = audit(traj, _storage1(), SupplyRate.identity(1))
        # slack is dx^2 >= 0 pointwise for this textbook passive system
        assert report.passed
        assert np.all(report.slack >= -1e-12)
        assert np.allclose(report.slack, traj.dx[:, 0] ** 2, atol=1e-12)

    def test_rc_identity_and_slack(self):
        rc = rc_circuit()
        traj = rc.port_trajectory(0.3, 0.7, Signal.from_expr("0.4*sin(2*t)"),
                                  t_final=1.0, stepper=Rk4(1e-3))
        report = audit(traj, rc.storage, rc.supply)
        assert report.passed
        w = np.array([rc.supply.w_matrix([x])[0, 0] for x in traj.x[:, 0]])
        di_r = traj.du[:, 0] / rc.params.R  # dv_r = dV, di_r = dV/R
        resid = report.Q - (report.dSdt + w * rc.params.R * di_r**2)
        assert np.max(np.abs(resid)) < 1e-9

    def test_antipassive_fails_with_positive_violation(self):
        growing = DynSystem(
            1, 1,
            lambda x, e: [x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
        )
        traj = simulate_prolonged(growing, [0.5], [1.0], t_final=1.0)
        report = audit(traj, _storage1(), SupplyRate.identity(1))
        assert not report.passed
        assert report.worst_violation > 0.0

    def test_integral_form_consistent(self):
        traj = simulate_prolonged(
            scalar_leaky(), [1.0], [1.0], u=Signal.from_expr("sin(t)"),
            du=Signal.from_expr("cos(t)"), t_final=2.0, stepper=Rk4(1e-3),
        )
        report = audit(traj, _storage1(), SupplyRate.identity(1))
        assert np.all(report.integral_slack >= -1e-9)

    def test_nonfinite_supply_detected(self):
        traj = simulate_prolonged(scalar_leaky(), [1.0], [1.0], t_final=0.1)
        bad = SupplyRate(lambda x: [[float("nan")]], 1)
        with pytest.raises((SupplyIntegrabilityError, InvalidSupply)):
            audit(traj, _storage1(), bad)

    def test_nonfinite_storage_detected(self):
        traj = simulate_prolonged(scalar_leaky(), [1.0], [1.0], t_final=0.1)
        huge = QuadraticDifferentialStorage(lambda x: [[1e200 * x[0]]], 1)
        with pytest.raises(NumericalError, match=r"storage column S is not finite at t=0\b"):
            audit(traj, huge, SupplyRate.identity(1))

    def test_state_strict_decay_required(self):
        # xdot = -x is strictly passive with rate 2S; rate 10S must fail
        traj = simulate_prolonged(scalar_leaky(), [1.0], [1.0], t_final=2.0)
        ok = audit(traj, _storage1(),
                   SupplyRate.identity(1, strictness="state", state_rate=lambda s: 2.0 * s))
        too_much = audit(traj, _storage1(),
                         SupplyRate.identity(1, strictness="state", state_rate=lambda s: 10.0 * s))
        assert ok.passed
        assert not too_much.passed


class TestLinearEquivalence:
    def test_differential_equals_incremental_traces(self):
        # the displacement audit of an LTI system reproduces the classical
        # paired-solution audit of the same system exactly
        a = [[-1.0, 0.5], [-0.5, -2.0]]
        b = [[1.0], [0.0]]
        c = [[1.0, 0.0]]
        sys = lti(a, b, c)
        x0 = [1.0, -0.5]
        delta0 = [0.8, 0.6]
        u = Signal.from_expr("sin(t)")
        du = Signal.from_expr("0.3*cos(2*t)")
        storage = QuadraticDifferentialStorage.identity(2)
        supply = SupplyRate.identity(1)
        traj = simulate_prolonged(sys, x0, delta0, u=u, du=du, t_final=2.0, stepper=Rk4(1e-3))
        diff_report = audit(traj, storage, supply)

        from diffdiss import simulate

        u2 = Signal.analytic(lambda t: u.at(t) + du.at(t))
        one = simulate(sys, x0, u=u, t_final=2.0, stepper=Rk4(1e-3))
        two = simulate(sys, [x0[0] + delta0[0], x0[1] + delta0[1]], u=u2,
                       t_final=2.0, stepper=Rk4(1e-3))
        dx_cl = two.x - one.x
        du_cl = two.u - one.u
        dy_cl = two.y - one.y
        s_cl = 0.5 * np.sum(dx_cl**2, axis=1)
        q_cl = np.sum(dy_cl * du_cl, axis=1)
        dxdot_cl = dx_cl @ np.asarray(a).T + du_cl @ np.asarray(b).T
        slack_cl = q_cl - np.sum(dx_cl * dxdot_cl, axis=1)
        assert np.max(np.abs(diff_report.S - s_cl)) < 1e-10
        assert np.max(np.abs(diff_report.Q - q_cl)) < 1e-10
        assert np.max(np.abs(diff_report.slack - slack_cl)) < 1e-10


class TestGridSpec:
    def test_lattice_and_random_deterministic(self):
        g = GridSpec.box([-1.0, 0.0], [1.0, 2.0], [3, 2], extra_random=5, seed=42)
        pts = g.points()
        assert pts.shape == (11, 2)
        assert np.array_equal(pts, GridSpec.box([-1.0, 0.0], [1.0, 2.0], [3, 2],
                                                extra_random=5, seed=42).points())

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec.box([0.0], [1.0], [0])
        with pytest.raises(ValueError):
            GridSpec.box([1.0], [0.0], [2])


class TestCheckUc:
    def test_passive_lti_passes(self):
        sys = lti([[-1.0, 1.0], [-1.0, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        report = check_uc(
            sys,
            lambda x: [[1.0, 0.0], [0.0, 1.0]],
            [[1.0], [0.0]],
            lambda x: [[1.0]],
            GridSpec.box([-1.0, -1.0], [1.0, 1.0], [3, 3]),
        )
        assert report.passed
        assert report.condition("storage-decay").worst <= 0.0

    def test_sign_flip_fails_with_positive_margin(self):
        sys = lti([[1.0, 1.0], [-1.0, 2.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        report = check_uc(
            sys,
            lambda x: [[1.0, 0.0], [0.0, 1.0]],
            [[1.0], [0.0]],
            lambda x: [[1.0]],
            GridSpec.box([-1.0, -1.0], [1.0, 1.0], [3, 3]),
        )
        assert not report.passed
        assert report.condition("storage-decay").worst > 0.0

    def test_scalar_stiffening_spring(self):
        report = check_uc(
            scalar_stiffening(),
            lambda x: [[1.0]],
            [[1.0]],
            lambda x: [[1.0]],
            GridSpec.box([-2.0], [2.0], [41]),
        )
        assert report.passed
        # derivative of -(x + x^3) peaks at x = 0 with value -1
        assert report.condition("storage-decay").worst == pytest.approx(-1.0, abs=1e-12)

    def test_singular_pi_rejected(self):
        with pytest.raises(InvalidCertificate):
            check_uc(
                lti([[-1.0, 0.0], [0.0, -1.0]], [[1.0], [0.0]], [[1.0, 0.0]]),
                lambda x: [[1.0, 0.0], [0.0, 1.0]],
                [[0.0], [0.0]],
                lambda x: [[1.0]],
                GridSpec.box([-1.0, -1.0], [1.0, 1.0], [2, 2]),
            )

    def test_throughput_rejected(self):
        sys = lti([[-1.0]], [[1.0]], [[1.0]], d=[[1.0]])
        with pytest.raises(InvalidCertificate):
            check_uc(sys, lambda x: [[1.0]], [[1.0]], lambda x: [[1.0]],
                     GridSpec.box([-1.0], [1.0], [3]))

    def test_certified_grid_implies_audit_passes(self):
        # a certificate over the box visited by the trajectory bounds the audit
        sys = scalar_stiffening()
        report = check_uc(sys, lambda x: [[1.0]], [[1.0]], lambda x: [[1.0]],
                          GridSpec.box([-2.0], [2.0], [41]))
        assert report.passed
        traj = simulate_prolonged(sys, [1.5], [1.0], u=Signal.from_expr("0.3*sin(t)"),
                                  du=Signal.from_expr("0.1*cos(t)"), t_final=3.0)
        assert np.max(np.abs(traj.x)) <= 2.0
        assert audit(traj, _storage1(), SupplyRate.identity(1)).passed


class TestCheckAp:
    def _grids(self, n):
        return (GridSpec.box([-1.0] * n, [1.0] * n, [3] * n),
                GridSpec.box([-1.0] * n, [1.0] * n, [3] * n))

    def test_constant_coefficient_pass(self):
        sys = lti([[-1.0]], [[1.0]], [[1.0]], d=[[1.0]])
        gx, gu = self._grids(1)
        report = check_ap(sys, lambda x: [[1.0]], lambda x: [[1.0]], gx, gu)
        assert report.passed
        assert report.condition("throughput-gain-match").worst == pytest.approx(0.0)

    def test_negative_throughput_fails(self):
        sys = lti([[-1.0]], [[1.0]], [[1.0]], d=[[-1.0]])
        gx, gu = self._grids(1)
        report = check_ap(sys, lambda x: [[1.0]], lambda x: [[1.0]], gx, gu)
        assert not report.passed
        cond = report.condition("throughput-positivity")
        assert cond.worst == pytest.approx(-1.0)

    def test_state_dependent_throughput_mismatch(self):
        sys = DynSystem(
            1, 1,
            lambda x, e: [-x[0]],
            lambda x, e: [[1.0]],
            lambda x, e: [x[0]],
            i=lambda x, e: [[1.0 + x[0] ** 2]],
        )
        gx, gu = self._grids(1)
        report = check_ap(sys, lambda x: [[1.0]], lambda x: [[1.0]], gx, gu)
        assert not report.passed
        cond = report.condition("throughput-gain-match")
        # |2 x u - 0| is largest at the grid corner
        assert cond.worst == pytest.approx(2.0)
        assert abs(cond.point[0]) == pytest.approx(1.0)

    def test_requires_throughput(self):
        with pytest.raises(InvalidCertificate):
            gx, gu = self._grids(1)
            check_ap(scalar_leaky(), lambda x: [[1.0]], lambda x: [[1.0]], gx, gu)


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_min_rate_combination_inequality(s1, s2, lam1, lam2):
    # combining linear decay rates by min and halving the argument never
    # overstates the available decay
    a1 = lambda s: lam1 * s
    a2 = lambda s: lam2 * s
    combined = min(a1((s1 + s2) / 2.0), a2((s1 + s2) / 2.0))
    assert a1(s1) + a2(s2) >= combined - 1e-9 * max(1.0, combined)
