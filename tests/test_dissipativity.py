import json

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
from diffdiss.dissipativity import CertificateReport, ConditionResult
from diffdiss.dissipativity import SupplyIntegrabilityError
from diffdiss.exprlang import compile_map, compile_matrix, evaluate, parse
from diffdiss.examples import lti
from diffdiss.numerics import NumericalError
from diffdiss.numerics import frobenius, jacobian, mat_vec, nsd_margin, psd_margin
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

    @pytest.mark.parametrize("rate, message", [
        (lambda s: -10.0 * s, r"state decay -5 is negative or not finite at t=0$"),
        (lambda s: float("nan"), r"state decay nan is negative or not finite at t=0$"),
        # S = e^{-2t} / 2 falls below 1/4 after t = log(2) / 2
        (lambda s: 2.0 * s if s > 0.25 else -s, r"state decay -0.249\d* is negative .* t=0.347$"),
        (lambda s: 2.0 * s if s > 0.25 else float("inf"), r"state decay inf .* at t=0.347$"),
    ], ids=["negative", "nan", "negative-later", "inf-later"])
    def test_decay_must_be_finite_and_non_negative(self, rate, message):
        # a negative decay would let an unstable system pass its audit
        traj = simulate_prolonged(scalar_leaky(), [1.0], [1.0], t_final=1.0, stepper=Rk4(1e-3))
        supply = SupplyRate.identity(1, strictness="state", state_rate=rate)
        with pytest.raises(InvalidSupply, match=message):
            audit(traj, _storage1(), supply)


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

    def test_requires_as_many_inputs_as_states(self):
        sys = lti([[-1.0, 0.0], [0.0, -1.0]], [[1.0], [0.0]], [[1.0, 0.0]], d=[[1.0]])
        gx = GridSpec.box([-1.0, -1.0], [1.0, 1.0], [2, 2])
        with pytest.raises(InvalidCertificate, match="input and state dimensions agree"):
            check_ap(sys, lambda x: [[1.0, 0.0], [0.0, 1.0]], lambda x: [[1.0]], gx,
                     self._grids(1)[1])


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


# ---------------------------------------------------------------------------
# batched certificate checkers against a per-point reference


class _RefWorst:
    """Per-point max/argmax (lowest index wins ties), as the checkers did
    before they were batched."""

    def __init__(self):
        self.value = -np.inf
        self.point = None
        self.input = None

    def update(self, value, point, input_=None):
        if value > self.value:
            self.value = float(value)
            self.point = tuple(float(v) for v in point)
            self.input = None if input_ is None else tuple(float(v) for v in input_)


def _ref_check_uc(sys, m_fun, pi, w_fun, grid, tol_margin=1e-9, tol_residual=1e-8, t=0.0):
    pi = np.asarray(pi, dtype=float)
    e = sys.exo_at(t)
    mf = lambda z: mat_vec(m_fun(z), sys.f(z, e))
    wa, wb, wc = _RefWorst(), _RefWorst(), _RefWorst()
    pts = grid.points()
    for p in pts:
        x = p.tolist()
        m = np.asarray(m_fun(x), dtype=float)
        wa.update(nsd_margin(m.T @ jacobian(mf, x)), p)
        g = np.asarray(sys.g(x, e), dtype=float)
        wb.update(frobenius(m @ g - pi), p)
        jh = jacobian(lambda z: sys.h(z, e), x)
        w = np.asarray(w_fun(x), dtype=float)
        wc.update(frobenius(jh.T @ w - m.T @ pi), p)
    conditions = [
        ConditionResult("storage-decay", "nsd-margin", wa.value, tol_margin,
                        wa.value <= tol_margin, wa.point),
        ConditionResult("input-gain-constancy", "residual", wb.value, tol_residual,
                        wb.value <= tol_residual, wb.point),
        ConditionResult("output-supply-match", "residual", wc.value, tol_residual,
                        wc.value <= tol_residual, wc.point),
    ]
    return CertificateReport(conditions, len(pts), all(c.passed for c in conditions))


def _ref_check_ap(sys, m_fun, w_fun, grid_x, grid_u, tol_margin=1e-9, tol_residual=1e-8,
                  t=0.0):
    e = sys.exo_at(t)
    mf = lambda z: mat_vec(m_fun(z), sys.f(z, e))
    w1, w2, w3, w4 = _RefWorst(), _RefWorst(), _RefWorst(), _RefWorst()
    pts_x, pts_u = grid_x.points(), grid_u.points()
    for p in pts_x:
        x = p.tolist()
        m = np.asarray(m_fun(x), dtype=float)
        w = np.asarray(w_fun(x), dtype=float)
        w1.update(nsd_margin(m.T @ jacobian(mf, x)), p)
        g = np.asarray(sys.g(x, e), dtype=float)
        jh = jacobian(lambda z: sys.h(z, e), x)
        w2.update(frobenius(jh.T @ w - m.T @ m @ g), p)
        ix = np.asarray(sys.i(x, e), dtype=float)
        w4.update(-psd_margin(ix.T @ w), p)
        for pu in pts_u:
            u = pu.tolist()
            j_iu = jacobian(lambda z: mat_vec(sys.i(z, e), u), x)
            j_mgu = jacobian(lambda z: mat_vec(m_fun(z), mat_vec(sys.g(z, e), u)), x)
            w3.update(frobenius(j_iu.T @ w - m.T @ j_mgu), p, pu)
    conditions = [
        ConditionResult("storage-decay", "nsd-margin", w1.value, tol_margin,
                        w1.value <= tol_margin, w1.point),
        ConditionResult("output-supply-match", "residual", w2.value, tol_residual,
                        w2.value <= tol_residual, w2.point),
        ConditionResult("throughput-gain-match", "residual", w3.value, tol_residual,
                        w3.value <= tol_residual, w3.point, w3.input),
        ConditionResult("throughput-positivity", "psd-margin", -w4.value, -tol_margin,
                        w4.value <= tol_margin, w4.point),
    ]
    return CertificateReport(conditions, len(pts_x) * len(pts_u),
                             all(c.passed for c in conditions))


def _expr_vector(texts, n):
    asts = [parse(t) for t in texts]
    names = [f"x{k + 1}" for k in range(n)]
    return lambda x, e=None: [evaluate(a, dict(zip(names, x))) for a in asts]


def _expr_matrix(rows, n):
    fns = [_expr_vector(row, n) for row in rows]
    return lambda x, e=None: [fn(x) for fn in fns]


def _expr_system(n, q, f, g, h, i=None):
    return DynSystem(n, q, _expr_vector(f, n), _expr_matrix(g, n), _expr_vector(h, n),
                     i=None if i is None else _expr_matrix(i, n), name="expr")


def _compiled_matrix(rows, n, exo=()):
    return compile_matrix([[parse(t) for t in row] for row in rows],
                          [f"x{k + 1}" for k in range(n)], exo)


def _compiled_system(n, q, f, g, h, i=None):
    """A compiled system whose maps read the exogenous signal w = 0.5 cos(3 t)."""
    vector = lambda texts: compile_map([parse(t) for t in texts],
                                       [f"x{k + 1}" for k in range(n)], ["w"])
    return DynSystem(n, q, vector(f), _compiled_matrix(g, n, ["w"]), vector(h),
                     i=None if i is None else _compiled_matrix(i, n, ["w"]),
                     exo={"w": Signal.from_expr("0.5*cos(3*t)")}, name="compiled")


def _same_report(a, b) -> bool:
    # json text compares floats by their repr, so -0.0 and 0.0 differ
    return json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestBatchedCheckersMatchReference:
    def test_uc_constant_margin_ties_pick_the_first_point(self):
        sys = lti([[-1.0, 1.0], [-1.0, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]])
        args = (sys, lambda x: [[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]],
                lambda x: [[1.0]], GridSpec.box([-2.0, -2.0], [2.0, 2.0], [7, 7]))
        report = check_uc(*args)
        assert _same_report(report, _ref_check_uc(*args))
        first = tuple(args[4].points()[0])
        for cond in report.conditions:
            assert cond.point == first

    @pytest.mark.parametrize("flipped", [False, True])
    def test_uc_state_dependent_maps(self, flipped):
        sign = "" if flipped else "-"
        sys = _expr_system(
            2, 1,
            [f"{sign}0.7*x1 - x1^3 + x2 + 0.1*sin(x2)", "-x1 - 1.3*x2 - x2^3"],
            [["0"], ["1/(1 + x1^2)"]], ["x2*(1 + x1^2)"],
        )
        m_fun = _expr_matrix([["1", "0"], ["0", "1 + x1^2"]], 2)
        w_fun = _expr_matrix([["1 + 0.5*x1^2 - 0.5*x1^2"]], 2)
        grid = GridSpec.box([-1.5, -1.5], [1.5, 1.5], [9, 7], extra_random=13, seed=4)
        args = (sys, m_fun, [[0.0], [1.0]], w_fun, grid)
        assert _same_report(check_uc(*args), _ref_check_uc(*args))

    def test_uc_scalar_stiffening(self):
        args = (scalar_stiffening(), lambda x: [[1.0]], [[1.0]], lambda x: [[1.0]],
                GridSpec.box([-2.0], [2.0], [41]))
        assert _same_report(check_uc(*args), _ref_check_uc(*args))

    @pytest.mark.parametrize("flipped", [False, True])
    def test_ap_benchmark_style_system(self, flipped):
        sign = "-" if flipped else ""
        sys = _expr_system(
            2, 2,
            ["-1.2*x1 - x1^3 + 0.3*x2", "-0.3*x1 - 0.8*x2 - x2^3"],
            [["1.1", "-0.2"], ["0.3", "0.9"]],
            ["1.1*x1 + 0.3*x2", "-0.2*x1 + 0.9*x2"],
            i=[[f"{sign}0.4", "0.5"], ["-0.5", f"{sign}0.6"]],
        )
        args = (sys, _expr_matrix([["1", "0"], ["0", "1"]], 2),
                _expr_matrix([["1", "0"], ["0", "1"]], 2),
                GridSpec.box([-1.5, -1.5], [1.5, 1.5], [5, 5]),
                GridSpec.box([-1.0, -1.0], [1.0, 1.0], [3, 3]))
        report = check_ap(*args)
        assert _same_report(report, _ref_check_ap(*args))
        assert report.condition("throughput-positivity").passed is not flipped

    def test_ap_state_dependent_throughput_ties(self):
        # |2 x u| peaks at all four grid corners; the first in x-major order wins
        sys = _expr_system(1, 1, ["-x1"], [["1"]], ["x1"], i=[["1 + x1^2 + 0.1*sin(x1)"]])
        args = (sys, _expr_matrix([["1 + 0.2*x1^2"]], 1), _expr_matrix([["2 - x1^2"]], 1),
                GridSpec.box([-1.0], [1.0], [5], extra_random=3, seed=2),
                GridSpec.box([-1.0], [1.0], [4]))
        report = check_ap(*args)
        assert _same_report(report, _ref_check_ap(*args))
        cond = report.condition("throughput-gain-match")
        assert cond.input is not None


    def test_uc_compiled_maps_with_an_exogenous_signal(self):
        sys = _compiled_system(
            2, 1, ["-(1 + w^2)*x1 + 0.3*w*x2", "-0.3*w*x1 - x2/(1 + x2^2)"],
            [["0"], ["(1 + 0.2*w)/(1 + x2^2)"]], ["x2 + w*x1"])
        args = (sys, _compiled_matrix([["1", "0"], ["0", "1 + x2^2"]], 2), [[0.0], [1.0]],
                _compiled_matrix([["1 + x2^2"]], 2),
                GridSpec.box([-1.5, -1.5], [1.5, 1.5], [9, 7], extra_random=5, seed=6))
        report = check_uc(*args, t=0.7)
        assert _same_report(report, _ref_check_uc(*args, t=0.7))
        assert not _same_report(report, check_uc(*args))

    def test_ap_compiled_maps_with_an_exogenous_signal(self):
        sys = _compiled_system(
            2, 2, ["-(1 + w^2)*x1 - x1^3 + 0.3*x2", "-0.3*x1 - x2 + w*x2^2"],
            [["1 + 0.1*w*x1", "-0.2"], ["0.3", "1/(1 + x2^2)"]],
            ["x1 + w*x2", "-0.2*x1 + x2"],
            i=[["0.5 + w*x1^2", "0.1"], ["-0.1", "0.6 + x2^2"]])
        args = (sys, _compiled_matrix([["1 + x2^2", "0"], ["0", "1"]], 2),
                _compiled_matrix([["1", "0"], ["0", "2 + x1^2"]], 2),
                GridSpec.box([-1.5, -1.5], [1.5, 1.5], [5, 4], extra_random=3, seed=8),
                GridSpec.box([-1.0, -1.0], [1.0, 1.0], [3, 2]))
        report = check_ap(*args, t=0.7)
        assert _same_report(report, _ref_check_ap(*args, t=0.7))
        assert not _same_report(report, check_ap(*args))


class TestCertificateMaps:
    """What both checkers share: one evaluation order, and a square M and W
    of the system's sizes."""

    @staticmethod
    def _check(checker, m_fun=None, w_fun=None, g=None):
        """``checker`` on a passive 2-state LTI system (q = 1 for check_uc;
        q = 2 with throughput for check_ap), the maps given replacing
        identity M and W and the system's g."""
        eye = lambda k: np.eye(k).tolist()
        grid = GridSpec.box([-1.0, -1.0], [1.0, 1.0], [3, 3])
        if checker == "check_uc":
            base = lti(-np.eye(2), [[0.0], [1.0]], [[0.0, 1.0]])
        else:
            base = lti(-np.eye(2), eye(2), eye(2), d=eye(2))
        sys = DynSystem(2, base.q, base.f, g or base.g, base.h, i=base.i)
        m_fun, w_fun = m_fun or (lambda x: eye(2)), w_fun or (lambda x: eye(base.q))
        if checker == "check_uc":
            return check_uc(sys, m_fun, [[0.0], [1.0]], w_fun, grid)
        return check_ap(sys, m_fun, w_fun, grid, grid)

    @pytest.mark.parametrize("checker", ["check_uc", "check_ap"])
    def test_the_valid_maps_pass(self, checker):
        assert self._check(checker).passed

    @pytest.mark.parametrize("checker", ["check_uc", "check_ap"])
    def test_w_is_read_before_g(self, checker):
        def g(x, e):
            raise ValueError("g failed")

        def w_fun(x):
            raise ValueError("W failed")

        with pytest.raises(ValueError, match="W failed"):
            self._check(checker, w_fun=w_fun, g=g)

    @pytest.mark.parametrize("checker", ["check_uc", "check_ap"])
    def test_m_must_be_n_by_n(self, checker):
        with pytest.raises(InvalidCertificate, match=r"^M must be 2x2, got \(1, 1\)$"):
            self._check(checker, m_fun=lambda x: [[1.0]])

    @pytest.mark.parametrize("checker, q, wrong", [("check_uc", 1, 2), ("check_ap", 2, 1)])
    def test_w_must_be_q_by_q(self, checker, q, wrong):
        with pytest.raises(InvalidCertificate,
                           match=rf"^W must be {q}x{q}, got \({wrong}, {wrong}\)$"):
            self._check(checker, w_fun=lambda x: np.eye(wrong).tolist())

    @pytest.mark.parametrize("checker, q, wrong", [("check_uc", 1, 2), ("check_ap", 2, 1)])
    def test_g_must_be_n_by_q(self, checker, q, wrong):
        with pytest.raises(InvalidCertificate,
                           match=rf"^g must be 2x{q}, got \(2, {wrong}\)$"):
            self._check(checker, g=lambda x, e: np.ones((2, wrong)).tolist())

    @pytest.mark.parametrize("checker", ["check_uc", "check_ap"])
    @pytest.mark.parametrize("name", ["M", "W", "g"])
    def test_ragged_rows_name_the_map(self, checker, name):
        ragged = [[1.0, 0.0], [0.0]]
        maps = {"M": dict(m_fun=lambda x: ragged), "W": dict(w_fun=lambda x: ragged),
                "g": dict(g=lambda x, e: ragged)}[name]
        with pytest.raises(InvalidCertificate,
                           match=rf"^{name} has rows of unequal lengths \[2, 1\]$"):
            self._check(checker, **maps)

    @pytest.mark.parametrize("checker", ["check_uc", "check_ap"])
    def test_ragged_m_is_rejected_before_w_is_read(self, checker):
        def w_fun(x):
            raise ValueError("W failed")

        with pytest.raises(InvalidCertificate, match="^M has rows"):
            self._check(checker, m_fun=lambda x: [[1.0, 0.0], [0.0]], w_fun=w_fun)


class TestNonFiniteCertificate:
    def test_uc_nan_residual_names_condition_and_first_point(self):
        sys = _expr_system(2, 1, ["-x1", "-x2"],
                           [["0"], ["1 + ((x2^16)^16)^2 - ((x2^16)^16)^2"]], ["x2"])
        with pytest.raises(NumericalError) as caught:
            check_uc(sys, lambda x: [[1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0]],
                     lambda x: [[1.0]], GridSpec.box([-10.0, -10.0], [10.0, 10.0], [5, 5]))
        assert str(caught.value) == (
            "certificate condition input-gain-constancy is not finite at x = (-10.0, -10.0)")

    def test_uc_overflowing_decay_matrix_is_not_a_finite_margin(self):
        # M^T D[M f] = -1e400 overflows; LAPACK alone would return a finite margin
        sys = _expr_system(1, 1, ["-x1"], [["1"]], ["x1"])
        with pytest.raises(NumericalError) as caught:
            check_uc(sys, lambda x: [[1e200]], [[1e200]], lambda x: [[1.0]],
                     GridSpec.box([-1.0], [1.0], [3]))
        assert str(caught.value) == (
            "certificate condition storage-decay is not finite at x = (-1.0,)")

    def test_uc_overflowing_2x2_decay_names_the_first_point(self):
        # M^T D[M f] = diag(-3e400 x1^2, -1) is finite at x1 = 0 only
        sys = _expr_system(2, 1, ["-x1^3", "-x2"], [["0"], ["1"]], ["x2"])
        with pytest.raises(NumericalError) as caught:
            check_uc(sys, lambda x: [[1e200, 0.0], [0.0, 1.0]], [[0.0], [1.0]],
                     lambda x: [[1.0]], GridSpec.box([0.0, -1.0], [1.0, 1.0], [3, 3]))
        assert str(caught.value) == (
            "certificate condition storage-decay is not finite at x = (0.5, -1.0)")

    def test_ap_gain_match_overflow_names_the_input(self):
        sys = _expr_system(1, 1, ["-x1"], [["1"]], ["x1"], i=[["1 + 1e300*x1"]])
        grids = (GridSpec.box([-1.0], [1.0], [3]), GridSpec.box([0.0], [1.0], [3]))
        with pytest.raises(NumericalError) as caught:
            check_ap(sys, lambda x: [[1.0]], lambda x: [[1e10]], *grids)
        assert str(caught.value) == ("certificate condition throughput-gain-match is not "
                                     "finite at x = (-1.0,), u = (0.5,)")


def _ref_audit(traj, storage, supply, tol=1e-9):
    """The per-sample audit the batched one replaced, kept as the reference."""
    N = len(traj.times)
    S = np.empty(N)
    Q = np.empty(N)
    dS = np.empty(N)
    for k in range(N):
        x = traj.x[k].tolist()
        dx = traj.dx[k].tolist()
        S[k] = storage.value(x, dx)
        dS[k] = storage.rate(x, dx, traj.xdot[k].tolist(), traj.dxdot[k].tolist())
        Q[k] = supply.value(x, traj.dy[k], traj.du[k])
    for col, error, what in (
        (S, NumericalError, "storage column S"),
        (dS, NumericalError, "storage column dS/dt"),
        (Q, SupplyIntegrabilityError, "supply sample"),
    ):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise error(f"{what} is not finite at t={traj.times[bad[0]]:.6g}")
    decay = np.zeros(N)
    if supply.strictness == "state":
        decay = np.array([supply.state_rate(s) for s in S])
    violation = dS + decay - Q
    q_eff = Q - decay
    integral_q = np.concatenate(
        ([0.0], np.cumsum(0.5 * (q_eff[1:] + q_eff[:-1]) * np.diff(traj.times)))
    )
    worst = int(np.argmax(violation))
    return S, dS, Q, -violation, integral_q - (S - S[0]), worst


def _two_state_system():
    from diffdiss.numerics import sin
    return DynSystem(
        2, 2,
        lambda x, e: [-x[0] - x[0] * x[0] * x[0] + x[1], -x[1] - sin(x[0])],
        lambda x, e: [[1.0, 0.0], [0.0, 1.0 + 0.5 * x[0] * x[0]]],
        lambda x, e: [x[0], x[1] + 0.1 * x[0] * x[0]],
        name="two-state",
    )


def _two_state_trajectory():
    return simulate_prolonged(
        _two_state_system(), [0.8, -0.4], [0.3, 0.9],
        u=[Signal.from_expr("0.5*sin(3*t)"), Signal.from_expr("cos(t)")],
        du=[Signal.from_expr("0.2*cos(t)"), Signal.constant(0.1)],
        t_final=0.5, stepper=Rk4(1e-3),
    )


class TestBatchedAuditMatchesReference:
    """The batched audit fills S, dS/dt, Q and the slacks with the bits of
    the per-sample reference, and raises the same errors."""

    @staticmethod
    def _assert_same(traj, storage, supply):
        S, dS, Q, slack, integral_slack, worst = _ref_audit(traj, storage, supply)
        report = audit(traj, storage, supply)
        for got, want in ((report.S, S), (report.dSdt, dS), (report.Q, Q),
                          (report.slack, slack), (report.integral_slack, integral_slack)):
            assert got.tobytes() == want.tobytes()
        assert report.worst_time == traj.times[worst]
        assert report.worst_violation == -slack[worst]

    def test_passive_lti(self):
        traj = simulate_prolonged(
            scalar_leaky(), [1.0], [1.0], u=Signal.from_expr("sin(t)"),
            du=Signal.from_expr("0.5*cos(t)"), t_final=1.0, stepper=Rk4(1e-3),
        )
        self._assert_same(traj, _storage1(), SupplyRate.identity(1))

    def test_rc_state_dependent_supply(self):
        rc = rc_circuit()
        traj = rc.port_trajectory(0.3, 0.7, Signal.from_expr("0.4*sin(2*t)"),
                                  t_final=1.0, stepper=Rk4(1e-3))
        self._assert_same(traj, rc.storage, rc.supply)

    def test_motor_output_strict(self):
        from diffdiss import induction_motor_virtual
        motor = induction_motor_virtual()
        traj = simulate_prolonged(
            motor.system, [1.2, -0.3, 0.9, 0.4], [0.5, -0.4, 0.3, 0.2],
            u=[Signal.from_expr("0.3*sin(t)"), Signal.from_expr("0.2*cos(t)")],
            t_final=0.5, stepper=Rk4(1e-3),
        )
        self._assert_same(traj, motor.storage, motor.supply)

    @pytest.mark.parametrize("strictness", ["none", "output"])
    def test_projector_and_state_dependent_maps(self, strictness):
        storage = QuadraticDifferentialStorage(
            lambda x: [[1.0 + x[0] * x[0], 0.0], [0.5 * x[1], 2.0]], 2,
            p_fun=lambda x: [[1.0, 0.0], [0.0, 0.0]],
        )
        supply = SupplyRate(
            lambda x: [[1.0 + x[1] * x[1], 0.3], [0.3, 2.0 + x[0]]], 2, strictness,
        )
        self._assert_same(_two_state_trajectory(), storage, supply)

    def test_state_strict_decay(self):
        traj = simulate_prolonged(scalar_leaky(), [1.0], [1.0], t_final=1.0,
                                  stepper=Rk4(1e-3))
        supply = SupplyRate.identity(1, strictness="state", state_rate=lambda s: 2.0 * s)
        self._assert_same(traj, _storage1(), supply)

    def test_composite_loop_storage_and_supply(self):
        from diffdiss import output_feedback
        a, b = scalar_stiffening(), scalar_leaky(0.5)
        for sub in (a, b):
            sub.storage = _storage1()
            sub.supply = SupplyRate.identity(1)
        loop = output_feedback(a, b)
        traj = simulate_prolonged(
            loop, [0.5, -0.5], [1.0, 0.2], u=[Signal.from_expr("sin(t)"), Signal.zero()],
            t_final=0.5, stepper=Rk4(1e-3),
        )
        self._assert_same(traj, loop.storage, loop.supply)

    @pytest.mark.parametrize("storage, supply", [
        (QuadraticDifferentialStorage(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
                                      p_fun=lambda x: [[1.0, 0.1], [0.0, 0.9]]),
         SupplyRate.identity(2)),
        (QuadraticDifferentialStorage.identity(2),
         SupplyRate(lambda x: [[1.0, 0.1 * x[0]], [0.0, 1.0]], 2)),
        (QuadraticDifferentialStorage.identity(2), SupplyRate(lambda x: [[1.0, 0.0]], 2)),
        (QuadraticDifferentialStorage(lambda x: [[1e200 * x[0], 0.0], [0.0, 1.0]], 2),
         SupplyRate.identity(2)),
        (QuadraticDifferentialStorage.identity(2),
         SupplyRate(lambda x: [[1e300 * (1e10 + x[0] * x[0]), 0.0], [0.0, 1.0]], 2)),
    ], ids=["non-idempotent-projector", "asymmetric-W", "W-shape", "S-overflow",
            "Q-overflow"])
    def test_same_errors(self, storage, supply):
        traj = _two_state_trajectory()
        with pytest.raises(Exception) as want, np.errstate(invalid="ignore"):
            _ref_audit(traj, storage, supply)
        with pytest.raises(Exception) as got:
            audit(traj, storage, supply)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
