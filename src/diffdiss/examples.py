"""Ready-made example systems wired to the analysis pipeline.

Three models are provided:

* a nonlinear RC circuit whose capacitor law v_c = mu(q_c) is an arbitrary
  strictly increasing charge-to-voltage expression,
* the electrical part of an induction motor with magnetic flux saturation,
  written in a rotating frame with the rotor speed treated as a prescribed
  exogenous signal (the virtual-system view), together with the feedforward
  input that regulates the flux to a reference, and
* a plain LTI builder used as the linear baseline.

The motor builder runs its model code once, on :class:`exprlang.Traced`
values, and compiles what it records, so the model is written once and its
lift runs one generated program with the bits of a dual pass of that code.

Complex quantities are represented as R^2 blocks with the imaginary unit
acting as the rotation matrix [[0, -1], [1, 0]]; all numerics stay real.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import exprlang
from .dissipativity import GridSpec, QuadraticDifferentialStorage, SupplyRate
from .numerics import (
    FLOAT_ERRORS,
    argworst,
    float_value,
    grid_point,
    jvp,  # noqa: F401  -- unused here; perfbench/tracing.py patches examples.jvp by name
    mat_vec,
    psd_margin,
    scalar_deriv,
)
from .systems import DynSystem, ProlongedTrajectory, Signal, simulate_prolonged


class ModelDomainError(Exception):
    """A model constitutive law left its admissible region."""


class FeedforwardConstructionError(Exception):
    """The constructed feedforward pair failed its residual self-check."""


# ---------------------------------------------------------------------------
# nonlinear RC circuit


@dataclass
class RcParams:
    """Parallel RC one-port.

    R : resistance of the linear resistor [ohm], > 0.
    mu : capacitor charge-to-voltage law v_c = mu(q_c), an expression in the
        variable ``q`` (string or parsed AST).  Must be strictly increasing
        on the working interval; checked by sampling d(mu)/dq at
        construction.
    q_range : working interval of capacitor charge.
    """

    R: float = 1.0
    mu: "str | exprlang.Expr" = "q + q^3"
    q_range: tuple[float, float] = (-1.5, 1.5)
    n_check: int = 201

    def __post_init__(self):
        if self.R <= 0.0:
            raise ModelDomainError("resistance must be positive")


class RcCircuit:
    """Nonlinear RC circuit with the (V, I) port pairing audited.

    The wiring ties the port voltage to the capacitor state (V = v_c =
    mu(q_c)), so V cannot act as a free input.  The one degree of freedom
    the differential equation exposes is the port current: with I as the
    drive, Kirchhoff's laws substitute to

        qdot_c = i_c = I - mu(q_c) / R,        V = mu(q_c),

    and the audited port displacements (dV, dI) are read off along the
    simulated trajectory, which is exactly the pairing the dissipation
    chain uses.  Attached storage S = dq_c^2 / 2 and supply tensor
    W(q_c) = 1 / mu'(q_c).
    """

    def __init__(self, params: RcParams):
        self.params = params
        self.mu_ast = exprlang.parse(params.mu) if isinstance(params.mu, str) else params.mu
        extra = exprlang.variables(self.mu_ast) - {"q"}
        if extra:
            raise ModelDomainError(f"mu may only use the variable 'q', found {sorted(extra)}")
        self._mu_map = exprlang.compile_map([self.mu_ast], ["q"])
        lo, hi = params.q_range
        # one batched dual pass over the check grid; a nan slope fails too
        qs = np.linspace(lo, hi, params.n_check)
        try:
            slopes = self._dmu(qs)
        except (ArithmeticError, exprlang.EvalError) as err:
            raise self._unslopeable(qs, err) from None
        bad = np.flatnonzero(~(np.broadcast_to(slopes, qs.shape) > 0.0))
        if bad.size:
            raise ModelDomainError(
                f"mu is not strictly increasing on [{lo:.6g}, {hi:.6g}] "
                f"(d mu/dq <= 0 at q = {qs[bad[0]]:.6g})"
            )
        # f = -(mu)/R, g = 1, h = mu as compiled expressions, so the lift runs
        # their tangents instead of a dual pass
        f = exprlang.BinOp("/", exprlang.Neg(self.mu_ast), exprlang.Const(params.R))
        self.system = DynSystem(
            n=1,
            q=1,
            f=exprlang.compile_map([f], ["q"]),
            g=exprlang.compile_matrix([[exprlang.Const(1.0)]], ["q"]),
            h=self._mu_map,
            name="rc-circuit",
        )
        self.storage = QuadraticDifferentialStorage.identity(1)
        self.supply = SupplyRate(lambda x: [[self._w(x[0])]], q=1)
        self.system.storage = self.storage
        self.system.supply = self.supply

    def _unslopeable(self, qs, err) -> Exception:
        """The error naming the first of ``qs`` whose slope cannot be computed,
        which the batched check ``err`` came from (one scalar pass per point,
        on this error path only); ``err`` itself if every point's passes."""
        for q in qs:
            try:
                self._dmu(float(q))
            except (ArithmeticError, exprlang.EvalError) as point_err:
                return ModelDomainError(f"d mu/dq cannot be computed at q = {q:.6g} ({point_err})")
        return err

    def mu_value(self, q):
        return self._mu_map((q,))[0]

    def _dmu(self, q) -> float:
        return self._mu_map.tangent((q,), (1.0,), None)[1][0]

    def _w(self, q):
        """W = 1 / mu'(q) from the tangent of mu; ``q`` may be a batch array."""
        d = self._dmu(q)
        low = d <= 0.0
        if low if low.__class__ is bool else low.any():  # the float test stays cheap
            qs, ds = np.broadcast_arrays(q, d)
            k = np.flatnonzero(ds <= 0.0)[0]
            raise ModelDomainError(f"d mu/dq = {ds.flat[k]:.6g} <= 0 at q = {qs.flat[k]:.6g}")
        return 1.0 / d

    def port_trajectory(
        self, q0: float, dq0: float, current, d_current=None, t_final: float = 1.0, stepper=None
    ) -> ProlongedTrajectory:
        """Simulate under a port-current drive and emit the audited port
        pairing (see :meth:`port_view`)."""
        native = simulate_prolonged(
            self.system, [q0], [dq0], u=current, du=d_current,
            t_final=t_final, stepper=stepper,
        )
        return self.port_view(native)

    @staticmethod
    def port_view(native: ProlongedTrajectory) -> ProlongedTrajectory:
        """The audited port pairing (u, du) = (V, dV) and (y, dy) = (I, dI)
        of a native simulation of :attr:`system`.

        The native simulation has u = I and y = V; the scalar supply value
        W dV dI is symmetric in that pairing, so the remap only renames the
        columns to the conventional port orientation."""
        return ProlongedTrajectory(
            times=native.times,
            x=native.x,
            dx=native.dx,
            u=native.y,
            du=native.dy,
            y=native.u,
            dy=native.du,
            xdot=native.xdot,
            dxdot=native.dxdot,
        )


def rc_circuit(params: RcParams | None = None) -> RcCircuit:
    return RcCircuit(params or RcParams())


# ---------------------------------------------------------------------------
# induction motor with flux saturation


@dataclass
class MotorParams:
    """Electrical part of an induction motor in a rotating frame.

    R_r, R_s : rotor/stator winding resistances [ohm], > 0.
    L_r, L_s, L_l : rotor, stator and mutual-leakage inductances [H], > 0;
        the inverse-inductance coupling they induce is positive definite.
    kappa_r, kappa_s : saturation gains >= 0 in the sector law
        F(phi) = kappa |phi|^2 phi, which is smooth, monotone, and vanishes
        to first order at zero flux (clean linear limit).
    omega_r, omega_s : rotor speed and frame speed as time signals; the
        mechanical equation is not modelled, the rotor speed is prescribed.
    phi_r_ref : rotor flux reference (R^2-valued, one signal per component);
        must be twice differentiable (constant or analytic signals).

    Default values are desk-scale numbers chosen for well-conditioned
    simulation, not nameplate data.
    """

    R_r: float = 1.0
    R_s: float = 1.0
    L_r: float = 1.0
    L_s: float = 1.0
    L_l: float = 0.2
    kappa_r: float = 0.5
    kappa_s: float = 0.5
    omega_r: Signal = dc_field(default_factory=lambda: Signal.constant(9.0))
    omega_s: Signal = dc_field(default_factory=lambda: Signal.constant(10.0))
    phi_r_ref: tuple[Signal, Signal] = dc_field(
        default_factory=lambda: (Signal.constant(1.0), Signal.constant(0.0))
    )

    def __post_init__(self):
        for name in ("R_r", "R_s", "L_r", "L_s", "L_l"):
            if getattr(self, name) <= 0.0:
                raise ModelDomainError(f"{name} must be positive")
        if self.kappa_r < 0.0 or self.kappa_s < 0.0:
            raise ModelDomainError("saturation gains must be nonnegative")


def _jmul(v):
    """Multiplication by the imaginary unit on an R^2 block."""
    return [-v[1], v[0]]


def _saturation(kappa: float, phi):
    """F(phi) = kappa |phi|^2 phi; parallel to phi by construction."""
    mag2 = phi[0] * phi[0] + phi[1] * phi[1]
    return [kappa * mag2 * phi[0], kappa * mag2 * phi[1]]


def motor_currents(p: MotorParams, x):
    """Flux-to-current map: state (phi_r, phi_s) in R^4 to (i_r, i_s)."""
    pr = x[0:2]
    ps = x[2:4]
    a_r = 1.0 / p.L_r + 1.0 / p.L_l
    a_s = 1.0 / p.L_s + 1.0 / p.L_l
    b = 1.0 / p.L_l
    fr = _saturation(p.kappa_r, pr)
    fs = _saturation(p.kappa_s, ps)
    i_r = [fr[k] + a_r * pr[k] - b * ps[k] for k in range(2)]
    i_s = [fs[k] + a_s * ps[k] - b * pr[k] for k in range(2)]
    return i_r, i_s


def motor_field(p: MotorParams, x, e):
    """The drift f of the virtual flux dynamics at the state ``x`` under the
    rotor and frame speeds ``e["omega_r"]``, ``e["omega_s"]``."""
    w_g = e["omega_s"] - e["omega_r"]
    i_r, i_s = motor_currents(p, x)
    pr_rot = _jmul(x[0:2])
    ps_rot = _jmul(x[2:4])
    return [
        -w_g * pr_rot[0] - p.R_r * i_r[0],
        -w_g * pr_rot[1] - p.R_r * i_r[1],
        -e["omega_s"] * ps_rot[0] - p.R_s * i_s[0],
        -e["omega_s"] * ps_rot[1] - p.R_s * i_s[1],
    ]


class MotorVirtual:
    """Virtual flux dynamics of the motor: rotor speed enters as a signal.

    State (phi_r, phi_s) in R^4 (named x1..x4 in its compiled maps), input
    u_s in R^2 (stator voltage), output phi_s.  Any trajectory of the full
    motor driven by a rotor-speed record is a trajectory of this system
    built with that same record.  Attached
    are the inverse-resistance-weighted storage

        S = |d phi_r|^2 / (2 R_r) + |d phi_s|^2 / (2 R_s)

    and the output-strict supply with tensor W = I / R_s, under which the
    dissipation rate along displacements is the flux-coupling quadratic
    form (positive definite for positive inductances).
    """

    def __init__(self, params: MotorParams):
        self.params = params
        p = params
        # motor_field runs once, on traced states and speeds: its compiled map
        # performs the float operations motor_field performs, so the lift runs
        # one generated program instead of a dual pass
        names, exo = ["x1", "x2", "x3", "x4"], ("omega_r", "omega_s")
        x = [exprlang.Traced(exprlang.Var(s)) for s in names]
        f = motor_field(p, x, {s: exprlang.Traced(exprlang.Var(s)) for s in exo})
        g_rows = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        self.system = DynSystem(
            n=4,
            q=2,
            f=exprlang.compile_map([exprlang.as_expr(v) for v in f], names, exo),
            g=exprlang.compile_matrix([[exprlang.Const(v) for v in row] for row in g_rows], names),
            h=exprlang.compile_map([exprlang.Var("x3"), exprlang.Var("x4")], names),
            exo={"omega_r": p.omega_r, "omega_s": p.omega_s},
            name="motor-virtual",
        )
        inv_sqrt_rr = 1.0 / np.sqrt(p.R_r)
        inv_sqrt_rs = 1.0 / np.sqrt(p.R_s)
        m_rows = [
            [inv_sqrt_rr, 0.0, 0.0, 0.0],
            [0.0, inv_sqrt_rr, 0.0, 0.0],
            [0.0, 0.0, inv_sqrt_rs, 0.0],
            [0.0, 0.0, 0.0, inv_sqrt_rs],
        ]
        self.storage = QuadraticDifferentialStorage(lambda x: m_rows, 4)
        w_rows = [[1.0 / p.R_s, 0.0], [0.0, 1.0 / p.R_s]]
        self.supply = SupplyRate(lambda x: w_rows, q=2, strictness="output")
        self.system.storage = self.storage
        self.system.supply = self.supply

    def coupling_matrix(self, x) -> np.ndarray:
        """The flux-coupling quadratic form M(phi): d(i) . d(phi) = dphi^T M dphi.

        Splits into a block-diagonal saturation-plus-self-inductance part
        (positive definite) and a constant leakage coupling (positive
        semidefinite)."""
        return self.saturation_block(x) + self.leakage_block()

    def saturation_block(self, x) -> np.ndarray:
        """The 4 x 4 block at the flux state ``x``, or the (N, 4, 4) stack at
        each row of an (N, 4) array of states."""
        p = self.params
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 4))
        eye2 = np.eye(2)
        for (base, kappa, L) in ((0, p.kappa_r, p.L_r), (2, p.kappa_s, p.L_s)):
            phi = x[..., base : base + 2]
            mag2 = (phi[..., 0] * phi[..., 0] + phi[..., 1] * phi[..., 1])[..., None, None]
            outer = phi[..., :, None] * phi[..., None, :]
            block = kappa * (mag2 * eye2 + 2.0 * outer) + eye2 / L
            out[..., base : base + 2, base : base + 2] = block
        return out

    def leakage_block(self) -> np.ndarray:
        b = 1.0 / self.params.L_l
        eye2 = np.eye(2)
        return np.block([[b * eye2, -b * eye2], [-b * eye2, b * eye2]])


def induction_motor_virtual(params: MotorParams | None = None) -> MotorVirtual:
    return MotorVirtual(params or MotorParams())


@dataclass
class FluxCouplingReport:
    """Grid check of the flux-coupling decomposition margins."""

    min_saturation_margin: float
    leakage_margin: float
    n_points: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "flux-coupling",
            "passed": bool(self.passed),
            "min_saturation_margin": self.min_saturation_margin,
            "leakage_margin": self.leakage_margin,
            "n_points": self.n_points,
        }


def motor_flux_margins(motor: MotorVirtual, grid: GridSpec | None = None) -> FluxCouplingReport:
    """Verify on a flux grid that the saturation-plus-inductance block is
    positive definite and the constant leakage coupling is positive
    semidefinite.  The saturation margins come from one stacked
    :func:`psd_margin` call over the grid; a non-finite margin raises
    :class:`NumericalError` at its first grid point."""
    grid = grid or GridSpec.box([-2.0] * 4, [2.0] * 4, [3] * 4, extra_random=32, seed=7)
    pts = grid.points()
    with np.errstate(**FLOAT_ERRORS):
        margins = psd_margin(motor.saturation_block(pts))
    k = argworst(-margins, "flux saturation margin", lambda j: f"x = {grid_point(pts[j])}")
    worst = margins[k]
    leak = psd_margin(motor.leakage_block())
    return FluxCouplingReport(
        min_saturation_margin=float(worst),
        leakage_margin=float(leak),
        n_points=len(pts),
        passed=bool(worst > 0.0 and leak >= -1e-12),
    )


def motor_feedforward(
    p: MotorParams,
    t_check: float = 1.0,
    n_check: int = 50,
    tol: float = 1e-8,
):
    """Feedforward stator voltage regulating the rotor flux to its reference.

    Solves the rotor flux equation for the stator flux reference and the
    stator equation for the input that makes (phi_r_ref, phi_s_ref) an
    exact trajectory of the virtual system:

        phi_s* = L_l [ F_r(phi_r*) + (1/L_r + 1/L_l) phi_r*
                       + (d(phi_r*)/dt + omega_g j phi_r*) / R_r ]
        u_s    = d(phi_s*)/dt + omega_s j phi_s* + R_s i_s(phi_r*, phi_s*)

    Correctness is machine-checked at construction: both flux equations are
    re-evaluated on a time grid with central-difference time derivatives
    (an independent route around the dual-number chain rule) and the pair
    is rejected if any residual exceeds ``tol``.

    Returns ``(phi_s_ref, u_s)`` as pairs of analytic signals.
    """
    ref = p.phi_r_ref
    for sig in (*ref, p.omega_r, p.omega_s):
        if not sig.smooth:
            raise FeedforwardConstructionError(
                "feedforward needs twice-differentiable reference and speed signals"
            )
    a_r = 1.0 / p.L_r + 1.0 / p.L_l
    a_s = 1.0 / p.L_s + 1.0 / p.L_l
    b = 1.0 / p.L_l

    def phi_r_star(t):
        return [ref[0].at(t), ref[1].at(t)]

    def phi_s_star(t):
        pr = phi_r_star(t)
        prdot = [ref[0].deriv(t), ref[1].deriv(t)]
        w_g = p.omega_s.at(t) - p.omega_r.at(t)
        fr = _saturation(p.kappa_r, pr)
        rot = _jmul(pr)
        return [
            p.L_l * (fr[k] + a_r * pr[k] + (prdot[k] + w_g * rot[k]) / p.R_r)
            for k in range(2)
        ]

    def u_s(t):
        pr = phi_r_star(t)
        ps = phi_s_star(t)
        psdot = scalar_deriv(phi_s_star, t)
        fs = _saturation(p.kappa_s, ps)
        i_s = [fs[k] + a_s * ps[k] - b * pr[k] for k in range(2)]
        rot = _jmul(ps)
        return [psdot[k] + p.omega_s.at(t) * rot[k] + p.R_s * i_s[k] for k in range(2)]

    # independent residual check: central differences replace the dual route
    h = 1e-5
    for t in np.linspace(0.0, t_check, n_check):
        t = float(t)
        pr = [float_value(v) for v in phi_r_star(t)]
        ps = [float_value(v) for v in phi_s_star(t)]
        us = [float_value(v) for v in u_s(t)]
        prdot_fd = [
            (float_value(phi_r_star(t + h)[k]) - float_value(phi_r_star(t - h)[k])) / (2 * h)
            for k in range(2)
        ]
        psdot_fd = [
            (float_value(phi_s_star(t + h)[k]) - float_value(phi_s_star(t - h)[k])) / (2 * h)
            for k in range(2)
        ]
        w_s = p.omega_s.value(t)
        w_g = w_s - p.omega_r.value(t)
        i_r, i_s = motor_currents(p, pr + ps)
        rot_r = _jmul(pr)
        rot_s = _jmul(ps)
        res_r = max(
            abs(prdot_fd[k] + w_g * rot_r[k] + p.R_r * i_r[k]) for k in range(2)
        )
        res_s = max(
            abs(psdot_fd[k] + w_s * rot_s[k] + p.R_s * i_s[k] - us[k]) for k in range(2)
        )
        if max(res_r, res_s) > tol:
            raise FeedforwardConstructionError(
                f"flux-equation residual {max(res_r, res_s):.3g} > {tol:.1g} at t = {t:.6g}"
            )
    phi_s_ref = (
        Signal.analytic(lambda t: phi_s_star(t)[0]),
        Signal.analytic(lambda t: phi_s_star(t)[1]),
    )
    u_sig = (
        Signal.analytic(lambda t: u_s(t)[0]),
        Signal.analytic(lambda t: u_s(t)[1]),
    )
    return phi_s_ref, u_sig


# ---------------------------------------------------------------------------
# LTI baseline


def lti(a, b, c, d=None, name: str = "lti") -> DynSystem:
    """Linear time-invariant system xdot = A x + B u, y = C x (+ D u)."""
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    C = np.asarray(c, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError("B must be n x q")
    q = B.shape[1]
    if C.shape != (q, n):
        raise ValueError(f"C must be {q} x {n} (input and output ports share dimension)")
    D = None
    if d is not None:
        D = np.asarray(d, dtype=float)
        if D.shape != (q, q):
            raise ValueError(f"D must be {q} x {q}")
    a_rows = A.tolist()
    b_rows = B.tolist()
    c_rows = C.tolist()
    d_rows = D.tolist() if D is not None else None

    return DynSystem(
        n=n,
        q=q,
        f=lambda x, e: mat_vec(a_rows, x),
        g=lambda x, e: b_rows,
        h=lambda x, e: mat_vec(c_rows, x),
        i=(lambda x, e: d_rows) if d_rows is not None else None,
        name=name,
    )
