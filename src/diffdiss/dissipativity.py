"""Differential storage functions, differential supply rates, trajectory
dissipation audits, and pointwise matrix-certificate checkers.

The storage is quadratic in the displacement,

    S(x, dx) = 1/2 |M(x) P(x) dx|^2

with an optional horizontal projector P (identity if absent), homogeneity
degree 2, and a Finsler-type gauge K = sqrt(2 S).  A supply rate is a
state-dependent symmetric tensor W(x) pairing output and input
displacements, Q = <dy, du>_W, optionally output-strict
(Q = <dy,du>_W - <dy,dy>_W) or state-strict (required decay alpha(S)).

Audits differentiate S analytically along the flow (chain rule through
dual scalars, never finite differences of samples) and report both the
pointwise and the integral form of the dissipation inequality.  An audit
evaluates S, dS/dt and the supply over all samples at once, so storage and
supply maps follow the batch contract of :mod:`diffdiss.systems` too.

The grid checkers are lists of named conditions run by one evaluator.  It
evaluates every map once over the whole grid, in one order: M, W, g and i
in one batched call each, then D[M f] and Dh, and for :func:`check_ap`
D[i u] and D[M g u] over the (state x input) product, each Jacobian in one
dual pass per column over all points.  Each condition has a name, a kind
("nsd-margin", "psd-margin" or "residual"), a threshold and a function of
those maps, and is reported at its worst grid point.  Certificate maps must
therefore follow the batch contract of :mod:`diffdiss.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .numerics import (
    FLOAT_ERRORS,
    NumericalError,
    argworst,
    batch_matrix,
    dot,
    eye,
    frobenius,
    gradient,
    grid_point,
    jacobian,
    jvp,
    mat_vec,
    nsd_margin,
    psd_margin,
    sqrt as d_sqrt,
    transpose,
    uniform_draws,
)
from .systems import DynSystem, ProlongedTrajectory


class InvalidSupply(Exception):
    """The supply tensor is not symmetric within tolerance, or a state-strict
    supply's decay is negative or not finite."""


class SupplyIntegrabilityError(Exception):
    """A supply sample along the trajectory is not finite."""


class InvalidCertificate(Exception):
    """A certificate precondition (shape, conditioning) is violated."""


def _is_float_vector(v: Sequence) -> bool:
    """Floats, or 1-d float arrays of a batch: no dual parts."""
    return all(isinstance(a, (int, float, np.ndarray)) for a in v)


class QuadraticDifferentialStorage:
    """State-dependent quadratic storage with optional horizontal projector.

    ``m_fun(x)`` returns the n x n factor M(x); ``p_fun`` (optional) returns
    an idempotent projector onto the horizontal subspace.  Both must be
    dual-evaluable so the storage can be differentiated along flows.
    """

    def __init__(self, m_fun, n: int, p_fun=None):
        self.m_fun = m_fun
        self.p_fun = p_fun
        self.n = int(n)

    @classmethod
    def identity(cls, n: int) -> "QuadraticDifferentialStorage":
        rows = eye(n)
        return cls(lambda x: rows, n)

    @classmethod
    def constant(cls, m: Sequence[Sequence[float]]) -> "QuadraticDifferentialStorage":
        rows = [list(map(float, r)) for r in m]
        return cls(lambda x: rows, len(rows))

    @classmethod
    def from_potential(cls, m_scalar, n: int, check_points: int = 20,
                       seed: int = 0, tol: float = 1e-8) -> "QuadraticDifferentialStorage":
        """Storage whose factor is the Hessian of a scalar potential.

        The Hessian structure is what gradient-form equalizing feedback
        relies on; equality of mixed partials is spot-checked so a
        non-symmetric ``m_scalar`` implementation is caught here."""

        def hess_rows(x):
            length = len(x)
            return [
                jvp(lambda z: gradient(m_scalar, z), x,
                    [1.0 if k == j else 0.0 for k in range(length)])
                for j in range(length)
            ]

        draws = uniform_draws(seed, check_points * n)
        for c in range(check_points):
            x = [d * 2.0 - 1.0 for d in draws[c * n:(c + 1) * n]]
            h = np.asarray(hess_rows(x), dtype=float)
            if float(np.max(np.abs(h - h.T))) > tol:
                raise ValueError(
                    "potential Hessian has unequal mixed partials beyond tolerance"
                )
        return cls(hess_rows, n)

    def horizontal(self, x: Sequence, dx: Sequence) -> list:
        """Projected displacement P(x) dx (identity when no projector).  On
        floats, or a batch of them, P is checked to be idempotent."""
        if self.p_fun is None:
            return list(dx)
        p = self.p_fun(x)
        if _is_float_vector(x) and _is_float_vector(dx):
            batch = [a for a in (*x, *dx) if isinstance(a, np.ndarray)]
            arr = batch_matrix(p, len(batch[0])) if batch else np.asarray(p, dtype=float)
            if np.any(frobenius(arr @ arr - arr) > 1e-10):
                raise ValueError("projector is not idempotent within 1e-10")
        return mat_vec(p, dx)

    def value(self, x: Sequence, dx: Sequence):
        """S(x, dx); works on floats and dual scalars."""
        if len(dx) != self.n:
            raise ValueError(f"displacement must have {self.n} entries")
        w = mat_vec(self.m_fun(x), self.horizontal(x, dx))
        return 0.5 * dot(w, w)

    def gauge(self, x: Sequence, dx: Sequence):
        """K(x, dx) = sqrt(2 S): positively homogeneous of degree 1."""
        return d_sqrt(2.0 * self.value(x, dx))

    def rate(self, x, dx, xdot, dxdot) -> float:
        """dS/dt along the flow: one dual pass through (x, dx) jointly."""
        n = self.n

        def joint(z):
            return [self.value(z[:n], z[n:])]

        return jvp(joint, list(x) + list(dx), list(xdot) + list(dxdot))[0]

    def grad_x(self, x, dx) -> np.ndarray:
        return jacobian(lambda z: [self.value(z, dx)], x)[0]

    def grad_dx(self, x, dx) -> np.ndarray:
        return jacobian(lambda z: [self.value(x, z)], dx)[0]


class SupplyRate:
    """State-dependent supply Q = <dy, du>_W with optional strictness.

    strictness: "none", "output" (Q = <dy,du>_W - <dy,dy>_W), or "state"
    (a class-K decay ``state_rate(S)`` is required on top of the supply).
    """

    def __init__(self, w_fun, q: int, strictness: str = "none", state_rate=None):
        if strictness not in ("none", "output", "state"):
            raise ValueError(f"unknown strictness {strictness!r}")
        if strictness == "state" and state_rate is None:
            raise ValueError("state strictness needs a rate function")
        self.w_fun = w_fun
        self.q = int(q)
        self.strictness = strictness
        self.state_rate = state_rate

    @classmethod
    def identity(cls, q: int, strictness: str = "none", state_rate=None) -> "SupplyRate":
        rows = eye(q)
        return cls(lambda x: rows, q, strictness, state_rate)

    @classmethod
    def constant(cls, w, strictness: str = "none", state_rate=None) -> "SupplyRate":
        rows = [list(map(float, r)) for r in w]
        return cls(lambda x: rows, len(rows), strictness, state_rate)

    def w_matrix(self, x, size: int | None = None) -> np.ndarray:
        """W(x) as a q x q array; for a batch ``x`` of ``size`` points, the
        (size, q, q) stack."""
        if size is None:
            w = np.asarray(self.w_fun(x), dtype=float)
            shape, wt = w.shape, w.T
        else:
            w = batch_matrix(self.w_fun(x), size)
            shape, wt = w.shape[1:], transpose(w)
        if shape != (self.q, self.q):
            raise InvalidSupply(f"W must be {self.q}x{self.q}, got {shape}")
        if float(np.max(np.abs(w - wt))) > 1e-12:
            raise InvalidSupply("supply tensor W is not symmetric within 1e-12")
        return w

    def value(self, x, dy, du):
        """Supply sample Q(x, dy, du).  For a batch ``x``, ``dy`` and ``du``
        are (N, q) arrays and the result is the (N,) array of samples."""
        dy = np.asarray(dy, float)
        du = np.asarray(du, float)
        if dy.ndim == 2:
            dyw = dy[:, None, :] @ self.w_matrix(x, len(dy))
            q = (dyw @ du[:, :, None])[:, 0, 0]
            if self.strictness == "output":
                q = q - (dyw @ dy[:, :, None])[:, 0, 0]
            return q
        w = self.w_matrix(x)
        q = float(dy @ w @ du)
        if self.strictness == "output":
            q -= float(dy @ w @ dy)
        return q


# ---------------------------------------------------------------------------
# trajectory audit


@dataclass
class AuditReport:
    """Pointwise and integral dissipation audit along one trajectory."""

    times: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    dSdt: np.ndarray
    slack: np.ndarray
    integral_slack: np.ndarray
    worst_violation: float
    worst_time: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "audit",
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "n_samples": int(len(self.times)),
            "worst_violation": self.worst_violation,
            "worst_time": self.worst_time,
            "integral_slack_final": float(self.integral_slack[-1]),
            "storage_initial": float(self.S[0]),
            "storage_final": float(self.S[-1]),
        }


def audit(
    traj: ProlongedTrajectory,
    storage: QuadraticDifferentialStorage,
    supply: SupplyRate,
    tol: float = 1e-9,
) -> AuditReport:
    """Check dS/dt <= Q pointwise (and its integral form) along ``traj``.

    dS/dt is evaluated analytically from the recorded right-hand sides; Q is
    the supply sample (with the output-strict term folded in when present);
    state strictness adds the required decay to the violation, and raises
    :class:`InvalidSupply` at the first sample whose decay ``state_rate(S)``
    is negative or not finite.  S, dS/dt and Q are each one batched call
    over all samples.  Fills the trajectory's S/Q/slack columns and returns
    the report.
    """
    for col in ("xdot", "dxdot", "y", "dy", "u", "du"):
        if getattr(traj, col) is None:
            raise ValueError(f"trajectory is missing the {col} column")
    N = len(traj.times)
    S = np.empty(N)
    dS = np.empty(N)
    x = list(traj.x.T)
    dx = list(traj.dx.T)
    with np.errstate(**FLOAT_ERRORS):
        S[:] = storage.value(x, dx)
        dS[:] = storage.rate(x, dx, list(traj.xdot.T), list(traj.dxdot.T))
        Q = supply.value(x, traj.dy, traj.du)
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
        bad = np.flatnonzero(~(np.isfinite(decay) & (decay >= 0.0)))
        if bad.size:
            raise InvalidSupply(f"state decay {decay[bad[0]]:.6g} is negative or not finite "
                                f"at t={traj.times[bad[0]]:.6g}")
    violation = dS + decay - Q
    slack = -violation
    q_eff = Q - decay
    integral_q = np.concatenate(
        ([0.0], np.cumsum(0.5 * (q_eff[1:] + q_eff[:-1]) * np.diff(traj.times)))
    )
    integral_slack = integral_q - (S - S[0])
    worst = int(np.argmax(violation))
    report = AuditReport(
        times=traj.times,
        S=S,
        Q=Q,
        dSdt=dS,
        slack=slack,
        integral_slack=integral_slack,
        worst_violation=float(violation[worst]),
        worst_time=float(traj.times[worst]),
        tolerance=float(tol),
        passed=bool(violation[worst] <= tol),
    )
    traj.S = S
    traj.Q = Q
    traj.slack = slack
    return report


# ---------------------------------------------------------------------------
# sampling grids


@dataclass(frozen=True)
class GridSpec:
    """Box lattice with optional seeded uniform extra samples.

    The ``extra_random`` points follow the lattice: point k, axis j is
    lo_j + d (hi_j - lo_j), with d the draw k * dims + j of
    ``numerics.uniform_draws(seed, extra_random * dims)``, which are the
    doubles of numpy's ``default_rng(seed).random``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    counts: tuple[int, ...]
    extra_random: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.counts)):
            raise ValueError("lo/hi/counts must have equal lengths")
        if any(c < 1 for c in self.counts):
            raise ValueError("grid counts must be >= 1")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("grid lower bounds must not exceed upper bounds")

    @classmethod
    def box(cls, lo, hi, counts, extra_random=0, seed=0) -> "GridSpec":
        return cls(tuple(map(float, lo)), tuple(map(float, hi)), tuple(map(int, counts)),
                   int(extra_random), int(seed))

    def points(self) -> np.ndarray:
        axes = [np.linspace(l, h, c) for l, h, c in zip(self.lo, self.hi, self.counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if self.extra_random > 0:
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            draws = np.array(uniform_draws(self.seed, self.extra_random * len(lo)))
            extra = lo + draws.reshape(self.extra_random, len(lo)) * (hi - lo)
            pts = np.vstack([pts, extra])
        return pts


# ---------------------------------------------------------------------------
# certificate reports


@dataclass
class ConditionResult:
    name: str
    kind: str  # "nsd-margin" | "psd-margin" | "residual"
    worst: float
    threshold: float
    passed: bool
    point: tuple[float, ...]
    input: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "worst": self.worst,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "point": list(self.point),
        }
        if self.input is not None:
            d["input"] = list(self.input)
        return d


@dataclass
class CertificateReport:
    conditions: list[ConditionResult]
    n_points: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "certificate",
            "passed": bool(self.passed),
            "n_points": self.n_points,
            "conditions": [c.to_json_dict() for c in self.conditions],
        }

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _certificate(sys: DynSystem, m_fun, w_fun, grid_x: GridSpec, grid_u: GridSpec | None,
                 t: float, conditions) -> CertificateReport:
    """Evaluate each map once over ``grid_x`` at time ``t``, in one order: M,
    W, g, i (with throughput only), D[M f], Dh as (N, r, c) stacks ``m, w, g,
    i, dmf, dh``; given ``grid_u`` of ``nu`` points, D[i u] and D[M g u] as
    (N nu, r, c) stacks ``diu, dmgu`` over the (state x input) product,
    state-major.  Report each condition ``(name, kind, threshold, values)`` at
    the largest (worst) of ``values(maps)``: one per state, or an (N, nu)
    array over the product.  A "psd-margin" condition's values are negated
    margins; its report is not.  M, W, g and i are read as returned, so a
    map whose rows have unequal lengths, or whose matrix has the wrong
    shape, raises :class:`InvalidCertificate` naming it."""
    e = sys.exo_at(t)
    pts = grid_x.points()
    nx, nu = len(pts), 1
    x = list(pts.T)

    def read(name, rows, shape):
        lengths = [len(row) for row in rows]
        if len(set(lengths)) > 1:
            raise InvalidCertificate(f"{name} has rows of unequal lengths {lengths}")
        a = batch_matrix(rows, nx)
        if a.shape[1:] != shape:
            raise InvalidCertificate(f"{name} must be {shape[0]}x{shape[1]}, got {a.shape[1:]}")
        return a

    with np.errstate(**FLOAT_ERRORS):
        maps = SimpleNamespace(m=read("M", m_fun(x), (sys.n, sys.n)),
                               w=read("W", w_fun(x), (sys.q, sys.q)),
                               g=read("g", sys.g(x, e), (sys.n, sys.q)))
        maps.i = read("i", sys.i(x, e), (sys.q, sys.q)) if sys.has_throughput else None
        maps.dmf = jacobian(lambda z: mat_vec(m_fun(z), sys.f(z, e)), pts)
        maps.dh = jacobian(lambda z: sys.h(z, e), pts)
        if grid_u is not None:
            pts_u = grid_u.points()
            nu = len(pts_u)
            # row k of the (state x input) product is state k // nu with input k % nu
            xs, us = np.repeat(pts, nu, axis=0), np.tile(pts_u, (nx, 1))
            u = list(us.T)
            maps.nu = nu
            maps.diu = jacobian(lambda z: mat_vec(sys.i(z, e), u), xs)
            maps.dmgu = jacobian(lambda z: mat_vec(m_fun(z), mat_vec(sys.g(z, e), u)), xs)
        results = []
        for name, kind, tol, values in conditions:
            v = values(maps)
            points, inputs = (pts, None) if v.ndim == 1 else (xs, us)

            def where(k):
                return f"x = {grid_point(points[k])}" + (
                    "" if inputs is None else f", u = {grid_point(inputs[k])}")

            k = argworst(v.reshape(-1), f"certificate condition {name}", where)
            worst, sign = float(v.flat[k]), -1.0 if kind == "psd-margin" else 1.0
            results.append(ConditionResult(name, kind, sign * worst, sign * tol, worst <= tol,
                                           grid_point(points[k]),
                                           None if inputs is None else grid_point(inputs[k])))
    return CertificateReport(results, nx * nu, all(c.passed for c in results))


def check_uc(
    sys: DynSystem,
    m_fun,
    pi: Sequence[Sequence[float]],
    w_fun,
    grid: GridSpec,
    tol_margin: float = 1e-9,
    tol_residual: float = 1e-8,
    t: float = 0.0,
) -> CertificateReport:
    """Pointwise check of the uniform-tensor passivity certificate for a
    throughput-free system:

        (a) sym(M(x)^T D[M f](x)) negative semidefinite,
        (b) M(x) g(x) equals the constant matrix Pi,
        (c) Dh(x)^T W(x) equals M(x)^T Pi,

    at every grid point.  Exogenous signals are frozen at time ``t``.  Each
    map is evaluated once over the whole grid, in the order M, W, g, D[M f],
    Dh (see the batch contract in :mod:`diffdiss.systems`).  An M that is not
    n x n, a W that is not q x q, a g that is not n x q, or a map whose rows
    have unequal lengths raises :class:`InvalidCertificate` naming the map,
    and a non-finite margin or residual :class:`NumericalError`.
    """
    if sys.has_throughput:
        raise InvalidCertificate("this certificate applies to throughput-free systems")
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (sys.n, sys.q):
        raise InvalidCertificate(f"Pi must be {sys.n}x{sys.q}, got {pi.shape}")
    sv = np.linalg.svd(pi, compute_uv=False)
    if sv[0] <= 0.0 or sv[0] / max(sv[-1], 1e-300) > 1e12:
        raise InvalidCertificate("Pi is singular or ill-conditioned beyond 1e12")
    return _certificate(sys, m_fun, w_fun, grid, None, t, (
        ("storage-decay", "nsd-margin", tol_margin, lambda q: nsd_margin(transpose(q.m) @ q.dmf)),
        ("input-gain-constancy", "residual", tol_residual, lambda q: frobenius(q.m @ q.g - pi)),
        ("output-supply-match", "residual", tol_residual,
         lambda q: frobenius(transpose(q.dh) @ q.w - transpose(q.m) @ pi)),
    ))


def check_ap(
    sys: DynSystem,
    m_fun,
    w_fun,
    grid_x: GridSpec,
    grid_u: GridSpec,
    tol_margin: float = 1e-9,
    tol_residual: float = 1e-8,
    t: float = 0.0,
) -> CertificateReport:
    """Pointwise check of the throughput passivity certificate:

        (1) sym(M(x)^T D[M f](x)) negative semidefinite,
        (2) Dh(x)^T W(x) equals M(x)^T M(x) g(x),
        (3) D[i(.)u](x)^T W(x) equals M(x)^T D[M g u](x) for each grid input u,
        (4) sym(i(x)^T W(x)) positive semidefinite,

    over the product of a state grid and an input grid.  Condition (3)
    compares like-shaped matrices only when the input dimension equals the
    state dimension; other shapes are rejected.  As in :func:`check_uc`,
    each map is evaluated once over the state grid (M, W, g, i, D[M f], Dh),
    then D[i u] and D[M g u] over the (state x input) product, state-major,
    and M, W, g and i must be n x n, q x q, n x q and q x q, each with rows
    of equal lengths.
    """
    if not sys.has_throughput:
        raise InvalidCertificate("this certificate needs a throughput term i(x)")
    if sys.q != sys.n:
        raise InvalidCertificate(
            "the mixed Jacobian condition only conforms when input and state dimensions agree"
        )
    return _certificate(sys, m_fun, w_fun, grid_x, grid_u, t, (
        ("storage-decay", "nsd-margin", tol_margin, lambda q: nsd_margin(transpose(q.m) @ q.dmf)),
        ("output-supply-match", "residual", tol_residual,
         lambda q: frobenius(transpose(q.dh) @ q.w - transpose(q.m) @ q.m @ q.g)),
        ("throughput-gain-match", "residual", tol_residual,
         lambda q: frobenius(transpose(q.diu) @ np.repeat(q.w, q.nu, axis=0)
                             - np.repeat(transpose(q.m), q.nu, axis=0) @ q.dmgu).reshape(-1, q.nu)),
        ("throughput-positivity", "psd-margin", tol_margin,
         lambda q: -psd_margin(transpose(q.i) @ q.w)),
    ))
