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
pointwise and the integral form of the dissipation inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import (
    NumericalError,
    eye,
    frobenius,
    jacobian,
    jvp,
    mat_vec,
    nsd_margin,
    psd_margin,
    sqrt as d_sqrt,
)
from .systems import DynSystem, ProlongedTrajectory


class InvalidSupply(Exception):
    """The supply tensor is not symmetric within tolerance."""


class SupplyIntegrabilityError(Exception):
    """A supply sample along the trajectory is not finite."""


class InvalidCertificate(Exception):
    """A certificate precondition (shape, conditioning) is violated."""


def _is_float_vector(v: Sequence) -> bool:
    return all(isinstance(a, (int, float)) for a in v)


class QuadraticDifferentialStorage:
    """State-dependent quadratic storage with optional horizontal projector.

    ``m_fun(x)`` returns the n x n factor M(x); ``p_fun`` (optional) returns
    an idempotent projector onto the horizontal subspace.  Both must be
    dual-evaluable so the storage can be differentiated along flows.
    """

    def __init__(self, m_fun, n: int, p_fun=None, c1: float = 1.0, c2: float = 1.0):
        if c1 <= 0.0 or c2 <= 0.0 or c1 > c2:
            raise ValueError("storage bounds must satisfy 0 < c1 <= c2")
        self.m_fun = m_fun
        self.p_fun = p_fun
        self.n = int(n)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.p = 2  # homogeneity degree of S

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

        def grad(x):
            length = len(x)
            return [
                jvp(lambda z: [m_scalar(z)], x,
                    [1.0 if k == j else 0.0 for k in range(length)])[0]
                for j in range(length)
            ]

        def hess_rows(x):
            length = len(x)
            return [
                jvp(lambda z: grad(z), x,
                    [1.0 if k == j else 0.0 for k in range(length)])
                for j in range(length)
            ]

        rng = np.random.default_rng(seed)
        for _ in range(check_points):
            x = (rng.random(n) * 2.0 - 1.0).tolist()
            h = np.asarray(hess_rows(x), dtype=float)
            if float(np.max(np.abs(h - h.T))) > tol:
                raise ValueError(
                    "potential Hessian has unequal mixed partials beyond tolerance"
                )
        return cls(hess_rows, n)

    def horizontal(self, x: Sequence, dx: Sequence) -> list:
        """Projected displacement P(x) dx (identity when no projector)."""
        if self.p_fun is None:
            return list(dx)
        p = self.p_fun(x)
        if _is_float_vector(x) and _is_float_vector(dx):
            arr = np.asarray(p, dtype=float)
            if frobenius(arr @ arr - arr) > 1e-10:
                raise ValueError("projector is not idempotent within 1e-10")
        return mat_vec(p, dx)

    def value(self, x: Sequence, dx: Sequence):
        """S(x, dx); works on floats and dual scalars."""
        if len(dx) != self.n:
            raise ValueError(f"displacement must have {self.n} entries")
        w = mat_vec(self.m_fun(x), self.horizontal(x, dx))
        acc = 0.0
        for a in w:
            acc = acc + a * a
        return 0.5 * acc

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

    def w_matrix(self, x) -> np.ndarray:
        w = np.asarray(self.w_fun(x), dtype=float)
        if w.shape != (self.q, self.q):
            raise InvalidSupply(f"W must be {self.q}x{self.q}, got {w.shape}")
        if float(np.max(np.abs(w - w.T))) > 1e-12:
            raise InvalidSupply("supply tensor W is not symmetric within 1e-12")
        return w

    def quad(self, x, a, b) -> float:
        """<a, b>_W(x)."""
        w = self.w_matrix(x)
        return float(np.asarray(a, float) @ w @ np.asarray(b, float))

    def value(self, x, dy, du) -> float:
        """Supply sample Q(x, dy, du)."""
        w = self.w_matrix(x)
        dy = np.asarray(dy, float)
        du = np.asarray(du, float)
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
    state strictness adds the required decay to the violation.  Fills the
    trajectory's S/Q/slack columns and returns the report.
    """
    for col in ("xdot", "dxdot", "y", "dy", "u", "du"):
        if getattr(traj, col) is None:
            raise ValueError(f"trajectory is missing the {col} column")
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
    """Box lattice with optional seeded uniform extra samples."""

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
            rng = np.random.default_rng(self.seed)
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            extra = lo + rng.random((self.extra_random, len(lo))) * (hi - lo)
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


class _Worst:
    """Deterministic max/argmax reduction (lowest index wins ties)."""

    def __init__(self):
        self.value = -np.inf
        self.point = None
        self.input = None

    def update(self, value, point, input_=None):
        if value > self.value:
            self.value = float(value)
            self.point = tuple(float(v) for v in point)
            self.input = None if input_ is None else tuple(float(v) for v in input_)


def _m_at(m_fun, x) -> np.ndarray:
    return np.asarray(m_fun(x), dtype=float)


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

    at every grid point.  Exogenous signals are frozen at time ``t``.
    """
    if sys.has_throughput:
        raise InvalidCertificate("this certificate applies to throughput-free systems")
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (sys.n, sys.q):
        raise InvalidCertificate(f"Pi must be {sys.n}x{sys.q}, got {pi.shape}")
    sv = np.linalg.svd(pi, compute_uv=False)
    if sv[0] <= 0.0 or sv[0] / max(sv[-1], 1e-300) > 1e12:
        raise InvalidCertificate("Pi is singular or ill-conditioned beyond 1e12")

    e = sys.exo_at(t)
    mf = lambda z: mat_vec(m_fun(z), sys.f(z, e))
    worst_a, worst_b, worst_c = _Worst(), _Worst(), _Worst()
    pts = grid.points()
    for p in pts:
        x = p.tolist()
        m = _m_at(m_fun, x)
        jac_mf = jacobian(mf, x)
        worst_a.update(nsd_margin(m.T @ jac_mf), p)
        g = np.asarray(sys.g(x, e), dtype=float)
        worst_b.update(frobenius(m @ g - pi), p)
        jh = jacobian(lambda z: sys.h(z, e), x)
        w = np.asarray(w_fun(x), dtype=float)
        worst_c.update(frobenius(jh.T @ w - m.T @ pi), p)
    conditions = [
        ConditionResult("storage-decay", "nsd-margin", worst_a.value, tol_margin,
                        worst_a.value <= tol_margin, worst_a.point),
        ConditionResult("input-gain-constancy", "residual", worst_b.value, tol_residual,
                        worst_b.value <= tol_residual, worst_b.point),
        ConditionResult("output-supply-match", "residual", worst_c.value, tol_residual,
                        worst_c.value <= tol_residual, worst_c.point),
    ]
    return CertificateReport(conditions, len(pts), all(c.passed for c in conditions))


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
    state dimension; other shapes are rejected.
    """
    if not sys.has_throughput:
        raise InvalidCertificate("this certificate needs a throughput term i(x)")
    if sys.q != sys.n:
        raise InvalidCertificate(
            "the mixed Jacobian condition only conforms when input and state dimensions agree"
        )
    e = sys.exo_at(t)
    mf = lambda z: mat_vec(m_fun(z), sys.f(z, e))
    w1, w2, w3, w4 = _Worst(), _Worst(), _Worst(), _Worst()
    pts_x = grid_x.points()
    pts_u = grid_u.points()
    for p in pts_x:
        x = p.tolist()
        m = _m_at(m_fun, x)
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
    return CertificateReport(
        conditions, len(pts_x) * len(pts_u), all(c.passed for c in conditions)
    )
