"""Feedback interconnection of differentially passive systems.

Two couplings are provided: plain output feedback

    u1 = -y2 + v1,   u2 = y1 + v2

whose supply cross terms cancel algebraically, and state feedback

    u1 = -k2(x2) + v1,   u2 = k1(x1) + v2

whose cross terms cancel only when the two supply tensors are equalized by
the feedback pair; ``check_equalization`` verifies that bilinear identity
on sampled points and basis displacements, and
``build_equalizing_feedback`` constructs k = Pi^T grad(m) from a scalar
potential whose Hessian is the storage factor, which satisfies the
identity exactly.

The closed loop is an ordinary DynSystem over the stacked state with input
v = (v1, v2) and output (y1, y2); composite storage S1 + S2 and the
block-diagonal supply tensor are attached when both subsystems carry them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipativity import QuadraticDifferentialStorage, SupplyRate
from .numerics import dot, eye, jacobian, jvp, mat_vec
from .systems import DynSystem


class AlgebraicLoopError(Exception):
    """Both subsystems have throughput; the loop would be implicit."""


class InterconnectedSystem(DynSystem):
    """Closed-loop system; behaves exactly like any other DynSystem."""

    def __init__(self, *args, sub1=None, sub2=None, coupling="", k1=None, k2=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.sub1 = sub1
        self.sub2 = sub2
        self.coupling = coupling
        self.k1 = k1
        self.k2 = k2


def _block_rows(top_left, top_right, bottom_left, bottom_right):
    rows = [list(l) + list(r) for l, r in zip(top_left, top_right)]
    rows += [list(l) + list(r) for l, r in zip(bottom_left, bottom_right)]
    return rows


def _zeros(r, c):
    return [[0.0] * c for _ in range(r)]


def _merge_exo(s1: DynSystem, s2: DynSystem) -> dict:
    exo = dict(s1.exo)
    for name, sig in s2.exo.items():
        if name in exo and exo[name] is not sig:
            raise ValueError(f"exogenous signal name clash: {name!r}")
        exo[name] = sig
    return exo


def _composite_storage(s1: DynSystem, s2: DynSystem):
    st1, st2 = s1.storage, s2.storage
    if st1 is None or st2 is None:
        return None
    n1 = st1.n

    def m_fun(x):
        m1 = st1.m_fun(x[:n1])
        m2 = st2.m_fun(x[n1:])
        return _block_rows(m1, _zeros(len(m1), len(m2)), _zeros(len(m2), len(m1)), m2)

    p_fun = None
    if st1.p_fun is not None or st2.p_fun is not None:
        def p_fun(x):
            p1 = st1.p_fun(x[:n1]) if st1.p_fun is not None else eye(st1.n)
            p2 = st2.p_fun(x[n1:]) if st2.p_fun is not None else eye(st2.n)
            return _block_rows(p1, _zeros(st1.n, st2.n), _zeros(st2.n, st1.n), p2)

    return QuadraticDifferentialStorage(
        m_fun, st1.n + st2.n, p_fun=p_fun,
        c1=min(st1.c1, st2.c1), c2=max(st1.c2, st2.c2),
    )


def _composite_supply(s1: DynSystem, s2: DynSystem):
    """Block-diagonal product tensor; strict decay min(a1, a2)(S/2) when both
    subsystems are state-strict (the loop proof's combination)."""
    sp1, sp2 = s1.supply, s2.supply
    if sp1 is None or sp2 is None:
        return None
    q1, q2 = sp1.q, sp2.q
    n1 = s1.n

    def w_fun(x):
        w1 = sp1.w_fun(x[:n1])
        w2 = sp2.w_fun(x[n1:])
        return _block_rows(w1, _zeros(q1, q2), _zeros(q2, q1), w2)

    strictness = "none"
    rate = None
    if sp1.strictness == "state" and sp2.strictness == "state":
        a1, a2 = sp1.state_rate, sp2.state_rate
        strictness = "state"
        rate = lambda s: min(a1(s / 2.0), a2(s / 2.0))
    return SupplyRate(w_fun, q1 + q2, strictness, rate)


def _check_ports(s1: DynSystem, s2: DynSystem):
    if s1.q != s2.q:
        raise ValueError(f"port dimensions differ: {s1.q} vs {s2.q}")


def output_feedback(s1: DynSystem, s2: DynSystem) -> InterconnectedSystem:
    """Negative-feedback output coupling u1 = -y2 + v1, u2 = y1 + v2.

    At most one subsystem may have throughput (a double-throughput loop is
    algebraic and is rejected).  The composite supply pairs each output
    displacement with its own external-input displacement; the internal
    cross terms cancel by skew symmetry and never appear.
    """
    _check_ports(s1, s2)
    if s1.has_throughput and s2.has_throughput:
        raise AlgebraicLoopError("both subsystems have throughput")
    n1, n2, q = s1.n, s2.n, s1.q

    if not s2.has_throughput:
        # y2 = h2(x2) is explicit; u1 = -h2 + v1 feeds system 1
        def f(x, e):
            x1, x2 = x[:n1], x[n1:]
            u1_auto = [-v for v in s2.h(x2, e)]
            y1_auto = s1.output_with(x1, e, u1_auto)
            return s1.rhs_with(x1, e, u1_auto) + s2.rhs_with(x2, e, y1_auto)

        def g(x, e):
            x1, x2 = x[:n1], x[n1:]
            g1 = s1.g(x1, e)
            g2 = s2.g(x2, e)
            top = [list(g1[r]) + [0.0] * q for r in range(n1)]
            if s1.has_throughput:
                i1 = s1.i(x1, e)
                g2i1 = [[dot(g2[r], [i1[k][c] for k in range(q)]) for c in range(q)]
                        for r in range(n2)]
            else:
                g2i1 = _zeros(n2, q)
            bottom = [list(g2i1[r]) + list(g2[r]) for r in range(n2)]
            return top + bottom

        def h(x, e):
            x1, x2 = x[:n1], x[n1:]
            h2 = s2.h(x2, e)
            y1_auto = s1.output_with(x1, e, [-v for v in h2])
            return list(y1_auto) + list(h2)

        i = None
        if s1.has_throughput:
            def i(x, e):
                i1 = s1.i(x[:n1], e)
                return _block_rows(i1, _zeros(q, q), _zeros(q, q), _zeros(q, q))
    else:
        # y1 = h1(x1) is explicit; u2 = h1 + v2 feeds system 2
        def f(x, e):
            x1, x2 = x[:n1], x[n1:]
            h1 = s1.h(x1, e)
            y2_auto = s2.output_with(x2, e, h1)
            return s1.rhs_with(x1, e, [-v for v in y2_auto]) + s2.rhs_with(x2, e, h1)

        def g(x, e):
            x1, x2 = x[:n1], x[n1:]
            g1 = s1.g(x1, e)
            g2 = s2.g(x2, e)
            i2 = s2.i(x2, e)
            g1i2 = [[-dot(g1[r], [i2[k][c] for k in range(q)]) for c in range(q)]
                    for r in range(n1)]
            top = [list(g1[r]) + list(g1i2[r]) for r in range(n1)]
            bottom = [[0.0] * q + list(g2[r]) for r in range(n2)]
            return top + bottom

        def h(x, e):
            x1, x2 = x[:n1], x[n1:]
            h1 = s1.h(x1, e)
            return list(h1) + list(s2.output_with(x2, e, h1))

        def i(x, e):
            # y1 = h1(x1) carries no v-dependence; only y2 sees v2 through i2
            i2 = s2.i(x[n1:], e)
            return _block_rows(_zeros(q, q), _zeros(q, q), _zeros(q, q), i2)

    loop = InterconnectedSystem(
        n1 + n2, 2 * q, f, g, h, i=i, exo=_merge_exo(s1, s2),
        storage=_composite_storage(s1, s2), supply=_composite_supply(s1, s2),
        name=f"feedback({s1.name},{s2.name})",
        sub1=s1, sub2=s2, coupling="output-feedback",
    )
    return loop


def state_feedback(s1: DynSystem, s2: DynSystem, k1, k2) -> InterconnectedSystem:
    """State coupling u1 = -k2(x2) + v1, u2 = k1(x1) + v2.

    k1: x1 -> R^q and k2: x2 -> R^q must be dual-evaluable.  Cross-term
    cancellation is NOT assumed; verify it with :func:`check_equalization`.
    """
    _check_ports(s1, s2)
    n1, n2, q = s1.n, s2.n, s1.q

    def f(x, e):
        x1, x2 = x[:n1], x[n1:]
        u1_auto = [-v for v in k2(x2)]
        u2_auto = list(k1(x1))
        return s1.rhs_with(x1, e, u1_auto) + s2.rhs_with(x2, e, u2_auto)

    def g(x, e):
        x1, x2 = x[:n1], x[n1:]
        g1 = s1.g(x1, e)
        g2 = s2.g(x2, e)
        top = [list(g1[r]) + [0.0] * q for r in range(n1)]
        bottom = [[0.0] * q + list(g2[r]) for r in range(n2)]
        return top + bottom

    def h(x, e):
        x1, x2 = x[:n1], x[n1:]
        y1 = s1.output_with(x1, e, [-v for v in k2(x2)])
        y2 = s2.output_with(x2, e, list(k1(x1)))
        return list(y1) + list(y2)

    i = None
    if s1.has_throughput or s2.has_throughput:
        def i(x, e):
            x1, x2 = x[:n1], x[n1:]
            i1 = s1.i(x1, e) if s1.has_throughput else _zeros(q, q)
            i2 = s2.i(x2, e) if s2.has_throughput else _zeros(q, q)
            return _block_rows(i1, _zeros(q, q), _zeros(q, q), i2)

    return InterconnectedSystem(
        n1 + n2, 2 * q, f, g, h, i=i, exo=_merge_exo(s1, s2),
        storage=_composite_storage(s1, s2), supply=_composite_supply(s1, s2),
        name=f"state-feedback({s1.name},{s2.name})",
        sub1=s1, sub2=s2, coupling="state-feedback", k1=k1, k2=k2,
    )


# ---------------------------------------------------------------------------
# equalization


@dataclass
class EqualizationReport:
    max_residual: float
    worst_x1: tuple[float, ...]
    worst_x2: tuple[float, ...]
    n_pairs: int
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "equalization",
            "passed": bool(self.passed),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "n_pairs": self.n_pairs,
            "worst_x1": list(self.worst_x1),
            "worst_x2": list(self.worst_x2),
        }


def _lattice(n: int, lo: float, hi: float, count: int) -> np.ndarray:
    # deterministic diagonal lattice: `count` points spread along the box diagonal
    fracs = np.linspace(0.0, 1.0, count)
    return np.array([[lo + f * (hi - lo)] * n for f in fracs])


def check_equalization(
    s1: DynSystem,
    s2: DynSystem,
    k1,
    k2,
    w1_fun,
    w2_fun,
    n_random: int = 100,
    seed: int = 0,
    box: tuple[float, float] = (-1.0, 1.0),
    tol: float = 1e-8,
    t: float = 0.0,
) -> EqualizationReport:
    """Verify the bilinear tensor-equalization identity

        <dy1, Dk2(x2) dx2>_{W(x1)} = <dy2, Dk1(x1) dx1>_{W(x2)}

    on sampled state pairs.  Both identities are bilinear in (dx1, dx2), so
    probing all basis-vector pairs covers every displacement; in matrix form
    the residual is  Dh1^T W1 Dk2 - (Dh2^T W2 Dk1)^T.
    """
    if s1.has_throughput or s2.has_throughput:
        raise ValueError("equalization check applies to throughput-free output maps")
    e1 = s1.exo_at(t)
    e2 = s2.exo_at(t)
    lo, hi = box
    lattice1 = _lattice(s1.n, lo, hi, 10)
    lattice2 = _lattice(s2.n, lo, hi, 10)
    pairs = [(p1, p2) for p1 in lattice1 for p2 in lattice2]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        pairs.append(
            (lo + rng.random(s1.n) * (hi - lo), lo + rng.random(s2.n) * (hi - lo))
        )
    worst = -1.0
    worst_pair = (lattice1[0], lattice2[0])
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
            worst = resid
            worst_pair = (p1, p2)
    return EqualizationReport(
        max_residual=worst,
        worst_x1=tuple(map(float, worst_pair[0])),
        worst_x2=tuple(map(float, worst_pair[1])),
        n_pairs=len(pairs),
        tolerance=tol,
        passed=worst <= tol,
    )


def build_equalizing_feedback(m_scalar, pi, n: int, seed: int = 0, tol: float = 1e-8):
    """Feedback k(x) = Pi^T grad(m)(x) from a scalar potential.

    Its Jacobian is Pi^T times the Hessian of m identically, which is the
    gradient-form equalizing construction.  The identity is spot-verified at
    100 seeded random points before the closure is returned.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != n:
        raise ValueError(f"Pi must have {n} rows")
    pi_rows = pi.T.tolist()  # Pi^T as nested lists for dual-friendly matvec

    def grad_m(x):
        length = len(x)
        out = []
        for j in range(length):
            seed_dir = [1.0 if k == j else 0.0 for k in range(length)]
            out.append(jvp(lambda z: [m_scalar(z)], x, seed_dir)[0])
        return out

    def k(x):
        gm = grad_m(x)
        return mat_vec(pi_rows, gm)

    rng = np.random.default_rng(seed)
    hess = lambda x: jacobian(grad_m, x)
    for _ in range(100):
        x = (rng.random(n) * 2.0 - 1.0).tolist()
        jk = jacobian(k, x)
        target = pi.T @ hess(x)
        err = float(np.max(np.abs(jk - target)))
        if err > tol:
            raise ValueError(
                f"gradient-form feedback failed its Jacobian identity (error {err:.3g})"
            )
    return k
