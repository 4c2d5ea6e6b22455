"""Feedback interconnection of differentially passive systems.

Both couplings are one law, the skew-symmetric passive interconnection

    u1 = -p2 + v1,   u2 = p1 + v2,

where the port value p_j is the output y_j (``output_feedback``) or a
feedback map k_j(x_j) of the state (``state_feedback``).  With outputs as
ports the supply cross terms cancel algebraically.  With feedback maps they
cancel only when the two supply tensors are equalized by the feedback pair;
``check_equalization`` verifies that bilinear identity on sampled points
and basis displacements, and ``build_equalizing_feedback`` constructs
k = Pi^T grad(m) from a scalar potential whose Hessian is the storage
factor, which satisfies the identity exactly.

The closed loop is an ordinary DynSystem over the stacked state with input
v = (v1, v2) and output (y1, y2); composite storage S1 + S2 and the
block-diagonal supply tensor are attached when both subsystems carry them.
Its maps are closures over the subsystems' maps; when every one of those
(and k1, k2) is a compiled expression map, the loop's maps are compiled
from the expressions the closures perform (see :func:`_compiled_loop`), so
the lift runs their tangents rather than a dual pass of the closures.

``check_equalization`` evaluates h1, h2, k1, k2, W1 and W2 once over all its
sampled pairs (each Jacobian in one dual pass per column), so those maps
must follow the batch contract of :mod:`diffdiss.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .dissipativity import QuadraticDifferentialStorage, SupplyRate
from .numerics import (
    FLOAT_ERRORS,
    argworst,
    batch_matrix,
    dot,
    eye,
    gradient,
    grid_point,
    jacobian,
    jvp,  # noqa: F401  -- unused here; perfbench/tracing.py patches interconnect.jvp by name
    mat_vec,
    transpose,
    uniform_draws,
)
from .systems import DynSystem


class AlgebraicLoopError(Exception):
    """Both subsystems have throughput; the loop would be implicit."""


def _block_rows(top_left, top_right, bottom_left, bottom_right):
    rows = [list(l) + list(r) for l, r in zip(top_left, top_right)]
    rows += [list(l) + list(r) for l, r in zip(bottom_left, bottom_right)]
    return rows


def _zeros(r, c):
    return [[0.0] * c for _ in range(r)]


def _block_diagonal(a, b, n1: int):
    """The map x -> diag(a(x[:n1]), b(x[n1:])) of two square blocks, padded
    with 0.0; further arguments (the exogenous values) go to both."""

    def fun(x, *args):
        m1, m2 = a(x[:n1], *args), b(x[n1:], *args)
        return _block_rows(m1, _zeros(len(m1), len(m2)), _zeros(len(m2), len(m1)), m2)

    return fun


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

    def factor(st):
        return st.p_fun if st.p_fun is not None else lambda x: eye(st.n)

    p_fun = None
    if st1.p_fun is not None or st2.p_fun is not None:
        p_fun = _block_diagonal(factor(st1), factor(st2), st1.n)
    return QuadraticDifferentialStorage(_block_diagonal(st1.m_fun, st2.m_fun, st1.n),
                                        st1.n + st2.n, p_fun=p_fun)


def _composite_supply(s1: DynSystem, s2: DynSystem):
    """Block-diagonal product tensor; strict decay min(a1, a2)(S/2) when both
    subsystems are state-strict (the loop proof's combination)."""
    sp1, sp2 = s1.supply, s2.supply
    if sp1 is None or sp2 is None:
        return None
    strictness = "none"
    rate = None
    if sp1.strictness == "state" and sp2.strictness == "state":
        a1, a2 = sp1.state_rate, sp2.state_rate
        strictness = "state"
        rate = lambda s: min(a1(s / 2.0), a2(s / 2.0))
    return SupplyRate(_block_diagonal(sp1.w_fun, sp2.w_fun, s1.n), sp1.q + sp2.q,
                      strictness, rate)


def output_feedback(s1: DynSystem, s2: DynSystem) -> DynSystem:
    """Negative-feedback output coupling u1 = -y2 + v1, u2 = y1 + v2.

    At most one subsystem may have throughput (a double-throughput loop is
    algebraic and is rejected).  The composite supply pairs each output
    displacement with its own external-input displacement; the internal
    cross terms cancel by skew symmetry and never appear.
    """
    return _feedback(s1, s2, None, None, "feedback")


def state_feedback(s1: DynSystem, s2: DynSystem, k1, k2) -> DynSystem:
    """State coupling u1 = -k2(x2) + v1, u2 = k1(x1) + v2.

    k1: x1 -> R^q and k2: x2 -> R^q must be dual-evaluable.  Cross-term
    cancellation is NOT assumed; verify it with :func:`check_equalization`.
    """
    return _feedback(s1, s2, k1, k2, "state-feedback")


def _feedback(s1: DynSystem, s2: DynSystem, k1, k2, name: str) -> DynSystem:
    """The loop of ``s1`` and ``s2`` (see :func:`_coupled_maps`) with
    block-diagonal storage and supply."""
    if s1.q != s2.q:
        raise ValueError(f"port dimensions differ: {s1.q} vs {s2.q}")
    f, g, h, i = _loop_maps(s1, s2, k1, k2)
    return DynSystem(
        s1.n + s2.n, 2 * s1.q, f, g, h, i=i, exo=_merge_exo(s1, s2),
        storage=_composite_storage(s1, s2), supply=_composite_supply(s1, s2),
        name=f"{name}({s1.name},{s2.name})",
    )


def _coupled_maps(s1: DynSystem, s2: DynSystem, k1, k2):
    """The maps (f, g, h, i) of the loop u1 = -p2 + v1, u2 = p1 + v2, whose
    port value p_j is the output y_j when k_j is None, else k_j(x_j).

    The port that does not depend on its own input is evaluated first (y2,
    or y1 when system 2's output has throughput).  Only an output port with
    throughput carries v across the loop, so only it gives g a cross block;
    two of them make the loop algebraic.  Each port value must have q
    entries, or the loop raises ValueError when called.
    """
    n1, n2, q = s1.n, s2.n, s1.q
    crosses = [k is None and s.has_throughput for s, k in ((s1, k1), (s2, k2))]
    if all(crosses):
        raise AlgebraicLoopError("both subsystems have throughput")

    def port(s, k, name, x, e, u):
        if k is None:
            return s.output_with(x, e, u)
        p = list(k(x))
        if len(p) != q:
            raise ValueError(f"feedback map {name} must return {q} entries, not {len(p)}")
        return p

    def ports(x, e):
        """The loop's inputs u1 = -p2 and u2 = p1 (v aside), and p1, p2."""
        x1, x2 = x[:n1], x[n1:]
        if crosses[1]:
            u2 = p1 = port(s1, k1, "k1", x1, e, None)
            p2 = port(s2, k2, "k2", x2, e, u2)
            u1 = [-v for v in p2]
        else:
            p2 = port(s2, k2, "k2", x2, e, None)
            u1 = [-v for v in p2]
            u2 = p1 = port(s1, k1, "k1", x1, e, u1)
        return u1, u2, p1, p2

    def f(x, e):
        u1, u2, _, _ = ports(x, e)
        return s1.rhs_with(x[:n1], e, u1) + s2.rhs_with(x[n1:], e, u2)

    def g(x, e):
        # u1 = -(h2 + i2 (p1 + v2)) + v1 and u2 = h1 + i1 (-p2 + v1) + v2:
        # the cross blocks are -g1 i2 and g2 i1, negated after the dot so
        # that a zero keeps the sign the closures gave it
        x1, x2 = x[:n1], x[n1:]
        g1 = s1.g(x1, e)
        g2 = s2.g(x2, e)
        g1i2, g2i1 = _zeros(n1, q), _zeros(n2, q)
        if crosses[1]:
            i2 = s2.i(x2, e)
            g1i2 = [[-dot(g1[r], [i2[k][c] for k in range(q)]) for c in range(q)]
                    for r in range(n1)]
        if crosses[0]:
            i1 = s1.i(x1, e)
            g2i1 = [[dot(g2[r], [i1[k][c] for k in range(q)]) for c in range(q)]
                    for r in range(n2)]
        return _block_rows(g1, g1i2, g2i1, g2)

    def h(x, e):
        u1, u2, p1, p2 = ports(x, e)
        y1 = p1 if k1 is None else s1.output_with(x[:n1], e, u1)
        y2 = p2 if k2 is None else s2.output_with(x[n1:], e, u2)
        return y1 + y2

    i = None
    if s1.has_throughput or s2.has_throughput:
        zero = lambda x, e: _zeros(q, q)
        i = _block_diagonal(s1.i if s1.has_throughput else zero,
                            s2.i if s2.has_throughput else zero, n1)
    return f, g, h, i


# ---------------------------------------------------------------------------
# loops of expression systems


class _NotCompiled(Exception):
    """A constituent map has no expressions to compose."""


def _loop_maps(s1: DynSystem, s2: DynSystem, k1, k2):
    """The loop maps :func:`_coupled_maps` returns: compiled maps when every
    constituent map is a compiled map (:func:`_compiled_loop`), else those
    closures."""
    try:
        return _compiled_loop(s1, s2, k1, k2)
    except _NotCompiled:
        return _coupled_maps(s1, s2, k1, k2)


def _compiled_loop(s1, s2, k1, k2):
    """The closures :func:`_coupled_maps` returns, run once on traced states,
    with every constituent map standing in as its ASTs with its state names
    renamed to the loop's (:func:`exprlang.substitute`).  Each traced result is the AST
    of the float operations the closure performs (``f1 + dot(g1, u)`` with
    ``dot`` as ``(0.0 + a*b) + a*b ...``, ``u1 = -k2`` as a Neg, ``0.0``
    padding as a literal), so the maps compiled from those ASTs return what
    the closures return, errors included, and their tangents are what a dual
    pass of the closures gives, bit for bit.  An error is raised by the same
    node at the same offset; when more than one entry fails, the compiled
    map may report another one first, since it runs each row's entries in
    turn.  Raises :class:`_NotCompiled` if a constituent map has no ASTs or
    the closures fail on the traced states (they then fail when called)."""
    exo: set[str] = set()

    def traced(fun):
        if fun is None:
            return None
        asts = getattr(fun, "asts", None)
        if asts is None:
            raise _NotCompiled
        exo.update(fun.exo)
        names = fun.names

        def stand_in(x, e=None):
            if len(names) > len(x):
                raise _NotCompiled  # the map would read past its subsystem's states
            return _renamed(asts, {name: v.expr for name, v in zip(names, x)})

        return stand_in

    views = [DynSystem(s.n, s.q, traced(s.f), traced(s.g), traced(s.h), i=traced(s.i),
                       name=s.name) for s in (s1, s2)]
    f, g, h, i = _coupled_maps(*views, traced(k1), traced(k2))
    names = [f"x[{k}]" for k in range(s1.n + s2.n)]  # never an expression name
    if exo & set(names):
        raise _NotCompiled
    x = [exprlang.Traced(exprlang.Var(name)) for name in names]

    def vector(m):
        return exprlang.compile_map([exprlang.as_expr(v) for v in m(x, None)], names, exo)

    def matrix(m):
        rows = [[exprlang.as_expr(v) for v in row] for row in m(x, None)]
        return exprlang.compile_matrix(rows, names, exo)

    try:
        return vector(f), matrix(g), vector(h), None if i is None else matrix(i)
    except (ValueError, IndexError):  # a map of the wrong size, which the closures raise on
        raise _NotCompiled from None


def _renamed(asts, env):
    """Each AST of ``asts`` (a list, or a list of rows) traced, with ``env``
    substituted into it."""
    if isinstance(asts, list):
        return [_renamed(a, env) for a in asts]
    return exprlang.Traced(exprlang.substitute(asts, env))


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
    the residual is  Dh1^T W1 Dk2 - (Dh2^T W2 Dk1)^T.  The worst pair is the
    first with the largest residual; a non-finite residual raises
    :class:`NumericalError` naming its first pair.
    """
    if s1.has_throughput or s2.has_throughput:
        raise ValueError("equalization check applies to throughput-free output maps")
    e1 = s1.exo_at(t)
    e2 = s2.exo_at(t)
    lo, hi = box
    lattice1 = _lattice(s1.n, lo, hi, 10)
    lattice2 = _lattice(s2.n, lo, hi, 10)
    # every lattice pair (x1-major), then n_random seeded pairs drawn x1 first
    width = s1.n + s2.n
    unit = np.array(uniform_draws(seed, n_random * width)).reshape(n_random, width)
    draws = lo + unit * (hi - lo)
    x1 = np.vstack([np.repeat(lattice1, len(lattice2), axis=0), draws[:, :s1.n]])
    x2 = np.vstack([np.tile(lattice2, (len(lattice1), 1)), draws[:, s1.n:]])
    size = len(x1)
    with np.errstate(**FLOAT_ERRORS):
        w1 = batch_matrix(w1_fun(list(x1.T)), size)
        w2 = batch_matrix(w2_fun(list(x2.T)), size)
        jh1 = jacobian(lambda z: s1.h(z, e1), x1)
        jh2 = jacobian(lambda z: s2.h(z, e2), x2)
        jk1 = jacobian(k1, x1)
        jk2 = jacobian(k2, x2)
        resid = np.max(np.abs(transpose(jh1) @ w1 @ jk2
                              - transpose(transpose(jh2) @ w2 @ jk1)), axis=(1, 2))
    k = argworst(resid, "equalization residual",
                 lambda k: f"x1 = {grid_point(x1[k])}, x2 = {grid_point(x2[k])}")
    worst = float(resid[k])
    return EqualizationReport(
        max_residual=worst,
        worst_x1=grid_point(x1[k]),
        worst_x2=grid_point(x2[k]),
        n_pairs=size,
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

    def k(x):
        return mat_vec(pi_rows, gradient(m_scalar, x))

    hess = lambda x: jacobian(lambda z: gradient(m_scalar, z), x)
    draws = uniform_draws(seed, 100 * n)
    for c in range(100):
        x = [d * 2.0 - 1.0 for d in draws[c * n:(c + 1) * n]]
        jk = jacobian(k, x)
        target = pi.T @ hess(x)
        err = float(np.max(np.abs(jk - target)))
        if err > tol:
            raise ValueError(
                f"gradient-form feedback failed its Jacobian identity (error {err:.3g})"
            )
    return k
