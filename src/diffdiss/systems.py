"""Control-affine systems with outputs and exogenous signals, plus the
tangent lift that produces the paired (x, dx) displacement dynamics.

A system is

    xdot = f(x) + g(x) u        y = h(x) + i(x) u   (throughput i optional)

where f, g, h, i may also read named exogenous time signals (frozen
coefficients under the lift: the displacement of an exogenous signal is
zero).  All maps take ``(x, e)`` with ``x`` a sequence of scalars (floats
or dual scalars) and ``e`` a dict of exogenous values, and return nested
lists.  Evaluability on dual scalars is what makes every map C^1
accessible to the lift and to the certificate checkers.  The lift has two
paths.  A map compiled from expressions (``exprlang.compile_map`` or
``compile_matrix``) is lifted through its ``tangent``, which returns the
value and the Jacobian action on dx from a generated program that performs
the float operations of the dual rules, with no dual arithmetic; a lift of
compiled f and g runs one program for the whole of f + g·u.  Any other map is
evaluated once on x seeded with dx, and the lift reads its value from the
value part of that dual evaluation, so the value on duals must equal the
value on floats.  Both paths give the same bits for the same map.

Batch contract: the entries of ``x`` (and the values in ``e`` and ``u``)
may be floats, duals, or duals over 1-d float arrays, one element per
batch member.  One call then evaluates the whole batch, and each element
must come out exactly as a call on that point alone would.  Plain
arithmetic and the ``numerics`` helpers do; branching on a batched value
(``if x[0] > 0``) raises ``TypeError`` instead of picking one branch for
every member, so use ``numerics.minimum``/``maximum``/``absolute``.

:func:`simulate_ensemble` is the one integrator of the lifted system
(:func:`simulate_prolonged` and the homotopy family are ensembles).  The
post-integration pass evaluates all samples of all members in one call;
plain :func:`simulate` samples each signal and evaluates its outputs at all
samples in one call each.  An ensemble's input signals may be per-member:
``Signal.at(t)`` returns a float shared by every member or a length-m
array, one value per member.  Exogenous signals are shared by all members.
Under ``Rk45`` the members share one adaptive grid, and a step is accepted
only when every member's error passes, so a member's grid differs from its
solo run's; under ``Rk4`` every member is bit-identical to its solo run.

Every run on floats has one field (:func:`_float_field`): a run of one
member (every :func:`simulate_prolonged`), plain :func:`simulate`, and a
stack of at most ``_MEMBER_LOOP_MAX`` members whose lift is one generated
program.  It steps on one list of plain floats with the bits of the array
steps and reads a constant (``Signal.constant``, and so the default zero
``du``) once, when it is built.  One member runs ``rhs_with`` on its row; a
stack runs one generated program over all its rows
(:func:`exprlang.lifted_stack`), which computes the lines that read no
state once per call and the others once per member.  A stack's call that
raises, or that meets a per-member input, is made again on arrays, so a
stack fails as the array run does; one member's own error stands.  Under
``Rk4`` a run of one member whose lift is one generated program takes each
step in one generated program (:func:`_rk4_step`): the four stages and the
update on scalar locals, an expression signal (input or exogenous) written
out as float code, with the bits, ``nfev`` and errors of the field's steps.
``Rk45`` keeps its array stepper and one shared grid.  Larger stacks, and
stacks of Python maps, evaluate all members in one call per field
evaluation and step on arrays; the limit comes from a measured crossover
(see ``_MEMBER_LOOP_MAX``).
Every path (the float field, the generated step, the array field and the
pass after integration) reads the inputs, then the exogenous signals, so
when both fail at one time the run raises the input's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprlang
from .numerics import (
    FLOAT_ERRORS,
    DualScalar,
    Rk4,
    Stepper,
    batch_rows,
    dot,
    dual_parts,
    float_value,
    _integrate_floats,
    _NonFinite,
    integrate,
    jvp,  # noqa: F401  -- unused here; perfbench/tracing.py patches systems.jvp by name
    scalar_deriv,
    seed,
)


class SignalError(Exception):
    """A time signal was queried outside its domain or capabilities."""


class Signal:
    """Scalar time signal: the closures ``at(t)`` and ``many(times)``
    picked at construction, whether the signal is ``smooth``, its ``fixed``
    value if it is a constant (None otherwise), which a run reads once
    instead of calling ``at`` per stage, and the ``compiled`` map of ``t``
    an expression signal evaluates (None otherwise), which a generated RK4
    step writes out in place of calling ``at``.

    ``many(times)`` returns ``at`` at each of a 1-d array of times, bit for
    bit, as one array (one row per time for a per-member signal) from one
    call where the signal allows it.  Smooth signals (constant, analytic,
    expression) are dual-evaluable, so ``deriv`` and ``deriv2`` are dual
    passes of ``at`` and accept dual ``t`` too; sampled signals interpolate
    linearly and have no derivative.
    """

    __slots__ = ("at", "many", "smooth", "fixed", "compiled")

    def __init__(self, at: Callable, smooth: bool = True, many: Callable | None = None):
        self.at = at
        self.many = many or (lambda times: np.array([at(t) for t in times], dtype=float))
        self.smooth = smooth
        self.fixed: float | None = None
        self.compiled = None

    @classmethod
    def zero(cls) -> "Signal":
        return cls.constant(0.0)

    @classmethod
    def constant(cls, value: float) -> "Signal":
        value = float(value)
        sig = cls(lambda t: value, many=lambda times: np.full(len(times), value))
        sig.fixed = value
        return sig

    @classmethod
    def sampled(cls, times: Sequence[float], samples: Sequence[float]) -> "Signal":
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if times.ndim != 1 or times.shape != samples.shape or times.size < 2:
            raise SignalError("sampled signal needs matching 1-d times and samples")
        if np.any(np.diff(times) <= 0.0):
            raise SignalError("sample times must be strictly increasing")
        lo, hi = times[0], times[-1]
        slack = 1e-9 * max(hi - lo, 1.0)

        def check(t):
            if t < lo - slack or t > hi + slack:
                raise SignalError(f"sampled signal queried at t={t:.6g} outside [{lo:.6g}, {hi:.6g}]")

        def at(t):
            if isinstance(t, DualScalar):
                raise SignalError("sampled signals are not dual-evaluable and have no derivative")
            check(t)
            return float(np.interp(t, times, samples))

        def many(ts):
            ts = np.asarray(ts, dtype=float)
            outside = np.flatnonzero((ts < lo - slack) | (ts > hi + slack))
            if outside.size:
                check(ts[outside[0]])
            return np.interp(ts, times, samples)

        return cls(at, smooth=False, many=many)

    @classmethod
    def analytic(cls, fn: Callable) -> "Signal":
        """Wrap a dual-evaluable callable of time."""
        return cls(fn)

    @classmethod
    def from_expr(cls, expr: "str | exprlang.Expr") -> "Signal":
        """Analytic signal defined by an expression (source text or a parsed
        AST) in the variable ``t``."""
        ast = exprlang.parse(expr) if isinstance(expr, str) else expr
        extra = exprlang.variables(ast) - {"t"}
        if extra:
            raise SignalError(f"signal expression may only use 't', found {sorted(extra)}")
        fn = exprlang.compile_map([ast], ["t"])

        def many(times):
            # one call on the array: the same float operations per element
            out = fn((np.asarray(times, dtype=float),))[0]
            return out if isinstance(out, np.ndarray) else np.full(len(times), float(out))

        sig = cls(lambda t: fn((t,))[0], many=many)
        sig.compiled = fn
        return sig

    def value(self, t: float) -> float:
        return float_value(self.at(t))

    def deriv(self, t):
        """d/dt at ``t``, which may be a dual; a sampled signal raises
        :class:`SignalError`."""
        return scalar_deriv(self.at, t)

    def deriv2(self, t):
        return scalar_deriv(self.deriv, t)

    def __call__(self, t: float) -> float:
        return self.value(t)


def as_signal(u) -> Signal:
    if isinstance(u, Signal):
        return u
    if u is None:
        return Signal.zero()
    if isinstance(u, (int, float)):
        return Signal.constant(u)
    if callable(u):
        return Signal.analytic(u)
    raise SignalError(f"cannot interpret {u!r} as a signal")


def signal_vector(u, q: int) -> list[Signal]:
    """Normalize an input spec to a list of ``q`` signals (None means zero)."""
    if u is None:
        return [Signal.zero() for _ in range(q)]
    if isinstance(u, (Signal, int, float)) or callable(u):
        sigs = [as_signal(u)]
    else:
        sigs = [as_signal(s) for s in u]
    if len(sigs) != q:
        raise ValueError(f"expected {q} input signals, got {len(sigs)}")
    return sigs


# ---------------------------------------------------------------------------
# systems


class DynSystem:
    """Control-affine system with output map and exogenous signal slots.

    f: (x, e) -> n-list        g: (x, e) -> n x q nested list
    h: (x, e) -> q-list        i: (x, e) -> q x q nested list (optional)

    ``e`` maps exogenous signal names to their float values at the current
    time.  Instances are immutable by convention and safe to share.
    """

    def __init__(self, n, q, f, g, h, i=None, exo=None, storage=None, supply=None, name=""):
        if n < 1 or q < 1:
            raise ValueError("state and port dimensions must be at least 1")
        self.n = int(n)
        self.q = int(q)
        self.f = f
        self.g = g
        self.h = h
        self.i = i
        self.exo: dict[str, Signal] = dict(exo or {})
        self.storage = storage
        self.supply = supply
        self.name = name
        self.base: "DynSystem | None" = None

    @property
    def has_throughput(self) -> bool:
        return self.i is not None

    def exo_at(self, t: float) -> dict[str, float]:
        return {name: sig.value(t) for name, sig in self.exo.items()}

    def rhs(self, t: float, x: Sequence, u: Sequence) -> list:
        return self.rhs_with(x, self.exo_at(t), u)

    def rhs_with(self, x: Sequence, e: Mapping[str, float], u: Sequence) -> list:
        fx = self.f(x, e)
        gx = self.g(x, e)
        if len(fx) != self.n or len(gx) != self.n:
            raise ValueError(f"system '{self.name}': f/g must return {self.n} rows")
        self._check_widths("g", gx)
        return [fx[k] + dot(gx[k], u) for k in range(self.n)]

    def output(self, t: float, x: Sequence, u: Sequence) -> list:
        return self.output_with(x, self.exo_at(t), u)

    def output_with(self, x: Sequence, e: Mapping[str, float], u: Sequence) -> list:
        hx = self.h(x, e)
        if len(hx) != self.q:
            raise ValueError(f"system '{self.name}': h must return {self.q} entries")
        if self.i is None:
            return list(hx)
        ix = self.i(x, e)
        if len(ix) != self.q:
            raise ValueError(f"system '{self.name}': i must return {self.q} rows")
        self._check_widths("i", ix)
        return [hx[k] + dot(ix[k], u) for k in range(self.q)]

    def _check_widths(self, label: str, rows) -> None:
        """Raise unless every row of the matrix map ``label`` has q entries,
        one per input (``dot`` would drop the inputs past a short row)."""
        for row in rows:
            if len(row) != self.q:
                raise ValueError(f"system '{self.name}': each {label} row must have "
                                 f"{self.q} entries, got {len(row)}")


def lift(sys: DynSystem) -> DynSystem:
    """Displacement lift: a control-affine system on the doubled state
    (x, dx) with input (u, du) and output (y, dy).

    The dx dynamics are  d(dx)/dt = Df(x) dx + [Dg(x) u] dx + g(x) du  and
    the dy output applies the same Jacobian action to h and i.  Exogenous
    signals enter as frozen coefficients (their displacement is zero).

    A map with a ``tangent`` (every map :func:`exprlang.compile_map` or
    :func:`exprlang.compile_matrix` returns) is lifted through it: one call
    gives the map at x and its Jacobian action on dx, from a generated
    program that performs the float operations of the dual rules, so the
    lift is bit for bit what the dual pass gives.  When f and g are both
    compiled over the same state names, ``rhs_with`` is one generated
    program of both (:func:`exprlang.lifted_rhs`), which shares their
    common subexpressions and returns f + g·u directly, with the same bits.
    Any other map (a Python callable) is evaluated once on x seeded with dx:
    the value parts of the result are the map at x and the derivative parts
    its Jacobian action on dx.
    """
    n, q = sys.n, sys.q

    def lift_vector(fun):
        tangent = _tangent_of(fun, matrix=False)

        def lifted(X, e):
            values, tangents = tangent(X[:n], X[n:], e)
            return values + tangents

        return lifted

    def lift_matrix(fun):
        # [[G, 0], [dG, G]] for an r x q matrix map G
        tangent = _tangent_of(fun, matrix=True)
        zero_row = [0.0] * q

        def lifted(X, e):
            values, tangents = tangent(X[:n], X[n:], e)
            return [v + zero_row for v in values] + [d + v for d, v in zip(tangents, values)]

        return lifted

    lifted = DynSystem(
        2 * n, 2 * q, lift_vector(sys.f), lift_matrix(sys.g), lift_vector(sys.h),
        i=lift_matrix(sys.i) if sys.i is not None else None,
        exo=sys.exo, name=f"lift({sys.name})" if sys.name else "lift",
    )
    rhs = _compiled_rhs(sys)
    if rhs is not None:
        lifted.rhs_with = rhs
    lifted.base = sys
    return lifted


def _compiled_rhs(sys: DynSystem):
    """The generated ``rhs_with(X, e, U)`` of the lift of ``sys`` if its f
    and g are compiled maps of the right shape over the same n state names,
    else None."""
    f, g = sys.f, sys.g
    names = getattr(f, "names", None)
    if names is None or getattr(g, "names", None) != names or len(names) != sys.n:
        return None
    if len(f.asts) != sys.n or any(isinstance(a, list) for a in f.asts):
        return None
    if len(g.asts) != sys.n or any(not isinstance(row, list) or len(row) != sys.q
                                   for row in g.asts):
        return None
    return exprlang.lifted_rhs(f, g)


def _tangent_of(fun, matrix: bool):
    """``tangent(x, dx, e) -> (values, tangents)`` of a map: its own
    ``tangent``, which generates its program on the first call, if it has
    one, else one dual pass of ``fun`` on x seeded with dx, split into value
    and derivative parts (row by row for a matrix map)."""
    tangent = getattr(fun, "tangent", None)
    if tangent is not None:
        return tangent
    if matrix:
        def dual_tangent(x, dx, e):
            parts = [dual_parts(row) for row in fun(seed(x, dx), e)]
            return [values for values, _ in parts], [derivs for _, derivs in parts]
    else:
        def dual_tangent(x, dx, e):
            return dual_parts(fun(seed(x, dx), e))
    return dual_tangent


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Time-gridded record of a plain simulation."""

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray


@dataclass
class ProlongedTrajectory:
    """Time-gridded record of a co-integrated (x, dx) pair with port columns.

    All columns share the time grid.  ``dy`` is the exact Jacobian action of
    the output map on (dx, du) at each sample, and ``xdot``/``dxdot`` hold
    the right-hand sides so audits can differentiate storages analytically
    along the flow.  ``S``/``Q``/``slack`` are filled by audits.
    """

    times: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    u: np.ndarray
    du: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    xdot: np.ndarray
    dxdot: np.ndarray
    S: np.ndarray | None = None
    Q: np.ndarray | None = None
    slack: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.u.shape[1]


def _exo_reader(sys: DynSystem):
    """``read(t)``: the exogenous values of ``sys`` at ``t``, the dict
    ``exo_at`` gives.  A constant is read once, here."""
    items = [(name, sig.fixed, sig.value) for name, sig in sys.exo.items()]
    if all(fixed is not None for _, fixed, _ in items):
        values = {name: fixed for name, fixed, _ in items}
        return lambda t: values
    return lambda t: {name: value(t) if fixed is None else fixed
                      for name, fixed, value in items}


def _rk4_step(lifted: DynSystem, sigs: list[Signal]):
    """``step(t, x, h)``: :func:`numerics._rk4_step_floats` of
    ``_float_field(lifted, sigs)`` as one generated program on floats, for a
    lift whose ``rhs_with`` :func:`lift` generated.

    Each stage takes the inputs in order, then the exogenous values in the
    order :func:`_exo_reader` reads them, as the field does, then runs the
    float kind of the lifted program on scalar locals and raises
    ``_NonFinite`` if a row is not finite, as ``_finite_floats`` does; the
    stages and the update perform ``_rk4_step_floats``' operations in its
    order.  So the step gives its bits and raises its errors, with no field
    call and no list per stage.  A constant input or exogenous value is a
    global of the program; an expression signal, input or exogenous, is
    written out as float code, computed once at ``t + 0.5*h`` for the second
    and third stages (which both compute that time by the same operation);
    any other input is read through its ``at``, a length-1 array read as its
    one float, and any other exogenous signal through its ``value``.
    Constants are globals and states are read by position, so no config text
    enters the source and steps of one structure share one compiled code
    object."""
    f, g, n = lifted.base.f, lifted.base.g, lifted.base.n
    program = exprlang._Program((), None, floats=True)
    lines, scope = program.lines, program.scope
    scope.update(_isfinite=math.isfinite, _NonFinite=_NonFinite, _ndarray=np.ndarray)
    # Constants only: the program reads them from ``e``.  With a live signal
    # every exogenous value is a local, and a name outside ``lifted.exo``
    # raises on the empty ``e`` as it does on the reader's dict.
    live = any(sig.fixed is None for sig in lifted.exo.values())
    scope["e"] = {} if live else {name: sig.fixed for name, sig in lifted.exo.items()}
    exo_globals = {}  # the global holding each constant, or the ``value`` read through it
    for name, sig in lifted.exo.items():
        if live and sig.compiled is None:
            exo_globals[name] = program.fresh("E")
            scope[exo_globals[name]] = sig.value if sig.fixed is None else sig.fixed
    readers = {}  # the global holding the ``at`` of each input read through it
    for k, sig in enumerate(sigs):
        if sig.fixed is None and sig.compiled is None:
            readers[k] = program.fresh("A")
            scope[readers[k]] = sig.at

    def stage(time: str, states: list[str], expressions: dict) -> list[str]:
        """The rows at ``time``; ``expressions`` holds the expression inputs
        (by input index) and exogenous signals (by name) already computed
        there."""
        program.restart(["t"], lambda _: time)  # the expression signals' DAG
        u = []
        for k, sig in enumerate(sigs):
            if sig.fixed is not None:
                u.append(program.const(sig.fixed))
            elif sig.compiled is not None:
                if k not in expressions:
                    (expressions[k], _), = program.entries(sig.compiled.asts, sig.compiled.exo)
                u.append(expressions[k])
            else:
                v = program.let(f"{readers[k]}({time})")
                lines.append(f"if {v}.__class__ is _ndarray: {v} = {v}.item()")
                u.append(v)
        exo = {}
        for name, sig in lifted.exo.items() if live else ():
            if sig.compiled is not None:
                if name not in expressions:
                    (expressions[name], _), = program.entries(sig.compiled.asts, sig.compiled.exo)
                exo[name] = expressions[name]
            elif sig.fixed is None:
                exo[name] = program.let(f"{exo_globals[name]}({time})")
            else:
                exo[name] = exo_globals[name]
        program.restart(f.names, states.__getitem__, lambda k: states[n + k])
        program.exo.update(exo)
        rows = program.lifted_rows(f, g, u)
        finite = " and ".join(f"_isfinite({r})" for r in rows)
        lines.append(f"if not ({finite}): raise _NonFinite({time})")
        return rows

    def moved(x: list[str], c: str, k: list[str]) -> list[str]:
        return [program.let(f"{xi} + {c} * {ki}") for xi, ki in zip(x, k)]

    x = [program.fresh("s") for _ in range(2 * n)]
    lines.append(f"{', '.join(x)}, = x")
    k1 = stage("t", x, {})
    a = program.let("0.5 * h")
    mid = program.let(f"t + {a}")
    middle: dict = {}  # shared by k2 and k3
    k2 = stage(mid, moved(x, a, k1), middle)
    k3 = stage(mid, moved(x, a, k2), middle)
    k4 = stage(program.let("t + h"), moved(x, "h", k3), {})
    b = program.let("h / 6.0")
    out = [program.let(f"{xi} + {b} * ((({a1} + 2.0 * {a2}) + 2.0 * {a3}) + {a4})")
           for xi, a1, a2, a3, a4 in zip(x, k1, k2, k3, k4)]
    lines.append(f"if not ({' and '.join(f'_isfinite({z})' for z in out)}): raise _NonFinite(t)")
    return program.function("t, x, h", f"[{', '.join(out)}]")


# The largest stack of a compiled lift that steps on floats, through its
# stack program; a larger one makes one array call per field call.
# Integration time per field call in us, array call / stack program (Rk4, dt
# 1e-2 over 1 s, best of 45-96 on a shared 2-vCPU x86-64 host, Python 3.11,
# numpy 2.4):
#
#   m                 2         4         9        16        20        24        32
#   RC         16.1/3.5  16.1/5.0  16.5/8.1 16.0/11.8 16.4/15.1 17.6/18.4 16.5/21.9
#   motor      70.5/9.0 73.1/15.0 73.9/28.8 80.1/49.2 84.2/60.3 85.7/73.8 83.5/92.9
#   state loop 69.9/6.6 66.8/10.4 69.4/20.1 68.8/33.4 67.2/40.2 69.2/47.6 69.1/63.6
#
# The RC crosses over between 20 and 24 members, the motor between 24 and 32,
# and the loop of two scalar plants past 32; the limit stays below all three.
_MEMBER_LOOP_MAX = 16


def _float_field(sys: DynSystem, sigs: list[Signal], stack=None, array_field=None):
    """``field(t, z)`` of ``sys`` on one list of floats, for
    :func:`numerics._integrate_floats`.  Each call reads the inputs, then the
    exogenous values, as ``array_field`` does (a constant once, here), and
    runs ``sys.rhs_with`` on one member's row, or the program ``stack(z, e,
    u)`` of :func:`exprlang.lifted_stack` on the rows of a stack, stacked
    member-major.  A length-1 input array is read as its one float.  A
    stack's call that raises is made again as ``array_field(t, z)``, so its
    error is the array call's, and so is a call with an input array of any
    other length (one value per member, say), which the array call
    broadcasts or rejects; one member has no array call, so its own error
    stands."""
    rhs, exo = stack or sys.rhs_with, _exo_reader(sys)
    values = [s.fixed for s in sigs]
    live = [(k, s.at) for k, s in enumerate(sigs) if s.fixed is None]

    def field(t, z):
        u = values.copy() if live else values
        for k, at in live:
            v = at(t)
            if type(v) is np.ndarray:
                if v.size != 1 and array_field is not None:
                    return array_field(t, np.asarray(z))
                v = v.item()
            u[k] = v
        e = exo(t)
        if array_field is None:
            return rhs(z, e, u)
        try:
            return rhs(z, e, u)
        except Exception:
            return array_field(t, np.asarray(z))

    return field


def simulate(
    sys: DynSystem,
    x0: Sequence[float],
    u=None,
    t_final: float = 1.0,
    stepper: Stepper | None = None,
) -> Trajectory:
    """Integrate the system under input signals ``u`` over [0, t_final]."""
    if len(x0) != sys.n:
        raise ValueError(f"x0 must have {sys.n} entries")
    sigs = signal_vector(u, sys.q)
    sol = _integrate_floats(_float_field(sys, sigs), x0, (0.0, float(t_final)), stepper or Rk4())
    times = sol.times
    N = len(times)
    with np.errstate(**FLOAT_ERRORS):
        uu = np.stack([s.many(times) for s in sigs], axis=1)
        E = {name: sig.many(times) for name, sig in sys.exo.items()}
        yy = batch_rows(sys.output_with(list(sol.states.T), E, list(uu.T)), N)
    return Trajectory(times, sol.states, uu, yy)


def simulate_prolonged(
    sys: DynSystem,
    x0: Sequence[float],
    dx0: Sequence[float],
    u=None,
    du=None,
    t_final: float = 1.0,
    stepper: Stepper | None = None,
) -> ProlongedTrajectory:
    """Co-integrate (x, dx) as one doubled system on a shared grid.

    ``du`` defaults to the zero signal, which is the right device for
    comparing neighbouring trajectories under equal inputs.
    """
    if len(x0) != sys.n or len(dx0) != sys.n:
        raise ValueError(f"x0 and dx0 must have {sys.n} entries")
    return simulate_ensemble(sys, [x0], [dx0], u=u, du=du, t_final=t_final, stepper=stepper)[0]


def simulate_ensemble(
    sys: DynSystem,
    x0s: Sequence[Sequence[float]],
    dx0s: Sequence[Sequence[float]],
    u=None,
    du=None,
    t_final: float = 1.0,
    stepper: Stepper | None = None,
) -> list[ProlongedTrajectory]:
    """Co-integrate m prolonged trajectories, one per row of ``x0s`` and
    ``dx0s``, as one stacked ODE on a shared grid.

    The state is stored member-major, [x_0, dx_0, x_1, dx_1, ...].  A
    right-hand-side evaluation runs on floats when there is one member
    (``lift(sys).rhs_with`` on its row), or when the lift is one generated
    program and m is at most ``_MEMBER_LOOP_MAX`` (the stack program of
    :func:`exprlang.lifted_stack`, generated here, over every row);
    otherwise it is one ``rhs_with`` call over all members on arrays.  Each
    reads the inputs, then the exogenous signals.  The stack program gives
    the bits, counts and errors of the call over all members.  An input
    signal may return a float (shared by every member) or a length-m array
    (one value per member, which a stack takes to the array call);
    exogenous signals are shared.  Under ``Rk45`` the members share one
    adaptive grid: a step is accepted only when every member's error passes.
    """
    X0 = np.asarray(x0s, dtype=float)
    dX0 = np.asarray(dx0s, dtype=float)
    if X0.ndim != 2 or X0.shape != dX0.shape or X0.shape[1] != sys.n or not len(X0):
        raise ValueError(
            f"x0s and dx0s must both be (m, {sys.n}) with m >= 1, "
            f"got {X0.shape} and {dX0.shape}"
        )
    m, width = len(X0), 2 * sys.n
    lifted = lift(sys)
    sigs = signal_vector(u, sys.q) + signal_vector(du, sys.q)
    exo = _exo_reader(lifted)

    def array_field(t, z):
        uv = [s.at(t) for s in sigs]
        X = list(z.reshape(m, width).T)
        return batch_rows(lifted.rhs_with(X, exo(t), uv), m).ravel()

    # The float field steps on lists of plain floats: one member, whose
    # Python map divides by zero as in a solo float call, or a stack of at
    # most ``_MEMBER_LOOP_MAX`` members when ``lift`` installed one generated
    # program, whose stack program gives the array call's bits.  Under
    # ``Rk4`` one member of a generated lift takes each step in one generated
    # program.  Each program is generated only for the runs that use it.
    stepper = stepper or Rk4()
    compiled = "rhs_with" in vars(lifted)
    step = ()
    if m == 1:
        field, solve = _float_field(lifted, sigs), _integrate_floats
        if compiled and isinstance(stepper, Rk4):
            step = (_rk4_step(lifted, sigs),)
    elif compiled and m <= _MEMBER_LOOP_MAX:
        stack = exprlang.lifted_stack(sys.f, sys.g)
        field, solve = _float_field(lifted, sigs, stack, array_field), _integrate_floats
    else:
        field, solve = array_field, integrate

    z0 = np.concatenate([X0, dX0], axis=1).ravel()
    with np.errstate(**FLOAT_ERRORS):
        sol = solve(field, z0, (0.0, float(t_final)), stepper, *step)
    return _prolonged_from_solution(sys, lifted, sigs, sol, m)


def _prolonged_from_solution(sys, lifted, sigs, sol, members):
    """Port and rate columns of ``members`` prolonged trajectories stored side
    by side in ``sol.states``, from one ``output_with`` and one ``rhs_with``
    call over every member at every sample.  Each input column is broadcast
    to the members, so a per-member input lands in each member's column."""
    n, q = sys.n, sys.q
    times = sol.times
    N = len(times)
    states = sol.states.reshape(N, members, 2 * n).transpose(1, 0, 2)
    X = list(states.reshape(members * N, 2 * n).T)
    with np.errstate(**FLOAT_ERRORS):
        U = np.stack([np.broadcast_to(s.many(times).T, (members, N)) for s in sigs], axis=-1)
        E = {name: np.tile(sig.many(times), members) for name, sig in lifted.exo.items()}
        Ub = list(U.reshape(members * N, 2 * q).T)
        Y = batch_rows(lifted.output_with(X, E, Ub), members * N).reshape(members, N, 2 * q)
        Xdot = batch_rows(lifted.rhs_with(X, E, Ub), members * N).reshape(members, N, 2 * n)
    return [
        ProlongedTrajectory(
            times=times,
            x=states[m, :, :n].copy(),
            dx=states[m, :, n:].copy(),
            u=U[m, :, :q].copy(),
            du=U[m, :, q:].copy(),
            y=Y[m, :, :q].copy(),
            dy=Y[m, :, q:].copy(),
            xdot=Xdot[m, :, :n].copy(),
            dxdot=Xdot[m, :, n:].copy(),
        )
        for m in range(members)
    ]
