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

A run on floats steps on one list of plain floats, with the bits of the
array steps.  When the lift is one generated program, each run of at most
``_MEMBER_LOOP_MAX`` members runs a generated program of the float kind,
built from one stage builder (:func:`_stage_builder`), which reads the
inputs and exogenous values at a stage time inside the program (a
constant as a global, an expression signal as float code) and then runs
the lifted program on the stage's state locals.  Under ``Rk4`` one
member's whole run is one call of one program (:func:`_rk4_run`), which
loops over the steps of the grid ``numerics._run_rk4`` hands it, with
the bits, ``nfev`` and errors of the field's steps; otherwise every field
call is one call of the stack field (:func:`_stack_field`), whose lines
that read no state run once per call and the others once per member.  A
stack field call of two or more members that raises, or meets a
per-member input, is made again on arrays, so a stack fails as the array
run does.  Plain :func:`simulate`, and one member of Python maps, run
``rhs_with`` on the list (:func:`_float_field`).  ``Rk45`` keeps its
array stepper and one shared grid.  Larger stacks, and stacks of Python
maps, evaluate all members in one call per field evaluation and step on
arrays; the limit comes from a measured crossover (see
``_MEMBER_LOOP_MAX``).  Every path (the generated programs, the float
field, the array field and the pass after integration) reads the inputs,
then the exogenous signals, so when both fail at one time the run raises
the input's error.
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
    an expression signal evaluates (None otherwise), which a generated
    float program writes out in place of calling ``at``.

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


def _stage_builder(lifted: DynSystem, sigs: list[Signal]):
    """``(program, stage)``: a new program of the float kind, and
    ``stage(time, states, expressions) -> rows``, which appends to it one
    field evaluation of ``lifted``, a lift whose ``rhs_with`` :func:`lift`
    generated, and returns the names of its 2n rows.

    A stage reads the inputs, then the exogenous values (in ``exo_at``'s
    order), at the local ``time``, then runs the lifted program on the state
    locals ``states``.  A constant input is a constant of the program; a
    constant exogenous value, the ``value`` of any other exogenous signal and
    the ``at`` of any other input (a length-1 array read as its one float)
    are globals.  An expression signal is float code; ``expressions`` holds
    those already computed at ``time``, by input index and by name.  A name
    f or g reads outside ``lifted.exo`` raises on the empty ``e``."""
    f, g, n = lifted.base.f, lifted.base.g, lifted.base.n
    program = exprlang._Program((), None, floats=True)
    scope = program.scope
    scope.update(_ndarray=np.ndarray, e={})
    exo_globals = {}  # the global holding each constant, or the ``value`` read through it
    for name, sig in lifted.exo.items():
        if sig.compiled is None:
            exo_globals[name] = program.fresh("E")
            scope[exo_globals[name]] = sig.value if sig.fixed is None else sig.fixed
    readers = {}  # the global holding the ``at`` of each input read through it
    for k, sig in enumerate(sigs):
        if sig.fixed is None and sig.compiled is None:
            readers[k] = program.fresh("A")
            scope[readers[k]] = sig.at

    def expression(key, sig: Signal, expressions: dict) -> str:
        if key not in expressions:
            (expressions[key], _), = program.entries(sig.compiled.asts, sig.compiled.exo)
        return expressions[key]

    def stage(time: str, states: list[str], expressions: dict) -> list[str]:
        program.restart(["t"], lambda _: time)  # the expression signals' DAG
        u = []
        for k, sig in enumerate(sigs):
            if sig.fixed is not None:
                u.append(program.const(sig.fixed))
            elif sig.compiled is not None:
                u.append(expression(k, sig, expressions))
            else:
                v = program.let(f"{readers[k]}({time})")
                program.lines.append(f"if {v}.__class__ is _ndarray: {v} = {v}.item()")
                u.append(v)
        exo = {}
        for name, sig in lifted.exo.items():
            if sig.compiled is not None:
                exo[name] = expression(name, sig, expressions)
            elif sig.fixed is None:
                exo[name] = program.let(f"{exo_globals[name]}({time})")
            else:
                exo[name] = exo_globals[name]
        program.restart(f.names, states.__getitem__, lambda k: states[n + k])
        program.exo.update(exo)
        return program.lifted_rows(f, g, u)

    return program, stage


def _rk4_run(lifted: DynSystem, sigs: list[Signal]):
    """``run(grid, x, states)``: every step of :func:`numerics._run_rk4`'s
    ``grid`` as :func:`numerics._rk4_step_floats` of
    ``_float_field(lifted, sigs)``, in one generated program on floats, for
    a lift whose ``rhs_with`` :func:`lift` generated.  It loops over the
    ``(t, h)`` of ``grid`` from the state ``x`` and appends each new state
    to ``states`` as a new list.

    A step's four stages are :func:`_stage_builder` stages, each raising
    ``_NonFinite`` if a row is not finite, as ``_finite_floats`` does, and
    the second and third share the expression signals at ``t + 0.5*h``.
    The stages and the update perform ``_rk4_step_floats``' operations in
    its order, so the run gives its bits and errors with no field call.
    Each finiteness test adds the values first: a finite sum shows that
    each is finite, so only a sum that is not (a value is not, or the sum
    overflows) tests them one by one.  No config text enters the source,
    so runs of one structure share one compiled code object."""
    n = lifted.base.n
    program, rows_at = _stage_builder(lifted, sigs)
    lines = program.lines
    program.scope.update(_isfinite=math.isfinite, _NonFinite=_NonFinite)

    def check(values: list[str], time: str) -> None:
        each = " and ".join(f"_isfinite({v})" for v in values)
        lines.append(f"if not (_isfinite({' + '.join(values)}) or ({each})): "
                     f"raise _NonFinite({time})")

    def stage(time: str, states: list[str], expressions: dict) -> list[str]:
        rows = rows_at(time, states, expressions)
        check(rows, time)
        return rows

    def moved(x: list[str], c: str, k: list[str]) -> list[str]:
        return [program.let(f"{xi} + {c} * {ki}") for xi, ki in zip(x, k)]

    x = [program.fresh("s") for _ in range(2 * n)]  # the state, updated in place
    k1 = stage("t", x, {})
    a = program.let("0.5 * h")
    mid = program.let(f"t + {a}")
    middle: dict = {}  # shared by k2 and k3
    k2 = stage(mid, moved(x, a, k1), middle)
    k3 = stage(mid, moved(x, a, k2), middle)
    k4 = stage(program.let("t + h"), moved(x, "h", k3), {})
    b = program.let("h / 6.0")
    lines.extend(f"{xi} = {xi} + {b} * ((({a1} + 2.0 * {a2}) + 2.0 * {a3}) + {a4})"
                 for xi, a1, a2, a3, a4 in zip(x, k1, k2, k3, k4))
    check(x, "t")
    lines.append(f"states.append([{', '.join(x)}])")
    program.lines = [f"{', '.join(x)}, = x", "for t, h in grid:",
                     *(f"    {line}" for line in lines)]
    return program.function("grid, x, states", "None")


def _stack_field(lifted: DynSystem, sigs: list[Signal]):
    """``field(t, Z)``: ``lifted.rhs_with`` at ``t`` on each member's row of
    ``Z`` (m rows of 2n floats, member-major) as one generated program of
    the float kind: one :func:`_stage_builder` stage whose lines that read no
    state (the signals, the nodes of exogenous values and constants, the
    ``g·u`` terms over them, with their guards) run once, then a loop that
    runs the others for each member and extends one list with its rows.

    If no line raises, member j's rows are, bit for bit, ``rhs_with`` on its
    row.  The field raises exactly when some member's call raises (a shared
    line is member 0's), though maybe with another of that call's errors.
    An input array of a length other than 1 raises ``ValueError``."""
    n = lifted.base.n
    program, stage = _stage_builder(lifted, sigs)
    states = [program.fresh("s") for _ in range(2 * n)]
    program.varying = set(states)
    rows = stage("t", states, {})
    program.lines += ["out = []", f"for j in range(0, len(Z), {2 * n}):",
                      f"    {', '.join(states)}, = Z[j:j + {2 * n}]",
                      *(f"    {line}" for line in program.member_lines),
                      f"    out += [{', '.join(rows)}]"]
    return program.function("t, Z", "out")


# The largest stack of a compiled lift that steps on floats, through its
# stack field; a larger one makes one array call per field call.
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


def _float_field(sys: DynSystem, sigs: list[Signal]):
    """``field(t, z)`` of ``sys`` on one list of floats, for
    :func:`numerics._integrate_floats`: plain :func:`simulate`, and one
    member of a lift of Python maps.  Each call reads the inputs, then the
    exogenous values (a constant once, here), and runs ``sys.rhs_with`` on
    ``z``.  A length-1 input array is read as its one float."""
    rhs, exo = sys.rhs_with, _exo_reader(sys)
    values = [s.fixed for s in sigs]
    live = [(k, s.at) for k, s in enumerate(sigs) if s.fixed is None]

    def field(t, z):
        u = values.copy() if live else values
        for k, at in live:
            v = at(t)
            u[k] = v.item() if type(v) is np.ndarray else v
        return rhs(z, exo(t), u)

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

    The state is stored member-major, [x_0, dx_0, x_1, dx_1, ...].  When
    the lift is one generated program and m is at most ``_MEMBER_LOOP_MAX``,
    the run steps on floats in a generated program of the float kind:
    under ``Rk4`` one member's whole run is one call of one program that
    loops over the steps (:func:`_rk4_run`), and otherwise each
    right-hand-side evaluation is one call of the stack field
    (:func:`_stack_field`) over every row.  One
    member of Python maps steps on floats too, ``lift(sys).rhs_with`` on its
    row (:func:`_float_field`); any other run makes one ``rhs_with`` call
    over all members on arrays.  Each reads the inputs, then the exogenous
    signals, and gives the bits, counts and errors of the call over all
    members.  An input signal may return a float (shared by every member)
    or a length-m array (one value per member).  A stack field call of two
    or more members that raises, or meets such an array, is made again on
    arrays, so a stack fails as the array run does; one member's own error
    stands.  Exogenous signals are shared.  Under ``Rk45`` the members share
    one adaptive grid: a step is accepted only when every member's error
    passes.
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

    def stacked(t, z):
        # a call that raises, or meets a per-member input, is made again on
        # arrays, so a stack fails as the array run does
        try:
            return stack(t, z)
        except Exception:
            return array_field(t, np.asarray(z))

    # A Python map of one member divides by zero as in a solo float call.
    # Each program is generated only for the runs that use it.
    stepper = stepper or Rk4()
    compiled = "rhs_with" in vars(lifted)
    run = ()
    if compiled and m == 1 and isinstance(stepper, Rk4):
        field, run = None, (_rk4_run(lifted, sigs),)
    elif compiled and m <= _MEMBER_LOOP_MAX:
        stack = _stack_field(lifted, sigs)
        field = stack if m == 1 else stacked
    else:
        field = _float_field(lifted, sigs) if m == 1 else array_field
    solve = integrate if field is array_field else _integrate_floats

    z0 = np.concatenate([X0, dX0], axis=1).ravel()
    with np.errstate(**FLOAT_ERRORS):
        sol = solve(field, z0, (0.0, float(t_final)), stepper, *run)
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
