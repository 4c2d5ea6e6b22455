"""Control-affine systems with outputs and exogenous signals, plus the
tangent lift that produces the paired (x, dx) displacement dynamics.

A system is

    xdot = f(x) + g(x) u        y = h(x) + i(x) u   (throughput i optional)

where f, g, h, i may also read named exogenous time signals (frozen
coefficients under the lift: the displacement of an exogenous signal is
zero).  All maps take ``(x, e)`` with ``x`` a sequence of scalars (floats
or dual scalars) and ``e`` a dict of exogenous values, and return nested
lists.  Evaluability on dual scalars is what makes every map C^1
accessible to the lift and to the certificate checkers.  The lift also
reads each map's value from the value part of that dual evaluation, so the
value on duals must equal the value on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprlang
from .numerics import (
    DualScalar,
    Rk4,
    Stepper,
    deriv_part,
    dot,
    float_value,
    integrate,
    jvp,  # noqa: F401  -- unused here; perfbench/tracing.py patches systems.jvp by name
    scalar_deriv,
    seed,
    value_part,
)


class SignalError(Exception):
    """A time signal was queried outside its domain or capabilities."""


class Signal:
    """Scalar time signal: constant, zero, sampled, or analytic.

    Analytic signals are backed by a dual-evaluable callable (or an
    expression in ``t``) and therefore expose first and second derivatives;
    sampled signals interpolate linearly and have no derivative.
    """

    __slots__ = ("kind", "_value", "_times", "_samples", "_fn")

    def __init__(self, kind, value=0.0, times=None, samples=None, fn=None):
        self.kind = kind
        self._value = value
        self._times = times
        self._samples = samples
        self._fn = fn

    @classmethod
    def zero(cls) -> "Signal":
        return cls("zero")

    @classmethod
    def constant(cls, value: float) -> "Signal":
        return cls("constant", value=float(value))

    @classmethod
    def sampled(cls, times: Sequence[float], samples: Sequence[float]) -> "Signal":
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if times.ndim != 1 or times.shape != samples.shape or times.size < 2:
            raise SignalError("sampled signal needs matching 1-d times and samples")
        if np.any(np.diff(times) <= 0.0):
            raise SignalError("sample times must be strictly increasing")
        return cls("sampled", times=times, samples=samples)

    @classmethod
    def analytic(cls, fn: Callable) -> "Signal":
        """Wrap a dual-evaluable callable of time."""
        return cls("analytic", fn=fn)

    @classmethod
    def from_expr(cls, text: str) -> "Signal":
        """Analytic signal defined by an expression in the variable ``t``."""
        ast = exprlang.parse(text)
        extra = exprlang.variables(ast) - {"t"}
        if extra:
            raise SignalError(f"signal expression may only use 't', found {sorted(extra)}")
        return cls("analytic", fn=lambda t: exprlang.evaluate(ast, {"t": t}))

    def at(self, t):
        """Value at ``t``; accepts dual ``t`` for constant/zero/analytic kinds."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self._value
        if self.kind == "analytic":
            return self._fn(t)
        if isinstance(t, DualScalar):
            raise SignalError("sampled signals are not dual-evaluable")
        times = self._times
        lo, hi = times[0], times[-1]
        span = hi - lo
        if t < lo - 1e-9 * max(span, 1.0) or t > hi + 1e-9 * max(span, 1.0):
            raise SignalError(f"sampled signal queried at t={t:.6g} outside [{lo:.6g}, {hi:.6g}]")
        return float(np.interp(t, times, self._samples))

    def value(self, t: float) -> float:
        return float_value(self.at(t))

    def deriv(self, t: float) -> float:
        if self.kind in ("zero", "constant"):
            return 0.0
        if self.kind == "analytic":
            return float_value(scalar_deriv(self._fn, t))
        raise SignalError("sampled signals have no derivative")

    def deriv2(self, t: float) -> float:
        if self.kind in ("zero", "constant"):
            return 0.0
        if self.kind == "analytic":
            outer = self._fn(DualScalar(DualScalar(t, 1.0), DualScalar(1.0, 0.0)))
            first = outer.deriv if isinstance(outer, DualScalar) else 0.0
            second = first.deriv if isinstance(first, DualScalar) else 0.0
            return float_value(second)
        raise SignalError("sampled signals have no derivative")

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
        return [hx[k] + dot(ix[k], u) for k in range(self.q)]


def lift(sys: DynSystem) -> DynSystem:
    """Displacement lift: a control-affine system on the doubled state
    (x, dx) with input (u, du) and output (y, dy).

    The dx dynamics are  d(dx)/dt = Df(x) dx + [Dg(x) u] dx + g(x) du  and
    the dy output applies the same Jacobian action to h and i.  Exogenous
    signals enter as frozen coefficients (their displacement is zero).

    Each lifted map evaluates the base map once, on x seeded with dx: the
    value parts of the result are the map at x and the derivative parts its
    Jacobian action on dx.
    """
    n, q = sys.n, sys.q

    def lift_vector(fun):
        def lifted(X, e):
            out = fun(seed(X[:n], X[n:]), e)
            return [value_part(w) for w in out] + [deriv_part(w) for w in out]

        return lifted

    def lift_matrix(fun):
        # [[G, 0], [dG, G]] for an r x q matrix map G
        def lifted(X, e):
            rows = fun(seed(X[:n], X[n:]), e)
            values = [[value_part(w) for w in row] for row in rows]
            zero_row = [0.0] * q
            top = [v + zero_row for v in values]
            bottom = [[deriv_part(w) for w in row] + v for row, v in zip(rows, values)]
            return top + bottom

        return lifted

    lifted = DynSystem(
        2 * n, 2 * q, lift_vector(sys.f), lift_matrix(sys.g), lift_vector(sys.h),
        i=lift_matrix(sys.i) if sys.i is not None else None,
        exo=sys.exo, name=f"lift({sys.name})" if sys.name else "lift",
    )
    lifted.base = sys
    return lifted


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


def _field_for(sys: DynSystem, sigs: list[Signal]):
    def field(t, arr):
        x = arr.tolist()
        u = [s.value(t) for s in sigs]
        return np.asarray(sys.rhs(t, x, u), dtype=float)

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
    sol = integrate(_field_for(sys, sigs), x0, (0.0, float(t_final)), stepper or Rk4())
    times = sol.times
    uu = np.array([[s.value(t) for s in sigs] for t in times])
    yy = np.array(
        [sys.output(t, sol.states[k].tolist(), uu[k].tolist()) for k, t in enumerate(times)]
    )
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
    lifted = lift(sys)
    sigs = signal_vector(u, sys.q) + signal_vector(du, sys.q)
    X0 = list(x0) + list(dx0)
    sol = integrate(_field_for(lifted, sigs), X0, (0.0, float(t_final)), stepper or Rk4())
    return _prolonged_from_solution(sys, lifted, sigs, sol)


def _prolonged_from_solution(sys, lifted, sigs, sol) -> ProlongedTrajectory:
    n, q = sys.n, sys.q
    times = sol.times
    N = len(times)
    U = np.array([[s.value(t) for s in sigs] for t in times])
    Y = np.empty((N, 2 * q))
    Xdot = np.empty((N, 2 * n))
    for k, t in enumerate(times):
        Xk = sol.states[k].tolist()
        Uk = U[k].tolist()
        Y[k] = lifted.output(t, Xk, Uk)
        Xdot[k] = lifted.rhs(t, Xk, Uk)
    return ProlongedTrajectory(
        times=times,
        x=sol.states[:, :n].copy(),
        dx=sol.states[:, n:].copy(),
        u=U[:, :q].copy(),
        du=U[:, q:].copy(),
        y=Y[:, :q].copy(),
        dy=Y[:, q:].copy(),
        xdot=Xdot[:, :n].copy(),
        dxdot=Xdot[:, n:].copy(),
    )
