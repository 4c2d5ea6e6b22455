"""Dense small-matrix numerics: dual-number forward differentiation,
fixed/adaptive Runge-Kutta integration, and symmetric-matrix
semidefiniteness margins.

State dimensions in this package are tiny (n <= ~10), so the inner loops
work on plain Python scalars and lists; numpy enters only at the matrix
boundary (Jacobians, eigenvalue margins, recorded trajectories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class NumericalError(Exception):
    """A numeric evaluation produced a non-finite or unusable result."""


class IntegrationError(Exception):
    """ODE integration failed.  Carries the last time that was still good."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(f"{message} (last good t = {last_good_time:.9g})")
        self.last_good_time = last_good_time


# ---------------------------------------------------------------------------
# dual scalars


class DualScalar:
    """First-order dual number ``value + deriv * eps``.

    One derivative channel, re-seeded per direction.  Components may
    themselves be DualScalar, which yields second directional derivatives.
    """

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0.0):
        self.value = value
        self.deriv = deriv

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.deriv!r})"

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value + other.value, self.deriv + other.deriv)
        return DualScalar(self.value + other, self.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value - other.value, self.deriv - other.deriv)
        return DualScalar(self.value - other, self.deriv)

    def __rsub__(self, other):
        return DualScalar(other - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value * other.value,
                self.value * other.deriv + self.deriv * other.value,
            )
        return DualScalar(self.value * other, self.deriv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            v = other.value
            return DualScalar(
                self.value / v, (self.deriv * v - self.value * other.deriv) / (v * v)
            )
        return DualScalar(self.value / other, self.deriv / other)

    def __rtruediv__(self, other):
        v = self.value
        return DualScalar(other / v, -other * self.deriv / (v * v))

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if float_value(self) >= 0.0 else -self

    def __pow__(self, exponent):
        if isinstance(exponent, DualScalar):
            return exp(exponent * log(self))
        if isinstance(exponent, int) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            k = int(exponent)
            if abs(k) <= 16:
                return int_pow(self, k)
        return exp(exponent * log(self))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    # comparisons act on the (nested) value part only
    def __lt__(self, other):
        return float_value(self) < float_value(other)

    def __le__(self, other):
        return float_value(self) <= float_value(other)

    def __gt__(self, other):
        return float_value(self) > float_value(other)

    def __ge__(self, other):
        return float_value(self) >= float_value(other)


def float_value(x) -> float:
    """Strip (possibly nested) dual parts and return the plain value."""
    while isinstance(x, DualScalar):
        x = x.value
    return float(x)


def value_part(x):
    """Value channel of ``x`` (``x`` itself for plain scalars); strips one
    dual level, unlike :func:`float_value`."""
    return x.value if isinstance(x, DualScalar) else x


def deriv_part(x):
    """Derivative channel of ``x`` (zero for plain scalars)."""
    return x.deriv if isinstance(x, DualScalar) else 0.0


def int_pow(base, k: int):
    """``base ** k`` by repeated squaring; the same float operations on
    plain scalars and on the value part of duals."""
    if k < 0:
        return 1.0 / int_pow(base, -k)
    out = 1.0
    acc = base
    while k:
        if k & 1:
            out = out * acc
        acc = acc * acc
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# scalar functions usable on floats and (nested) duals


def sin(x):
    if isinstance(x, DualScalar):
        return DualScalar(sin(x.value), cos(x.value) * x.deriv)
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        return DualScalar(cos(x.value), -sin(x.value) * x.deriv)
    return math.cos(x)


def tan(x):
    if isinstance(x, DualScalar):
        c = cos(x.value)
        return DualScalar(tan(x.value), x.deriv / (c * c))
    return math.tan(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.value)
        return DualScalar(e, e * x.deriv)
    return math.exp(x)


def log(x):
    if isinstance(x, DualScalar):
        return DualScalar(log(x.value), x.deriv / x.value)
    return math.log(x)


def sqrt(x):
    if isinstance(x, DualScalar):
        r = sqrt(x.value)
        return DualScalar(r, x.deriv / (2.0 * r))
    return math.sqrt(x)


def tanh(x):
    if isinstance(x, DualScalar):
        t = tanh(x.value)
        return DualScalar(t, (1.0 - t * t) * x.deriv)
    return math.tanh(x)


def atan2(y, x):
    if isinstance(y, DualScalar) or isinstance(x, DualScalar):
        yv = y.value if isinstance(y, DualScalar) else y
        xv = x.value if isinstance(x, DualScalar) else x
        yd = deriv_part(y)
        xd = deriv_part(x)
        denom = xv * xv + yv * yv
        return DualScalar(atan2(yv, xv), (xv * yd - yv * xd) / denom)
    return math.atan2(y, x)


def absolute(x):
    return abs(x)


def minimum(a, b):
    return a if float_value(a) <= float_value(b) else b


def maximum(a, b):
    return a if float_value(a) >= float_value(b) else b


# ---------------------------------------------------------------------------
# small dense linear algebra on nested lists (floats or duals)


def dot(row: Sequence, v: Sequence):
    acc = 0.0
    for a, b in zip(row, v):
        acc = acc + a * b
    return acc


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in rows]


def eye(n: int) -> list[list[float]]:
    return [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]


# ---------------------------------------------------------------------------
# directional derivatives and Jacobians


def seed(x: Sequence, v: Sequence) -> list:
    """Wrap a point as duals carrying direction ``v`` in the derivative slot."""
    return [DualScalar(xi, vi) for xi, vi in zip(x, v)]


def jvp(fun: Callable[[Sequence], Sequence], x: Sequence, v: Sequence) -> list:
    """Directional derivative of ``fun`` at ``x`` along ``v`` (one dual pass)."""
    out = fun(seed(x, v))
    return [deriv_part(w) for w in out]


def jacobian(fun: Callable[[Sequence], Sequence], x: Sequence) -> np.ndarray:
    """Jacobian of an n -> m map at ``x``; column j is the directional
    derivative along the unit direction e_j."""
    x = list(x)
    n = len(x)
    cols = []
    for j in range(n):
        try:
            col = jvp(fun, x, [1.0 if k == j else 0.0 for k in range(n)])
            vals = [float_value(c) if isinstance(c, DualScalar) else float(c) for c in col]
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            raise NumericalError(f"Jacobian evaluation failed in column {j}: {err}") from err
        if not all(math.isfinite(c) for c in vals):
            raise NumericalError(f"non-finite Jacobian entries in column {j}")
        cols.append(vals)
    return np.array(cols, dtype=float).T


def scalar_deriv(fun: Callable, t):
    """d/dt of a scalar-to-anything map, valid at dual base points too."""
    out = fun(DualScalar(t, 1.0))
    if isinstance(out, (list, tuple)):
        return [deriv_part(w) for w in out]
    return deriv_part(out)


# ---------------------------------------------------------------------------
# symmetric-matrix margins


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T) / 2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"symmetric eigenvalue iteration failed: {err}") from err


def nsd_margin(a: np.ndarray) -> float:
    """Largest eigenvalue of sym(A); <= 0 certifies negative semidefiniteness."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"nsd_margin needs a square matrix, got shape {a.shape}")
    return float(_eigvalsh(sym(a))[-1])


def psd_margin(a: np.ndarray) -> float:
    """Smallest eigenvalue of sym(A); >= 0 certifies positive semidefiniteness."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"psd_margin needs a square matrix, got shape {a.shape}")
    return float(_eigvalsh(sym(a))[0])


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


# ---------------------------------------------------------------------------
# ODE integration


@dataclass(frozen=True)
class Rk4:
    """Fixed-step classical Runge-Kutta."""

    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("Rk4 step size must be positive")


@dataclass(frozen=True)
class Rk45:
    """Adaptive Dormand-Prince 5(4) with combined absolute/relative tolerance."""

    tol: float = 1e-8
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("Rk45 tolerance must be positive")


Stepper = Rk4 | Rk45


@dataclass
class OdeSolution:
    """Time grid and states produced by :func:`integrate`."""

    times: np.ndarray
    states: np.ndarray
    stepper_id: str
    tolerance: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("solution times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("solution states must be finite")


def _rk4_step(field, t, x, h):
    k1 = field(t, x)
    k2 = field(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = field(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    t_span: tuple[float, float],
    stepper: Stepper | None = None,
) -> OdeSolution:
    """Integrate ``xdot = field(t, x)`` over ``t_span``.

    The returned grid starts exactly at ``x0`` and its final time equals the
    end of ``t_span``.  Fixed RK4 lands on uniform multiples of ``dt`` with a
    clipped final step; the adaptive stepper records every accepted step.
    """
    if stepper is None:
        stepper = Rk45()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise IntegrationError("non-finite initial state", t0)
    times = [t0]
    states = [x.copy()]
    if t1 == t0:
        return OdeSolution(np.array(times), np.array(states), _stepper_id(stepper), _stepper_tol(stepper))

    wrapped = _finite_checking(field)
    if isinstance(stepper, Rk4):
        _run_rk4(wrapped, x, t0, t1, stepper.dt, times, states)
    else:
        _run_rk45(wrapped, x, t0, t1, stepper, times, states)
    return OdeSolution(
        np.array(times), np.array(states), _stepper_id(stepper), _stepper_tol(stepper)
    )


def _stepper_id(stepper: Stepper) -> str:
    return "fixed-rk4" if isinstance(stepper, Rk4) else "adaptive-rk45"


def _stepper_tol(stepper: Stepper) -> float:
    return stepper.dt if isinstance(stepper, Rk4) else stepper.tol


def _finite_checking(field):
    def wrapped(t, x):
        dx = np.asarray(field(t, x), dtype=float)
        if not np.all(np.isfinite(dx)):
            raise _NonFinite(t)
        return dx

    return wrapped


class _NonFinite(Exception):
    def __init__(self, t):
        self.t = t


def _run_rk4(field, x, t0, t1, dt, times, states):
    span = t1 - t0
    n_full = int(math.floor(span / dt + 1e-9))
    rem = span - n_full * dt
    t_last = t0
    try:
        for k in range(n_full):
            t = t0 + k * dt
            x = _rk4_step(field, t, x, dt)
            if not np.all(np.isfinite(x)):
                raise _NonFinite(t)
            t_last = t1 if (k == n_full - 1 and rem <= 1e-12 * max(dt, 1.0)) else t0 + (k + 1) * dt
            times.append(t_last)
            states.append(x.copy())
        if rem > 1e-12 * max(dt, 1.0):
            x = _rk4_step(field, t_last, x, t1 - t_last)
            if not np.all(np.isfinite(x)):
                raise _NonFinite(t_last)
            times.append(t1)
            states.append(x.copy())
    except _NonFinite:
        raise IntegrationError("non-finite state during RK4 step", times[-1]) from None


def _run_rk45(field, x, t0, t1, stepper, times, states):
    tol = stepper.tol
    t = t0
    h = min((t1 - t0) / 100.0, 0.1)
    n_steps = 0
    try:
        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            n_steps += 1
            if n_steps > stepper.max_steps:
                raise IntegrationError("adaptive stepper exceeded max step count", t)
            h = min(h, t1 - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step-size underflow", t)
            ks = []
            for i in range(7):
                xi = x.copy()
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        xi = xi + (h * aij) * ks[j]
                ks.append(field(t + _DP_C[i] * h, xi))
            x5 = x.copy()
            err = np.zeros_like(x)
            for i in range(7):
                if _DP_B5[i] != 0.0:
                    x5 = x5 + (h * _DP_B5[i]) * ks[i]
                db = _DP_B5[i] - _DP_B4[i]
                if db != 0.0:
                    err = err + (h * db) * ks[i]
            scale = tol * (1.0 + np.maximum(np.abs(x), np.abs(x5)))
            ratio = float(np.max(np.abs(err) / scale))
            if ratio <= 1.0:
                t = t1 if t1 - (t + h) < 1e-14 * max(1.0, abs(t1)) else t + h
                x = x5
                if not np.all(np.isfinite(x)):
                    raise _NonFinite(t)
                times.append(t)
                states.append(x.copy())
                grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                h *= max(0.2, grow)
            else:
                h *= max(0.1, min(1.0, 0.9 * ratio ** -0.2))
    except _NonFinite:
        raise IntegrationError("non-finite state during RK45 step", times[-1]) from None
