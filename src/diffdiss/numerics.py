"""Dense small-matrix numerics: dual-number forward differentiation,
fixed/adaptive Runge-Kutta integration, and symmetric-matrix
semidefiniteness margins.

State dimensions in this package are tiny (n <= ~10), so the inner loops
work on plain Python scalars and lists; numpy enters only at the matrix
boundary (Jacobians, eigenvalue margins, recorded trajectories) and as the
batch axis: every scalar here may also be a 1-d float array, one element per
batch member, and each element then takes exactly the float operations the
scalar path would.
"""

from __future__ import annotations

import functools
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


# Float error semantics for batch arrays (``np.errstate(**FLOAT_ERRORS)``):
# x / 0 raises, as it does on floats, while overflow and invalid operations
# give inf or nan without a warning, as float arithmetic does.  Unlike on
# floats, 0 / 0 gives nan in plain array arithmetic; the dual rules here
# divide through :func:`_div`, which raises on it too.
FLOAT_ERRORS = {"divide": "raise", "over": "ignore", "under": "ignore", "invalid": "ignore"}


# ---------------------------------------------------------------------------
# dual scalars


class DualScalar:
    """First-order dual number ``value + deriv * eps``.

    One derivative channel, re-seeded per direction.  Components may
    themselves be DualScalar, which yields second directional derivatives,
    or 1-d float arrays, which evaluate a whole batch in one pass.
    """

    __slots__ = ("value", "deriv")
    # ``ndarray <op> dual`` defers to the dual's reflected operator instead
    # of building an object array of duals.
    __array_ufunc__ = None

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
                _div(self.value, v), _div(self.deriv * v - self.value * other.deriv, v * v)
            )
        return DualScalar(_div(self.value, other), _div(self.deriv, other))

    def __rtruediv__(self, other):
        v = self.value
        return DualScalar(_div(other, v), _div(-other * self.deriv, v * v))

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __pos__(self):
        return self

    def __abs__(self):
        return DualScalar(*_dual_abs(self.value, self.deriv))

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
        return exp(self * log(base))

    # comparisons act on the (nested) value part only; a batched value has
    # no single truth value, so comparing one raises
    def __lt__(self, other):
        return float_value(self) < float_value(other)

    def __le__(self, other):
        return float_value(self) <= float_value(other)

    def __gt__(self, other):
        return float_value(self) > float_value(other)

    def __ge__(self, other):
        return float_value(self) >= float_value(other)


def _div(a, b):
    """``a / b``, raising on a zero divisor in a batch as float division
    does: numpy's ``divide="raise"`` lets 0 / 0 through as nan, which a later
    branch (``min``, ``^ 0``) could drop where the float call had raised."""
    if b.__class__ is np.ndarray:
        if not b.all():
            raise FloatingPointError("divide by zero")
    elif a.__class__ is np.ndarray and b == 0:
        raise FloatingPointError("divide by zero")
    return a / b


def _base(x):
    """Innermost value of ``x``: a plain scalar or a 1-d batch array."""
    while isinstance(x, DualScalar):
        x = x.value
    return x


def _pick(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``; elementwise through every dual
    level when ``mask`` is a batch array."""
    if not isinstance(mask, np.ndarray):
        return a if mask else b
    if isinstance(a, DualScalar) or isinstance(b, DualScalar):
        return DualScalar(
            _pick(mask, value_part(a), value_part(b)),
            _pick(mask, deriv_part(a), deriv_part(b)),
        )
    return np.where(mask, a, b)


def float_value(x) -> float:
    """Strip (possibly nested) dual parts and return the plain value."""
    while isinstance(x, DualScalar):
        x = x.value
    if isinstance(x, np.ndarray):
        raise TypeError("a batched value has no single float value (to branch "
                        "on it elementwise, use minimum/maximum/absolute)")
    return float(x)


def value_part(x):
    """Value channel of ``x`` (``x`` itself for plain scalars); strips one
    dual level, unlike :func:`float_value`."""
    return x.value if isinstance(x, DualScalar) else x


def deriv_part(x):
    """Derivative channel of ``x`` (zero for plain scalars)."""
    return x.deriv if isinstance(x, DualScalar) else 0.0


def dual_parts(out):
    """The value parts and the derivative parts of the entries of ``out``,
    the result of one dual pass of a map."""
    return [value_part(w) for w in out], [deriv_part(w) for w in out]


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
# scalar functions usable on floats, batch arrays and (nested) duals


def _each(fn, *args):
    """The ``math`` function ``fn`` applied element by element to batch
    arrays (scalars broadcast).  Each element is then bit-identical to the
    scalar call, which numpy's own ufuncs do not promise."""
    cols = [a.tolist() for a in np.broadcast_arrays(*args)]
    return np.fromiter(map(fn, *cols), float, len(cols[0]))


# The derivative rule of each function, on the parts of a dual: ``rule(v, d)``
# returns the (value, derivative) pair of ``fn(DualScalar(v, d))``.  The
# dual functions below and the compiled tangents of ``exprlang`` both call
# these, so they perform the same float operations.


def _dual_sin(v, d):
    return sin(v), cos(v) * d


def _dual_cos(v, d):
    return cos(v), -sin(v) * d


def _dual_tan(v, d):
    c = cos(v)
    return tan(v), _div(d, c * c)


def _dual_exp(v, d):
    e = exp(v)
    return e, e * d


def _dual_log(v, d):
    return log(v), _div(d, v)


def _dual_sqrt(v, d):
    r = sqrt(v)
    return r, _div(d, 2.0 * r)


def _dual_tanh(v, d):
    t = tanh(v)
    return t, (1.0 - t * t) * d


def _dual_atan2(yv, yd, xv, xd):
    denom = xv * xv + yv * yv
    return atan2(yv, xv), _div(xv * yd - yv * xd, denom)


def _dual_abs(v, d):
    # both branches are built, then picked elementwise on a batch
    mask = _base(v) >= 0.0
    nv, nd = -v, -d
    if isinstance(mask, np.ndarray):
        return _pick(mask, v, nv), _pick(mask, d, nd)
    return (v, d) if mask else (nv, nd)


DUAL_RULES = {"sin": _dual_sin, "cos": _dual_cos, "tan": _dual_tan, "exp": _dual_exp,
              "log": _dual_log, "sqrt": _dual_sqrt, "tanh": _dual_tanh, "abs": _dual_abs}


def sin(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_sin(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.sin, x)
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_cos(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.cos, x)
    return math.cos(x)


def tan(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_tan(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.tan, x)
    return math.tan(x)


def exp(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_exp(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.exp, x)
    return math.exp(x)


def log(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_log(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.log, x)
    return math.log(x)


def sqrt(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_sqrt(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.sqrt, x)
    return math.sqrt(x)


def tanh(x):
    if isinstance(x, DualScalar):
        return DualScalar(*_dual_tanh(x.value, x.deriv))
    if isinstance(x, np.ndarray):
        return _each(math.tanh, x)
    return math.tanh(x)


def atan2(y, x):
    if isinstance(y, DualScalar) or isinstance(x, DualScalar):
        return DualScalar(*_dual_atan2(value_part(y), deriv_part(y), value_part(x), deriv_part(x)))
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
        return _each(math.atan2, y, x)
    return math.atan2(y, x)


def absolute(x):
    return abs(x)


def minimum(a, b):
    return _pick(_base(a) <= _base(b), a, b)


def maximum(a, b):
    return _pick(_base(a) >= _base(b), a, b)


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
# stacking map outputs over a batch


def batch_rows(entries: Sequence, size: int) -> np.ndarray:
    """Stack a map's vector output over a batch of ``size`` points as a
    ``(size, len(entries))`` array; an entry that does not depend on the
    batch (a plain scalar) is repeated down its column."""
    out = np.empty((size, len(entries)))
    for j, v in enumerate(entries):
        out[:, j] = v
    return out


def batch_matrix(rows: Sequence[Sequence], size: int) -> np.ndarray:
    """Stack a map's matrix output over a batch of ``size`` points as a
    ``(size, r, c)`` array, repeating entries that are plain scalars."""
    return np.stack([batch_rows(row, size) for row in rows], axis=1)


def grid_point(p) -> tuple[float, ...]:
    """A grid point as the tuple of floats that reports and errors show."""
    return tuple(float(v) for v in p)


def argworst(values: np.ndarray, what: str, where: Callable[[int], str]) -> int:
    """Index of the largest of ``values``, the lowest index winning ties.  A
    non-finite value raises :class:`NumericalError` for ``what``, located by
    ``where`` at the first such index."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"{what} is not finite at {where(int(bad[0]))}")
    return int(np.argmax(values))


# ---------------------------------------------------------------------------
# directional derivatives and Jacobians


def seed(x: Sequence, v: Sequence) -> list:
    """Wrap a point as duals carrying direction ``v`` in the derivative slot."""
    return [DualScalar(xi, vi) for xi, vi in zip(x, v)]


def jvp(fun: Callable[[Sequence], Sequence], x: Sequence, v: Sequence) -> list:
    """Directional derivative of ``fun`` at ``x`` along ``v`` (one dual pass)."""
    out = fun(seed(x, v))
    return [deriv_part(w) for w in out]


def jacobian(fun: Callable[[Sequence], Sequence], x) -> np.ndarray:
    """Jacobian of an n -> m map at ``x``; column j is the directional
    derivative along the unit direction e_j.

    A 2-d ``x`` of shape (N, n) is a batch of N points: the result is the
    (N, m, n) stack of their Jacobians, from n dual passes in total, each over
    all N points and under :data:`FLOAT_ERRORS`.
    """
    if np.ndim(x) == 2:
        return _batch_jacobian(fun, np.asarray(x, dtype=float))
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


def _batch_jacobian(fun, x: np.ndarray) -> np.ndarray:
    size, n = x.shape
    coords = list(x.T)
    out = None
    for j in range(n):
        try:
            with np.errstate(**FLOAT_ERRORS):
                col = jvp(fun, coords, [1.0 if k == j else 0.0 for k in range(n)])
                vals = batch_rows([_base(c) for c in col], size)
        except (ArithmeticError, ValueError) as err:
            raise NumericalError(f"Jacobian evaluation failed in column {j}: {err}") from err
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if bad.size:
            raise NumericalError(
                f"non-finite Jacobian entries in column {j} at x = {grid_point(x[bad[0]])}"
            )
        if out is None:
            out = np.empty((size, vals.shape[1], n))
        out[:, :, j] = vals
    return out


def gradient(fun: Callable[[Sequence], object], x: Sequence) -> list:
    """Gradient of a scalar map at ``x``, one dual pass per coordinate.  The
    entries of ``x`` may be floats, duals or batch arrays, so the gradient
    can itself be differentiated or evaluated over a batch."""
    n = len(x)
    return [deriv_part(fun(seed(x, [1.0 if k == j else 0.0 for k in range(n)])))
            for j in range(n)]


def scalar_deriv(fun: Callable, t):
    """d/dt of a scalar-to-anything map, valid at dual base points too."""
    out = fun(DualScalar(t, 1.0))
    if isinstance(out, (list, tuple)):
        return [deriv_part(w) for w in out]
    return deriv_part(out)


# ---------------------------------------------------------------------------
# symmetric-matrix margins


def transpose(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix on a (..., r, c) stack."""
    return np.swapaxes(a, -1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T) / 2, of each matrix on a (..., r, r) stack."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + transpose(a))


def _square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} needs square matrices, got shape {a.shape}")
    return a


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix; nan for a matrix with
    a non-finite entry, for which LAPACK may return finite values."""
    bad = ~np.isfinite(a).all(axis=(-2, -1))
    if bad.any():
        a = np.where(bad[..., None, None], 0.0, a)
    try:
        lam = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"symmetric eigenvalue iteration failed: {err}") from err
    if bad.any():
        lam[bad] = np.nan
    return lam


def _per_matrix(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def nsd_margin(a: np.ndarray):
    """Largest eigenvalue of sym(A); <= 0 certifies negative semidefiniteness.
    On a (..., r, r) stack, the array of per-matrix margins."""
    return _per_matrix(_eigvalsh(sym(_square(a, "nsd_margin")))[..., -1])


def psd_margin(a: np.ndarray):
    """Smallest eigenvalue of sym(A); >= 0 certifies positive semidefiniteness.
    On a (..., r, r) stack, the array of per-matrix margins."""
    return _per_matrix(_eigvalsh(sym(_square(a, "psd_margin")))[..., 0])


def frobenius(a: np.ndarray):
    """Frobenius norm; on a (..., r, c) stack, the array of per-matrix norms.

    ``np.linalg.norm(a, "fro")`` ravels a matrix and takes a BLAS dot
    product; the stacked form is a (1 x rc) @ (rc x 1) matmul per matrix,
    which gives the same bits, where a batched ``norm`` or ``einsum`` does
    not always."""
    a = np.asarray(a, dtype=float)
    if a.ndim <= 2:
        return float(np.linalg.norm(a, "fro"))
    flat = a.reshape(-1, a.shape[-2] * a.shape[-1])
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0]).reshape(a.shape[:-2])


# ---------------------------------------------------------------------------
# ODE integration


@dataclass(frozen=True)
class Rk4:
    """Fixed-step classical Runge-Kutta."""

    dt: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"Rk4 step size must be positive and finite, got {self.dt!r}")


@dataclass(frozen=True)
class Rk45:
    """Adaptive Dormand-Prince 5(4) with combined absolute/relative tolerance."""

    tol: float = 1e-8
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"Rk45 tolerance must be positive and finite, got {self.tol!r}")


Stepper = Rk4 | Rk45


@dataclass
class OdeSolution:
    """Time grid and states produced by :func:`integrate`, with its cost:
    right-hand-side evaluations and accepted/rejected steps."""

    times: np.ndarray
    states: np.ndarray
    stepper_id: str
    tolerance: float
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0

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
    x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(x).all():
        raise _NonFinite(t)
    return x


def _rk4_step_floats(field, t, x, h):
    """:func:`_rk4_step` on a list of floats: the same float operations in
    the same order, element by element, with no array per stage."""
    a = 0.5 * h
    k1 = field(t, x)
    k2 = field(t + a, [xi + a * ki for xi, ki in zip(x, k1)])
    k3 = field(t + a, [xi + a * ki for xi, ki in zip(x, k2)])
    k4 = field(t + h, [xi + h * ki for xi, ki in zip(x, k3)])
    b = h / 6.0
    x = [xi + b * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
         for xi, a1, a2, a3, a4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x)):
        raise _NonFinite(t)
    return x


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

    ``field`` takes and returns float arrays, and every step here is array
    arithmetic: ``systems`` integrates its array field (stacks of Python
    maps, and stacks of more than ``systems._MEMBER_LOOP_MAX`` members)
    through this function.  Its float field (one member, plain
    ``simulate``, and a small stack of a compiled lift) steps on plain
    floats instead, through :func:`_integrate_floats`, with the same bits.
    """
    return _integrate(field, x0, t_span, stepper, floats=False)


def _integrate_floats(field, x0, t_span, stepper: Stepper | None = None,
                      step=None) -> OdeSolution:
    """:func:`integrate` of a field that takes and returns lists of floats,
    with the same checks, counts, errors and bits.  Fixed RK4 steps on the
    lists (:func:`_rk4_step_floats`), or with ``step(t, x, h)``, a program
    that performs ``_rk4_step_floats(field, t, x, h)``'s operations and
    checks in one call; ``Rk45`` calls the field on each stage array's
    ``tolist()``."""
    return _integrate(field, x0, t_span, stepper, floats=True, step=step)


def _integrate(field, x0, t_span, stepper, floats: bool, step=None) -> OdeSolution:
    """The one stepping loop.  ``nfev`` is computed from the step counts,
    not counted: 4 per RK4 step, and for Dormand-Prince the first stage
    plus 6 per accepted or rejected step (first-same-as-last)."""
    if stepper is None:
        stepper = Rk45()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {(t0, t1)!r}")
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise IntegrationError("non-finite initial state", t0)
    times = [t0]
    states = [x]
    nfev = n_rejected = 0
    if t1 > t0:
        if isinstance(stepper, Rk4):
            if step is None:
                step = (functools.partial(_rk4_step_floats, _finite_floats(field)) if floats
                        else functools.partial(_rk4_step, _finite_checking(field)))
            _run_rk4(step, x.tolist() if floats else x, t0, t1, stepper.dt, times, states)
            nfev = 4 * (len(times) - 1)
        else:
            if floats:
                field = _called_on_lists(field)
            n_rejected = _run_rk45(_finite_checking(field), x, t0, t1, stepper, times, states)
            nfev = 1 + 6 * (len(times) - 1 + n_rejected)
    return OdeSolution(
        np.array(times), np.array(states), _stepper_id(stepper), _stepper_tol(stepper),
        nfev=nfev, n_accepted=len(times) - 1, n_rejected=n_rejected,
    )


def _stepper_id(stepper: Stepper) -> str:
    return "fixed-rk4" if isinstance(stepper, Rk4) else "adaptive-rk45"


def _stepper_tol(stepper: Stepper) -> float:
    return stepper.dt if isinstance(stepper, Rk4) else stepper.tol


def _finite_checking(field):
    def wrapped(t, x):
        dx = np.asarray(field(t, x), dtype=float)
        if not np.isfinite(dx).all():
            raise _NonFinite(t)
        return dx

    return wrapped


def _called_on_lists(field):
    """A field on lists of floats as a field on arrays, for ``Rk45``."""
    return lambda t, z: field(t, z.tolist())


def _finite_floats(field):
    """:func:`_finite_checking` for a field on lists: its entries are made
    Python floats, as ``tolist()`` of the array would give them."""
    def wrapped(t, x):
        dx = list(map(float, field(t, x)))
        if not all(map(math.isfinite, dx)):
            raise _NonFinite(t)
        return dx

    return wrapped


class _NonFinite(Exception):
    def __init__(self, t):
        self.t = t


def _run_rk4(step, x, t0, t1, dt, times, states):
    """Fixed steps ``step(t, x, h)`` (:func:`_rk4_step` on arrays,
    :func:`_rk4_step_floats` on lists, or a generated step) on multiples of
    ``dt``, with a clipped last step; each returns a new state, so none is
    copied."""
    span = t1 - t0
    n_full = int(math.floor(span / dt + 1e-9))
    rem = span - n_full * dt
    t_last = t0
    try:
        for k in range(n_full):
            t = t0 + k * dt
            x = step(t, x, dt)
            t_last = t1 if (k == n_full - 1 and rem <= 1e-12 * max(dt, 1.0)) else t0 + (k + 1) * dt
            times.append(t_last)
            states.append(x)
        if rem > 1e-12 * max(dt, 1.0):
            x = step(t_last, x, t1 - t_last)
            times.append(t1)
            states.append(x)
    except _NonFinite:
        raise IntegrationError("non-finite state during RK4 step", times[-1]) from None


def _run_rk45(field, x, t0, t1, stepper, times, states) -> int:
    """Dormand-Prince steps with first-same-as-last reuse: the last stage is
    evaluated at exactly (t + h, x5), so after an accepted step it is the
    next step's first stage, and after a rejected step the first stage is
    unchanged.  Returns the number of rejected steps."""
    tol = stepper.tol
    t = t0
    h = min((t1 - t0) / 100.0, 0.1)
    n_steps = 0
    n_rejected = 0
    try:
        k1 = field(t, x)
        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            n_steps += 1
            if n_steps > stepper.max_steps:
                raise IntegrationError("adaptive stepper exceeded max step count", t)
            h = min(h, t1 - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step-size underflow", t)
            ks = [k1]
            for i in range(1, 7):
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
                k1 = ks[6]
                if not np.isfinite(x).all():
                    raise _NonFinite(t)
                times.append(t)
                states.append(x.copy())
                grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                h *= max(0.2, grow)
            else:
                n_rejected += 1
                h *= max(0.1, min(1.0, 0.9 * ratio ** -0.2))
    except _NonFinite:
        raise IntegrationError("non-finite state during RK45 step", times[-1]) from None
    return n_rejected
