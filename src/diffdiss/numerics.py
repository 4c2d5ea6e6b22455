"""Dense small-matrix numerics: dual-number forward differentiation,
fixed/adaptive Runge-Kutta integration, symmetric-matrix
semidefiniteness margins, and the seeded uniform draws every sampled check
takes (numpy's default generator, without importing numpy's random module).

State dimensions in this package are tiny (n <= ~10), so the inner loops
work on plain Python scalars and lists; numpy enters only at the matrix
boundary (Jacobians, eigenvalue margins, recorded trajectories) and as the
batch axis: every scalar here may also be a 1-d float array, one element per
batch member, and each element then takes exactly the float operations the
scalar path would.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
            if abs(k) <= INT_POW_MAX:
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
    """``a`` where ``mask`` holds, else ``b``: elementwise through every dual
    level when ``mask`` is a batch array.  If either operand is a dual, so
    is the result, a plain operand's derivative part being 0.0, on one point
    as on a batch; so an element of a batch is picked exactly as a call on
    that point alone picks it."""
    if isinstance(a, DualScalar) or isinstance(b, DualScalar):
        return DualScalar(
            _pick(mask, value_part(a), value_part(b)),
            _pick(mask, deriv_part(a), deriv_part(b)),
        )
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


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


INT_POW_MAX = 16
"""The largest ``|k|`` of an integer power ``b ** k`` (``b ^ k`` in an
expression) that :func:`int_pow` computes; a larger one is exp(k log b)."""


def int_pow(base, k: int, mul=operator.mul):
    """``base ** k`` by repeated squaring, with ``mul(a, b)`` for ``a * b``:
    the same float operations on plain scalars and on the value part of
    duals.  ``base ** 0`` is the plain 1.0 for any base, so a dual base's
    derivative is dropped there; a negative ``k`` is ``1.0 /`` the power of
    ``-k``.  The expression compiler passes its own ``mul``, which writes
    each product as a line of a program."""
    if k < 0:
        return 1.0 / int_pow(base, -k, mul)
    if k == 0:
        return 1.0
    out = None
    while k > 1:
        if k & 1:
            out = base if out is None else mul(out, base)
        base = mul(base, base)
        k >>= 1
    return base if out is None else mul(out, base)


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
# dual functions below call them; a compiled tangent of ``exprlang`` writes
# out the same float operations in the same order (it calls ``_dual_abs``).


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
    # both branches are built, then picked (elementwise on a batch)
    mask = _base(v) >= 0.0
    return _pick(mask, v, -v), _pick(mask, d, -d)


def _dual_aware(fn, rule):
    """The ``math`` function ``fn`` made to take a dual (through its
    derivative rule ``rule``), a batch array (element by element) or a
    float."""

    def wrapped(x):
        if isinstance(x, DualScalar):
            return DualScalar(*rule(x.value, x.deriv))
        if isinstance(x, np.ndarray):
            return _each(fn, x)
        return fn(x)

    wrapped.__name__ = wrapped.__qualname__ = fn.__name__
    return wrapped


sin = _dual_aware(math.sin, _dual_sin)
cos = _dual_aware(math.cos, _dual_cos)
tan = _dual_aware(math.tan, _dual_tan)
exp = _dual_aware(math.exp, _dual_exp)
log = _dual_aware(math.log, _dual_log)
sqrt = _dual_aware(math.sqrt, _dual_sqrt)
tanh = _dual_aware(math.tanh, _dual_tanh)


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
    ``(size, r, c)`` array, repeating entries that are plain scalars.

    The array is allocated once and filled entry by entry, each entry as
    :func:`batch_rows` fills it, so a wrong-length entry raises numpy's
    broadcast error.  No rows, or rows of unequal lengths, raise what
    ``np.stack`` of the rows' :func:`batch_rows` raises."""
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        return np.stack([batch_rows(row, size) for row in rows], axis=1)
    out = np.empty((size, len(rows), widths.pop()))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[:, i, j] = v
    return out


def grid_point(p) -> tuple[float, ...]:
    """A grid point as the tuple of floats that reports and errors show."""
    return tuple(float(v) for v in p)


def argworst(values: np.ndarray, what: str, where: Callable[[int], str]) -> int:
    """Index of the largest of ``values``, the lowest index winning ties.  A
    non-finite value raises :class:`NumericalError` for ``what``, located by
    ``where`` at the first such index."""
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))
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
    """:func:`jacobian` over the rows of ``x``, one dual pass per column.
    Each column's (N, m) block is tested for finiteness as a whole; only a
    block that fails is scanned row by row, to name its first bad point."""
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
        if not np.isfinite(vals).all():
            bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
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
    """Symmetric part (A + A^T) / 2, of each matrix on a (..., r, r) stack.
    An entry that overflows, or adds inf to -inf, is inf or nan without a
    warning: the margins read any such matrix as nan."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (a + transpose(a))


def _square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} needs square matrices, got shape {a.shape}")
    return a


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix, by LAPACK (numpy's
    ``eigvalsh``: ``dsyevd``, jobz = N, uplo = L); nan for a matrix with a
    non-finite entry, for which LAPACK may return finite values.  The
    stack is tested for finiteness as a whole before it is scanned per
    matrix."""
    bad = None if np.isfinite(a).all() else ~np.isfinite(a).all(axis=(-2, -1))
    if bad is not None:
        a = np.where(bad[..., None, None], 0.0, a)
    try:
        lam = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"symmetric eigenvalue iteration failed: {err}") from err
    if bad is not None:
        lam[bad] = np.nan
    return lam


# LAPACK's machine constants (dlamch): 'E' is epsneg, 2^-53; 'P' is eps,
# 2^-52; 'S' is the smallest normal double.
_FLOAT = np.finfo(float)
_DSTERF_EPS = _FLOAT.epsneg
_DSTERF_EPS2 = _DSTERF_EPS * _DSTERF_EPS
# dsterf rescales a block whose largest entry is below ssfmin =
# sqrt(safmin) / eps^2 (2^-405), and dsyevd a matrix whose largest entry is
# above rmax = sqrt(1 / smlnum), smlnum = safmin / dlamch('P') (2^485).
# dsyevd's lower bound (2^-485) and dsterf's upper one (2^511 / 3) lie
# outside these, and an all-zero matrix is never rescaled.
_UNSCALED_MIN = math.sqrt(_FLOAT.smallest_normal) / _DSTERF_EPS2
_UNSCALED_MAX = math.sqrt(_FLOAT.eps / _FLOAT.smallest_normal)


def _dsyevd_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float operations LAPACK's ``dsyevd`` (jobz = N, uplo = L) runs on
    sym(A) for each matrix of a (..., 2, 2) stack, vectorised over the
    stack; returns the (..., 2) ascending eigenvalues and the mask of the
    matrices for which they are LAPACK's bits.

    For n = 2, ``dsytrd`` leaves d = (a11, a22) and e = a21 of sym(A), read
    here straight from A; ``dsterf`` splits the matrix on either of its two
    small-off-diagonal tests, or else hands d and sqrt(e^2) to ``dlae2``
    (QR when |d2| < |d1|, which stores the two roots the other way round
    from QL); ``dlasrt`` sorts by insertion, swapping only when strictly
    smaller, which orders ties such as -0.0 and 0.0 as LAPACK does.  The
    mask is False where either routine would rescale and for a non-finite
    entry (Anderson et al., *LAPACK Users' Guide*, 3rd ed., SIAM 1999).
    These are reference LAPACK's operations, as numpy's OpenBLAS builds
    them; a LAPACK that fused dlae2's multiply-adds could round
    differently, so the tests compare with numpy's ``eigvalsh`` on the
    running machine."""
    d1, d2 = a[..., 0, 0], a[..., 1, 1]
    with np.errstate(all="ignore"):
        e = 0.5 * (a[..., 1, 0] + a[..., 0, 1])
        ad1, ad2 = np.abs(d1), np.abs(d2)
        top = np.maximum(np.maximum(ad1, ad2), np.abs(e))
        unscaled = ((top >= _UNSCALED_MIN) & (top <= _UNSCALED_MAX)) | (top == 0.0)
        # dsterf: the split test before the block is formed, then (on e^2)
        # the QL/QR iteration's test
        e2 = e * e
        split = ((np.abs(e) <= (np.sqrt(ad1) * np.sqrt(ad2)) * _DSTERF_EPS)
                 | (e2 <= _DSTERF_EPS2 * np.abs(d1 * d2)))
        # dlae2(a, b, c) with b = sqrt(e^2) >= 0, so |b + b| is b + b;
        # whichever of d1, d2 is a, acmx is the larger in magnitude, d2 on a tie
        b = np.sqrt(e2)
        sm = d1 + d2
        adf = np.abs(d1 - d2)
        ab = b + b
        qr = ad2 < ad1
        acmx, acmn = np.where(qr, d1, d2), np.where(qr, d2, d1)
        big, small = np.maximum(adf, ab), np.minimum(adf, ab)
        ratio = small / big
        rt = big * np.sqrt(1.0 + ratio * ratio)
        rt1 = 0.5 * np.where(sm < 0.0, sm - rt, sm + rt)
        rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
        first = np.where(split, d1, np.where(qr, rt2, rt1))
        second = np.where(split, d2, np.where(qr, rt1, rt2))
        swap = second < first
    return np.stack((np.where(swap, second, first), np.where(swap, first, second)), -1), unscaled


def _sym_eigvalsh(a: np.ndarray) -> np.ndarray:
    """``_eigvalsh(sym(a))``, bit for bit.  A (..., 2, 2) stack runs
    :func:`_dsyevd_2x2`, and LAPACK only for the matrices that it would
    rescale; a single matrix and any other size run LAPACK."""
    if a.ndim < 3 or a.shape[-1] != 2:
        return _eigvalsh(sym(a))
    lam, unscaled = _dsyevd_2x2(a)
    if not unscaled.all():
        rest = ~unscaled
        lam[rest] = _eigvalsh(sym(a[rest]))
    return lam


def _per_matrix(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def nsd_margin(a: np.ndarray):
    """Largest eigenvalue of sym(A); <= 0 certifies negative semidefiniteness.
    On a (..., r, r) stack, the array of per-matrix margins, each the bits
    LAPACK gives for that matrix alone; nan for a matrix with a non-finite
    entry."""
    return _per_matrix(_sym_eigvalsh(_square(a, "nsd_margin"))[..., -1])


def psd_margin(a: np.ndarray):
    """Smallest eigenvalue of sym(A); >= 0 certifies positive semidefiniteness.
    On a (..., r, r) stack, the array of per-matrix margins, each the bits
    LAPACK gives for that matrix alone; nan for a matrix with a non-finite
    entry."""
    return _per_matrix(_sym_eigvalsh(_square(a, "psd_margin"))[..., 0])


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
# seeded uniform draws
#
# numpy's default generator (``default_rng``) without numpy's random
# module, whose import is the largest step in a command's peak memory:
# SeedSequence seeding, then PCG64, a 128-bit LCG s -> a s + c with the
# XSL-RR output function (O'Neill, HMC-CS-2014-0905).  The stream advances by jump-ahead: the k-th state
# after s is a^k s + (1 + a + ... + a^(k-1)) c, so one product of s and
# one of c with integers that pack those coefficients in fixed-width slots
# give a whole block of states, which numpy then turns into doubles.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_JUMP_SLOTS = 256
# a slot holds a^k s + (1 + ... + a^(k-1)) c < 2^257, so no carry crosses it
_SLOT_BYTES = 33


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit
    little-endian words hash-mixed into a pool of four, then drawn out as
    eight 32-bit words, paired little-endian."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL_SIZE, 2)]


@functools.cache
def _pcg64_jumps(slots: int) -> tuple[int, int]:
    """The integers whose slot k < ``slots`` holds a^(k+1) and
    1 + a + ... + a^k (mod 2^128), the slots ``_SLOT_BYTES`` wide."""
    power, total, powers, totals = 1, 0, [], []
    for _ in range(slots):
        total = (total + power) & _MASK128
        power = power * _PCG64_MULT & _MASK128
        powers.append(power.to_bytes(_SLOT_BYTES, "little"))
        totals.append(total.to_bytes(_SLOT_BYTES, "little"))
    return int.from_bytes(b"".join(powers), "little"), int.from_bytes(b"".join(totals), "little")


def uniform_draws(seed: int, count: int) -> list[float]:
    """The ``count`` doubles of numpy's ``default_rng(seed).random(count)``,
    bit for bit, without importing numpy's random module.  ``seed`` is a
    non-negative integer; anything else raises ValueError."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # pcg64 srandom: step from state 0, add the initial state, step again
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    # the tables are built once per power-of-two block size
    slots = min(1 << max(count - 1, 0).bit_length(), _JUMP_SLOTS)
    powers, totals = _pcg64_jumps(slots)
    blocks = []
    for _ in range(0, count, slots):
        blocks.append((powers * state + totals * inc).to_bytes(_SLOT_BYTES * slots, "little"))
        state = int.from_bytes(blocks[-1][-_SLOT_BYTES:][:16], "little")
    raw = np.frombuffer(b"".join(blocks), np.uint8).reshape(-1, _SLOT_BYTES)[:count, :16]
    lo, hi = raw.copy().view("<u8").T
    # XSL-RR: the state's halves xor-ed, rotated right by its top 6 bits;
    # then numpy's double from the top 53 bits
    x, rot = hi ^ lo, hi >> np.uint64(58)
    bits = (x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))) >> np.uint64(11)
    return (bits * 2.0 ** -53).tolist()


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


def _dp_columns():
    """The running sums of a Dormand-Prince step, column by column.

    A step keeps an (8, d) table: row 0 is the state x, row i (1 to 6) the
    point of stage i, and row 7 the error estimate.  Once k_j is known,
    each later row r with a nonzero coefficient gets ``(h * c) * k_j``,
    where c is ``_DP_A[r][j]`` (r <= 6) or ``_DP_B5[j] - _DP_B4[j]`` (r =
    7): the terms each row would add, in the order of j, skipping the zero
    coefficients.  Returns the coefficients, column after column, as one
    (m, 1) array, and for each column j the slice of the table rows it
    updates and the slice of the coefficients it takes; each column's
    nonzero rows must be contiguous (k2's stops at row 5)."""
    rows = [a + (0.0,) * (7 - len(a)) for a in _DP_A[1:]]
    rows.append(tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4)))
    coefs, columns = [], []
    for j in range(7):
        nonzero = [r + 1 for r, row in enumerate(rows) if row[j] != 0.0]
        assert nonzero == list(range(nonzero[0], nonzero[-1] + 1)), f"column {j}"
        columns.append((slice(nonzero[0], nonzero[-1] + 1),
                        slice(len(coefs), len(coefs) + len(nonzero))))
        coefs += [rows[r - 1][j] for r in nonzero]
    return np.array(coefs)[:, None], tuple(columns)


_DP_COEFS, _DP_COLUMNS = _dp_columns()


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
                      run=None) -> OdeSolution:
    """:func:`integrate` of a field that takes and returns lists of floats,
    with the same checks, counts, errors and bits.  Fixed RK4 steps on the
    lists (:func:`_rk4_step_floats`), or with ``run(grid, x, states)``, a
    program that takes every step of the grid :func:`_run_rk4` hands it,
    each with ``_rk4_step_floats(field, t, x, h)``'s operations and checks,
    in one call; ``Rk45`` calls the field on each stage point's
    ``tolist()``."""
    return _integrate(field, x0, t_span, stepper, floats=True, run=run)


def _integrate(field, x0, t_span, stepper, floats: bool, run=None) -> OdeSolution:
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
            if run is None:
                run = _stepping(
                    functools.partial(_rk4_step_floats, _finite_floats(field)) if floats
                    else functools.partial(_rk4_step, _finite_checking(field)))
            _run_rk4(run, x.tolist() if floats else x, t0, t1, stepper.dt, times, states)
            nfev = 4 * (len(times) - 1)
        else:
            if floats:
                field = _finite_from_lists(field)
            else:
                field = _finite_checking(functools.partial(_on_copy, field))
            n_rejected = _run_rk45(field, x, t0, t1, stepper, times, states)
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


def _on_copy(field, t, z):
    """``field`` on a copy of ``z``, a row of the ``Rk45`` step's table,
    which later steps rewrite."""
    return field(t, z.copy())


def _finite_from_lists(field):
    """:func:`_finite_checking` of a field on lists of floats, for ``Rk45``:
    the field is called on the stage point's ``tolist()``.  A finite sum of
    the entries shows that each is finite, so only a sum that is not finite
    (an entry is not, or the sum overflows) runs the elementwise test, as
    does a result that ``sum`` cannot add as floats: a scalar, or numpy
    scalars whose sum warns where warnings are errors."""
    def wrapped(t, z):
        v = field(t, z.tolist())
        dx = np.asarray(v, dtype=float)
        try:
            finite = math.isfinite(sum(v))
        except (TypeError, ArithmeticError, RuntimeWarning):
            finite = False
        if not finite and not np.isfinite(dx).all():
            raise _NonFinite(t)
        return dx

    return wrapped


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


def _stepping(step):
    """``run(grid, x, states)`` of a step ``step(t, x, h)`` (:func:`_rk4_step`
    on arrays or :func:`_rk4_step_floats` on lists): one step per ``(t, h)``
    of ``grid``, each new state appended to ``states``."""
    def run(grid, x, states):
        for t, h in grid:
            x = step(t, x, h)
            states.append(x)

    return run


def _run_rk4(run, x, t0, t1, dt, times, states):
    """Fixed steps on multiples of ``dt``, with a clipped last step, from
    one call ``run(grid, x, states)`` (:func:`_stepping` of a step, or a
    generated program): ``grid`` yields each step's ``(t, h)``, step k from
    ``t0 + k*dt`` and the clipped one from the last full step's end, and
    ``run`` appends each new state to ``states``, so none is copied.  The
    end times of the steps ``run`` completed are appended to ``times``, and
    a ``_NonFinite`` raises ``IntegrationError`` at the last of them."""
    span = t1 - t0
    n_full = int(math.floor(span / dt + 1e-9))
    marks = [t0 + k * dt for k in range(n_full + 1)]  # step k starts at marks[k]
    grid = zip(marks, itertools.repeat(dt, n_full))
    ends = marks[1:]
    if span - n_full * dt > 1e-12 * max(dt, 1.0):
        t_last = ends[-1] if ends else t0
        grid = itertools.chain(grid, [(t_last, t1 - t_last)])
        ends.append(t1)
    elif ends:
        ends[-1] = t1
    done = len(states)
    try:
        run(grid, x, states)
    except _NonFinite:
        times += ends[:len(states) - done]
        raise IntegrationError("non-finite state during RK4 step", times[-1]) from None
    times += ends


def _run_rk45(field, x, t0, t1, stepper, times, states) -> int:
    """Dormand-Prince steps with first-same-as-last reuse: the last stage is
    evaluated at exactly (t + h, x5), so after an accepted step it is the
    next step's first stage, and after a rejected step the first stage is
    unchanged.  The tableau's last row of ``_DP_A`` is the fifth-order
    weights, so that stage's point is x5, summed term for term in the
    order the weights give.

    The stage points and the error estimate are running sums in one table
    (see :func:`_dp_columns`), allocated here: after each stage derivative,
    one broadcast product and one in-place add update every later row.
    ``field(t, row)`` is called on a row of that table and raises
    ``_NonFinite`` on a non-finite result, before the next stage's point
    is formed; its wrapper hands the field its own copy of the row (the
    list, or an array copy), so a field may return or keep its argument.
    Returns the number of rejected steps."""
    tol = stepper.tol
    t = t0
    h = min((t1 - t0) / 100.0, 0.1)
    n_steps = 0
    n_rejected = 0
    table = np.empty((8, len(x)))
    hc = np.empty_like(_DP_COEFS)
    # each column's table rows and its (h * coefficient) column, as views
    columns = [(table[rows], hc[coefs]) for rows, coefs in _DP_COLUMNS]
    x5, err = table[6], table[7]  # _DP_A[6] is _DP_B5[:6] and _DP_B5[6] is 0.0
    ax = np.abs(x)
    try:
        k1 = field(t, x)
        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            n_steps += 1
            if n_steps > stepper.max_steps:
                raise IntegrationError("adaptive stepper exceeded max step count", t)
            h = min(h, t1 - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step-size underflow", t)
            table[:7] = x
            err.fill(0.0)
            np.multiply(_DP_COEFS, h, out=hc)
            k = k1
            for i in range(1, 7):
                rows, c = columns[i - 1]
                rows += c * k
                k = field(t + _DP_C[i] * h, table[i])
            rows, c = columns[6]
            rows += c * k
            ax5 = np.abs(x5)
            scale = np.maximum(ax, ax5)  # tol * (1.0 + max(|x|, |x5|)), in place
            scale += 1.0
            scale *= tol
            np.abs(err, out=err)
            err /= scale
            ratio = float(err.max())
            if ratio <= 1.0:
                t = t1 if t1 - (t + h) < 1e-14 * max(1.0, abs(t1)) else t + h
                if not math.isfinite(ax5.max()):
                    raise _NonFinite(t)
                x, ax, k1 = x5.copy(), ax5, k
                times.append(t)
                states.append(x)
                grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                h *= max(0.2, grow)
            else:
                n_rejected += 1
                h *= max(0.1, min(1.0, 0.9 * ratio ** -0.2))
    except _NonFinite:
        raise IntegrationError("non-finite state during RK45 step", times[-1]) from None
    return n_rejected
