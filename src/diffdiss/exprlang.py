"""A small arithmetic expression language for entrywise definitions of
vector fields, output maps, storage factors and supply tensors in config
files.

Grammar (precedence low to high):

    sum    :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right-associative
    atom   :=  NUMBER | IDENT | IDENT '(' sum (',' sum)* ')' | '(' sum ')'

Identifiers are ``[a-zA-Z_][a-zA-Z0-9_]*``.  Built-in functions: sin, cos,
tan, exp, log, sqrt, abs, tanh, atan2, min, max.  Whitespace is
insignificant.  There is no implicit multiplication: ``2x`` is a syntax
error.  ``^`` maps to repeated multiplication for small integer literal
exponents and to exp(e*log(b)) otherwise, so evaluation stays
differentiable through dual scalars.

Variables may be bound to floats, dual scalars, or either over 1-d float
arrays (a batch).  A batch evaluates every element with the float
operations of the scalar path, and a domain guard raises if any element
fails it.

:func:`compile_map` turns a list of ASTs into one ``fn(x, e) -> list``
built once from closures, one per AST node, with every name bound when the
map is built: state names read ``x`` at a fixed index, exogenous names are
read from ``e`` once per call.  It performs the operations of
:func:`evaluate`, in the same order and with the same guards, so its results
and errors are bit for bit those of ``evaluate``; the library evaluates
config expressions only through compiled maps, and ``evaluate`` remains the
reference interpreter.  :func:`compile_matrix` is its matrix form.

Every compiled map also has ``fn.tangent(x, dx, e) -> (values, tangents)``,
its forward-mode tangent, which the lift of a system runs in place of a dual
pass.  It is built on its first call, from one closure per AST node, and
each closure performs the float operations the DualScalar rules perform on
``x`` seeded with ``dx``, so the result is bit for bit the value and
derivative parts of ``fn(numerics.seed(x, dx), e)``, with no dual
arithmetic (see :func:`_build_tangent`).
"""

from __future__ import annotations

import functools
import operator
import re
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import numerics
from .numerics import DualScalar


class ParseError(Exception):
    """Syntax error with a byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class EvalError(Exception):
    """Evaluation failure, located at the offending node's source offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    offset: int = field(default=0, compare=False)


Expr = Const | Var | Neg | BinOp | Call

FUNCTIONS: dict[str, int] = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "tanh": 1,
    "atan2": 2,
    "min": 2,
    "max": 2,
}


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos, ("number", "identifier", "operator")
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, offset = self.peek()
        shown = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"unexpected {shown}", offset if offset >= 0 else len(self.text), expected)

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail((f"'{op}'",))

    def parse(self) -> Expr:
        e = self.sum_()
        if self.peek()[0] != "end":
            self.fail(("end of input", "operator"))
        return e

    def sum_(self) -> Expr:
        left = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                left = BinOp(text, left, self.term(), offset)
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                left = BinOp(text, left, self.unary(), offset)
            else:
                return left

    def unary(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary(), offset)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary(), offset)
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text), offset)
        if kind == "ident":
            self.advance()
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset, tuple(sorted(FUNCTIONS)))
                self.advance()
                args = [self.sum_()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.sum_())
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", offset
                    )
                return Call(text, tuple(args), offset)
            return Var(text, offset)
        if kind == "op" and text == "(":
            self.advance()
            e = self.sum_()
            self.expect_op(")")
            return e
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise :class:`ParseError`."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

_UNARY_FN = {
    "sin": numerics.sin,
    "cos": numerics.cos,
    "tan": numerics.tan,
    "exp": numerics.exp,
    "tanh": numerics.tanh,
    "abs": numerics.absolute,
}


def evaluate(e: Expr, env: Mapping[str, float | DualScalar]):
    """Evaluate ``e`` over an environment of floats or dual scalars.

    The dual channel obeys the chain rule through every node, so forward
    differentiation works through user expressions.  This tree walk is the
    reference interpreter; :func:`compile_map` gives the same results
    without walking the tree or building ``env`` on every call.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e.offset) from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, env)
    if isinstance(e, BinOp):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if _hit(operator.eq, b):
                raise EvalError("division by zero", e.offset)
            return a / b
        return _power(a, b, e)
    # Call
    args = [evaluate(a, env) for a in e.args]
    return _call(e, args)


def _hit(test, x) -> bool:
    """Domain guard: ``test(value, 0.0)`` on the plain value of ``x``; on a
    batch, true if any element meets it."""
    while isinstance(x, DualScalar):
        x = x.value
    hit = test(x, 0.0)
    return hit if hit.__class__ is bool else hit.any()


def _literal(e: Expr):
    """The value of a literal ``c``, or of ``-c`` (the same float at build
    time), else None."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg) and isinstance(e.operand, Const):
        return -e.operand.value
    return None


def _integer_literal(e: Expr) -> int | None:
    if isinstance(e, Const) and float(e.value).is_integer():
        return int(e.value)
    if isinstance(e, Neg):
        k = _integer_literal(e.operand)
        return None if k is None else -k
    return None


def _power(a, b, node: BinOp):
    k = _integer_literal(node.right)
    if k is not None and abs(k) <= 16:
        if k < 0 and _hit(operator.eq, a):
            raise EvalError("zero raised to a negative power", node.offset)
        return numerics.int_pow(a, k)
    if _hit(operator.le, a):
        raise EvalError("power of a non-positive base with non-integer exponent", node.offset)
    return numerics.exp(b * numerics.log(a))


def _call(node: Call, args):
    name = node.name
    if name in _UNARY_FN:
        return _UNARY_FN[name](args[0])
    if name == "log":
        if _hit(operator.le, args[0]):
            raise EvalError("log of a non-positive value", node.offset)
        return numerics.log(args[0])
    if name == "sqrt":
        if _hit(operator.lt, args[0]):
            raise EvalError("sqrt of a negative value", node.offset)
        return numerics.sqrt(args[0])
    if name == "atan2":
        return numerics.atan2(args[0], args[1])
    if name == "min":
        return numerics.minimum(args[0], args[1])
    return numerics.maximum(args[0], args[1])


# ---------------------------------------------------------------------------
# compilation to closures

# A compiled node is a closure ``node(x, v)``: ``x`` is the state sequence and
# ``v`` the exogenous values a call read from ``e``, in first-use order.
Node = Callable[[Sequence, Sequence], object]


def compile_map(asts: Sequence[Expr], names: Sequence[str], exo: Iterable[str] = ()):
    """Compile ``asts`` into ``fn(x, e) -> list`` of their values.

    ``names`` are the state names, bound by position: ``names[k]`` reads
    ``x[k]``.  Any other name must be in ``exo``; it is read from the mapping
    ``e``, once per call.  A name that is neither raises :class:`EvalError`
    here, at that variable's offset.  Each call returns exactly what
    :func:`evaluate` returns for each AST on the environment ``names -> x``
    plus ``e`` (a state name read by position even if ``e`` has it too), on
    floats, duals and batches alike, or raises the same :class:`EvalError`.
    A map that reads no exogenous name is ``fn(x, e=None)``: ``fn(x)`` and
    ``fn(x, e)`` return the same values.

    ``fn.tangent(x, dx, e) -> (values, tangents)`` returns the value and
    derivative parts of ``fn(numerics.seed(x, dx), e)`` (a derivative part
    is 0.0 for an entry that reads no state), bit for bit, or raises what
    that dual pass raises.  It is built on its first use, from the AST (see
    :func:`_build_tangent`); ``fn.tangent.build()`` returns the built
    closure, which the lift calls directly.  ``e`` holds plain values there
    (floats or batch arrays), as it does in the lift.

    ``fn.asts``, ``fn.names`` and ``fn.exo`` are the ASTs, state names and
    exogenous names ``fn`` was compiled from.
    """
    states = {name: k for k, name in enumerate(names)}
    exo = set(exo)
    read: dict[str, int] = {}  # exogenous name -> offset of its first use

    def bind(var: Var) -> Node:
        k = states.get(var.name)
        if k is not None:
            return lambda x, v: x[k]
        if var.name not in exo:
            raise EvalError(f"unbound variable {var.name!r}", var.offset)
        read.setdefault(var.name, var.offset)
        j = list(read).index(var.name)
        return lambda x, v: v[j]

    nodes = [_compile(a, bind) for a in asts]
    order = list(read)

    def exo_values(e):
        try:
            return [e[name] for name in order]
        except KeyError as err:
            raise EvalError(f"unbound variable {err.args[0]!r}", read[err.args[0]]) from None

    if not read:
        exo_values = None

        def fn(x, e=None):
            return [node(x, ()) for node in nodes]
    else:
        def fn(x, e):
            v = exo_values(e)
            return [node(x, v) for node in nodes]

    @functools.cache
    def build():
        return _build_tangent(fn, asts, states, bind, exo_values)

    fn.tangent = _lazy_tangent(build)
    _keep_source(fn, list(asts), names, exo)
    return fn


def _keep_source(fn, asts, names, exo) -> None:
    """Keep what ``fn`` was compiled from on it, so that maps built from it
    (an interconnection's loop maps) can be compiled from expressions too."""
    fn.asts = asts
    fn.names = list(names)
    fn.exo = frozenset(exo)


def _lazy_tangent(build):
    """``tangent(x, dx, e)``, which calls the closure ``build()`` returns;
    ``tangent.build`` is that (cached) builder, so a caller that evaluates
    the tangent many times, such as the lift, can take the built closure
    once and call it directly."""

    def tangent(x, dx, e):
        return build()(x, dx, e)

    tangent.build = build
    return tangent


def compile_matrix(rows: Sequence[Sequence[Expr]], names: Sequence[str], exo: Iterable[str] = ()):
    """The matrix form of :func:`compile_map`: ``fn(x, e)`` returns the
    entries of ``rows`` as a list of rows, from one compiled map over the
    entries in row-major order (``e`` optional as it is for that map), and
    ``fn.tangent(x, dx, e)`` returns the value rows and the tangent rows of
    that map's tangent.  ``fn.asts`` is the list of rows."""
    flat = compile_map([ast for row in rows for ast in row], names, exo)
    stops = list(accumulate(len(row) for row in rows))
    cuts = list(zip([0, *stops], stops))
    # one row (the RC's g) is the whole list: skipping the cut copies shows in
    # the audit_rc benchmark end to end (CHANGES.md)
    if len(rows) == 1:
        def fn(x, e=None):
            return [flat(x, e)]
    else:
        def fn(x, e=None):
            out = flat(x, e)
            return [out[a:b] for a, b in cuts]
    # ``e`` is optional exactly when it is for the flat map
    fn.__defaults__ = flat.__defaults__

    @functools.cache
    def build():
        flat_tangent = flat.tangent.build()
        if len(rows) == 1:
            def tangent(x, dx, e):
                values, tangents = flat_tangent(x, dx, e)
                return [values], [tangents]
        else:
            def tangent(x, dx, e):
                values, tangents = flat_tangent(x, dx, e)
                return [values[a:b] for a, b in cuts], [tangents[a:b] for a, b in cuts]

        return tangent

    fn.tangent = _lazy_tangent(build)
    _keep_source(fn, [list(row) for row in rows], names, flat.exo)
    return fn


def _compile(e: Expr, bind: Callable[[Var], Node]) -> Node:
    c = _literal(e)
    if c is not None:
        return lambda x, v: c
    if isinstance(e, Var):
        return bind(e)
    if isinstance(e, Neg):
        a = _compile(e.operand, bind)
        return lambda x, v: -a(x, v)
    if isinstance(e, Call):
        return _compile_call(e, [_compile(a, bind) for a in e.args])
    if e.op == "^":
        return _compile_power(e, bind)
    a = _compile(e.left, bind)
    b = _compile(e.right, bind)
    if e.op == "+":
        return lambda x, v: a(x, v) + b(x, v)
    if e.op == "-":
        return lambda x, v: a(x, v) - b(x, v)
    if e.op == "*":
        return lambda x, v: a(x, v) * b(x, v)
    offset = e.offset

    def divide(x, v):
        num = a(x, v)
        den = b(x, v)
        if _hit(operator.eq, den):
            raise EvalError("division by zero", offset)
        return num / den

    return divide


def _compile_power(node: BinOp, bind) -> Node:
    a = _compile(node.left, bind)
    offset = node.offset
    k = _integer_literal(node.right)
    if k is None or abs(k) > 16:
        b = _compile(node.right, bind)

        def real_power(x, v):
            base = a(x, v)
            exponent = b(x, v)
            if _hit(operator.le, base):
                raise EvalError("power of a non-positive base with non-integer exponent", offset)
            return numerics.exp(exponent * numerics.log(base))

        return real_power
    # the exponent is a literal: only the base has anything to run
    if k == 0:
        def zeroth_power(x, v):
            a(x, v)
            return 1.0

        return zeroth_power
    chain = _pow_chain(abs(k))
    if k > 0:
        return lambda x, v: chain(a(x, v))

    def inverse_power(x, v):
        base = a(x, v)
        if _hit(operator.eq, base):
            raise EvalError("zero raised to a negative power", offset)
        return 1.0 / chain(base)

    return inverse_power


def _pow_chain(k: int, mul=None):
    """``base -> numerics.int_pow(base, k)`` for k >= 1, unrolled into one
    closure per bit of ``k``: the same multiplications in the same order,
    less int_pow's leading ``1.0 *`` (exact) and its unused last squaring.
    ``mul(a, b)``, if given, multiplies in place of ``a * b``."""

    def step(k: int, first: bool):
        # ``first``: no factor taken yet, so the step is fn(acc), else fn(out, acc)
        if k == 1:
            if first:
                return lambda acc: acc
            return (lambda out, acc: out * acc) if mul is None else mul
        rest = step(k >> 1, first and not k & 1)
        if mul is not None:
            if k & 1:
                if first:
                    return lambda acc: rest(acc, mul(acc, acc))
                return lambda out, acc: rest(mul(out, acc), mul(acc, acc))
            if first:
                return lambda acc: rest(mul(acc, acc))
            return lambda out, acc: rest(out, mul(acc, acc))
        if k & 1:
            if first:
                return lambda acc: rest(acc, acc * acc)
            return lambda out, acc: rest(out * acc, acc * acc)
        if first:
            return lambda acc: rest(acc * acc)
        return lambda out, acc: rest(out, acc * acc)

    return step(k, True)


_GUARDED_FN = {
    "log": (numerics.log, operator.le, "log of a non-positive value"),
    "sqrt": (numerics.sqrt, operator.lt, "sqrt of a negative value"),
}
_BINARY_FN = {"atan2": numerics.atan2, "min": numerics.minimum, "max": numerics.maximum}


def _compile_call(node: Call, args: list[Node]) -> Node:
    name = node.name
    offset = node.offset
    if name in _UNARY_FN:
        fn = _UNARY_FN[name]
        a = args[0]
        return lambda x, v: fn(a(x, v))
    if name in _GUARDED_FN:
        a = args[0]
        fn, test, message = _GUARDED_FN[name]

        def guarded(x, v):
            arg = a(x, v)
            if _hit(test, arg):
                raise EvalError(message, offset)
            return fn(arg)

        return guarded
    fn = _BINARY_FN[name]
    a, b = args
    return lambda x, v: fn(a(x, v), b(x, v))


# ---------------------------------------------------------------------------
# forward-mode tangents of compiled maps
#
# A tangent node is built from an AST node whose value depends on the state.
# It is a closure ``node(x, dx, v) -> (value, derivative)`` that performs the
# float operations the DualScalar rules perform for that node on ``x``
# seeded with ``dx``: the same products in the same order, the same ``_div``
# and ``_hit`` guards and the same EvalError offsets.  Which rule applies
# (dual with dual, dual with plain, plain with dual) is decided when the
# node is built.  A node that reads no state is the plain closure of
# :func:`_compile`, called as ``p(x, v)``, as the dual rules run it.  The
# closures only apply Python operators and ``numerics`` functions to the
# parts, so ``x`` and ``dx`` may be floats, batch arrays or duals.


class _KindNotStatic(Exception):
    """A node whose dual rule can return a plain value from a dual operand
    (``min``/``max`` of a dual and a plain operand, ``b^0`` of a dual base):
    whether it is dual is known only when it runs."""


def _build_tangent(fn, asts, states, bind, exo_values):
    """``tangent(x, dx, e) -> (values, tangents)`` of the compiled map ``fn``
    (see :func:`compile_map`), which reads ``exo_values(e)`` once per call,
    or nothing if ``exo_values`` is None.  A map with a node of
    :class:`_KindNotStatic` runs one dual pass of ``fn`` instead."""
    try:
        reads: set[int] = set()
        for a in asts:
            _read_state(a, states, reads)
        nodes = [_tangent(a, states, reads, bind) for a in asts]
    except _KindNotStatic:
        return lambda x, dx, e: numerics.dual_parts(fn(numerics.seed(x, dx), e))
    # an entry that reads no state has derivative part 0.0, as deriv_part gives
    if not any(dual for dual, _ in nodes):
        size = len(nodes)
        return lambda x, dx, e: (fn(x, e), [0.0] * size)
    pairs = [node if dual else (lambda p: lambda x, dx, v: (p(x, v), 0.0))(node)
             for dual, node in nodes]
    # without exogenous names no node reads v, so split takes e in its place
    if len(pairs) == 1:
        # a one-entry map (each RC map) skips the general path's three list builds,
        # a cost that shows in the audit_rc benchmark end to end (CHANGES.md)
        pair = pairs[0]

        def split(x, dx, v):
            value, deriv = pair(x, dx, v)
            return [value], [deriv]
    else:
        def split(x, dx, v):
            out = [pair(x, dx, v) for pair in pairs]
            return [value for value, _ in out], [deriv for _, deriv in out]

    if exo_values is None:
        return split
    return lambda x, dx, e: split(x, dx, exo_values(e))


def _read_state(e: Expr, states, reads: set[int]) -> bool:
    """Whether ``e`` reads a state name; adds the id of each node of ``e``
    that does to ``reads`` (one walk, where asking :func:`variables` at
    every node would walk each subtree once per ancestor)."""
    if isinstance(e, Var):
        hit = e.name in states
    elif isinstance(e, Neg):
        hit = _read_state(e.operand, states, reads)
    elif isinstance(e, BinOp):
        hit = _read_state(e.left, states, reads) | _read_state(e.right, states, reads)
    elif isinstance(e, Call):
        hit = any([_read_state(a, states, reads) for a in e.args])
    else:
        hit = False
    if hit:
        reads.add(id(e))
    return hit


def _tangent(e: Expr, states, reads: set[int], bind):
    """``(dual, node)``: a dual node ``node(x, dx, v) -> (value, derivative)``
    if ``e`` reads the state (its id is in ``reads``, see
    :func:`_read_state`), else the plain node ``node(x, v)``."""
    if id(e) not in reads:
        return False, _compile(e, bind)
    if isinstance(e, Var):
        k = states[e.name]
        return True, lambda x, dx, v: (x[k], dx[k])
    if isinstance(e, Neg):
        a = _tangent(e.operand, states, reads, bind)[1]

        def neg(x, dx, v):
            av, ad = a(x, dx, v)
            return -av, -ad

        return True, neg
    if isinstance(e, Call):
        return True, _tangent_call(e, [_tangent(arg, states, reads, bind) for arg in e.args])
    if e.op == "^":
        return True, _tangent_power(e, states, reads, bind)
    left = _tangent(e.left, states, reads, bind)
    right = _tangent(e.right, states, reads, bind)
    return True, _TANGENT_BINOPS[e.op](e, left, right)


def _tangent_add(node, left, right):
    (da, a), (db, b) = left, right
    if da and db:
        def add(x, dx, v):
            av, ad = a(x, dx, v)
            bv, bd = b(x, dx, v)
            return av + bv, ad + bd
    elif da:
        def add(x, dx, v):
            av, ad = a(x, dx, v)
            return av + b(x, v), ad
    else:
        def add(x, dx, v):
            p = a(x, v)
            bv, bd = b(x, dx, v)
            return bv + p, bd  # DualScalar.__radd__
    return add


def _tangent_sub(node, left, right):
    (da, a), (db, b) = left, right
    if da and db:
        def sub(x, dx, v):
            av, ad = a(x, dx, v)
            bv, bd = b(x, dx, v)
            return av - bv, ad - bd
    elif da:
        def sub(x, dx, v):
            av, ad = a(x, dx, v)
            return av - b(x, v), ad
    else:
        def sub(x, dx, v):
            p = a(x, v)
            bv, bd = b(x, dx, v)
            return p - bv, -bd  # DualScalar.__rsub__
    return sub


def _tangent_mul(node, left, right):
    (da, a), (db, b) = left, right
    if da and db:
        def mul(x, dx, v):
            av, ad = a(x, dx, v)
            bv, bd = b(x, dx, v)
            return av * bv, av * bd + ad * bv
    elif da:
        def mul(x, dx, v):
            av, ad = a(x, dx, v)
            p = b(x, v)
            return av * p, ad * p
    else:
        def mul(x, dx, v):
            p = a(x, v)
            bv, bd = b(x, dx, v)
            return bv * p, bd * p  # DualScalar.__rmul__
    return mul


def _tangent_div(node, left, right):
    (da, a), (db, b) = left, right
    offset = node.offset
    _div = numerics._div
    if da and db:
        def div(x, dx, v):
            av, ad = a(x, dx, v)
            bv, bd = b(x, dx, v)
            if _hit(operator.eq, bv):
                raise EvalError("division by zero", offset)
            return _div(av, bv), _div(ad * bv - av * bd, bv * bv)
    elif da:
        c = _literal(node.right)
        if c is not None and c != 0.0:
            # the guard cannot hit a nonzero literal, and _div(a, c) is a / c; the RC's
            # f divides by R, and the guard's calls show in audit_rc end to end (CHANGES.md)
            def div(x, dx, v):
                av, ad = a(x, dx, v)
                return av / c, ad / c
        else:
            def div(x, dx, v):
                av, ad = a(x, dx, v)
                p = b(x, v)
                if _hit(operator.eq, p):
                    raise EvalError("division by zero", offset)
                return _div(av, p), _div(ad, p)
    else:
        def div(x, dx, v):
            p = a(x, v)
            bv, bd = b(x, dx, v)
            if _hit(operator.eq, bv):
                raise EvalError("division by zero", offset)
            return _div(p, bv), _div(-p * bd, bv * bv)  # DualScalar.__rtruediv__
    return div


_TANGENT_BINOPS = {"+": _tangent_add, "-": _tangent_sub, "*": _tangent_mul, "/": _tangent_div}


def _pair_mul(a, b):
    """DualScalar.__mul__ of two duals, on (value, derivative) pairs."""
    av, ad = a
    bv, bd = b
    return av * bv, av * bd + ad * bv


def _tangent_power(node: BinOp, states, reads, bind):
    k = _integer_literal(node.right)
    offset = node.offset
    if k is not None and abs(k) <= 16:
        if k == 0:
            raise _KindNotStatic  # the dual rule drops the base's derivative
        a = _tangent(node.left, states, reads, bind)[1]
        chain = _pow_chain(abs(k), _pair_mul)
        if k > 0:
            return lambda x, dx, v: chain(a(x, dx, v))
        _div = numerics._div

        def inverse_power(x, dx, v):
            base = a(x, dx, v)
            if _hit(operator.eq, base[0]):
                raise EvalError("zero raised to a negative power", offset)
            cv, cd = chain(base)
            return _div(1.0, cv), _div(-1.0 * cd, cv * cv)  # DualScalar.__rtruediv__

        return inverse_power
    # exp(exponent * log(base)), each rule picked by which operands are dual
    base_dual, a = _tangent(node.left, states, reads, bind)
    exponent_dual, b = _tangent(node.right, states, reads, bind)
    log = numerics.log
    exp = numerics.exp
    _div = numerics._div

    def real_power(x, dx, v):
        base = a(x, dx, v) if base_dual else a(x, v)
        exponent = b(x, dx, v) if exponent_dual else b(x, v)
        if _hit(operator.le, base[0] if base_dual else base):
            raise EvalError("power of a non-positive base with non-integer exponent", offset)
        if base_dual:
            lv, ld = base
            lg = (log(lv), _div(ld, lv))
            if exponent_dual:
                pv, pd = _pair_mul(exponent, lg)
            else:
                pv, pd = lg[0] * exponent, lg[1] * exponent  # DualScalar.__rmul__
        else:
            lg = log(base)
            ev, ed = exponent
            pv, pd = ev * lg, ed * lg
        ex = exp(pv)
        return ex, ex * pd

    return real_power


def _tangent_call(node: Call, args) -> Callable:
    name = node.name
    offset = node.offset
    if name in numerics.DUAL_RULES:
        rule = numerics.DUAL_RULES[name]
        a = args[0][1]
        if name not in _GUARDED_FN:
            def unary(x, dx, v):
                av, ad = a(x, dx, v)
                return rule(av, ad)

            return unary
        _, test, message = _GUARDED_FN[name]

        def guarded(x, dx, v):
            av, ad = a(x, dx, v)
            if _hit(test, av):
                raise EvalError(message, offset)
            return rule(av, ad)

        return guarded
    (da, a), (db, b) = args
    if name == "atan2":
        atan2 = numerics._dual_atan2

        def two_argument(x, dx, v):
            # a plain operand has derivative part 0.0, as deriv_part gives
            yv, yd = a(x, dx, v) if da else (a(x, v), 0.0)
            xv, xd = b(x, dx, v) if db else (b(x, v), 0.0)
            return atan2(yv, yd, xv, xd)

        return two_argument
    if not (da and db):
        raise _KindNotStatic  # the dual rule returns whichever operand wins
    test = operator.le if name == "min" else operator.ge

    def pick(x, dx, v):
        av, ad = a(x, dx, v)
        bv, bd = b(x, dx, v)
        mask = test(numerics._base(av), numerics._base(bv))
        if isinstance(mask, np.ndarray):
            return numerics._pick(mask, av, bv), numerics._pick(mask, ad, bd)
        return (av, ad) if mask else (bv, bd)

    return pick


def substitute(e: Expr, env: Mapping[str, Expr]) -> Expr:
    """``e`` with every variable named in ``env`` replaced by its expression.

    The replacements are made all at once, so a replacement is not itself
    substituted into; every other node keeps its offset, so an
    :class:`EvalError` it raises is located as in ``e``."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.operand, env), e.offset)
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, env), substitute(e.right, env), e.offset)
    if isinstance(e, Call):
        return Call(e.name, tuple(substitute(a, env) for a in e.args), e.offset)
    return e


class Traced:
    """A value that records the arithmetic done on it as an AST, ``expr``.

    ``a + b``, ``a * b`` and ``-a`` between traced values and floats build
    the BinOp and Neg nodes of those operations, operands in the same order,
    so code that runs on traced values records, as one AST per result, the
    float operations it would run (:func:`as_expr` reads the results)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def __add__(self, other):
        return Traced(BinOp("+", self.expr, as_expr(other)))

    def __radd__(self, other):
        return Traced(BinOp("+", as_expr(other), self.expr))

    def __mul__(self, other):
        return Traced(BinOp("*", self.expr, as_expr(other)))

    def __rmul__(self, other):
        return Traced(BinOp("*", as_expr(other), self.expr))

    def __neg__(self):
        return Traced(Neg(self.expr))


def as_expr(value) -> Expr:
    """The AST of a traced value, or the literal of a float."""
    return value.expr if isinstance(value, Traced) else Const(float(value))


def variables(e: Expr) -> set[str]:
    """Names of all variables referenced by ``e``."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= variables(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# canonical printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(e: Expr) -> str:
    """Canonical printer; ``parse(to_source(parse(s)))`` equals ``parse(s)``."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(to_source(a) for a in e.args)})"
    mine = _PREC[e.op]
    left = to_source(e.left)
    right = to_source(e.right)
    if e.op == "^":
        # right-associative: parenthesize an exponent-like left child
        if _prec(e.left) <= mine:
            left = f"({left})"
        if _prec(e.right) < _PREC["neg"]:
            right = f"({right})"
    else:
        if _prec(e.left) < mine:
            left = f"({left})"
        if _prec(e.right) <= mine:
            right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
