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
reference interpreter.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
    if not read:
        def fn(x, e):
            return [node(x, ()) for node in nodes]

        return fn
    order = list(read)

    def fn(x, e):
        try:
            v = [e[name] for name in order]
        except KeyError as err:
            raise EvalError(f"unbound variable {err.args[0]!r}", read[err.args[0]]) from None
        return [node(x, v) for node in nodes]

    return fn


def _compile(e: Expr, bind: Callable[[Var], Node]) -> Node:
    if isinstance(e, Const):
        c = e.value
        return lambda x, v: c
    if isinstance(e, Var):
        return bind(e)
    if isinstance(e, Neg):
        if isinstance(e.operand, Const):  # -c is the same float at build time
            c = -e.operand.value
            return lambda x, v: c
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


def _pow_chain(k: int):
    """``base -> numerics.int_pow(base, k)`` for k >= 1, unrolled into one
    closure per bit of ``k``: the same multiplications in the same order,
    less int_pow's leading ``1.0 *`` (exact) and its unused last squaring."""

    def step(k: int, first: bool):
        # ``first``: no factor taken yet, so the step is fn(acc), else fn(out, acc)
        if k == 1:
            return (lambda acc: acc) if first else (lambda out, acc: out * acc)
        rest = step(k >> 1, first and not k & 1)
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
