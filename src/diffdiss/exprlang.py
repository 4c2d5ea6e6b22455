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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from . import numerics
from .numerics import DualScalar, float_value


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
    differentiation works through user expressions.
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
            if float_value(b) == 0.0:
                raise EvalError("division by zero", e.offset)
            return a / b
        return _power(a, b, e)
    # Call
    args = [evaluate(a, env) for a in e.args]
    return _call(e, args)


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
        if k < 0 and float_value(a) == 0.0:
            raise EvalError("zero raised to a negative power", node.offset)
        return numerics.int_pow(a, k)
    if float_value(a) <= 0.0:
        raise EvalError("power of a non-positive base with non-integer exponent", node.offset)
    return numerics.exp(b * numerics.log(a))


def _call(node: Call, args):
    name = node.name
    if name in _UNARY_FN:
        return _UNARY_FN[name](args[0])
    if name == "log":
        if float_value(args[0]) <= 0.0:
            raise EvalError("log of a non-positive value", node.offset)
        return numerics.log(args[0])
    if name == "sqrt":
        if float_value(args[0]) < 0.0:
            raise EvalError("sqrt of a negative value", node.offset)
        return numerics.sqrt(args[0])
    if name == "atan2":
        return numerics.atan2(args[0], args[1])
    if name == "min":
        return numerics.minimum(args[0], args[1])
    return numerics.maximum(args[0], args[1])


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
