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
error.  ``^`` maps to :func:`numerics.int_pow` (repeated squaring) for
integer literal exponents up to :data:`numerics.INT_POW_MAX` in magnitude
and to exp(e*log(b)) otherwise, so evaluation stays differentiable through
dual scalars.

Variables may be bound to floats, dual scalars, or either over 1-d float
arrays (a batch).  A batch evaluates every element with the float
operations of the scalar path, and a domain guard raises if any element
fails it.

:func:`compile_map` turns a list of ASTs into one ``fn(x, e) -> list``, a
straight-line Python function generated from the hash-consed DAG of the
ASTs, with every name bound when the map is built: state names read ``x``
at a fixed index, exogenous names are read from ``e`` once per call.  It
performs the operations of :func:`evaluate`, in the same order and with the
same guards, so its results and errors are bit for bit those of
``evaluate``; the library evaluates config expressions only through
compiled maps, and ``evaluate`` remains the reference interpreter.
:func:`compile_matrix` is its matrix form.

Every compiled map also has ``fn.tangent(x, dx, e) -> (values, tangents)``,
its forward-mode tangent, which the lift of a system runs in place of a dual
pass.  It is generated on its first call, from the same DAG, and performs
the float operations the DualScalar rules perform on ``x`` seeded with
``dx``, so the result is bit for bit the value and derivative parts of
``fn(numerics.seed(x, dx), e)``, with no dual arithmetic.  Every map has
one: the kind of each node, dual or plain, is known when its line is
generated (``min``/``max`` with a dual operand is dual, ``b^0`` is the
plain 1.0).
:func:`lifted_rhs` generates one such program for the lifted right-hand
side f + g·u of a system (see "generated programs" below).  A program of the
float kind, for parts known to be Python floats, writes out the float
operations the ``numerics`` helpers perform on a float (``/``, a comparison
for a guard, the ``math`` function, the dual rules), with the same bits and
errors; ``systems`` generates one fixed RK4 step of a one-member run from
it, and :func:`lifted_stack` is the lifted program of that kind over a
stack of members, whose lines that read no state run once per call.  No
config text enters a program's source, so maps of one structure share one
compiled code object (:func:`_code` keeps the last 256 sources it
compiled); a new structure costs one ``compile()``, about 0.3-0.5 ms for a
map and 1.4-3.6 ms for the RK4 step of a small system (2-vCPU x86-64 host).

Expressions nest at most :data:`MAX_DEPTH` levels deep (each operator,
function call, sign and pair of parentheses is a level), so that every tree
walk here, and a loop composed of two such expressions, stays within
Python's recursion limit; :func:`parse` rejects a deeper one.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
from itertools import islice
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


MAX_DEPTH = 150
"""The deepest nesting :func:`parse` accepts, in levels: an operator, a
function call, a sign or a pair of parentheses is one level over the
deepest of its operands, a number or a name none."""


class _Parser:
    """Recursive descent; each rule returns ``(ast, depth)``, the depth in
    the levels of :data:`MAX_DEPTH`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # levels open around the token being parsed

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

    def over(self, offset: int, *depths: int) -> int:
        """The depth of the level opened at ``offset`` over operands of
        ``depths``; a ParseError there if it is past MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def inside(self, offset: int, rule) -> tuple:
        """``rule()`` inside the level opened at ``offset``; a ParseError
        there, before descending, if the open levels pass MAX_DEPTH, so the
        recursion stays bounded."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        out = rule()
        self.open -= 1
        return out

    def parse(self) -> Expr:
        e, _ = self.sum_()
        if self.peek()[0] != "end":
            self.fail(("end of input", "operator"))
        return e

    def sum_(self) -> tuple:
        left, depth = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, right_depth = self.term()
                left, depth = BinOp(text, left, right, offset), self.over(offset, depth, right_depth)
            else:
                return left, depth

    def term(self) -> tuple:
        left, depth = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, right_depth = self.unary()
                left, depth = BinOp(text, left, right, offset), self.over(offset, depth, right_depth)
            else:
                return left, depth

    def unary(self) -> tuple:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand, depth = self.inside(offset, self.unary)
            return Neg(operand, offset), self.over(offset, depth)
        return self.power()

    def power(self) -> tuple:
        base, depth = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent, exponent_depth = self.inside(offset, self.unary)
            return BinOp("^", base, exponent, offset), self.over(offset, depth, exponent_depth)
        return base, depth

    def atom(self) -> tuple:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text), offset), 0
        if kind == "ident":
            self.advance()
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset, tuple(sorted(FUNCTIONS)))
                self.advance()
                args = [self.inside(offset, self.sum_)]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.inside(offset, self.sum_))
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", offset
                    )
                return (Call(text, tuple(a for a, _ in args), offset),
                        self.over(offset, *(depth for _, depth in args)))
            return Var(text, offset), 0
        if kind == "op" and text == "(":
            self.advance()
            e, depth = self.inside(offset, self.sum_)
            self.expect_op(")")
            return e, self.over(offset, depth)
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise :class:`ParseError` (also for
    nesting deeper than :data:`MAX_DEPTH`)."""
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
    if k is not None and abs(k) <= numerics.INT_POW_MAX:
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
# compiled maps


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
    ``fn(x, e)`` return the same values.  ``fn`` is the generated value
    program of the ASTs (see "generated programs" below); ``fn.source`` is
    its source.

    ``fn.tangent(x, dx, e) -> (values, tangents)`` returns the value and
    derivative parts of ``fn(numerics.seed(x, dx), e)`` (a derivative part
    is 0.0 for an entry that reads no state), bit for bit, or raises what
    that dual pass raises.  Its program is generated on its first use;
    ``fn.tangent.build()`` returns the generated function, which a caller
    can call directly.  ``e`` holds plain values there (floats or batch
    arrays), as it does in the lift.

    ``fn.asts``, ``fn.names`` and ``fn.exo`` are the ASTs, state names and
    exogenous names ``fn`` was compiled from.
    """
    return _compiled(list(asts), None, names, exo)


def compile_matrix(rows: Sequence[Sequence[Expr]], names: Sequence[str], exo: Iterable[str] = ()):
    """The matrix form of :func:`compile_map`: ``fn(x, e)`` returns the
    entries of ``rows`` as a list of rows (``e`` optional as it is for a
    map), and ``fn.tangent(x, dx, e)`` returns the value rows and the tangent
    rows, each from one generated program over all the entries in row-major
    order.  ``fn.asts`` is the list of rows."""
    rows = [list(row) for row in rows]
    return _compiled(rows, [len(row) for row in rows], names, exo)


def _compiled(asts: list, widths: list[int] | None, names: Sequence[str], exo: Iterable[str]):
    """The compiled map of ``asts``, a list of ASTs, or with row ``widths``
    a list of rows of them; ``cells`` are the ASTs in row-major order."""
    cells = asts if widths is None else [a for row in asts for a in row]
    exo = frozenset(exo)
    program = _Program(names, "x[{}]".format)
    values = [v for v, _ in program.entries(cells, exo)]
    fn = program.function("x, e" if program.exo else "x, e=None", _layout(values, widths))
    fn.asts, fn.names, fn.exo = asts, list(names), exo
    fn.tangent = _lazy_tangent(functools.cache(lambda: _build_tangent(fn, cells, widths)))
    return fn


def _lazy_tangent(build):
    """``tangent(x, dx, e)``, which calls the function ``build()`` returns;
    ``tangent.build`` is that (cached) builder, so a caller that evaluates
    the tangent many times can take the built function once and call it
    directly."""

    def tangent(x, dx, e):
        return build()(x, dx, e)

    tangent.build = build
    return tangent


def _layout(items: list[str], widths: list[int] | None) -> str:
    """The source of the list of ``items``, or of its rows of ``widths``."""
    if widths is None:
        return f"[{', '.join(items)}]"
    rest = iter(items)
    return "[" + ", ".join(f"[{', '.join(islice(rest, w))}]" for w in widths) + "]"


# ---------------------------------------------------------------------------
# generated programs
#
# Every compiled map is one straight-line Python function, built with
# ``compile()``, that evaluates the ASTs of one or more maps: their values
# (a value program) or their values and forward-mode tangents (a tangent
# program).  The ASTs are hash-consed into one DAG: each distinct
# subexpression is one node, keyed on its operation and the nodes of its
# operands (a literal on its float bits, so ``0.0`` and ``-0.0`` stay apart),
# assigned once, in the post-order of its first occurrence (operands first,
# then its guard).  In a value program every node is plain: its lines apply
# the operator or ``numerics`` function :func:`evaluate` applies, with the
# same guard, so the parts may be floats, batch arrays or duals and the
# program returns what ``evaluate`` returns.  In a tangent program a node
# that reads a state is dual: its lines perform the float operations the
# DualScalar rule performs on ``x`` seeded with ``dx`` (the same products in
# the same operand order, the reflected ``__radd__``/``__rmul__``/
# ``__rtruediv__`` orders, the same ``_div`` and ``_hit`` guards), the rule
# picked when the line is generated by which operands are dual; the other
# nodes are plain.  No kind depends on the values a node runs on: a call of
# two operands with one dual is dual, the plain one's derivative part 0.0
# (``numerics._pick`` returns a dual for min/max), and ``b^0`` is the plain
# 1.0 (``numerics.int_pow``).  A tangent program therefore returns, bit for
# bit, the value and derivative parts of a dual pass.  Either program's
# first failing guard is the tree walk's first: a repeated node fails where
# its first occurrence failed already, at that occurrence's offset.  The
# source holds generated names only: states are read by index, and
# constants, guard offsets, exogenous names and helpers are bound in the
# program's globals, so no config text enters it.  Maps of one structure
# then have one source, and :func:`_code` compiles it once for all of them;
# each binds its own constants in its own globals.  A program of the float
# kind runs on floats only: its lines perform what the value and dual lines
# perform on floats, with no helper call where ``numerics`` would make only
# float operations.


_GUARDED_FN = {
    "log": (operator.le, "log of a non-positive value"),
    "sqrt": (operator.lt, "sqrt of a negative value"),
}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    """The code of a program's ``source``, compiled once per distinct source."""
    return compile(source, "<exprlang program>", "exec")


def _pick_pair(test, av, ad, bv, bd):
    """The min/max dual rule on the parts of two duals (a plain operand's
    derivative part 0.0): the operand that ``test`` picks, elementwise
    through every dual level on a batch."""
    mask = test(numerics._base(av), numerics._base(bv))
    return numerics._pick(mask, av, bv), numerics._pick(mask, ad, bd)


def _unbound(err: KeyError, offsets: Mapping[str, int]) -> EvalError:
    """The error for an exogenous name missing from ``e`` (``err``), at the
    offset of its first use."""
    name = err.args[0]
    return EvalError(f"unbound variable {name!r}", offsets[name])


# a program's globals, besides its constants, guard offsets and exogenous-name tables
_SCOPE = {
    "EvalError": EvalError, "_unbound": _unbound, "_hit": _hit, "_div": numerics._div,
    "_eq": operator.eq, "_le": operator.le, "_lt": operator.lt,
    "_sin": numerics.sin, "_cos": numerics.cos, "_tan": numerics.tan, "_exp": numerics.exp,
    "_log": numerics.log, "_sqrt": numerics.sqrt, "_tanh": numerics.tanh,
    "_abs": numerics.absolute, "_atan2": numerics.atan2, "_min": numerics.minimum,
    "_max": numerics.maximum, "_dual_atan2": numerics._dual_atan2, "_pick_pair": _pick_pair,
    "_min_test": operator.le, "_max_test": operator.ge,
    **{f"_dual_{name}": rule for name, rule in numerics.DUAL_RULES.items()},
}
_TEST_NAMES = {operator.eq: "_eq", operator.le: "_le", operator.lt: "_lt"}
# a float program's globals: the ``math`` call that each ``numerics`` function
# makes on a float (``absolute`` is ``abs``); its guards compare with _TEST_OPS
_FLOAT_SCOPE = dict(
    _SCOPE, _sin=math.sin, _cos=math.cos, _tan=math.tan, _exp=math.exp, _log=math.log,
    _sqrt=math.sqrt, _tanh=math.tanh, _abs=abs, _atan2=math.atan2,
)
_TEST_OPS = {operator.eq: "==", operator.le: "<=", operator.lt: "<"}
_PRODUCT = BinOp("*", Const(0.0), Const(0.0))  # stands for a product the generator makes
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_NAME = re.compile(r"[A-Za-z_]\w*")


class _Program:
    """One generated function under construction: the lines of the
    hash-consed DAG of the ASTs passed to :meth:`entries`, in SSA order.
    ``state(k)`` and ``deriv(k)`` are the sources that read x_k and dx_k;
    without ``deriv`` it is a value program, in which every node is plain.
    With ``deriv``, a state and every node with a dual operand is dual,
    except ``b^0``, whose dual rule returns the plain 1.0; so each node's
    kind is fixed when its line is generated, and every map has a tangent
    program.

    A program of ``floats`` is for parts known to be Python floats: it
    divides with ``/`` where the other kind calls ``numerics._div``, guards
    with a comparison and ``raise`` where it calls ``_hit``, calls the
    ``math`` function where ``numerics`` would call it, and writes out the
    float operations of the dual rules and of min/max in place of calls.
    On floats both kinds perform the same operations in the same order, so
    they give the same bits and raise the same errors."""

    def __init__(self, names: Sequence[str], state: Callable[[int], str],
                 deriv: Callable[[int], str] | None = None, floats: bool = False):
        self.floats = floats
        self.lines: list[str] = []
        # in a stack program, the state locals and every local a member line
        # assigned: a line that reads one is a member line (see :meth:`emit`)
        self.varying: set[str] | None = None
        self.member_lines: list[str] = []
        self.count = 0
        self.consts: dict[tuple, str] = {}  # (type, float bits) -> global name
        self.literals: dict[str, float] = {}  # global name -> constant
        self.offsets: list[int] = []  # the offset each guard reports, by guard
        self.scope = dict(_FLOAT_SCOPE if floats else _SCOPE, _at=self.offsets)
        self.restart(names, state, deriv)

    def restart(self, names: Sequence[str], state: Callable[[int], str],
                deriv: Callable[[int], str] | None = None) -> None:
        """Start a new DAG over the states ``names`` read by ``state`` and
        ``deriv``, whose nodes share nothing with the nodes so far: the
        lines, generated names, constants and guard offsets carry on."""
        self.states = {name: k for k, name in enumerate(names)}
        self.state = state
        self.deriv = deriv
        self.nodes: dict[tuple, tuple] = {}  # node key -> (value, derivative or None)
        self.exo: dict[str, str] = {}  # exogenous name -> the local holding it
        self.guarded: set[tuple] = set()  # (test, value) of every guard so far

    def fresh(self, prefix: str = "t") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def emit(self, line: str, *targets: str) -> None:
        """Append ``line``, which assigns the locals ``targets``: to the
        member lines if it names a local in ``varying`` (its targets then
        join ``varying``), else to :attr:`lines`.  A line holds generated
        names only (and a guard's message), so a local it names is one it
        reads or assigns."""
        if self.varying is not None and not self.varying.isdisjoint(_NAME.findall(line)):
            self.varying.update(targets)
            self.member_lines.append(line)
        else:
            self.lines.append(line)

    def let(self, source: str) -> str:
        name = self.fresh()
        self.emit(f"{name} = {source}", name)
        return name

    def let_pair(self, source: str) -> tuple[str, str]:
        value, deriv = self.fresh(), self.fresh()
        self.emit(f"{value}, {deriv} = {source}", value, deriv)
        return value, deriv

    def guard(self, test, value: str, message: str, offset: int) -> None:
        """A line raising EvalError if ``test(value, 0.0)`` holds; none if
        an earlier guard ran the same test on the same value, which passed."""
        if (test, value) in self.guarded:
            return
        self.guarded.add((test, value))
        hit = (f"{value} {_TEST_OPS[test]} 0.0" if self.floats
               else f"_hit({_TEST_NAMES[test]}, {value})")
        self.emit(f"if {hit}: raise EvalError({message!r}, _at[{len(self.offsets)}])")
        self.offsets.append(int(offset))

    def div(self, a: str, b: str) -> str:
        """The source of ``numerics._div(a, b)``: ``a / b`` on floats."""
        if self.floats:
            return f"{_operand(a)} / {_operand(b)}"
        return f"_div({a}, {b})"

    def read(self, source: str) -> str:
        """A local holding the value ``source`` reads: a local it names as
        it is, else a new one."""
        return source if source.isidentifier() else self.let(source)

    def const(self, value) -> str:
        key = (value.__class__, struct.pack("<d", value))
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = self.fresh("C")
            self.scope[name] = self.literals[name] = value
        return name

    def literal(self, node: tuple):
        """The value of a literal node, else None."""
        return self.literals.get(node[0]) if node[1] is None else None

    def nonzero_literal(self, name: str) -> bool:
        c = self.literals.get(name)
        return c is not None and c != 0.0

    def entries(self, asts: Sequence[Expr], exo: frozenset[str]) -> list[tuple]:
        """The node of each AST, after lines that read from ``e`` each
        exogenous name the ASTs use and no earlier call read, in first-use
        order; a missing one raises at its first offset in ``asts``.  A name
        that is neither a state nor in ``exo`` raises :class:`EvalError`
        here, at its first offset."""
        reads = {name: offset for name, offset in _first_uses(asts).items()
                 if name not in self.states}
        for name, offset in reads.items():
            if name not in exo:
                raise EvalError(f"unbound variable {name!r}", offset)
        new = [name for name in reads if name not in self.exo]
        if new:
            table, offsets = self.fresh("N"), self.fresh("O")
            self.scope[table] = tuple(new)
            self.scope[offsets] = reads
            self.lines.append("try:")
            for j, name in enumerate(new):
                self.exo[name] = self.fresh("w")
                self.lines.append(f"    {self.exo[name]} = e[{table}[{j}]]")
            self.lines.append("except KeyError as err:")
            self.lines.append(f"    raise _unbound(err, {offsets}) from None")
        return [self.node(a) for a in asts]

    def node(self, e: Expr) -> tuple:
        """``(value, derivative)``: the names holding the node of ``e``, the
        derivative None for a node that reads no state."""
        if isinstance(e, Const):
            return self.const(e.value), None
        if isinstance(e, Var):
            k = self.states.get(e.name)
            if k is None:
                return self.exo[e.name], None
            key, args = ("x", k), ()
        elif isinstance(e, Neg):
            args = (self.node(e.operand),)
            c = self.literal(args[0])
            if c is not None:
                return self.const(-c), None
            key = ("neg", *args)
        elif isinstance(e, Call):
            args = tuple(self.node(a) for a in e.args)
            key = (e.name, *args)
        else:
            k = _integer_literal(e.right) if e.op == "^" else None
            if k is not None and abs(k) <= numerics.INT_POW_MAX:  # only the base runs
                args = (self.node(e.left),)
                key = ("^", *args, k)
            else:
                args = (self.node(e.left), self.node(e.right))
                key = (e.op, *args)
        return self.memo(e, key, args)

    def memo(self, e: Expr, key: tuple, args: tuple) -> tuple:
        """The node ``key`` of ``e`` on the operand nodes ``args``: its lines
        are generated on its first occurrence only."""
        out = self.nodes.get(key)
        if out is None:
            if self.deriv is not None and (isinstance(e, Var)
                                           or any(d is not None for _, d in args)):
                out = self.dual(e, key, args)
            else:
                out = self.plain(e, key, [v for v, _ in args]), None
            self.nodes[key] = out
        return out

    def mul(self, a: tuple, b: tuple) -> tuple:
        """The ``*`` node of the nodes ``a`` and ``b``: the product of two
        duals is DualScalar.__mul__, which an unrolled power shares with an
        explicit product of the same operands."""
        return self.memo(_PRODUCT, ("*", a, b), (a, b))

    def plain(self, e: Expr, key: tuple, args: list[str]) -> str:
        """The value of a node, as :func:`evaluate` computes it."""
        if isinstance(e, Var):
            return self.read(self.state(key[1]))
        if isinstance(e, Neg):
            return self.let(f"-{args[0]}")
        if isinstance(e, Call):
            if e.name in _GUARDED_FN:
                test, message = _GUARDED_FN[e.name]
                self.guard(test, args[0], message, e.offset)
            if self.floats and e.name in ("min", "max"):  # numerics.minimum/maximum
                a, b = args
                return self.let(f"{a} if {a} {'<=' if e.name == 'min' else '>='} {b} else {b}")
            return self.let(f"_{e.name}({', '.join(args)})")
        a = args[0]
        if len(args) == 1:  # a literal integer power
            k = key[-1]
            if k == 0:
                return self.const(1.0)
            if k < 0:
                self.guard(operator.eq, a, "zero raised to a negative power", e.offset)
            power = numerics.int_pow((a, None), abs(k), self.mul)[0]
            return power if k > 0 else self.let(f"1.0 / {power}")
        b = args[1]
        if e.op == "^":
            self.guard(operator.le, a, "power of a non-positive base with non-integer exponent",
                       e.offset)
            return self.let(f"_exp({b} * _log({a}))")
        if e.op == "/":
            if not self.nonzero_literal(b):  # the guard cannot hit one
                self.guard(operator.eq, b, "division by zero", e.offset)
        elif a in self.literals and b in self.literals:
            # one IEEE operation, which cannot raise, gives the line's bits here
            return self.const(_ARITHMETIC[e.op](self.literals[a], self.literals[b]))
        return self.let(f"{a} {e.op} {b}")

    def dual(self, e: Expr, key: tuple, args: tuple) -> tuple:
        """The value and derivative of a node that reads a state, as the dual
        rule computes them on its operands' parts (the derivative None for
        ``b^0``, which is plain)."""
        if isinstance(e, Var):
            k = key[1]
            return self.read(self.state(k)), self.read(self.deriv(k))
        if isinstance(e, Neg):
            (a, da), = args
            return self.let(f"-{a}"), self.let(f"-{da}")
        if isinstance(e, Call):
            return self.dual_call(e, args)
        if len(args) == 1:
            return self.dual_power(e, args[0], key[-1])
        (a, da), (b, db) = args
        op = e.op
        if op == "^":
            return self.dual_real_power(e, a, da, b, db)
        if da is not None and db is not None:
            if op == "*":
                return self.let(f"{a} * {b}"), self.let(f"{a} * {db} + {da} * {b}")
            if op != "/":
                return self.let(f"{a} {op} {b}"), self.let(f"{da} {op} {db}")
            self.guard(operator.eq, b, "division by zero", e.offset)
            return (self.let(self.div(a, b)),
                    self.let(self.div(f"{da} * {b} - {a} * {db}", f"{b} * {b}")))
        if da is not None:  # a plain right operand
            if op in "+-":
                return self.let(f"{a} {op} {b}"), da
            if op == "*":
                return self.let(f"{a} * {b}"), self.let(f"{da} * {b}")
            if self.nonzero_literal(b):
                # the guard cannot hit a nonzero literal, and _div(a, c) is a / c
                return self.let(f"{a} / {b}"), self.let(f"{da} / {b}")
            self.guard(operator.eq, b, "division by zero", e.offset)
            return self.let(self.div(a, b)), self.let(self.div(da, b))
        # a plain left operand: DualScalar's reflected rules
        if op == "+":
            return self.let(f"{b} + {a}"), db
        if op == "-":
            return self.let(f"{a} - {b}"), self.let(f"-{db}")
        if op == "*":
            return self.let(f"{b} * {a}"), self.let(f"{db} * {a}")
        self.guard(operator.eq, b, "division by zero", e.offset)
        return self.let(self.div(a, b)), self.let(self.div(f"-{a} * {db}", f"{b} * {b}"))

    def dual_power(self, e: Expr, base: tuple, k: int) -> tuple:
        if k == 0:  # int_pow's plain 1.0: the base's derivative is dropped
            return self.const(1.0), None
        if k < 0:
            self.guard(operator.eq, base[0], "zero raised to a negative power", e.offset)
        cv, cd = numerics.int_pow(base, abs(k), self.mul)
        if k > 0:
            return cv, cd
        # DualScalar.__rtruediv__ of 1.0
        return (self.let(self.div("1.0", cv)),
                self.let(self.div(f"-1.0 * {cd}", f"{cv} * {cv}")))

    def dual_real_power(self, e: Expr, a, da, b, db) -> tuple[str, str]:
        """exp(exponent * log(base)), each rule picked by which operands are dual."""
        self.guard(operator.le, a, "power of a non-positive base with non-integer exponent",
                   e.offset)
        if da is not None:
            lv, ld = self.let(f"_log({a})"), self.let(self.div(da, a))
            if db is not None:
                pv, pd = self.mul((b, db), (lv, ld))
            else:  # DualScalar.__rmul__
                pv, pd = self.let(f"{lv} * {b}"), self.let(f"{ld} * {b}")
        else:
            lg = self.let(f"_log({a})")
            pv, pd = self.let(f"{b} * {lg}"), self.let(f"{db} * {lg}")
        ex = self.let(f"_exp({pv})")
        return ex, self.let(f"{ex} * {pd}")

    def dual_call(self, e: Call, args: tuple) -> tuple[str, str]:
        """A call with a dual operand; a plain operand of a call of two has
        derivative part 0.0, as ``numerics.deriv_part`` gives it."""
        name = e.name
        if name in numerics.DUAL_RULES:
            (v, d), = args
            if name in _GUARDED_FN:
                test, message = _GUARDED_FN[name]
                self.guard(test, v, message, e.offset)
            if self.floats:
                return self.float_rule(name, v, d)
            return self.let_pair(f"_dual_{name}({v}, {d})")
        (y, dy), (x, dx) = args
        dy, dx = dy or "0.0", dx or "0.0"
        if name == "atan2":
            if not self.floats:
                return self.let_pair(f"_dual_atan2({y}, {dy}, {x}, {dx})")
            # numerics._dual_atan2
            denom = self.let(f"{x} * {x} + {y} * {y}")
            return self.let(f"_atan2({y}, {x})"), self.let(self.div(f"{x} * {dy} - {y} * {dx}",
                                                                    denom))
        if self.floats:  # _pick_pair
            test = "<=" if name == "min" else ">="
            return self.let_pair(f"({y}, {dy}) if {y} {test} {x} else ({x}, {dx})")
        return self.let_pair(f"_pick_pair(_{name}_test, {y}, {dy}, {x}, {dx})")

    def float_rule(self, name: str, v: str, d: str) -> tuple[str, str]:
        """The float operations of ``numerics.DUAL_RULES[name](v, d)``, in
        its order."""
        if name == "abs":
            return self.let_pair(f"({v}, {d}) if {v} >= 0.0 else (-{v}, -{d})")
        if name == "tan":
            c = self.let(f"_cos({v})")
            return self.let(f"_tan({v})"), self.let(self.div(d, f"{c} * {c}"))
        value = self.let(f"_{name}({v})")
        if name == "sin":
            return value, self.let(f"_cos({v}) * {d}")
        if name == "cos":
            return value, self.let(f"-_sin({v}) * {d}")
        if name == "exp":
            return value, self.let(f"{value} * {d}")
        if name == "log":
            return value, self.let(self.div(d, v))
        if name == "sqrt":
            return value, self.let(self.div(d, f"2.0 * {value}"))
        return value, self.let(f"(1.0 - {value} * {value}) * {d}")  # tanh

    def dot(self, first: str, row: Sequence[str], u: Sequence[str]) -> str:
        """``first + numerics.dot(row, u)``: ``acc = acc + a * b`` from 0.0.
        A product of two constants, and a sum of two, is computed here, by
        the same float operation the line would perform."""
        acc = "0.0"
        for a, b in zip(row, u):
            term, ca, cb = f"{a} * {b}", self.constant(a), self.constant(b)
            if ca is not None and cb is not None:
                term = self.const(ca * cb)
                c = self.constant(acc)
                if c is not None:
                    acc = self.const(c + self.literals[term])
                    continue
            acc = self.let(f"{acc} + {term}")
        return self.let(f"{first} + {acc}")

    def constant(self, source: str) -> float | None:
        """The value of ``source`` if it is the literal 0.0 or a constant's
        global, else None."""
        return 0.0 if source == "0.0" else self.literals.get(source)

    def lifted_rows(self, f, g, u: Sequence[str] | None = None) -> list[str]:
        """The names holding the 2n rows of :func:`lifted_rhs` of ``f`` and
        ``g`` on this program's states, the 2q inputs read from the names
        ``u``, else unpacked from ``U`` after the entries of f and g."""
        n, q = len(f.asts), len(g.asts[0])
        fs = self.entries(f.asts, f.exo)
        gs = self.entries([a for row in g.asts for a in row], g.exo)
        if u is None:
            u = [self.fresh("u") for _ in range(2 * q)]
            self.lines.append(f"{', '.join(u)}, = U")
        values = [[v for v, _ in gs[k * q:(k + 1) * q]] for k in range(n)]
        derivs = [[d or "0.0" for _, d in gs[k * q:(k + 1) * q]] for k in range(n)]
        rows = [self.dot(fs[k][0], values[k] + ["0.0"] * q, u) for k in range(n)]
        return rows + [self.dot(fs[k][1] or "0.0", derivs[k] + values[k], u) for k in range(n)]

    def function(self, params: str, result: str):
        """The generated function ``program(params) -> result`` over this
        program's globals; ``program.source`` is its source."""
        body = "".join(f"    {line}\n" for line in self.lines)
        source = f"def program({params}):\n{body}    return {result}\n"
        exec(_code(source), self.scope)
        program = self.scope.pop("program")
        program.source = source
        return program


def _operand(source: str) -> str:
    """``source`` as an operand of a binary operator: a name or a literal
    as it is, anything else in parentheses."""
    return source if re.fullmatch(r"[\w.]+", source) else f"({source})"


def _first_uses(asts: Iterable[Expr]) -> dict[str, int]:
    """Each variable name the ASTs use, with the offset of its first use, in
    the order of first use (left to right): the order a compiled map reads
    its exogenous names in."""
    uses: dict[str, int] = {}
    todo = list(asts)[::-1]
    while todo:
        e = todo.pop()
        if isinstance(e, Var):
            uses.setdefault(e.name, e.offset)
        elif isinstance(e, Neg):
            todo.append(e.operand)
        elif isinstance(e, BinOp):
            todo += (e.right, e.left)
        elif isinstance(e, Call):
            todo += e.args[::-1]
    return uses


def _build_tangent(fn, cells: list, widths: list[int] | None):
    """``tangent(x, dx, e) -> (values, tangents)`` of the compiled map
    ``fn`` of the ASTs ``cells`` (in rows of ``widths``, for a matrix): its
    generated tangent program."""
    program = _Program(fn.names, "x[{}]".format, "dx[{}]".format)
    entries = program.entries(cells, fn.exo)
    values = _layout([v for v, _ in entries], widths)
    # an entry that reads no state has derivative part 0.0, as deriv_part gives
    derivs = _layout([d or "0.0" for _, d in entries], widths)
    return program.function("x, dx, e", f"{values}, {derivs}")


def lifted_rhs(f, g):
    """``rhs(X, e, U)``: the right-hand side of the lift of
    ``xdot = f(x, e) + g(x, e) u`` as one generated program.

    ``f`` is a compiled map of n entries and ``g`` a compiled n x q matrix,
    both over the same n state names.  ``X`` is (x, dx) and ``U`` is
    (u, du), of 2n and 2q entries.  Row k < n is ``f_k + dot([g_k, 0...], U)``
    and row n + k is ``df_k + dot([dg_k, g_k], U)``, each ``dot`` the
    left-to-right ``0.0 + a*b`` chain of :func:`numerics.dot` (``0.0 * du``
    terms kept), where ``f_k``, ``g_k`` and their tangents ``df_k``, ``dg_k``
    come from the shared DAG of both maps.  So each row is, bit for bit,
    what the lift of f and g through their own tangents gives, and the first
    error raised is the one their tangents raise, f's rows before g's."""
    n = len(f.asts)
    program = _Program(f.names, "X[{}]".format, lambda k: f"X[{n + k}]")
    rows = program.lifted_rows(f, g)
    return program.function("X, e, U", f"[{', '.join(rows)}]")


def lifted_stack(f, g):
    """``stack(Z, e, U)``: :func:`lifted_rhs` of ``f`` and ``g`` on each
    member's row of ``Z``, m rows of 2n floats stacked member-major, as one
    generated program of the float kind.  The lines that read no state run
    once: the exogenous reads, the nodes of the exogenous values and
    constants alone, the unpacking of ``U`` and the ``g·u`` terms over them,
    with their guards.  Then a loop over the members runs the lines that
    read a state, in their order, and extends one list with each member's
    rows.  ``e`` holds floats and ``U`` floats shared by every member.

    If no line raises, member j's rows are, bit for bit, what
    ``lifted_rhs(f, g)(Z[j*2n:(j+1)*2n], e, U)`` returns.  The stack raises
    exactly when some member's call raises: a shared line that raises is a
    line of member 0's call, a member line one of that member's call.  That
    call may raise first at an earlier line, so the error may differ from
    its error."""
    n = len(f.asts)
    program = _Program((), None, floats=True)
    states = [program.fresh("s") for _ in range(2 * n)]
    program.restart(f.names, states.__getitem__, lambda k: states[n + k])
    program.varying = set(states)
    rows = program.lifted_rows(f, g)
    program.lines += ["out = []", f"for j in range(0, len(Z), {2 * n}):",
                      f"    {', '.join(states)}, = Z[j:j + {2 * n}]",
                      *(f"    {line}" for line in program.member_lines),
                      f"    out += [{', '.join(rows)}]"]
    return program.function("Z, e, U", "out")


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

    ``a + b``, ``a - b``, ``a * b`` and ``-a`` between traced values and
    floats build the BinOp and Neg nodes of those operations, operands in the
    same order, so code that runs on traced values records, as one AST per
    result, the float operations it would run (:func:`as_expr` reads the
    results)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def __add__(self, other):
        return Traced(BinOp("+", self.expr, as_expr(other)))

    def __radd__(self, other):
        return Traced(BinOp("+", as_expr(other), self.expr))

    def __sub__(self, other):
        return Traced(BinOp("-", self.expr, as_expr(other)))

    def __rsub__(self, other):
        return Traced(BinOp("-", as_expr(other), self.expr))

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
    return set(_first_uses([e]))


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
