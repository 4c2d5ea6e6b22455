import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss.exprlang import (
    BinOp,
    Call,
    Const,
    EvalError,
    MAX_DEPTH,
    Neg,
    ParseError,
    Traced,
    Var,
    as_expr,
    compile_map,
    compile_matrix,
    evaluate,
    parse,
    substitute,
    to_source,
    variables,
)
from diffdiss import exprlang, numerics
from diffdiss.numerics import FLOAT_ERRORS, DualScalar, deriv_part, int_pow, seed, value_part


class TestParse:
    def test_sum_of_product(self):
        e = parse("x1 + 2*x2")
        assert e == BinOp("+", Var("x1"), BinOp("*", Const(2.0), Var("x2")))

    def test_precedence_mul_binds_tighter(self):
        assert parse("x1 + x2*x3") == BinOp(
            "+", Var("x1"), BinOp("*", Var("x2"), Var("x3"))
        )

    def test_incomplete_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +")
        assert err.value.offset == 4
        assert err.value.expected

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(1)")

    def test_arity_checked(self):
        with pytest.raises(ParseError, match="argument"):
            parse("sin(1, 2)")
        with pytest.raises(ParseError, match="argument"):
            parse("atan2(1)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2 x")

    def test_power_right_associative(self):
        assert parse("2^3^2") == BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0)))
        assert evaluate(parse("2^3^2"), {}) == pytest.approx(512.0)
        # literal small integer exponents use exact repeated multiplication
        assert evaluate(parse("2^9"), {}) == 512.0

    def test_unary_minus_between_mul_and_pow(self):
        # -x^2 is -(x^2); -x*y is (-x)*y
        assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))
        assert parse("-x*y") == BinOp("*", Neg(Var("x")), Var("y"))

    def test_left_associative_subtraction(self):
        assert parse("a - b - c") == BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c"))

    def test_offset_of_unexpected_char(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + $")
        assert err.value.offset == 5

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_nesting_past_the_limit_is_located(self):
        # a sum of n names nests n - 1 levels: the '+' making MAX_DEPTH + 1 fails
        parse(" + ".join(["x1"] * (MAX_DEPTH + 1)))
        text = " + ".join(["x1"] * 1200)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
            parse(text)
        assert err.value.offset == 3 + 5 * MAX_DEPTH
        # parentheses, signs, exponents and calls each open a level, and a
        # deep one fails at the token opening the level past the limit
        parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
        for opener, closer, offset in (("(", ")", MAX_DEPTH), ("-", "", MAX_DEPTH),
                                       ("x^", "", 2 * MAX_DEPTH + 1),
                                       ("sin(", ")", 4 * MAX_DEPTH)):
            for count in (MAX_DEPTH + 1, 10000):
                with pytest.raises(ParseError, match="nested deeper") as err:
                    parse(opener * count + "x" + closer * count)
                assert err.value.offset == offset


class TestEval:
    def test_cube_with_dual(self):
        out = evaluate(parse("x^3"), {"x": DualScalar(2.0, 1.0)})
        assert out.value == 8.0 and out.deriv == 12.0

    def test_sin_at_zero(self):
        out = evaluate(parse("sin(x)"), {"x": DualScalar(0.0, 1.0)})
        assert out.value == 0.0 and out.deriv == 1.0

    def test_rc_law_derivative_matches_fd(self):
        e = parse("q + q^3")
        d = evaluate(e, {"q": DualScalar(0.5, 1.0)}).deriv
        h = 1e-6
        fd = (evaluate(e, {"q": 0.5 + h}) - evaluate(e, {"q": 0.5 - h})) / (2 * h)
        assert d == pytest.approx(1.75, abs=1e-12)
        assert d == pytest.approx(fd, abs=1e-9)

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound variable"):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_domain_errors_located(self):
        with pytest.raises(EvalError, match="offset 0"):
            evaluate(parse("log(x)"), {"x": -1.0})
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(0 - 2)"), {})
        with pytest.raises(EvalError, match="division"):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_negative_base_integer_power(self):
        assert evaluate(parse("x^2"), {"x": -3.0}) == 9.0
        assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(EvalError):
            evaluate(parse("x^0.5"), {"x": -1.0})

    def test_builtins_against_math(self):
        env = {"x": 0.7, "y": 0.3}
        cases = {
            "tan(x)": math.tan(0.7),
            "tanh(x)": math.tanh(0.7),
            "exp(x)": math.exp(0.7),
            "log(x)": math.log(0.7),
            "sqrt(x)": math.sqrt(0.7),
            "abs(0 - x)": 0.7,
            "atan2(y, x)": math.atan2(0.3, 0.7),
            "min(x, y)": 0.3,
            "max(x, y)": 0.7,
        }
        for text, want in cases.items():
            assert evaluate(parse(text), env) == pytest.approx(want, abs=1e-15)

    def test_variables(self):
        assert variables(parse("a + sin(b*c) - 2")) == {"a", "b", "c"}


# strategy for random well-formed ASTs, used for the round-trip law
_names = st.sampled_from(["x", "y", "zz", "q_c", "w1"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.builds(Const, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
            st.builds(Var, _names),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        st.builds(Var, _names),
        st.builds(Neg, sub),
        st.builds(lambda op, a, b: BinOp(op, a, b), st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda a: Call("sin", (a,)), sub),
        st.builds(lambda a, b: Call("atan2", (a, b)), sub, sub),
    )


class TestDualValue:
    """The lift reads a map's value from the value part of one dual pass, so
    evaluating on duals must reproduce the float evaluation bit for bit."""

    @given(
        _exprs(3),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5),
        st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
    )
    @settings(max_examples=500, deadline=None)
    def test_dual_value_is_float_value(self, e, values, derivs):
        names = ["x", "y", "zz", "q_c", "w1"]
        floats = dict(zip(names, values))
        duals = {k: DualScalar(v, d) for (k, v), d in zip(floats.items(), derivs)}
        try:
            plain = evaluate(e, floats)
            dual = evaluate(e, duals)
        except (EvalError, ArithmeticError, ValueError):
            return
        got = dual.value if isinstance(dual, DualScalar) else dual
        assert not isinstance(got, DualScalar)
        if math.isnan(plain):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", plain)


_NAMES = ["x", "y", "zz", "q_c", "w1"]
_BATCH = 3


def _same(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _element(x, k):
    return x[k] if isinstance(x, np.ndarray) else x


def _scalar_outcome(e, env):
    try:
        return evaluate(e, env), None
    except (EvalError, ArithmeticError, ValueError) as err:
        return None, err


class TestBatchEvaluation:
    """A batch (variables bound to 1-d arrays, or duals over them) evaluates
    every element exactly as the scalar path does."""

    @given(
        _exprs(3),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=5 * _BATCH, max_size=5 * _BATCH),
        st.lists(st.floats(-10.0, 10.0), min_size=5 * _BATCH, max_size=5 * _BATCH),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_batch_equals_each_element(self, e, values, derivs, dual):
        vals = np.array(values).reshape(5, _BATCH)
        ders = np.array(derivs).reshape(5, _BATCH)

        def bind(k=None):
            pick = (lambda a: a) if k is None else (lambda a: float(a[k]))
            if dual:
                return {n: DualScalar(pick(v), pick(d)) for n, v, d in zip(_NAMES, vals, ders)}
            return {n: pick(v) for n, v in zip(_NAMES, vals)}

        singles = [_scalar_outcome(e, bind(k)) for k in range(_BATCH)]
        errors = [err for _, err in singles if err is not None]
        with np.errstate(**FLOAT_ERRORS):
            if errors:
                if not all(isinstance(err, EvalError) for err in errors):
                    return  # the same ArithmeticError/ValueError, or nan for 0/0
                with pytest.raises(EvalError) as caught:
                    evaluate(e, bind())
                assert caught.value.offset in {err.offset for err in errors}
                return
            batch = evaluate(e, bind())
        for k, (one, _) in enumerate(singles):
            for part in (value_part, deriv_part):
                assert _same(_element(part(batch), k), part(one))

    @pytest.mark.parametrize("text, bad", [
        ("1 + x / (y - 1)", {"y": 1.0}),
        ("x^-2 + y", {"x": 0.0}),
        ("2 * (x + y)^1.5", {"x": -6.0}),
        ("y + log(x * y)", {"x": -1.0}),
        ("x + sqrt(y - 3)", {"y": 2.0}),
        ("log(x) + sqrt(y)", {"y": -1.0}),
    ])
    def test_guard_hit_in_one_element_raises_at_scalar_offset(self, text, bad):
        e = parse(text)
        good = {"x": 2.0, "y": 5.0}
        with pytest.raises(EvalError) as single:
            evaluate(e, dict(good, **bad))
        for position in range(3):
            batch = {}
            for name, v in good.items():
                col = np.full(3, v)
                col[position] = bad.get(name, v)
                batch[name] = col
            for env in (batch, {k: DualScalar(v, 1.0) for k, v in batch.items()}):
                with np.errstate(**FLOAT_ERRORS), pytest.raises(EvalError) as caught:
                    evaluate(e, env)
                assert caught.value.offset == single.value.offset
                assert str(caught.value) == str(single.value)


def _bits(r) -> list:
    """Every float of a (nested, possibly batched) dual as raw bytes, with
    the nesting shape, so two results compare bit for bit."""
    if isinstance(r, DualScalar):
        return ["dual", _bits(r.value), _bits(r.deriv)]
    return [type(r).__name__, np.asarray(r, dtype=float).tobytes()]


def _outcome(fn):
    try:
        return _bits(fn()), None
    except Exception as err:  # the same exception type and text is the contract
        return None, (type(err), str(err), getattr(err, "offset", None))


# states are bound by position, the other strategy names come from ``e``
_STATES = ["x", "zz", "w1"]
_EXO = ["y", "q_c"]


class TestCompileMap:
    """A compiled map returns exactly what ``evaluate`` returns, node for
    node, or raises the same error at the same offset."""

    @staticmethod
    def _check(asts, values):
        env = dict(zip(_NAMES, values))
        x = [env[name] for name in _STATES]
        e = {name: env[name] for name in _EXO}
        fn = compile_map(asts, _STATES, _EXO)
        with np.errstate(**FLOAT_ERRORS):
            got = _outcome(lambda: fn(x, e))
            want = _outcome(lambda: [evaluate(a, env) for a in asts])
        assert got == want

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_floats(self, asts, values):
        self._check(asts, values)

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_duals(self, asts, values, derivs):
        self._check(asts, [DualScalar(v, d) for v, d in zip(values, derivs)])

    @given(_exprs(3),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_nested_duals(self, e, values, derivs):
        self._check([e], [DualScalar(DualScalar(v, 1.0), DualScalar(d, 0.0))
                          for v, d in zip(values, derivs)])

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=5 * _BATCH, max_size=5 * _BATCH),
           st.lists(st.floats(-10.0, 10.0), min_size=5 * _BATCH, max_size=5 * _BATCH),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_batches(self, asts, values, derivs, dual):
        vals = np.array(values).reshape(5, _BATCH)
        ders = np.array(derivs).reshape(5, _BATCH)
        self._check(asts, [DualScalar(v, d) for v, d in zip(vals, ders)] if dual else list(vals))

    @pytest.mark.parametrize("k", range(-16, 17))
    def test_integer_powers(self, k):
        e = parse(f"b^{k}" if k >= 0 else f"b^-{-k}")
        fn = compile_map([e], ["b"])
        bases = [0.7, -1.3, 2.5, 1e-3, 3.0000000000000004,
                 DualScalar(1.1, 0.3), DualScalar(-0.9, 2.0),
                 DualScalar(DualScalar(0.9, 1.0), DualScalar(0.4, 0.0)),
                 np.array([0.7, -1.3, 1.0000000149011612]),
                 DualScalar(np.array([0.7, -2.1]), np.array([1.0, 0.5]))]
        for b in bases:
            got = fn([b], None)[0]
            assert _bits(got) == _bits(evaluate(e, {"b": b}))
            assert _bits(got) == _bits(int_pow(b, k))

    def test_guards_raise_at_the_node_offset(self):
        for text, env in (("1 + x / (zz - 1)", {"x": 2.0, "zz": 1.0}),
                          ("x^-2 + zz", {"x": 0.0, "zz": 1.0}),
                          ("x^0 + log(zz)", {"x": 0.0, "zz": -1.0}),
                          ("2 * (x + zz)^1.5", {"x": -6.0, "zz": 1.0}),
                          ("zz + sqrt(x - 3)", {"x": 2.0, "zz": 1.0}),
                          ("log(1/x) + 1/(x - x)", {"x": 0.0, "zz": 1.0})):
            e = parse(text)
            with pytest.raises(EvalError) as want:
                evaluate(e, env)
            with pytest.raises(EvalError) as got:
                compile_map([e], ["x", "zz"])([env["x"], env["zz"]], None)
            assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)

    def test_unbound_name_raises_when_built(self):
        with pytest.raises(EvalError, match="unbound variable 'y' at offset 8") as err:
            compile_map([parse("x"), parse("x + 2 * y")], ["x"], ["w"])
        assert err.value.offset == 8

    def test_state_is_read_by_position_not_from_e(self):
        fn = compile_map([parse("x1 + w")], ["x1"], ["x1", "w"])
        assert fn([1.0], {"x1": 5.0, "w": 0.5}) == [1.5]

    def test_exo_missing_at_call_is_unbound(self):
        fn = compile_map([parse("x1 + 2*w")], ["x1"], ["w"])
        with pytest.raises(EvalError, match="unbound variable 'w' at offset 7"):
            fn([1.0], {})

    def test_exo_free_map_takes_e_optionally(self):
        """``fn(x)``, ``fn(x, None)`` and ``fn(x, {})`` give the same bits on
        floats, batches and duals, in vector and matrix form (the matrix may
        name exogenous signals it never reads); the tangent still takes ``e``."""
        entries = [parse("x*sin(zz) - w1^3"), parse("x/(1 + zz^2)")]
        vector = compile_map(entries, _STATES)
        matrix = compile_matrix([entries, [parse("exp(-x)"), parse("2")]], _STATES, _EXO)
        batch = [np.array([0.3, -0.1]), np.array([-1.2, 4.0]), np.array([2.0, 0.5])]
        points = ([0.3, -1.2, 2.0], batch,
                  [DualScalar(0.3, 1.0), DualScalar(-1.2, 0.5), 2.0],
                  [DualScalar(batch[0], np.array([1.0, 0.0])), batch[1], 2.0])
        flat = lambda out: [_bits(w) for row in out for w in (row if isinstance(row, list) else [row])]
        for fn in (vector, matrix):
            for x in points:
                assert flat(fn(x)) == flat(fn(x, None)) == flat(fn(x, {}))
        dx = [1.0, 0.5, -2.0]
        assert vector.tangent([0.3, -1.2, 2.0], dx, {}) == _dual_pass(vector, [0.3, -1.2, 2.0], dx, {})
        with pytest.raises(TypeError):
            vector.tangent([0.3, -1.2, 2.0], dx)

    def test_sum_at_the_depth_limit(self):
        """A 150-term sum compiles, and its values and tangent are the
        reference interpreter's and the dual pass's."""
        asts = [parse(" + ".join(["x*zz", "sin(x)", "w1", "2.5", "y/zz"] * 30))]
        self._check(asts, [0.3, -1.2, 2.0, 0.5, 4.0])
        self._check(asts, [np.array([0.3, 1.5]), np.array([-1.2, 0.0]), np.array([2.0, 2.0]),
                           np.array([0.5, -0.5]), np.array([4.0, 1.0])])
        self._check(asts, [DualScalar(0.3, 1.0), 2.0, DualScalar(-1.2, 0.5), 0.5, 4.0])
        fn = compile_map(asts, _STATES, _EXO)
        x, dx, e = [0.3, -1.2, 4.0], [1.0, 0.5, -2.0], {"y": 2.0, "q_c": 0.5}
        assert fn.tangent(x, dx, e) == _dual_pass(fn, x, dx, e)

    def test_map_reading_exo_still_needs_e(self):
        for fn in (compile_map([parse("x + y")], ["x"], ["y"]),
                   compile_matrix([[parse("x + y")]], ["x"], ["y"])):
            assert fn([1.0], {"y": 2.0}) in ([3.0], [[3.0]])
            with pytest.raises(TypeError):
                fn([1.0])


def _all_exprs(depth):
    """Like ``_exprs``, with every builtin and literal integer exponents from
    -3 to 3 (``b^0`` and min/max of a dual and a plain operand included)."""
    if depth == 0:
        return _exprs(0)
    sub = _all_exprs(depth - 1)
    unary = st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh"])
    binary = st.sampled_from(["atan2", "min", "max"])
    literal = st.integers(-3, 3).map(lambda k: Const(float(k)) if k >= 0 else Neg(Const(-k)))
    return st.one_of(
        _exprs(depth),
        st.builds(lambda name, a: Call(name, (a,)), unary, sub),
        st.builds(lambda name, a, b: Call(name, (a, b)), binary, sub, sub),
        st.builds(lambda a, k: BinOp("^", a, k), sub, literal),
    )


def _tangent_outcome(call):
    try:
        values, derivs = call()
        return [_bits(w) for w in values], [_bits(w) for w in derivs]
    except Exception as err:  # the same exception type and text is the contract
        return None, (type(err), str(err), getattr(err, "offset", None))


def _dual_pass(fn, x, dx, e):
    out = fn(seed(x, dx), e)
    return [value_part(w) for w in out], [deriv_part(w) for w in out]


class TestTangent:
    """``fn.tangent(x, dx, e)`` is the value and derivative parts of
    ``fn(seed(x, dx), e)`` bit for bit (signed zeros and nan included), or
    raises the same error with the same text and offset."""

    @staticmethod
    def _check(asts, x, dx, e):
        fn = compile_map(asts, _STATES, _EXO)
        with np.errstate(**FLOAT_ERRORS):
            got = _tangent_outcome(lambda: fn.tangent(x, dx, e))
            want = _tangent_outcome(lambda: _dual_pass(fn, x, dx, e))
        assert got == want

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_floats(self, asts, values, derivs):
        env = dict(zip(_NAMES, values))
        self._check(asts, [env[name] for name in _STATES], derivs,
                    {name: env[name] for name in _EXO})

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=5 * _BATCH, max_size=5 * _BATCH),
           st.lists(st.floats(-10.0, 10.0), min_size=3 * _BATCH, max_size=3 * _BATCH))
    @settings(max_examples=300, deadline=None)
    def test_batches(self, asts, values, derivs):
        env = dict(zip(_NAMES, np.array(values).reshape(5, _BATCH)))
        self._check(asts, [env[name] for name in _STATES],
                    list(np.array(derivs).reshape(3, _BATCH)),
                    {name: env[name] for name in _EXO})

    @given(st.lists(_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_dual_inputs(self, asts, values, derivs):
        env = dict(zip(_NAMES, values))
        x = [DualScalar(env[name], d) for name, d in zip(_STATES, derivs)]
        dx = [DualScalar(d, 1.0) for d in derivs[3:]]
        self._check(asts, x, dx, {name: env[name] for name in _EXO})

    @given(st.lists(_all_exprs(3), min_size=1, max_size=3),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
           st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_every_builtin(self, asts, values, derivs, batch):
        env = dict(zip(_NAMES, values))
        x = [env[name] for name in _STATES]
        e = {name: env[name] for name in _EXO}
        if batch:  # the same point twice and its negation
            x = [np.array([v, v, -v]) for v in x]
            e = {k: np.array([v, v, -v]) for k, v in e.items()}
            derivs = [np.array([d, -d, d]) for d in derivs]
        self._check(asts, x, derivs, e)

    @pytest.mark.parametrize("text, x, dx", [
        ("x * zz", [-0.0, 2.0, 1.0], [1.0, -0.0, 0.0]),
        ("-x + 0.0 * zz", [0.0, -0.0, 1.0], [-0.0, -0.0, 0.0]),
        ("x / zz - w1 * y", [1e308, 1e-308, 2.0], [1e308, -1.0, 0.0]),
        ("(x - x) * zz + abs(w1)", [float("inf"), 1.0, -0.0], [1.0, 1.0, -1.0]),
        ("1 / (zz - 1)", [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
        ("1 / x", [1e-200, 1.0, 0.0], [1.0, 0.0, 0.0]),
        ("x^-2 + zz^0.5", [0.0, 4.0, 0.0], [1.0, 1.0, 0.0]),
        ("log(x) + sqrt(zz)", [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]),
        ("y + q_c", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ("min(x, zz) + max(zz, 2)", [1.0, 1.0, 0.0], [3.0, -1.0, 0.0]),
        ("x^0 + w1", [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
    ])
    def test_fixed_cases(self, text, x, dx):
        self._check([parse(text)], x, dx, {"y": -0.0, "q_c": float("nan")})

    @pytest.mark.parametrize("text", ["x^-2", "1 / x", "zz / x", "x^-3 * zz", "abs(x) - min(x, zz)"])
    def test_fixed_batch_cases(self, text):
        # 1e-200 squared underflows to 0: the derivative's (or a power's) divisor is zero
        x = [np.array([1e-200, 1.0, -0.0]), np.array([2.0, -0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
        dx = [np.array([1.0, -1.0, 0.0])] * 3
        self._check([parse(text)], [a[:2] for a in x], [d[:2] for d in dx], {})
        self._check([parse(text)], [a[1:] for a in x], [d[1:] for d in dx], {})

    def test_missing_exo_is_unbound(self):
        fn = compile_map([parse("x1 + 2*w")], ["x1"], ["w"])
        with pytest.raises(EvalError, match="unbound variable 'w' at offset 7"):
            fn.tangent([1.0], [1.0], {})

    def test_runs_no_dual_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("seed was called")

        monkeypatch.setattr(numerics, "seed", refuse)
        fn = compile_map([parse("-(x + x^3)/2 + sin(x) * y"), parse("min(x, x*x)"), parse("3")],
                         ["x"], ["y"])
        values, derivs = fn.tangent([0.5], [2.0], {"y": 1.5})
        assert values == fn([0.5], {"y": 1.5})
        assert derivs[2] == 0.0

    def test_built_once(self):
        for fn in (compile_map([parse("x*x")], ["x"]), compile_matrix([[parse("x*x")]], ["x"])):
            built = fn.tangent.build()
            assert fn.tangent.build() is built
            assert fn.tangent([3.0], [1.0], None) == built([3.0], [1.0], None)

    def test_matrix_form(self):
        rows = [[parse("x"), parse("2")], [parse("x*y"), parse("min(x, 1)")]]
        fn = compile_matrix(rows, ["x"], ["y"])
        assert fn([3.0], {"y": 2.0}) == [[3.0, 2.0], [6.0, 1.0]]
        assert fn.tangent([3.0], [0.5], {"y": 2.0}) == ([[3.0, 2.0], [6.0, 1.0]],
                                                        [[0.5, 0.0], [1.0, 0.0]])
        row = compile_matrix([[parse("x*x"), parse("y")]], ["x"], ["y"])
        assert row([3.0], {"y": 2.0}) == [[9.0, 2.0]]
        assert row.tangent([3.0], [1.0], {"y": 2.0}) == ([[9.0, 2.0]], [[6.0, 0.0]])


def _numbered(e, offsets):
    """``e`` with a fresh offset at every node, in pre-order, so a subtree
    that occurs twice carries a different offset at each occurrence."""
    offset = next(offsets)
    if isinstance(e, Neg):
        return Neg(_numbered(e.operand, offsets), offset)
    if isinstance(e, BinOp):
        return BinOp(e.op, _numbered(e.left, offsets), _numbered(e.right, offsets), offset)
    if isinstance(e, Call):
        return Call(e.name, tuple(_numbered(a, offsets) for a in e.args), offset)
    return type(e)(e.value if isinstance(e, Const) else e.name, offset)


def _shared_rows():
    """Rows combining a small pool of subexpressions (signed zeros included)
    several times each, renumbered, so a generated program shares nodes
    whose occurrences have different offsets."""
    zeros = st.sampled_from([Const(0.0), Const(-0.0)])
    pools = st.lists(st.one_of(_all_exprs(2), zeros), min_size=1, max_size=4)

    def rows(pool):
        part = st.sampled_from(pool)
        row = st.one_of(part, st.builds(lambda op, a, b: BinOp(op, a, b),
                                        st.sampled_from("+-*/^"), part, part))
        return st.lists(row, min_size=1, max_size=4)

    return pools.flatmap(rows).map(
        lambda asts: [_numbered(a, iter(range(1000 * k, 1000 * (k + 1))))
                      for k, a in enumerate(asts)])


class TestGeneratedTangent:
    """``fn.tangent`` is one generated straight-line program over the
    hash-consed DAG of the map's rows; it returns ``dual_parts`` of a dual
    pass bit for bit, or raises the same error at the same offset."""

    @staticmethod
    def _check(asts, x, dx, e):
        fn = compile_map(asts, _STATES, _EXO)
        with np.errstate(**FLOAT_ERRORS):
            got = _tangent_outcome(lambda: fn.tangent(x, dx, e))
            want = _tangent_outcome(lambda: numerics.dual_parts(fn(seed(x, dx), e)))
        assert got == want
        return fn

    @given(_shared_rows(),
           st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_floats(self, asts, values, derivs):
        env = dict(zip(_NAMES, values))
        self._check(asts, [env[name] for name in _STATES], derivs,
                    {name: env[name] for name in _EXO})

    @given(_shared_rows(),
           st.lists(st.floats(-1e3, 1e3), min_size=5 * _BATCH, max_size=5 * _BATCH),
           st.lists(st.floats(-10.0, 10.0), min_size=3 * _BATCH, max_size=3 * _BATCH))
    @settings(max_examples=300, deadline=None)
    def test_batches(self, asts, values, derivs):
        env = dict(zip(_NAMES, np.array(values).reshape(5, _BATCH)))
        self._check(asts, [env[name] for name in _STATES],
                    list(np.array(derivs).reshape(3, _BATCH)),
                    {name: env[name] for name in _EXO})

    def test_shared_subexpressions_are_computed_once(self):
        fn = compile_map([parse("1/(1 + 3*x^2) * y"), parse("x^3 + 1/(1 + 3*x^2)")], ["x"], ["y"])
        source = fn.tangent.build().source
        assert source.count("_div(") == 2  # the one division's value and derivative
        assert source.count("_hit(") == 1
        assert source.count(" x[0]") == 1 and source.count(" dx[0]") == 1
        self._check([parse("1/(1 + 3*x^2) * y"), parse("x^3 + 1/(1 + 3*x^2)")],
                    [0.5, 1.0, 2.0], [1.0, 0.0, 0.0], {"y": 2.0, "q_c": 0.0})

    def test_source_holds_no_config_text(self):
        fn = compile_map([parse("alpha * gamma + 1e999*beta - 0.25")], ["alpha", "beta"],
                         ["gamma"])
        source = fn.tangent.build().source
        for text in ("alpha", "beta", "gamma", "inf", "0.25", "1e999"):
            assert text not in source
        values, derivs = fn.tangent([2.0, 1.0], [1.0, 0.5], {"gamma": 3.0})
        assert values == [math.inf] and derivs == [math.inf]

    def test_value_source_holds_no_config_text(self):
        fn = compile_map([parse("alpha * gamma + 1e999*beta - 0.25"), parse("log(beta - 3.5)")],
                         ["alpha", "beta"], ["gamma"])
        for text in ("alpha", "beta", "gamma", "inf", "0.25", "1e999", "3.5"):
            assert text not in fn.source
        # the only digits left are in generated names and indices
        assert not re.search(r"\d", re.sub(r"[A-Za-z_]\w*|\[\d+\]", "", fn.source))
        assert fn([2.0, 4.0], {"gamma": 3.0}) == [math.inf, math.log(0.5)]
        with pytest.raises(EvalError, match="log of a non-positive value at offset 0"):
            fn([2.0, 3.5], {"gamma": 3.0})

    def test_maps_of_one_structure_share_their_code(self):
        texts = ["2*x + log(x + y)", "3.75*x + log(x + y)"]
        fns = [compile_map([parse(t)], ["x"], ["y"]) for t in texts]
        assert fns[0].__code__ is fns[1].__code__
        assert fns[0].tangent.build().__code__ is fns[1].tangent.build().__code__
        batch = np.array([0.5, 2.0, -0.25])
        for text, fn in zip(texts, fns):
            for x, y in ((0.5, 1.0), (batch, batch + 1.0)):
                assert _bits(fn([x], {"y": y})[0]) == _bits(evaluate(parse(text), {"x": x, "y": y}))
            # each map reports its own offsets
            with pytest.raises(EvalError) as want:
                evaluate(parse(text), {"x": -1.0, "y": 0.5})
            with pytest.raises(EvalError) as got:
                fn([-1.0], {"y": 0.5})
            assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)

    @pytest.mark.parametrize("rows", [
        [["x*x", "y", "sin(x) / (1 + x^2)"]],
        [["x", "2"], ["x*y", "min(x, 1)"], ["-x", "x^-2"]],
        [["1/(1 + 3*x^2)"], ["1/(1 + 3*x^2) * y"]],
    ])
    def test_matrix_equals_its_entries(self, rows):
        matrix = compile_matrix([[parse(t) for t in row] for row in rows], ["x"], ["y"])
        entries = [[compile_map([parse(t)], ["x"], ["y"]) for t in row] for row in rows]
        bits = lambda rows: [[_bits(w) for w in row] for row in rows]
        batch = np.array([0.5, -2.0, 3.0])
        for x, dx, y in ((0.7, 1.5, 2.0), (batch, batch[::-1].copy(), batch + 0.5)):
            e = {"y": y}
            values, derivs = matrix.tangent([x], [dx], e)
            assert bits(matrix([x], e)) == bits(values)
            assert bits(values) == bits([[fn([x], e)[0] for fn in row] for row in entries])
            assert bits(derivs) == bits([[fn.tangent([x], [dx], e)[1][0] for fn in row]
                                         for row in entries])

    def test_infinite_literal(self):
        self._check([parse("1e999*x")], [2.0, 1.0, 0.0], [1.0, 0.0, 0.0], {})
        self._check([parse("x - 1e999*x")], [-0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], {})

    def test_signed_zero_literals_stay_apart(self):
        x = Traced(Var("x"))
        asts = [as_expr(x * 0.0), as_expr(x * -0.0)]
        assert asts[0] == asts[1]  # equal as dataclasses, distinct as literals
        fn = self._check(asts, [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], {})
        (a, b), (da, db) = fn.tangent([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], {})
        assert math.copysign(1.0, a) == -1.0 and math.copysign(1.0, b) == 1.0
        assert math.copysign(1.0, da) == 1.0 and math.copysign(1.0, db) == -1.0

    def test_reflected_rules_keep_signed_zeros(self):
        # a plain left operand runs DualScalar's __rsub__/__radd__: 1 - x at x = 1 is +0.0
        asts = [parse("1 - x"), parse("-0.0 + x*0"), parse("2 / (x - 1 + zz)")]
        fn = self._check(asts, [1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], {})
        self._check(asts, [1.0, 2.0, 0.0], [1.0, -1.0, 0.0], {})
        assert math.copysign(1.0, fn.tangent([1.0, 2.0, 0.0], [1.0, 0.0, 0.0], {})[0][0]) == 1.0

    @pytest.mark.parametrize("text", ["min(x, 1)", "x^0", "max(2, x) + x"])
    def test_mixed_kinds_have_a_generated_tangent(self, text):
        # min/max of a dual and a plain operand is a dual; x^0 is the plain 1.0
        fn = self._check([parse(text), parse("x*zz")], [0.5, 2.0, 0.0], [1.0, 1.0, 0.0], {})
        assert hasattr(fn.tangent.build(), "source")

    @pytest.mark.parametrize("text, pick, x1", [
        ("min(x1, 1)*x2", lambda x: numerics.minimum(x[0], 1.0) * x[1], 2.0),
        ("max(1, x1)*x2", lambda x: numerics.maximum(1.0, x[0]) * x[1], 0.5),
    ])
    def test_min_max_pick_a_point_as_a_batch(self, text, pick, x1):
        # the plain operand wins: its derivative part 0.0 times x2, plus
        # 1.0 * dx2 = -0.0, is +0.0 on one point as in a batch of one
        point = [x1, 3.0], [1.0, -0.0]
        batch = tuple([np.array([w]) for w in v] for v in point)
        fn = compile_map([parse(text)], ["x1", "x2"])
        python_map = lambda x, e=None: [pick(x)]
        outcomes = [fn.tangent(*point, None), fn.tangent(*batch, None)]
        outcomes += [_dual_pass(f, *args, None) for f in (fn, python_map) for args in (point, batch)]
        # each entry's one element (of a batch of one) as raw bytes
        bits = [[np.asarray(w, dtype=float).reshape(1).tobytes() for w in part]
                for out in outcomes for part in out]
        assert bits == [bits[0], bits[1]] * len(outcomes)
        assert bits[1] == [struct.pack("=d", 0.0)]

    def test_first_error_keeps_the_first_offset(self):
        # (zz - 1) divides at offsets 5 and 21: the first occurrence reports
        asts = [parse("2 + x/(zz - 1)"), parse("x + 1/(zz - 1)")]
        for x in ([1.0, 1.0, 0.0], [np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.zeros(2)]):
            self._check(asts, x, [1.0, 1.0, 0.0], {})
            with pytest.raises(EvalError, match="division by zero at offset 5"):
                compile_map(asts, _STATES, _EXO).tangent(x, [1.0, 1.0, 0.0], {})


def _float_program(asts, names, exo, tangent=False):
    """The float kind of the value program of ``asts`` (``fn(x, e)``), or of
    its tangent program (``fn(x, dx, e)``)."""
    program = exprlang._Program(names, "x[{}]".format, "dx[{}]".format if tangent else None,
                                floats=True)
    entries = program.entries(asts, frozenset(exo))
    values = f"[{', '.join(v for v, _ in entries)}]"
    if not tangent:
        return program.function("x, e", values)
    derivs = f"[{', '.join(d or '0.0' for _, d in entries)}]"
    return program.function("x, dx, e", f"{values}, {derivs}")


# floats a program may meet on a run: signed zeros, infinities and nan too
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


def _float_outcome(call):
    """The bits of each float ``call()`` returns (of each list, for a pair
    of lists), or its error.  A nan is compared as nan: the sign of a nan
    made from two nans depends on the operand order the compiled addition
    or product picked, which Python does not fix."""
    def bits(v):
        return "nan" if math.isnan(v) else struct.pack("<d", v)

    try:
        out = call()
    except Exception as err:  # the same exception type and text is the contract
        return None, (type(err), str(err), getattr(err, "offset", None))
    if isinstance(out, tuple):
        return [[bits(v) for v in part] for part in out], None
    return [bits(v) for v in out], None


class TestFloatKind:
    """A program of the float kind (``/`` for ``_div``, a comparison for
    ``_hit``, ``math`` for the ``numerics`` wrappers, the dual rules written
    out) returns on floats what ``evaluate`` and the tangent program return,
    bit for bit, or raises the same error with the same text and offset."""

    @staticmethod
    def _check(asts, values):
        env = dict(zip(_NAMES, values))
        x = [env[name] for name in _STATES]
        e = {name: env[name] for name in _EXO}
        fn = _float_program(asts, _STATES, _EXO)
        got = _float_outcome(lambda: fn(x, e))
        assert got == _float_outcome(lambda: [evaluate(a, env) for a in asts])
        return got

    @given(st.lists(st.one_of(_all_exprs(3), _exprs(3)), min_size=1, max_size=3),
           st.lists(_ANY_FLOAT, min_size=5, max_size=5))
    @settings(max_examples=500, deadline=None)
    def test_values_equal_evaluate(self, asts, values):
        self._check(asts, values)

    @given(_shared_rows(), st.lists(_ANY_FLOAT, min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_shared_nodes_fail_at_the_first_offset(self, asts, values):
        self._check(asts, values)

    @given(st.one_of(_shared_rows(), st.lists(_all_exprs(3), min_size=1, max_size=3)),
           st.lists(_ANY_FLOAT, min_size=5, max_size=5),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_tangents_equal_the_tangent_program(self, asts, values, derivs):
        env = dict(zip(_NAMES, values))
        x = [env[name] for name in _STATES]
        e = {name: env[name] for name in _EXO}
        fn = _float_program(asts, _STATES, _EXO, tangent=True)
        want = compile_map(asts, _STATES, _EXO).tangent.build()
        assert _float_outcome(lambda: fn(x, derivs, e)) == \
            _float_outcome(lambda: want(x, derivs, e))

    @pytest.mark.parametrize("name", sorted(exprlang.FUNCTIONS))
    @pytest.mark.parametrize("v", [0.5, -0.0, 0.0, -2.5, 1e-320, 800.0, math.inf, math.nan])
    def test_every_function(self, name, v):
        args = ", ".join(["x", "zz"][:exprlang.FUNCTIONS[name]])
        for text in (f"{name}({args})", f"{name}(-x*zz)" if "," not in args else f"{name}(zz, x)"):
            self._check([parse(text)], [v, 1.0, -0.0 if v == 0.0 else 0.25 * v, 2.0, 0.0])

    @pytest.mark.parametrize("text, x, message", [
        ("1 + 2/(x - 1)", 1.0, "division by zero at offset 5"),
        ("1 + log(x - 1)", 1.0, "log of a non-positive value at offset 4"),
        ("1 + log(x)", -0.0, "log of a non-positive value at offset 4"),
        ("2*sqrt(x - 2)", 1.0, "sqrt of a negative value at offset 2"),
        ("x + (x - 1)^-2", 1.0, "zero raised to a negative power at offset 11"),
        ("x + (x - 2)^1.5", 1.0,
         "power of a non-positive base with non-integer exponent at offset 11"),
    ])
    def test_guards_raise_as_evaluate(self, text, x, message):
        got = self._check([parse(text)], [x, 1.0, 1.0, 1.0, 1.0])
        assert got[1][:2] == (EvalError, message)
        # the same guards, with ``x`` seeded with a derivative
        fn = _float_program([parse(text)], _STATES, _EXO, tangent=True)
        want = compile_map([parse(text)], _STATES, _EXO).tangent.build()
        args = ([x, 1.0, 1.0], [1.0, 0.0, 0.0], {"y": 1.0, "q_c": 1.0})
        assert _float_outcome(lambda: fn(*args)) == _float_outcome(lambda: want(*args))

    @pytest.mark.parametrize("text, x, zz", [
        ("min(x, zz)", -0.0, 0.0), ("min(x, zz)", 0.0, -0.0),
        ("max(x, zz)", -0.0, 0.0), ("max(x, zz)", 0.0, -0.0),
        ("min(x, zz)", math.nan, 1.0), ("min(x, zz)", 1.0, math.nan),
        ("max(x, zz)", math.nan, 1.0), ("max(x, zz)", 1.0, math.nan),
        ("abs(x)", -0.0, 0.0), ("abs(x)", math.nan, 0.0), ("-x + 0.0*zz", 0.0, -0.0),
        ("exp(x)", 710.0, 0.0), ("exp(x*zz) + 1", 30.0, 30.0), ("x^3.5", 1e300, 0.0),
        ("1/x^2", 1e-200, 0.0),
    ])
    def test_signed_zeros_nan_and_overflow(self, text, x, zz):
        got = self._check([parse(text)], [x, 1.0, zz, 1.0, 1.0])
        if text.startswith("exp"):
            assert got[1][:2] == (OverflowError, "math range error")
        fn = _float_program([parse(text)], _STATES, _EXO, tangent=True)
        want = compile_map([parse(text)], _STATES, _EXO).tangent.build()
        for dx in ([1.0, 0.0, -1.0], [-0.0, 0.0, 0.0]):
            args = ([x, zz, 1.0], dx, {"y": 1.0, "q_c": 1.0})
            assert _float_outcome(lambda: fn(*args)) == _float_outcome(lambda: want(*args))

    def test_source_calls_no_wrapper(self):
        asts = [parse("sin(x)/zz + log(zz) + sqrt(x) - cos(x)^-2 + min(x, zz) + x^y + abs(w1)")]
        for tangent in (False, True):
            source = _float_program(asts, _STATES, _EXO, tangent=tangent).source
            assert "_div(" not in source and "_hit(" not in source
            assert "_dual_" not in source and "_pick_pair" not in source and "_min(" not in source


class TestLiftedStack:
    """``lifted_stack(f, g)`` runs the lines that read no state once and the
    others once per member: each member's rows are ``lifted_rhs(f, g)`` on
    that member's row, bit for bit, and the stack raises when any member's
    call raises."""

    @given(q=st.integers(1, 2), m=st.sampled_from([2, 9, 16]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_members_equal_lifted_rhs(self, q, m, data):
        entries = lambda size: st.lists(_all_exprs(2), min_size=size, max_size=size)
        f = compile_map(data.draw(entries(3)), _STATES, _EXO)
        g = compile_matrix(data.draw(st.lists(entries(q), min_size=3, max_size=3)), _STATES, _EXO)
        values = st.one_of(st.floats(-10.0, 10.0), _ANY_FLOAT)
        Z = data.draw(st.lists(values, min_size=6 * m, max_size=6 * m))
        e = dict(zip(_EXO, data.draw(st.lists(values, min_size=2, max_size=2))))
        U = data.draw(st.lists(values, min_size=2 * q, max_size=2 * q))
        rhs, stack = exprlang.lifted_rhs(f, g), exprlang.lifted_stack(f, g)
        want = []
        try:
            for j in range(0, 6 * m, 6):
                want += rhs(Z[j:j + 6], e, U)
        except Exception:  # any member's error: the stack raises too
            with pytest.raises(Exception):
                stack(Z, e, U)
        else:
            assert [v.hex() for v in stack(Z, e, U)] == [v.hex() for v in want]

    def test_lines_that_read_no_state_run_once(self):
        f = compile_map([parse("-x + 0*log(y)"), parse("zz*(y - q_c)"), parse("2*w1")],
                        _STATES, _EXO)
        g = compile_matrix([[parse("y^2")], [parse("x")], [parse("1")]], _STATES, _EXO)
        prologue, loop = exprlang.lifted_stack(f, g).source.split("for j in")
        assert "raise EvalError" in prologue and "_log(" in prologue and "= U" in prologue
        assert "e[" not in loop and "_log(" not in loop
        # y - q_c and the product y^2 * u, each once before the loop
        assert prologue.count(" - ") == 1 and re.search(r"= 0\.0 \+ t\d+ \* u", prologue)


class TestLiteralFolding:
    """``+``, ``-`` and ``*`` of two literals is computed when the program is
    generated: one float operation, which cannot raise, gives the bits the
    line would give."""

    @pytest.mark.parametrize("text", ["0.2*x^0", "x^0 + 2.5", "3 - 4*zz^0", "-(2*3) + x*y"])
    def test_folded_source_value_and_tangent(self, text):
        asts = [parse(text)]
        fn = compile_map(asts, _STATES, _EXO)
        for source in (fn.source, fn.tangent.build().source,
                       _float_program(asts, _STATES, _EXO, tangent=True).source):
            assert not re.search(r"= C\d+ [-+*] C\d+$", source, re.M), source
        for x, dx in (([0.5, -0.0, 2.0], [1.0, 0.5, -1.0]), ([0.0, 3.0, -0.0], [-0.0, 0.0, 1.0])):
            TestCompileMap._check(asts, [x[0], 1.5, x[1], -2.0, x[2]])
            TestGeneratedTangent._check(asts, x, dx, {"y": 1.5, "q_c": -2.0})


class TestSubstituteAndTrace:
    def test_substitution_is_simultaneous(self):
        swapped = substitute(parse("x + y*x"), {"x": Var("y"), "y": Var("x")})
        assert swapped == parse("y + x*y")
        assert substitute(parse("sin(x)^2 - w"), {"x": parse("a*b")}) == parse("sin(a*b)^2 - w")

    def test_substitution_keeps_offsets(self):
        renamed = substitute(parse("1 + 1/(x - 2)"), {"x": Var("z")})
        with pytest.raises(EvalError) as caught:
            compile_map([renamed], ["z"])([2.0])
        assert caught.value.offset == 5

    def test_traced_arithmetic_records_the_operations_in_order(self):
        a, b = Traced(Var("a")), Traced(Var("b"))
        assert as_expr(0.0 + a * b) == BinOp("+", Const(0.0), BinOp("*", Var("a"), Var("b")))
        assert as_expr(2.0 * -a + b) == parse("2*(-a) + b")
        assert as_expr(a * 3.0 + 0.5) == parse("a*3 + 0.5")
        assert as_expr(1) == Const(1.0)
        assert as_expr(a - b) == BinOp("-", Var("a"), Var("b"))
        assert as_expr(1.0 - a) == BinOp("-", Const(1.0), Var("a"))
        assert as_expr(a - 2.0) == BinOp("-", Var("a"), Const(2.0))

    def test_traced_subtraction_runs_the_dual_rules(self, rng):
        # __sub__ of two duals, __rsub__ of a float and __sub__ of a float
        a, b = Traced(Var("a")), Traced(Var("b"))
        fn = compile_map([as_expr(a - b), as_expr(1.0 - a), as_expr(a - 2.0)], ["a", "b"])
        batch = rng.standard_normal((2, 5))
        for x, dx in (([1.0, 1.0], [-0.0, 0.0]), ([-0.0, 0.0], [1.0, -1.0]),
                      (rng.standard_normal(2).tolist(), rng.standard_normal(2).tolist()),
                      (list(batch), list(rng.standard_normal((2, 5))))):
            da, db = seed(x, dx)
            want = [da - db, 1.0 - da, da - 2.0]
            bits = lambda out: [_bits(w) for w in out]
            assert bits(fn(seed(x, dx))) == bits(want)
            values, derivs = fn.tangent(x, dx, None)
            assert bits(values) == bits([value_part(w) for w in want])
            assert bits(derivs) == bits([deriv_part(w) for w in want])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_traced_dot_compiles_to_numerics_dot(self, values):
        names = [f"v{k}" for k in range(6)]
        traced = [Traced(Var(name)) for name in names]
        fn = compile_map([as_expr(numerics.dot(traced[:3], traced[3:]))], names)
        want = numerics.dot(values[:3], values[3:])
        assert struct.pack("d", fn(values)[0]) == struct.pack("d", want)

    def test_compiled_maps_keep_their_source(self):
        asts = [parse("x + w"), parse("2*x")]
        fn = compile_map(asts, ["x"], ["w"])
        assert (fn.asts, fn.names, fn.exo) == (asts, ["x"], frozenset({"w"}))
        matrix = compile_matrix([asts, asts[::-1]], ["x"], ["w"])
        assert (matrix.asts, matrix.names, matrix.exo) == ([asts, asts[::-1]], ["x"],
                                                           frozenset({"w"}))


class TestPrinter:
    @given(_exprs(3))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, e):
        assert parse(to_source(e)) == e

    def test_round_trip_fixed_cases(self):
        for text in ("a - (b - c)", "a - b - c", "(a + b)*c", "-x^2", "(-x)^2",
                     "x^(y + 1)", "2^3^2", "min(a, max(b, c))", "-(a + b)"):
            e = parse(text)
            assert parse(to_source(e)) == e


class TestFuzz:
    def test_never_crashes_on_random_bytes(self, rng):
        for _ in range(5000):
            n = int(rng.integers(0, 40))
            data = bytes(rng.integers(0, 256, size=n)).decode("latin-1")
            try:
                parse(data)
            except ParseError:
                pass

    @given(st.text(max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_never_crashes_on_text(self, text):
        try:
            parse(text)
        except ParseError:
            pass
