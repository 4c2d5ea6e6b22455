import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss.exprlang import (
    BinOp,
    Call,
    Const,
    EvalError,
    Neg,
    ParseError,
    Var,
    evaluate,
    parse,
    to_source,
    variables,
)
from diffdiss.numerics import DualScalar


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
