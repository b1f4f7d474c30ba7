import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from idepcag.expressions import (
    Const,
    Cos,
    Exp,
    ExpressionError,
    Neg,
    Pow,
    Prod,
    Sin,
    Sum,
    Var,
    evaluate,
    parse_expression,
    serialize_expression,
)


class TestEvaluate:
    def test_sin_quarter_period(self):
        expr = parse_expression("sin(2*pi*t)")
        assert evaluate(expr, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert evaluate(Const(-1.0), 7.3) == -1.0

    def test_exp_times_t(self):
        expr = Prod((Exp(Var("t")), Var("t")))
        assert evaluate(expr, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_purity(self):
        expr = parse_expression("exp(t)*sin(t)+t^3")
        first = evaluate(expr, 1.234)
        for _ in range(5):
            assert evaluate(expr, 1.234) == first


class TestParse:
    def test_sin_structure(self):
        expr = parse_expression("sin(2*pi*t)")
        assert isinstance(expr, Sin)
        assert isinstance(expr.child, Prod)

    def test_bound_parameter(self):
        expr = parse_expression("-(1)*q0", bindings={"q0": 1.0})
        assert expr == Const(-1.0)

    def test_constant_folding(self):
        expr = parse_expression("(alpha-1)", bindings={"alpha": 2.0})
        assert expr == Const(1.0)

    def test_variable_k(self):
        expr = parse_expression("2*k+1", variables=("k",))
        assert evaluate(expr, 3) == 7.0

    def test_division_by_constant(self):
        expr = parse_expression("-60/67")
        assert expr == Const(-60.0 / 67.0)

    def test_whitespace_insensitive(self):
        a = parse_expression("sin( 2 * pi*t )  + 1")
        b = parse_expression("sin(2*pi*t)+1")
        assert evaluate(a, 0.3) == evaluate(b, 0.3)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("sin(2*pi*t")
        assert info.value.position is not None

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_expression("q0*t")

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            parse_expression("tan(t)")

    def test_negative_power_rejected(self):
        with pytest.raises(ExpressionError, match="nonnegative"):
            parse_expression("t^(-1)")

    def test_fractional_power_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("t^0.5")

    def test_nonconstant_divisor_rejected(self):
        with pytest.raises(ExpressionError, match="constant"):
            parse_expression("1/t")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ExpressionError, match="zero"):
            parse_expression("1/0")

    def test_nonfinite_constant_rejected(self):
        with pytest.raises(ExpressionError):
            Const(math.inf)


class TestSerialize:
    @pytest.mark.parametrize(
        "expr",
        [
            Const(0.0),
            Sin(Prod((Const(2.0), Const(math.pi), Var("t")))),
            Sum((Var("t"), Const(1.0))),
            Neg(Sum((Var("t"), Const(2.0)))),
            Pow(Sum((Var("t"), Const(1.0))), 3),
            Prod((Const(-2.5), Cos(Var("t")))),
            Sum((Const(1.0), Neg(Prod((Var("t"), Var("t")))))),
        ],
    )
    def test_round_trip_samples(self, expr):
        text = serialize_expression(expr)
        back = parse_expression(text)
        for t in (-2.0, -0.3, 0.0, 0.7, 1.9):
            assert evaluate(back, t) == evaluate(expr, t)


# random tree generation for the round-trip property

_leaves = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(Const),
    st.just(Var("t")),
)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(Neg),
        pair.map(Sum),
        pair.map(Prod),
        st.tuples(children, st.integers(0, 3)).map(lambda be: Pow(*be)),
        children.map(Sin),
        children.map(Cos),
        children.map(Exp),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=14)


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(_trees)
    @example(Pow(Const(-0.0), 0))  # "-0.0^0" would re-parse as -(0.0^0)
    @example(Sum((Const(-0.0), Pow(Const(-0.0), 1))))
    def test_serialize_parse_bitwise(self, expr):
        try:
            text = serialize_expression(expr)
            back = parse_expression(text)
        except ExpressionError:
            assume(False)
        rng = random.Random(1234)
        for _ in range(100):
            t = rng.uniform(-2.0, 2.0)
            try:
                expected = evaluate(expr, t)
            except OverflowError:
                continue
            assert evaluate(back, t) == expected
