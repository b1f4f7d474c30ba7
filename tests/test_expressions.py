import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import idepcag.expressions as expressions_module
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
    affine_split,
    evaluate,
    fold_constants,
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


# trees whose printed text needs the parentheses or signs a naive unparse drops
_SIGN_AND_POWER_CASES = [
    Pow(Const(-2.0), 2),  # "-2.0 ** 2" would re-parse as -(2.0^2)
    Pow(Const(-1.5), 3),
    Const(-0.0),
    Neg(Const(-0.0)),
    Neg(Const(-2.0)),
    Sum((Var("t"), Const(-2.0))),
    Sum((Const(-1.5), Var("t"), Const(-0.0))),
    Sum((Var("t"), Neg(Const(-0.25)))),
    Prod((Var("t"), Const(-2.0))),
    Prod((Const(-0.5), Var("t"), Const(-3.0))),
    Prod((Sum((Var("t"), Const(-1.0))), Const(-2.0))),
    Pow(Pow(Var("t"), 2), 3),
    Pow(Pow(Const(-1.5), 3), 2),
    Pow(Neg(Pow(Var("t"), 2)), 3),
    Pow(Sum((Var("t"), Const(-1.0))), 2),
    Pow(Prod((Const(-2.0), Var("t"))), 2),
    Sin(Pow(Const(-0.0), 1)),
]


class TestSerializeSignsAndPowers:
    @pytest.mark.parametrize("expr", _SIGN_AND_POWER_CASES)
    def test_printed_text_evaluates_bitwise_the_same(self, expr):
        back = parse_expression(serialize_expression(expr))
        for x in _POINTS:
            x = float(x)
            assert _scalar_outcome(back.ev, x) == _scalar_outcome(expr.ev, x)
        want = expr.ev_array(_POINTS)
        assert np.array_equal(back.ev_array(_POINTS).view(np.int64), want.view(np.int64))


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
        except ExpressionError as exc:
            # a drawn tree may fold to a constant beyond the float range;
            # every other refusal is a round-trip failure
            if "constant subexpression overflows" not in str(exc):
                raise
            assume(False)
        rng = random.Random(1234)
        for _ in range(100):
            t = rng.uniform(-2.0, 2.0)
            try:
                expected = evaluate(expr, t)
            except OverflowError:
                continue
            assert evaluate(back, t) == expected


# the compiled forms against the evaluation order the tree fixes

def _reference(node, x, lib):
    """``node`` at ``x``, walked with ``lib`` (``math`` or ``numpy``)."""
    if isinstance(node, Const):
        return node.value if lib is math else np.full_like(x, node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_reference(node.child, x, lib)
    if isinstance(node, (Sum, Prod)):
        acc = _reference(node.children[0], x, lib)
        for c in node.children[1:]:
            value = _reference(c, x, lib)
            acc = acc + value if isinstance(node, Sum) else acc * value
        return acc
    if isinstance(node, Pow):
        return _reference(node.base, x, lib) ** node.exponent
    return getattr(lib, type(node).__name__.lower())(_reference(node.child, x, lib))


_POINTS = np.concatenate([np.linspace(-2.0, 2.0, 33), [0.0, -0.0, 1e-300, -7.5]])


# sums and products of three or more terms, where the fold order shows
_wide = st.lists(_trees, min_size=3, max_size=5).map(tuple)
_compiled_cases = st.one_of(_trees, _wide.map(Sum), _wide.map(Prod))


def _scalar_outcome(fn, x):
    try:
        return struct.pack("<d", fn(x))  # bitwise: signed zeros and NaNs too
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestCompiledForms:
    @settings(max_examples=200, deadline=None)
    @given(_compiled_cases)
    @example(Sum((Const(0.1), Const(0.2), Var("t"))))
    @example(Pow(Const(-0.0), 0))
    @example(Sum((Neg(Const(0.0)), Prod((Const(-0.0), Var("t"))))))
    @example(Exp(Exp(Exp(Exp(Var("t"))))))
    def test_scalar_form_matches_math_walk(self, expr):
        for x in _POINTS:
            x = float(x)
            assert _scalar_outcome(expr.ev, x) == _scalar_outcome(
                lambda v: _reference(expr, v, math), x
            )

    @settings(max_examples=200, deadline=None)
    @given(_compiled_cases)
    @example(Sum((Var("t"), Const(0.1), Const(0.2))))
    @example(Sum((Neg(Const(0.0)), Prod((Const(-0.0), Var("t"))))))
    @example(Prod((Exp(Exp(Exp(Var("t")))), Const(0.0))))
    @example(Pow(Sum((Const(1.5), Const(2.0))), 3))
    def test_array_form_matches_numpy_walk(self, expr):
        try:
            folded = fold_constants(expr)
        except (ExpressionError, OverflowError, ValueError):
            assume(False)
        with np.errstate(all="ignore"):
            got = folded.ev_array(_POINTS)
            want = _reference(folded, _POINTS, np)
        assert isinstance(got, np.ndarray) and got.shape == _POINTS.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    def test_compiled_form_is_cached_on_the_node(self):
        expr = parse_expression("t^2 + 1")
        assert expr.ev is expr.ev and expr.ev_array is expr.ev_array

    @pytest.mark.parametrize("expr", [parse_expression("t^2 + sin(t)"), Exp(Const(2.0))])
    def test_both_evaluators_share_one_compile(self, monkeypatch, expr):
        compiled = []
        original = expressions_module._compile

        def spy(*args):
            compiled.append(args[0])
            return original(*args)

        monkeypatch.setattr(expressions_module, "_compile", spy)
        expr.ev(0.5)
        expr.ev_array(np.array([0.5, 1.5]))
        assert compiled == [expr]


# variable-free trees, with constants over the whole float range
_constant_trees = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False).map(Const),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda cs: Sum(tuple(cs))),
        st.lists(children, min_size=2, max_size=4).map(lambda cs: Prod(tuple(cs))),
        children.map(Neg),
        children.map(Sin),
        children.map(Exp),
        st.tuples(children, st.integers(0, 3)).map(lambda be: Pow(*be)),
    ),
    max_leaves=10,
)


def _compiled_fold(node):
    """Bottom-up fold that evaluates every node by its compiled form."""
    if isinstance(node, Const):
        return node
    if isinstance(node, (Sum, Prod)):
        node = type(node)(tuple(_compiled_fold(c) for c in node.children))
    elif isinstance(node, Pow):
        node = Pow(_compiled_fold(node.base), node.exponent)
    else:
        node = type(node)(_compiled_fold(node.child))
    try:
        return Const(node.ev(0.0))
    except OverflowError:
        raise ExpressionError("constant subexpression overflows") from None


def _fold_outcome(fold, node):
    try:
        return struct.pack("<d", fold(node).value)  # bitwise: signed zeros too
    except ExpressionError:
        return ExpressionError


class TestDirectConstantFold:
    @settings(max_examples=200, deadline=None)
    @given(_constant_trees)
    @example(Sum((Const(0.1), Const(0.2), Const(0.3))))
    @example(Prod((Const(1e200), Const(1e200), Const(0.0))))  # inf * 0 is nan
    @example(Sum((Const(-0.0), Const(-0.0))))
    @example(Prod((Const(2.0), Const(math.pi))))
    def test_direct_fold_is_bitwise_the_compiled_fold(self, node):
        assert _fold_outcome(fold_constants, node) == _fold_outcome(_compiled_fold, node)

    @pytest.mark.parametrize("text", ["b1*sin(2*pi*t)", "sin(t/(2*pi))", "(0.5+0.25)*t - 2*pi"])
    def test_parsing_compiles_nothing(self, monkeypatch, text):
        compiled = []
        monkeypatch.setattr(expressions_module, "_compile", lambda *args: compiled.append(args))
        parse_expression(text, ("t",), {"b1": 0.3})
        assert compiled == []


class TestDeepNesting:
    def test_long_negation_chain_evaluates(self):
        expr = parse_expression("-" * 600 + "t")
        assert evaluate(expr, 0.5) == 0.5
        assert list(expr.ev_array(np.array([0.5, -1.0]))) == [0.5, -1.0]

    def test_nested_sin_evaluates(self):
        expr = parse_expression("sin(" * 190 + "t" + ")" * 190)
        want = 0.7
        for _ in range(190):
            want = math.sin(want)
        assert evaluate(expr, 0.7) == want
        assert expr.ev_array(np.array([0.7]))[0] == pytest.approx(want, rel=1e-14)

    def test_too_deep_to_parse_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_expression("sin(" * 1000 + "t" + ")" * 1000)

    def test_too_deep_to_print_is_an_expression_error(self):
        expr = Var("t")
        for _ in range(5000):
            expr = Neg(expr)
        with pytest.raises(ExpressionError, match="nested too deeply"):
            serialize_expression(expr)

    def test_too_deep_to_compile_is_an_expression_error(self):
        expr = Var("t")
        for _ in range(5000):
            expr = Neg(expr)
        with pytest.raises(ExpressionError, match="nested too deeply"):
            expr.ev(1.0)
        with pytest.raises(ExpressionError, match="nested too deeply"):
            expr.ev_array(np.ones(2))


# a parameter in a dividend, a divisor, a ^( ... ) exponent, a function
# argument and next to t
_BOUND_TEXTS = [
    "q/3 + t",
    "(q*t - 1)/7",
    "t/q",
    "(t + 1)/(2*q)",
    "1/(q - q)",
    "t^(q)",
    "(t - q)^(q + 1)",
    "sin(q) + cos(q*t)",
    "exp(q)",
    "exp(q*t)*q",
    "q*t + t*q - q",
    "-q^2*t/(1 + q)",
]


def _parse_outcome(text, bindings, shift):
    """Tree, or error type, message and position; a position is moved on
    by ``shift`` for each ``q`` before it."""
    try:
        return repr(parse_expression(text, ("t",), bindings))  # repr is bitwise for floats
    except ExpressionError as exc:
        message = str(exc).split(" (at position")[0]
        if exc.position is None:
            return ExpressionError, message, None
        return ExpressionError, message, exc.position + shift * text[: exc.position].count("q")


class TestBindingIsALiteral:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_BOUND_TEXTS),
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-3, 5).map(float),
        ),
    )
    @example("1/(q-q)", 1.0)
    @example("t^(q)", 0.5)
    @example("exp(q)", 1000.0)
    def test_a_bound_value_parses_as_its_literal(self, text, value):
        literal = f"({value!r})"
        written = text.replace("q", literal)
        assert _parse_outcome(text, {"q": value}, len(literal) - 1) == _parse_outcome(
            written, {}, 0
        )

    def test_a_text_error_comes_before_a_value_error(self):
        with pytest.raises(ExpressionError, match="unexpected token"):
            parse_expression("1/0 + )")

    def test_an_exponent_beyond_the_float_range_is_refused(self):
        with pytest.raises(ExpressionError, match="nonnegative integer"):
            parse_expression("t^1e999")


_SPLIT_BINDINGS = {"q0": 0.6, "b1": 0.3}


class TestAffineSplit:
    @pytest.mark.parametrize(
        "text", ["-q0", "(q0 + 1)*t/3", "b1*q0*sin(t)", "q0/2", "-q0 + b1*sin(2*pi*t)"]
    )
    @pytest.mark.parametrize("v", [0.3, -1.7, 12.5, 0.0])
    def test_the_parts_give_the_bound_text(self, text, v):
        b0, b1 = affine_split(text, ("t",), _SPLIT_BINDINGS, "q0")
        ts = np.linspace(-3.0, 3.0, 13)
        bound = parse_expression(text, ("t",), {**_SPLIT_BINDINGS, "q0": v}).ev_array(ts)
        base, slope = b0.ev_array(ts), b1.ev_array(ts)
        ulp = np.finfo(float).eps * (np.abs(base) + abs(v) * np.abs(slope))
        assert np.all(np.abs(base + v * slope - bound) <= 4 * ulp)

    @pytest.mark.parametrize(
        "text", ["q0*q0", "q0^2", "sin(q0*t)", "1/q0", "2^(q0)", "exp(q0)*t", "t^(q0)"]
    )
    def test_a_text_that_is_not_affine_gives_none(self, text):
        assert affine_split(text, ("t",), _SPLIT_BINDINGS, "q0") is None

    def test_a_text_that_does_not_read_the_name_gives_none(self):
        assert affine_split("b1*sin(t)", ("t",), _SPLIT_BINDINGS, "q0") is None

    def test_the_coefficient_is_bound_to_the_other_parameters(self):
        b0, b1 = affine_split("b1*q0*t + 2", ("t",), _SPLIT_BINDINGS, "q0")
        assert (b0.ev(2.0), b1.ev(2.0)) == (2.0, 0.3 * 1.0 * 2.0)
