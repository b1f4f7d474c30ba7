"""Expression trees for coefficient functions of t and impulse rules in k.

The grammar covers every coefficient used by the solver: constants, one
free variable (``t`` for time, ``k`` for the impulse index), ``pi``, the
operators ``+ - * /`` and integer powers ``^``, and the functions ``sin``,
``cos``, ``exp``.  Division is accepted only by a constant divisor so every
parsed expression maps onto the node set below.  Trees are immutable and
safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np


class ExpressionError(ValueError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ScalarExpr:
    """Base class for expression nodes."""

    __slots__ = ()

    def ev(self, x: float) -> float:
        raise NotImplementedError

    def ev_array(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExpressionError("constants must be finite")

    def ev(self, x):
        return self.value

    def ev_array(self, xs):
        return np.full_like(xs, self.value, dtype=float)


@dataclass(frozen=True)
class Var(ScalarExpr):
    name: str

    def ev(self, x):
        return x

    def ev_array(self, xs):
        return np.asarray(xs, dtype=float)


@dataclass(frozen=True)
class Neg(ScalarExpr):
    child: ScalarExpr

    def ev(self, x):
        return -self.child.ev(x)

    def ev_array(self, xs):
        return -self.child.ev_array(xs)


@dataclass(frozen=True)
class Sum(ScalarExpr):
    children: Tuple[ScalarExpr, ...]

    def ev(self, x):
        acc = self.children[0].ev(x)
        for c in self.children[1:]:
            acc += c.ev(x)
        return acc

    def ev_array(self, xs):
        acc = self.children[0].ev_array(xs)
        for c in self.children[1:]:
            acc = acc + c.ev_array(xs)
        return acc


@dataclass(frozen=True)
class Prod(ScalarExpr):
    children: Tuple[ScalarExpr, ...]

    def ev(self, x):
        acc = self.children[0].ev(x)
        for c in self.children[1:]:
            acc *= c.ev(x)
        return acc

    def ev_array(self, xs):
        acc = self.children[0].ev_array(xs)
        for c in self.children[1:]:
            acc = acc * c.ev_array(xs)
        return acc


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ExpressionError("power exponent must be an integer")
        if self.exponent < 0:
            raise ExpressionError("power exponent must be >= 0")

    def ev(self, x):
        return self.base.ev(x) ** self.exponent

    def ev_array(self, xs):
        return self.base.ev_array(xs) ** self.exponent


@dataclass(frozen=True)
class Sin(ScalarExpr):
    child: ScalarExpr

    def ev(self, x):
        return math.sin(self.child.ev(x))

    def ev_array(self, xs):
        return np.sin(self.child.ev_array(xs))


@dataclass(frozen=True)
class Cos(ScalarExpr):
    child: ScalarExpr

    def ev(self, x):
        return math.cos(self.child.ev(x))

    def ev_array(self, xs):
        return np.cos(self.child.ev_array(xs))


@dataclass(frozen=True)
class Exp(ScalarExpr):
    child: ScalarExpr

    def ev(self, x):
        return math.exp(self.child.ev(x))

    def ev_array(self, xs):
        return np.exp(self.child.ev_array(xs))


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


def evaluate(expr: ScalarExpr, point: float) -> float:
    """Value of ``expr`` at a point.  Pure and deterministic."""
    return expr.ev(float(point))


def evaluate_array(expr: ScalarExpr, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a float array."""
    return expr.ev_array(np.asarray(points, dtype=float))


def _contains_var(node: ScalarExpr) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Neg, Sin, Cos, Exp)):
        return _contains_var(node.child)
    if isinstance(node, (Sum, Prod)):
        return any(_contains_var(c) for c in node.children)
    if isinstance(node, Pow):
        return _contains_var(node.base)
    return False


def fold_constants(node: ScalarExpr) -> ScalarExpr:
    """Collapse variable-free subtrees to Const nodes."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        child = fold_constants(node.child)
        folded = Neg(child)
    elif isinstance(node, (Sin, Cos, Exp)):
        child = fold_constants(node.child)
        folded = type(node)(child)
    elif isinstance(node, (Sum, Prod)):
        folded = type(node)(tuple(fold_constants(c) for c in node.children))
    elif isinstance(node, Pow):
        folded = Pow(fold_constants(node.base), node.exponent)
    else:  # pragma: no cover - node set is closed
        raise ExpressionError(f"unknown node {node!r}")
    if not _contains_var(folded):
        try:
            return Const(folded.ev(0.0))
        except OverflowError:
            raise ExpressionError("constant subexpression overflows") from None
    return folded


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, variables, bindings):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = set(variables)
        self.bindings = dict(bindings or {})

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> ScalarExpr:
        node = self.parse_sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {val!r}", pos)
        return fold_constants(node)

    def parse_sum(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                if val == "-":
                    rhs = Neg(rhs)
                node = self._flat_add(node, rhs)
            else:
                return node

    @staticmethod
    def _flat_add(lhs, rhs):
        if isinstance(lhs, Sum):
            return Sum(lhs.children + (rhs,))
        return Sum((lhs, rhs))

    @staticmethod
    def _flat_mul(lhs, rhs):
        if isinstance(lhs, Prod):
            return Prod(lhs.children + (rhs,))
        return Prod((lhs, rhs))

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = self._flat_mul(node, self.parse_factor())
            elif kind == "op" and val == "/":
                self.advance()
                rhs = fold_constants(self.parse_factor())
                if not isinstance(rhs, Const):
                    raise ExpressionError("divisor must be constant", pos)
                if rhs.value == 0.0:
                    raise ExpressionError("division by zero", pos)
                lhs = fold_constants(node)
                if isinstance(lhs, Const):
                    node = Const(lhs.value / rhs.value)
                else:
                    node = self._flat_mul(node, Const(1.0 / rhs.value))
            else:
                return node

    def parse_factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_factor())
        if kind == "op" and val == "+":
            self.advance()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.parse_exponent()
            return Pow(base, exponent)
        return base

    def parse_exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            node = fold_constants(self.parse_sum())
            self.expect_op(")")
            if not isinstance(node, Const):
                raise ExpressionError("exponent must be a constant integer", pos)
            value = node.value
        elif kind == "num":
            self.advance()
            value = val
        else:
            raise ExpressionError("expected integer exponent", pos)
        if value != int(value) or value < 0:
            raise ExpressionError("power exponent must be a nonnegative integer", pos)
        return int(value)

    def parse_primary(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.parse_sum()
                self.expect_op(")")
                return _FUNCTIONS[val](arg)
            if val in self.variables:
                return Var(val)
            if val == "pi":
                return Const(math.pi)
            if val in self.bindings:
                return Const(float(self.bindings[val]))
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        raise ExpressionError(f"unexpected token {val!r}", pos)


def parse_expression(
    text: str,
    variables: Tuple[str, ...] = ("t",),
    bindings: Mapping[str, float] | None = None,
) -> ScalarExpr:
    """Parse an expression over the given free variables.

    Named parameters in ``bindings`` substitute as constants at parse time,
    so the returned tree contains only the listed variables.
    """
    return _Parser(text, variables, bindings).parse()


# --- serialization ----------------------------------------------------------

def _prec(node: ScalarExpr) -> int:
    if isinstance(node, Sum):
        return 1
    if isinstance(node, (Prod, Neg)):
        return 2
    if isinstance(node, Pow):
        return 3
    return 4


def _ser(node: ScalarExpr, parent_prec: int) -> str:
    if isinstance(node, Const):
        if math.copysign(1.0, node.value) < 0:  # -0.0 too
            text = "-" + repr(-node.value)
            return f"({text})" if parent_prec > 2 else text
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        text = "-" + _ser(node.child, 2)
        return f"({text})" if parent_prec > 2 else text
    if isinstance(node, Sum):
        # non-leading children are parenthesized one level tighter so the
        # re-parsed tree keeps the same association (bitwise evaluation)
        parts = [_ser(node.children[0], 1)]
        for c in node.children[1:]:
            if isinstance(c, Neg):
                parts.append("-" + _ser(c.child, 2))
            elif isinstance(c, Const) and math.copysign(1.0, c.value) < 0:
                parts.append("-" + repr(-c.value))
            else:
                parts.append("+" + _ser(c, 2))
        text = "".join(parts)
        return f"({text})" if parent_prec > 1 else text
    if isinstance(node, Prod):
        parts = [_ser(node.children[0], 2)]
        parts.extend(_ser(c, 3) for c in node.children[1:])
        text = "*".join(parts)
        return f"({text})" if parent_prec > 2 else text
    if isinstance(node, Pow):
        return f"{_ser(node.base, 4)}^{node.exponent}"
    if isinstance(node, Sin):
        return f"sin({_ser(node.child, 0)})"
    if isinstance(node, Cos):
        return f"cos({_ser(node.child, 0)})"
    if isinstance(node, Exp):
        return f"exp({_ser(node.child, 0)})"
    raise ExpressionError(f"unknown node {node!r}")  # pragma: no cover


def serialize_expression(expr: ScalarExpr) -> str:
    """Text form that re-parses to an evaluation-equivalent tree."""
    return _ser(expr, 0)
