"""Expression trees for coefficient functions of t and impulse rules in k.

The grammar covers every coefficient used by the solver: constants, one
free variable (``t`` for time, ``k`` for the impulse index), ``pi``, the
operators ``+ - * /`` and integer powers ``^``, and the functions ``sin``,
``cos``, ``exp``.  Division is accepted only by a constant divisor so every
parsed expression maps onto the node set below.

Each tree has one compiled form.  :func:`_code` turns the tree into a
single Python expression (``Sum`` and ``Prod`` as left folds, ``Neg`` and
a negative constant as unary minus, ``Pow`` as ``**`` with an integer
literal).  :func:`_compile` makes that expression, with every ``Var`` as
the argument ``x``, the body of a lambda and compiles it once per node;
:attr:`ScalarExpr.ev` binds the code to ``math`` and
:attr:`ScalarExpr.ev_array` to ``numpy``.  :func:`serialize_expression`
prints the same expression, each ``Var`` under its own name, with
``ast.unparse``.  The code is built as an ``ast`` from node fields only,
never from user text, so its nesting is not bounded by the tokenizer.
Trees are immutable and safe to share between threads: the compiled
functions are pure, so two threads that race on a first use compile the
same code and either stored result is correct.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Mapping, Tuple

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

    @cached_property
    def _compiled(self):
        """The code object both evaluators bind, compiled on first use."""
        return _compile(self)

    @cached_property
    def ev(self) -> Callable[[float], float]:
        """The tree as a function of a float, evaluated with ``math``."""
        return eval(self._compiled, _SCALAR_NAMES)

    @cached_property
    def ev_array(self) -> Callable[[np.ndarray], np.ndarray]:
        """The tree as a function of a float array, evaluated with ``numpy``."""
        fn = eval(self._compiled, _ARRAY_NAMES)
        if _contains_var(self):
            return fn
        return lambda xs: np.full_like(xs, fn(xs), dtype=float)


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExpressionError("constants must be finite")


@dataclass(frozen=True)
class Var(ScalarExpr):
    name: str


@dataclass(frozen=True)
class Neg(ScalarExpr):
    child: ScalarExpr


@dataclass(frozen=True)
class Sum(ScalarExpr):
    children: Tuple[ScalarExpr, ...]


@dataclass(frozen=True)
class Prod(ScalarExpr):
    children: Tuple[ScalarExpr, ...]


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ExpressionError("power exponent must be an integer")
        if self.exponent < 0:
            raise ExpressionError("power exponent must be >= 0")


@dataclass(frozen=True)
class Sin(ScalarExpr):
    child: ScalarExpr


@dataclass(frozen=True)
class Cos(ScalarExpr):
    child: ScalarExpr


@dataclass(frozen=True)
class Exp(ScalarExpr):
    child: ScalarExpr


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}
_FUNCTION_NAMES = {node: name for name, node in _FUNCTIONS.items()}
_SCALAR_NAMES = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, "exp": math.exp}
_ARRAY_NAMES = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp}
# set while building: ast.fix_missing_locations would add a third to each compile
_AT = {"lineno": 1, "col_offset": 0}


def _code(node: ScalarExpr, var: str | None = None) -> ast.expr:
    """``node`` as one Python expression, in the tree's evaluation order, with
    every ``Var`` named ``var``, or its own name when ``var`` is None."""
    if isinstance(node, Const):
        if math.copysign(1.0, node.value) < 0:  # -0.0 too
            # unary minus of the magnitude: unparse prints (-2.0) ** 2, not -2.0 ** 2
            return ast.UnaryOp(ast.USub(), ast.Constant(-node.value, **_AT), **_AT)
        return ast.Constant(node.value, **_AT)
    if isinstance(node, Var):
        return ast.Name(var or node.name, ast.Load(), **_AT)
    if isinstance(node, Neg):
        return ast.UnaryOp(ast.USub(), _code(node.child, var), **_AT)
    if isinstance(node, (Sum, Prod)):
        op = ast.Add() if isinstance(node, Sum) else ast.Mult()
        return reduce(
            lambda acc, c: ast.BinOp(acc, op, _code(c, var), **_AT),
            node.children[1:],
            _code(node.children[0], var),
        )
    if isinstance(node, Pow):
        return ast.BinOp(_code(node.base, var), ast.Pow(), ast.Constant(node.exponent, **_AT),
                         **_AT)
    if type(node) in _FUNCTION_NAMES:
        name = ast.Name(_FUNCTION_NAMES[type(node)], ast.Load(), **_AT)
        return ast.Call(name, [_code(node.child, var)], [], **_AT)
    raise ExpressionError(f"unknown node {node!r}")  # pragma: no cover


def _compile(node: ScalarExpr):
    """Code of ``lambda x: <_code(node, "x")>``, to ``eval`` with the names
    ``sin``, ``cos``, ``exp`` bound."""
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x", **_AT)], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    try:
        tree = ast.Expression(ast.Lambda(args, _code(node, "x"), **_AT))
        return compile(tree, "<expression>", "eval")
    except RecursionError:
        raise ExpressionError("expression nested too deeply to compile") from None


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
    """Collapse variable-free subtrees to Const nodes, bottom up.

    Each value is the one the compiled form gives.  A sum or product of
    constants is its left fold and a negation is exact, so neither is
    compiled; a function or power of a constant is.
    """
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, (Sum, Prod)):
        children = tuple(fold_constants(c) for c in node.children)
        if not all(isinstance(c, Const) for c in children):
            return type(node)(children)
        op = operator.add if isinstance(node, Sum) else operator.mul
        return Const(reduce(op, (c.value for c in children)))
    if isinstance(node, Pow):
        folded = Pow(fold_constants(node.base), node.exponent)
        child = folded.base
    else:  # Neg, Sin, Cos, Exp
        child = fold_constants(node.child)
        folded = type(node)(child)
    if not isinstance(child, Const):
        return folded
    if isinstance(node, Neg):
        return Const(-child.value)
    try:
        return Const(folded.ev(0.0))
    except OverflowError:
        raise ExpressionError("constant subexpression overflows") from None


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
                node = self._flat(Sum, node, rhs)
            else:
                return node

    @staticmethod
    def _flat(kind, lhs, rhs):
        """``kind((lhs, rhs))``, or ``lhs`` extended by ``rhs`` when it is a ``kind``."""
        if isinstance(lhs, kind):
            return kind(lhs.children + (rhs,))
        return kind((lhs, rhs))

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = self._flat(Prod, node, self.parse_factor())
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
                    node = self._flat(Prod, node, Const(1.0 / rhs.value))
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
        # power inlined: one frame less per nesting level of the grammar
        base = self.parse_primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.parse_exponent())
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
    try:
        return _Parser(text, variables, bindings).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


# --- serialization ----------------------------------------------------------

def serialize_expression(expr: ScalarExpr) -> str:
    """Text form that re-parses to an evaluation-equivalent tree: the
    compiled expression as ``ast.unparse`` prints it, ``**`` as ``^``."""
    try:
        return ast.unparse(_code(expr)).replace("**", "^")
    except RecursionError:
        raise ExpressionError("expression nested too deeply to print") from None
