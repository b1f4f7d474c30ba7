"""Expression trees for coefficient functions of t and impulse rules in k.

The grammar covers every coefficient used by the solver: constants, one
free variable (``t`` for time, ``k`` for the impulse index), ``pi``, the
operators ``+ - * /`` and integer powers ``^``, and the functions ``sin``,
``cos``, ``exp``.  Division is accepted only by a constant divisor so every
parsed expression maps onto the node set below.

Each text is read once.  :func:`parse_expression` caches, bounded, the
pre-parse of each (text, variables, binding names), in which a binding is
a parameter leaf and a division or parenthesised exponent waits for the
values.  Each call makes one walk from the leaves, :func:`_fold`: it binds
the values, resolves those operations with the parser's own arithmetic
and folds each variable-free subtree to a constant as it builds it.

Each tree shape is compiled once.  :func:`_shape` splits a tree into its
shape (node types, exponents, variable names) and its constants, and
:func:`_code` turns a shape into one Python expression (``Sum`` and
``Prod`` as left folds, ``Neg`` as unary minus, ``Pow`` as ``**`` with an
integer literal).  :func:`_compile` keeps, in a bounded cache by shape,
the code of ``lambda c0, c1, ...: lambda x: <expression>``, every ``Var``
as ``x`` and the constants as closure cells; :attr:`ScalarExpr.ev` binds
it to ``math`` and :attr:`ScalarExpr.ev_array` to ``numpy``, each with the
node's own constants.  :func:`serialize_expression` prints the expression,
constants as literals and each ``Var`` under its own name, with
``ast.unparse``.  The code is built as an ``ast`` from node fields only,
never from user text, so its nesting is not bounded by the tokenizer.
Trees are immutable and safe to share between threads: the compiled
functions are pure and each cache maps a key to one value, so two threads
that race on a first use store equal results.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, Iterable, Mapping, Tuple

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
        """The code of the tree's shape, its constants and whether it reads
        a variable, which both evaluators bind, found on first use."""
        return _compile(self)

    @cached_property
    def ev(self) -> Callable[[float], float]:
        """The tree as a function of a float, evaluated with ``math``."""
        code, constants, _ = self._compiled
        return eval(code, _SCALAR_NAMES)(*constants)

    @cached_property
    def ev_array(self) -> Callable[[np.ndarray], np.ndarray]:
        """The tree as a function of a float array, evaluated with ``numpy``."""
        code, constants, varying = self._compiled
        fn = eval(code, _ARRAY_NAMES)(*constants)
        if varying:
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


def _shape(node: ScalarExpr, constants: list):
    """``node`` with each ``Const`` as None, its value appended to
    ``constants``, each ``Var`` as its name and every other node as
    ``(type, *children)``, a ``Pow``'s exponent last."""
    if isinstance(node, Const):
        constants.append(node.value)
        return None
    if isinstance(node, Var):
        return node.name
    if isinstance(node, (Sum, Prod)):
        return (type(node), *[_shape(c, constants) for c in node.children])
    if isinstance(node, Pow):
        return (Pow, _shape(node.base, constants), node.exponent)
    return (type(node), _shape(node.child, constants))  # Neg, Sin, Cos, Exp


def _literal(value: float) -> ast.expr:
    if math.copysign(1.0, value) < 0:  # -0.0 too
        # unary minus of the magnitude: unparse prints (-2.0) ** 2, not -2.0 ** 2
        return ast.UnaryOp(ast.USub(), ast.Constant(-value, **_AT), **_AT)
    return ast.Constant(value, **_AT)


def _code(shape, var: str | None, leaves) -> ast.expr:
    """``shape`` as one Python expression, in the tree's evaluation order,
    with every ``Var`` named ``var``, or its own name when ``var`` is None,
    and each constant the next item of ``leaves``."""
    if shape is None:
        return next(leaves)
    if isinstance(shape, str):
        return ast.Name(var or shape, ast.Load(), **_AT)
    kind, first, *rest = shape
    if kind is Neg:
        return ast.UnaryOp(ast.USub(), _code(first, var, leaves), **_AT)
    if kind is Pow:
        return ast.BinOp(_code(first, var, leaves), ast.Pow(), ast.Constant(rest[0], **_AT),
                         **_AT)
    if kind in (Sum, Prod):
        op = ast.Add() if kind is Sum else ast.Mult()
        return reduce(
            lambda acc, c: ast.BinOp(acc, op, _code(c, var, leaves), **_AT),
            rest,
            _code(first, var, leaves),
        )
    name = ast.Name(_FUNCTION_NAMES[kind], ast.Load(), **_AT)
    return ast.Call(name, [_code(first, var, leaves)], [], **_AT)


@lru_cache(maxsize=256)
def _shape_code(shape, n_constants: int):
    """Code of ``lambda c0, c1, ...: lambda x: <_code(shape)>`` and whether
    its body reads ``x``."""
    names = (ast.Name(f"c{i}", ast.Load(), **_AT) for i in itertools.count())
    body = _code(shape, "x", names)
    params = ", ".join(f"c{i}" for i in range(n_constants))
    tree = ast.parse(f"lambda {params}: lambda x: x", mode="eval")
    tree.body.body.body = body
    varying = any(isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(body))
    return compile(tree, "<expression>", "eval"), varying


def _compile(node: ScalarExpr):
    """``(code, constants, varying)``: the code shared by ``node``'s shape,
    to ``eval`` with ``sin``, ``cos``, ``exp`` bound, ``node``'s constants
    for its ``c0, c1, ...``, and whether its body reads ``x``."""
    constants = []
    try:
        code, varying = _shape_code(_shape(node, constants), len(constants))
    except RecursionError:
        raise ExpressionError("expression nested too deeply to compile") from None
    return code, tuple(constants), varying


def evaluate(expr: ScalarExpr, point: float) -> float:
    """Value of ``expr`` at a point.  Pure and deterministic."""
    return expr.ev(float(point))


def evaluate_array(expr: ScalarExpr, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a float array."""
    return expr.ev_array(np.asarray(points, dtype=float))


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


# a bound name, and a division or parenthesised power whose right operand,
# free of variables, waits for the values; _fold resolves both
_Param = namedtuple("_Param", "name")
_Deferred = namedtuple("_Deferred", "op left right pos")


def _flat(kind, lhs, rhs):
    """``kind((lhs, rhs))``, or ``lhs`` extended by ``rhs`` when it is a ``kind``."""
    if isinstance(lhs, kind):
        return kind(lhs.children + (rhs,))
    return kind((lhs, rhs))


def _exponent(value: float, pos: int) -> int:
    if value < 0 or not value.is_integer():
        raise ExpressionError("power exponent must be a nonnegative integer", pos)
    return int(value)


class _Parser:
    """Pre-parse of a text: a tree of the node classes with each name in
    ``names`` a ``_Param`` and each division and parenthesised exponent a
    ``_Deferred``.  It makes the checks the text alone decides, a divisor or
    exponent that builds a ``Var`` among them; :func:`_fold` makes the ones
    that depend on values."""

    def __init__(self, text, variables, names):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.names = names
        self.read = set()
        self.vars = 0  # Vars built so far

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

    def parse(self):
        node = self.parse_sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {val!r}", pos)
        return node

    def parse_sum(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                if val == "-":
                    rhs = Neg(rhs)
                node = _flat(Sum, node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = _flat(Prod, node, self.parse_factor())
            elif kind == "op" and val == "/":
                self.advance()
                seen = self.vars
                rhs = self.parse_factor()
                if self.vars > seen:
                    raise ExpressionError("divisor must be constant", pos)
                node = _Deferred("/", node, rhs, pos)
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
            return self.parse_power(base)
        return base

    def parse_power(self, base):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            seen = self.vars
            node = self.parse_sum()
            self.expect_op(")")
            if self.vars > seen:
                raise ExpressionError("exponent must be a constant integer", pos)
            return _Deferred("^", base, node, pos)
        if kind != "num":
            raise ExpressionError("expected integer exponent", pos)
        self.advance()
        return Pow(base, _exponent(val, pos))

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
                self.vars += 1
                return Var(val)
            if val == "pi":
                return Const(math.pi)
            if val in self.names:
                self.read.add(val)
                return _Param(val)
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        raise ExpressionError(f"unexpected token {val!r}", pos)


@lru_cache(maxsize=256)
def _preparse(text: str, variables: Tuple[str, ...], names: frozenset):
    """The pre-parse of ``text`` and the names of ``names`` it reads."""
    parser = _Parser(text, variables, names)
    return parser.parse(), frozenset(parser.read)


# each one-child node's operation, as its compiled form applies it to a constant
_CONSTANT_FUNCTIONS = {Neg: operator.neg, Sin: math.sin, Cos: math.cos, Exp: math.exp}


def _fold(node, bindings: Mapping[str, float]) -> ScalarExpr:
    """The pre-parsed ``node`` with the values of ``bindings``, in one walk
    from the leaves: each deferred operation is resolved with the arithmetic
    of a parse of the values as literals, and each variable-free subtree is
    folded to a ``Const`` as it is built.  A sum or product of constants is
    its left fold and a function or power of a constant the value its
    compiled form gives."""
    if isinstance(node, _Param):
        return Const(bindings[node.name])
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, (Sum, Prod)):
        kind = type(node)
        first, *rest = (_fold(c, bindings) for c in node.children)
        # a division in front binds to a Prod, which the parse of literals extends;
        # a one-child Sum or Prod binds to its child
        node = reduce(partial(_flat, kind), rest, first)
        if not isinstance(node, kind) or not all(isinstance(c, Const) for c in node.children):
            return node
        op = operator.add if kind is Sum else operator.mul
        return Const(reduce(op, (c.value for c in node.children)))
    if isinstance(node, _Deferred):
        left = _fold(node.left, bindings)
        right = _fold(node.right, bindings).value
        if node.op == "/":
            if right == 0.0:
                raise ExpressionError("division by zero", node.pos)
            if isinstance(left, Const):
                return Const(left.value / right)
            return _flat(Prod, left, Const(1.0 / right))
        kind, child, exponent = Pow, left, _exponent(right, node.pos)
    elif isinstance(node, Pow):
        kind, child, exponent = Pow, _fold(node.base, bindings), node.exponent
    else:  # Neg, Sin, Cos, Exp
        kind, child, exponent = type(node), _fold(node.child, bindings), None
    if not isinstance(child, Const):
        return Pow(child, exponent) if kind is Pow else kind(child)
    try:
        if kind is Pow:
            return Const(child.value**exponent)
        return Const(_CONSTANT_FUNCTIONS[kind](child.value))
    except OverflowError:
        raise ExpressionError("constant subexpression overflows") from None


def fold_constants(node: ScalarExpr) -> ScalarExpr:
    """Collapse variable-free subtrees to Const nodes: the walk that binds
    a pre-parse, with no bindings."""
    return _fold(node, {})


def parse_expression(
    text: str,
    variables: Tuple[str, ...] = ("t",),
    bindings: Mapping[str, float] | None = None,
) -> ScalarExpr:
    """Parse an expression over the given free variables.

    Named parameters in ``bindings`` substitute as constants, so the tree
    contains only the listed variables and equals, bitwise, the parse of
    the text with each value written as a literal.
    """
    bindings = bindings or {}
    try:
        tree, _ = _preparse(text, tuple(variables), frozenset(bindings))
        return _fold(tree, bindings)
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def parameters(
    text: str, variables: Tuple[str, ...] = ("t",), names: Iterable[str] = ()
) -> frozenset:
    """The names among ``names`` that ``text`` reads as bound parameters;
    a name that is one of ``variables`` or ``pi`` is not read."""
    try:
        return _preparse(text, tuple(variables), frozenset(names))[1]
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


class _NotAffine(Exception):
    pass


def _coefficient(node, name: str):
    """The pre-parsed coefficient of the parameter ``name`` in ``node``, None
    when ``node`` does not read it; raises ``_NotAffine`` unless each read is
    a factor of power 1 of a sum term, outside every function, power and
    divisor, and no product has two factors that read it."""
    if isinstance(node, _Param):
        return Const(1.0) if node.name == name else None
    if isinstance(node, (Sum, Prod)):  # a one-child Sum or Prod binds to its child
        parts = [_coefficient(c, name) for c in node.children]
        readers = [p for p in parts if p is not None]
        if not readers:
            return None
        if isinstance(node, Sum):
            return Sum(tuple(readers))
        if len(readers) > 1:
            raise _NotAffine
        return Prod(tuple(c if p is None else p for c, p in zip(node.children, parts)))
    if isinstance(node, Neg):
        inner = _coefficient(node.child, name)
        return None if inner is None else Neg(inner)
    if isinstance(node, _Deferred):
        left = _coefficient(node.left, name)
        if _coefficient(node.right, name) is not None or (node.op == "^" and left is not None):
            raise _NotAffine
        return None if left is None else node._replace(left=left)
    if isinstance(node, (Pow, Sin, Cos, Exp)):
        if _coefficient(node.base if isinstance(node, Pow) else node.child, name) is not None:
            raise _NotAffine
    return None  # Const, Var


def affine_split(
    text: str, variables: Tuple[str, ...], bindings: Mapping[str, float], name: str
) -> Tuple[ScalarExpr, ScalarExpr] | None:
    """``(b0, b1)``, bound to ``bindings`` and folded, with the text equal,
    up to rounding, to ``b0 + v * b1`` for every value v of the parameter
    ``name``, read from the text's pre-parse; None when the text does not
    read ``name`` or reads it other than affinely (under ``sin``, ``cos``,
    ``exp``, a power, in a divisor or exponent, or in two factors of one
    product)."""
    try:
        tree, _ = _preparse(text, tuple(variables), frozenset(bindings))
        coefficient = _coefficient(tree, name)
        if coefficient is None:
            return None
        return _fold(tree, {**bindings, name: 0.0}), _fold(coefficient, bindings)
    except _NotAffine:
        return None
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


# --- serialization ----------------------------------------------------------

def serialize_expression(expr: ScalarExpr) -> str:
    """Text form that re-parses to an evaluation-equivalent tree: the
    compiled expression as ``ast.unparse`` prints it, ``**`` as ``^``."""
    constants = []
    try:
        shape = _shape(expr, constants)
        return ast.unparse(_code(shape, None, map(_literal, constants))).replace("**", "^")
    except RecursionError:
        raise ExpressionError("expression nested too deeply to print") from None
