"""Exact solver and oscillation analyzer for scalar linear impulsive
differential equations with piecewise constant deviating arguments."""

from .expressions import (
    Const,
    Cos,
    Exp,
    ExpressionError,
    Neg,
    Pow,
    Prod,
    ScalarExpr,
    Sin,
    Sum,
    Var,
    evaluate,
    evaluate_array,
    parse_expression,
    serialize_expression,
)
from .grid import (
    ArgumentGrid,
    ExplicitGrid,
    GridRangeError,
    LaggedUniformGrid,
    UniformGrid,
)
from .kernel import KernelTable, SingularKernel, flow_weighted_integral
from .oracle import oracle_integrate
from .oscillation import (
    CriterionReport,
    GronwallBound,
    OscillationVerdict,
    aw_criterion,
    classify_continuous,
    classify_discrete,
    nonosc_criterion,
)
from .problem import ImpulseDegenerate, ImpulseRule, Problem
from .quadrature import QuadratureError, integrate
from .solver import SkeletonPoint, Trajectory, solve

__version__ = "0.1.0"

__all__ = [
    "ArgumentGrid",
    "Const",
    "Cos",
    "CriterionReport",
    "Exp",
    "ExplicitGrid",
    "ExpressionError",
    "GridRangeError",
    "GronwallBound",
    "ImpulseDegenerate",
    "ImpulseRule",
    "KernelTable",
    "LaggedUniformGrid",
    "Neg",
    "OscillationVerdict",
    "Pow",
    "Problem",
    "Prod",
    "QuadratureError",
    "ScalarExpr",
    "Sin",
    "SingularKernel",
    "SkeletonPoint",
    "Sum",
    "Trajectory",
    "UniformGrid",
    "Var",
    "aw_criterion",
    "classify_continuous",
    "classify_discrete",
    "evaluate",
    "evaluate_array",
    "flow_weighted_integral",
    "integrate",
    "nonosc_criterion",
    "oracle_integrate",
    "parse_expression",
    "serialize_expression",
    "solve",
]
