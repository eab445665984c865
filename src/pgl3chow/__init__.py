"""Exact symbolic verification of the computations behind the Chow ring of
the classifying stack of PGL3: Weyl-invariant ring generation, Chern-class
restriction identities, torus-level transfer formulas, mod-3 torsion
relations, and the graded structure of the candidate presented ring."""

from .checks import CheckResult, CheckSpec, Report, list_checks, run_all, run_check
from .poly import (
    INTEGERS,
    CoefficientRing,
    Polynomial,
    RingMap,
    VariableContext,
    context,
    integers_mod,
    parse,
)

__all__ = [
    "CheckResult",
    "CheckSpec",
    "CoefficientRing",
    "INTEGERS",
    "Polynomial",
    "Report",
    "RingMap",
    "VariableContext",
    "context",
    "integers_mod",
    "list_checks",
    "parse",
    "run_all",
    "run_check",
]
