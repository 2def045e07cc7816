"""Exact noncommutative operator algebra for the square-root Hamiltonian.

Fraction-coefficient monomials over momentum and field symbols with a
16-element spin slot, linear-in-field truncation, canonical rewriting,
the Weyl-ordering identities behind the transformed Hamiltonian, and an
exact polynomial-operator shadow representation for cross-checks.
"""

from .core import Algebra, OpExpr, SPIN_BETA, SPIN_ID, eps, expr_sum, word_field_count
from .identities import (
    CASE_I,
    CASE_II,
    MalformedOperandError,
    binom_half,
    binom_minus_half,
    case_algebra,
    claimed_expansion,
    matchup_report,
    omega_base,
    series_sqrt_expand,
    sym_cross,
    sym_dot_pipi,
    verify_case,
    weyl_order,
    weyl_orders,
)
from .printing import expr_to_text, leading_terms
from .shadow import ShadowRep, shadow_equal, shadow_is_zero

__all__ = [
    "Algebra",
    "OpExpr",
    "SPIN_BETA",
    "SPIN_ID",
    "CASE_I",
    "CASE_II",
    "MalformedOperandError",
    "ShadowRep",
    "binom_half",
    "binom_minus_half",
    "case_algebra",
    "claimed_expansion",
    "eps",
    "expr_sum",
    "expr_to_text",
    "leading_terms",
    "matchup_report",
    "omega_base",
    "series_sqrt_expand",
    "shadow_equal",
    "shadow_is_zero",
    "sym_cross",
    "sym_dot_pipi",
    "verify_case",
    "weyl_order",
    "weyl_orders",
    "word_field_count",
]
