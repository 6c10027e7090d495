"""Exact symbolic calculus for the 1-constrained CKP hierarchy.

Differential polynomial ring with antiderivative atoms, pseudo-differential
operator algebra, integro-differential operators, the hierarchy's odd flows,
and the recursion operator with its mKdV reduction.
"""

from .diffring import (
    DiffPoly,
    antiderivative,
    d_x,
    integrate,
    prolong_t,
    scale_substitute,
    substitute_r_to_q,
    swap_q_r,
)
from .errors import (
    DepthExhausted,
    EngineError,
    GrammarError,
    NegativeOrderApplication,
    NestingTooDeep,
    OddScaleResidue,
    ResidualNonlocal,
)
from .grammar import parse_poly, poly_json, poly_from_json, poly_latex, poly_text
from .hierarchy import (
    CheckReport,
    FlowPair,
    bn,
    check_lax,
    check_residue_coefficients,
    check_skew,
    flow,
    lax_operator,
    lax_power,
)
from .nonlocal_ops import (
    DX,
    DXINV,
    IntDiffOperator,
    expand_to_psido,
    term,
)
from .psido import PsiDO, adjoint, compose, minus_part, plus_part, residue
from .recursion import (
    RecursionMatrix,
    build_matrix,
    clear_caches,
    reduce_matrix,
    scaled_mkdv_operator,
    step,
    step_matrix,
    verify_aratyn_identities,
)

__all__ = [
    "DiffPoly",
    "antiderivative",
    "d_x",
    "integrate",
    "prolong_t",
    "scale_substitute",
    "substitute_r_to_q",
    "swap_q_r",
    "DepthExhausted",
    "EngineError",
    "GrammarError",
    "NegativeOrderApplication",
    "NestingTooDeep",
    "OddScaleResidue",
    "ResidualNonlocal",
    "parse_poly",
    "poly_json",
    "poly_from_json",
    "poly_latex",
    "poly_text",
    "CheckReport",
    "FlowPair",
    "bn",
    "check_lax",
    "check_residue_coefficients",
    "check_skew",
    "clear_caches",
    "flow",
    "lax_operator",
    "lax_power",
    "DX",
    "DXINV",
    "IntDiffOperator",
    "expand_to_psido",
    "term",
    "PsiDO",
    "adjoint",
    "compose",
    "minus_part",
    "plus_part",
    "residue",
    "RecursionMatrix",
    "build_matrix",
    "reduce_matrix",
    "scaled_mkdv_operator",
    "step",
    "step_matrix",
    "verify_aratyn_identities",
]

__version__ = "0.1.0"
