"""Exact-arithmetic toolkit for Bott towers and quasitoric matrices.

Decides topological-equivalence questions through cohomology: twist
numbers and their certified minima, graded ring isomorphism, one-twist
classification, line-bundle triviality predicates, and recognition of
Bott towers among characteristic matrices. All arithmetic is exact
(big integers and fractions) over a selectable coefficient ring.
"""

from .core import (
    BottMatrix,
    BottRing,
    CoeffMode,
    RingElement,
    inverse_pair_coefficient_condition,
    pontrjagin_one_twist,
    total_chern_sum,
    whitney_sum_trivial,
)
from .moves import (
    admissible_permutations,
    conjugate,
    is_admissible,
    normalize_last_twist,
    retwist,
    stage_fibration_trivial,
    trivialize_stage,
)
from .quadratic import (
    line_product_pairs,
    line_square_pairs,
    square_zero_lines,
)
from .analysis import (
    ComplexityReport,
    IsoReport,
    TwistReport,
    find_reducible_stage,
    modular_iso_exists,
    ring_isomorphic,
    twist_number,
)
from .onetwist import (
    EquivalenceWitness,
    OneTwistClass,
    classify,
    diffeo_equivalent,
    integral_trivial,
    pontrjagin_invariant,
    rational_trivial,
)
from .quasitoric import (
    from_bott_matrix,
    is_bott,
    normalize_characteristic,
    recognize,
    to_bott_matrix,
    validate_characteristic,
)

__all__ = [
    "BottMatrix", "BottRing", "CoeffMode", "RingElement",
    "inverse_pair_coefficient_condition", "pontrjagin_one_twist",
    "total_chern_sum", "whitney_sum_trivial",
    "admissible_permutations", "conjugate", "is_admissible", "normalize_last_twist",
    "retwist", "stage_fibration_trivial", "trivialize_stage",
    "line_product_pairs", "line_square_pairs", "square_zero_lines",
    "ComplexityReport", "IsoReport", "TwistReport",
    "find_reducible_stage", "modular_iso_exists", "ring_isomorphic", "twist_number",
    "EquivalenceWitness", "OneTwistClass", "classify", "diffeo_equivalent",
    "integral_trivial", "pontrjagin_invariant", "rational_trivial",
    "from_bott_matrix", "is_bott", "normalize_characteristic", "recognize",
    "to_bott_matrix", "validate_characteristic",
]

__version__ = "0.1.0"
