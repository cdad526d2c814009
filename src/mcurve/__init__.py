"""Exact invariants of projective monomial curves defined by integer sequences.

The curve of m_1 < ... < m_n is parametrized by x_i = s^{m_i} t^{m_n - m_i}
(with x_n = s^{m_n}, x_{n+1} = t^{m_n}); this package computes its vanishing
ideal and the homological / enumerative invariants of the coordinate ring,
with closed forms for arithmetic and generalized-arithmetic sequences checked
against an independent Buchberger oracle.
"""

from .errors import McurveError
from .seq import (
    CurveSequence,
    SequenceClass,
    ArithmeticProfile,
    GeneralizedProfile,
    parse_sequence,
    classify,
    arithmetic_profile,
    generalized_profile,
    min_multiple,
)
from .poly import (
    Binomial,
    TermOrder,
    bidegree,
    yweighted,
    is_member_binomial,
)
from .grobner import (
    GroebnerBasis,
    buchberger,
    toric_ideal,
    initial_ideal,
    is_generated_by_quadrics,
    has_quadratic_gb,
)
from .monideal import (
    MonomialIdeal,
    IrreducibleComponent,
    IrreducibleDecomposition,
    irreducible_decomposition,
    is_nested_type,
    reg_nested_type,
    hf_quotient,
    hs_numerator,
    hs_general_split,
    cm_via_initial,
    cm_type_oracle,
    last_step_check,
)
from .arith_forms import (
    ArithHilbert,
    gb_arithmetic,
    irred_dec_arithmetic,
    reg_arithmetic,
    hilbert_arithmetic,
    cm_type_arithmetic,
    is_gorenstein,
    betti1_arithmetic,
)
from .gen_forms import (
    GenHilbert,
    NotCmWitness,
    not_cm_witness,
    is_cm_generalized,
    is_complete_intersection,
    gb_generalized,
    irred_dec_generalized,
    reg_generalized,
    hilbert_generalized,
    hs_n3,
)
from .koszul import (
    KoszulStatus,
    koszul_generalized,
    koszul_n3,
    koszul_n4,
    necessary_quadric_conditions,
    koszul_status,
)

__all__ = [name for name in dir() if not name.startswith("_")]
