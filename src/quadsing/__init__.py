"""Exact quadratic invariants of isolated hypersurface singularities.

The package computes Grothendieck-Witt valued refinements of the classical
numerical invariants attached to an isolated hypersurface singularity: the
quadratic Milnor number realized by the Scheja-Storch bilinear form, the
quadratic conductor identity relating it to compactly supported Euler
characteristics, and the motivic (Tate twist) picture of local monodromy.

Everything is exact arithmetic over Q, odd prime fields, or Q(t); no floats
anywhere.
"""

from __future__ import annotations

from .conductor import (
    ConductorReport,
    conductor_multiplier,
    is_split_form,
    lhs_conductor_quadric,
    lhs_rank_general,
    quadratic_form_gram,
    rhs_conductor,
    split_quadric_singularity,
    transfer_conductor_point,
    verify,
)
from .ekl import (
    BilinearForm,
    SingularityInput,
    bezoutian,
    jacobian_hilbert_series,
    milnor_rank_weighted,
    quadratic_milnor,
    singularity,
    ss_form,
)
from .errors import (
    ContextMismatchError,
    DegenerateFormError,
    InadmissibleWeightsError,
    InfiniteQuotientError,
    InputDomainError,
    InvalidExtensionError,
    InvalidIdealError,
    NonSpecializableError,
    NotIsolatedError,
    ParseError,
    QuadsingError,
    UnknownVariableError,
    UnsupportedInvariantError,
)
from .euler import (
    chi_split_quadric,
    euler_rank,
    primitive_hodge,
)
from .gw import (
    RATIONAL_FUNCTIONS,
    RATIONALS,
    FieldCtx,
    GWElement,
    SquareClass,
    diag_form,
    diagonalize,
    hilbert_symbol,
    is_equal,
    parse_gw,
    specialize,
    trace_form_gram,
    transfer,
)
from .poly import (
    Polynomial,
    QuotientBasis,
    format_poly,
    groebner,
    parse,
    partials,
)
from .tate import (
    TateMap,
    TateObject,
    VariationResult,
    abstract_variation_report,
    compose,
    h_affine,
    hc_affine,
    hom_dim,
    kummer_monodromy,
    quadric_motive,
    variation_quadric,
)

__version__ = "0.1.0"

__all__ = [
    "RATIONALS",
    "RATIONAL_FUNCTIONS",
    "BilinearForm",
    "ConductorReport",
    "ContextMismatchError",
    "DegenerateFormError",
    "FieldCtx",
    "GWElement",
    "InadmissibleWeightsError",
    "InfiniteQuotientError",
    "InputDomainError",
    "InvalidExtensionError",
    "InvalidIdealError",
    "NonSpecializableError",
    "NotIsolatedError",
    "ParseError",
    "Polynomial",
    "QuadsingError",
    "QuotientBasis",
    "SingularityInput",
    "SquareClass",
    "TateMap",
    "TateObject",
    "UnknownVariableError",
    "UnsupportedInvariantError",
    "VariationResult",
    "abstract_variation_report",
    "bezoutian",
    "chi_split_quadric",
    "compose",
    "conductor_multiplier",
    "diag_form",
    "diagonalize",
    "euler_rank",
    "format_poly",
    "groebner",
    "h_affine",
    "hc_affine",
    "hilbert_symbol",
    "hom_dim",
    "is_equal",
    "is_split_form",
    "jacobian_hilbert_series",
    "kummer_monodromy",
    "lhs_conductor_quadric",
    "lhs_rank_general",
    "milnor_rank_weighted",
    "parse",
    "parse_gw",
    "partials",
    "primitive_hodge",
    "quadratic_form_gram",
    "quadratic_milnor",
    "quadric_motive",
    "rhs_conductor",
    "singularity",
    "specialize",
    "split_quadric_singularity",
    "ss_form",
    "trace_form_gram",
    "transfer",
    "transfer_conductor_point",
    "variation_quadric",
    "verify",
]
