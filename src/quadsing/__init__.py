"""Exact quadratic invariants of isolated hypersurface singularities.

The package computes Grothendieck-Witt valued refinements of the classical
numerical invariants attached to an isolated hypersurface singularity: the
quadratic Milnor number realized by the Scheja-Storch bilinear form, the
quadratic conductor identity relating it to compactly supported Euler
characteristics, and the motivic (Tate twist) picture of local monodromy.

Everything is exact arithmetic over Q, odd prime fields, or Q((t)); no
floats anywhere.

The public names below are exported lazily (PEP 562): ``import quadsing``
loads no submodule, and the first use of a name imports the one module that
defines it (``quadsing.ss_form`` loads ``ekl`` and what ``ekl`` imports).
Each name is then bound here, so it is the very object its module defines.
A CLI call pays only for the modules its subcommand runs.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "conductor": (
            "ConductorReport", "conductor_multiplier", "is_split_form", "lhs_conductor_quadric",
            "lhs_rank_general", "quadratic_form_gram", "rhs_conductor",
            "split_quadric_singularity", "transfer_conductor_point", "verify",
        ),
        "ekl": (
            "BilinearForm", "SingularityInput", "bezoutian", "quadratic_milnor", "singularity",
            "ss_form",
        ),
        "errors": (
            "ContextMismatchError", "DegenerateFormError", "InadmissibleWeightsError",
            "InfiniteQuotientError", "InputDomainError", "InvalidExtensionError",
            "InvalidIdealError", "NotIsolatedError", "ParseError",
            "QuadsingError", "UnknownVariableError", "UnsupportedInvariantError",
        ),
        "euler": (
            "chi_split_quadric", "euler_rank", "jacobian_hilbert_series", "milnor_rank_weighted",
            "primitive_hodge",
        ),
        "gw": (
            "RATIONAL_FUNCTIONS", "RATIONALS", "FieldCtx", "GWElement", "SquareClass",
            "diag_form", "diagonalize", "hilbert_symbol", "is_equal", "parse_gw", "specialize",
            "trace_form_gram", "transfer",
        ),
        "poly": ("Polynomial", "QuotientBasis", "format_poly", "groebner", "parse", "partials"),
        "tate": (
            "TateMap", "TateObject", "VariationResult", "abstract_variation_report", "compose",
            "h_affine", "hc_affine", "hom_dim", "kummer_monodromy", "quadric_motive",
            "variation_quadric",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
