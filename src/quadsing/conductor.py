"""The quadratic conductor formula, assembled and cross-checked.

The right-hand side is <w> - <1> + (-<w>)^n * mu^q, with w the degree r
for plain homogeneous singularities and w = r * prod(weights) in the
weighted case (the only multiplier exhibited beyond the unweighted one;
flagged as an extrapolation for more than two variables).

The left-hand side is realized two ways:
* at GW level, only for r = 2 with a split quadric pair, through
  chi^c(D) - <-1> * chi^c(C) - <1> where D and C are split quadrics of
  dimensions n and n-1 (this is the K0-identity reading [D] - [A^1][C];
  the alternative reading through the open complement A gives the wrong
  rank and is rejected; every report carries a note to that effect);
* at rank level for any degree, through graded Jacobian-ring Euler
  characteristics, or through the Milnor-Orlik number, the sum of
  ``euler.jacobian_hilbert_series``, for weighted inputs.

Verdicts state exactly the checks that ran; anything unverifiable is
reported as skipped with the reason.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import poly as P
from .ekl import SingularityInput, quadratic_milnor
from .errors import InputDomainError
from .euler import chi_split_quadric, euler_rank, milnor_rank_weighted
from .gw import (
    RATIONALS,
    GWElement,
    diag_form,
    diagonalize,
    is_equal,
    to_json_dict,
    transfer,
)

_CONVENTION_NOTE = (
    "lhs convention: chi^c(D) - <-1>*chi^c(C) - <1>, the K0-identity reading; "
    "the variant subtracting chi^c of the open complement is rejected by the rank oracle"
)


def conductor_multiplier(s: SingularityInput) -> int:
    if s.degree is None:
        raise InputDomainError(
            "the (weighted) degree r is required; pass weights and degree for "
            "non-homogeneous f"
        )
    return s.degree * math.prod(s.weights or ())


def _assemble_rhs(w: int, n: int, mu: GWElement) -> GWElement:
    """<w> - <1> + (-<w>)^n * mu, over the field of mu; as <w>^2 = <1>,
    (-<w>)^n = (-1)^n * <w>^(n mod 2), at no cost however large n is."""
    wcls = diag_form([w], mu.ctx)
    one = diag_form([1], mu.ctx)
    return wcls - one + (-1) ** n * (wcls if n % 2 else one) * mu


def rhs_conductor(s: SingularityInput) -> GWElement:
    """<w> - <1> + (-<w>)^n * quadratic_milnor(s)."""
    return _assemble_rhs(conductor_multiplier(s), s.n, quadratic_milnor(s))


def lhs_conductor_quadric(n: int) -> GWElement:
    """chi^c(Q_n) - <-1>*chi^c(Q_(n-1)) - <1> for split quadrics."""
    if n < 1:
        raise InputDomainError("n must be at least 1")
    return (
        chi_split_quadric(n)
        - diag_form([-1]) * chi_split_quadric(n - 1)
        - diag_form([1])
    )


def lhs_rank_general(r: int, n: int) -> int:
    """Rank of the conductor LHS for a degree-r hypersurface singularity."""
    if r < 2:
        raise InputDomainError("degree must be at least 2")
    if n < 1:
        raise InputDomainError("n must be at least 1")
    return euler_rank(r, n + 1) - euler_rank(r, n) - 1


# ---------------------------------------------------------------------------
# split quadrics over Q
# ---------------------------------------------------------------------------


def quadratic_form_gram(f: P.Polynomial) -> list[list[Fraction]]:
    """Gram matrix of a quadratic form f = x^T M x: M is half the Hessian of
    f, which is constant."""
    if not P.is_quasi_homogeneous(f, (1,) * f.nvars, 2):
        raise InputDomainError("the polynomial is not a quadratic form")
    return [[g.diff(j).constant_term() / 2 for j in range(f.nvars)] for g in P.partials(f)]


def is_split_form(q: GWElement) -> bool:
    """Maximal Witt index test for a genuine diagonal form over Q."""
    if q.neg:
        raise InputDomainError("splitness applies to genuine forms only")
    m = q.rank // 2
    model = diag_form([1, -1] * m)
    if q.rank % 2:
        # a sign times the squarefree discriminant is already canonical
        model = model + GWElement(RATIONALS, pos=[(-1) ** m * q.discriminant().rep], _raw=True)
    return is_equal(q, model)


def split_quadric_singularity(n: int) -> SingularityInput:
    """The split model sum of (-1)^i x_i^2, i = 0..n.

    The all-plus diagonal quadric is anisotropic over Q, so its projective
    quadric is not split and the split-quadric LHS does not apply to it;
    this alternating model is split in every dimension.
    """
    if n < 0:
        raise InputDomainError("n must be non-negative")
    names = [f"x{i}" for i in range(n + 1)]
    squares = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 2
        squares[tuple(e)] = (-1) ** i
    return SingularityInput(P.Polynomial(n + 1, squares), names)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class ConductorReport(namedtuple("ConductorReport", "input rhs lhs_full lhs_rank verdicts notes")):
    """The two sides of the conductor identity for one input, the verdicts
    of each comparison that ran, and notes on what ran and what was skipped."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "input": self.input.to_json_dict(),
            "rhs": to_json_dict(self.rhs),
            "lhs_full": to_json_dict(self.lhs_full) if self.lhs_full is not None else None,
            "rank": {"lhs": self.lhs_rank, "rhs": self.rhs.rank},
            "verdicts": dict(self.verdicts),
            "notes": list(self.notes),
        }


def verify(s: SingularityInput) -> ConductorReport:
    """Compute the RHS and run every LHS realization that applies.

    GW-level comparison runs for unweighted r = 2 inputs whose quadric
    pair is split; rank-level comparison runs for homogeneous inputs in two
    or more variables (via graded Euler characteristics) and for weighted
    inputs (via the Milnor-Orlik number).  Everything else is skipped with
    a reason.
    Identical inputs yield identical reports.
    """
    mu = quadratic_milnor(s)
    rhs = _assemble_rhs(conductor_multiplier(s), s.n, mu)
    notes = [_CONVENTION_NOTE]
    verdicts: dict = {"gw": "skipped", "rank": "skipped"}
    lhs_full = None
    lhs_rank = None

    if mu.is_zero_form():
        notes.append(
            "f is smooth at the origin (trivial Jacobian ring); the conductor "
            "reduces to <w> - <1> and there is no singular hypersurface to compare against"
        )
        return ConductorReport(s, rhs, None, None, verdicts, notes)

    r = s.degree
    n = s.n
    if s.is_weighted():
        notes.append(
            "weighted input: the GW-level lhs for weighted hypersurfaces is not "
            "implemented; rank checked against the Milnor-Orlik product"
        )
        if s.nvars > 2:
            notes.append(
                "weighted multiplier w = r * product(weights) is extrapolated "
                "beyond two variables"
            )
        expected = (-1) ** n * milnor_rank_weighted(s.weights, r)
        lhs_rank = expected
        verdicts["rank"] = rhs.rank == expected
        return ConductorReport(s, rhs, None, lhs_rank, verdicts, notes)

    if not P.is_homogeneous(s.f):
        notes.append(
            "f is not homogeneous and no weights were given; no lhs realization applies"
        )
        return ConductorReport(s, rhs, None, None, verdicts, notes)

    # r >= 2 and, for r = 2, a nondegenerate form: ss_form raised otherwise
    if n < 1:
        notes.append("rank-level lhs needs degree >= 2 and at least two variables")
        notes.append("gw-level lhs needs at least two variables")
        return ConductorReport(s, rhs, None, None, verdicts, notes)

    lhs_rank = lhs_rank_general(r, n)
    verdicts["rank"] = rhs.rank == lhs_rank

    if r == 2:
        c_form = diagonalize(quadratic_form_gram(s.f))
        d_form = c_form + diag_form([-1])
        if is_split_form(c_form) and is_split_form(d_form):
            lhs_full = lhs_conductor_quadric(n)
            verdicts["gw"] = is_equal(rhs, lhs_full)
        else:
            notes.append(
                "the quadric pair of f is not split over Q; the split-quadric "
                "gw-level lhs does not apply"
            )
    else:
        notes.append(
            "gw-level chi^c is implemented for split quadrics only (degree 2); "
            "degree {} checked at rank level".format(r)
        )

    return ConductorReport(s, rhs, lhs_full, lhs_rank, verdicts, notes)


def transfer_conductor_point(milnor_form_ext: GWElement, r: int, n: int) -> GWElement:
    """Transfer <r> - <1> + (-<r>)^n * mu^q from Q[x]/(g) down to GW(Q).

    The caller supplies the quadratic Milnor form over the residue field,
    which carries g (this module does not compute EKL data over extensions);
    the conductor expression is formed over the extension and pushed down
    along the trace.  The degree r is at least 1 and the dimension n at least 0.
    """
    if milnor_form_ext.ctx.min_poly is None:
        raise InputDomainError("the Milnor form must live over Q[x]/(g)")
    if r < 1:
        raise InputDomainError("degree must be positive")
    if n < 0:
        raise InputDomainError("dimension must be non-negative")
    return transfer(_assemble_rhs(r, n, milnor_form_ext))
