"""The quadratic Milnor number via the Scheja-Storch bilinear form.

Given a polynomial f over Q with f(0) = 0 and isolated critical points, the
Bezoutian of the partial derivatives is reduced modulo the Jacobian ideal J
in its X-block and Y-block separately.  Reading off the coefficients over
the standard-monomial basis of Q[x]/J gives a symmetric Gram matrix, and
its class in GW(Q) is what this module computes.

The form is taken over all of Q[x]/J, so the class is the sum of the local
classes over every critical point of f.  It is the quadratic Milnor number
of the singularity at the origin only when the origin is the only critical
point, as it is for weighted-homogeneous f; for x^3 - x the class has rank
2 while the local class at the origin is 0.  The rank is dim Q[x]/J, which
for weighted-homogeneous f the Jacobian Hilbert series reproduces
independently.

For f quasi-homogeneous with declared weights, or homogeneous, Q[x]/J is
graded and the form pairs the piece of weighted degree e only with the piece
of degree s - e, s the socle degree.  So every pair of pieces off the middle
is hyperbolic, and only the middle piece of degree s/2 is diagonalized; its
diagonal representatives are the ones printed.  Any other input is a single
piece, and its whole Gram matrix is diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import poly as P
from .errors import (
    InadmissibleWeightsError,
    InputDomainError,
    NotIsolatedError,
)
from .gw import GWElement, RATIONALS, congruence_pivots, diagonalize


class SingularityInput:
    """A polynomial singularity at the origin, with optional weight data.

    ``weights`` of None means the input is treated as unweighted; when
    weights are supplied the polynomial must be quasi-homogeneous for them,
    and ``degree`` (inferred if omitted) is the common weighted degree.
    For unweighted homogeneous f, ``degree`` is the total degree, and a
    declared degree must equal it; a declared degree is at least 1.  The
    forms built from it cover every critical point of f, not only the
    origin: they are the class at the origin only when f has no other
    critical point (true for weighted-homogeneous f), and translating
    another critical point to the origin does not remove the rest.
    """

    __slots__ = ("f", "var_names", "weights", "degree")

    def __init__(
        self,
        f: P.Polynomial,
        var_names: Sequence[str],
        weights: Sequence[int] | None = None,
        degree: int | None = None,
    ):
        var_names = tuple(var_names)
        if f.nvars != len(var_names) or f.nvars < 1:
            raise InputDomainError("variable names must match the polynomial, one or more")
        if f.constant_term() != 0:
            raise InputDomainError("f must vanish at the origin")
        if degree is not None and int(degree) < 1:
            raise InputDomainError(f"a declared degree must be at least 1, not {degree}")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != f.nvars or any(w < 1 for w in weights):
                raise InputDomainError("weights must be positive, one per variable")
            degrees = {P.weighted_degree(e, weights) for e in f.terms}
            if degree is None:
                if len(degrees) != 1:
                    raise InputDomainError(
                        "f is not quasi-homogeneous for the given weights"
                    )
                degree = degrees.pop()
            elif degrees - {int(degree)}:
                raise InputDomainError(
                    f"f is not quasi-homogeneous of degree {degree} for the given weights"
                )
        elif not f.is_zero() and P.is_homogeneous(f):
            if degree is None:
                degree = f.total_degree()
            elif int(degree) != f.total_degree():
                raise InputDomainError(
                    f"f is homogeneous of degree {f.total_degree()}, not {degree}"
                )
        self.f = f
        self.var_names = var_names
        self.weights = weights
        self.degree = int(degree) if degree is not None else None

    @property
    def nvars(self) -> int:
        return self.f.nvars

    def to_json_dict(self) -> dict:
        """The "input" object of the milnor and conductor JSON reports."""
        return {
            "f": P.format_poly(self.f, self.var_names),
            "vars": list(self.var_names),
            "weights": list(self.weights) if self.weights is not None else None,
            "degree": self.degree,
        }

    @property
    def n(self) -> int:
        """Relative dimension: variable count minus one."""
        return self.f.nvars - 1

    def is_weighted(self) -> bool:
        return self.weights is not None and any(w != 1 for w in self.weights)

    def grading(self) -> tuple[tuple[int, ...], int]:
        """Weights and a degree for which f is quasi-homogeneous.

        These are the declared weights, or weight 1 for each variable when f
        is homogeneous; both degrees were checked against f.  Any other
        input gets weight 0 and degree 0, the grading with a single piece.
        """
        if self.weights is not None:
            return self.weights, self.degree
        if self.degree is not None and P.is_homogeneous(self.f):
            return (1,) * self.nvars, self.degree
        return (0,) * self.nvars, 0

    def __repr__(self):
        text = P.format_poly(self.f, self.var_names)
        extra = f", weights={self.weights}, degree={self.degree}" if self.weights else ""
        return f"SingularityInput({text!r}{extra})"


def singularity(
    src: str | P.Polynomial,
    var_names: Sequence[str],
    weights: Sequence[int] | None = None,
    degree: int | None = None,
) -> SingularityInput:
    """Convenience constructor accepting an expression string."""
    f = P.parse(src, var_names) if isinstance(src, str) else src
    return SingularityInput(f, var_names, weights, degree)


# ---------------------------------------------------------------------------
# Bezoutian
# ---------------------------------------------------------------------------


def _embed(g: P.Polynomial, m: int, offset: int) -> P.Polynomial:
    """View an m-variable polynomial inside the 2m-variable X,Y ring."""
    terms = {}
    for exps, c in g.terms.items():
        e = [0] * (2 * m)
        for k, v in enumerate(exps):
            e[offset + k] = v
        terms[tuple(e)] = c
    return P.Polynomial(2 * m, terms)


def _delta(g: P.Polynomial, j: int, m: int) -> P.Polynomial:
    """Exact divided difference of g in slot j, with Y substituted in slots < j.

    Each term c*prod(v_k^(e_k)) contributes
    c * Y^(e_<j) * X^(e_>j) * sum_{u<e_j} X_j^u Y_j^(e_j-1-u),
    which clears the division by X_j - Y_j termwise.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, c in g.terms.items():
        e = exps[j]
        if e == 0:
            continue
        base = [0] * (2 * m)
        for k, v in enumerate(exps):
            if k < j:
                base[m + k] = v
            elif k > j:
                base[k] = v
        for u in range(e):
            t = list(base)
            t[j] = u
            t[m + j] = e - 1 - u
            key = tuple(t)
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    return P.Polynomial(2 * m, terms)


def _det(mat: list[list[P.Polynomial]], nvars: int) -> P.Polynomial:
    """Determinant by Laplace expansion with column-subset memoization."""
    n = len(mat)
    if n == 0:
        return P.Polynomial.constant(nvars, 1)
    memo: dict[int, P.Polynomial] = {}

    def minor(mask: int, row: int) -> P.Polynomial:
        if row == n:
            return P.Polynomial.constant(nvars, 1)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        out = P.Polynomial.zero(nvars)
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not mask & bit:
                continue
            entry = mat[row][col]
            if not entry.is_zero():
                sub = minor(mask & ~bit, row + 1)
                out = out + entry * sub * sign
            sign = -sign
        memo[mask] = out
        return out

    return minor((1 << n) - 1, 0)


def bezoutian(gs: Sequence[P.Polynomial]) -> P.Polynomial:
    """det of the divided-difference matrix of gs, in the doubled X,Y ring.

    The entry matrix satisfies g_i(X) - g_i(Y) = sum_j Delta_ij * (X_j - Y_j),
    with the Y-substitution running left to right; the identity is checked
    by expansion before the determinant is taken.
    """
    m = len(gs)
    if any(g.nvars != m for g in gs):
        raise ValueError("need m polynomials in m variables")
    mat = [[_delta(g, j, m) for j in range(m)] for g in gs]
    for i, g in enumerate(gs):
        acc = P.Polynomial.zero(2 * m)
        for j in range(m):
            xj = P.Polynomial.variable(2 * m, j)
            yj = P.Polynomial.variable(2 * m, m + j)
            acc = acc + mat[i][j] * (xj - yj)
        if acc != _embed(g, m, 0) - _embed(g, m, m):
            raise AssertionError("divided-difference identity failed; this is a bug")
    return _det(mat, 2 * m)


# ---------------------------------------------------------------------------
# the Scheja-Storch form
# ---------------------------------------------------------------------------


@dataclass
class BilinearForm:
    """Symmetric bilinear form on the Jacobian ring, with its GW class."""

    basis: tuple[P.Exps, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    gw: GWElement

    @property
    def dimension(self) -> int:
        return len(self.basis)


def ss_form(s: SingularityInput) -> BilinearForm:
    """The Scheja-Storch form on the whole Jacobian ring Q[x]/J.

    Reduces the Bezoutian of the partials modulo the Jacobian ideal in the
    X and Y blocks separately and reads off the Gram matrix over the
    standard-monomial basis.  Its class is the sum over every critical point
    of f, which is the local class at the origin only when the origin is the
    only critical point (x^3 - x gives rank 2; its local class at the origin
    is 0).  A non-isolated singularity (infinite Jacobian quotient) raises
    NotIsolatedError; a degenerate Gram matrix cannot occur for an isolated
    singularity and raises DegenerateFormError if it does.

    The class is assembled piece by piece of the grading of
    ``SingularityInput.grading``.  With weights w_i and degree r the ring
    splits into pieces A_e of weighted degree e, and the form pairs A_e only
    with A_(s-e), where s = sum_i (r - 2*w_i) is the socle degree.  Every
    pair of pieces with e < s/2 is a hyperbolic space, dim A_e copies of
    <1> + <-1>; its block is only checked to be nonsingular, by congruence
    pivots without square classes.  Only the middle piece A_(s/2) is
    diagonalized.  An ungraded input has a single piece of degree 0, which
    is the whole ring.  A nonzero entry that pairs degrees not summing to s,
    like an asymmetric entry, raises AssertionError, and so does a class
    whose rank is not the dimension of the Jacobian ring.
    """
    gs = P.partials(s.f)
    if all(g.is_zero() for g in gs):
        raise NotIsolatedError("all partial derivatives vanish identically")
    quotient = P.groebner(gs)
    if not quotient.is_finite:
        raise NotIsolatedError(
            "the Jacobian ideal is not zero-dimensional; the singular locus is positive-dimensional"
        )
    d = quotient.dimension
    if d == 0:
        return BilinearForm((), (), GWElement.zero(RATIONALS))

    m = s.nvars
    bez = bezoutian(gs)
    gram = [[Fraction(0)] * d for _ in range(d)]
    for exps, c in bez.terms.items():
        alpha, beta = exps[:m], exps[m:]
        vx = quotient.nf_vector(alpha)
        if not vx:
            continue
        vy = quotient.nf_vector(beta)
        for k, a in vx.items():
            ca = c * a
            for l, b in vy.items():
                gram[k][l] += ca * b

    weights, r = s.grading()
    socle = sum(r - 2 * w for w in weights)
    degree = [P.weighted_degree(b, weights) for b in quotient.standard_monomials]
    for i in range(d):
        partner = socle - degree[i]
        for j in range(i, d):
            v = gram[i][j]
            if v != gram[j][i]:
                raise AssertionError("Scheja-Storch Gram matrix is not symmetric; this is a bug")
            if degree[j] != partner and v:
                raise AssertionError("Scheja-Storch Gram matrix is not graded; this is a bug")
    pieces: dict[int, list[int]] = {}
    for i, e in enumerate(degree):
        pieces.setdefault(e, []).append(i)

    def block(indices):
        return [[gram[i][j] for j in indices] for i in indices]

    hyperbolic = 0
    for e, indices in pieces.items():
        if 2 * e < socle:
            congruence_pivots(block(indices + pieces.get(socle - e, [])))
            hyperbolic += len(indices)
    gw = GWElement(RATIONALS, pos=(1, -1) * hyperbolic)
    if socle % 2 == 0 and socle // 2 in pieces:
        gw = gw + diagonalize(block(pieces[socle // 2]))
    if gw.rank != d:
        raise AssertionError("rank of the quadratic Milnor number must equal dim J")
    rows = tuple(tuple(row) for row in gram)
    return BilinearForm(quotient.standard_monomials, rows, gw)


def quadratic_milnor(s: SingularityInput) -> GWElement:
    """The class of the Scheja-Storch form in GW(Q), summed over every
    critical point of f (see ``ss_form``).

    Its rank equals the dimension of the Jacobian ring, which is the
    classical Milnor number when the origin is the only critical point;
    ``ss_form`` asserts the first as a postcondition.
    """
    return ss_form(s).gw


def jacobian_hilbert_series(weights: Sequence[int], r: int) -> tuple[int, ...]:
    """Coefficients of prod_i (1 - t^(r - a_i)) / prod_i (1 - t^(a_i)).

    For f quasi-homogeneous of degree r with an isolated singularity,
    coefficient k is the dimension of the weighted-degree-k piece of the
    Jacobian ring.  Each factor 1 - t^a is divided out exactly by the stride
    recurrence q[k] = p[k] + q[k-a]; a remainder means no isolated
    singularity has these weights and raises InadmissibleWeightsError.
    """
    if any(a < 1 or a > r for a in weights):
        raise InadmissibleWeightsError(f"weights must lie in [1, {r}] for degree {r}")
    series = [1]
    for a in weights:  # multiply by 1 - t^e, top down
        e = r - a
        series += [0] * e
        for k in reversed(range(e, len(series))):
            series[k] -= series[k - e]
    for a in weights:
        for k in range(a, len(series)):
            series[k] += series[k - a]
        if any(series[-a:]):
            raise InadmissibleWeightsError(
                f"weights {tuple(weights)} and degree {r} give no polynomial Hilbert series"
            )
        del series[-a:]
    return tuple(series)


def milnor_rank_weighted(weights: Sequence[int], r: int) -> int:
    """The Milnor number: the sum of ``jacobian_hilbert_series``."""
    return sum(jacobian_hilbert_series(weights, r))
