"""The quadratic Milnor number via the Scheja-Storch bilinear form.

Given a polynomial f over Q with f(0) = 0 and isolated critical points, the
Scheja-Storch form is a symmetric bilinear form on the local Jacobian ring
of f at the origin, written as a Gram matrix over a standard-monomial basis;
its class in GW(Q) is what this module computes, and its rank is the Milnor
number.  Q[x]/J is the product of its local factors, and its form is the sum
of theirs (Kass and Wickelgren, arXiv:1608.05669).  The factor at the origin
is all of Q[x]/J when every variable is nilpotent, as for weighted-homogeneous
f, and Q[x]/(J + m^N) otherwise, m the ideal of the origin.  So x^3 - x gives
0, and x^2 - y^2 + y^3 gives <-1> without its critical point (0, 2/3).

For f quasi-homogeneous with declared weights, or homogeneous, Q[x]/J is
graded with a one-dimensional top piece A_s, s the socle degree, which the
Hessian det(d^2 f) spans.  The linear form phi that vanishes below degree s
and has phi(Hess) = mu is then the Scheja-Storch functional, and the Gram
matrix is the inverse of the matrix of phi(b_i * b_j) (Scheja and Storch,
1975; Kass and Wickelgren, arXiv:1608.05669).  That matrix pairs the piece
of weighted degree e only with the piece of degree s - e, so it is inverted
pair of pieces by pair of pieces, each block B by one fraction-free
elimination that pivots from its last column to its first.  Every pair off
the middle is hyperbolic.  The middle piece of degree s/2 is not eliminated
again: the pivots of its block's elimination are the block's trailing
principal minors M_t, and by Jacobi's identity the congruence pivots of the
k x k inverse are M_(k-j) / M_(k-j+1).  When a trailing minor vanishes, the
middle block of the Gram matrix is diagonalized instead.  Either way these
are the diagonal representatives printed.

Any other input is a single piece with no unique functional.  Its Gram
matrix is read off the Bezoutian of the partials, reduced in its X-block
and Y-block separately, and diagonalized whole.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import add, index

from . import poly as P
from .errors import (
    InadmissibleWeightsError,
    InputDomainError,
    NotIsolatedError,
)
from .gw import GWElement, RATIONALS, diagonalize


def _integer(v, what: str) -> int:
    """v as an int; an InputDomainError when ``operator.index`` refuses it."""
    try:
        return index(v)
    except TypeError:
        raise InputDomainError(f"{what} must be an integer, not {v!r}") from None


class SingularityInput:
    """A polynomial singularity at the origin, with optional weight data.

    ``weights`` of None means the input is treated as unweighted; when
    weights are supplied the polynomial must be quasi-homogeneous for them,
    and ``degree`` (inferred if omitted) is the common weighted degree.
    For unweighted homogeneous f, ``degree`` is the total degree, and a
    declared degree must equal it; a declared degree is at least 1.  The
    forms built from it are those of the singularity at the origin.
    """

    __slots__ = ("f", "var_names", "weights", "degree")

    def __init__(
        self,
        f: P.Polynomial,
        var_names: Sequence[str],
        weights: Sequence[int] | None = None,
        degree: int | None = None,
    ):
        var_names = tuple(P.check_names(var_names))
        if f.nvars != len(var_names) or f.nvars < 1:
            raise InputDomainError("variable names must match the polynomial, one or more")
        if f.constant_term() != 0:
            raise InputDomainError("f must vanish at the origin")
        if degree is not None:
            degree = _integer(degree, "a declared degree")
            if degree < 1:
                raise InputDomainError(f"a declared degree must be at least 1, not {degree}")
        if weights is not None:
            weights = tuple(_integer(w, "a weight") for w in weights)
            if len(weights) != f.nvars or any(w < 1 for w in weights):
                raise InputDomainError("weights must be positive, one per variable")
            degrees = {P.weighted_degree(e, weights) for e in f.terms}
            if degree is None:
                if len(degrees) != 1:
                    raise InputDomainError(
                        "f is not quasi-homogeneous for the given weights"
                    )
                degree = degrees.pop()
            elif degrees - {degree}:
                raise InputDomainError(
                    f"f is not quasi-homogeneous of degree {degree} for the given weights"
                )
        elif not f.is_zero() and P.is_homogeneous(f):
            if degree is None:
                degree = f.total_degree()
            elif degree != f.total_degree():
                raise InputDomainError(
                    f"f is homogeneous of degree {f.total_degree()}, not {degree}"
                )
        self.f = f
        self.var_names = var_names
        self.weights = weights
        self.degree = degree

    def _key(self):
        return (self.f, self.var_names, self.weights, self.degree)

    def __eq__(self, other):
        return isinstance(other, SingularityInput) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def _delta(g: P.Polynomial, j: int, m: int) -> P.Polynomial:
    """Exact divided difference of g in slot j, with Y substituted in slots < j.

    Each term c*prod(v_k^(e_k)) contributes
    c * Y^(e_<j) * X^(e_>j) * sum_{u<e_j} X_j^u Y_j^(e_j-1-u),
    which clears the division by X_j - Y_j termwise.  A monomial
    determines its term of g and its u, so no two contributions meet.
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
            terms[tuple(t)] = c
    return P.Polynomial(2 * m, terms)


def _det(mat: list[list[P.Ints]], nvars: int) -> P.Ints:
    """Determinant of a matrix of integer term dicts in nvars variables, by
    Laplace expansion along the rows with column-subset memoization."""
    n = len(mat)
    memo: dict[int, P.Ints] = {}

    def minor(mask: int, row: int) -> P.Ints:
        if row == n:
            return {(0,) * nvars: 1}
        hit = memo.get(mask)
        if hit is not None:
            return hit
        out: P.Ints = {}
        get = out.get
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not mask & bit:
                continue
            entry = mat[row][col]
            if entry:
                sub = list(minor(mask & ~bit, row + 1).items())
                for ea, ca in entry.items():
                    ca *= sign
                    for eb, cb in sub:
                        e = tuple(map(add, ea, eb))
                        out[e] = get(e, 0) + ca * cb
            sign = -sign
        out = memo[mask] = {e: c for e, c in out.items() if c}
        return out

    return minor((1 << n) - 1, 0)


def bezoutian(gs: Sequence[P.Polynomial]) -> P.Polynomial:
    """det of the divided-difference matrix of gs, in the doubled X,Y ring.

    The entry matrix satisfies g_i(X) - g_i(Y) = sum_j Delta_ij * (X_j - Y_j),
    with the Y-substitution running left to right; the identity is checked
    by expansion, against ``poly.substitute`` of the X and the Y variables,
    before the determinant is taken.  Row i is scaled to integers by the lcm
    L_i of its denominators, and the integer determinant is divided by the
    product of the L_i.
    """
    m = len(gs)
    if any(g.nvars != m for g in gs):
        raise ValueError("need m polynomials in m variables")
    mat = [[_delta(g, j, m) for j in range(m)] for g in gs]
    xs = [P.Polynomial.variable(2 * m, j) for j in range(m)]
    ys = [P.Polynomial.variable(2 * m, m + j) for j in range(m)]
    for row, g in zip(mat, gs):
        acc = sum((d * (x - y) for d, x, y in zip(row, xs, ys)), P.Polynomial.zero(2 * m))
        if acc != P.substitute(g, xs) - P.substitute(g, ys):
            raise AssertionError("divided-difference identity failed; this is a bug")
    rows, scale = [], 1
    for row in mat:
        ints, lcm = P.clear_denominators(row)
        rows.append(ints)
        scale *= lcm
    det = _det(rows, 2 * m)
    return P.Polynomial._of(2 * m, {e: Fraction(c, scale) for e, c in det.items()})


# ---------------------------------------------------------------------------
# the Scheja-Storch form
# ---------------------------------------------------------------------------


class BilinearForm(namedtuple("BilinearForm", "basis gram gw")):
    """Symmetric bilinear form on the Jacobian ring, with its GW class."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)


def ss_form(s: SingularityInput) -> BilinearForm:
    """The Scheja-Storch form on the local Jacobian ring of f at the origin.

    That ring is Q[x]/J when every variable is nilpotent in it (always for
    graded input, which skips the test), and ``_local_factor`` otherwise; a
    smooth point gives the zero form.  A positive-dimensional critical locus
    anywhere (infinite Q[x]/J) raises NotIsolatedError.

    With the grading of ``SingularityInput.grading``, weights w_i and degree
    r, the ring splits into pieces A_e of weighted degree e, and the top
    piece A_s, s = sum_i (r - 2*w_i), is spanned by one standard monomial
    sigma.  The normal form of Hess = det(d^2 f) lies in A_s, and phi(sigma)
    is set so that phi(Hess) = mu, the dimension of the ring.  For each pair
    of pieces (A_e, A_(s-e)) with 2e <= s only the block G of phi(b_i * b_j)
    is formed and inverted exactly, by ``_inverse``; the Gram matrix holds
    G^-T in the (A_e, A_(s-e)) block, G^-1 in its transpose, and zero
    everywhere else, which is the Bezoutian's matrix entry for entry.  Every
    pair with e < s/2 adds dim A_e copies of <1> + <-1>.  The class of the
    middle piece A_(s/2) comes from the trailing principal minors M_t of its
    k x k block G, which ``_inverse`` finds on G's integer multiple when it
    swaps no row: by Jacobi's identity the leading j x j minor of G^-1 is
    M_(k-j) / M_k, so the congruence pivots that ``diagonalize`` would take
    on G^-1 are M_(k-j) / M_(k-j+1), with M_0 = 1.  After a swap some M_t is
    0, and G^-1 goes through ``diagonalize``.  A normal form of Hess that is
    zero or leaves A_s, a singular block, or a class whose rank is not the
    dimension of the ring raises AssertionError.

    An ungraded input is a single piece: the Bezoutian of the partials is
    reduced in the X and Y blocks separately, its symmetry is asserted, and
    the whole Gram matrix is diagonalized; a degenerate one cannot occur
    for an isolated singularity and raises DegenerateFormError if it does.
    """
    gs = P.partials(s.f)
    if all(g.is_zero() for g in gs):
        raise NotIsolatedError("all partial derivatives vanish identically")
    quotient = P.groebner(gs)
    if not quotient.is_finite:
        raise NotIsolatedError(
            "the Jacobian ideal is not zero-dimensional; the singular locus is positive-dimensional"
        )
    weights, r = s.grading()
    if quotient.dimension and not any(weights) and not _is_local(quotient):
        quotient = _local_factor(quotient)
    d = quotient.dimension
    if d == 0:
        return BilinearForm((), (), GWElement.zero(RATIONALS))

    if any(weights):
        gram, gw = _graded_form(gs, quotient, weights, r)
    else:
        gram, gw = _bezoutian_form(gs, quotient)
    if gw.rank != d:
        raise AssertionError("rank of the quadratic Milnor number must equal the local dimension")
    rows = tuple(tuple(row) for row in gram)
    return BilinearForm(quotient.standard_monomials, rows, gw)


def _is_local(quotient: P.QuotientBasis) -> bool:
    """Whether every x_i is nilpotent, x_i^k = 0 for some k <= dim, so that
    the origin is the only point; each search stops at the first zero."""
    n, d = quotient.nvars, quotient.dimension
    return all(
        any(not quotient.nf_vector((0,) * i + (k,) + (0,) * (n - i - 1))[0] for k in range(1, d + 1))
        for i in range(n)
    )


def _local_factor(quotient: P.QuotientBasis) -> P.QuotientBasis:
    """Q[x]/(J + m^N) for the first N whose dimension repeats that of N - 1.

    Then m^N lies in J + m * m^N, so m^N vanishes in the local ring by
    Nakayama's lemma, and the quotient is that ring.  J + m is m or, when
    the origin is not critical, the unit ideal, so N starts at 2.
    """
    n = quotient.nvars
    previous = 0 if any(g.constant_term() for g in quotient.groebner) else 1
    for N in itertools.count(2):
        power = [
            P.Polynomial.monomial(n, tuple(c.count(i) for i in range(n)))
            for c in itertools.combinations_with_replacement(range(n), N)
        ]
        local = P.groebner(list(quotient.groebner) + power)
        if local.dimension == previous:
            return local
        previous = local.dimension


def _hessian(gs: Sequence[P.Ints]) -> P.Ints:
    """det(d g_i / d x_j) for the partials g_i of L*f in n variables, as
    integer term dicts: the Hessian of L*f, which is L^n times that of f."""
    m = len(gs)

    def diff(g: P.Ints, j: int) -> P.Ints:
        return {e[:j] + (e[j] - 1,) + e[j + 1 :]: c * e[j] for e, c in g.items() if e[j]}

    return _det([[diff(g, j) for j in range(m)] for g in gs], m)


def _inverse(
    block: list[list[int]], scale: int | Fraction
) -> tuple[list[list[Fraction]], list[int] | None]:
    """scale times the exact inverse of a square integer matrix B, and B's
    trailing principal minors M_1 ... M_k when no row swap was needed; a
    singular or non-square block raises AssertionError.

    B is reduced in place by fraction-free Gauss-Jordan elimination, pivoting
    from the last column to the first: each step replaces every other row
    by (pivot * row - entry * pivot row) / previous pivot, a division that
    is exact because every entry is then a minor of B beside the identity
    (Bareiss, Math. Comp. 1968).  Once eliminated, a column of B is only the
    pivot times a unit vector, so it holds the same column of the identity's
    image instead, and the last step leaves det * B^-1; the result is
    scale * that / det, one Fraction per entry.  Without a swap the pivot of
    step t is the minor of the last t rows and columns, M_t.  A zero pivot
    swaps in a row not yet used; that permutes the identity's columns, so
    the swaps are undone on the columns at the end, and no minors return.
    """
    k = len(block)
    if any(len(row) != k for row in block):
        raise AssertionError("a pairing block of the Scheja-Storch form is not square; this is a bug")
    rows = [list(row) for row in block]
    swaps, minors, previous = [], [], 1
    for c in reversed(range(k)):
        if not rows[c][c]:
            p = next((i for i in reversed(range(c)) if rows[i][c]), None)
            if p is None:
                raise AssertionError(
                    "a pairing block of the Scheja-Storch form is singular; this is a bug"
                )
            rows[c], rows[p] = rows[p], rows[c]
            swaps.append((c, p))
        pivot = rows[c]
        head = pivot[c]
        for i, row in enumerate(rows):
            if i != c:
                f = row[c]
                rows[i] = [(head * a - f * b) // previous for a, b in zip(row, pivot)]
                rows[i][c] = -f
        pivot[c] = previous
        minors.append(head)
        previous = head
    for c, p in reversed(swaps):
        for row in rows:
            row[c], row[p] = row[p], row[c]
    num, den = scale.numerator, scale.denominator * previous
    inverse = [[Fraction(num * v, den) for v in row] for row in rows]
    return inverse, None if swaps else minors


def _graded_form(gs, quotient, weights, r):
    """Gram matrix and class of a graded Jacobian ring, from the socle
    functional (see ``ss_form``).

    Everything up to the inverse blocks is integer: the partials are scaled
    by the lcm L of their denominators, and the Hessian of L*f is L^n times
    that of f; normal forms are integer vectors over a denominator, and each
    pairing block phi(b_i * b_j) is phi/D times the integer block of the
    products' socle coefficients over their common denominator D.  L^n goes
    into phi, and D/phi is the one scale that ``_inverse`` applies.
    """
    standard = quotient.standard_monomials
    d = len(standard)
    socle = sum(r - 2 * w for w in weights)
    pieces: dict[int, list[int]] = {}
    for i, b in enumerate(standard):
        pieces.setdefault(P.weighted_degree(b, weights), []).append(i)

    ints, scale = P.clear_denominators(gs)
    terms = [(c, quotient.nf_vector(e)) for e, c in _hessian(ints).items()]
    hess_den = math.lcm(*(den for _, (_, den) in terms))
    hess: dict[int, int] = {}
    for c, (vec, den) in terms:
        c *= hess_den // den
        for k, a in vec.items():
            hess[k] = hess.get(k, 0) + c * a
    support = [k for k, v in hess.items() if v]
    if len(pieces.get(socle, ())) != 1 or support != pieces[socle]:
        raise AssertionError(
            "the Hessian's normal form must span the one-dimensional top piece; this is a bug"
        )
    sigma = support[0]
    # NF(Hess f) = hess[sigma] / (hess_den * L^n) * sigma, and phi(Hess f) = d
    phi = Fraction(d * hess_den * scale ** len(gs), hess[sigma])

    gram = [[Fraction(0)] * d for _ in range(d)]
    hyperbolic, middle = 0, GWElement.zero(RATIONALS)
    for e, rows in pieces.items():
        if 2 * e > socle:
            continue
        cols = pieces.get(socle - e, [])
        products = [
            [quotient.nf_vector(P.mono_mul(standard[i], standard[j])) for j in cols]
            for i in rows
        ]
        den = math.lcm(*(v_den for row in products for vec, v_den in row if sigma in vec))
        c = den / phi
        inverse, minors = _inverse(
            [[vec.get(sigma, 0) * (den // v_den) for vec, v_den in row] for row in products], c
        )
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                gram[i][j] = gram[j][i] = inverse[b][a]
        if 2 * e < socle:
            hyperbolic += len(rows)
        # the middle: rows == cols, and the inverse of a symmetric block is symmetric
        elif minors is None:
            middle = diagonalize(inverse)
        else:
            # the congruence pivots of c * B^-1, B the integer block: its
            # leading j x j minor is c^j * M_(k-j) / M_k (Jacobi), so pivot j
            # is c * M_(k-j) / M_(k-j+1)
            m = [1, *minors]
            pivots = [c * Fraction(m[t], m[t + 1]) for t in reversed(range(len(minors)))]
            middle = GWElement(RATIONALS, pos=pivots)
    return gram, GWElement(RATIONALS, pos=(1, -1) * hyperbolic) + middle


def _bezoutian_form(gs, quotient):
    """Gram matrix and class of an ungraded Jacobian ring, read off the
    Bezoutian (see ``ss_form``)."""
    d = quotient.dimension
    m = len(gs)
    gram = [[Fraction(0)] * d for _ in range(d)]
    for exps, c in bezoutian(gs).terms.items():
        vx, dx = quotient.nf_vector(exps[:m])
        if not vx:
            continue
        vy, dy = quotient.nf_vector(exps[m:])
        c = c / (dx * dy)
        for k, a in vx.items():
            ca = c * a
            for l, b in vy.items():
                gram[k][l] += ca * b
    for i in range(d):
        for j in range(i + 1, d):
            if gram[i][j] != gram[j][i]:
                raise AssertionError("Scheja-Storch Gram matrix is not symmetric; this is a bug")
    return gram, diagonalize(gram)


def quadratic_milnor(s: SingularityInput) -> GWElement:
    """The class of ``ss_form``; its rank is the Milnor number at the origin."""
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
