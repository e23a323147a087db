"""The Scheja-Storch form and the quadratic Milnor number.

Every gram matrix asserted here was cross-checked against an independent
implementation (sympy polynomial division for the Bezout matrix, sympy
groebner for the quotient, Berkowitz determinants) before being frozen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import signal
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from oracles import substitute
from quadsing import ekl, euler, gw
from quadsing import poly as P
from quadsing.errors import (
    DegenerateFormError,
    InadmissibleWeightsError,
    InputDomainError,
    NotIsolatedError,
    ParseError,
    json_rational,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


def _form(*entries):
    return gw.diag_form([Fraction(a) for a in entries])


def _classes(e):
    """Sorted square-class representatives of a genuine (pos-only) form."""
    assert e.neg == ()
    return sorted(e.pos)


def _gram(bf):
    return [list(row) for row in bf.gram]


def _antidiagonal(n, value):
    return [[value if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# bezoutian
# ---------------------------------------------------------------------------


def test_bezoutian_univariate():
    g = P.parse("5*x", ("x",))
    assert ekl.bezoutian([g]) == P.Polynomial.constant(2, 5)
    h = P.parse("3*x^2", ("x",))
    # 3(X^2 - Y^2)/(X - Y) = 3X + 3Y
    b = ekl.bezoutian([h])
    assert b.coefficient((1, 0)) == 3
    assert b.coefficient((0, 1)) == 3


def test_bezoutian_diagonal_system():
    gs = [P.parse("2*x", XY), P.parse("-2*y", XY)]
    assert ekl.bezoutian(gs) == P.Polynomial.constant(4, -4)


def test_bezoutian_divided_difference_identity():
    """The divided differences of a nontrivial system satisfy
    g_i(X) - g_i(Y) = sum_j Delta_ij * (X_j - Y_j) row by row, which
    ``_oracle_bezoutian`` checks, and their determinant is the Bezoutian."""
    gs = [P.parse("2*x*y", XY), P.parse("x^2 + 4*y^3", XY)]
    b = ekl.bezoutian(gs)
    assert b.nvars == 4
    assert b.total_degree() == 3
    assert b == _oracle_bezoutian(gs)


_polynomials = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        P.Polynomial,
        st.just(m),
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * m),
            st.integers(-5, 5).filter(bool),
            min_size=1,
            max_size=6,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(_polynomials)
@example(P.parse("x*y + x", XY))
@example(P.parse("3*x^3*w - 2*y^2*z + z^4 - x*y*z*w", XYZW))
def test_divided_differences_write_each_contribution_once(g):
    """Term c*x^e of g gives e_j terms to Delta_j, at monomials that give
    back the term, so no two meet and none cancels; the Deltas satisfy
    g(X) - g(Y) = sum_j Delta_j * (X_j - Y_j)."""
    m = g.nvars
    xs = [P.Polynomial.variable(2 * m, j) for j in range(m)]
    ys = [P.Polynomial.variable(2 * m, m + j) for j in range(m)]
    ints = {e: int(c) for e, c in g.terms.items()}
    deltas = [ekl._delta(ints, j, m) for j in range(m)]
    for j, delta in enumerate(deltas):
        assert len(delta) == sum(e[j] for e in g.terms)
        assert all(type(c) is int for c in delta.values())
    deltas = [P.Polynomial(2 * m, delta) for delta in deltas]
    expansion = sum((d * (x - y) for d, x, y in zip(deltas, xs, ys)), P.Polynomial.zero(2 * m))
    assert expansion == substitute(g, xs) - substitute(g, ys)


def _oracle_det(mat, nvars):
    """Determinant of a matrix of Fraction polynomials by Laplace expansion
    along the first row, with no memo and no integers."""
    if not mat:
        return P.Polynomial.constant(nvars, 1)
    out = P.Polynomial.zero(nvars)
    for col, entry in enumerate(mat[0]):
        minor = [row[:col] + row[col + 1 :] for row in mat[1:]]
        out = out + entry * _oracle_det(minor, nvars) * (-1) ** col
    return out


def _fraction_delta(g, j, m):
    """The divided difference of ``ekl._delta``, on a Fraction Polynomial."""
    terms = {}
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


def _oracle_bezoutian(gs):
    """The Bezoutian in Fraction Polynomial arithmetic: the divided
    differences are checked against ``oracles.substitute`` of the X and the Y
    variables, and their determinant is ``_oracle_det``."""
    m = len(gs)
    mat = [[_fraction_delta(g, j, m) for j in range(m)] for g in gs]
    xs = [P.Polynomial.variable(2 * m, j) for j in range(m)]
    ys = [P.Polynomial.variable(2 * m, m + j) for j in range(m)]
    for row, g in zip(mat, gs):
        acc = sum((d * (x - y) for d, x, y in zip(row, xs, ys)), P.Polynomial.zero(2 * m))
        assert acc == substitute(g, xs) - substitute(g, ys)
    return _oracle_det(mat, 2 * m)


def _rational_polynomials(m):
    """Polynomials in m variables with rational coefficients of either sign,
    some scaled by an integer that makes them non-primitive."""
    return st.builds(
        lambda terms, k: P.Polynomial(m, {e: k * c for e, c in terms.items()}),
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * m),
            st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([1, -1, 6, -10]),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_rational_polynomials))
@example(P.parse("x^3/2 + 3*y^3/4 - x*y/6", XY))
@example(P.parse("-6*x^4 + 4*x*y^2*z - 10*z^3", XYZ))
def test_hessian_matches_the_fraction_determinant(f):
    """The integer Hessian of the denominator-cleared partials L*g_i is L^n
    times the Fraction determinant of the second partials of f."""
    m = f.nvars
    gs = P.partials(f)
    ints, scale = P.clear_denominators(gs)
    hess = ekl._hessian(ints)
    assert all(type(c) is int and c for c in hess.values())
    expected = _oracle_det([[g.diff(j) for j in range(m)] for g in gs], m) * scale**m
    assert hess == expected.terms


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(_rational_polynomials(m), min_size=m, max_size=m)))
@example([P.parse("2*x*y/3", XY), P.parse("-x^2/2 + 4*y^3", XY)])
@example(P.partials(P.parse("x^3/2 + 3*y^3/4 - x*y/6", XY)))
@example(P.partials(P.parse("3*x^4 + 5*y^5 - 2*z^6 + 7*w^7 + x*y*z*w", XYZW)))
@example(P.partials(P.parse("x^3/2 - y^2*z*w + 3*z^4/4 - w^3*x", XYZW)))
def test_bezoutian_matches_the_fraction_determinant(gs):
    """The Bezoutian, an integer determinant of the denominator-cleared
    divided differences, is the Fraction determinant of the oracle's, with
    Fraction coefficients."""
    b = ekl.bezoutian(gs)
    assert all(type(c) is Fraction and c for c in b.terms.values())
    assert b == _oracle_bezoutian(gs)


# ---------------------------------------------------------------------------
# the frozen gram battery
# ---------------------------------------------------------------------------


def test_node_form():
    bf = ekl.ss_form(ekl.singularity("x^2 - y^2", XY))
    assert bf.basis == ((0, 0),)
    assert _gram(bf) == [[-4]]
    assert _classes(bf.gw) == [-1]


def test_cusp_form():
    bf = ekl.ss_form(ekl.singularity("x^2 - y^3", XY))
    assert bf.basis == ((0, 0), (0, 1))
    assert _gram(bf) == [[0, -6], [-6, 0]]
    assert _classes(bf.gw) == [-3, 3]


def test_d5_form():
    bf = ekl.ss_form(ekl.singularity("x^2*y + y^4", XY))
    assert bf.basis == ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0))
    assert _gram(bf) == [
        [0, 0, 0, 0, -2],
        [0, 0, 0, 8, 0],
        [0, 0, -2, 0, 0],
        [0, 8, 0, 0, 0],
        [-2, 0, 0, 0, 0],
    ]
    assert _classes(bf.gw) == [-2, -1, -1, 1, 1]


def test_a4_form():
    bf = ekl.ss_form(ekl.singularity("x^2 - y^5", XY))
    assert bf.dimension == 4
    assert _gram(bf) == _antidiagonal(4, -10)
    assert _classes(bf.gw) == [-5, -5, 5, 5]


def test_e6_family_forms():
    for src, value in (("x^3 - y^4", -12), ("x^3 + y^4", 12)):
        bf = ekl.ss_form(ekl.singularity(src, XY))
        assert bf.dimension == 6
        assert _gram(bf) == _antidiagonal(6, value)
        assert _classes(bf.gw) == [-6, -6, -6, 6, 6, 6]


def test_fermat_cubic_curve_form():
    """Homogeneous, so graded: the pieces of degree 0 and 2 pair into
    <1> + <-1> and only the middle piece, spanned by x and y, is
    diagonalized."""
    bf = ekl.ss_form(ekl.singularity("x^3 + y^3", XY))
    assert _gram(bf) == _antidiagonal(4, 9)
    assert _classes(bf.gw) == [-2, -1, 1, 2]
    assert gw.is_equal(bf.gw, _form(-2, -2, 2, 2))


def test_fermat_cubic_surface_form():
    """The socle degree 3 is odd, so every piece pairs hyperbolically."""
    bf = ekl.ss_form(ekl.singularity("x^3 + y^3 + z^3", XYZ))
    assert bf.dimension == 8
    assert _classes(bf.gw) == [-1, -1, -1, -1, 1, 1, 1, 1]
    assert gw.is_equal(bf.gw, _form(-6, -6, -6, -6, 6, 6, 6, 6))


def test_nonhomogeneous_input():
    bf = ekl.ss_form(ekl.singularity("x^3 - x*y", XY))
    assert _gram(bf) == [[-1]]
    assert _classes(bf.gw) == [-1]


def test_three_variable_node():
    bf = ekl.ss_form(ekl.singularity("x^2 - y^2 + z^2", XYZ))
    assert _gram(bf) == [[-8]]
    assert _classes(bf.gw) == [-2]


# ---------------------------------------------------------------------------
# quadratic Milnor number
# ---------------------------------------------------------------------------


def test_quadratic_milnor_known_values():
    mu = ekl.quadratic_milnor(ekl.singularity("x^2 - y^2", XY))
    assert gw.is_equal(mu, _form(-1))
    mu = ekl.quadratic_milnor(ekl.singularity("x^2 - y^3", XY))
    assert gw.is_equal(mu, _form(1, -1))


def test_quadratic_milnor_rank_is_dimension():
    for src, names, dim in (
        ("x^2 - y^5", XY, 4),
        ("x^2*y + y^4", XY, 5),
        ("x^3 + y^3 + z^3", XYZ, 8),
    ):
        s = ekl.singularity(src, names)
        assert ekl.quadratic_milnor(s).rank == dim
        assert P.groebner(P.partials(s.f)).dimension == dim


def test_coordinate_invariance():
    """mu^q is untouched by a linear change with determinant one."""
    cases = [
        ("x^2 - y^3", XY, ("x + y", "y")),
        ("x^2 - y^2", XY, ("x", "2*x + y")),
        ("x^3 + y^3 + z^3", XYZ, ("x + z", "y - x", "z")),
    ]
    for src, names, images in cases:
        before = ekl.quadratic_milnor(ekl.singularity(src, names))
        g = substitute(
            P.parse(src, names), [P.parse(im, names) for im in images]
        )
        after = ekl.quadratic_milnor(
            ekl.singularity(P.format_poly(g, names), names)
        )
        assert gw.is_equal(before, after)


def _dense_form(names, degree, coeffs):
    """The homogeneous form of the given degree with one coefficient per
    monomial, in a fixed order."""
    n = len(names)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
    return P.Polynomial(n, dict(zip(monomials, map(Fraction, coeffs))))


def _isolated(f):
    return P.groebner(P.partials(f)).is_finite


@st.composite
def _dense_forms(draw):
    """A dense binary form of degree 3 to 5, or a dense ternary cubic, with an
    isolated singularity at the origin."""
    names, degree = draw(st.sampled_from([(XY, 3), (XY, 4), (XY, 5), (XYZ, 3)]))
    size = math.comb(degree + len(names) - 1, len(names) - 1)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    f = _dense_form(names, degree, coeffs)
    assume(not f.is_zero() and _isolated(f))
    return f, names


def _unimodular(draw, n):
    """A product of elementary integer matrices, so of determinant one."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    return a


@st.composite
def _changed_forms(draw):
    f, names = draw(_dense_forms())
    return f, names, _unimodular(draw, len(names))


@settings(max_examples=25, deadline=None)
@given(_changed_forms())
@example((P.parse("x^3 + y^3", XY), XY, [[1, 1], [0, 1]]))
@example((P.parse("x^3 + y^3 + z^3", XYZ), XYZ, [[1, 0, 1], [-1, 1, 0], [0, 0, 1]]))
def test_coordinate_invariance_on_random_forms(case):
    """mu^q is unchanged by an integer linear change of coordinates of
    determinant one.  The forms stay homogeneous, so both sides are graded."""
    f, names, a = case
    n = len(names)
    images = [P.Polynomial(n, {tuple(int(k == j) for k in range(n)): a[i][j] for j in range(n)})
              for i in range(n)]
    g = substitute(f, images)
    before = ekl.quadratic_milnor(ekl.SingularityInput(f, names))
    after = ekl.quadratic_milnor(ekl.SingularityInput(g, names))
    assert gw.is_equal(before, after)


# graded inputs with their weights; None means homogeneous
_TRIANGULAR_SOURCES = [
    ("x^3 + y^4", XY, (4, 3)),
    ("x^2*y + y^4", XY, (3, 2)),
    ("x^3 + y^5", XY, (5, 3)),
    ("x^4 - 2*y^4 + x*y^3", XY, None),
    ("x^3 + y^3 + z^3", XYZ, None),
    ("x^2*y + y^2*z + z^3", XYZ, None),
]


@st.composite
def _triangular_images(draw):
    """A graded input and its image under x_i -> x_i + c*x_j^k, j > i: an
    automorphism that fixes the origin with Jacobian determinant 1."""
    src, names, weights = draw(st.sampled_from(_TRIANGULAR_SOURCES))
    n = len(names)
    i, j = draw(st.sampled_from([(i, j) for j in range(n) for i in range(j)]))
    k = draw(st.sampled_from([2, 3]))
    c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    images = [P.Polynomial.variable(n, v) for v in range(n)]
    images[i] = images[i] + P.Polynomial.monomial(n, tuple(k * (v == j) for v in range(n)), c)
    return src, names, weights, substitute(P.parse(src, names), images)


@settings(max_examples=36, deadline=None)
@given(_triangular_images())
@example(("x^3 + y^4", XY, (4, 3), P.parse("(x + 2*y^2)^3 + y^4", XY)))
def test_triangular_automorphisms_keep_the_class(case):
    """The image is not quasi-homogeneous, so its class comes from the
    ungraded Bezoutian path; it equals the graded class of the original,
    which shares no code with that path past the normal forms."""
    src, names, weights, g = case
    image = ekl.SingularityInput(g, names)
    assert not any(image.grading()[0])
    graded = ekl.quadratic_milnor(ekl.singularity(src, names, weights))
    assert gw.is_equal(ekl.quadratic_milnor(image), graded)


def test_signature_zero_for_plain_curve_singularities():
    # both frozen curve batteries split into hyperbolic planes
    rng = random.Random(7)
    for _ in range(3):
        k = rng.choice([3, 5, 7])
        mu = ekl.quadratic_milnor(ekl.singularity(f"x^2 - y^{k}", XY))
        assert mu.signature() == 0


_X, _Y, _S = sympy.symbols("x y s")


def _real_local_degree(fx, fy, a, b):
    """The local degree at 0 of the gradient (fx, fy) of a binary form,
    counted over the real solutions of grad f = (a, b), or None when (a, b)
    is not a regular value.  Only sympy is used.

    A solution t*u lies on a line u with b*f_x(u) = a*f_y(u); there
    t^(d-1) * lam(u) = a^2 + b^2 with lam = a*f_x + b*f_y, which has one
    real t when d - 1 is odd and two or none, by the sign of lam(u), when it
    is even.  Each counts the sign of Hess(u), the same for every t, since
    the Hessian is homogeneous of even degree.  The lines are u = (1, s) at
    the real roots s of g(s) = (b*f_x - a*f_y)(1, s), and u = (0, 1) when g
    drops in degree.  A line where lam or Hess vanishes, a common real root
    of g with either, makes (a, b) not regular.
    """
    hess = sympy.expand(fx.diff(_X) * fy.diff(_Y) - fx.diff(_Y) ** 2)
    lam = a * fx + b * fy
    odd = sympy.Poly(fx, _X, _Y).total_degree() % 2
    g = sympy.Poly((b * fx - a * fy).subs({_X: 1, _Y: _S}), _S)
    on_line = sympy.Poly((lam * hess).subs({_X: 1, _Y: _S}), _S)
    if sympy.gcd(g, on_line).count_roots():
        return None
    lines = [{_X: 1, _Y: r} for r in g.real_roots()]
    if not (b * fx - a * fy).subs({_X: 0, _Y: 1}):
        if not (lam * hess).subs({_X: 0, _Y: 1}):
            return None
        lines.append({_X: 0, _Y: 1})
    degree = 0
    for u in lines:
        sign_lam, sign_hess = sympy.sign(lam.subs(u)), sympy.sign(hess.subs(u))
        assert sign_lam in (1, -1) and sign_hess in (1, -1)
        degree += sign_hess * (1 if odd else 1 + sign_lam)
    return int(degree)


@pytest.mark.parametrize(
    "F, value, degree",
    [
        (_X**4 + _Y**4, (3, 1), 1),
        (_X**4 - _Y**4, (3, 1), -1),
        (_X**2 * _Y - _Y**3, (3, 1), -2),
        (_X**2 * _Y + _Y**3, (3, 1), 0),
        # grad = (3x^2, 3y^2) = (0, 5) only where x = 0, on the zero set of Hess = 36xy
        (_X**3 + _Y**3, (0, 5), None),
    ],
)
def test_real_local_degree_oracle(F, value, degree):
    assert _real_local_degree(F.diff(_X), F.diff(_Y), *value) == degree


@st.composite
def _real_binary_forms(draw):
    degree = draw(st.integers(3, 7))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1))
    return _dense_form(XY, degree, coeffs)


@settings(max_examples=60, deadline=None)
@given(_real_binary_forms(), st.data())
def test_signature_is_the_real_local_degree_of_the_gradient(f, data):
    """Over R the signature of the Scheja-Storch form is the local degree of
    grad f at 0 (Eisenbud-Levine, Khimshiashvili), counted by sympy alone
    from the real solutions of grad f = (a, b); a non-regular (a, b) is
    redrawn, and the number of redraws is recorded as a hypothesis event."""
    F = sympy.Add(*(int(c) * _X**i * _Y**j for (i, j), c in f.terms.items()))
    fx, fy = F.diff(_X), F.diff(_Y)
    assume(F != 0 and sympy.gcd(fx, fy).is_number)
    values = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
    redrawn = 0
    while (degree := _real_local_degree(fx, fy, *data.draw(values))) is None:
        redrawn += 1
    event(f"values redrawn: {redrawn}")
    assert ekl.ss_form(ekl.SingularityInput(f, XY)).gw.signature() == degree


@st.composite
def _isolated_binary_forms(draw):
    """A binary form of degree 3 to 5, so mu <= 16, with coefficients in
    [-5, 5] and an isolated singularity at the origin."""
    degree = draw(st.integers(3, 5))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1))
    f = _dense_form(XY, degree, coeffs)
    assume(not f.is_zero() and _isolated(f))
    return f


@settings(max_examples=25, deadline=None)
@given(_isolated_binary_forms(), st.data())
def test_morsification_trace_form_is_the_class(f, data):
    """f + l, l linear, has mu critical points, all away from infinity since
    the partials of f have no common zero there; where A = Q[x, y]/J(f + l)
    is etale, its class is the sum over the points p of
    Tr_k(p)/Q <Hess(p)>, the trace form Tr_A/Q(Hess * b_i * b_j), and by
    conservation it is the class of f (Kass and Wickelgren, Duke Math. J.
    2019).  A non-etale A makes the form degenerate, so l is redrawn, and
    the number of redraws is recorded as a hypothesis event.

    ``ekl._hessian`` of the cleared partials is L^n * Hess f, a square for
    n = 2; ternary input would have to divide L^3 out."""
    x, y = P.Polynomial.variable(2, 0), P.Polynomial.variable(2, 1)
    linear = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
    mu = (f.total_degree() - 1) ** 2
    redrawn = 0
    while True:
        a, b = data.draw(linear)
        partials = P.partials(f + a * x + b * y)
        quotient = P.groebner(partials)
        assert quotient.dimension == mu
        hess = ekl._hessian(P.clear_denominators(partials)[0])
        try:
            morse = gw.diagonalize(gw._trace_gram(quotient, hess))
            break
        except DegenerateFormError:
            redrawn += 1
    event(f"l redrawn: {redrawn}")
    assert gw.is_equal(morse, ekl.ss_form(ekl.SingularityInput(f, XY)).gw)


def _weighted_triples():
    """(weights, degree, monomials) for coprime weights up to 5 and a
    weighted degree whose monomials can make an isolated singularity: a
    power of x or x^i*y, and a power of y or x*y^j, with mu <= 40."""
    out = []
    for a1, a2 in itertools.product(range(1, 6), repeat=2):
        if math.gcd(a1, a2) != 1:
            continue
        for r in range(2, 50):
            monomials = [
                (i, j) for i in range(r // a1 + 1) for j in range(r // a2 + 1)
                if a1 * i + a2 * j == r and i + j >= 2
            ]
            if not any(j <= 1 for _, j in monomials) or not any(i <= 1 for i, _ in monomials):
                continue
            mu = Fraction((r - a1) * (r - a2), a1 * a2)
            if mu.denominator == 1 and 1 <= mu <= 40:
                out.append(((a1, a2), r, monomials))
    return out


@st.composite
def _quasi_homogeneous_binary(draw):
    """f quasi-homogeneous of the drawn weights and degree, with coefficients
    in [-5, 5] and an isolated singularity at the origin."""
    weights, r, monomials = draw(st.sampled_from(_weighted_triples()))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(monomials), max_size=len(monomials)))
    f = P.Polynomial(2, dict(zip(monomials, coeffs)))
    assume(not f.is_zero() and _isolated(f))
    return f, weights, r


def _orbit_degree(F):
    """The solutions of grad F = (1, 0) for a quasi-homogeneous binary F,
    one per orbit of t > 0, counted with the sign of Hess, or None when a
    sign is 0.  Only sympy is used.

    An orbit meets x = 1 or x = -1 once, or is (0, 1) or (0, -1); its points
    are solutions for one t exactly when f_y vanishes on it and f_x > 0.
    Hess has weighted degree 2r - 2a_1 - 2a_2, so its sign is the orbit's."""
    fx, fy = F.diff(_X), F.diff(_Y)
    hess = sympy.expand(fx.diff(_X) * fy.diff(_Y) - fx.diff(_Y) ** 2)
    points = [{_X: s, _Y: root} for s in (1, -1) for root in sympy.Poly(fy.subs(_X, s), _Y).real_roots()]
    points += [{_X: 0, _Y: s} for s in (1, -1) if not fy.subs({_X: 0, _Y: s})]
    degree = 0
    for u in points:
        sign_fx, sign_hess = sympy.sign(fx.subs(u)), sympy.sign(hess.subs(u))
        if sign_fx not in (1, -1) or sign_hess not in (1, -1):
            return None
        if sign_fx > 0:
            degree += sign_hess
    return int(degree)


@settings(max_examples=40, deadline=None)
@given(_quasi_homogeneous_binary())
def test_signature_counts_the_weighted_orbits_of_the_gradient(case):
    """For f quasi-homogeneous of weights (a_1, a_2) and degree r, passed to
    ``ss_form`` as declared weights, the signature is the local degree of
    grad f, counted over the t > 0 orbits t.(x, y) = (t^a_1 x, t^a_2 y) of
    the solutions of grad f = (1, 0); a draw with a sign 0 is skipped, and
    the skip is recorded as a hypothesis event."""
    f, weights, r = case
    F = sympy.Add(*(int(c) * _X**i * _Y**j for (i, j), c in f.terms.items()))
    degree = _orbit_degree(F)
    event(f"skipped, a sign is 0: {degree is None}")
    assume(degree is not None)
    bf = ekl.ss_form(ekl.SingularityInput(f, XY, weights, r))
    assert bf.gw.signature() == degree


_H = gw.diag_form([1, -1])


def _one_variable_class(c, a):
    """mu^q of c*x^a: its Gram matrix is the antidiagonal of size a - 1 with
    entry a*c, so ((a - 1)/2)*H for odd a and ((a - 2)/2)*H + <a*c> for even a."""
    if a % 2:
        return (a - 1) // 2 * _H
    return (a - 2) // 2 * _H + _form(a * c)


_brieskorn_pham = st.lists(
    st.tuples(
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.integers(min_value=2, max_value=40),
    ),
    min_size=2,
    max_size=3,
).filter(lambda terms: math.prod(a - 1 for _, a in terms) <= 250)


@settings(max_examples=30, deadline=None)
@given(_brieskorn_pham)
@example([(1, 25), (1, 25)])
@example([(-3, 2), (5, 4), (2, 6)])
def test_thom_sebastiani_product(terms):
    """mu^q of sum_i c_i*x_i^a_i is the product of the one-variable classes."""
    names = XYZ[: len(terms)]
    src = " + ".join(f"{c}*{x}^{a}" for (c, a), x in zip(terms, names))
    want = gw.GWElement.unit()
    for c, a in terms:
        want = want * _one_variable_class(c, a)
    assert gw.is_equal(ekl.quadratic_milnor(ekl.singularity(src, names)), want)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src, f_names, names", [
    ("x^2 - y^2", XY, ("x",)),
    ("x^2 - y^2", XY, XYZ),
    ("0", (), ()),
])
def test_variable_names_must_match_the_polynomial(src, f_names, names):
    with pytest.raises(InputDomainError, match="variable names must match the polynomial"):
        ekl.SingularityInput(P.parse(src, f_names), names)


@pytest.mark.parametrize("names, message", [
    (("x", "x"), "duplicate variable names"),
    (("x y", "1"), "variable name 'x y' at index 0 is not an identifier"),
    (("x", 2), "variable name 2 at index 1 is not an identifier"),
])
def test_variable_names_are_distinct_identifiers(names, message):
    """A Polynomial handed to SingularityInput meets the parser's name rule,
    with the parser's error."""
    f = P.parse("x^2 + y^3", XY)
    with pytest.raises(ParseError) as direct:
        ekl.SingularityInput(f, names)
    with pytest.raises(ParseError) as parsed:
        P.parse("x^2", names)
    assert str(direct.value) == str(parsed.value) == message


def test_singularity_must_vanish_at_origin():
    with pytest.raises(InputDomainError):
        ekl.singularity("x^2 + 1", XY)


def test_weights_must_be_positive_and_consistent():
    with pytest.raises(InputDomainError):
        ekl.singularity("x^2 - y^3", XY, weights=(0, 2), degree=6)
    with pytest.raises(InputDomainError):
        ekl.singularity("x^2 - y^3", XY, weights=(1, 1), degree=2)


@pytest.mark.parametrize("src, kw", [
    ("x^2 - y^3", {"weights": (3.5, 2)}),
    ("x^2 - y^3", {"weights": (3, 2), "degree": 6.9}),
    ("x^2 - y^3", {"weights": (3, 2), "degree": 6.0}),
    ("x^3 + y^3", {"degree": 3.2}),
    ("x^3 + y^3", {"degree": Fraction(3)}),
])
def test_weights_and_degree_must_be_integers(src, kw):
    with pytest.raises(InputDomainError, match="must be an integer"):
        ekl.singularity(src, XY, **kw)


def test_declared_degree_of_homogeneous_f_is_checked():
    assert ekl.singularity("x^2 - y^2", XY, degree=2).degree == 2
    with pytest.raises(InputDomainError):
        ekl.singularity("x^2 - y^2", XY, degree=3)
    with pytest.raises(InputDomainError):
        ekl.singularity("x^2 - y^2", XY, weights=(1, 1), degree=3)
    # a declared degree of non-homogeneous f is its conductor multiplier
    assert ekl.singularity("x^2 - y^3", XY, degree=6).degree == 6


@pytest.mark.parametrize("degree", [0, -3])
@pytest.mark.parametrize(
    "src, weights", [("x^2 - y^3", None), ("x^2 - y^3", (3, 2)), ("x^2 - y^2", None)]
)
def test_declared_degree_is_at_least_one(src, weights, degree):
    with pytest.raises(InputDomainError, match="at least 1"):
        ekl.singularity(src, XY, weights=weights, degree=degree)


def test_degree_inference():
    assert ekl.singularity("x^2 - y^3", XY, weights=(3, 2)).degree == 6
    assert ekl.singularity("x^2 - y^2", XY).degree == 2
    assert ekl.singularity("x^2 - y^3", XY).degree is None
    assert ekl.singularity("x^2 - y^3", XY, weights=(3, 2)).is_weighted()
    assert not ekl.singularity("x^2 - y^2", XY).is_weighted()


def test_non_isolated_inputs_are_rejected():
    with pytest.raises(NotIsolatedError):
        ekl.ss_form(ekl.singularity("x^2", XY))
    with pytest.raises(NotIsolatedError):
        ekl.ss_form(ekl.singularity("x^2*y^2", XY))


def test_smooth_point_gives_zero_dimensional_ring():
    # x has an invertible differential: the jacobian ideal is the unit ideal
    bf = ekl.ss_form(ekl.singularity("x + y", XY))
    assert bf.dimension == 0
    assert bf.gw.rank == 0


# ---------------------------------------------------------------------------
# the Jacobian Hilbert series and the Milnor-Orlik number
# ---------------------------------------------------------------------------


def test_milnor_rank_weighted_values():
    assert euler.milnor_rank_weighted((3, 2), 6) == 2
    assert euler.milnor_rank_weighted((5, 2), 10) == 4
    assert euler.milnor_rank_weighted((4, 3), 12) == 6
    assert euler.milnor_rank_weighted((1, 1), 2) == 1
    # no weight needs to divide the degree: D5, E7 and x^3*y + y^5
    assert euler.milnor_rank_weighted((3, 2), 8) == 5
    assert euler.milnor_rank_weighted((3, 2), 9) == 7
    assert euler.milnor_rank_weighted((4, 3), 15) == 11


def test_milnor_rank_weighted_rejects_bad_weights():
    # (1 - t^5)(1 - t^4) / ((1 - t^3)(1 - t^2)) is not a polynomial
    with pytest.raises(InadmissibleWeightsError):
        euler.milnor_rank_weighted((3, 2), 7)
    with pytest.raises(InadmissibleWeightsError):
        euler.jacobian_hilbert_series((5, 2), 4)


def test_jacobian_hilbert_series_values():
    assert euler.jacobian_hilbert_series((3, 2), 8) == (1, 0, 1, 1, 1, 0, 1)
    assert euler.jacobian_hilbert_series((1, 1, 1), 3) == (1, 3, 3, 1)
    # a linear term: the Jacobian ring is zero
    assert euler.jacobian_hilbert_series((2, 1), 2) == ()


def _chain_weights(blocks):
    """Rational weights of the chain sum over blocks of exponents (e_1..e_m):
    x_1^e_1*x_2 + ... + x_(m-1)^e_(m-1)*x_m + x_m^e_m, with q_m = 1/e_m and
    q_i = (1 - q_(i+1))/e_i; scaled to integer weights and degree."""
    qs = []
    for exps in blocks:
        block = [Fraction(1, exps[-1])]
        for e in reversed(exps[:-1]):
            block.insert(0, (1 - block[0]) / e)
        qs.extend(block)
    r = math.lcm(*(q.denominator for q in qs))
    return tuple(int(q * r) for q in qs), r


def _chain_source(blocks, coeffs):
    names, terms = iter(XYZ), []
    for exps in blocks:
        vs = [next(names) for _ in exps]
        for i, e in enumerate(exps):
            tail = f"*{vs[i + 1]}" if i + 1 < len(vs) else ""
            terms.append(f"{coeffs[len(terms)]}*{vs[i]}^{e}{tail}")
    return " + ".join(terms), XYZ[: sum(map(len, blocks))]


_chains = st.lists(
    st.lists(st.integers(2, 7), min_size=1, max_size=3), min_size=1, max_size=3
).filter(lambda blocks: sum(map(len, blocks)) <= 3)


@settings(max_examples=40, deadline=None)
@given(_chains, st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3))
@example([[2, 4]], [1, 1, 1])  # D5 = x^2*y + y^4
@example([[3, 3]], [1, 1, 1])  # E7 = y^3*x + x^3 up to renaming
@example([[3, 5]], [1, 1, 1])  # x^3*y + y^5
@example([[4, 3]], [1, 1, 1])  # x^4*y + y^3, i.e. x^3 + x*y^4 up to renaming
@example([[4], [5], [6]], [1, 1, 1])
def test_jacobian_hilbert_series_counts_standard_monomials(blocks, coeffs):
    """Brieskorn-Pham sums and D_k / E7 chains: the series counts the
    standard monomials of the Jacobian ideal by weighted degree, is
    palindromic about half the socle degree, and sums to the dimension of
    the Scheja-Storch form."""
    weights, r = _chain_weights(blocks)
    series = euler.jacobian_hilbert_series(weights, r)
    assume(sum(series) <= 150)
    src, names = _chain_source(blocks, coeffs)
    s = ekl.singularity(src, names, weights=weights, degree=r)
    quotient = P.groebner(P.partials(s.f))
    counts = [0] * len(series)
    for m in quotient.standard_monomials:
        counts[P.weighted_degree(m, weights)] += 1
    assert tuple(counts) == series
    assert len(series) - 1 == sum(r - 2 * a for a in weights)
    assert series == series[::-1]
    assert sum(series) == ekl.ss_form(s).dimension


def test_weighted_rank_matches_groebner_dimension():
    battery = [
        ("x^2 - y^3", (3, 2), 6),
        ("x^2 - y^5", (5, 2), 10),
        ("x^3 - y^4", (4, 3), 12),
    ]
    for src, weights, r in battery:
        s = ekl.singularity(src, XY, weights=weights, degree=r)
        mu = ekl.quadratic_milnor(s)
        assert mu.rank == euler.milnor_rank_weighted(weights, r)


# ---------------------------------------------------------------------------
# the graded class
# ---------------------------------------------------------------------------


@st.composite
def _graded_inputs(draw):
    """A dense form, or a chain sum with its weights declared."""
    if draw(st.booleans()):
        f, names = draw(_dense_forms())
        return ekl.SingularityInput(f, names)
    blocks = draw(_chains)
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3))
    weights, r = _chain_weights(blocks)
    assume(sum(euler.jacobian_hilbert_series(weights, r)) <= 60)
    src, names = _chain_source(blocks, coeffs)
    return ekl.singularity(src, names, weights=weights, degree=r)


@settings(max_examples=40, deadline=None)
@given(_graded_inputs())
@example(ekl.singularity("x^3 + y^3", XY))
@example(ekl.singularity("x^2*y + y^4", XY, weights=(3, 2), degree=8))
@example(ekl.singularity("x^3 + y^4", XY, weights=(4, 3), degree=12))
def test_graded_class_matches_full_diagonalization(s):
    """Hyperbolic off-middle pairs plus the diagonalized middle piece give
    the class of the whole Gram matrix."""
    bf = ekl.ss_form(s)
    assert gw.is_equal(bf.gw, gw.diagonalize(_gram(bf)))


_OCTIC = "2*x^8 + 2*x^7*y + 2*x^6*y^2 - x^5*y^3 - x^4*y^4 + 2*x^3*y^5 - x^2*y^6 - 2*x*y^7 + 2*y^8"
_SEPTIC = "-x^7 - 2*x^6*y - 3*x^5*y^2 + 2*x^4*y^3 + 3*x^3*y^4 + 3*x^2*y^5 - 3*x*y^6 + 2*y^7"
_CUBIC = (
    "4*x^3 + 6*x^2*y - 4*x^2*z - 9*x*y^2 + 8*x*y*z - 7*x*z^2 - 8*y^3 - 8*y^2*z - 3*y*z^2 - 2*z^3"
)


@pytest.mark.parametrize(
    "src, names, sizes",
    [
        (_OCTIC, XY, []),  # socle degree 12: A_6's class is read off its minors
        (_SEPTIC, XY, []),  # socle degree 10: A_5, likewise
        (_CUBIC, XYZ, []),  # socle degree 3 is odd: every piece pairs off
        ("x^25 + y^25", XY, [24]),  # socle degree 46: A_23 is antidiagonal
        ("x^2 - y^3", XY, [2]),  # ungraded: the whole Gram matrix
        ("x^3 + y^3", XY, [2]),  # A_1 is antidiagonal, M_1 = 0
    ],
)
def test_only_the_middle_piece_is_diagonalized(monkeypatch, src, names, sizes):
    """The graded split and the division-free normal forms are what run:
    ``diagonalize`` sees no graded piece unless a trailing minor of the
    middle block vanishes, and then only the middle piece; no normal form
    divides a polynomial once the Groebner basis is known."""
    seen, divisions, basis_known = [], [], []
    real_groebner, real_reduce = P.groebner, P._reduce

    def diagonalize(gram, *args):
        seen.append(len(gram))
        return gw.diagonalize(gram, *args)

    def groebner(gens):
        q = real_groebner(gens)
        basis_known.append(True)
        return q

    def reduce(f, divisors):
        if basis_known:
            divisions.append(f)
        return real_reduce(f, divisors)

    monkeypatch.setattr(ekl, "diagonalize", diagonalize)
    monkeypatch.setattr(P, "groebner", groebner)
    monkeypatch.setattr(P, "_reduce", reduce)
    bf = ekl.ss_form(ekl.singularity(src, names))
    assert seen == sizes
    assert basis_known and not divisions
    assert bf.gw.rank == bf.dimension


def _split(s, bf):
    """The number of basis monomials below half the socle degree, and the
    Gram block of those at half of it."""
    weights, r = s.grading()
    socle = sum(r - 2 * w for w in weights)
    degrees = [2 * P.weighted_degree(b, weights) for b in bf.basis]
    middle = [i for i, e in enumerate(degrees) if e == socle]
    return sum(e < socle for e in degrees), [[bf.gram[i][j] for j in middle] for i in middle]


def _diagonalized_class(s, bf):
    """The class built from the Gram matrix by a second elimination: a
    hyperbolic pair per basis monomial below half the socle degree, plus
    ``gw.diagonalize`` of the middle block."""
    hyperbolic, middle = _split(s, bf)
    cls = gw.GWElement(gw.RATIONALS, pos=(1, -1) * hyperbolic)
    return cls + gw.diagonalize(middle) if middle else cls


@settings(max_examples=40, deadline=None)
@given(_graded_inputs())
@example(ekl.singularity(_OCTIC, XY))
@example(ekl.singularity(_SEPTIC, XY))
@example(ekl.singularity("x^3 + y^3", XY))
@example(ekl.singularity("x^25 + y^25", XY))
@example(ekl.singularity("x^2*y + y^4", XY, weights=(3, 2), degree=8))
@example(ekl.singularity("x^3 + y^4", XY, weights=(4, 3), degree=12))
def test_middle_class_from_minors_keeps_the_representatives(s):
    """The class has the very representatives of the construction that
    diagonalizes the middle Gram block, not only an equal class.  And the values the
    middle piece hands to ``GWElement`` are, in order, the pivots
    ``gw.congruence_pivots`` takes on its Gram block, unless a trailing
    minor vanishes and that block goes to ``diagonalize``: the class alone
    cannot show this, since a and 1/a share a square class and a class
    sorts its entries."""
    built, diagonalized = [], []

    class Recording(gw.GWElement):
        __slots__ = ()

        def __init__(self, ctx, pos=(), neg=(), **kwargs):
            built.append(list(pos))
            super().__init__(ctx, pos, neg, **kwargs)

    def diagonalize(gram, *args):
        diagonalized.append(gram)
        return gw.diagonalize(gram, *args)

    with mock.patch.object(ekl, "GWElement", Recording), mock.patch.object(
        ekl, "diagonalize", diagonalize
    ):
        bf = ekl.ss_form(s)
    expected = _diagonalized_class(s, bf)
    assert (bf.gw.pos, bf.gw.neg) == (expected.pos, expected.neg)
    _, middle = _split(s, bf)
    if diagonalized:
        assert diagonalized == [middle]
    elif middle:
        assert gw.congruence_pivots(middle) in built


# ---------------------------------------------------------------------------
# the socle functional against the Bezoutian
# ---------------------------------------------------------------------------


def _nf(quotient, exps):
    """The normal form of a monomial as basis index -> Fraction."""
    vec, den = quotient.nf_vector(exps)
    return {k: Fraction(v, den) for k, v in vec.items()}


def _oracle_gram(gs, quotient):
    """The oracle Bezoutian's coefficients times the normal forms of its X
    and Y blocks, summed in Fractions."""
    m, d = len(gs), quotient.dimension
    gram = [[Fraction(0)] * d for _ in range(d)]
    for exps, c in _oracle_bezoutian(gs).terms.items():
        for k, a in _nf(quotient, exps[:m]).items():
            for l, b in _nf(quotient, exps[m:]).items():
                gram[k][l] += c * a * b
    return gram


def _as_json(rows):
    return json.dumps([[json_rational(v) for v in row] for row in rows])


def _bezoutian_oracle(s):
    """The graded form read off the Bezoutian: its coefficients reduced
    modulo J in the X and Y blocks give the Gram matrix, every piece below
    the middle adds a hyperbolic plane per basis element, and the middle
    block is diagonalized."""
    gs = P.partials(s.f)
    quotient = P.groebner(gs)
    gram = _oracle_gram(gs, quotient)
    d = quotient.dimension
    weights, r = s.grading()
    socle = sum(r - 2 * w for w in weights)
    degree = [P.weighted_degree(b, weights) for b in quotient.standard_monomials]
    for i, j in itertools.product(range(d), repeat=2):
        assert gram[i][j] == gram[j][i]
        assert degree[i] + degree[j] == socle or gram[i][j] == 0
    middle = [i for i, e in enumerate(degree) if 2 * e == socle]
    form = gw.GWElement(gw.RATIONALS, pos=(1, -1) * sum(2 * e < socle for e in degree))
    if middle:
        form = form + gw.diagonalize([[gram[i][j] for j in middle] for i in middle])
    return gram, form


def _assert_matches_bezoutian(s):
    bf = ekl.ss_form(s)
    gram, form = _bezoutian_oracle(s)
    assert bf.gram == tuple(tuple(row) for row in gram)
    assert _as_json(bf.gram) == _as_json(gram)
    assert (bf.gw.pos, bf.gw.neg) == (form.pos, form.neg)


_Q4 = (
    "-x^4 - 5*x^3*y - 4*x^2*y^2 + 5*x*y^3 + y^4 + 2*x^3*z - 2*x^2*y*z + 2*x*y^2*z - y^3*z"
    " + x^2*z^2 + 2*x*y*z^2 - 4*y^2*z^2 + 2*x*z^3 + 4*y*z^3 - z^4"
)
_C4 = (
    "2*x^3 + 2*x^2*y + x*y^2 + y^3 - 5*x^2*z + x*y*z + 5*y^2*z + 2*x*z^2 + 2*y*z^2 + 3*z^3"
    " + 4*x^2*w - 5*x*y*w + 2*y^2*w - 4*x*z*w + 2*y*z*w - 4*z^2*w - 2*x*w^2 - 4*y*w^2"
    " + 4*z*w^2 + w^3"
)


@pytest.mark.parametrize(
    "src, names, weights",
    [
        (_Q4, XYZ, None),
        (_C4, XYZW, None),
        ("x^2 - y^2 + z^2", XYZ, None),  # Morse: socle degree 0
        ("x^3 + y^3 + z^3", XYZ, None),  # socle degree 3 is odd
        (_CUBIC, XYZ, None),
        ("5*x^4", ("x",), None),
        ("x^25 + y^25", XY, None),
        ("x^12 - 2*y^13", XY, (13, 12)),
        ("3*x^4 + 5*y^5 - 2*z^6 + 7*w^7", XYZW, (105, 84, 70, 60)),
        ("x^3 + y^4", XY, (4, 3)),  # E6
        ("x^2*y + y^4", XY, (3, 2)),  # D5
        ("x^3 + x*y^3", XY, (3, 2)),  # E7
        ("x^3*y + y^5", XY, (4, 3)),
        # sparse forms whose pairing blocks are not symmetric matrices, so
        # that G^-T and G^-1 differ
        ("x^5 + y^5 + x^2*y^3", XY, None),
        ("x^3 + y^3 + z^3 + x^2*y", XYZ, None),
        # rational coefficients: the Hessian is that of L*f, L = 4 and 6
        ("x^3/2 + 3*y^3/4", XY, None),
        ("x^3/6 - 5*y^4/4 + x^2*z/3 - z^3", XYZ, (4, 3, 4)),
    ],
)
def test_graded_form_matches_the_bezoutian(src, names, weights):
    _assert_matches_bezoutian(ekl.singularity(src, names, weights))


# every route of ss_form: the README inputs, one input per milnor-sparse slot
# shape (Brieskorn-Pham sums, D, E and X3 curves, and the local-fault
# shapes), the dense references, two declared gradings, two rational inputs
# and an ungraded ternary whose Jacobian ring is not local
_PINNED_FORMS = [
    ("x^3 - x", ("x",), None),
    ("x^2 - y^2 + y^3", XY, None),
    ("x^2 - y^3", XY, None),
    ("x^3 + y^3", XY, None),
    ("x^2 - y^2", XY, None),
    ("3*x^4 + 5*y^5 - 2*z^6 + 7*w^7", XYZW, None),
    ("4*x^4 - 3*y^6 + 5*z^7", XYZ, None),
    ("2*x^15 - 7*y^16", XY, None),
    ("x^5 + 9*y^6", XY, None),
    ("-3*x^2*y + 4*y^21", XY, None),
    ("2*x^3*y - 5*y^10", XY, None),
    ("7*x^3 + 2*x*y^8", XY, None),
    ("x^2 - y^2 + 3*y^4", XY, None),
    (_OCTIC, XY, None),
    (_SEPTIC, XY, None),
    (_CUBIC, XYZ, None),
    (_Q4, XYZ, None),
    (_C4, XYZW, None),
    ("x^2*y + y^4", XY, (3, 2)),
    ("x^3 + y^4", XY, (4, 3)),
    ("x^3/2 + 3*y^3/4", XY, None),
    ("x^3/6 - 5*y^4/4 + x^2*z/3 - z^3", XYZ, (4, 3, 4)),
    ("x^3 + y^3 + z^4 + x*y*z^3 - z^6", XYZ, None),
]


def test_pinned_forms_keep_their_digest():
    """The basis, the nonzero Gram entries with their positions and types,
    and the class of each pinned input hash to a fixed SHA-256: a change to
    any route of ``ss_form`` that moves one value or type fails here."""
    digest = hashlib.sha256()
    for src, names, weights in _PINNED_FORMS:
        bf = ekl.ss_form(ekl.singularity(src, names, weights))
        gram = [
            (i, j, type(v).__name__, str(v))
            for i, row in enumerate(bf.gram)
            for j, v in enumerate(row)
            if v
        ]
        classes = [[(type(a).__name__, a) for a in side] for side in (bf.gw.pos, bf.gw.neg)]
        digest.update(repr((src, bf.basis, gram, classes)).encode())
    assert digest.hexdigest() == "3a6359bbbdace7064d1c59bd9d3f47fe3badb0329dfb7df9d8e9b5005fe0ed08"


def _seeded_dense_form(seed, names, degree):
    """A dense form with coefficients in [-3, 3] and an isolated singularity."""
    rng = random.Random(seed)
    size = math.comb(degree + len(names) - 1, len(names) - 1)
    while True:
        f = _dense_form(names, degree, [rng.randint(-3, 3) for _ in range(size)])
        if not f.is_zero() and _isolated(f):
            return f


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("names, degree", [(XY, 8), (XY, 7), (XYZ, 3)])
def test_dense_graded_form_matches_the_bezoutian(seed, names, degree):
    f = _seeded_dense_form(seed, names, degree)
    _assert_matches_bezoutian(ekl.SingularityInput(f, names))


@st.composite
def _binary_forms(draw):
    degree = draw(st.integers(3, 6))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1))
    f = _dense_form(XY, degree, coeffs)
    assume(not f.is_zero() and _isolated(f))
    return f


@settings(max_examples=40, deadline=None)
@given(_binary_forms())
def test_random_binary_form_matches_the_bezoutian(f):
    _assert_matches_bezoutian(ekl.SingularityInput(f, XY))


def test_only_ungraded_input_builds_the_bezoutian(monkeypatch):
    calls = []
    real = ekl.bezoutian

    def bezoutian(gs):
        calls.append(len(gs))
        return real(gs)

    monkeypatch.setattr(ekl, "bezoutian", bezoutian)
    ekl.ss_form(ekl.singularity(_OCTIC, XY))
    ekl.ss_form(ekl.singularity("x^2 - y^3", XY, weights=(3, 2)))
    assert calls == []
    ekl.ss_form(ekl.singularity("x^2 - y^3", XY))
    assert calls == [2]


def _local_quotient(gs):
    """The quotient that ``ss_form`` reduces an ungraded input by."""
    quotient = P.groebner(gs)
    return quotient if ekl._is_local(quotient) else ekl._local_factor(quotient)


_COEFFICIENTS = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)


@st.composite
def _ungraded_inputs(draw):
    """milnor-sparse's ungraded shapes with rational coefficients, the
    localizing x^2 - y^2 + c*y^3, and triangular images of graded inputs."""
    shape = draw(st.sampled_from(["d", "e", "bp", "local", "triangular"]))
    c1, c2 = (f"({draw(_COEFFICIENTS)})" for _ in range(2))
    if shape == "d":
        src = f"{c1}*x^2*y + {c2}*y^{draw(st.integers(4, 9))}"
    elif shape == "e":
        src = f"{c1}*x^3 + {c2}*x*y^{draw(st.integers(3, 6))}"
    elif shape == "bp":
        a, b = draw(st.permutations(range(2, 8)))[:2]
        src = f"{c1}*x^{a} + {c2}*y^{b}"
    elif shape == "local":
        src = f"x^2 - y^2 + {c1}*y^3"
    else:
        _, names, _, g = draw(_triangular_images())
        return g, names
    return P.parse(src, XY), XY


@settings(max_examples=40, deadline=None)
@given(_ungraded_inputs())
@example((P.parse("x^2*y/2 + y^5/3", XY), XY))
@example((P.parse("x^2 - y^2 + 5*y^3", XY), XY))
@example((P.parse("(x + 2*y^2)^3 + y^4", XY), XY))
@example((P.parse("x^2 + y^2 + z^3 + 2*w^3", XYZW), XYZW))
@example((P.parse("x^2 - y^2 + z^3 + w^3 + x*z*w", XYZW), XYZW))
def test_ungraded_gram_matches_the_fraction_sum(case):
    """The integer assembly of the ungraded Gram matrix is, entry for entry,
    the Fraction sum of the oracle Bezoutian's coefficients times the
    normal forms of its X and Y blocks, over the same quotient."""
    f, names = case
    s = ekl.SingularityInput(f, names)
    assert not any(s.grading()[0])
    gs = P.partials(f)
    quotient = _local_quotient(gs)
    gram = _oracle_gram(gs, quotient)
    d = len(gram)
    assert all(gram[i][j] == gram[j][i] for i in range(d) for j in range(i))
    bf = ekl.ss_form(s)
    assert bf.basis == quotient.standard_monomials
    assert bf.gram == tuple(tuple(row) for row in gram)
    assert all(type(v) is Fraction for row in bf.gram for v in row)
    assert _as_json(bf.gram) == _as_json(gram)
    form = gw.diagonalize(gram)
    assert (bf.gw.pos, bf.gw.neg) == (form.pos, form.neg)


@pytest.mark.parametrize("src", ["x^2*y + y^5", "x^2 - y^2 + y^3"])
def test_ungraded_kernel_stays_integer(src, monkeypatch):
    """The Bezoutian and the ungraded Gram assembly do no Polynomial
    arithmetic."""
    f = P.parse(src, XY)
    gs = P.partials(f)
    quotient = _local_quotient(gs)
    expected = ekl.ss_form(ekl.SingularityInput(f, XY))
    oracle = _oracle_bezoutian(gs)

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic in the ungraded kernel")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__pow__"):
        monkeypatch.setattr(P.Polynomial, name, refuse)
    b = ekl.bezoutian(gs)
    gram, form = ekl._bezoutian_form(gs, quotient)
    monkeypatch.undo()
    assert b == oracle
    assert tuple(tuple(row) for row in gram) == expected.gram
    assert (form.pos, form.neg) == (expected.gw.pos, expected.gw.neg)


@pytest.mark.parametrize("src", ["2*x^3*y - 5*y^10", "x^5 + 9*y^6"])
def test_asymmetric_ungraded_gram_is_rejected(src, monkeypatch):
    """One unmirrored Bezoutian term, X^0 * Y^(0,1), breaks the symmetry of
    the ungraded Gram matrix; the check in ``gw.congruence_pivots`` still
    runs on this path and rejects it."""
    real = ekl.bezoutian
    monkeypatch.setattr(ekl, "bezoutian", lambda gs: real(gs) + P.Polynomial.monomial(4, (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        ekl.ss_form(ekl.singularity(src, XY))


@pytest.mark.parametrize(
    "src, names, weights",
    [case for case in _PINNED_FORMS if not any(ekl.singularity(*case).grading()[0])],
)
def test_equal_ungraded_gram_values_share_one_object(src, names, weights):
    """Each distinct nonzero value of an ungraded Gram matrix is one
    Fraction, and one Fraction(0) fills every zero: a Brieskorn-Pham matrix,
    constant on its antidiagonal, holds a single nonzero object."""
    gram = ekl.ss_form(ekl.singularity(src, names, weights)).gram
    nonzero = [v for row in gram for v in row if v]
    assert len({id(v) for v in nonzero}) == len(set(nonzero))
    assert len({id(v) for row in gram for v in row if not v}) <= 1
    if src == "3*x^4 + 5*y^5 - 2*z^6 + 7*w^7":
        assert len({id(v) for v in nonzero}) == 1


@pytest.mark.parametrize(
    "hessian",
    [
        lambda h: {},  # zero
        lambda h: {(0, 0): 1},  # in A_0, not A_s
        lambda h: {**h, (0, 0): 1},  # in A_s plus a part in A_0
    ],
)
def test_hessian_off_the_socle_is_a_bug(monkeypatch, hessian):
    real = ekl._hessian
    monkeypatch.setattr(ekl, "_hessian", lambda gs: hessian(real(gs)))
    with pytest.raises(AssertionError, match="Hessian"):
        ekl.ss_form(ekl.singularity("x^3 + y^3", XY))


@pytest.mark.parametrize(
    "src, socle, doctored",
    [
        # the middle block of A_1: x*x and y*y made equal to x*y
        ("x^3 + y^3", (1, 1), [(2, 0), (0, 2)]),
        # the block pairing A_1 with A_3: x*x^2*y and y*x*y^2 made equal to x^2*y^2
        ("x^4 + y^4", (2, 2), [(3, 1), (1, 3)]),
    ],
)
def test_singular_pairing_block_is_a_bug(monkeypatch, src, socle, doctored):
    """Products whose normal form is zero are given the socle's normal form,
    so that two rows of one block become equal; the Hessian's own normal
    form is left as it is."""
    f = P.parse(src, XY)
    sigma = P.groebner(P.partials(f)).standard_monomials.index(socle)
    real = P.QuotientBasis.nf_vector

    def nf_vector(self, exps):
        return ({sigma: 1}, 1) if tuple(exps) in doctored else real(self, exps)

    monkeypatch.setattr(P.QuotientBasis, "nf_vector", nf_vector)
    with pytest.raises(AssertionError, match="singular"):
        ekl.ss_form(ekl.SingularityInput(f, XY))


def test_exact_inverse():
    block = [[0, 2], [3, 1]]
    inverse, minors = ekl._inverse(block, 1)
    assert inverse == [[Fraction(-1, 6), Fraction(1, 3)], [Fraction(1, 2), Fraction(0)]]
    assert all(type(v) is Fraction for row in inverse for v in row)
    assert minors == [1, -6]
    assert ekl._inverse(block, Fraction(-3, 2)) == (
        [[Fraction(1, 4), Fraction(-1, 2)], [Fraction(-3, 4), Fraction(0)]],
        [1, -6],
    )
    assert ekl._inverse([[1, 2], [3, 0]], 1) == (
        [[Fraction(0), Fraction(1, 3)], [Fraction(1, 2), Fraction(-1, 6)]],
        None,
    )
    with pytest.raises(AssertionError, match="singular"):
        ekl._inverse([[1, 2], [2, 4]], 1)
    with pytest.raises(AssertionError, match="not square"):
        ekl._inverse([[1, 2]], 1)


def _oracle_inverse(block):
    """The inverse by Gauss-Jordan elimination in Fractions, top-left first,
    or None for a singular block."""
    k = len(block)
    rows = [
        [Fraction(v) for v in row] + [Fraction(i == j) for j in range(k)]
        for i, row in enumerate(block)
    ]
    for c in range(k):
        p = next((i for i in range(c, k) if rows[i][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[k:] for row in rows]


def _fraction_det(block):
    """The determinant by Gaussian elimination in Fractions."""
    rows, det = [[Fraction(v) for v in row] for row in block], Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


@st.composite
def _square_blocks(draw):
    """Square integer matrices of size 1-8, symmetric or not, whose entries
    are often 0, so that trailing minors vanish and rows are swapped."""
    k = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    block = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        block = [[block[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    return block


@settings(max_examples=300, deadline=None)
@given(
    _square_blocks(),
    st.fractions().filter(bool) | st.sampled_from([1, -1, 10**30 + 57, Fraction(-7, 10**20)]),
)
@example([[0, 1], [1, 0]], 1)  # M_1 = 0: a swap, so no minors
@example([[0, 2], [3, 1]], Fraction(-3, 2))
@example([[-5]], 3)
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -2)  # M_1 = 1, M_2 = 0, M_3 = -1
def test_inverse_matches_the_fraction_oracle(block, scale):
    """``_inverse`` is scale times the Fraction inverse, and a singular block
    is a bug.  Its minors are the trailing principal minors M_1 ... M_k; by
    Jacobi's identity the leading j x j minor of B^-1 is M_(k-j) / M_k, so on
    a symmetric block scale * M_(k-j) / M_(k-j+1) are the congruence pivots
    of scale * B^-1.  Minors come back exactly when every one is nonzero."""
    k = len(block)
    expected = _oracle_inverse(block)
    if expected is None:
        with pytest.raises(AssertionError, match="singular"):
            ekl._inverse(block, scale)
        return
    inverse, minors = ekl._inverse(block, scale)
    assert inverse == [[scale * v for v in row] for row in expected]
    trailing = [_fraction_det([row[k - t :] for row in block[k - t :]]) for t in range(1, k + 1)]
    if minors is None:
        assert 0 in trailing
        return
    assert minors == trailing
    if all(block[i][j] == block[j][i] for i in range(k) for j in range(i)):
        ms = [1, *minors]
        pivots = [scale * Fraction(ms[k - j], ms[k - j + 1]) for j in range(1, k + 1)]
        assert pivots == gw.congruence_pivots([[scale * v for v in row] for row in expected])


# ---------------------------------------------------------------------------
# the class at the origin, not the sum over every critical point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [1, 2, 3])
def test_the_form_is_the_one_at_the_origin(c):
    """The benchmark's non-local inputs: the origin is not critical for
    x^3 - c*x, and a Morse point with Hessian determinant -4 otherwise; the
    other critical points do not count."""
    assert ekl.ss_form(ekl.singularity(f"x^3 - {c}*x", ("x",))).dimension == 0
    for src in (f"x^2 - y^2 + {c}*y^3", f"x^2 - y^2 + {c}*y^4"):
        bf = ekl.ss_form(ekl.singularity(src, XY))
        assert (bf.basis, _gram(bf), bf.gw.pos, bf.gw.neg) == (((0, 0),), [[-4]], (-1,), ())


@pytest.mark.parametrize(
    "src, principal, weights, r",
    [
        ("x^2*y + y^4 - y^6", "x^2*y + y^4", (3, 2), 8),  # D5
        ("x^3 + y^4 + x*y^5 + x^7", "x^3 + y^4", (4, 3), 12),  # E6, three hyperbolic planes
    ],
)
def test_higher_order_terms_keep_the_local_class(src, principal, weights, r):
    bf = ekl.ss_form(ekl.singularity(src, XY))
    assert bf.dimension == euler.milnor_rank_weighted(weights, r)
    assert gw.is_equal(bf.gw, ekl.quadratic_milnor(ekl.singularity(principal, XY, weights)))
    assert P.groebner(P.partials(P.parse(src, XY))).dimension > bf.dimension


U56 = "-5*x^8*y^4 + 4*x^5*y^4 - x^4*y^5 + 4*x^2*y^7 + y^9 - 2*x^8"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.xfail(
    strict=True,
    raises=TimeoutError,
    reason="ROADMAP item 16: the congruence pivots of U56's ungraded form grow to "
    "hundreds of bits, and factoring them runs for minutes",
)
def test_u56_class_arrives_within_seconds():
    """U56 is not quasi-homogeneous; its local ring has dimension 56 and its
    class is 28 hyperbolic planes."""
    def timed_out(signum, frame):
        raise TimeoutError("the class of U56 took over 2 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(2)
    try:
        bf = ekl.ss_form(ekl.singularity(U56, XY))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert bf.dimension == 56
    assert gw.is_equal(bf.gw, 28 * _form(1, -1))


def _at(f, point):
    """f translated so that the point moves to the origin, minus its value
    there."""
    n = f.nvars
    g = substitute(
        f, [P.Polynomial.variable(n, i) + P.Polynomial.constant(n, c) for i, c in enumerate(point)]
    )
    return g - P.Polynomial.constant(n, g.constant_term())


@pytest.mark.parametrize(
    "src, names, points",
    [
        ("x^3 - 3*x", ("x",), [(1,), (-1,)]),  # the origin is not critical
        ("x^2 - y^2 + y^3", XY, [(0, 0), (0, Fraction(2, 3))]),
        ("x^2 - y^2 + 2*y^4", XY, [(0, 0), (0, Fraction(1, 2)), (0, Fraction(-1, 2))]),
        ("x^2 + y^3*(y - 1)^2", XY, [(0, 0), (0, 1), (0, Fraction(3, 5))]),  # A2 at the origin
        ("x^2 + y^2*(y - 1)^3", XY, [(0, 0), (0, 1), (0, Fraction(2, 5))]),  # A2 at (0, 1)
        ("2*x^2*y - 2*y^3 + 3*y^2 - 8*x^2", XY, [(0, 0), (0, 1), (6, 4), (-6, 4)]),
    ],
)
def test_global_class_is_the_sum_of_the_local_classes(src, names, points):
    """Q[x]/J is the product of its local factors at the critical points,
    all rational here, and the Bezoutian form on the whole of it is the
    orthogonal sum of the local forms (Kass and Wickelgren, arXiv:1608.05669)."""
    f = P.parse(src, names)
    gram, whole = _bezoutian_oracle(ekl.SingularityInput(f, names))
    local = [ekl.ss_form(ekl.SingularityInput(_at(f, p), names)) for p in points]
    assert len(gram) == sum(bf.dimension for bf in local)
    total = gw.GWElement.zero()
    for bf in local:
        total = total + bf.gw
    assert gw.is_equal(whole, total)
    if all(points[0]):
        assert ekl.ss_form(ekl.SingularityInput(f, names)).dimension == 0
    else:
        assert ekl.ss_form(ekl.SingularityInput(f, names)) == local[0]


# principal part f0, its weights and weighted degree: binary only, since a
# ternary principal part costs seconds of Buchberger on J + m^N
_PRINCIPAL_PARTS = [
    ("x^3", "y^4", (4, 3), 12),  # E6
    ("x^2*y", "y^4", (3, 2), 8),  # D5
    ("x^3", "x*y^3", (3, 2), 9),  # E7
    ("x^2", "y^5", (5, 2), 10),  # A4
    ("x^3", "y^5", (5, 3), 15),  # E8
    ("x^4", "y^4", (1, 1), 4),  # a binary quartic, with x^2*y^2 and x*y^3 below
]


@st.composite
def _semi_quasi_homogeneous(draw):
    """f0 + h: f0 quasi-homogeneous of degree r with an isolated singularity,
    every term of h of weighted degree above r."""
    first, second, weights, r = draw(st.sampled_from(_PRINCIPAL_PARTS))
    coeff = st.integers(-3, 3).filter(bool)
    f0 = f"{draw(coeff)}*{first} + {draw(coeff)}*{second}"
    if r == 4:
        f0 += f" + {draw(st.integers(-3, 3))}*x^2*y^2 + {draw(st.integers(-3, 3))}*x*y^3"
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda e: sum(e) <= 7 and P.weighted_degree(e, weights) > r
    )
    h = " + ".join(
        f"{draw(coeff)}*x^{a}*y^{b}" for a, b in draw(st.lists(exps, min_size=1, max_size=2))
    )
    return f0, h, weights, r


@settings(max_examples=30, deadline=None)
@given(_semi_quasi_homogeneous())
@example(("1*x^2 + -1*y^5", "1*x^1*y^3", (5, 2), 10))
@example(("1*x^4 + 1*y^4 + 0*x^2*y^2 + 1*x*y^3", "2*x^0*y^5", (1, 1), 4))
def test_local_class_is_the_class_of_the_principal_part(case):
    """For f = f0 + h, h of higher weighted degree, the class at the origin is
    the graded class of f0.  That path forms no Bezoutian and localizes
    nothing, so it is independent of the localization it checks."""
    f0, h, weights, r = case
    try:
        principal = ekl.ss_form(ekl.singularity(f0, XY, weights, r))
    except NotIsolatedError:
        assume(False)  # a binary quartic with a repeated factor
    try:
        bf = ekl.ss_form(ekl.singularity(f"{f0} + {h}", XY))
    except NotIsolatedError:
        assume(False)  # h gave a curve of critical points away from the origin
    assert bf.dimension == principal.dimension
    assert gw.is_equal(bf.gw, principal.gw)
