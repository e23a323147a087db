"""Sparse polynomial arithmetic, parsing, the grevlex order, and Groebner
quotient bases."""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import substitute
from quadsing import ekl, gw
from quadsing import poly as P
from quadsing.errors import (
    InfiniteQuotientError,
    InvalidIdealError,
    ParseError,
    UnknownVariableError,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def _p(src, variables=XY):
    return P.parse(src, variables)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def test_parse_basic_forms():
    f = _p("x^2 - y^3")
    assert f.coefficient((2, 0)) == 1
    assert f.coefficient((0, 3)) == -1
    assert f.total_degree() == 3
    assert P.Polynomial.zero(3).total_degree() == -1
    assert _p("3/2*x*y").coefficient((1, 1)) == Fraction(3, 2)
    assert _p("-x") == P.Polynomial.monomial(2, (1, 0), -1)
    assert _p("x - - y") == _p("x + y")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        _p("x^2 -")
    assert info.value.position == 5
    with pytest.raises(UnknownVariableError):
        _p("x + w")
    with pytest.raises(ParseError):
        _p("x^(-2)")
    with pytest.raises(ParseError):
        _p("2 x")  # implicit multiplication is not a thing
    with pytest.raises(ParseError):
        _p("")


@pytest.mark.parametrize(
    "read, src, error, message, position",
    [
        ("parse", "x^2 -", ParseError, "expected a number, variable, or '(', found 'end of input'", 5),
        ("parse", "3x", ParseError, "unexpected 'x' after expression", 1),
        ("parse", "x y", ParseError, "unexpected 'y' after expression", 2),
        ("parse", "x^2^3", ParseError, "unexpected '^' after expression", 3),
        ("parse", "((x)", ParseError, "expected ')', found 'end of input'", 4),
        ("parse", "1/2/0", ParseError, "division by zero", 3),
        ("parse", "x/(y-y)", ParseError, "division by zero", 1),
        ("parse", "x/y", ParseError, "a polynomial may divide only by a nonzero constant", 1),
        ("parse", "x^(-2)", ParseError, "exponent must be a non-negative integer", 2),
        ("parse", "x + w", UnknownVariableError, "unknown variable 'w'", 4),
        ("parse", "", ParseError, "expected a number, variable, or '(', found 'end of input'", 0),
        ("parse_form", "<t/0>", ParseError, "division by zero", 2),
        ("parse_gw", "<1,,2>", ParseError, "expected a number, variable, or '(', found ','", 3),
        ("parse_gw", "<1> - 0", ParseError, "expected '<', found '0'", 6),
        ("parse_gw", "<0>", ParseError, "bad square-class entry '0': zero has no square class", 1),
    ],
)
def test_parse_error_contract(read, src, error, message, position):
    """Each malformed input raises exactly this exception type, with this
    message and position, whatever evaluates the expressions."""
    call = {
        "parse": lambda: P.parse(src, XYZ),
        "parse_form": lambda: P.parse_form(src, ("t",)),
        "parse_gw": lambda: gw.parse_gw(src),
    }[read]
    with pytest.raises(ParseError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("names", [["1", "y"], ["x", ",", "y"], ["x y"], [""], ["x", 2]])
def test_variable_names_are_identifiers(names):
    with pytest.raises(ParseError, match="is not an identifier"):
        P.parse("0", names)


def test_format_round_trip_is_stable():
    for src in ("x^2 - y^3", "x*y + 1", "2*x^2*y - 1/3*y^2 + 5", "0"):
        f = _p(src)
        assert _p(P.format_poly(f, XY)) == f


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys = st.lists(st.tuples(exps, coeffs), max_size=5).map(
    lambda terms: sum(
        (P.Polynomial.monomial(2, e, c) for e, c in terms),
        P.Polynomial.zero(2),
    )
)


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == P.Polynomial.zero(2)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_format_parse_round_trip(f):
    assert _p(P.format_poly(f, XY)) == f


X = P.Polynomial.variable(2, 0)


@pytest.mark.parametrize(
    "src, variables, expected",
    [
        ("2/3^2", XY, P.Polynomial.constant(2, Fraction(2, 9))),
        ("t/2/3", ("t",), P.Polynomial.monomial(1, (1,), Fraction(1, 6))),
        ("x/2", XY, X * Fraction(1, 2)),
        ("2*-x", XY, X * -2),
    ],
)
def test_slash_and_sign_readings(src, variables, expected):
    assert P.parse(src, variables) == expected


@pytest.mark.parametrize(
    "src, message",
    [
        ("x/y", "a polynomial may divide only by a nonzero constant"),
        ("1/0", "division by zero"),
        ("x/(y-y)", "division by zero"),
    ],
)
def test_division_errors_point_at_the_slash(src, message):
    with pytest.raises(ParseError) as info:
        _p(src)
    assert info.value.position == src.index("/")
    assert str(info.value).startswith(message)


# A tree is ("num", k), ("var", name), ("neg", a), ("^", a, k) or (op, a, b)
# for op in + - * /.  _render writes it with the fewest parentheses the
# grammar allows, so precedence, associativity and signs are exercised.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "num": 5, "var": 5}


def _render(tree) -> str:
    def sub(t, least):
        text = _render(t)
        return text if _PREC[t[0]] >= least else f"({text})"

    kind = tree[0]
    if kind in ("num", "var"):
        return str(tree[1])
    if kind == "neg":
        return "-" + sub(tree[1], 3)
    if kind == "^":
        return f"{sub(tree[1], 5)}^{tree[2]}"
    left, right = (1, 2) if kind in "+-" else (2, 3)
    return f"{sub(tree[1], left)} {kind} {sub(tree[2], right)}"


def _evaluate(tree, leaf, divide):
    kind = tree[0]
    if kind in ("num", "var"):
        return leaf(tree)
    a = _evaluate(tree[1], leaf, divide)
    if kind == "neg":
        return -a
    if kind == "^":
        return a ** tree[2]
    b = _evaluate(tree[2], leaf, divide)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return divide(a, b)


def _numbers(low):
    return st.integers(min_value=low, max_value=9).map(lambda k: ("num", k))


def _trees(variables, divisors):
    leaves = _numbers(0) | st.sampled_from(variables).map(lambda v: ("var", v))

    def extend(sub):
        return st.one_of(
            st.tuples(st.just("neg"), sub),
            st.tuples(st.just("^"), sub, st.integers(min_value=0, max_value=3)),
            st.tuples(st.sampled_from("+-*"), sub, sub),
            st.tuples(st.just("/"), sub, divisors(sub)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _constant_divisors(sub):
    return _numbers(1) | st.tuples(st.just("^"), _numbers(1), st.integers(min_value=0, max_value=2))


@settings(max_examples=150, deadline=None)
@given(_trees(XY, _constant_divisors))
def test_parse_matches_polynomial_arithmetic(tree):
    """The parsed polynomial equals the tree evaluated with Polynomial
    arithmetic, and, on a side that shares no code with ``poly``, the tree
    evaluated and expanded in sympy."""
    def leaf(t):
        if t[0] == "num":
            return P.Polynomial.constant(2, t[1])
        return P.Polynomial.variable(2, XY.index(t[1]))

    parsed = _p(_render(tree))
    expected = _evaluate(tree, leaf, lambda a, b: a * (1 / b.constant_term()))
    assert parsed == expected

    symbols = dict(zip(XY, sympy.symbols(XY)))

    def sympy_leaf(t):
        return sympy.Rational(t[1]) if t[0] == "num" else symbols[t[1]]

    value = sympy.expand(_evaluate(tree, sympy_leaf, lambda a, b: a / b))
    terms = sympy.Poly(value, *symbols.values()).terms()
    assert parsed.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in terms if c}


@settings(max_examples=300, deadline=None)
@given(
    _trees(("t",), lambda sub: sub),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=3, max_size=3),
)
def test_parse_ratfunc_matches_direct_evaluation(tree, points):
    """A one-entry form reads the expression as num/den, which takes its
    value at every point where the expression is defined."""
    text = _render(tree)
    try:
        ((_, num, den, _, _),) = P.parse_form(f"<{text}>", ("t",))
    except ParseError:
        # only a divisor that is identically zero is rejected
        num = den = None
    for x in points:
        try:
            value = _evaluate(
                tree, lambda t: Fraction(t[1]) if t[0] == "num" else x, lambda a, b: a / b
            )
        except ZeroDivisionError:
            continue
        assert num is not None, text
        assert _at(num, x) / _at(den, x) == value, text


def _at(q, x):
    """The value of a one-variable Polynomial at x."""
    return sum((c * x**e for (e,), c in q.terms.items()), Fraction(0))


@pytest.mark.parametrize(
    "src, num, den",
    [
        ("1/(t/2)", "2", "t"),
        ("1/(1/(t/2))", "t", "2"),
        ("(1/(t/2))^2", "4", "t^2"),
        ("t^2/(t/3)/(2/t)", "3*t^2", "2"),
        ("(t/2 + 1)/(t/3)", "3*t + 6", "2*t"),
        ("1/(t/2) - 1/(t/3)", "-1", "t"),
        ("(2/3)/(t/(3/4))", "1", "2*t"),
        ("t/(t^2/4 - 1)", "4*t", "t^2 - 4"),
        ("1/((t + 1)/t)", "t", "t + 1"),
        ("(t/2)/((t + 1)/(3*t))", "3*t^2", "2*t + 2"),
    ],
)
def test_parse_rational_keeps_the_constants_of_a_non_constant_divisor(src, num, den):
    """A divisor with fractional coefficients, or one that is itself a
    quotient, divides by all of its value: the one entry of the form <src>
    is num/den."""
    ((_, top, bottom, _, _),) = P.parse_form(f"<{src}>", ("t",))
    assert top * P.parse(den, ("t",)) == bottom * P.parse(num, ("t",))


# ---------------------------------------------------------------------------
# the monomial order
# ---------------------------------------------------------------------------


def test_grevlex_ordering():
    key = P.grevlex_key
    # degree first
    assert key((2, 0)) > key((1, 0))
    # same degree: grevlex puts x^2 above xy above y^2
    assert key((2, 0)) > key((1, 1)) > key((0, 2))


def test_leading_term():
    f = _p("x*y + y^3")
    assert f.leading()[0] == (0, 3)


# ---------------------------------------------------------------------------
# differentiation, substitution, weights
# ---------------------------------------------------------------------------


def test_partials():
    f = _p("x^2 - y^3")
    fx, fy = P.partials(f)
    assert fx == _p("2*x")
    assert fy == _p("-3*y^2")


def test_substitute_linear_change():
    f = _p("x^2 - y^2")
    u = _p("x + y")
    v = _p("x - y")
    assert substitute(f, [u, v]) == _p("4*x*y")


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys, st.fractions(max_denominator=4))
def test_substitute_matches_term_by_term_expansion(f, u, v, c):
    """substitute adds every term's expansion into one dict; adding the
    expanded terms as polynomials, one at a time, gives the same result, and
    terms that cancel leave no zero behind."""
    f = f * c
    expected = P.Polynomial.zero(2)
    for exps, a in f.terms.items():
        expected = expected + P.Polynomial.constant(2, a) * u ** exps[0] * v ** exps[1]
    result = substitute(f, [u, v])
    assert result == expected
    assert all(type(a) is Fraction and a for a in result.terms.values())


def test_quasi_homogeneity():
    f = _p("x^2 - y^3")
    assert P.is_quasi_homogeneous(f, (3, 2), 6)
    assert not P.is_quasi_homogeneous(f, (1, 1), 2)
    assert P.is_homogeneous(_p("x^2 - y^2"))
    assert not P.is_homogeneous(f)


# ---------------------------------------------------------------------------
# Groebner bases and quotient structure
# ---------------------------------------------------------------------------


def test_groebner_cusp_jacobian():
    # jacobian ideal of x^2 - y^3: (2x, -3y^2)
    q = P.groebner([_p("2*x"), _p("-3*y^2")])
    assert q.is_finite
    assert q.dimension == 2
    assert q.standard_monomials == ((0, 0), (0, 1))


def test_groebner_d5_jacobian():
    # x^2 y + y^4: (2xy, x^2 + 4y^3)
    q = P.groebner([_p("2*x*y"), _p("x^2 + 4*y^3")])
    assert q.dimension == 5
    assert q.standard_monomials == ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0))
    # reduced basis is monic and sorted by leading monomial
    lead = [g.leading()[0] for g in q.groebner]
    assert lead == [(1, 1), (0, 3), (3, 0)]
    for g in q.groebner:
        assert g.leading()[1] == 1


def test_groebner_unit_ideal():
    q = P.groebner([_p("x"), _p("y"), _p("x + y - 1")])
    assert q.groebner == (P.Polynomial.constant(2, 1),)
    assert q.dimension == 0
    assert q.standard_monomials == ()


def test_groebner_rejects_zero_ideal():
    with pytest.raises(InvalidIdealError):
        P.groebner([P.Polynomial.zero(2)])


def test_infinite_quotient_detected():
    q = P.groebner([_p("x")])
    assert not q.is_finite
    with pytest.raises(InfiniteQuotientError):
        q.dimension


def _divisors(basis):
    """Polynomials as the divisors of the integer kernel: each made a
    primitive integer polynomial with a positive leading coefficient."""
    out = []
    for g in basis:
        if g.terms:
            lead = g.leading()[0]
            (terms,), _ = P.clear_denominators([g])
            out.append(P._divisor(lead, P._primitive(terms, lead)))
    return out


def _ints(f):
    return P.clear_denominators([f])[0][0]


def _as_fractions(nf):
    """An ``nf_vector`` result read as basis index -> Fraction."""
    vec, den = nf
    return {k: Fraction(v, den) for k, v in vec.items()}


def test_normal_form_reduction():
    q = P.groebner([_p("2*x"), _p("-3*y^2")])
    divisors = _divisors(q.groebner)
    assert P._reduce(_ints(_p("x^2 + y^2 + y + 1")), divisors) == {(0, 1): 1, (0, 0): 1}
    assert P._reduce(_ints(_p("x*y^5")), divisors) == {}
    # 3*x*y + 2*y^2 - 3*y: 3*x*y is left, and 2*y^2 is cancelled by
    # y^2 + 3*x, whose leading coefficient 1 divides 2, so nothing is scaled
    q = P.groebner([_p("y^2 + 3*x"), _p("x^2")])
    assert P._reduce(_ints(_p("2*y^2 + 3*x*y - 3*y")), _divisors(q.groebner)) == {
        (1, 1): 3, (1, 0): -6, (0, 1): -3
    }
    # 3*x*y over the lead 2*x*y: dividend and remainder scaled by 2
    assert P._reduce(_ints(_p("y^3 + 3*x*y + 1")), _divisors([_p("2*x*y - 1")])) == {
        (0, 3): 2, (0, 0): 5
    }


def test_nf_vector_matches_normal_form():
    q = P.groebner([_p("2*x*y"), _p("x^2 + 4*y^3")])
    std = q.standard_monomials
    vec, den = q.nf_vector((0, 3))  # y^3 = -x^2/4 mod the ideal
    assert den == 4 and vec == {std.index((2, 0)): -1}
    nf = _oracle_reduce_poly(P.Polynomial.monomial(2, (0, 3)), q.groebner)
    for idx, m in enumerate(std):
        assert nf.coefficient(m) == Fraction(vec.get(idx, 0), den)


@st.composite
def _ideals(draw):
    nvars = draw(st.integers(min_value=2, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars).filter(lambda e: sum(e) <= 3)
    term = st.tuples(exps, st.integers(min_value=-3, max_value=3).filter(bool))
    gen = st.lists(term, min_size=1, max_size=3).map(lambda ts: P.Polynomial(nvars, dict(ts)))
    return draw(st.lists(gen.filter(lambda f: not f.is_zero()), min_size=1, max_size=3))


def _to_sympy(f, syms):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
        for exps, c in f.terms.items()
    ))


def _sympy_groebner(gens):
    """sympy's reduced grevlex basis of the ideal, made monic, as sets of
    terms, and whether sympy calls the ideal zero-dimensional."""
    syms = sympy.symbols(f"x0:{gens[0].nvars}")
    theirs = sympy.groebner(
        [_to_sympy(f, syms) for f in gens], *syms, order="grevlex", domain="QQ"
    )
    expected = set()
    for g in theirs.polys:
        terms = g.terms(order="grevlex")
        lc = terms[0][1]
        expected.add(frozenset(
            (m, Fraction(int((c / lc).p), int((c / lc).q))) for m, c in terms
        ))
    return expected, theirs.is_zero_dimensional


@settings(max_examples=150, deadline=None)
@given(_ideals())
@example([_p("2*x", XY), _p("-3*y^2", XY)])
@example([_p("2*x*y", XY), _p("x^2 + 4*y^3", XY)])
@example([_p("3*x^2", XY), _p("-5*y^4", XY)])
@example([_p("3*x^2", XYZ), _p("3*y^2", XYZ), _p("3*z^2", XYZ)])
@example([_p("2*x", XYZ), _p("-2*y", XYZ), _p("2*z", XYZ)])
@example([_p("x*y - 1", XY), _p("x^2 - y", XY)])
def test_groebner_matches_sympy_grevlex(gens):
    """The reduced grevlex basis is unique, so it must equal sympy's, made monic."""
    expected, zero_dimensional = _sympy_groebner(gens)
    q = P.groebner(gens)
    assert {frozenset(g.terms.items()) for g in q.groebner} == expected
    # sympy does not call the unit ideal zero-dimensional; here its quotient is finite
    unit = q.groebner == (P.Polynomial.constant(gens[0].nvars, 1),)
    assert q.is_finite == (zero_dimensional or unit)


@st.composite
def _dense_jacobians(draw):
    """Partials of a dense form: a binary form of degree 5 to 8 or a ternary
    cubic, every coefficient a nonzero integer in [-3, 3].  Their Groebner
    bases grow coefficients that the sparse ideals above never reach."""
    d, nvars = draw(st.sampled_from([(5, 2), (6, 2), (7, 2), (8, 2), (3, 3)]))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    monomials = [e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]
    return P.partials(P.Polynomial(nvars, {e: draw(coeff) for e in monomials}))


@settings(max_examples=20, deadline=None)
@given(_dense_jacobians())
def test_groebner_matches_sympy_on_dense_jacobians(gens):
    expected, zero_dimensional = _sympy_groebner(gens)
    q = P.groebner(gens)
    assert {frozenset(g.terms.items()) for g in q.groebner} == expected
    assert q.is_finite == zero_dimensional


def _box_standard_monomials(q):
    """Every monomial of the box under the pure-power leading monomials that
    no leading monomial divides, in grevlex: the oracle for the staircase."""
    leads = [max(g.terms, key=P.grevlex_key) for g in q.groebner]
    bounds = [min(e[i] for e in leads if sum(e) == e[i]) for i in range(q.nvars)]
    box = itertools.product(*map(range, bounds))
    standard = [e for e in box if not any(all(map(operator.le, l, e)) for l in leads)]
    return tuple(sorted(standard, key=P.grevlex_key))


@st.composite
def _zero_dimensional(draw):
    """Generators with leading monomials c*x_i^a_i under grevlex: every other
    term has a lower total degree.  So the ideal is zero-dimensional, and in
    general neither graded nor radical.  One more generator may follow.  The
    coefficients are integers or fractions, of either sign."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    coeff = st.integers(min_value=-4, max_value=4).filter(bool) | st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(bool)
    gens = []
    for i in range(nvars):
        a = draw(st.integers(min_value=1, max_value=5))
        lead = tuple(a if k == i else 0 for k in range(nvars))
        tail = st.tuples(*[st.integers(min_value=0, max_value=a)] * nvars).filter(
            lambda e, a=a: sum(e) < a
        )
        terms = dict(draw(st.lists(st.tuples(tail, coeff), max_size=4)))
        terms[lead] = draw(coeff)
        gens.append(P.Polynomial(nvars, terms))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    extra = draw(st.lists(st.tuples(exps, coeff), max_size=3))
    if extra:
        gens.append(P.Polynomial(nvars, dict(extra)))
    return gens


@settings(max_examples=60, deadline=None)
@given(_dense_jacobians() | _zero_dimensional())
@example(P.partials(_p("x^5 + y^7 + z^3", XYZ)))
def test_staircase_matches_the_box_filter(gens):
    q = P.groebner(gens)
    if q.is_finite:
        assert q.standard_monomials == _box_standard_monomials(q)


def _nf_by_division(q, exps):
    nf = _oracle_reduce_poly(P.Polynomial.monomial(q.nvars, exps), q.groebner)
    index = {m: k for k, m in enumerate(q.standard_monomials)}
    return {index[m]: c for m, c in nf.terms.items()}


@settings(max_examples=150, deadline=None)
@given(_zero_dimensional(), st.randoms(use_true_random=False))
@example([_p("x^3 - 5*x", ("x",)).diff(0)], random.Random(0))
@example(P.partials(_p("x^2 - y^2 + 3*y^3")), random.Random(1))
@example(P.partials(_p("x^2 - y^2 + 2*y^4")), random.Random(2))
@example([_p("2*x*y"), _p("x^2 + 4*y^3")], random.Random(3))
@example(P.partials(_p("x^2*y + y^4")), random.Random(4))
@example([_p("-3*x^2/2 + y/5"), _p("4*y^3/3 - x/2")], random.Random(5))
def test_nf_vector_matches_division(gens, rng):
    """Sixty monomials from a box twice as wide as the basis' exponents,
    asked for in random order so that the memo fills differently, have the
    normal forms that Fraction division by the basis gives; each integer
    vector shares no factor with its positive denominator."""
    q = P.groebner(gens)
    assert q.is_finite
    top = [max(m[i] for g in q.groebner for m in g.terms) for i in range(q.nvars)]
    monomials = list(itertools.product(*(range(2 * t + 2) for t in top)))
    rng.shuffle(monomials)
    for exps in monomials[:60]:
        vec, den = q.nf_vector(exps)
        assert den > 0 and all(type(v) is int and v for v in vec.values())
        assert math.gcd(den, *vec.values()) == 1
        assert _as_fractions((vec, den)) == _nf_by_division(q, exps)


def _seeded_from_monic(q, monic):
    """A quotient on q's basis whose normal-form table is seeded from a monic
    Fraction basis, as ``nf_vector`` once was: each leading monomial's
    vector is minus the tail of its element with the denominators cleared."""
    oracle = P.QuotientBasis(q.reduced, q.nvars, q.standard_monomials)
    pos = {e: k for k, e in enumerate(q.standard_monomials)}
    oracle._nf_cache.update({e: ({k: 1}, 1) for e, k in pos.items()})
    for g in monic:
        lead = g.leading()[0]
        (terms,), scale = P.clear_denominators([g])
        oracle._nf_cache[lead] = ({pos[e]: -v for e, v in terms.items() if e != lead}, scale)
    return oracle


@settings(max_examples=40, deadline=None)
@given(_zero_dimensional() | _dense_jacobians())
@example([_p("2*x*y"), _p("x^2 + 4*y^3")])
@example([_p("-3*x^2/2 + y/5"), _p("4*y^3/3 - x/2")])
def test_nf_vector_seeded_from_the_integer_basis(gens):
    """Normal forms read off the primitive integer basis equal those of a
    table seeded from sympy's monic basis, on the standard monomials, the
    leading monomials and products of them; no normal form builds the monic
    basis, which is made on first read and equals sympy's, one element per
    element of the integer basis."""
    expected, _ = _sympy_groebner(gens)
    q = P.groebner(gens)
    if q.is_finite:
        monic = [P.Polynomial(q.nvars, dict(terms)) for terms in expected]
        oracle = _seeded_from_monic(q, monic)
        leads = [lead for lead, _ in q.reduced]
        standard = q.standard_monomials
        products = [P.mono_mul(a, b) for a, b in itertools.product(leads + list(standard[:4]), repeat=2)]
        for exps in [*standard, *leads, *products]:
            assert q.nf_vector(exps) == oracle.nf_vector(exps)
        assert q._groebner is None
    assert {frozenset(g.terms.items()) for g in q.groebner} == expected
    assert len(q.groebner) == len(q.reduced) == len(expected)


def test_reduced_basis_is_deterministic():
    gens = [_p("2*x*y"), _p("x^2 + 4*y^3")]
    a = P.groebner(gens)
    b = P.groebner(list(reversed(gens)))
    assert a.groebner == b.groebner
    assert a.standard_monomials == b.standard_monomials


def test_spoly_and_reduce():
    f, g = {(2, 0): 1}, {(1, 1): 1, (0, 0): 1}  # x^2 and x*y + 1
    assert P._spoly((2, 0), f, (1, 1), g) == {(1, 0): -1}
    assert P._reduce({(2, 1): 1}, [P._divisor((1, 1), g)]) == {(1, 0): -1}
    # leading coefficients 4 and 6 scale by 6/2 and 4/2:
    # 3*y*(4*x^2 + y) - 2*x*(6*x*y + 1) = 3*y^2 - 2*x
    f, g = {(2, 0): 4, (0, 1): 1}, {(1, 1): 6, (0, 0): 1}
    assert P._spoly((2, 0), f, (1, 1), g) == {(0, 2): 3, (1, 0): -2}


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction kernel it replaced
# ---------------------------------------------------------------------------


def _oracle_spoly(f, g):
    """S-polynomial as two monomial products and a difference."""
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = P.mono_lcm(ef, eg)
    mf = P.Polynomial.monomial(f.nvars, P.mono_div(l, ef), Fraction(1) / cf)
    mg = P.Polynomial.monomial(g.nvars, P.mono_div(l, eg), Fraction(1) / cg)
    return mf * f - mg * g


def _oracle_reduce_poly(f, basis):
    """Division that builds two polynomials per step."""
    lead = [(*g.leading(), g) for g in basis if not g.is_zero()]
    remainder = {}
    p = f
    while not p.is_zero():
        e, c = max(p.terms.items(), key=lambda t: P.grevlex_key(t[0]))
        for eg, cg, g in lead:
            if P.mono_divides(eg, e):
                factor = P.Polynomial.monomial(p.nvars, P.mono_div(e, eg), c / cg)
                p = p - factor * g
                break
        else:
            v = remainder.get(e, Fraction(0)) + c
            if v:
                remainder[e] = v
            else:
                remainder.pop(e, None)
            p = p - P.Polynomial.monomial(p.nvars, e, c)
    return P.Polynomial(f.nvars, remainder)


def _oracle_buchberger(gens):
    """Buchberger with every pair's selection key made again on every step."""
    basis = [g * (Fraction(1) / g.leading()[1]) for g in gens]
    lead = [g.leading()[0] for g in basis]

    def lcm_key(i, j):
        return P.grevlex_key(P.mono_lcm(lead[i], lead[j]))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        # normal selection: smallest lcm in grevlex, index tie-break
        i, j = min(pairs, key=lambda p: (lcm_key(*p), p))
        pairs.discard((i, j))
        li, lj = lead[i], lead[j]
        l = P.mono_lcm(li, lj)
        if l == P.mono_mul(li, lj):
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not P.mono_divides(lead[k], l):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 not in pairs and p2 not in pairs:
                skip = True
                break
        if skip:
            continue
        s = _oracle_reduce_poly(_oracle_spoly(basis[i], basis[j]), basis)
        if s.is_zero():
            continue
        s = s * (Fraction(1) / s.leading()[1])
        t = len(basis)
        basis.append(s)
        lead.append(s.leading()[0])
        pairs.update((k, t) for k in range(t))
    return basis


def _oracle_reduce_basis(basis):
    """The reduced basis of a Groebner basis of monic elements: minimized,
    each element tail-reduced against the others, in ascending grevlex order
    of the leading monomials."""
    basis = sorted(basis, key=lambda g: P.grevlex_key(g.leading()[0]))
    minimal = []
    for g in basis:
        if not any(P.mono_divides(h.leading()[0], g.leading()[0]) for h in minimal):
            minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        out.append(_oracle_reduce_poly(g, others) if others else g)
    return out


def _exact(f):
    """The terms in dict order, each coefficient with its type: equal only
    when the two dicts are the same, byte for byte."""
    return repr(list(f.terms.items()))


def _over(terms, e):
    """A nonzero integer term dict divided by its coefficient at e, as a
    Polynomial."""
    return P.Polynomial(len(e), {m: Fraction(c, terms[e]) for m, c in terms.items()})


def _assert_positive_multiple(terms, oracle):
    """terms is a positive multiple of the Polynomial oracle, with its terms
    in the same order: divided by their first coefficients, they agree byte
    for byte."""
    assert list(terms) == list(oracle.terms)
    if terms:
        e = next(iter(terms))
        assert (terms[e] > 0) == (oracle.terms[e] > 0)
        assert _exact(_over(terms, e)) == _exact(oracle * (1 / oracle.terms[e]))


def _rational_polys(nvars, top, size):
    exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * nvars)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.dictionaries(exps, coeff, max_size=size).map(lambda t: P.Polynomial(nvars, t))


@st.composite
def _divisions(draw):
    """A dividend and a list of divisors, the latter a Groebner basis or not."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    f = draw(_rational_polys(nvars, 5, 8))
    basis = draw(st.lists(_rational_polys(nvars, 3, 4), min_size=1, max_size=3))
    nonzero = [g for g in basis if not g.is_zero()]
    if nonzero and draw(st.booleans()):
        basis = list(P.groebner(nonzero).groebner)
    return f, basis


@settings(max_examples=200, deadline=None)
@given(_divisions())
@example((_p("x^2*y + x*y^2 + y^2"), [_p("x*y - 1"), _p("y^2 - 1")]))
@example((_p("y^3 + 3*x*y + 1"), [_p("-2*x*y + 1")]))
def test_division_matches_the_oracle_byte_for_byte(case):
    """Fraction-free division and S-polynomials of the denominator-cleared,
    primitive operands are positive multiples of the Fraction results, term
    for term in the same order."""
    f, basis = case
    before = [dict(g.terms) for g in [f, *basis]]
    _assert_positive_multiple(P._reduce(_ints(f), _divisors(basis)), _oracle_reduce_poly(f, basis))
    nonzero = [g for g in [f, *basis] if not g.is_zero()]
    for g, h in zip(nonzero, nonzero[1:]):
        (dg, _, _), (dh, _, _) = _divisors([g, h])
        s = P._spoly(dg, P._primitive(_ints(g), dg), dh, P._primitive(_ints(h), dh))
        _assert_positive_multiple(s, _oracle_spoly(g, h))
    assert [g.terms for g in [f, *basis]] == before


@settings(max_examples=100, deadline=None)
@given(_ideals() | _zero_dimensional())
@example([_p("-x^2*y^2 + x^2*y"), _p("2*x^2*y^2 - 2*x*y"), _p("-x^2*y^2 + 2*x*y - 1")])
def test_buchberger_matches_the_oracle(gens):
    """The same pairs in the same order: the unreduced bases, made monic,
    agree element by element, and the generators are left as they were.  In
    the example all three leading monomials are equal, so the pairs' lcms tie
    and only the tie-break orders them."""
    ints = [_ints(g) for g in gens]
    before = [dict(g) for g in ints]
    basis, lead = P._buchberger(ints)
    oracle = _oracle_buchberger(list(gens))
    assert lead == [g.leading()[0] for g in oracle]
    assert [_exact(_over(g, e)) for g, e in zip(basis, lead)] == [_exact(g) for g in oracle]
    assert all(math.gcd(*g.values()) == 1 and g[e] > 0 for g, e in zip(basis, lead))
    assert ints == before


def _generators(nvars):
    """Up to three generators with rational coefficients, some scaled by an
    integer that makes them non-primitive, some with a negative leading
    coefficient."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars).filter(lambda e: sum(e) <= 3)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    gen = st.builds(
        lambda terms, k: P.Polynomial(nvars, {e: k * c for e, c in terms.items()}),
        st.dictionaries(exps, coeff, min_size=1, max_size=4),
        st.sampled_from([1, -1, 6, -4, 15]),
    )
    return st.lists(gen, min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(_generators))
@example([_p("6*x^2 + 4*y/3"), _p("-10*x*y + 15/2")])
@example([_p("-x*y/2 + 3*y^2/4")])  # an infinite quotient
@example([_p("4*x^2 - 6*x*y"), _p("-2*x*y + 3*y^2")])  # infinite: x*(2x - 3y), y*(2x - 3y)
@example([_p("3*x/2", ("x",)), _p("-9/4", ("x",))])  # the unit ideal
def test_reduced_basis_matches_the_fraction_oracle_and_sympy(gens):
    """The monic reduced basis is the Fraction Buchberger's basis, reduced
    by the Fraction division, byte for byte, and sympy's reduced basis."""
    q = P.groebner(gens)
    oracle = _oracle_reduce_basis(_oracle_buchberger(list(gens)))
    assert [_exact(g) for g in q.groebner] == [_exact(g) for g in oracle]
    expected, zero_dimensional = _sympy_groebner(gens)
    assert {frozenset(g.terms.items()) for g in q.groebner} == expected
    unit = q.groebner == (P.Polynomial.constant(gens[0].nvars, 1),)
    assert q.is_finite == (zero_dimensional or unit)


def _leading_is_the_grevlex_maximum(f):
    if f.terms:
        top = max(f.terms, key=P.grevlex_key)
        assert f.leading() == (top, f.terms[top])


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, st.integers(min_value=0, max_value=3), st.fractions(max_denominator=5))
def test_operations_return_fresh_exact_polynomials(f, g, h, k, c):
    """Every result holds nonzero Fractions in a dict of its own, and its
    leading term is the grevlex maximum; no operand changes."""
    operands = (f, g, h)
    before = [dict(p.terms) for p in operands]
    for p in operands:
        _leading_is_the_grevlex_maximum(p)  # reads every operand first
    results = [
        f + g, f - g, f * g, f ** k, -f, f.diff(0), f.diff(1), f * c, f + c, c - f,
        substitute(f, [g, h]), P.parse(P.format_poly(f, XY), XY),
    ]
    for r in results:
        assert all(type(v) is Fraction and v for v in r.terms.values())
        _leading_is_the_grevlex_maximum(r)
        assert all(r.terms is not p.terms for p in operands)
    assert [p.terms for p in operands] == before
    for p in operands:
        _leading_is_the_grevlex_maximum(p)


_X1 = P.Polynomial.variable(1, 0)
_X2 = P.Polynomial.variable(2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _X1 + _X2, "different variable counts"),
        (lambda: _X1 * _X2, "different variable counts"),
        (lambda: _X1 ** -1, "non-negative"),
        (lambda: P.Polynomial.zero(1).leading(), "no leading term"),
        (lambda: substitute(_X2, [_X2]), "one image polynomial per variable"),
        (lambda: P.is_quasi_homogeneous(_X2, (1,), 1), "weight vector length"),
        (lambda: P.groebner([_X1, _X2]), "mixed variable counts"),
        (lambda: ekl.bezoutian([_X2]), "m polynomials in m variables"),
        # an exponent tuple holds nvars non-negative integers
        (lambda: P.Polynomial(2, {(1,): 1}) * _X2, "not 2 non-negative integers"),
        (lambda: P.Polynomial(2, {(-1, 0): 1}), "not 2 non-negative integers"),
        (lambda: P.Polynomial(2, {(1.5, 0): 1}), "not 2 non-negative integers"),
        (lambda: P.Polynomial(1, {"x": 1}), "not 1 non-negative integers"),
        (lambda: P.Polynomial.monomial(2, (2,)), "not 2 non-negative integers"),
        (lambda: ekl.SingularityInput(P.Polynomial(2, {(2,): 1, (0, 3): 1}), XY),
         "not 2 non-negative integers"),
        # a variable index lies in range(nvars); -1 does not wrap to the last
        (lambda: P.Polynomial.variable(2, -1), "not in range"),
        (lambda: P.Polynomial.variable(2, 2), "not in range"),
        (lambda: P.Polynomial.variable(2, 5), "not in range"),
    ],
)
def test_mismatched_shapes_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("other", [0.5, "a", None, [1]])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_with_a_foreign_operand_is_a_type_error(op, other):
    """Only an int, a Fraction or a Polynomial combines with a Polynomial;
    anything else gets Python's TypeError, in either operand order."""
    with pytest.raises(TypeError):
        op(_X2, other)
    with pytest.raises(TypeError):
        op(other, _X2)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_equal_polynomials_hash_equal(f, g):
    assert hash(f * g + f) == hash(f * (g + 1))
    assert hash(_p(P.format_poly(f, XY))) == hash(f)
