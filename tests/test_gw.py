"""Grothendieck-Witt arithmetic: square classes, invariants, equality,
specialization, and the Scharlau transfer."""

from __future__ import annotations

import io
import itertools
import math
import pickle
import random
import re
import signal
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadsing import conductor as cond
from quadsing import cli, ekl, gw, tate
from quadsing import poly as P
from quadsing.errors import (
    ContextMismatchError,
    DegenerateFormError,
    InvalidExtensionError,
    ParseError,
    UnsupportedInvariantError,
)

QQ = gw.RATIONALS
QT = gw.RATIONAL_FUNCTIONS


def _form(*entries):
    return gw.diag_form([Fraction(a) for a in entries])


# ---------------------------------------------------------------------------
# square-class normalization
# ---------------------------------------------------------------------------


def test_normalize_squarefree():
    assert QQ.normalize(8) == 2
    assert QQ.normalize(12) == 3
    assert QQ.normalize(-18) == -2
    assert QQ.normalize(9) == 1
    assert QQ.normalize(Fraction(1, 2)) == 2
    assert QQ.normalize(Fraction(-4, 3)) == -3


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        r = QQ.normalize(a)
        assert QQ.normalize(r) == r


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        QQ.normalize(0)


def test_prime_field_normalization():
    F7 = gw.FieldCtx.prime_field(7)
    # squares mod 7 are {1, 2, 4}; least nonresidue is 3
    assert F7.normalize(2) == 1
    assert F7.normalize(4) == 1
    assert F7.normalize(5) == 3
    assert F7.normalize(-1) == 3
    with pytest.raises(ValueError):
        gw.FieldCtx.prime_field(2)
    with pytest.raises(ValueError):
        gw.FieldCtx.prime_field(15)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def test_rank_of_virtual_difference():
    e = _form(1, 2) - _form(3)
    assert e.rank == 1
    assert (-e).rank == -1


def test_cancellation_of_matching_classes():
    e = _form(3) - _form(12)  # 12 ~ 3
    assert e.rank == 0
    assert e.pos == () and e.neg == ()


def test_raw_construction_cancels_and_sorts():
    """``_raw`` skips normalization only: the constructor still cancels a
    class on both sides and sorts each side."""
    assert gw.GWElement(QQ, [1, 2], [1], _raw=True) == gw.diag_form([2])
    e = gw.GWElement(QQ, [3, -1, 2, 3], [3, 5, -1], _raw=True)
    assert (e.pos, e.neg) == ((2, 3), (5,))


_ENTRIES = st.lists(st.integers(-12, 12).filter(bool), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, _ENTRIES)
@example([2, -2], [1])  # the RHS of conductor on x^2 - y^2 + z^2
def test_displayed_sums_are_cancelled_and_read_back_as_the_element(pos, neg):
    """``cli.display_form`` rewrites hyperbolic pairs as <1> + <-1>; what it
    prints is a reduced sum, which parses to as many classes as it shows,
    and is the same element of GW(Q)."""
    e = gw.GWElement(QQ, pos, neg)
    text = cli.display_form(e)
    back = gw.parse_gw(text)
    assert len(re.findall("[⟨<]", text)) == len(back.pos) + len(back.neg)
    assert gw.is_equal(back, e)


def test_addition_and_negation_are_structural():
    a = _form(1, 2)
    b = _form(5)
    assert (a + b).pos == (1, 2, 5)
    assert (a - b).neg == (5,)
    assert -(a - b) == b - a


def test_multiplication_of_generators():
    assert _form(2) * _form(3, 5) == _form(6, 10)
    # squares collapse
    assert _form(2) * _form(2) == _form(1)


def test_mul_distributes_and_unit():
    rng = random.Random(5)
    for _ in range(60):
        ents = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5, 7]) for _ in range(6)]
        a, b, c = _form(ents[0], ents[1]), _form(ents[2], ents[3]), _form(ents[4], ents[5])
        assert a * (b + c) == a * b + a * c
        assert a * gw.GWElement.unit() == a


def test_integer_multiples_and_powers():
    a = _form(3)
    assert 2 * a == a + a
    assert 0 * a == gw.GWElement.zero()
    assert (-2) * a == -(a + a)
    assert a ** 3 == a * a * a
    assert a ** 0 == gw.GWElement.unit()
    with pytest.raises(ValueError):
        a ** -1


def test_rank_is_additive_and_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        a = _form(*[rng.choice([1, 2, -3]) for _ in range(rng.randint(1, 4))])
        b = _form(*[rng.choice([-1, 5, 6]) for _ in range(rng.randint(1, 4))])
        e = a - b
        assert (a + b).rank == a.rank + b.rank
        assert (a * e).rank == a.rank * e.rank


def test_context_mixing_is_rejected():
    F7 = gw.FieldCtx.prime_field(7)
    a = gw.diag_form([3], F7)
    with pytest.raises(ContextMismatchError):
        a + _form(3)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_of_a_virtual_element():
    e = _form(1, 2) - _form(3)
    inv = e.invariants()
    assert inv.rank == 1
    assert inv.signature == 1
    assert inv.discriminant.rep == 6
    assert inv.hasse[2] == 1 and inv.hasse[3] == 1


def test_signature_counts_signs():
    assert _form(1, 2, -3).signature() == 1
    assert (_form(1) - _form(-1)).signature() == 2
    F7 = gw.FieldCtx.prime_field(7)
    with pytest.raises(UnsupportedInvariantError):
        gw.diag_form([3], F7).signature()


def test_discriminant_is_product_of_classes():
    assert _form(2, 3).discriminant().rep == 6
    assert _form(2, 2).discriminant().rep == 1
    # virtual: neg entries contribute inverses, same square class
    assert (_form(2) - _form(3)).discriminant().rep == 6


def test_square_classes_and_invariant_records_are_values():
    """A square class equals and hashes as its field and representative;
    it, an InvariantTuple, a VariationResult, a BilinearForm and a
    ConductorReport refuse assignment; a singularity input equals and hashes
    as its data, so equal inputs parsed twice give equal reports."""
    F7 = gw.FieldCtx.prime_field(7)
    six = _form(2, 3).discriminant()
    assert six == gw.SquareClass(QQ, 6) and hash(six) == hash(gw.SquareClass(QQ, 6))
    assert six != gw.SquareClass(QQ, -6) and six != gw.SquareClass(F7, 6) and six != 6
    assert len({six, gw.SquareClass(QQ, 6), gw.SquareClass(F7, 6)}) == 2
    assert repr(gw.SquareClass(QQ, 6)) == "SquareClass(ctx=FieldCtx(Q), rep=6)"
    s = ekl.singularity("x^2 - y^2", ["x", "y"])
    assert cond.verify(s) == cond.verify(s)
    twin = ekl.singularity("x^2 - y^2", ("x", "y"))
    assert twin == s and hash(twin) == hash(s)
    report = cond.verify(s)
    assert cond.verify(twin) == report
    assert pickle.loads(pickle.dumps(report)) == report
    cusp = ekl.singularity("x^3 + y^2", ["x", "y"], weights=[2, 3])
    assert cusp == ekl.singularity("x^3 + y^2", ["x", "y"], weights=[2, 3], degree=6)
    assert cusp != ekl.singularity("x^3 + y^2", ["x", "y"], weights=[4, 6])
    for record, field in [
        (six, "rep"),
        (_form(2, 3).invariants(), "rank"),
        (tate.variation_quadric(3), "scalar"),
        (ekl.ss_form(s), "gram"),
        (cond.verify(s), "notes"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def _split(n, p):
    """(v, u) with n = p^v * u and p not dividing u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_symbol_oracle(a, b, p):
    """(a,b)_p for nonzero integers a, b by Serre's per-pair formula (A Course
    in Arithmetic, III.1.2, Theorem 1), with its own valuations and Legendre
    symbol: an oracle that shares no code with gw."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        # the 2-adic units matter only modulo 8
        u, v = u % 8, v % 8
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1

    def legendre(w):
        return 1 if pow(w % p, (p - 1) // 2, p) == 1 else -1

    out = 1
    if alpha * beta % 2:
        out *= legendre(-1)
    if beta % 2:
        out *= legendre(u)
    if alpha % 2:
        out *= legendre(v)
    return out


def _hilbert_symbol_real(a, b):
    """The Hilbert symbol at the real place."""
    return -1 if a < 0 and b < 0 else 1


def test_hilbert_symbol_table_values():
    assert gw.hilbert_symbol(-1, -1, 2) == -1
    assert _hilbert_symbol_real(-1, -1) == -1
    assert gw.hilbert_symbol(-1, 3, 3) == -1  # 3 = 3 mod 4
    assert gw.hilbert_symbol(2, 3, 3) == -1  # 3 = 3 mod 8
    assert gw.hilbert_symbol(2, 5, 5) == -1
    assert gw.hilbert_symbol(1, 7, 7) == 1
    assert gw.hilbert_symbol(5, 5, 5) == 1  # (5,5)_5 = (-1,5)_5 = (-1/5) = +1


def test_hilbert_symbol_is_symmetric_and_bimultiplicative():
    rng = random.Random(71)
    vals = [-7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 10]
    for _ in range(150):
        a, b, c = (rng.choice(vals) for _ in range(3))
        for p in (2, 3, 5, 7):
            assert gw.hilbert_symbol(a, b, p) == gw.hilbert_symbol(b, a, p)
            assert gw.hilbert_symbol(a * b, c, p) == gw.hilbert_symbol(
                a, c, p
            ) * gw.hilbert_symbol(b, c, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60).filter(bool),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 40))
def test_hilbert_symbol_ignores_even_powers_of_p(a, b, p, e):
    """(a*p^(2e), b)_p = (a, b)_p: a square leaves the symbol, however high
    the power of p in it."""
    assert gw.hilbert_symbol(a * p ** (2 * e), b, p) == gw.hilbert_symbol(a, b, p)


def test_hilbert_product_formula():
    """Product over all places (including the real one) is +1."""
    rng = random.Random(2024)
    for _ in range(200):
        a = rng.choice([-1, 1]) * rng.randint(1, 120)
        b = rng.choice([-1, 1]) * rng.randint(1, 120)
        places = sorted(set(gw._relevant_primes([QQ.normalize(a), QQ.normalize(b)])))
        prod = _hilbert_symbol_real(a, b)
        for p in places:
            prod *= gw.hilbert_symbol(a, b, p)
        assert prod == 1


# ---------------------------------------------------------------------------
# the factoring layer and the bilinear Hasse invariant, against slow oracles
# ---------------------------------------------------------------------------

# 399165290221 * 798330580441: a strong pseudoprime to every prime base up to 37
STRONG_PSEUDOPRIME = 318665857834031151167461


def _pairwise_hasse_witt(entries, p):
    """prod_{i<j} (a_i, a_j)_p with O(n^2) symbols: the oracle for _hasse_witt."""
    out = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            out *= _hilbert_symbol_oracle(entries[i], entries[j], p)
    return out


def _sympy_squarefree(n):
    out = 1
    for p, e in sympy.factorint(n).items():
        if e % 2:
            out *= int(p)
    return out


_nonzero = st.integers(min_value=-(2**64), max_value=2**64).filter(bool)
# the largest prime of the trial-division table, and the two primes after it
_LAST = gw._SMALL_PRIMES[-1]
_P1 = sympy.nextprime(_LAST)
_P2 = sympy.nextprime(_P1)


@settings(max_examples=300, deadline=None)
@given(_nonzero)
@example(1)
@example(-1)
@example(-(2**10) * 3**5)
@example(_LAST**2)
@example(-2 * _LAST**2)
@example(_P1**3)
@example(_P1 * _P2)
@example(-(_P1 * _P2) * _LAST**2)
@example((2**31 - 1) * (2**61 - 1))
@example(STRONG_PSEUDOPRIME)
@example(127**2)
@example(-(131**2))
@example(127 * 131)
@example(16381)  # the largest prime below 2^14
@example(-(4093**2) * 5)  # 4093: the largest prime below 2^12
@example(4099**2)  # this and the next: the two smallest composites above 2^24
@example(-4099 * 4111)  # with no prime factor below 2^12
@example(2**70 * 3**41 * 127**2 * 4099**5)  # exponents stripped by repeated squaring
def test_factorint_matches_sympy(n):
    assert gw.factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}


@settings(max_examples=200, deadline=None)
@given(_nonzero)
@example(1)
@example(-1)
@example(-(2**10) * 3**5)
@example(127**2)  # the edges of the two primorial tiers and of the cofactor rules
@example(-(131**2))
@example(127 * 131)
@example(-16381)
@example(4093**2 * 5)
@example(-(4099**2))
@example(4099 * 4111)
@example(STRONG_PSEUDOPRIME)
@example(-(STRONG_PSEUDOPRIME**2) * 127**3)
@example(2**70 * 3**41 * 127**2 * 4099)  # above 2^64, repeated primes go by squaring
@example(-(5**60) * 7**33 * 4093**3 * 131**4)
def test_squarefree_of_an_int_matches_sympy(n):
    assert gw._squarefree(n) == _sympy_squarefree(n)


@settings(max_examples=200, deadline=None)
@given(_nonzero, st.integers(min_value=1, max_value=2**64))
@example(4099 * 4111, 127**2)
@example(-(4093**2) * 5, 131**2 * 16381)
def test_squarefree_of_a_fraction_matches_sympy(n, d):
    assert gw._squarefree(Fraction(n, d)) == _sympy_squarefree(n * d)


@pytest.mark.parametrize(
    "n", [1, -1, -12, -(2**10) * 3**5, 7**3, _P1**3, -(_P1 * _P2) * _LAST**2, True]
)
def test_squarefree_of_an_int_matches_its_fraction(n):
    """An int is read without a Fraction; the class is the same."""
    assert gw._squarefree(n) == gw._squarefree(Fraction(n))


@pytest.mark.parametrize("value, error", [(0, ValueError), (False, ValueError),
                                          (0.5, TypeError), (2.0, TypeError)])
def test_squarefree_rejects_zero_and_floats(value, error):
    with pytest.raises(error):
        gw._squarefree(value)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_prime_powers_are_stripped_in_logarithmic_passes():
    """A prime power p^k is divided out in O(log k) divisions, not k: each
    call below took seconds when every pass divided by p once."""
    def timed_out(signum, frame):
        raise TimeoutError("stripping a prime power of exponent 100000 took over 2 s")

    def cli_out(*argv):
        out = io.StringIO()
        assert cli.run(list(argv), stdout=out) == 0
        return out.getvalue()

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(2)
    try:
        squarefree = gw._squarefree(Fraction(5**100001, 7**100000))
        factors = gw.factorint(5**100000)
        symbol = gw.hilbert_symbol(5**100001, 2, 5)
        invariants = cli_out("gw", "invariants", "<5^100001>")
        transferred = cli_out("gw", "transfer", "--min-poly", "x-5", "<x^100001>", "--json")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert squarefree == 5
    assert factors == {5: 100000}
    assert symbol == gw.hilbert_symbol(5, 2, 5)
    assert invariants == cli_out("gw", "invariants", "<5>")
    assert transferred == cli_out("gw", "transfer", "--min-poly", "x-5", "<x>", "--json")


@settings(max_examples=200, deadline=None)
@given(_nonzero, _nonzero)
def test_mul_reps_matches_squarefree_of_the_product(a, b):
    a, b = QQ.normalize(a), QQ.normalize(b)
    assert QQ.mul_reps(a, b) == gw._squarefree(a * b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3000, max_value=3000).filter(bool), max_size=12))
def test_bilinear_hasse_witt_matches_pairwise_product(values):
    entries = [QQ.normalize(v) for v in values]
    for p in gw._relevant_primes(entries) + [3, 5, 7]:
        assert gw._hasse_witt(entries, p) == _pairwise_hasse_witt(entries, p)


# 2, 3, 5, 7; a prime = 1 mod 4 and one = 3 mod 4 in [2^9, 2^11], where the
# gw-equal benchmark puts its Hasse primes; and the first prime past the
# trial-division table
_HASSE_PRIMES = (2, 3, 5, 7, 521, 523, _P1)
# every signed squarefree divisor of 2*3*5*7*521
_CLASSES = sorted(
    s * math.prod(c)
    for s in (1, -1)
    for r in range(6)
    for c in itertools.combinations((2, 3, 5, 7, 521), r)
)


@st.composite
def _hasse_entry(draw):
    """A nonzero integer of absolute value at most 2^40: a power p^e, e <= 3,
    of one of the Hasse primes times a cofactor, so squares are common."""
    p = draw(st.sampled_from(_HASSE_PRIMES))
    e = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=1, max_value=2**40 // p**e))
    return draw(st.sampled_from((1, -1))) * p**e * m


# 2-adic units = 1, 3, 5, 7 mod 8 at valuations 0-3
_TWO_ADIC = [u * 2**v for u in (1, 3, 5, 7) for v in range(4)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_hasse_entry(), max_size=40))
@example([])
@example([-1, 2, 11, -13])  # k = 0 at every odd prime
@example([12, -5, 7**3, 11])  # k = 1 at 3, 5 and 7; 12 and 7^3 are not squarefree
@example([15, -21, 35 * 9, 2])  # k = 2 at 3, 5 and 7, with an even valuation at each
@example([105, -105 * 8, 105 * 5**2, 11])  # k = 3 at 3, 5 and 7
@example([521, 523 * 521, -(521**3), 523 * _P1, -3 * _P1**2])  # k = 3, 2, 1 and one p^2
@example(_TWO_ADIC)
@example([-a for a in _TWO_ADIC])
@example([(-1) ** i * a for i, a in enumerate(_TWO_ADIC)])
def test_closed_form_hasse_witt_matches_pairwise_product(entries):
    for p in _HASSE_PRIMES:
        assert gw._hasse_witt(entries, p) == _pairwise_hasse_witt(entries, p), p


def test_closed_form_hasse_witt_rejects_a_zero_entry():
    """With a ValueError, as hilbert_symbol does, rather than dividing zero
    by p forever."""
    for p in (2, 3):
        with pytest.raises(ValueError):
            gw._hasse_witt([5, 0], p)


_nonzero_40 = st.integers(min_value=-(2**40), max_value=2**40).filter(bool)


@settings(max_examples=300, deadline=None)
@given(_nonzero_40, _nonzero_40, st.sampled_from(_HASSE_PRIMES))
@example(Fraction(3, 8), 3, 2)  # read as 24, the class of 6: (6, 3)_2 = 1, (3, 3)_2 = -1
def test_hilbert_symbol_matches_the_per_pair_formula(a, b, p):
    n = Fraction(a).numerator * Fraction(a).denominator
    assert gw.hilbert_symbol(a, b, p) == _hilbert_symbol_oracle(n, b, p)


def _oracle_primes(*entries):
    return sorted({2}.union(*(sympy.primefactors(a) for a in entries)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_hasse_entry(), max_size=20), st.lists(_hasse_entry(), min_size=1, max_size=20))
@example([2, 6, 10, -3, 15, -5, 7], [-6, 14])
@example([521, 569], [1, 521 * 569])
def test_invariants_hasse_matches_the_pairwise_product(pos, neg):
    e = gw.GWElement(QQ, pos, neg)
    assume(e.neg)
    assert e.invariants().hasse == {
        p: _pairwise_hasse_witt(e.pos, p) * _pairwise_hasse_witt(e.neg, p)
        for p in _oracle_primes(*e.pos, *e.neg)
    }


# ---------------------------------------------------------------------------
# is_equal (Hasse-Minkowski)
# ---------------------------------------------------------------------------


def _hasse_minkowski(left, right):
    """Equality of two genuine diagonal forms of squarefree entries over Q:
    rank, signature, discriminant and the pairwise Hasse-Witt product at
    every prime dividing an entry, and at 2."""
    return (
        len(left) == len(right)
        and sum(a < 0 for a in left) == sum(a < 0 for a in right)
        and gw._squarefree(math.prod(left) * math.prod(right)) == 1
        and all(
            _pairwise_hasse_witt(left, p) == _pairwise_hasse_witt(right, p)
            for p in _oracle_primes(*left, *right)
        )
    )


@st.composite
def _same_rank_signature_discriminant(draw):
    """Two lists of classes with the same length, the same number of
    negative entries and the same discriminant, and a third, subtracted from
    both sides."""
    left = draw(st.lists(st.sampled_from(_CLASSES), min_size=1, max_size=10))
    negatives = min(sum(a < 0 for a in left), len(left) - 1)
    head = draw(st.lists(st.sampled_from([a for a in _CLASSES if a > 0]),
                         min_size=len(left) - 1, max_size=len(left) - 1))
    head = [-a if i < negatives else a for i, a in enumerate(head)]
    right = head + [gw._squarefree(math.prod(left) * math.prod(head))]
    common = draw(st.lists(st.sampled_from(_CLASSES), max_size=4))
    return left, right, common


# the 20 primes of [32, 128), from which the gw-equal benchmark builds its entries
_GW_EQUAL_PRIMES = [p for p in range(32, 128) if sympy.isprime(p)]


def _gw_equal_rank32(equal):
    """A rank-32 pair built as the gw-equal benchmark builds one.  The left
    side holds 24 signed products of three primes from [32, 128), two pairs
    <s u^2, s v^2> with u^2 + v^2 prime, and <1, 1, 521, 569>; 569 is a
    non-residue mod 521 = 1 mod 4.  The right side turns each pair <a, b>
    into <a + b, ab(a + b)>, scales every entry by a square, and holds
    <2, 2> and <4 * 569, 521> if equal, else <2, 2, 1, 521 * 569>."""
    q = _GW_EQUAL_PRIMES
    s = [(-1) ** i * q[3 * i % 20] * q[(3 * i + 1) % 20] * q[(3 * i + 2) % 20]
         for i in range(26)]
    pairs = [(s[0], s[0] * 36), (s[1] * 16, s[1] * 25)]  # 1 + 36 = 37, 16 + 25 = 41
    left = [v for pair in pairs for v in pair] + s[2:] + [1, 1, 521, 569]
    right = [v for a, b in pairs for v in (a + b, a * b * (a + b))] + s[2:]
    right = [v * (i % 5 + 1) ** 2 for i, v in enumerate(right)]
    right += [2, 2] + ([4 * 569, 521] if equal else [1, 521 * 569])
    return left, right[::-1]


@settings(max_examples=300, deadline=None)
@given(_same_rank_signature_discriminant())
@example(([1, 1], [2, 2], []))
@example(([2, 3], [1, 6], [5]))
@example(([2, 7, -5], [1, 14, -5], [-1, 7]))
@example(([1, 1, 521, 569], [2, 2, 569, 521], [3]))  # a gw-equal equal pair
@example(([1, 1, 521, 569], [2, 2, 1, 521 * 569], [3]))  # and an unequal one
@example((*_gw_equal_rank32(True), [3, 3, -7]))
@example((*_gw_equal_rank32(False), [3, 3, -7]))
def test_is_equal_matches_a_pairwise_hasse_minkowski_decision(forms):
    left, right, common = forms
    assert sum(a < 0 for a in left) == sum(a < 0 for a in right)
    expected = _hasse_minkowski(left, right)
    assert gw.is_equal(gw.diag_form(left), gw.diag_form(right)) is expected
    # Witt cancellation: classes on both sides change nothing
    assert gw.is_equal(gw.diag_form(left + common), gw.diag_form(right + common)) is expected
    a = gw.diag_form(left) - gw.diag_form(common)
    b = gw.diag_form(right) - gw.diag_form(common)
    assert gw.is_equal(a, b) is expected


def test_gw_equal_rank32_pairs_are_decided_as_built():
    assert _hasse_minkowski(*_gw_equal_rank32(True))
    assert not _hasse_minkowski(*_gw_equal_rank32(False))


@pytest.mark.parametrize(
    "left, right, uncancelled",
    [
        ([3, 3, 1], [3, 2, 6], [1, 2, 3, 6]),  # one 3 cancels, one is left
        ([1, 1, 7, 7, 7], [7, 2, 7, 2, 7], [1, 2]),
        ([6, 10, 15, 1], [1, 6, 10, 15], []),
        (*_gw_equal_rank32(True), None),
        (*_gw_equal_rank32(False), None),
    ],
)
def test_is_equal_factors_only_the_classes_that_do_not_cancel(monkeypatch, left, right,
                                                               uncancelled):
    """Each distinct class left after multiset cancellation is factored once,
    and no other (every pair here passes the signature and discriminant
    tests); the list is a Counter difference when not given."""
    a, b = gw.diag_form(left), gw.diag_form(right)
    if uncancelled is None:
        L, R = Counter(a.pos), Counter(b.pos)
        uncancelled = sorted((L - R) | (R - L))
    factor, factored = gw.factorint, []

    def counting(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(gw, "factorint", counting)
    gw.is_equal(a, b)
    assert sorted(factored) == uncancelled


@pytest.mark.parametrize("equal", [True, False])
def test_diag_form_of_gw_equal_entries_factors_nothing(monkeypatch, equal):
    """gw-equal entries are products of primes below 2^12 times at most a
    cofactor below 2^24: the primorial gcds strip them, and no integer is
    handed to ``factorint``."""
    left, right = _gw_equal_rank32(equal)
    values = [v * k * k for k, v in enumerate(left + right, 2)]
    factor, factored = gw.factorint, []

    def counting(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(gw, "factorint", counting)
    form = gw.diag_form(values)
    assert factored == []
    assert sorted(form.pos) == sorted(map(_sympy_squarefree, values))


def test_is_equal_basic_identities():
    assert gw.is_equal(_form(1, -1), _form(2, -2))
    assert gw.is_equal(_form(1, 1), _form(2, 2))
    assert not gw.is_equal(_form(1), _form(-1))
    assert not gw.is_equal(_form(1), _form(5))
    assert not gw.is_equal(_form(1), _form(1, 1))


def test_is_equal_on_virtual_elements():
    assert gw.is_equal(_form(2) - _form(1) - _form(-2), -_form(-1))
    assert gw.is_equal(_form(36) - _form(1) - _form(36) * _form(-1), -_form(-1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-60, max_value=60).filter(lambda a: a != 0),
    st.integers(min_value=-60, max_value=60).filter(lambda b: b != 0),
)
def test_chain_relation(a, b):
    """<a> + <b> = <a+b> + <ab(a+b)> whenever a + b is nonzero."""
    if a + b == 0:
        return
    lhs = _form(a, b)
    rhs = _form(a + b, a * b * (a + b))
    assert gw.is_equal(lhs, rhs)


def test_is_equal_prime_field():
    F7 = gw.FieldCtx.prime_field(7)
    a = gw.diag_form([3, 5], F7)  # both nonresidues, disc = residue
    b = gw.diag_form([1, 2], F7)
    assert gw.is_equal(a, b)
    assert not gw.is_equal(a, gw.diag_form([1, 3], F7))
    # rank 2/disc 1 pins the class over F_p regardless of representatives
    c = gw.diag_form([6, 6], F7)
    assert gw.is_equal(a, c)


def test_is_equal_rejects_mixed_contexts():
    F7 = gw.FieldCtx.prime_field(7)
    with pytest.raises(ContextMismatchError):
        gw.is_equal(_form(1), gw.diag_form([1], F7))


# ---------------------------------------------------------------------------
# Q(t) and specialization
# ---------------------------------------------------------------------------


def _qt(text):
    return gw.parse_gw(f"<{text}>", QT)


def test_specialize_drops_exact_t_power():
    assert gw.specialize(_qt("t")) == _form(1)
    assert gw.specialize(_qt("3*t^2")) == _form(3)
    assert gw.specialize(_qt("5")) == _form(5)
    assert gw.specialize(_qt("t*(1+t)/(2-t)")) == _form(2)
    assert gw.specialize(_qt("1/t")) == _form(1)


def test_specialize_requires_qt_context():
    with pytest.raises(ContextMismatchError):
        gw.specialize(_form(3))


def test_specialize_is_multiplicative():
    rng = random.Random(99)
    consts = [1, 2, 3, 5, -1, -2, 7]
    for _ in range(50):
        a = _qt(f"{rng.choice(consts)}*t^{rng.randint(0, 3)}*({rng.randint(1, 5)}+t)")
        b = _qt(f"{rng.choice(consts)}*t^{rng.randint(0, 3)}/({rng.randint(1, 5)}-t)")
        lhs = gw.specialize(a * b)
        rhs = gw.specialize(a) * gw.specialize(b)
        assert gw.is_equal(lhs, rhs)


def test_specialize_is_additive():
    a = _qt("t") + _qt("3*t^2") - _qt("7")
    assert gw.specialize(a) == _form(1, 3) - _form(7)


def test_ratfunc_common_factors_cancel():
    """A class over Q((t)) is stored as (parity of t, squarefree u(0)), so a
    factor that numerator and denominator share, or a square, leaves no trace."""
    assert _qt("(1+t)/(1+t)") == _qt("1") == gw.GWElement.unit(QT)
    assert _qt("(1+t)/(1+t)").pos == ((0, 1),)
    e = _qt("(2+t)*(1+t)/((1+t)*(3-t))")
    assert e == _qt("(2+t)/(3-t)") == _qt("6")
    assert gw.specialize(e) == _form(6)
    assert _qt("1+t") * _qt("1/(1+t)") == gw.GWElement.unit(QT)
    # t^3 / t leaves an even power of t
    assert _qt("t^3*(1+t)/(t*(2-t))").pos == ((0, 2),)
    assert _qt("4*t^2") - _qt("1") == gw.GWElement.zero(QT)


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def test_trace_form_gram_gaussian_integers():
    g = (1, 0, 1)  # x^2 + 1
    gram = gw.trace_form_gram(g, (1,))
    assert gram == [[2, 0], [0, -2]]


_X = sympy.Poly(sympy.Symbol("x"), domain=sympy.QQ)


def _sympy_poly(coeffs):
    """A polynomial in x over QQ, from ascending rational coefficients."""
    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], _X.gen, domain=sympy.QQ)


def _product(p, q):
    """The product of two polynomials given by ascending coefficients, in
    sympy's arithmetic, as ascending coefficients."""
    coeffs = (_sympy_poly(p) * _sympy_poly(q)).all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def _trace_by_multiplication(g, h):
    """Trace of multiplication by h on the power basis of Q[x]/(g), in
    sympy's arithmetic: the sum of the coefficients of x^j in h * x^j mod g."""
    column, trace = h.rem(g), sympy.Rational(0)
    for j in range(g.degree()):
        trace += column.nth(j)
        column = (column * _X).rem(g)
    return Fraction(int(trace.p), int(trace.q))


_SMALL = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_SMALL, min_size=1, max_size=5),
    st.one_of(_SMALL, st.lists(st.fractions(-3, 3, max_denominator=4), max_size=7)),
)
@example([1, 0], [1])  # x^2 + 1
@example([0, 0, 0], [0, 1])  # x^3, not a field
@example([-1, 0], 3)  # x^2 - 1 = (x - 1)(x + 1)
def test_trace_form_gram_matches_multiplication_by_x(low, c):
    """The traces read off the quotient's normal forms are the
    multiplication traces, entry for entry, for every monic g, reducible or
    not, and every residue c; the oracle reduces mod g with sympy's
    ``Poly.rem``, not with ``poly``."""
    g = _sympy_poly(low + [1])
    d = g.degree()
    residue = _sympy_poly([c] if isinstance(c, int) else c)
    x_power = _sympy_poly([1])
    want = []
    for _ in range(2 * d - 1):
        want.append(_trace_by_multiplication(g, residue * x_power))
        x_power = x_power * _X
    gram = gw.trace_form_gram(low + [1], c)
    assert gram == [[want[i + j] for j in range(d)] for i in range(d)]
    assert all(type(v) is Fraction for row in gram for v in row)


def test_transfer_known_extensions():
    gauss = (1, 0, 1)  # x^2 + 1
    sqrt2 = (-2, 0, 1)  # x^2 - 2
    e1 = gw.diag_form([1], gw.FieldCtx.extension(gauss))
    assert sorted(gw.transfer(e1).pos) == [-2, 2]
    e2 = gw.diag_form([1], gw.FieldCtx.extension(sqrt2))
    assert sorted(gw.transfer(e2).pos) == [1, 2]


def test_transfer_trivial_extension_is_identity():
    for c in (7, -3, 2, 5, -1):
        g = (-5, 1)  # x - 5, a degree-one extension
        ext = gw.FieldCtx.extension(g)
        e = gw.diag_form([c], ext)
        assert gw.transfer(e) == _form(c)


def test_transfer_rank_scales_by_degree():
    g = (1, 0, 1)
    ext = gw.FieldCtx.extension(g)
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 4)
        e = gw.diag_form([1] * k, ext) - gw.diag_form([(0, 1)], ext)
        assert gw.transfer(e).rank == 2 * e.rank


def test_parse_gw_reads_extension_entries_in_x():
    g = (1, 0, 1)  # x^2 + 1
    ext = gw.FieldCtx.extension(g)
    e = gw.parse_gw("<1, x> - <x^3 + 2>", ext)
    want = gw.diag_form([1, (0, 1)], ext) - gw.diag_form([(2, -1)], ext)
    assert e == want
    assert gw.parse_gw("<1/2>", ext) == gw.diag_form([Fraction(1, 2)], ext)


def test_transfer_rejects_reducible_polynomial():
    with pytest.raises(InvalidExtensionError):
        gw.FieldCtx.extension((-1, 0, 1))  # x^2 - 1


def test_transfer_checks_the_field_of_its_element():
    with pytest.raises(ContextMismatchError):
        gw.transfer(_form(1))
    # g is read off the field of e
    assert gw.transfer(gw.diag_form([1], gw.FieldCtx.extension([1, 0, 1]))) == _form(2, -2)


def _refuses(g) -> bool:
    try:
        gw.FieldCtx.extension(g)
    except InvalidExtensionError:
        return True
    return False


# small rationals often give a discriminant with only one square part
_rational = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12)
) | st.builds(
    Fraction,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=1, max_value=2**20),
)


@st.composite
def _monic_quadratics(draw):
    """x^2 + b*x + c as ascending coefficients: half split, half random."""
    if draw(st.booleans()):
        r, s = draw(_rational), draw(_rational)
        return (r * s, -(r + s), Fraction(1))
    return (draw(_rational), draw(_rational), Fraction(1))


@settings(max_examples=300, deadline=None)
@given(_monic_quadratics())
@example((Fraction(1), Fraction(0), Fraction(1)))  # x^2 + 1
@example((Fraction(-2), Fraction(0), Fraction(1)))  # x^2 - 2
@example((Fraction(-1, 4), Fraction(0), Fraction(1)))  # x^2 - 1/4
@example((Fraction(-1, 8), Fraction(0), Fraction(1)))  # x^2 - 1/8, discriminant 1/2
@example((Fraction(0), Fraction(0), Fraction(1)))  # x^2, discriminant 0
@example((Fraction(0), Fraction(1), Fraction(1)))  # x^2 + x
@example((Fraction(1, 9), Fraction(2, 3), Fraction(1)))  # (x + 1/3)^2
def test_quadratic_irreducibility_matches_sympy(g):
    x = sympy.Symbol("x")
    sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(g)], x)
    assert _refuses(g) == (not sym.is_irreducible)


def test_higher_degree_irreducibility_keeps_sympys_answers():
    assert not _refuses((-2, 0, 0, 1))  # x^3 - 2
    assert not _refuses((1, 0, 0, 0, 1))  # x^4 + 1, reducible mod every prime
    assert _refuses((4, 0, 0, 0, 1))  # x^4 + 4, no rational root


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


def test_diagonalize_hyperbolic_gram():
    e = gw.diagonalize([[0, 1], [1, 0]])
    assert gw.is_equal(e, _form(1, -1))


def test_diagonalize_matches_determinant_class():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4))
        det = _det(m)
        if det == 0:
            with pytest.raises(DegenerateFormError):
                gw.diagonalize(m)
            continue
        e = gw.diagonalize(m)
        prod = Fraction(1)
        for c in e.pos:
            prod *= c
        assert QQ.normalize(prod) == QQ.normalize(det)


def _det(m):
    n = len(m)
    rows = [list(r) for r in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det


def test_diagonalize_rejects_nonsymmetric_and_singular():
    with pytest.raises(ValueError):
        gw.diagonalize([[0, 1], [2, 0]])
    # a zero facing a nonzero, which a check of one side's nonzeros would miss
    with pytest.raises(ValueError):
        gw.diagonalize([[1, 0], [3, 1]])
    with pytest.raises(DegenerateFormError):
        gw.diagonalize([[1, 1], [1, 1]])


def test_diagonalize_prime_field():
    F7 = gw.FieldCtx.prime_field(7)
    e = gw.diagonalize([[0, 1], [1, 0]], F7)
    assert e.rank == 2
    assert gw.is_equal(e, gw.diag_form([1, -1], F7))


@pytest.mark.parametrize("ctx", [QQ, gw.FieldCtx.prime_field(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("impl", [gw.diagonalize, gw.congruence_pivots])
def test_non_numeric_entries_are_not_read_as_zero(impl, ctx):
    """Only a value that compares equal to 0 is a zero entry.  None and ""
    are falsy but no number, so a read by truth value alone would take them
    for zeros; a float is no exact rational, unless it is zero."""
    for gram, error in [
        ([[None]], TypeError),
        ([[1, None], [None, 1]], TypeError),
        ([[""]], ValueError),
        ([["x"]], ValueError),
        ([[0.5]], TypeError),
    ]:
        with pytest.raises(error):
            impl(gram, ctx)
    for zero in (0.0, False, "0"):
        with pytest.raises(DegenerateFormError):
            impl([[zero]], ctx)
        assert impl([[zero, 1], [1, zero]], ctx) == impl([[0, 1], [1, 0]], ctx)
    assert impl([["1/2"]], ctx) == impl([[Fraction(1, 2)]], ctx)
    assert impl([[True, "1/2"], ["1/2", 3]], ctx) == impl([[1, Fraction(1, 2)], [Fraction(1, 2), 3]], ctx)


class _QOps:
    zero = Fraction(0)

    @staticmethod
    def of(v):
        return Fraction(v)

    @staticmethod
    def is_zero(v):
        return v == 0

    @staticmethod
    def div(a, b):
        return a / b


class _FpOps:
    def __init__(self, p):
        self.p = p
        self.zero = 0

    def of(self, v):
        fr = Fraction(v)
        den = fr.denominator % self.p
        if den == 0:
            raise ValueError("denominator vanishes in the prime field")
        return fr.numerator * pow(den, -1, self.p) % self.p

    def is_zero(self, v):
        return v % self.p == 0

    def div(self, a, b):
        return a * pow(b % self.p, -1, self.p) % self.p


def _full_elimination(gram, ctx):
    """The raw pivots, in order, of a congruence diagonalization by
    full-matrix elimination, the oracle for ``gw.congruence_pivots``: the
    same pivot rule, but every row operation and its column operation run
    over the whole matrix, and F_p entries are left unreduced."""
    ops = _QOps() if ctx == QQ else _FpOps(ctx.p)
    n = len(gram)
    a = [[ops.of(v) for v in row] for row in gram]
    diag = []
    for k in range(n):
        pivot = next((j for j in range(k, n) if not ops.is_zero(a[j][j])), None)
        if pivot is None:
            found = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if not ops.is_zero(a[i][j])),
                None,
            )
            if found is None:
                raise DegenerateFormError(f"matrix has rank {k} < {n}; the form is degenerate")
            i, j = found
            for col in range(n):
                a[i][col] = a[i][col] + a[j][col]
            for row in range(n):
                a[row][i] = a[row][i] + a[row][j]
            pivot = i
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            for row in a:
                row[k], row[pivot] = row[pivot], row[k]
        d = a[k][k]
        for r in range(k + 1, n):
            if ops.is_zero(a[r][k]):
                continue
            f = ops.div(a[r][k], d)
            for col in range(n):
                a[r][col] = a[r][col] - f * a[k][col]
            for row in range(n):
                a[row][r] = a[row][r] - f * a[row][k]
        diag.append(d)
    return diag


_DIAG_FIELDS = [QQ] + [gw.FieldCtx.prime_field(p) for p in (3, 5, 7)]
# denominators are powers of 2, so every entry is defined in each F_p
_entry = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 4]))


@st.composite
def _symmetric(draw, shape="any", singular=False):
    """A symmetric matrix.  "hyperbolic" is [[0, B], [B^T, 0]];
    "antidiagonal" has its nonzeros on the antidiagonal; "sparse" is up to
    14x14 with about 15% of the off-diagonal entries and a mostly zero
    diagonal; "involution" has nonzeros only at (i, s(i)) for a random
    involution s, the pattern of a Brieskorn-Pham Gram matrix.  With
    ``singular`` a row and its column are repeated, so the matrix is
    singular over every field."""
    if shape == "hyperbolic":
        h = (draw(st.integers(min_value=1, max_value=6)) + 1) // 2
        b = [[draw(_entry) for _ in range(h)] for _ in range(h)]
        m = [
            [b[i][j - h] if i < h <= j else b[j][i - h] if j < h <= i else Fraction(0)
             for j in range(2 * h)]
            for i in range(2 * h)
        ]
    else:
        n = draw(st.integers(min_value=1, max_value=14 if shape == "sparse" else 6))
        partner = list(range(n))
        if shape == "involution":
            perm = draw(st.permutations(range(n)))
            for k in range(draw(st.integers(min_value=0, max_value=n // 2))):
                a, b = perm[2 * k], perm[2 * k + 1]
                partner[a], partner[b] = b, a
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if shape == "antidiagonal":
                    keep = i + j == n - 1
                elif shape == "involution":
                    keep = partner[i] == j
                elif shape == "sparse":
                    keep = draw(st.integers(min_value=0, max_value=99)) < (5 if i == j else 15)
                else:
                    keep = True
                if keep:
                    m[i][j] = m[j][i] = draw(_entry)
    if singular:
        src = draw(st.integers(min_value=0, max_value=len(m) - 1))
        m = [row + [row[src]] for row in m]
        m.append(list(m[src]))
    return m


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _antidiagonal(values):
    n = len(values)
    return [[values[i] if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]


# the Thom-Sebastiani pattern of x^3 + y^4: a Kronecker product of antidiagonals
_E6_PATTERN = _kron(_antidiagonal([3, 3]), _antidiagonal([4, -2, 4]))
_PALINDROME = [(-1) ** k * (k % 5 + 1) for k in range(180)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_DIAG_FIELDS),
    st.one_of(
        _symmetric(),
        _symmetric("hyperbolic"),
        _symmetric("antidiagonal"),
        _symmetric("sparse"),
        _symmetric("involution"),
    ),
)
@example(QQ, [[0, 1], [1, 0]])
@example(gw.FieldCtx.prime_field(3), [[0, 0, 1], [0, 0, 2], [1, 2, 0]])
@example(QQ, [[0, 0, 0, 5], [0, 0, 3, 0], [0, 3, 0, 0], [5, 0, 0, 0]])
# the Scheja-Storch Gram matrix of the D5 singularity x^2*y + y^4 (tests/test_ekl.py)
@example(QQ, [[0, 0, 0, 0, -2], [0, 0, 0, 8, 0], [0, 0, -2, 0, 0], [0, 8, 0, 0, 0], [-2, 0, 0, 0, 0]])
@example(QQ, _E6_PATTERN)
@example(gw.FieldCtx.prime_field(7), _E6_PATTERN)
# the shape of a Brieskorn-Pham Gram matrix with mu = 360: every other pivot
# needs a row addition, and the next pivot's diagonal entry is made by a row
# update
@example(QQ, _antidiagonal(_PALINDROME + _PALINDROME[::-1]))
def test_diagonalize_matches_full_elimination(ctx, gram):
    try:
        want = _full_elimination(gram, ctx)
    except DegenerateFormError:
        # a random matrix may be singular, most often over a small F_p
        with pytest.raises(DegenerateFormError):
            gw.diagonalize(gram, ctx)
        return
    if ctx != QQ:
        want = [d % ctx.p for d in want]
    # the same pivots in the same order, not only the same class
    assert gw.congruence_pivots(gram, ctx) == want
    assert gw.diagonalize(gram, ctx) == gw.GWElement(ctx, pos=want)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_DIAG_FIELDS),
    st.one_of(
        _symmetric(singular=True),
        _symmetric("sparse", singular=True),
        _symmetric("involution", singular=True),
    ),
)
@example(QQ, [[0, 0], [0, 0]])
@example(gw.FieldCtx.prime_field(5), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
def test_diagonalize_rejects_singular_like_full_elimination(ctx, gram):
    for impl in (_full_elimination, gw.diagonalize):
        with pytest.raises(DegenerateFormError):
            impl(gram, ctx)


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def _rational_symmetric(draw):
    """A dense symmetric matrix of rationals with denominators up to 9,
    possibly with a zero diagonal, which forces the pivot rule's row
    addition."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.builds(Fraction, st.integers(min_value=-20, max_value=20), st.integers(1, 9))
    zero_diagonal = draw(st.booleans())
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            m[i][j] = m[j][i] = draw(entry)
    return m


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    _rational_symmetric(), _symmetric(), _symmetric("hyperbolic"), _symmetric("sparse"),
))
@example([[0, 1], [1, 0]])
@example([[Fraction(1, 3), 2], [2, Fraction(-5, 7)]])
@example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
def test_diagonalize_matches_sympy_charpoly(gram):
    """Signature and discriminant of ``diagonalize`` against sympy.

    A real symmetric matrix has only real eigenvalues, so by Descartes' rule
    the sign changes of the characteristic polynomial p(t) count the positive
    ones and those of p(-t) the negative ones.  The pivots of a congruence
    multiply to the determinant exactly, and the discriminant is its square
    class."""
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, row)]
                      for row in gram])
    det = Fraction(int(m.det().p), int(m.det().q))
    assume(det != 0)
    coeffs = m.charpoly().all_coeffs()  # highest degree first
    n = len(gram)
    positive = _sign_changes(coeffs)
    negative = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(coeffs)])
    assert positive + negative == n

    e = gw.diagonalize(gram)
    assert e.rank == n
    assert e.signature() == positive - negative
    assert math.prod(gw.congruence_pivots(gram)) == det
    ratio = det / e.discriminant().rep
    assert ratio > 0
    assert math.isqrt(ratio.numerator) ** 2 == ratio.numerator
    assert math.isqrt(ratio.denominator) ** 2 == ratio.denominator


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_round_trip():
    e = _form(1, 2) - _form(3)
    assert gw.parse_gw("<1, 2> - <3>", QQ) == e
    assert gw.parse_gw("⟨8⟩", QQ) == _form(2)
    assert gw.parse_gw("0", QQ) == gw.GWElement.zero()
    assert repr(e) == "GWElement(Q, '<1> + <2> - <3>')"


F7 = gw.FieldCtx.prime_field(7)
EXT = gw.FieldCtx.extension((1, 0, 1))  # Q[x]/(x^2 + 1)


def _trimmed(coeffs):
    """Ascending coefficients with no trailing zero, as a tuple."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


_UV = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=4
).map(_trimmed).filter(bool)
_ENTRIES = {
    QQ: st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool),
    F7: st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(
        lambda v: v.numerator % 7 and v.denominator % 7
    ),
    QT: st.tuples(_UV, _UV),
    EXT: _UV.filter(lambda v: not _sympy_poly(v).rem(_sympy_poly(EXT.min_poly)).is_zero),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_format_terms_parses_back(data):
    """The one text syntax reads back through the one grammar, over every field."""
    ctx = data.draw(st.sampled_from(list(_ENTRIES)))
    entries = st.lists(_ENTRIES[ctx], max_size=4)
    e = gw.GWElement(ctx, data.draw(entries), data.draw(entries))
    for unicode_brackets in (True, False):
        assert gw.parse_gw(gw.format_terms(e, unicode_brackets), ctx) == e


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool))
@example(Fraction(8))
@example(Fraction(-3, 2))
def test_constant_entry_is_the_same_rational_over_every_field(c):
    """Over Q, over Q(t) and as an extension residue, a constant entry is c."""
    for text in (str(c), f"({c.numerator})/({c.denominator})", f"-(-{c.numerator}/{c.denominator})"):
        assert gw.parse_gw(f"<{text}>", QQ) == _form(c)
        assert gw.parse_gw(f"<{text}>", QT).pos == ((0, QQ.normalize(c)),)
        assert gw.parse_gw(f"<{text}>", EXT).pos == ((c,),)


@pytest.mark.parametrize(
    "text, pos, neg",
    [
        # Fraction's grammar rejected these; the expression grammar reads them
        ("<2^3>", [8], []),
        ("<(1+2)/3>", [1], []),
        ("<- 3, 3/-2>", [-3, Fraction(-3, 2)], []),
        # a '+' after a '-' no longer resets the sign to +
        ("<1> - + <2>", [1], [2]),
        ("- + <1>", [], [1]),
        # unchanged: double negation, empty groups, a signed zero
        ("<1> - - <2>", [1, 2], []),
        ("<> + <3>", [3], []),
        ("-0", [], []),
    ],
)
def test_form_expression_readings(text, pos, neg):
    assert gw.parse_gw(text, QQ) == _form(*pos) - _form(*neg)


@pytest.mark.parametrize(
    "text, ctx, at",
    [
        # decimal, exponent and underscore literals, once read by Fraction
        ("<0.5>", QQ, 2),
        ("<1e3>", QQ, 2),
        ("<1_000>", QQ, 2),
        ("<2, 0.5>", F7, 5),
        ("<1e3>", F7, 2),
        # groups with no sign between them, and a trailing sign
        ("<1> <2>", QQ, 4),
        ("⟨1⟩⟨2⟩", QQ, 3),
        ("<1> +", QQ, 5),
        ("<1> - <2> -", QQ, 11),
        # unchanged errors, now at the offending token
        ("<1,>", QQ, 3),
        ("<1", QQ, 2),
        ("<t>", QQ, 1),
        ("<1/0>", QQ, 2),
        ("<0>", QQ, 1),
        ("<x/(1+x)>", EXT, 1),
        ("", QQ, 0),
    ],
)
def test_malformed_forms_name_a_position(text, ctx, at):
    with pytest.raises(ParseError) as info:
        gw.parse_gw(text, ctx)
    assert info.value.position == at


_Q2 = gw.FieldCtx.extension([-2, 0, 1])  # Q[x]/(x^2 - 2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: gw.FieldCtx.prime_field(4096), ValueError),  # even, above the prime table
        (lambda: gw.factorint(0), ValueError),
        (lambda: gw.FieldCtx.extension([5]), InvalidExtensionError),  # degree 0
        (lambda: gw.FieldCtx.extension([1, 2]), InvalidExtensionError),  # not monic
        (lambda: gw.FieldCtx("extension"), InvalidExtensionError),  # no minimal polynomial
        (lambda: gw.diag_form([0], _Q2), ValueError),
        (lambda: QQ.least_nonresidue(), UnsupportedInvariantError),
        (lambda: QT.normalize(0), ValueError),
        (lambda: QT.normalize(((1,), ())), ZeroDivisionError),
        (lambda: gw.diag_form([1]) + 1, TypeError),
        (lambda: 2.5 * gw.GWElement.unit(), TypeError),  # only an int scales an element
        (lambda: gw.is_equal(1, 2), TypeError),
        (lambda: gw.diag_form([(0, 1)], QT).discriminant(), UnsupportedInvariantError),
        (lambda: gw.diagonalize([[1]], QT), UnsupportedInvariantError),
        (lambda: gw.hilbert_symbol(0, 3, 3), ValueError),
        (lambda: gw.hilbert_symbol(2, 3, 4), ValueError),  # p not prime
        (lambda: gw.FieldCtx.prime_field(7.0), ValueError),  # p not an int
        # a float is a binary fraction, never read as a rational
        (lambda: gw.diag_form([0.1]), TypeError),
        (lambda: gw.diag_form([0.5]), TypeError),
        (lambda: gw.diag_form([0.5], gw.FieldCtx.prime_field(7)), TypeError),
        (lambda: gw.hilbert_symbol(0.5, 3, 3), TypeError),
        (lambda: gw.FieldCtx.extension([0.5, 1]), TypeError),
        (lambda: gw.diag_form([(1, 0.5)], _Q2), TypeError),
        (lambda: P.Polynomial(1, {(1,): 0.5}), TypeError),
        (lambda: P.Polynomial.constant(1, 0.5), TypeError),
        (lambda: P.Polynomial.monomial(1, (1,), 0.5), TypeError),
        (lambda: tate.TateMap.identity(tate.TateObject([(0, 0)])).scale(0.5), TypeError),
        (lambda: tate.TateMap(tate.TateObject([(0, 0)]), tate.TateObject([(0, 0)]), [[0.5]]),
         TypeError),
        # a context is checked for its kind, and for p and g where they belong,
        # before the checks of that kind
        (lambda: gw.FieldCtx("bogus"), ValueError),  # unknown kind
        (lambda: gw.FieldCtx("rationals", p=7), ValueError),  # p outside a prime field
        (lambda: gw.FieldCtx("extension", p=7), ValueError),
        (lambda: gw.FieldCtx("rational-functions", min_poly=(1,)), ValueError),
        (lambda: gw.FieldCtx("prime-field", p=7, min_poly=(1,)), ValueError),
        # the direct constructor checks g as FieldCtx.extension does
        (lambda: gw.FieldCtx("extension", min_poly=(-1, 0, 1)), InvalidExtensionError),
        (lambda: gw.FieldCtx("extension", min_poly=(1, 0, 2)), InvalidExtensionError),
        (lambda: gw.FieldCtx("extension", min_poly=(5,)), InvalidExtensionError),
        (lambda: gw.is_equal(gw.GWElement.unit(_GAUSS), gw.GWElement.unit(_GAUSS)),
         UnsupportedInvariantError),
        # a nonzero polynomial whose residue is zero has no square class
        (lambda: gw.diag_form([(-2, 0, 1)], _Q2), ValueError),
    ],
)
def test_invalid_field_data_and_operands_are_rejected(call, error):
    with pytest.raises(error):
        call()


_GAUSS = gw.FieldCtx.extension((1, 0, 1))  # Q[x]/(x^2 + 1)
_FLOAT = TypeError("a float is not an exact rational: 0.5")


def _string_coefficients(text):
    return TypeError(f"coefficients must be a sequence of numbers, not the string {text!r}")


@pytest.mark.parametrize(
    "call, expected",
    [
        # once <(1 + 2*t)/(1)>, which specializes to <1>
        (lambda: gw.GWElement(QT, pos=["12"]), gw.GWElement(QT, pos=[12])),
        (lambda: gw.specialize(gw.GWElement(QT, pos=["12"])), gw.diag_form([3])),
        # once <1 + 2*x>
        (lambda: gw.GWElement(_GAUSS, pos=["12"]), gw.GWElement(_GAUSS, pos=[12])),
        (lambda: gw.trace_form_gram((1, 0, 1), "12"), gw.trace_form_gram((1, 0, 1), 12)),
        # once ValueError: Invalid literal for Fraction: '/'
        (lambda: gw.GWElement(QT, pos=["1/3"]), gw.GWElement(QT, pos=[Fraction(1, 3)])),
        (lambda: gw.GWElement(_GAUSS, pos=["1/3"]), gw.GWElement(_GAUSS, pos=[Fraction(1, 3)])),
        # once "'float' object is not iterable"
        (lambda: gw.GWElement(QT, pos=[0.5]), _FLOAT),
        (lambda: gw.GWElement(_GAUSS, pos=[0.5]), _FLOAT),
        # once <2>; over F_5 it already raised
        (lambda: gw.diagonalize([[0.5]]), _FLOAT),
        (lambda: gw.diagonalize([[0.5]], gw.FieldCtx.prime_field(5)), _FLOAT),
        # once read digit by digit: Q[x]/(x + 1), and the trace form of x^2 + 1
        (lambda: gw.FieldCtx("extension", min_poly="11"), _string_coefficients("11")),
        (lambda: gw.FieldCtx.extension("11"), _string_coefficients("11")),
        (lambda: gw.trace_form_gram("101", 1), _string_coefficients("101")),
    ],
)
def test_outside_numbers_are_read_by_one_rule(call, expected):
    """A string is one number, a tuple or a list a coefficient sequence, and
    a float a TypeError, over every field and in every reader."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() == expected


def test_contexts_and_elements_behave_as_values():
    assert repr(_Q2) == "FieldCtx(Q[x]/(x^2 - 2))"
    with pytest.raises(ContextMismatchError, match=r"Q\[x\]/\(x\^2 - 2\) and Q$"):
        gw.diag_form([(0, 1)], _Q2) + gw.diag_form([1])
    assert gw.GWElement.unit(QT) == gw.parse_gw("<1>", QT)
    # an int, a Fraction and a coefficient list are each read as an element of Q(t)
    mixed = gw.GWElement(QT, pos=[3, Fraction(1, 2), (0, 1)])
    assert mixed == gw.parse_gw("<3, 1/2, t>", QT)
    assert hash(gw.diag_form([2, 3])) == hash(gw.diag_form([3, 2]))
    assert gw.diag_form([2]) * 3 == 3 * gw.diag_form([2])
    # k * e is |k| additions of e, or of -e for k < 0
    for e in (gw.diag_form([2, 3]) - gw.diag_form([-1]), gw.parse_gw("<t, 1 + t> - <2>", QT)):
        for k in range(-3, 4):
            total = gw.GWElement.zero(e.ctx)
            for _ in range(abs(k)):
                total = total + (e if k >= 0 else -e)
            assert k * e == e * k == total
    # a string is read exactly
    assert gw.diag_form(["1/3"]) == gw.diag_form([3])


def test_json_round_trip():
    e = _form(2) - _form(-3, 5)
    assert gw.to_json_dict(e) == {"field": "Q", "pos": [2], "neg": [-3, 5]}
    F11 = gw.FieldCtx.prime_field(11)
    f = gw.diag_form([2, 6], F11)
    d = gw.to_json_dict(f)
    assert d["field"] == "Fp:11"
    assert gw.GWElement(F11, d["pos"], d["neg"]) == f


def test_parse_ratfunc_expressions():
    e = _qt("(1+t)^2/(2-t)")
    assert e.pos == ((0, 2),)
    e = _qt("t^3/(1+t)")
    assert e.rank == 1
    assert e.pos == ((1, 1),)


def test_extension_residues_print_without_plus_minus():
    """Residues and the label's g print as poly.format_poly does, largest
    term first, and the label's g reads back to the same context."""
    e = gw.parse_gw("<1 - x, -2*x - 3>", _GAUSS)
    assert repr(e) == "GWElement(Q[x]/(x^2 + 1), '<-2*x - 3> + <-x + 1>')"
    f = gw.parse_gw("<-x^2 + 1/2 - x/3>", gw.FieldCtx.extension((-2, 0, 0, 1)))
    assert gw.format_terms(f) == "⟨-x^2 - 1/3*x + 1/2⟩"
    assert _GAUSS.label() == "Q[x]/(x^2 + 1)"
    assert gw.FieldCtx.extension(gw.parse_poly_in_x("x^2 + 1")) == _GAUSS


@pytest.mark.parametrize(
    "rep, text",
    [
        ((0, 1), "1"),
        ((0, -3), "-3"),
        ((1, 1), "t"),
        ((1, -1), "-t"),
        ((1, -6), "-6*t"),
        ((1, 2), "2*t"),
    ],
)
def test_qt_classes_print_as_c_times_a_power_of_t(rep, text):
    assert QT.rep_str(rep) == text
    assert gw.parse_gw(f"<{text}>", QT).pos == (rep,)


# ---------------------------------------------------------------------------
# Q((t)): canonical classes, and equality through the residue forms
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_UV, _UV)
@example((1, 1), (2,))
def test_qt_classes_ignore_squares_and_even_powers_of_t(u, v):
    """<u * v^2>, <u / v^2> and <t^2 * u> are <u> as stored values, since a
    class over Q((t)) is (parity of t, squarefree u(0))."""
    unit = gw.GWElement(QT, pos=[u])
    square = _product(v, v)
    assert gw.GWElement(QT, pos=[_product(u, square)]) == unit
    assert gw.GWElement(QT, pos=[(u, square)]) == unit
    assert gw.GWElement(QT, pos=[(0, 0, *u)]) == unit


def _laurent(m, c):
    """c * t^m as a coefficient tuple."""
    return (0,) * m + (c,)


def _witt_oracle(left, right):
    """Equality of two genuine forms over Q((t)), given as (m, c) for
    <c * t^m>: equal ranks and, for each parity, residue forms that are
    isometric once the shorter is padded with hyperbolic planes <1, -1>."""
    if len(left) != len(right):
        return False
    for m in (0, 1):
        a = [c for parity, c in left if parity == m]
        b = [c for parity, c in right if parity == m]
        k, odd = divmod(len(a) - len(b), 2)
        if odd:
            return False
        a, b = a + [1, -1] * max(-k, 0), b + [1, -1] * max(k, 0)
        if not _hasse_minkowski(a, b):
            return False
    return True


_QT_CLASS = st.tuples(st.integers(0, 1), st.sampled_from(_CLASSES))


@st.composite
def _qt_forms(draw):
    """Two genuine forms over Q((t)) of one rank, and a third subtracted from
    both: either drawn freely, or one core with hyperbolic planes
    <c * t^m, -c * t^m> of independent parities added on each side, so that
    both verdicts occur."""
    common = draw(st.lists(_QT_CLASS, max_size=3))
    left = draw(st.lists(_QT_CLASS, max_size=6))
    if draw(st.booleans()):
        return left, draw(st.lists(_QT_CLASS, min_size=len(left), max_size=len(left))), common
    planes = draw(st.lists(st.tuples(_QT_CLASS, _QT_CLASS), max_size=3))
    right = left + [e for (m, c), _ in planes for e in ((m, c), (m, -c))]
    left = left + [e for _, (m, c) in planes for e in ((m, c), (m, -c))]
    return left, right, common


@settings(max_examples=200, deadline=None)
@given(_qt_forms())
@example(([(1, 1), (1, -1)], [(0, 1), (0, -1)], []))
@example(([(1, 1), (1, 1)], [(0, 1), (0, 1)], []))
def test_qt_is_equal_matches_the_residue_form_oracle(forms):
    left, right, common = forms
    expected = _witt_oracle(left, right)

    def element(entries):
        return gw.GWElement(QT, pos=[_laurent(m, c) for m, c in entries])

    a, b, c = element(left), element(right), element(common)
    assert gw.is_equal(a, b) is expected
    assert gw.is_equal(a - c, b - c) is expected
