"""Pure Tate objects, hom constraints, the quadric variation, and the
Kummer monodromy matrix."""

from __future__ import annotations

from fractions import Fraction

import pytest

from quadsing import euler, gw, tate
from quadsing.errors import InputDomainError


def _obj(*summands):
    return tate.TateObject(summands)


# ---------------------------------------------------------------------------
# objects and homs
# ---------------------------------------------------------------------------


def test_hom_dim_is_kronecker():
    assert tate.hom_dim((0, 0), (0, 0)) == 1
    assert tate.hom_dim((0, 0), (-1, -2)) == 0
    assert tate.hom_dim((-2, -4), (-2, -4)) == 1


def test_object_equality_is_multiset():
    a = _obj((0, 0), (-1, -2))
    b = _obj((-1, -2), (0, 0))
    assert a == b
    assert a != _obj((0, 0))
    assert a != _obj((0, 0), (0, 0))


@pytest.mark.parametrize("summand", [(0.5, 0), ("1", 0), (0, Fraction(1, 2)), (Fraction(2), 0)])
def test_object_summands_are_integers(summand):
    """A twist or shift that is not an integer is refused, not truncated."""
    with pytest.raises(TypeError):
        tate.TateObject([summand])


def test_twist_and_shift():
    a = _obj((0, 0), (-1, -2))
    assert a.twist(-1).summands == ((-1, 0), (-2, -2))
    assert a.shift(1).summands == ((0, 1), (-1, -1))


def test_quadric_motive_decomposition():
    assert tate.quadric_motive(3).summands == (
        (0, 0),
        (-1, -2),
        (-2, -4),
        (-3, -6),
    )
    # even-dimensional quadrics carry the doubled middle summand
    q2 = tate.quadric_motive(2)
    assert sorted(q2.summands) == [(-2, -4), (-1, -2), (-1, -2), (0, 0)]


def test_quadric_motive_counts_match_euler_rank():
    for n in range(1, 7):
        assert len(tate.quadric_motive(n).summands) == euler.euler_rank(2, n + 1)


def test_chi_compact_agrees_with_split_quadric_class():
    """chi^c sends 1(a)[b] to (-1)^b * <(-1)^a>; summed over the Tate
    decomposition of the split quadric it is euler.chi_split_quadric."""
    for n in range(0, 7):
        pos, neg = [], []
        for t, s in tate.quadric_motive(n).summands:
            (pos if s % 2 == 0 else neg).append((-1) ** (t % 2))
        a = gw.GWElement(gw.RATIONALS, pos=pos, neg=neg)
        assert gw.is_equal(a, euler.chi_split_quadric(n))


def test_affine_duality():
    """hc of the affine quadric is the dual of h twisted by (-n)[-2n]."""
    for n in range(1, 9):
        h = tate.h_affine(n)
        hc = tate.hc_affine(n)
        dual = _obj(*((-t, -s) for t, s in h.summands))
        assert dual.twist(-n).shift(-2 * n) == hc


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def test_map_rejects_entries_in_vanishing_hom_slots():
    src = _obj((0, 0))
    tgt = _obj((-1, -2))
    with pytest.raises(ValueError):
        tate.TateMap(src, tgt, [[1]])
    # the zero entry is fine
    assert tate.TateMap(src, tgt, [[0]]).is_zero()


def test_identity_and_composition():
    a = _obj((0, 0), (-1, -2))
    ida = tate.TateMap.identity(a)
    assert tate.compose(ida, ida).entries == ida.entries
    z = tate.TateMap.zero(a, a)
    assert tate.compose(ida, z).is_zero()


def test_compose_requires_matching_middle():
    a, b = _obj((0, 0)), _obj((-1, -2))
    f = tate.TateMap.zero(a, b)
    with pytest.raises(ValueError):
        tate.compose(f, f)


def test_scale_and_twist_of_maps():
    a = _obj((0, 0))
    f = tate.TateMap.identity(a).scale(Fraction(-3))
    assert f.entries == ((Fraction(-3),),)
    g = f.twist(-2)
    assert g.source.summands == ((-2, 0),)
    assert g.entries == f.entries


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------


def test_variation_even_is_zero_with_certificate():
    for n in range(2, 11, 2):
        v = tate.variation_quadric(n)
        assert v.kind == "zero"
        assert v.var.is_zero()
        assert v.scalar is None
        # the certificate lists hom slots that vanish for weight reasons
        for s, t in v.certificate:
            assert tate.hom_dim(s, t) == 0


def test_variation_odd_factors_with_scalar_minus_one():
    for n in range(1, 10, 2):
        v = tate.variation_quadric(n)
        assert v.kind == "factored"
        assert v.scalar == -1
        m = (n - 1) // 2
        # factors through the single summand 1(-m-1)[-n]
        assert v.m1.target.summands == ((-(m + 1), -n),)
        recomposed = tate.compose(v.m2_twisted, v.m1.scale(v.scalar))
        assert recomposed.entries == v.var.entries


def test_variation_odd_has_single_nonzero_entry():
    v = tate.variation_quadric(3)
    entries = [c for row in v.var.entries for c in row]
    assert sorted(entries) == [-1, 0, 0, 0]


def test_variation_rejects_nonpositive_dimension():
    with pytest.raises(InputDomainError):
        tate.variation_quadric(0)


# ---------------------------------------------------------------------------
# Kummer
# ---------------------------------------------------------------------------


def test_kummer_matrix():
    N = tate.kummer_monodromy()
    assert N.source.summands == ((0, 0), (-1, 0))
    assert N.target == N.source.twist(-1)
    assert [list(r) for r in N.entries] == [[0, -1], [0, 0]]


def test_kummer_is_nilpotent_of_order_two():
    N = tate.kummer_monodromy()
    NN = tate.compose(N.twist(-1), N)
    assert NN.is_zero()


# ---------------------------------------------------------------------------
# K0 bookkeeping of quadric motives
# ---------------------------------------------------------------------------


def test_k0_twist_census():
    q = tate.quadric_motive(2)
    assert q.k0_twists() == {0: 1, -1: 2, -2: 1}


def test_k0_scissor_identity_for_split_quadrics():
    """Signed twist census of Q_n matches A^n plus a shifted Q_{n-2}."""
    for n in range(1, 7):
        total = tate.quadric_motive(n).k0_twists()
        expect = {0: 1, -n: 1}
        if n >= 2:
            inner = tate.quadric_motive(n - 2).k0_twists()
            for tw, c in inner.items():
                expect[tw - 1] = expect.get(tw - 1, 0) + c
        expect = {tw: c for tw, c in expect.items() if c}
        assert total == expect


# ---------------------------------------------------------------------------
# abstract report
# ---------------------------------------------------------------------------


def test_abstract_report_scalar():
    r = tate.abstract_variation_report(3, 1)
    assert r["identity"] == "-r * var = beta(-1) o alpha"
    assert r["factorization"]["scalar"] == "-1/3"
    assert not r["evaluated"] or r["degree"] != 3


def test_abstract_report_quadratic_case_is_evaluated():
    r = tate.abstract_variation_report(2, 2)
    assert r["evaluated"]
    assert r["quadric_case"]["kind"] == "zero"
    r = tate.abstract_variation_report(2, 3)
    assert r["quadric_case"]["kind"] == "factored"
    assert r["quadric_case"]["scalar"] == "-1"


def test_abstract_report_rejects_degenerate_degrees():
    with pytest.raises(InputDomainError):
        tate.abstract_variation_report(1, 2)
    with pytest.raises(InputDomainError):
        tate.abstract_variation_report(2, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tate.quadric_motive(-1),
        lambda: tate.h_affine(0),
        lambda: tate.hc_affine(0),
    ],
)
def test_quadric_dimensions_out_of_range_are_rejected(call):
    with pytest.raises(InputDomainError):
        call()


def test_objects_and_maps_add_hash_compare_and_print():
    a = _obj((0, 0), (1, 2))
    assert a + _obj((2, 0)) == _obj((0, 0), (1, 2), (2, 0))
    assert hash(a) == hash(_obj((1, 2), (0, 0)))
    assert repr(a) == "TateObject(1(0)[0] + 1(1)[2])"
    assert repr(_obj()) == "TateObject(0)"
    with pytest.raises(ValueError, match="2x2"):
        tate.TateMap(a, a, [[1, 0]])
    assert tate.TateMap.identity(a) == tate.TateMap(a, a, [[1, 0], [0, 1]])
    assert tate.TateMap.identity(a) != tate.TateMap.zero(a, a)
    one = _obj((0, 0))
    assert repr(tate.TateMap.identity(one)) == (
        "TateMap(TateObject(1(0)[0]) -> TateObject(1(0)[0]), ((Fraction(1, 1),),))"
    )
