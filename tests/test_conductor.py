"""The quadratic conductor formula: right-hand sides, quadric left-hand
sides, rank oracles, and the verification reports."""

from __future__ import annotations

import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quadsing import conductor as cond
from quadsing import cli, ekl, euler, gw
from quadsing import poly as P
from quadsing.errors import InadmissibleWeightsError, InputDomainError, NotIsolatedError

XY = ("x", "y")


def _form(*entries):
    return gw.diag_form([Fraction(a) for a in entries])


def _sing(src, names=XY, **kw):
    return ekl.singularity(src, names, **kw)


# ---------------------------------------------------------------------------
# multiplier and rhs
# ---------------------------------------------------------------------------


def test_multiplier_homogeneous():
    assert cond.conductor_multiplier(_sing("x^2 - y^2")) == 2
    assert cond.conductor_multiplier(_sing("x^3 + y^3")) == 3
    # declared weights (1, 1) multiply r by 1
    assert cond.conductor_multiplier(_sing("x^2 - y^2", weights=(1, 1), degree=2)) == 2


def test_multiplier_weighted_uses_weight_product():
    s = _sing("x^2 - y^3", weights=(3, 2), degree=6)
    assert cond.conductor_multiplier(s) == 36


def test_multiplier_needs_a_degree():
    with pytest.raises(InputDomainError):
        cond.conductor_multiplier(_sing("x^3 - x*y"))


def test_rhs_ordinary_double_point():
    rhs = cond.rhs_conductor(_sing("x^2 - y^2"))
    # <2> - <1> + (-<2>)^1 * <-1> = <2> - <1> - <-2>
    assert rhs == _form(2) - _form(1) - _form(-2)
    assert gw.is_equal(rhs, -_form(-1))


def test_rhs_weighted_cusp():
    rhs = cond.rhs_conductor(_sing("x^2 - y^3", weights=(3, 2), degree=6))
    # w = 36 is a square, so <w> - <1> drops and (-<1>)^1 mu^q remains
    assert gw.is_equal(rhs, -_form(1, -1))
    assert rhs.rank == -2


def test_rhs_smooth_point_is_zero():
    rhs = cond.rhs_conductor(_sing("x + y"))
    assert rhs.rank == 0
    assert gw.is_equal(rhs, gw.GWElement.zero())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: the weighted multiplier r * prod(weights) depends on the "
    "scale of the declared grading",
)
@pytest.mark.parametrize(
    "src, grading, scaled",
    [
        ("x^2 + y^3", ((3, 2), 6), ((6, 4), 12)),
        ("x^3 + y^3", ((1, 1), 3), ((3, 3), 9)),
    ],
)
def test_rhs_does_not_depend_on_the_scale_of_the_grading(src, grading, scaled):
    """A grading and its multiple describe one singularity, so they should
    give one right-hand side; today they give -<1> - <-1> against
    -<1> - <-2>, and -2<1> - <-1> - <-3> against -2<1> - 2<-1>."""
    (weights, degree), (weights2, degree2) = grading, scaled
    rhs = cond.rhs_conductor(_sing(src, weights=weights, degree=degree))
    assert gw.is_equal(rhs, cond.rhs_conductor(_sing(src, weights=weights2, degree=degree2)))


# ---------------------------------------------------------------------------
# quadric lhs and the rank oracle
# ---------------------------------------------------------------------------


def test_lhs_conductor_quadric_values():
    expected = [
        -_form(-1),
        _form(-1),
        -_form(1),
        _form(1),
        -_form(-1),
    ]
    for n, e in enumerate(expected, start=1):
        assert gw.is_equal(cond.lhs_conductor_quadric(n), e)


def test_lhs_rank_general_values():
    assert cond.lhs_rank_general(2, 1) == -1
    assert cond.lhs_rank_general(3, 1) == -4
    assert cond.lhs_rank_general(3, 2) == 8
    # classical closed form (-1)^n (r-1)^(n+1)
    for r in (2, 3, 4):
        for n in (1, 2, 3):
            assert cond.lhs_rank_general(r, n) == (-1) ** n * (r - 1) ** (n + 1)


def test_split_model_matches_quadric_lhs():
    for n in range(1, 5):
        s = cond.split_quadric_singularity(n)
        assert gw.is_equal(cond.rhs_conductor(s), cond.lhs_conductor_quadric(n))


def test_plus_fermat_quadric_is_not_split_for_small_n():
    # x0^2 + x1^2 has anisotropic milnor form over Q; the split-model lhs
    # comparison must not be applied to it
    s = _sing("x^2 + y^2")
    gram = cond.quadratic_form_gram(s.f)
    e = gw.diagonalize([list(r) for r in gram])
    assert not cond.is_split_form(e)


# ---------------------------------------------------------------------------
# split detection
# ---------------------------------------------------------------------------


def test_is_split_form():
    assert cond.is_split_form(_form(1, -1))
    assert cond.is_split_form(_form(2, -2, 3, -3))
    assert cond.is_split_form(_form(5))
    assert not cond.is_split_form(_form(1, 1))
    assert not cond.is_split_form(_form(2, 3))


def test_quadratic_form_gram():
    f = P.parse("x^2 + 3*x*y - y^2", XY)
    gram = cond.quadratic_form_gram(f)
    assert [list(r) for r in gram] == [
        [1, Fraction(3, 2)],
        [Fraction(3, 2), -1],
    ]
    with pytest.raises(InputDomainError):
        cond.quadratic_form_gram(P.parse("x^3", XY))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def test_verify_ordinary_double_point():
    report = cond.verify(_sing("x^2 - y^2"))
    assert report.verdicts == {"gw": True, "rank": True}
    assert report.lhs_rank == -1
    assert gw.is_equal(report.rhs, -_form(-1))


def test_verify_split_quadric_surface_point():
    report = cond.verify(cond.split_quadric_singularity(2))
    assert report.verdicts["gw"] is True
    assert report.verdicts["rank"] is True


def test_verify_weighted_cusp_checks_rank_only():
    report = cond.verify(_sing("x^2 - y^3", weights=(3, 2), degree=6))
    assert report.verdicts["gw"] == "skipped"
    assert report.verdicts["rank"] is True
    assert report.lhs_rank == -2


def test_verify_anisotropic_quadric_skips_gw():
    report = cond.verify(_sing("x^2 + y^2"))
    assert report.verdicts["gw"] == "skipped"
    assert report.verdicts["rank"] is True
    assert any("split" in note for note in report.notes)


def test_verify_fermat_cubic_rank():
    report = cond.verify(_sing("x^3 + y^3"))
    assert report.verdicts["rank"] is True
    assert report.lhs_rank == -4
    assert report.rhs.rank == -4


def test_verify_smooth_input_skips_everything():
    report = cond.verify(_sing("x + y"))
    assert report.verdicts == {"gw": "skipped", "rank": "skipped"}


_COPRIME_WEIGHTS = [(a, b) for a in range(1, 6) for b in range(1, 6)
                    if a != b and math.gcd(a, b) == 1]


@st.composite
def _verifiable_inputs(draw):
    """A homogeneous form in two variables of degree 2 to 5 or in three of
    degree 2 or 3, coefficients in [-4, 4]; or a binary form of declared
    coprime weights a != b in [1, 5] and degree a*b*k, k in {1, 2}, over the
    monomials x^i y^j with a*i + b*j = r, coefficients in [-3, 3]."""
    if draw(st.booleans()):
        nvars = draw(st.sampled_from([2, 3]))
        r = draw(st.integers(2, 5 if nvars == 2 else 3))
        weights, degree, bound = (1,) * nvars, None, 4
    else:
        nvars = 2
        a, b = draw(st.sampled_from(_COPRIME_WEIGHTS))
        r = a * b * draw(st.sampled_from([1, 2]))
        weights, degree, bound = (a, b), r, 3
    monomials = [e for e in itertools.product(range(r + 1), repeat=nvars)
                 if sum(w * k for w, k in zip(weights, e)) == r]
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=len(monomials),
                           max_size=len(monomials)))
    f = P.Polynomial(nvars, {e: c for e, c in zip(monomials, coeffs) if c})
    names = ("x", "y", "z")[:nvars]
    return ekl.singularity(f, names, None if degree is None else weights, degree)


@settings(max_examples=100, deadline=None)
@given(_verifiable_inputs())
def test_verify_checks_the_conductor_identity_at_rank_level(s):
    """The paper's conductor identity, at rank level on random input: every
    singular input that verify reads has a rank verdict, and it is true; a
    GW verdict that ran is true as well."""
    try:
        report = cond.verify(s)
    except (NotIsolatedError, InputDomainError, InadmissibleWeightsError) as exc:
        event(f"skipped: {type(exc).__name__}")
        return
    if report.rhs.rank == 0:
        assert report.verdicts == {"gw": "skipped", "rank": "skipped"}
        return
    assert report.verdicts["rank"] is True
    assert report.lhs_rank == report.rhs.rank
    assert report.verdicts["gw"] is not False
    event(f"gw verdict: {report.verdicts['gw']}")
    if report.verdicts["gw"] is True:
        assert gw.is_equal(report.rhs, report.lhs_full)


def _conductor_json(*argv):
    out = io.StringIO()
    code = cli.run(["conductor", "--json", *argv], stdout=out)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("names, src", [("x,y,z", "x^2 + y^2"), ("x,y", "x^2")])
def test_a_degenerate_quadric_is_not_isolated(names, src):
    """Its singular locus is positive-dimensional, so verify stops in the
    quadratic Milnor number before it reads the quadratic form of f."""
    with pytest.raises(NotIsolatedError):
        cond.verify(_sing(src, tuple(names.split(",")), degree=2))
    code, doc = _conductor_json("--vars", names, "--degree", "2", src)
    assert code == 1
    assert doc["error"]["code"] == "not-isolated"


@pytest.mark.parametrize(
    "argv, note",
    [
        (["--vars", "x,y,z", "--weights", "3,2,1", "x^2 + y^3 + z^6"],
         "weighted multiplier w = r * product(weights) is extrapolated beyond two variables"),
        (["--vars", "x,y", "--degree", "3", "x^2 - y^2 + y^3"],
         "f is not homogeneous and no weights were given; no lhs realization applies"),
        (["--vars", "x", "x^2"],
         "rank-level lhs needs degree >= 2 and at least two variables"),
        (["--vars", "x", "x^3"], "gw-level lhs needs at least two variables"),
        (["--vars", "x", "--degree", "2", "x^2"], "gw-level lhs needs at least two variables"),
    ],
)
def test_reports_say_why_a_check_was_skipped(argv, note):
    code, doc = _conductor_json(*argv)
    assert code == 0
    assert note in doc["notes"]


@pytest.mark.parametrize("argv", [["--vars", "x", "x^3"], ["--vars", "x", "--degree", "2", "x^2"]])
def test_one_variable_reports_do_not_contradict_their_verdicts(argv):
    """With one variable both checks are skipped for n = 0, so no note may
    claim a rank-level check or blame the splitness of the quadric pair."""
    code, doc = _conductor_json(*argv)
    assert code == 0
    assert doc["verdicts"] == {"gw": "skipped", "rank": "skipped"}
    assert not [note for note in doc["notes"]
                if "checked at rank level" in note or "not split over Q" in note]


def test_report_json_shape():
    report = cond.verify(_sing("x^2 - y^2"))
    d = report.to_json_dict()
    assert set(d) == {"input", "rhs", "lhs_full", "rank", "verdicts", "notes"}
    assert d["rank"] == {"lhs": -1, "rhs": -1}
    assert d["input"]["vars"] == ["x", "y"]
    assert d["rhs"]["field"] == "Q"


def test_every_report_names_its_lhs_convention():
    for s in (_sing("x^2 - y^2"), _sing("x^3 + y^3"),
              _sing("x^2 - y^3", weights=(3, 2), degree=6)):
        report = cond.verify(s)
        assert any("convention" in note for note in report.notes)


@pytest.mark.parametrize("w", [2, 3, 6, -5])
@pytest.mark.parametrize("n", range(7))
def test_assembled_rhs_matches_the_power_of_minus_w(w, n):
    """(-<w>)^n, read off the parity of n, equals the n-fold product, over Q
    and, after transfer, over Q[x]/(x^2 + 1)."""
    gauss = gw.FieldCtx.extension([1, 0, 1])
    for mu, push in ((_form(1, -3, 2) - _form(7), lambda e: e),
                     (gw.parse_gw("<1, x> - <x + 2>", gauss), gw.transfer)):
        wcls = gw.diag_form([w], mu.ctx)
        want = wcls - gw.diag_form([1], mu.ctx) + (-wcls) ** n * mu
        assert gw.is_equal(push(cond._assemble_rhs(w, n, mu)), push(want))


# ---------------------------------------------------------------------------
# transfer of per-point contributions
# ---------------------------------------------------------------------------


def test_transfer_point_trivial_extension():
    g = (0, 1)  # x itself: the residue field is Q
    ext = gw.FieldCtx.extension(g)
    mu = gw.diag_form([-1], ext)
    out = cond.transfer_conductor_point(mu, 2, 1)
    assert gw.is_equal(out, -_form(-1))


def test_transfer_point_gaussian():
    g = (1, 0, 1)  # x^2 + 1
    ext = gw.FieldCtx.extension(g)
    mu = gw.diag_form([1], ext)
    out = cond.transfer_conductor_point(mu, 2, 1)
    assert out.rank == -2
    assert gw.is_equal(out, -_form(2) - _form(-2))


def test_transfer_point_errors_keep_their_codes():
    mu = gw.diag_form([1], gw.FieldCtx.extension([1, 0, 1]))  # over Q[x]/(x^2 + 1)
    with pytest.raises(InputDomainError, match="degree must be positive"):
        cond.transfer_conductor_point(mu, 0, 1)
    # once the ValueError of GWElement.__pow__
    with pytest.raises(InputDomainError, match="dimension must be non-negative"):
        cond.transfer_conductor_point(mu, 2, -1)
    with pytest.raises(InputDomainError, match="must live over"):
        cond.transfer_conductor_point(_form(1), 2, 1)


def test_multi_point_additivity():
    """Two rational double points contribute twice the single value."""
    one = cond.rhs_conductor(_sing("x^2 - y^2"))
    assert gw.is_equal(one + one, -2 * _form(-1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cond.lhs_conductor_quadric(0),
        lambda: cond.lhs_rank_general(1, 1),
        lambda: cond.lhs_rank_general(2, 0),
        lambda: cond.is_split_form(gw.diag_form([1]) - gw.diag_form([2])),
        lambda: cond.split_quadric_singularity(-1),
    ],
)
def test_quadric_arguments_out_of_range_are_rejected(call):
    with pytest.raises(InputDomainError):
        call()
