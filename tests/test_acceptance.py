"""Acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE Cn <label>: PASS/FAIL" line directly to the terminal, bypassing
capture, so a full `pytest -v` run leaves a visible audit trail.  All
comparisons are exact; the only tolerances are the stated wall-clock
budgets.
"""

from __future__ import annotations

import io
import json
import random
import time
from fractions import Fraction

from quadsing import cli
from quadsing import conductor as cond
from quadsing import ekl, euler, gw, tate
from quadsing import poly as P


def _form(*entries):
    return gw.diag_form([Fraction(a) for a in entries])


def _report(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE C{number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_c1_ekl_examples(capsys):
    t0 = time.perf_counter()
    node = ekl.quadratic_milnor(ekl.singularity("x^2 - y^2", ("x", "y")))
    t_node = time.perf_counter() - t0
    t0 = time.perf_counter()
    cusp = ekl.quadratic_milnor(ekl.singularity("x^2 - y^3", ("x", "y")))
    t_cusp = time.perf_counter() - t0
    ok = (
        gw.is_equal(node, _form(-1))
        and gw.is_equal(cusp, _form(1, -1))
        and t_node < 1.0
        and t_cusp < 1.0
    )
    _report(capsys, 1, "quadratic Milnor numbers of the node and cusp", ok)


def test_c2_conductor_gw_identities(capsys):
    first = _form(2) - _form(1) - _form(2) * _form(-1)
    second = _form(36) - _form(1) - _form(36) * _form(-1)
    ok = gw.is_equal(first, -_form(-1)) and gw.is_equal(second, -_form(-1))
    _report(capsys, 2, "conductor right-hand sides collapse to -<-1>", ok)


def test_c3_quadric_full_gw_check(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        s = cond.split_quadric_singularity(n)
        ok = ok and gw.is_equal(
            cond.rhs_conductor(s), cond.lhs_conductor_quadric(n)
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(capsys, 3, "split-quadric conductor identity for n = 1..5", ok)


def test_c4_rank_realization_grid(capsys):
    ok = True
    for n in (1, 2, 3):
        names = tuple(f"x{i}" for i in range(n + 1))
        for r in (2, 3, 4):
            src = " + ".join(f"{v}^{r}" for v in names)
            rhs = cond.rhs_conductor(ekl.singularity(src, names))
            expected = (-1) ** n * (r - 1) ** (n + 1)
            ok = ok and rhs.rank == cond.lhs_rank_general(r, n) == expected
    _report(capsys, 4, "rank grid matches the classical Milnor formula", ok)


def test_c5_milnor_orlik_weighted_ranks(capsys):
    battery = [
        ("x^2 - y^3", (3, 2), 6),
        ("x^2 - y^5", (5, 2), 10),
        ("x^3 - y^4", (4, 3), 12),
    ]
    ok = True
    for src, weights, r in battery:
        f = P.parse(src, ("x", "y"))
        ok = ok and P.is_quasi_homogeneous(f, weights, r)
        s = ekl.singularity(src, ("x", "y"), weights=weights, degree=r)
        mu_rank = ekl.quadratic_milnor(s).rank
        product = euler.milnor_rank_weighted(weights, r)
        groebner_dim = P.groebner(P.partials(f)).dimension
        ok = ok and mu_rank == product == groebner_dim
    _report(capsys, 5, "weighted ranks against the Milnor-Orlik product", ok)


def test_c6_gw_property_suite(capsys):
    rng = random.Random(20240801)
    ok = True
    count = 0
    while count < 100:
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if a == 0 or b == 0 or a + b == 0:
            continue
        count += 1
        ok = ok and gw.is_equal(
            _form(a, b), _form(a + b, a * b * (a + b))
        )

    g = (-5, 1)
    ext = gw.FieldCtx.extension(g)
    for c in (7, -3, 2):
        ok = ok and gw.transfer(gw.diag_form([c], ext)) == _form(c)

    qt = gw.RATIONAL_FUNCTIONS
    ok = ok and gw.specialize(gw.parse_gw("<3*t^2>", qt)) == _form(3)

    consts = [1, 2, 3, 5, -1, -2, 7]
    for _ in range(50):
        a = gw.parse_gw(
            f"<{rng.choice(consts)}*t^{rng.randint(0, 3)}*({rng.randint(1, 5)}+t)>",
            qt,
        )
        b = gw.parse_gw(
            f"<{rng.choice(consts)}*t^{rng.randint(0, 3)}/({rng.randint(1, 5)}-t)>",
            qt,
        )
        ok = ok and gw.is_equal(
            gw.specialize(a * b), gw.specialize(a) * gw.specialize(b)
        )
    _report(capsys, 6, "chain relation, transfer, and specialization laws", ok)


def test_c7_monodromy_suite(capsys):
    ok = True
    for n in range(2, 11, 2):
        ok = ok and tate.variation_quadric(n).kind == "zero"
    for n in range(1, 10, 2):
        v = tate.variation_quadric(n)
        ok = ok and v.kind == "factored" and v.scalar == -1

    N = tate.kummer_monodromy()
    ok = ok and not N.is_zero()
    ok = ok and tate.compose(N.twist(-1), N).is_zero()

    for n in range(1, 7):
        total = tate.quadric_motive(n).k0_twists()
        expect = {0: 1, -n: 1}
        if n >= 2:
            for tw, c in tate.quadric_motive(n - 2).k0_twists().items():
                expect[tw - 1] = expect.get(tw - 1, 0) + c
        ok = ok and total == {tw: c for tw, c in expect.items() if c}
    _report(capsys, 7, "variation parity, Kummer nilpotency, K0 census", ok)


def test_c8_byte_determinism(capsys):
    probes = [
        ["conductor", "--json", "--vars", "x,y", "--degree", "2", "x^2 - y^2"],
        ["conductor", "--json", "--vars", "x,y", "--degree", "3", "x^3 + y^3"],
        ["conductor", "--json", "--vars", "x,y", "--weights", "3,2",
         "--degree", "6", "x^2 - y^3"],
        ["milnor", "--json", "--vars", "x,y", "x^2*y + y^4"],
        ["monodromy", "--json", "--quadratic", "--dimension", "3"],
        ["monodromy", "--json", "--quadratic", "--dimension", "4"],
        ["euler", "--json", "--degree", "4", "--ambient", "3"],
        ["gw", "invariants", "--json", "<1,2> - <3>"],
    ]

    def run_suite() -> bytes:
        chunks = []
        for argv in probes:
            out = io.StringIO()
            code = cli.run(list(argv), stdout=out)
            assert code == 0
            chunks.append(out.getvalue())
        return "\n".join(chunks).encode()

    first = run_suite()
    second = run_suite()
    ok = first == second and len(first) > 0
    # every chunk must be valid JSON as well
    for argv in probes:
        out = io.StringIO()
        cli.run(list(argv), stdout=out)
        json.loads(out.getvalue())
    _report(capsys, 8, "byte-identical JSON across consecutive runs", ok)
