"""Each correctness check of the benchmark rejects a deliberately wrong answer."""

import json
from fractions import Fraction as F
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "src" / "quadsing" / "schemas"


def sparse(rows):
    return {(i, j): F(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}


# x^2 - y^3: weights 1/2, 1/3; basis 1, y; Gram [[0, -6], [-6, 0]]; class <3> + <-3>
GOOD = {"basis": ((0, 0), (0, 1)), "gram": sparse([[0, -6], [-6, 0]]), "pos": (-3, 3), "neg": ()}
WEIGHTS = (F(1, 2), F(1, 3))


def test_a_right_milnor_answer_passes_every_check():
    assert checks.check_gram(GOOD, WEIGHTS) is None
    assert checks.check_invariants(GOOD, checks.brieskorn_pham_class([(2, 1), (3, -1)])) is None
    assert checks.check_against_gram(GOOD) is None


def test_asymmetric_gram_is_rejected():
    bad = dict(GOOD, gram=sparse([[0, -6], [-5, 0]]))
    assert "symmetric" in checks.check_gram(bad, WEIGHTS)


def test_entry_off_the_socle_degree_is_rejected():
    bad = dict(GOOD, gram=sparse([[1, -6], [-6, 0]]))
    assert "socle" in checks.check_gram(bad, WEIGHTS)


def test_rank_other_than_milnor_orlik_is_rejected():
    bad = dict(GOOD, pos=(-3, 3, 1))
    assert "Milnor-Orlik" in checks.check_gram(bad, WEIGHTS)


def test_thom_sebastiani_closed_form():
    assert checks.brieskorn_pham_class([(2, 1), (3, -1)]) == (2, 0, -1)
    # x^12 - 2*y^13 is 66 hyperbolic planes; 2*x^2 + 3*y^2 is <4> + <6>
    assert checks.brieskorn_pham_class([(12, 1), (13, -2)]) == (132, 0, 1)
    assert checks.brieskorn_pham_class([(2, 2), (2, 3)]) == (1, 1, 24)
    expected = checks.brieskorn_pham_class([(2, 1), (3, -1)])
    assert "signature" in checks.check_invariants(dict(GOOD, pos=(3, 3)), expected)
    assert "discriminant" in checks.check_invariants(dict(GOOD, pos=(1, -2)), expected)


def test_global_class_is_rejected_where_the_local_one_is_asked():
    # x^3 - x: the origin is not critical; today's answer is <6> + <-6>
    assert checks.check_local_class({"pos": (6, -6), "neg": ()}, 0, None) is not None
    assert checks.check_local_class({"pos": (), "neg": ()}, 0, None) is None
    # x^2 - y^2 + y^3: a Morse point with det Hess = -4
    assert checks.check_local_class({"pos": (-1,), "neg": ()}, 1, -4) is None
    assert checks.check_local_class({"pos": (1,), "neg": ()}, 1, -4) is not None
    assert checks.check_local_class({"pos": (-1, 3), "neg": ()}, 1, -4) is not None


def test_charpoly_signature_and_determinant():
    signature, det = checks.gram_invariants(sparse([[2, 1, 0], [1, 2, 0], [0, 0, -1]]), 3)
    assert (signature, det) == (1, -3)
    signature, det = checks.gram_invariants(sparse([[F(1, 2), 0], [0, F(-1, 3)]]), 2)
    assert (signature, det) == (0, F(-1, 6))
    assert checks.check_against_gram(dict(GOOD, pos=(1, 1))) is not None
    assert checks.check_against_gram(dict(GOOD, pos=(1, -2))) is not None


def test_gw_equal_verdicts_follow_the_construction():
    w = workloads.GwEqual(0, ROOT)
    items = w.round(0) + w.round(1)
    assert sorted(item.data["equal"] for item in items) == [False] * 3 + [True] * 3
    for item in items:
        left, right = item.data["left"], item.data["right"]
        lr, ls, ld = checks.form_invariants(left, ())
        rr, rs, rd = checks.form_invariants(right, ())
        assert (lr, ls) == (rr, rs) and checks.same_square_class(ld, rd)
        assert w.check(item, item.data["equal"]) is None
        assert w.check(item, not item.data["equal"]) is not None


def test_cli_checks_reject_wrong_outputs():
    schema = json.loads((SCHEMAS / "gw_element.schema.json").read_text())
    right = b'{"field": "Q", "neg": [], "pos": [-2, 2]}'
    assert checks.check_cli("gw-transfer", 0, right, schema) is None
    assert "exit code" in checks.check_cli("gw-transfer", 1, right, schema)
    assert "not JSON" in checks.check_cli("gw-transfer", 0, b"<1> + <-1>", schema)
    assert "schema" in checks.check_cli("gw-transfer", 0, b'{"field": "Q", "pos": [-2, 2]}', schema)
    assert checks.check_cli("gw-transfer", 0, b'{"field": "Q", "neg": [], "pos": [1, 2]}', schema)
    assert checks.check_cli("gw-equal-true", 0, b'{"equal": false}', None)
    assert checks.check_cli("gw-invariants", 0, json.dumps(
        {"rank": 2, "signature": 2, "discriminant": "6", "hasse": {"2": 1, "3": -1}}).encode(), None)
    assert checks.check_cli("milnor-small", 0, json.dumps(
        {"dimension": 2, "form": {"field": "Q", "pos": [1, 1], "neg": []}}).encode(), None)


def test_cli_repeat_with_different_output_is_rejected():
    w = workloads.CliCold(0, ROOT)
    item = workloads.Item("gw-equal-true", {})
    assert w.check(item, (0, b'{"equal": true}\n')) is None
    assert w.check(item, (0, b'{"equal": true}\n')) is None
    assert "differs" in w.check(item, (0, b'{"equal":  true}\n'))


def test_local_fault_inputs_do_not_depend_on_the_seed():
    a = [i.data["src"] for i in workloads.MilnorSparse(1, ROOT).round(3) if i.known_fault]
    b = [i.data["src"] for i in workloads.MilnorSparse(2, ROOT).round(3) if i.known_fault]
    assert a == b and len(a) == 3
