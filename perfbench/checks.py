"""Correctness checks that do not reuse quadsing's own answers.

Every check returns None when the output is right and a short reason when
it is not.  The reference values come from closed forms (Milnor-Orlik,
Thom-Sebastiani), from the construction of the input, from an exact
characteristic polynomial computed by sympy, or from hand-derived answers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def is_rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q <= 0:
        return False
    n = q.numerator * q.denominator
    return math.isqrt(n) ** 2 == n


def same_square_class(a, b) -> bool:
    return is_rational_square(Fraction(a) * Fraction(b))


def form_invariants(pos, neg) -> tuple[int, int, Fraction]:
    """Rank, signature and a discriminant representative of <pos> - <neg>."""
    sign = lambda v: 1 if v > 0 else -1
    disc = Fraction(1)
    for v in list(pos) + list(neg):
        disc *= Fraction(v)
    rank = len(pos) - len(neg)
    signature = sum(sign(v) for v in pos) - sum(sign(v) for v in neg)
    return rank, signature, disc


# ---------------------------------------------------------------------------
# Milnor forms
# ---------------------------------------------------------------------------


def milnor_orlik(weights) -> int:
    """prod(1/w_i - 1) for weights normalized to weighted degree 1."""
    mu = Fraction(1)
    for w in weights:
        mu *= 1 / Fraction(w) - 1
    if mu.denominator != 1:
        raise ValueError("weights give a non-integral Milnor number")
    return int(mu)


def check_gram(result, weights) -> str | None:
    """Symmetry, weighted grading and rank of a Scheja-Storch Gram matrix.

    ``result`` holds ``basis`` (exponent tuples), ``gram`` (a dict of the
    nonzero entries keyed by index pairs) and ``pos``/``neg`` (the class).
    ``weights`` make f quasi-homogeneous of weighted degree 1, so the socle
    degree is sum(1 - 2 w_i) and only entries of complementary degree pair.
    """
    basis, gram = result["basis"], result["gram"]
    for (i, j), v in gram.items():
        if gram.get((j, i)) != v:
            return f"Gram matrix is not symmetric at ({i}, {j})"
    weights = [Fraction(w) for w in weights]
    socle = sum(1 - 2 * w for w in weights)
    degree = [sum(w * e for w, e in zip(weights, b)) for b in basis]
    for (i, j) in gram:
        if degree[i] + degree[j] != socle:
            return f"entry ({i}, {j}) pairs degrees {degree[i]} + {degree[j]} != socle {socle}"
    mu = milnor_orlik(weights)
    rank = len(result["pos"]) - len(result["neg"])
    if len(basis) != mu or rank != mu:
        return f"dimension {len(basis)} / rank {rank} != Milnor-Orlik {mu}"
    return None


def brieskorn_pham_class(parts) -> tuple[int, int, Fraction]:
    """Rank, signature, discriminant of mu^q(sum c_i x_i^a_i) by Thom-Sebastiani.

    The class of c*x^a is the anti-diagonal form with entries a*c: h
    hyperbolic planes, plus <a*c> when a - 1 is odd.  A product of h1*H + d1
    and h2*H + d2 is (2*h1*h2 + h1*rk d2 + h2*rk d1)*H + d1*d2.
    """
    h, d = 0, Fraction(1)  # start from the unit <1>
    for a, c in parts:
        hk, dk = (a - 1) // 2, (Fraction(a * c) if a % 2 == 0 else None)
        rk, rk_k = (1 if d is not None else 0), (1 if dk is not None else 0)
        h = 2 * h * hk + h * rk_k + hk * rk
        d = d * dk if d is not None and dk is not None else None
    rank = 2 * h + (1 if d is not None else 0)
    signature = (1 if d > 0 else -1) if d is not None else 0
    disc = Fraction((-1) ** h) * (d if d is not None else 1)
    return rank, signature, disc


def check_invariants(result, expected) -> str | None:
    rank, signature, disc = form_invariants(result["pos"], result["neg"])
    e_rank, e_sig, e_disc = expected
    if rank != e_rank:
        return f"rank {rank} != expected {e_rank}"
    if signature != e_sig:
        return f"signature {signature} != expected {e_sig}"
    if not same_square_class(disc, e_disc):
        return f"discriminant {disc} is not in the square class of {e_disc}"
    return None


def check_local_class(result, rank, det) -> str | None:
    """The local class at the origin: 0, or <det Hess f(0)> at a Morse point."""
    got = len(result["pos"]) - len(result["neg"])
    if got != rank:
        return f"rank {got} != local Milnor number {rank}"
    if rank == 1 and not same_square_class(result["pos"][0], det):
        return f"class <{result['pos'][0]}> != <{det}>"
    return None


def gram_invariants(gram: dict, n: int) -> tuple[int, Fraction]:
    """Signature and determinant of a symmetric matrix from its exact charpoly.

    A real symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts the positive ones exactly (and the negative ones from
    p(-x)).  This shares no code with gw.diagonalize.
    """
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    scale = 1
    for v in gram.values():
        scale = math.lcm(scale, Fraction(v).denominator)
    rows = [[ZZ(0)] * n for _ in range(n)]
    for (i, j), v in gram.items():
        rows[i][j] = ZZ(int(Fraction(v) * scale))
    coeffs = [int(c) for c in DomainMatrix(rows, (n, n), ZZ).charpoly()]
    if coeffs[-1] == 0:
        raise ValueError("the Gram matrix is singular")

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    positive = sign_changes(coeffs)
    negative = sign_changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
    if positive + negative != n:
        raise ValueError("characteristic polynomial has roots off the real line")
    det = Fraction((-1) ** n * coeffs[-1], scale**n)
    return positive - negative, det


def check_against_gram(result) -> str | None:
    """Signature and discriminant of the class against those of its Gram matrix."""
    n = len(result["basis"])
    signature, det = gram_invariants(result["gram"], n)
    return check_invariants(result, (n, signature, det))


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def _hyperbolic(form) -> str | None:
    rank, signature, disc = form_invariants(form["pos"], form["neg"])
    if (rank, signature) != (2, 0) or not same_square_class(disc, -1):
        return f"{form} is not <1> + <-1>"
    return None


def _milnor_small(doc):
    if doc["dimension"] != 2:
        return f"dimension {doc['dimension']} != 2"
    return _hyperbolic(doc["form"])


def _milnor_moderate(doc):
    # x^12 - 2*y^13: weights 1/12, 1/13; Thom-Sebastiani gives 66 H.
    result = {
        "basis": [tuple(b) for b in doc["basis"]],
        "gram": {(i, j): Fraction(v) for i, row in enumerate(doc["gram"])
                 for j, v in enumerate(row) if Fraction(v)},
        "pos": doc["form"]["pos"],
        "neg": doc["form"]["neg"],
    }
    return check_gram(result, (Fraction(1, 12), Fraction(1, 13))) or check_invariants(
        result, brieskorn_pham_class([(12, 1), (13, -2)]))


def _conductor(doc):
    if doc["verdicts"] != {"gw": True, "rank": True}:
        return f"verdicts {doc['verdicts']}"
    if doc["rank"] != {"lhs": -1, "rhs": -1}:
        return f"ranks {doc['rank']}"
    # rhs = <2> - <1> - <-2>, lhs = -<-1>
    if form_invariants(doc["rhs"]["pos"], doc["rhs"]["neg"])[:2] != (-1, 1):
        return f"rhs {doc['rhs']}"
    return None


def _equal(expected):
    return lambda doc: None if doc == {"equal": expected} else f"{doc} != equal {expected}"


def _invariants(doc):
    # <2,3>: (2,3)_2 = -1 and (2,3)_3 = (2/3) = -1
    want = {"rank": 2, "signature": 2, "discriminant": "6", "hasse": {"2": -1, "3": -1}}
    got = {k: doc[k] for k in want}
    return None if got == want else f"{got} != {want}"


def _specialize(doc):
    # t*(1+t)/(2-t) = t * u with u(0) = 1/2, in the class of 2
    if len(doc["pos"]) != 1 or doc["neg"] or not same_square_class(doc["pos"][0], 2):
        return f"{doc} != <2>"
    return None


def _euler(doc):
    want = {"dimension": 2, "euler_characteristic": 24, "primitive_hodge": [1, 19, 1]}
    got = {k: doc[k] for k in want}
    return None if got == want else f"{got} != {want} (quartic K3 surface)"


def _monodromy(doc):
    if (doc["kind"], doc["scalar"], doc["dimension"]) != ("factored", -1, 1):
        return f"kind {doc['kind']} scalar {doc['scalar']}: odd dimension factors with -1"
    return None


def _batch(doc):
    # point 0: <2> - <1> - <-2> (rank -1); point 1: Tr_{Q(i)/Q} of a rank -1 class
    kinds = [p["kind"] for p in doc["points"]]
    ranks = [len(p["contribution"]["pos"]) - len(p["contribution"]["neg"]) for p in doc["points"]]
    total = len(doc["total"]["pos"]) - len(doc["total"]["neg"])
    if kinds != ["rational-point", "transfer-point"] or ranks != [-1, -2] or total != -3:
        return f"kinds {kinds} ranks {ranks} total {total}"
    return None


# name -> (argv, schema file or None, value check)
CLI_CALLS = {
    "milnor-small": (["milnor", "--vars", "x,y", "x^2 - y^3"], None, _milnor_small),
    "milnor-moderate": (["milnor", "--vars", "x,y", "x^12 - 2*y^13"], None, _milnor_moderate),
    "conductor": (["conductor", "--vars", "x,y", "--degree", "2", "x^2 - y^2"],
                  "conductor_report.schema.json", _conductor),
    "gw-equal-true": (["gw", "equal", "<1,-1>", "<2,-2>"], None, _equal(True)),
    "gw-equal-false": (["gw", "equal", "<1,1>", "<3,3>"], None, _equal(False)),
    "gw-invariants": (["gw", "invariants", "<2,3>"], None, _invariants),
    "gw-transfer": (["gw", "transfer", "--min-poly", "x^2+1", "<1>"],
                    "gw_element.schema.json", _hyperbolic),
    "gw-specialize": (["gw", "specialize", "<t*(1+t)/(2-t)>"],
                      "gw_element.schema.json", _specialize),
    "euler": (["euler", "--degree", "4", "--ambient", "3"], None, _euler),
    "monodromy": (["monodromy", "--quadratic", "--dimension", "1"],
                  "tate_monodromy.schema.json", _monodromy),
    "batch": (["batch", "{batch_file}"], "batch_report.schema.json", _batch),
}


def check_cli(name: str, returncode: int, stdout: bytes, schema) -> str | None:
    """Exit code, schema and hand-derived value of one CLI call."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if schema is not None:
        import jsonschema

        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            return f"schema: {exc.message}"
    try:
        return CLI_CALLS[name][2](doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unexpected output shape: {exc!r}"
