"""A symbolic calculus of pure Tate motives and the Picard-Lefschetz data.

Objects are finite direct sums of 1(twist)[shift]; maps are matrices of
rationals constrained by the hom table, which is the working model
dim Hom(1(a)[b], 1(c)[d]) = 1 if (a,b) = (c,d) else 0.  On top of that the
module builds the motives of split quadrics and affine quadrics, the
variation map of the quadratic singularity (zero for even fiber dimension,
factored through a single Tate summand with scalar -1 for odd), and the
Kummer monodromy matrix with its nilpotency.

K0-level bookkeeping uses signed twist counts (shift parity gives the
sign), which is what the scissor identity for quadrics holds at.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import InputDomainError, json_rational, rational

Summand = tuple[int, int]


def hom_dim(s: Summand, t: Summand) -> int:
    """dim Hom(1(s)[.], 1(t)[.]): 1 on equal summands, 0 otherwise."""
    return 1 if tuple(s) == tuple(t) else 0


class TateObject:
    """A finite direct sum of Tate summands 1(twist)[shift].

    Summand order is preserved as given (it indexes map matrices);
    equality is multiset equality.
    """

    __slots__ = ("summands",)

    def __init__(self, summands: Sequence[Summand] = ()):
        self.summands = tuple((operator.index(t), operator.index(s)) for t, s in summands)

    def __eq__(self, other):
        return isinstance(other, TateObject) and Counter(self.summands) == Counter(
            other.summands
        )

    def __hash__(self):
        return hash(frozenset(Counter(self.summands).items()))

    def __len__(self):
        return len(self.summands)

    def __add__(self, other: "TateObject") -> "TateObject":
        return TateObject(self.summands + other.summands)

    def twist(self, k: int) -> "TateObject":
        return TateObject(tuple((t + k, s) for t, s in self.summands))

    def shift(self, k: int) -> "TateObject":
        return TateObject(tuple((t, s + k) for t, s in self.summands))

    def k0_twists(self) -> dict[int, int]:
        """Signed count per twist: each summand contributes (-1)^shift."""
        out: dict[int, int] = {}
        for t, s in self.summands:
            out[t] = out.get(t, 0) + (-1) ** (s % 2)
        return {t: v for t, v in out.items() if v}

    def to_json(self) -> list[list[int]]:
        return [[t, s] for t, s in self.summands]

    def __repr__(self):
        body = " + ".join(f"1({t})[{s}]" for t, s in self.summands) or "0"
        return f"TateObject({body})"


class TateMap:
    """A map of Tate objects: a target-by-source matrix of rationals.

    Entries are forced to zero outside equal-summand hom slots; an attempt
    to construct a nonzero entry in a forbidden slot is rejected.
    """

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: TateObject, target: TateObject, entries):
        rows = tuple(tuple(map(rational, row)) for row in entries)
        if len(rows) != len(target) or any(len(r) != len(source) for r in rows):
            raise ValueError(
                f"entries must be {len(target)}x{len(source)} (target x source)"
            )
        for i, t in enumerate(target.summands):
            for j, s in enumerate(source.summands):
                if rows[i][j] and not hom_dim(s, t):
                    raise ValueError(
                        f"no maps {s} -> {t}: entry ({i},{j}) must vanish"
                    )
        self.source = source
        self.target = target
        self.entries = rows

    @classmethod
    def zero(cls, source: TateObject, target: TateObject) -> "TateMap":
        return cls(source, target, [[0] * len(source) for _ in range(len(target))])

    @classmethod
    def identity(cls, obj: TateObject) -> "TateMap":
        n = len(obj)
        return cls(obj, obj, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.entries)

    def twist(self, k: int) -> "TateMap":
        return TateMap(self.source.twist(k), self.target.twist(k), self.entries)

    def scale(self, c) -> "TateMap":
        c = rational(c)
        return TateMap(
            self.source, self.target, [[c * v for v in row] for row in self.entries]
        )

    def __eq__(self, other):
        return (
            isinstance(other, TateMap)
            and self.source.summands == other.source.summands
            and self.target.summands == other.target.summands
            and self.entries == other.entries
        )

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": [[json_rational(v) for v in row] for row in self.entries],
        }

    def __repr__(self):
        return f"TateMap({self.source!r} -> {self.target!r}, {self.entries})"


def compose(f: TateMap, g: TateMap) -> TateMap:
    """f after g; g.target must be f.source summand-for-summand."""
    if f.source.summands != g.target.summands:
        raise ValueError("compose(f, g) needs g.target = f.source")
    rows = []
    for i in range(len(f.target)):
        row = []
        for j in range(len(g.source)):
            row.append(sum((f.entries[i][k] * g.entries[k][j] for k in range(len(f.source))), Fraction(0)))
        rows.append(row)
    return TateMap(g.source, f.target, rows)


# ---------------------------------------------------------------------------
# quadrics and affine quadrics
# ---------------------------------------------------------------------------


def quadric_motive(n: int) -> TateObject:
    """Motive of a split quadric of dimension n: Tate summands 1(-i)[-2i],
    with the extra middle summand 1(-n/2)[-n] when n is even."""
    if n < 0:
        raise InputDomainError("quadric dimension must be non-negative")
    summands = [(-i, -2 * i) for i in range(n + 1)]
    if n % 2 == 0:
        summands.append((-n // 2, -n))
    return TateObject(summands)


def h_affine(n: int) -> TateObject:
    """Motive of the affine quadric A_n: 1 + 1(-ceil(n/2))[-n]."""
    if n < 1:
        raise InputDomainError("affine quadric dimension must be at least 1")
    return TateObject([(0, 0), (-((n + 1) // 2), -n)])


def hc_affine(n: int) -> TateObject:
    """Compactly supported motive of A_n: 1(-floor(n/2))[-n] + 1(-n)[-2n]."""
    if n < 1:
        raise InputDomainError("affine quadric dimension must be at least 1")
    return TateObject([(-(n // 2), -n), (-n, -2 * n)])


# ---------------------------------------------------------------------------
# the variation map
# ---------------------------------------------------------------------------


class VariationResult(
    namedtuple("VariationResult", "n kind var scalar m1 m2_twisted certificate")
):
    """Outcome of the variation computation for the quadratic singularity;
    immutable.

    ``kind`` is "zero" or "factored".  For even fiber dimension the map is
    zero and ``certificate`` lists the two hom slots whose vanishing forces
    this; for odd dimension the map factors through a single Tate summand
    as m2_twisted o (scalar) o m1 with scalar -1.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        out = {
            "dimension": self.n,
            "kind": self.kind,
            "var": self.var.to_json(),
        }
        if self.kind == "factored":
            out["scalar"] = json_rational(self.scalar)
            out["m1"] = self.m1.to_json()
            out["m2_twisted"] = self.m2_twisted.to_json()
        else:
            out["vanishing_homs"] = [
                {"from": list(s), "to": list(t)} for s, t in self.certificate
            ]
        return out


def variation_quadric(n: int) -> VariationResult:
    """The variation h(A_n) -> h_c(A_n)(-1) of the r = 2 singularity.

    Even n = 2m: both hom slots out of h(A_n) into the twisted target
    vanish (the unit summand sees only negative twists; the tail summand
    1(-m)[-n] would need a map into 1(-m-1)[-n]), so the map is zero and
    the two slots are returned as the certificate.  Odd n = 2m+1: the tail
    of h(A_n) is 1(-m-1)[-n], which matches the (-1)-twist of the leading
    h_c summand; the variation is the projection m1 followed by -1
    followed by the twisted inclusion m2.
    """
    if n < 1:
        raise InputDomainError("fiber dimension must be at least 1")
    source = h_affine(n)
    target = hc_affine(n).twist(-1)
    if n % 2 == 0:
        m = n // 2
        certificate = (
            ((0, 0), (-n - 1, -2 * n)),
            ((-m, -n), (-m - 1, -n)),
        )
        if any(hom_dim(s, t) for s, t in certificate):
            raise AssertionError("a certificate hom slot is nonzero; this is a bug")
        return VariationResult(
            n=n,
            kind="zero",
            var=TateMap.zero(source, target),
            scalar=None,
            m1=None,
            m2_twisted=None,
            certificate=certificate,
        )
    m = (n - 1) // 2
    mid = TateObject([(-m - 1, -n)])
    m1 = TateMap(source, mid, [[0, 1]])
    m2_twisted = TateMap(mid, target, [[1], [0]])
    var = compose(m2_twisted, m1.scale(-1))
    return VariationResult(
        n=n,
        kind="factored",
        var=var,
        scalar=Fraction(-1),
        m1=m1,
        m2_twisted=m2_twisted,
        certificate=None,
    )


def kummer_monodromy() -> TateMap:
    """The log-of-monodromy matrix on the Kummer nearby cycle 1 + 1(-1).

    Matrix [[0, -1], [0, 0]] from 1 + 1(-1) to its (-1)-twist; composing
    with its own (-1)-twist gives zero (nilpotency of order two).
    """
    source = TateObject([(0, 0), (-1, 0)])
    return TateMap(source, source.twist(-1), [[0, -1], [0, 0]])


def abstract_variation_report(r: int, n: int) -> dict:
    """Structural statement of the abstract Picard-Lefschetz factorization.

    Purely symbolic: var = (-1/r) * (beta(-1) o alpha), with alpha and beta
    the boundary and Gysin maps of the degeneration; no evaluation of
    alpha, beta is attempted for general r.  For r = 2 the concrete quadric
    variation is attached for comparison.
    """
    if r < 2:
        raise InputDomainError("degree must be at least 2")
    if n < 1:
        raise InputDomainError("fiber dimension must be at least 1")
    scalar = Fraction(-1, r)
    report = {
        "kind": "abstract-picard-lefschetz",
        "degree": r,
        "dimension": n,
        "identity": "-r * var = beta(-1) o alpha",
        "factorization": {
            "scalar": str(scalar),
            "alpha": "boundary map j_* 1_A -> i_* i^! 1_D[1]",
            "beta": "Gysin comparison i_* i^! 1_D[1] -> i_* i^* 1_D(-1)[2] restricted to the vanishing part",
        },
        "evaluated": False,
    }
    if r == 2:
        v = variation_quadric(n)
        report["quadric_case"] = {
            "kind": v.kind,
            "scalar": None if v.scalar is None else str(v.scalar),
        }
        report["evaluated"] = True
    return report
