"""Exact arithmetic in Grothendieck-Witt rings of fields.

Elements are virtual diagonal forms: two multisets of square classes, one
with sign +1 and one with sign -1.  Supported base fields:

* the rationals (``RATIONALS``): square classes are squarefree integers,
  equality of elements is decided exactly through rank, signature,
  discriminant and Hasse invariants at the finitely many relevant places;
* odd prime fields (``FieldCtx.prime_field(p)``): classes are 1 or a fixed
  least non-residue, equality is rank plus discriminant;
* Laurent series in t (``RATIONAL_FUNCTIONS``, the CLI's ``Qt``): the field
  Q((t)), whose elements are read as rational functions.  A unit is t^m * u
  with u(0) != 0, and u / u(0) is a square in Q[[t]], so its class is the
  pair (m mod 2, the squarefree class of u(0)); so <1 + t> = <1>, which
  holds in Q((t)) though not in Q(t).  Equality is decided through the two
  residue forms (``is_equal``), and ``specialize`` reads the class of u(0);
* simple extensions Q[x]/(g) (``FieldCtx.extension(g)``): storage-only
  contexts whose classes are polynomial residues, consumed by ``transfer``;
  every extension context, however it is built, checks that g is monic and
  irreducible, exactly, by a discriminant test up to degree 2 and by sympy,
  imported on demand, from degree 3.

Virtual elements stay unreduced apart from cancellation of identical
representatives between the two signs, which the ``GWElement`` constructor
does, so ``==`` is structural; use ``is_equal`` for equality in the ring.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, isqrt, prod

from . import _univar as uv
from . import poly as P
from .errors import (
    ContextMismatchError,
    DegenerateFormError,
    InvalidExtensionError,
    ParseError,
    UnsupportedInvariantError,
    rational,
)

_RATIONALS = "rationals"
_PRIME = "prime-field"
_RATFUNC = "rational-functions"
_EXTENSION = "extension"


# ---------------------------------------------------------------------------
# integer factoring and square classes: the primes below 2^12 are stripped by
# gcds with two primorials; sympy factors only a composite cofactor >= 2^24
# ---------------------------------------------------------------------------


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_TRIAL_BOUND = 1 << 12
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# Miller-Rabin with the 13 prime bases 2..41 is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017), psi_13).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981
# (primes, their product, bound) for the primes below 2^7 and those in
# [2^7, 2^12).  A cofactor free of every prime below 2^k and below
# 2^(2k) = bound is 1 or a prime.
_SPLIT = sum(p < 1 << 7 for p in _SMALL_PRIMES)
_TIERS = tuple(
    (primes, prod(primes), bound)
    for primes, bound in ((_SMALL_PRIMES[:_SPLIT], 1 << 14), (_SMALL_PRIMES[_SPLIT:], 1 << 24))
)


def _is_prime(n: int) -> bool:
    """Exact primality: a table below 2^12, deterministic Miller-Rabin up to
    3.3e24, sympy.isprime beyond."""
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    if n % 2 == 0:
        return False
    if n >= _MR_BOUND:
        from sympy import isprime

        return bool(isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, n)
        if v == 1 or v == n - 1:
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a nonzero integer, as sympy.factorint.

    A negative n carries the key -1.  For each tier of primes below 2^12,
    g = gcd(n, P) with P the tier's primorial is the product of the tier's
    primes that divide n: a tier with g = 1 is skipped whole, and only the
    primes dividing g are divided out, until g reaches 1.  A cofactor below
    2^14 after the primes below 2^7, or below 2^24 after all of them, is 1
    or a prime; a larger one is tested for primality, and only a composite
    one is handed to sympy, which is imported then.
    """
    if n == 0:
        raise ValueError("zero has no factorization")
    out = {}
    if n < 0:
        out[-1] = 1
        n = -n
    for primes, primorial, bound in _TIERS:
        g = gcd(n, primorial)
        for p in primes:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
        if n < bound:
            break
    else:
        if not _is_prime(n):
            from sympy import factorint as sympy_factorint

            out.update((int(p), e) for p, e in sympy_factorint(n).items())
            return out
    if n > 1:
        out[n] = 1
    return out


def _squarefree(value) -> int:
    """The squarefree integer representing the square class of a rational.

    Numerator and denominator are coprime, so each is read on its own; their
    product is never formed.  An int carries both already.  For a primorial
    P, g = gcd(n, P) is the radical of the part of n that P's primes cover:
    n // g lowers each of their exponents by one, and g, squarefree, is its
    own class, folded in as ``mul_reps`` does, a*b / gcd(a, b)^2.  Repeating
    with g = gcd(n, g) until g = 1 strips P's primes without naming one.
    The cofactor rules are ``factorint``'s: below 2^14 after the primes
    below 2^7, or below 2^24 after all primes below 2^12, it is 1 or a
    prime; a larger one is tested, and only a composite one is factored.
    """
    fr = value if isinstance(value, int) else rational(value)
    if fr == 0:
        raise ValueError("zero has no square class")
    num = fr.numerator
    out = 1 if num > 0 else -1
    for n in (abs(num), fr.denominator):
        if n == 1:
            continue
        for _, primorial, bound in _TIERS:
            g = gcd(n, primorial)
            while g > 1:
                n //= g
                h = gcd(out, g)
                out = (out // h) * (g // h)
                g = gcd(n, g)
            if n < bound:
                break
        else:
            if not _is_prime(n):
                n = prod(p for p, e in factorint(n).items() if e % 2)
        out *= n
    return out


class FieldCtx:
    """Base-field descriptor: drives normalization and printing of classes.

    Every context is checked here, however it is built.  An extension's g
    must be monic and irreducible, decided exactly: x^2 + b*x + c is
    reducible iff b^2 - 4c is a rational square, 0 included, and only degree
    3 and up asks sympy's ``Poly.is_irreducible``, imported then.
    """

    __slots__ = ("kind", "p", "min_poly")

    def __init__(self, kind: str, p: int | None = None, min_poly: uv.Poly | None = None):
        if kind not in (_RATIONALS, _PRIME, _RATFUNC, _EXTENSION):
            raise ValueError(f"unknown field kind {kind!r}")
        if p is not None and kind != _PRIME:
            raise ValueError("only a prime-field context takes p")
        if min_poly is not None and kind != _EXTENSION:
            raise ValueError("only an extension context takes a minimal polynomial")
        if kind == _PRIME:
            if not isinstance(p, int) or p == 2 or not _is_prime(p):
                raise ValueError("prime-field context needs an odd prime")
        elif kind == _EXTENSION:
            if min_poly is None:
                raise InvalidExtensionError("extension context needs a minimal polynomial")
            g = min_poly = uv.poly(min_poly)
            n = uv.degree(g)
            if n < 1:
                raise InvalidExtensionError("minimal polynomial must have degree >= 1")
            if uv.lc(g) != 1:
                raise InvalidExtensionError("minimal polynomial must be monic")
            if n == 1:
                reducible = False
            elif n == 2:
                disc = g[1] * g[1] - 4 * g[0]
                num, den = disc.numerator, disc.denominator
                reducible = num >= 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den
            else:
                from sympy import Poly, Rational
                from sympy.abc import x

                reducible = not Poly([Rational(c) for c in reversed(g)], x).is_irreducible
            if reducible:
                raise InvalidExtensionError("minimal polynomial is reducible over Q")
        self.kind = kind
        self.p = p
        self.min_poly = min_poly

    # -- constructors -------------------------------------------------

    @classmethod
    def prime_field(cls, p: int) -> "FieldCtx":
        return cls(_PRIME, p=p)

    @classmethod
    def extension(cls, min_poly) -> "FieldCtx":
        """Q[x]/(g) for monic irreducible g, given by ascending coefficients."""
        return cls(_EXTENSION, min_poly=min_poly)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.kind == other.kind
            and self.p == other.p
            and self.min_poly == other.min_poly
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.min_poly))

    def __repr__(self):
        return f"FieldCtx({self.label()})"

    def label(self) -> str:
        if self.kind == _RATIONALS:
            return "Q"
        if self.kind == _PRIME:
            return f"Fp:{self.p}"
        if self.kind == _RATFUNC:
            return "Q(t)"  # the field Q((t)), under its short label
        return "Q[x]/(" + ",".join(str(c) for c in self.min_poly) + ")"

    # -- square-class plumbing -----------------------------------------

    def least_nonresidue(self) -> int:
        if self.kind != _PRIME:
            raise UnsupportedInvariantError("non-residues only exist over prime fields")
        n = 2
        while _legendre(n, self.p) == 1:
            n += 1
        return n

    def normalize(self, value):
        """Canonical representative of the square class of ``value``."""
        if self.kind == _RATIONALS:
            return _squarefree(value)
        if self.kind == _PRIME:
            v = _mod_p(value, self.p)
            if v == 0:
                raise ValueError("zero has no square class")
            return 1 if _legendre(v, self.p) == 1 else self.least_nonresidue()
        if self.kind == _RATFUNC:
            num, den = _as_ratfunc(value)
            if uv.is_zero(num):
                raise ValueError("zero has no square class")
            if uv.is_zero(den):
                raise ZeroDivisionError("zero denominator in a rational function")
            on = next(i for i, c in enumerate(num) if c)
            od = next(i for i, c in enumerate(den) if c)
            return ((on - od) % 2, _squarefree(num[on] / den[od]))
        # extension: reduce mod g, canonical trimmed coefficient tuple
        res = uv.mod(_as_poly(value), self.min_poly)
        if uv.is_zero(res):
            raise ValueError("zero has no square class")
        return res

    def mul_reps(self, a, b):
        """Product of two canonical representatives, renormalized."""
        if self.kind == _RATIONALS:
            # squarefree a and b: a*b / gcd(a, b)^2 is squarefree, no factoring
            g = gcd(a, b)
            return (a // g) * (b // g)
        if self.kind == _PRIME:
            return self.normalize(a * b)
        if self.kind == _RATFUNC:
            return ((a[0] + b[0]) % 2, RATIONALS.mul_reps(a[1], b[1]))
        return uv.mod(uv.mul(a, b), self.min_poly)

    def one_rep(self):
        if self.kind in (_RATIONALS, _PRIME):
            return 1
        if self.kind == _RATFUNC:
            return (0, 1)
        return uv.ONE

    @property
    def variables(self) -> tuple[str, ...]:
        """The variable of this field's elements: t over Q((t)), x over Q[x]/(g)."""
        return {_RATFUNC: ("t",), _EXTENSION: ("x",)}.get(self.kind, ())

    def rep_str(self, rep) -> str:
        if self.kind in (_RATIONALS, _PRIME):
            return str(rep)
        if self.kind == _RATFUNC:
            parity, c = rep
            if not parity:
                return str(c)
            return {1: "t", -1: "-t"}.get(c, f"{c}*t")
        return _uv_str(rep)


def _mod_p(value, p: int) -> int:
    """The residue in [0, p) of a rational whose denominator p does not divide."""
    fr = rational(value)
    den = fr.denominator % p
    if den == 0:
        raise ValueError("denominator vanishes in the prime field")
    return fr.numerator * pow(den, -1, p) % p


def _uv_str(p: uv.Poly) -> str:
    """A residue in x as the expression grammar reads it, e.g. "-3 - 2*x"."""
    out = ""
    for i, c in enumerate(p):
        if c == 0:
            continue
        term = str(abs(c))
        if i:
            x = "x" if i == 1 else f"x^{i}"
            term = x if abs(c) == 1 else f"{term}*{x}"
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = "-" * (c < 0) + term
    return out


def _as_poly(value) -> uv.Poly:
    """An outside value as a polynomial: a tuple or a list as ascending
    coefficients, any other value as one number, by ``errors.rational``."""
    return uv.poly(value) if isinstance(value, (tuple, list)) else uv.const(value)


def _as_ratfunc(value) -> tuple[uv.Poly, uv.Poly]:
    """(num, den) of an outside value over Q((t)): a 2-tuple of two coefficient
    sequences is the pair, and any other value ``_as_poly`` over 1."""
    pair = isinstance(value, tuple) and len(value) == 2
    if pair and all(isinstance(v, (tuple, list)) for v in value):
        return uv.poly(value[0]), uv.poly(value[1])
    return _as_poly(value), uv.ONE


RATIONALS = FieldCtx(_RATIONALS)
RATIONAL_FUNCTIONS = FieldCtx(_RATFUNC)


class SquareClass(namedtuple("SquareClass", "ctx rep")):
    """A square class of a field by its canonical representative; immutable."""

    __slots__ = ()

    def __str__(self):
        return self.ctx.rep_str(self.rep)


class InvariantTuple(namedtuple("InvariantTuple", "rank signature discriminant hasse")):
    """Classical invariants of a virtual form; immutable.

    ``signature`` is None outside the rationals.  ``hasse`` maps each
    relevant prime (always including 2) to the product of Hilbert symbols
    of the positive part times that of the negative part; it depends on the
    stored representative for genuinely virtual elements, so equality
    decisions go through ``is_equal`` instead.
    """

    __slots__ = ()


class GWElement:
    """A virtual diagonal form over a fixed base-field context.

    The constructor is the one place that reduces an element: a class given
    with both signs is removed one for one, as multisets, and each side is
    stored as a sorted tuple, so no element holds a class on both sides.
    Values are normalized to their square classes first, unless ``_raw``
    says they are canonical representatives already; ``_raw`` skips only
    that step, never the cancellation.
    """

    __slots__ = ("ctx", "pos", "neg")

    def __init__(self, ctx: FieldCtx, pos: Iterable = (), neg: Iterable = (), *, _raw=False):
        if not _raw:
            pos = [ctx.normalize(v) for v in pos]
            neg = [ctx.normalize(v) for v in neg]
        pos, neg = sorted(pos), sorted(neg)
        if pos and neg:
            # one pass over the two sorted sides drops each shared class
            kept_pos, kept_neg, i, j = [], [], 0, 0
            while i < len(pos) and j < len(neg):
                if pos[i] == neg[j]:
                    i, j = i + 1, j + 1
                elif pos[i] < neg[j]:
                    kept_pos.append(pos[i])
                    i += 1
                else:
                    kept_neg.append(neg[j])
                    j += 1
            pos, neg = kept_pos + pos[i:], kept_neg + neg[j:]
        self.ctx = ctx
        self.pos, self.neg = tuple(pos), tuple(neg)

    # -- basics ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx = RATIONALS) -> "GWElement":
        return cls(ctx, _raw=True)

    @classmethod
    def unit(cls, ctx: FieldCtx = RATIONALS) -> "GWElement":
        return cls(ctx, pos=(ctx.one_rep(),), _raw=True)

    @property
    def rank(self) -> int:
        return len(self.pos) - len(self.neg)

    def is_zero_form(self) -> bool:
        return not self.pos and not self.neg

    def __eq__(self, other):
        """Structural equality of representatives; see ``is_equal``."""
        return (
            isinstance(other, GWElement)
            and self.ctx == other.ctx
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __hash__(self):
        return hash((self.ctx, self.pos, self.neg))

    def __repr__(self):
        return f"GWElement({self.ctx.label()}, {format_terms(self, unicode_brackets=False)!r})"

    # -- ring structure ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, GWElement):
            raise TypeError("expected a GWElement")
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"cannot combine elements over {self.ctx.label()} and {other.ctx.label()}"
            )

    def __add__(self, other):
        self._check(other)
        return GWElement(self.ctx, self.pos + other.pos, self.neg + other.neg, _raw=True)

    def __neg__(self):
        return GWElement(self.ctx, self.neg, self.pos, _raw=True)

    def __sub__(self, other):
        self._check(other)
        return GWElement(self.ctx, self.pos + other.neg, self.neg + other.pos, _raw=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._int_mul(other)
        self._check(other)
        mul = self.ctx.mul_reps
        # like signs multiply to +, unlike signs to -
        pos, neg = (
            [mul(a, b) for xs, ys in pairs for a in xs for b in ys]
            for pairs in (
                ((self.pos, other.pos), (self.neg, other.neg)),
                ((self.pos, other.neg), (self.neg, other.pos)),
            )
        )
        return GWElement(self.ctx, pos, neg, _raw=True)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._int_mul(other)
        return NotImplemented

    def _int_mul(self, k: int):
        term = self if k >= 0 else -self
        return GWElement(self.ctx, term.pos * abs(k), term.neg * abs(k), _raw=True)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = GWElement.unit(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    # -- invariants -------------------------------------------------------

    def signature(self) -> int:
        if self.ctx.kind != _RATIONALS:
            raise UnsupportedInvariantError(
                f"signature is undefined over {self.ctx.label()}"
            )
        return _signature(self.pos) - _signature(self.neg)

    def discriminant(self) -> SquareClass:
        if self.ctx.kind not in (_RATIONALS, _PRIME):
            raise UnsupportedInvariantError(
                f"discriminant is not computed over {self.ctx.label()}"
            )
        return SquareClass(self.ctx, _discriminant(self.ctx, self.pos + self.neg))

    def invariants(self) -> InvariantTuple:
        if self.ctx.kind == _RATIONALS:
            hasse = {
                p: _hasse_witt(self.pos, p) * _hasse_witt(self.neg, p)
                for p in _relevant_primes(self.pos + self.neg)
            }
            return InvariantTuple(self.rank, self.signature(), self.discriminant(), hasse)
        if self.ctx.kind == _PRIME:
            return InvariantTuple(self.rank, None, self.discriminant(), {})
        raise UnsupportedInvariantError(
            f"invariants are not computed over {self.ctx.label()}"
        )


def diag_form(entries: Sequence, ctx: FieldCtx = RATIONALS) -> GWElement:
    """The genuine diagonal form <e1> + <e2> + ... ."""
    return GWElement(ctx, pos=entries)


# ---------------------------------------------------------------------------
# Hilbert symbols and equality over Q
# ---------------------------------------------------------------------------


def _legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p), for a prime to the odd prime p."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, p: int) -> int:
    """The Hilbert symbol (a,b)_p at a finite prime p, for nonzero a, b.

    It is the Hasse-Witt invariant of the binary form <a, b>: each rational
    is replaced by numerator * denominator, an integer in the same square
    class, and ``_hasse_witt`` reads the pair in closed form.
    """
    a, b = rational(a), rational(b)
    if a == 0 or b == 0:
        raise ValueError("zero has no square class")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    return _hasse_witt((a.numerator * a.denominator, b.numerator * b.denominator), p)


def _hasse_witt(entries: Sequence[int], p: int) -> int:
    """Hasse-Witt invariant prod_{i<j} (a_i, a_j)_p of <a_1, ..., a_n>, in closed form.

    Write a_i = p^alpha_i * u_i with u_i a p-adic unit.  At odd p,
    (a_i, a_j)_p = (-1/p)^(alpha_i alpha_j) (u_i/p)^alpha_j (u_j/p)^alpha_i
    (Serre, A Course in Arithmetic, III.1.2, Theorem 1).  Over all i < j, u_i
    meets the exponent sum_{j != i} alpha_j, so with k entries of odd
    valuation the product is (-1/p)^(k(k-1)/2) (A/p)^(k-1) (B/p)^k, where A and
    B multiply the units of odd and of even valuation.  At p = 2 the pairwise
    exponents eps(u_i)eps(u_j) + alpha_i omega(u_j) + alpha_j omega(u_i) sum to
    C(E, 2) + (sum alpha_i)(sum omega_i) - sum alpha_i omega_i, where E counts
    the units with eps(u_i) = 1.  One pass reads a_i mod p, and at most one
    Legendre symbol follows.
    """
    if p == 2:
        units_eps = alphas = omegas = alpha_omegas = 0
        for a in entries:
            alpha = (a & -a).bit_length() - 1
            u = (a >> alpha) % 8
            omega = u in (3, 5)
            units_eps += u % 4 == 3
            alphas += alpha
            omegas += omega
            alpha_omegas += alpha * omega
        e = units_eps * (units_eps - 1) // 2 + alphas * omegas + alpha_omegas
        return -1 if e % 2 else 1
    k, odd_units, even_units = 0, 1, 1
    for a in entries:
        r = a % p
        if r:
            even_units = even_units * r % p
            continue
        if a == 0:
            raise ValueError("zero has no square class")
        alpha = 0
        while r == 0:
            a //= p
            alpha += 1
            r = a % p
        if alpha % 2:
            k += 1
            odd_units = odd_units * r % p
        else:
            even_units = even_units * r % p
    if k == 0:
        return 1
    # of A^(k-1) B^k only the factor with an odd exponent is not a square
    unit = odd_units if k % 2 == 0 else even_units
    return _legendre(-unit if k * (k - 1) // 2 % 2 else unit, p)


def _signature(entries: Sequence[int]) -> int:
    return sum(1 if a > 0 else -1 for a in entries)


def _discriminant(ctx: FieldCtx, entries: Sequence):
    """The class of the product of the entries, multiplied pairwise with
    ``mul_reps``; over Q a gcd-reduced product, so nothing is factored."""
    out = ctx.one_rep()
    for a in entries:
        out = ctx.mul_reps(out, a)
    return out


def _relevant_primes(entries: Sequence[int]) -> list[int]:
    """2 and every prime dividing a squarefree entry; each distinct entry is factored once."""
    primes = {2}
    for a in set(entries):
        primes.update(p for p in factorint(a) if p > 0)
    return sorted(primes)


def is_equal(a: GWElement, b: GWElement) -> bool:
    """Exact equality in the Grothendieck-Witt ring.

    Both sides are read off d = a - b, whose construction has dropped every
    class on both signs, one for one.  Over Q, [a] = [b] iff the genuine
    forms d.pos and d.neg are isometric: by Witt's cancellation theorem
    (Lam, Introduction to Quadratic Forms over Fields, ch. I) C + L and
    C + R are isometric iff L and R are.  They are compared through rank,
    signature, discriminant, and Hasse invariants at every relevant place;
    over a prime field rank and discriminant decide, and over Q((t)) rank
    and the two residue forms of d (``_residue_vanishes``).  The
    discriminants are gcd-reduced products of the squarefree entries and
    the relevant primes come from factoring each distinct class of d, so no
    product of entries is ever factored.  Each Hasse invariant is the closed
    form of ``_hasse_witt``, one pass over the entries and at most one
    Legendre symbol, so no Hilbert symbol is evaluated.
    """
    if not isinstance(a, GWElement) or not isinstance(b, GWElement):
        raise TypeError("is_equal expects two GWElements")
    if a.ctx != b.ctx:
        raise ContextMismatchError(
            f"cannot compare elements over {a.ctx.label()} and {b.ctx.label()}"
        )
    kind = a.ctx.kind
    if kind not in (_RATIONALS, _PRIME, _RATFUNC):
        raise UnsupportedInvariantError(
            f"equality is not decidable over {a.ctx.label()} here"
        )
    d = a - b
    if d.rank:
        return False
    if kind == _PRIME:
        return d.discriminant().rep == 1
    if kind == _RATFUNC:
        return all(_residue_vanishes(d, m) for m in (0, 1))
    left, right = d.pos, d.neg
    if not left:  # the rank is 0, so right is empty too
        return True
    if _signature(left) != _signature(right):
        return False
    if _discriminant(RATIONALS, left) != _discriminant(RATIONALS, right):
        return False
    for p in _relevant_primes(left + right):
        if _hasse_witt(left, p) != _hasse_witt(right, p):
            return False
    return True


def _residue_vanishes(d: GWElement, m: int) -> bool:
    """Whether d over Q((t)) has m-th residue form 0 in W(Q).

    By Springer's theorem (Lam, Introduction to Quadratic Forms over Fields,
    ch. VI) W(Q((t))) is W(Q) + W(Q), a form sum <c_i * t^m_i> going to the
    forms of the c_i with m_i even and with m_i odd; so d = a - b, of rank 0,
    is 0 in GW iff both its residue forms vanish in W(Q).  A residue form r,
    of rank 2k, is 0 there iff r = k * (<1> + <-1>) in GW(Q).  Comparing
    the residue forms of a and b in GW(Q) would be wrong: <t, -t> and
    <1, -1> are both hyperbolic, but their residues differ.
    """
    def residue(reps):
        return [c for parity, c in reps if parity == m]

    r = GWElement(RATIONALS, residue(d.pos), residue(d.neg), _raw=True)
    k, odd = divmod(r.rank, 2)
    return not odd and is_equal(r, k * GWElement(RATIONALS, (-1, 1), _raw=True))


# ---------------------------------------------------------------------------
# specialize: GW(Q((t))) -> GW(Q) at t=0
# ---------------------------------------------------------------------------


def specialize(e: GWElement) -> GWElement:
    """Send <t^m * u> to the square class of u(0), which its stored pair
    (m mod 2, c) carries as c."""
    if e.ctx.kind != _RATFUNC:
        raise ContextMismatchError("specialize expects an element over Q(t)")
    return GWElement(RATIONALS, [c for _, c in e.pos], [c for _, c in e.neg], _raw=True)


# ---------------------------------------------------------------------------
# transfer: Scharlau trace form along Q[x]/(g) -> Q
# ---------------------------------------------------------------------------


def trace_form_gram(g, c) -> list[list[Fraction]]:
    """Gram matrix Tr(c * x^(i+j)) of the scaled trace form on Q[x]/(g).

    For monic g = x^d + sum_i a_i x^i, Newton's identities give the power
    sums p_k = Tr(x^k) = -k a_(d-k) - sum_(0<i<min(k,d+1)) a_(d-i) p_(k-i),
    with a_j = 0 for j < 0, and Tr(c * x^k) = sum_l c_l p_(k+l).
    """
    g = uv.monic(uv.poly(g))
    d = uv.degree(g)
    c = uv.mod(_as_poly(c), g)
    power_sums = [Fraction(d)]
    for k in range(1, 3 * d - 2):
        p = -k * g[d - k] if k <= d else Fraction(0)
        for i in range(1, min(k, d + 1)):
            p -= g[d - i] * power_sums[k - i]
        power_sums.append(p)
    traces = [sum(cl * power_sums[k + l] for l, cl in enumerate(c)) for k in range(2 * d - 1)]
    return [[Fraction(traces[i + j]) for j in range(d)] for i in range(d)]


def transfer(e: GWElement) -> GWElement:
    """Scharlau transfer of e along the trace of Q[x]/(g) over Q.

    ``e`` must live over an extension context, whose g was checked monic and
    irreducible when the context was made; its classes are polynomial
    residues mod g.  Each class <c> maps to the diagonalization of the Gram
    matrix Tr(c * x^(i+j)).
    """
    if e.ctx.kind != _EXTENSION:
        raise ContextMismatchError(f"element over {e.ctx.label()} does not live over Q[x]/(g)")
    g = e.ctx.min_poly
    out = GWElement.zero(RATIONALS)
    for rep in e.pos:
        out = out + diagonalize(trace_form_gram(g, rep))
    for rep in e.neg:
        out = out - diagonalize(trace_form_gram(g, rep))
    return out


# ---------------------------------------------------------------------------
# symmetric congruence diagonalization
# ---------------------------------------------------------------------------


def diagonalize(gram, ctx: FieldCtx = RATIONALS) -> GWElement:
    """Diagonalize a symmetric matrix by congruence; return its form.

    The form is that of the pivots of ``congruence_pivots``, each normalized
    to its square class.
    """
    return GWElement(ctx, pos=congruence_pivots(gram, ctx))


# the exact built-in types, whose only falsy value is their zero
_EXACT_TYPES = frozenset((int, bool, Fraction))


def congruence_pivots(gram, ctx: FieldCtx = RATIONALS) -> list:
    """The diagonal of a congruence diagonalization, not normalized.

    These are the raw pivots that ``diagonalize`` normalizes; no square
    class is taken, so no integer is factored.  Entries are read as
    rationals, or reduced into F_p over a prime field, where they stay
    reduced.  Pivoting is deterministic: the first nonzero diagonal entry of
    the trailing block is used, and if the whole diagonal vanishes the row j
    is added to row i (and column j to column i) for the lowest (i, j) with
    a nonzero off-diagonal entry.  The pivot is swapped
    to the front and row operations replace the rest of the block by its
    Schur complement, which is symmetric again, so no column pass is needed.
    A singular matrix raises DegenerateFormError.

    Rows are held sparse, as {original column: nonzero entry}, and a list
    holds the current order of the trailing block.  By symmetry a pivot
    changes only the rows in its own support, so it costs O(support^2)
    rather than O(m^2): graded and Brieskorn-Pham Gram matrices have few
    nonzeros per row.  The dense input is read once: a row of ints,
    bools and Fractions drops its zeros by truth value, and only a row
    holding any other type compares each entry with 0.  The pivot comes
    from a min-heap of positions whose diagonal entry may be nonzero,
    checked when it reaches the top, so no pivot rescans the trailing
    block: a search costs O(log m) per diagonal entry that turns nonzero,
    not O(m) per pivot.
    """
    if ctx.kind == _RATIONALS:
        p, of = None, rational
    elif ctx.kind == _PRIME:
        p = ctx.p

        def of(v):
            return _mod_p(v, p)
    else:
        raise UnsupportedInvariantError(
            f"diagonalization is not implemented over {ctx.label()}"
        )

    def put(row, col, v):
        """Store v as row[col], reduced, or drop the entry when it is zero."""
        if p is not None:
            v %= p
        if v:
            row[col] = v
        else:
            row.pop(col, None)

    n = len(gram)
    rows = [
        {j: w for j, v in enumerate(row) if v and (w := of(v))}
        if _EXACT_TYPES.issuperset(map(type, row))
        else {j: w for j, v in enumerate(row) if v != 0 and (w := of(v))}
        for row in gram
    ]
    if any(len(row) != n for row in gram):
        raise ValueError("matrix must be square")
    for i, row in enumerate(rows):
        for j, v in row.items():
            if rows[j].get(i, 0) != v:
                raise ValueError("matrix must be symmetric")

    order = list(range(n))  # order[k:] is the trailing block after k pivots
    where = list(range(n))  # where[order[k]] == k
    # every position >= k whose diagonal entry is nonzero, and maybe stale
    # ones; sorted, so already a heap
    heap = [q for q in range(n) if q in rows[q]]
    diag = []
    for k in range(n):
        while heap and (heap[0] < k or order[heap[0]] not in rows[order[heap[0]]]):
            heappop(heap)
        if not heap:
            pivot = next((q for q in range(k, n) if rows[order[q]]), None)
            if pivot is None:
                raise DegenerateFormError(
                    f"matrix has rank {len(diag)} < {n}; the form is degenerate"
                )
            # the whole diagonal vanishes: add row j and column j to row and
            # column i, which leaves 2*a_ij on the diagonal
            i = order[pivot]
            j = min(rows[i], key=where.__getitem__)
            ri, rj = rows[i], rows[j]
            for c, v in rj.items():
                if c == i:
                    put(ri, i, 2 * v)
                else:
                    put(ri, c, ri.get(c, 0) + v)
                    put(rows[c], i, ri.get(c, 0))
            heappush(heap, pivot)
        # the first nonzero diagonal entry; the row it swaps out of position k
        # has a zero one, or it would be the pivot, so its new position needs
        # no push
        pivot = heap[0]
        order[k], order[pivot] = order[pivot], order[k]
        where[order[k]], where[order[pivot]] = k, pivot
        piv = order[k]
        row = rows[piv]
        d = row.pop(piv)
        diag.append(d)
        inv = 1 / d if p is None else pow(d, -1, p)
        for r in row:
            rr = rows[r]
            had = r in rr
            f = rr.pop(piv) * inv
            for c, y in row.items():
                put(rr, c, rr.get(c, 0) - f * y)
            if not had and r in rr:
                heappush(heap, where[r])
    return diag


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _display_key(ctx: FieldCtx, rep):
    if ctx.kind in (_RATIONALS, _PRIME):
        return (abs(rep), rep < 0)
    if ctx.kind == _RATFUNC:
        return (rep[0], abs(rep[1]), rep[1] < 0)
    return rep


def format_terms(e: GWElement, unicode_brackets: bool = True) -> str:
    """Human-readable sum of generators, e.g. "<2> - <1> - <-2>"."""
    lo, hi = ("⟨", "⟩") if unicode_brackets else ("<", ">")
    if e.is_zero_form():
        return "0"
    parts = []
    for rep in sorted(e.pos, key=lambda r: _display_key(e.ctx, r)):
        parts.append(("+", f"{lo}{e.ctx.rep_str(rep)}{hi}"))
    for rep in sorted(e.neg, key=lambda r: _display_key(e.ctx, r)):
        parts.append(("-", f"{lo}{e.ctx.rep_str(rep)}{hi}"))
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def to_json_dict(e: GWElement) -> dict:
    if e.ctx.kind not in (_RATIONALS, _PRIME):
        raise UnsupportedInvariantError(
            f"JSON serialization is defined over Q and prime fields, not {e.ctx.label()}"
        )
    return {"field": e.ctx.label(), "pos": list(e.pos), "neg": list(e.neg)}


def parse_poly_in_x(text: str) -> uv.Poly:
    """A minimal polynomial, read in x."""
    return uv.of_polynomial(P.parse(text, ["x"]))


def parse_gw(text: str, ctx: FieldCtx = RATIONALS) -> GWElement:
    """Parse a form such as "<a, b> - <c>" or "⟨a⟩ + ⟨b⟩ − ⟨c⟩" over ctx.

    The grammar is ``poly.parse_form``, in the field's variables.  Over an
    extension an entry may divide only by a nonzero constant, and an entry
    without a square class (zero, or a multiple of p) is a ParseError.
    """
    pos, neg = [], []
    for sign, num, den, piece, at in P.parse_form(text, ctx.variables):
        if not ctx.variables:
            value = num.constant_term()
        elif ctx.kind == _RATFUNC:
            value = uv.of_polynomial(num), uv.of_polynomial(den)
        elif den.total_degree() > 0:
            raise ParseError(f"entry {piece!r} may divide only by a nonzero constant", at)
        else:
            value = uv.of_polynomial(num)
        try:
            rep = ctx.normalize(value)
        except ValueError as exc:
            raise ParseError(f"bad square-class entry {piece!r}: {exc}", at) from exc
        (pos if sign > 0 else neg).append(rep)
    return GWElement(ctx, pos, neg, _raw=True)
