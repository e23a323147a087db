"""Sparse multivariate polynomials over Q with a Buchberger engine over Z.

Polynomials are immutable dictionaries from exponent tuples to nonzero
Fractions.  The module provides the one expression grammar of the package,
with two entry points: ``parse`` for polynomials and ``parse_form`` for the
``<a, b> - <c>`` forms whose entries are quotients of polynomials.  It also
provides formal partial derivatives, weighted-homogeneity checks, and
reduced Groebner bases with standard-monomial enumeration for
zero-dimensional quotients.  The parser evaluates on term dicts and makes
Polynomials only for what it returns.

The Groebner kernel runs over the integers (Buchberger over a domain, as in
Becker and Weispfenning, *Groebner Bases*, 1993).  It works on term dicts
with int coefficients, each made primitive with a positive leading
coefficient; ``clear_denominators`` brings Fractions in.  Division
(``_reduce``) is fraction-free: it scales the dividend instead of dividing
a coefficient, reduces one dict in place, driven by a heap of grevlex keys,
and builds no polynomial per step.  Fractions come back only at the
boundary: the monic reduced basis ``QuotientBasis.groebner``, made on first
read.  Normal forms of monomials (``QuotientBasis.nf_vector``) are integer
vectors over one common denominator, read off the integer reduced basis.
Leading terms, bases, standard monomials and printed terms all follow one
monomial order, grevlex (``grevlex_key``).  Everything is exact;
there is no floating point anywhere.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import add, le, sub

from .errors import (
    InfiniteQuotientError,
    InvalidIdealError,
    ParseError,
    UnknownVariableError,
    rational,
)

Exps = tuple[int, ...]


def grevlex_key(exps: Exps):
    """Sort key of the graded reverse lexicographic order, the one monomial
    order used throughout: ``sorted(monomials, key=grevlex_key)`` lists them
    smallest first."""
    return (sum(exps), tuple(-x for x in reversed(exps)))


def mono_mul(a: Exps, b: Exps) -> Exps:
    return tuple(map(add, a, b))


def mono_divides(a: Exps, b: Exps) -> bool:
    return all(map(le, a, b))


def mono_div(a: Exps, b: Exps) -> Exps:
    return tuple(map(sub, a, b))


def mono_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def _mul(a: dict, b: dict) -> dict:
    """The product of two term dicts, with no zero term."""
    out: dict = {}
    get = out.get
    right = list(b.items())
    for ea, ca in a.items():
        for eb, cb in right:
            e = tuple(map(add, ea, eb))
            v = get(e)
            out[e] = ca * cb if v is None else v + ca * cb
    return {e: v for e, v in out.items() if v}


def _sum(a: dict, b: dict, sign: int) -> dict:
    """a + b, or a - b for sign -1, as a new term dict with no zero term."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = c if sign > 0 else -c
        else:
            v = v + c if sign > 0 else v - c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _power(a: dict, k: int, one: dict) -> dict:
    """a^k by repeated squaring, one the term dict of the constant 1."""
    if len(a) == 1:
        ((e, c),) = a.items()
        return {tuple(x * k for x in e): c**k}
    out = one
    while k:
        if k & 1:
            out = _mul(out, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return out


def _diff(terms: dict, i: int) -> dict:
    """The partial derivative of a term dict in variable i, with no zero term."""
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}


class Polynomial:
    """An exact polynomial in a fixed number of variables.

    A Polynomial is immutable: nothing changes ``nvars`` or ``terms`` after
    construction, and no two polynomials share a ``terms`` dict.  The
    constructor validates its input; the operations build their results
    with ``_of``, which adopts a dict they made.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exps, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Exps, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                try:
                    e = tuple(map(operator.index, exps))
                except TypeError:
                    e = None
                if e is None or len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError(
                        f"exponents {exps!r} are not {nvars} non-negative integers"
                    )
                c = rational(c)
                if c:
                    self.terms[e] = c

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exps, Fraction]) -> "Polynomial":
        """Adopt terms as it is: exponent tuples to nonzero Fractions, in a
        dict that nothing else holds or changes."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        i = operator.index(i)
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} is not in range({nvars})")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Exps, c=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Polynomial({format_poly(self, names)!r})"

    def _binop(self, other, op, *args) -> "Polynomial":
        """op(self.terms, other.terms, *args), other a Polynomial or a number."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomials have different variable counts")
        return Polynomial._of(self.nvars, op(self.terms, other.terms, *args))

    def __add__(self, other):
        return self._binop(other, _sum, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, _sum, -1)

    def __rsub__(self, other):
        return (-self)._binop(other, _sum, 1)

    def __neg__(self):
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        return self._binop(other, _mul)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take non-negative integers")
        one = {(0,) * self.nvars: Fraction(1)}
        return Polynomial._of(self.nvars, _power(self.terms, k, one))

    def diff(self, i: int) -> "Polynomial":
        return Polynomial._of(self.nvars, _diff(self.terms, i))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, exps: Exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exps, Fraction]:
        """The largest term in grevlex, as (exponents, coefficient)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]


def partials(f: Polynomial) -> list[Polynomial]:
    """All formal partial derivatives of f, in variable order."""
    return [f.diff(i) for i in range(f.nvars)]


def weighted_degree(exps: Exps, weights: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(exps, weights))


def is_quasi_homogeneous(f: Polynomial, weights: Sequence[int], r: int) -> bool:
    """True iff every term of f has weighted degree exactly r."""
    if len(weights) != f.nvars:
        raise ValueError("weight vector length must match the variable count")
    return all(weighted_degree(e, weights) == r for e in f.terms)


def is_homogeneous(f: Polynomial) -> bool:
    return is_quasi_homogeneous(f, (1,) * f.nvars, f.total_degree()) if f.terms else True


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*/^()<>,])|(?P<bad>\S))"
)
_FORM_CHARS = str.maketrans("⟨⟩−", "<>-")


def parse(src: str, variables: Sequence[str]) -> Polynomial:
    """Parse a polynomial expression over the declared variables.

    Grammar: integer literals, variable names, parentheses, binary + - * /
    and ^ with a non-negative integer exponent.  * and / share a precedence
    and associate to the left, ^ binds tighter, and a sign may precede any
    factor, so "2/3^2" is 2/9, "t/2/3" is t/6 and "2*-x" is -2x.
    Multiplication is always explicit.  A polynomial may divide only by a
    nonzero constant, so "3/2*x" and "x/2" parse and "x/y" does not.
    Unknown names, syntax errors and division by zero carry the offending
    position.
    """
    return _parse(src, variables, "polynomial")[0]


def parse_form(src: str, variables: Sequence[str]) -> list:
    """Parse a form such as "<1, t/2> - <3>" into (sign, numerator,
    denominator, text, position) tuples, one per entry.

    A form is "0" or signed groups "<e1, ..., ek>", a sign between any two,
    and "⟨", "⟩", "−" read as "<", ">", "-".  Each entry is read as by
    ``parse`` but may divide by a non-constant; its denominator is the
    constant 1 unless it does.
    """
    return _parse(src.translate(_FORM_CHARS), variables, "form")


def check_names(variables: Sequence[str]) -> list[str]:
    """The variable names as a list; a ParseError unless they are distinct
    identifiers."""
    names = list(variables)
    for i, name in enumerate(names):
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise ParseError(f"variable name {name!r} at index {i} is not an identifier")
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names")
    return names


def _parse(src: str, variables: Sequence[str], mode: str):
    """Read src as a "polynomial", which divides only by nonzero constants,
    or as a "form", whose entries may divide by anything nonzero.

    Every value is a pair (num, den) of term dicts with int or Fraction
    coefficients, den None for 1 until the expression divides by a
    non-constant.  No Polynomial arithmetic runs; Polynomials are made only
    for the pairs returned, one per form entry or one for a polynomial.
    """
    names = check_names(variables)
    nvars = len(names)
    zero = (0,) * nvars
    one = {zero: 1}
    index = {name: zero[:i] + (1,) + zero[i + 1 :] for i, name in enumerate(names)}
    # (kind, text, position): every character but whitespace starts a token
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN.finditer(src)]
    for kind, text, at in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", at)
    tokens.append(("end", "", len(src)))
    pos = 0

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def is_op(chars):
        kind, text, _ = tokens[pos]
        return kind == "op" and text in chars

    def expect(char):
        kind, text, at = take()
        if (kind, text) != ("op", char):
            raise ParseError(f"expected {char!r}, found {text or 'end of input'!r}", at)

    def times(a, b):  # a*b, where None is the constant 1
        return a if b is None else b if a is None else _mul(a, b)

    def polynomials(num, den):
        pair = num, den or one
        return tuple(Polynomial._of(nvars, {e: Fraction(c) for e, c in t.items()}) for t in pair)

    def parse_expr():
        num, den = parse_term()
        while is_op("+-"):
            sign = 1 if take()[1] == "+" else -1
            n2, d2 = parse_term()
            if d2 is not den:
                num, n2, den = times(num, d2), times(n2, den), times(den, d2)
            num = _sum(num, n2, sign)
        return num, den

    def parse_term():
        num, den = parse_unary()
        while is_op("*/"):
            op, at = take()[1:]
            n2, d2 = parse_unary()
            if op == "/":  # multiply by the inverse of n2 / d2
                if not n2:
                    raise ParseError("division by zero", at)
                if len(n2) == 1 and zero in n2:
                    n2, d2 = times(d2, {zero: 1 / Fraction(n2[zero])}), None
                elif mode == "polynomial":
                    raise ParseError("a polynomial may divide only by a nonzero constant", at)
                else:
                    n2, d2 = d2, n2
            num, den = times(num, n2), times(den, d2)
        return num, den

    def parse_sign():
        sign = 1
        while is_op("+-"):
            if take()[1] == "-":
                sign = -sign
        return sign

    def parse_unary():
        sign = parse_sign()
        num, den = parse_atom()
        if is_op("^"):
            take()
            kind, text, at = take()
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer", at)
            k = int(text)
            num, den = _power(num, k, one), den and _power(den, k, one)
        return (num if sign > 0 else {e: -c for e, c in num.items()}), den

    def parse_atom():
        kind, text, at = take()
        if kind == "num":
            return {zero: int(text)} if int(text) else {}, None
        if kind == "name":
            if text not in index:
                raise UnknownVariableError(f"unknown variable {text!r}", at)
            return {index[text]: 1}, None
        if kind == "op" and text == "(":
            inner = parse_expr()
            expect(")")
            return inner
        raise ParseError(f"expected a number, variable, or '(', found {text or 'end of input'!r}", at)

    def parse_form():
        entries, first = [], True
        while first or is_op("+-"):
            sign = parse_sign()
            if first and tokens[pos][1] == "0" and tokens[pos + 1][0] == "end":
                take()
                break
            expect("<")
            more = not is_op(">")
            while more:
                at = tokens[pos][2]
                num, den = polynomials(*parse_expr())
                entries.append((sign, num, den, src[at : tokens[pos][2]].strip(), at))
                more = is_op(",") and take()
            expect(">")
            first = False
        return entries

    out = parse_form() if mode == "form" else parse_expr()
    kind, text, at = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected {text!r} after expression", at)
    return out if mode == "form" else polynomials(*out)


def format_poly(f: Polynomial, variables: Sequence[str]) -> str:
    """Render f, largest term first, so that parse(format_poly(f, vs), vs) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for exps in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[exps]
        factors = []
        for name, e in zip(variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Groebner machinery, over the integers
# ---------------------------------------------------------------------------

Ints = dict[Exps, int]


def clear_denominators(polys: Iterable[Polynomial]) -> tuple[list[Ints], int]:
    """The polynomials times the lcm L of all their denominators, as term
    dicts with int coefficients, and L."""
    polys = list(polys)
    scale = math.lcm(*(c.denominator for f in polys for c in f.terms.values()))
    return [
        {e: c.numerator * (scale // c.denominator) for e, c in f.terms.items()} for f in polys
    ], scale


def _primitive(terms: Ints, lead: Exps) -> Ints:
    """terms divided by their content, signed so that the coefficient of
    lead is positive."""
    content = math.gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content == 1:
        return terms
    return {e: c // content for e, c in terms.items()}


def _divisor(lead: Exps, terms: Ints) -> tuple[Exps, int, list[tuple[Exps, int]]]:
    """A primitive element as ``_reduce`` reads it: leading monomial, leading
    coefficient and the other terms."""
    return lead, terms[lead], [(e, c) for e, c in terms.items() if e != lead]


def _spoly(ef: Exps, f: Ints, eg: Exps, g: Ints) -> Ints:
    """S-polynomial of f and g with leading monomials ef and eg: both shifted
    to the lcm of those, f scaled by lc(g)/k and g by lc(f)/k, k the gcd of
    the leading coefficients, and subtracted, all into one dict."""
    a, b = f[ef], g[eg]
    k = math.gcd(a, b)
    l = mono_lcm(ef, eg)
    shift, scale = mono_div(l, ef), b // k
    out = {tuple(map(add, shift, e)): scale * c for e, c in f.items()}
    shift, scale = mono_div(l, eg), a // k
    for e, c in g.items():
        m = tuple(map(add, shift, e))
        v = out.get(m, 0) - scale * c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _reduce(f: Ints, divisors: Sequence[tuple[Exps, int, list]]) -> Ints:
    """A positive multiple of the full normal form of f modulo the divisors
    (every term reduced), each a ``_divisor`` with a positive leading
    coefficient.

    The dividend is one dict, changed in place, and a heap of its
    monomials' grevlex keys yields its largest term c*m.  The first divisor
    whose leading term a*lm divides it cancels it fraction-free: the
    dividend and the remainder so far are scaled by a/gcd(a, c), and
    c/gcd(a, c) times the divisor shifted by m/lm is subtracted.  A term no
    leading monomial divides moves to the remainder, which so fills in
    descending grevlex order: its first key is its leading monomial.
    """
    p = dict(f)
    # (-degree, reversed exponents) orders monomials as descending grevlex
    heap = [(-sum(e), e[::-1]) for e in p]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder: Ints = {}
    while heap:
        e = pop(heap)[1][::-1]
        c = p.pop(e, None)
        if c is None:  # cancelled, or taken at an equal entry of the heap
            continue
        for eg, a, tail in divisors:
            if all(map(le, eg, e)):
                k = math.gcd(a, c)
                if k != a:
                    s = a // k
                    for m in p:
                        p[m] *= s
                    for m in remainder:
                        remainder[m] *= s
                q = c // k
                shift = tuple(map(sub, e, eg))
                for et, ct in tail:
                    m = tuple(map(add, shift, et))
                    v = p.get(m)
                    if v is None:
                        p[m] = -q * ct
                        push(heap, (-sum(m), m[::-1]))
                    else:
                        v -= q * ct
                        if v:
                            p[m] = v
                        else:
                            del p[m]
                break
        else:
            remainder[e] = c
    return remainder


def _buchberger(gens: list[Ints]) -> tuple[list[Ints], list[Exps]]:
    """A Groebner basis of the nonzero integer generators: its elements,
    primitive with positive leading coefficients, and their leading
    monomials."""
    lead = [max(g, key=grevlex_key) for g in gens]
    basis = [_primitive(g, e) for g, e in zip(gens, lead)]
    divisors = [_divisor(e, g) for e, g in zip(lead, basis)]
    # the pairs not yet taken, and a heap of them under the selection key,
    # made once per pair: normal selection takes the smallest lcm in
    # grevlex, with the pair itself as the tie-break
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def add_pairs(t: int) -> None:
        for k in range(t):
            pairs.add((k, t))
            heapq.heappush(queue, (grevlex_key(mono_lcm(lead[k], lead[t])), (k, t)))

    for t in range(len(basis)):
        add_pairs(t)
    while queue:
        i, j = heapq.heappop(queue)[1]
        pairs.remove((i, j))
        li, lj = lead[i], lead[j]
        l = mono_lcm(li, lj)
        # first Buchberger criterion: coprime leading monomials
        if l == mono_mul(li, lj):
            continue
        # chain criterion: some k divides the lcm and both side pairs are done
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lead[k], l):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 not in pairs and p2 not in pairs:
                skip = True
                break
        if skip:
            continue
        s = _reduce(_spoly(li, basis[i], lj, basis[j]), divisors)
        if not s:
            continue
        e = next(iter(s))
        s = _primitive(s, e)
        basis.append(s)
        lead.append(e)
        divisors.append(_divisor(e, s))
        add_pairs(len(basis) - 1)
    return basis, lead


def _reduce_basis(basis: list[Ints], lead: list[Exps]) -> list[tuple[Exps, Ints]]:
    """The reduced basis of a Groebner basis of primitive elements, as
    ``_buchberger`` makes, as (leading monomial, primitive element) pairs in
    ascending grevlex order of the leading monomials."""
    # minimize: drop elements whose leading monomial another element divides
    minimal: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: grevlex_key(lead[i])):
        if not any(mono_divides(lead[k], lead[i]) for k in minimal):
            minimal.append(i)
    # tail-reduce each element against the others; the leading term stays
    divisors = {k: _divisor(lead[k], basis[k]) for k in minimal}
    out = []
    for i in minimal:
        others = [divisors[k] for k in minimal if k != i]
        g = _reduce(basis[i], others) if others else basis[i]
        out.append((lead[i], _primitive(g, lead[i])))
    return out


def _combine(pairs: Iterable[tuple]) -> tuple[dict[int, int], int]:
    """The sum of c * vec / d over pairs (c, (vec, d)) of an int and a normal
    form, as a vector of nonzero ints and its denominator, the lcm of the d;
    the two may share a factor."""
    pairs = list(pairs)
    den = math.lcm(*(d for _, (_, d) in pairs))
    acc: dict[int, int] = {}
    get = acc.get
    for c, (vec, d) in pairs:
        c *= den // d
        for k, a in vec.items():
            acc[k] = get(k, 0) + c * a
    return {k: v for k, v in acc.items() if v}, den


class QuotientBasis:
    """A reduced Groebner basis, ``reduced``, as ``_reduce_basis`` returns it
    over the integers, with its standard monomials, ``_standard``; these are
    None, and so ``is_finite`` is False, for an infinite quotient."""

    __slots__ = ("reduced", "nvars", "_standard", "_nf_cache", "_groebner")

    def __init__(self, reduced: list[tuple[Exps, Ints]], nvars: int,
                 standard: tuple[Exps, ...] | None):
        self.reduced = reduced
        self.nvars = nvars
        self._standard = standard
        self._nf_cache: dict[Exps, tuple[dict[int, int], int]] = {}
        self._groebner: tuple[Polynomial, ...] | None = None

    @property
    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced basis made monic: Polynomials, built on first read."""
        if self._groebner is None:
            self._groebner = tuple(
                Polynomial._of(self.nvars, {e: Fraction(c, g[lead]) for e, c in g.items()})
                for lead, g in self.reduced
            )
        return self._groebner

    @property
    def is_finite(self) -> bool:
        return self._standard is not None

    @property
    def standard_monomials(self) -> tuple[Exps, ...]:
        if not self.is_finite:
            raise InfiniteQuotientError(
                "the quotient ring is infinite-dimensional (non-isolated locus)"
            )
        return self._standard

    @property
    def dimension(self) -> int:
        return len(self.standard_monomials)

    def nf_vector(self, exps: Exps) -> tuple[dict[int, int], int]:
        """Normal form of a single monomial as (vector, denominator): the
        coefficient of standard monomial k is vector[k] / denominator.  The
        vector holds nonzero ints only, the denominator is positive, and the
        two share no factor, so the zero vector comes with denominator 1.

        No polynomial is divided; this is the multiplication-matrix step of
        FGLM (Faugere, Gianni, Lazard and Mora, 1993).  A standard monomial
        is its own unit vector and a leading monomial of the reduced basis is
        minus its tail.  Any other monomial m lies in the leading-term ideal
        and is x_i*m' with m' still in it, so NF(m) = sum_b NF(m')_b *
        NF(x_i*b) over standard b, summed over the lcm of the denominators.
        Every monomial on the right is smaller than m in grevlex, so the
        recursion ends; it runs on an explicit stack, and every vector is
        kept for the later calls.
        """
        exps = tuple(exps)
        cache = self._nf_cache
        hit = cache.get(exps)
        if hit is not None:
            return hit
        if not cache:
            self._seed_nf_cache()
        standard = self._standard
        stack = [exps]
        while stack:
            m = stack[-1]
            if m in cache:
                stack.pop()
                continue
            lead = next(l for l, _ in self.reduced if mono_divides(l, m))
            i = next(k for k, (a, b) in enumerate(zip(m, lead)) if a > b)
            shorter = m[:i] + (m[i] - 1,) + m[i + 1 :]
            hit = cache.get(shorter)
            if hit is None:
                stack.append(shorter)
                continue
            head, head_den = hit
            shifted = [standard[b][:i] + (standard[b][i] + 1,) + standard[b][i + 1 :] for b in head]
            missing = [t for t in shifted if t not in cache]
            if missing:
                stack.extend(missing)
                continue
            acc, den = _combine(zip(head.values(), [cache[t] for t in shifted]))
            den *= head_den
            common = math.gcd(den, *acc.values())
            if common > 1:
                acc = {k: v // common for k, v in acc.items()}
                den //= common
            cache[m] = (acc, den)
            stack.pop()
        return cache[exps]

    def _seed_nf_cache(self) -> None:
        """Unit vectors of the standard monomials, and the leading monomials'
        normal forms, read off the integer basis: minus the tail of the
        element over its leading coefficient.  The element is primitive, so
        the two share no factor."""
        pos = {e: k for k, e in enumerate(self.standard_monomials)}
        cache = self._nf_cache
        for e, k in pos.items():
            cache[e] = ({k: 1}, 1)
        for lead, g in self.reduced:
            cache[lead] = ({pos[e]: -c for e, c in g.items() if e != lead}, g[lead])


def groebner(gens: Iterable[Polynomial]) -> QuotientBasis:
    """Reduced grevlex Groebner basis of the ideal, plus the quotient's monomial basis.

    The generators' denominators are cleared, and the basis is computed and
    kept over the integers; ``QuotientBasis.groebner`` makes it monic on
    first read.  The reduced basis is unique, so identical inputs produce
    identical bases.  Standard monomials come back sorted ascending in
    grevlex when the quotient is finite-dimensional; otherwise the result is
    flagged infinite and the ideal's basis is still available.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise InvalidIdealError("no nonzero generators given")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generators have mixed variable counts")
    reduced = _reduce_basis(*_buchberger(clear_denominators(gens)[0]))
    leads = [lead for lead, _ in reduced]

    if leads == [(0,) * nvars]:
        return QuotientBasis(reduced, nvars, ())

    # zero-dimensionality: each variable has a pure-power leading monomial, one at most
    bounds: list[int | None] = [None] * nvars
    for e in leads:
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            bounds[nz[0]] = e[nz[0]]
    if None in bounds:
        return QuotientBasis(reduced, nvars, None)

    # The standard monomials are an order ideal: walk its staircase from the
    # origin over the first nvars - 1 exponents, stepping +1 only at or after
    # the last one raised, so each prefix is reached once.  (e, k) is standard
    # iff k is below every last exponent of a leading monomial whose other
    # exponents are <= e; x_n's pure power keeps that minimum defined, and a
    # prefix whose minimum is 0 is not stepped out of.
    heads = [(l[:-1], l[-1]) for l in leads]
    standard, stack = [], [((0,) * (nvars - 1), 0)]
    while stack:
        e, first = stack.pop()
        top = min(t for h, t in heads if all(map(le, h, e)))
        if top:
            standard.extend(e + (k,) for k in range(top))
            stack.extend((e[:i] + (e[i] + 1,) + e[i + 1 :], i) for i in range(first, nvars - 1))
    standard.sort(key=grevlex_key)
    return QuotientBasis(reduced, nvars, tuple(standard))
