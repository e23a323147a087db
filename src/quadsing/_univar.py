"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of Fractions in ascending degree with no trailing
zeros; the empty tuple is zero.  These helpers back the residue-field classes
and the trace-form transfer of ``gw``, and its reading of rational functions
over Q((t)), whose first nonzero coefficients ``gw`` reads by index; there is
no evaluation here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import rational

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(coeffs) -> Poly:
    """A canonical polynomial from a sequence of exact numbers, not a str."""
    if isinstance(coeffs, str):
        raise TypeError(f"coefficients must be a sequence of numbers, not the string {coeffs!r}")
    return trim(tuple(map(rational, coeffs)))


def of_polynomial(f) -> Poly:
    """The coefficients of a one-variable ``poly.Polynomial``."""
    out = [Fraction(0)] * (f.total_degree() + 1)
    for (e,), c in f.terms.items():
        out[e] = c
    return tuple(out)


def const(c) -> Poly:
    return poly([c])


def trim(p) -> Poly:
    p = tuple(p)
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def is_zero(p: Poly) -> bool:
    return not p


def degree(p: Poly) -> int:
    return len(p) - 1


def lc(p: Poly) -> Fraction:
    return p[-1]


def mul(p: Poly, q: Poly) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def mod(p: Poly, q: Poly) -> Poly:
    """The remainder of p on division by q, over the field Q; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    dq = degree(q)
    inv = 1 / lc(q)
    for k in range(len(rem) - 1, dq - 1, -1):
        f = rem[k] * inv
        if f:
            for i, b in enumerate(q):
                rem[k - dq + i] -= f * b
    return trim(rem)


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    inv = 1 / lc(p)
    return tuple(c * inv for c in p)
