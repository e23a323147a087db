"""Euler characteristics of smooth projective hypersurfaces.

Rank-level values come from the graded Jacobian ring of a smooth degree-d
form in N+1 variables: ``ekl.jacobian_hilbert_series`` with all weights 1
yields the primitive Hodge numbers, hence the topological Euler
characteristic.  At the Grothendieck-Witt level the compactly-supported
characteristic is implemented for split quadrics through their pure-Tate
decomposition, using chi^c of the i-th Tate twist = <-1>^i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ekl import jacobian_hilbert_series
from .errors import InputDomainError
from .gw import GWElement, RATIONALS, diag_form


@dataclass(frozen=True)
class HodgeTable:
    """Primitive Hodge numbers of a smooth hypersurface of degree d in P^N."""

    d: int
    N: int
    primitive: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.N - 1

    def total_primitive(self) -> int:
        return sum(self.primitive)


def primitive_hodge(d: int, N: int) -> HodgeTable:
    """primitive[q] = dim of the degree-((q+1)d - N - 1) part of the Jacobian ring.

    Valid for any smooth hypersurface of degree d >= 2 in P^N, N >= 1; the
    table depends only on (d, N).  Hodge symmetry primitive[q] =
    primitive[n-q] is asserted.
    """
    if d < 2:
        raise InputDomainError("degree must be at least 2")
    if N < 1:
        raise InputDomainError("ambient projective dimension must be at least 1")
    series = jacobian_hilbert_series((1,) * (N + 1), d)
    degrees = range(d - N - 1, N * (d - 1), d)  # (q + 1)d - N - 1 for q = 0..N-1
    prim = tuple(series[k] if 0 <= k < len(series) else 0 for k in degrees)
    assert prim == prim[::-1], "Hodge symmetry failed"
    return HodgeTable(d, N, prim)


def euler_rank(d: int, N: int) -> int:
    """Topological Euler characteristic of a smooth degree-d hypersurface in P^N."""
    t = primitive_hodge(d, N)
    n = t.n
    return (n + 1) + (-1) ** n * t.total_primitive()


def chi_split_quadric(n: int) -> GWElement:
    """chi^c of a split quadric of dimension n, via the Tate decomposition.

    Sum over i = 0..n of <-1>^i, with one extra <-1>^(n/2) when n is even.
    """
    if n < 0:
        raise InputDomainError("quadric dimension must be non-negative")
    entries = [(-1) ** i for i in range(n + 1)]
    if n % 2 == 0:
        entries.append((-1) ** (n // 2))
    return diag_form(entries, RATIONALS)
