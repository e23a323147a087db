"""Euler characteristics of smooth projective hypersurfaces.

Rank-level values come from the graded Jacobian ring of a smooth degree-d
form in N+1 variables: ``ekl.jacobian_hilbert_series`` with all weights 1
yields the primitive Hodge numbers, hence the topological Euler
characteristic.  At the Grothendieck-Witt level the compactly-supported
characteristic is implemented for split quadrics through their pure-Tate
decomposition, using chi^c of the i-th Tate twist = <-1>^i.
"""

from __future__ import annotations

from .ekl import jacobian_hilbert_series
from .errors import InputDomainError
from .gw import GWElement, RATIONALS, diag_form
from .tate import quadric_motive


def primitive_hodge(d: int, N: int) -> tuple[int, ...]:
    """The primitive Hodge numbers of a smooth hypersurface of degree d in P^N.

    Entry q, for q = 0..N-1, is the dimension of the degree-((q+1)d - N - 1)
    part of the Jacobian ring; valid for any d >= 2 and N >= 1, and the
    numbers depend only on (d, N).  Hodge symmetry, entry q equal to entry
    N-1-q, is asserted.
    """
    if d < 2:
        raise InputDomainError("degree must be at least 2")
    if N < 1:
        raise InputDomainError("ambient projective dimension must be at least 1")
    series = jacobian_hilbert_series((1,) * (N + 1), d)
    degrees = range(d - N - 1, N * (d - 1), d)  # (q + 1)d - N - 1 for q = 0..N-1
    prim = tuple(series[k] if 0 <= k < len(series) else 0 for k in degrees)
    if prim != prim[::-1]:
        raise AssertionError("Hodge symmetry failed; this is a bug")
    return prim


def euler_rank(d: int, N: int) -> int:
    """Topological Euler characteristic of a smooth degree-d hypersurface in P^N."""
    n = N - 1
    return (n + 1) + (-1) ** n * sum(primitive_hodge(d, N))


def chi_split_quadric(n: int) -> GWElement:
    """chi^c of a split quadric of dimension n, via the Tate decomposition.

    Each summand 1(t)[s] of ``tate.quadric_motive(n)`` has even s and
    realizes to <-1>^(-t), so the class is the sum of <(-1)^(-t)>.
    """
    return diag_form([(-1) ** -t for t, _ in quadric_motive(n).summands], RATIONALS)
