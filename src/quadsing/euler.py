"""Euler characteristics of smooth projective hypersurfaces.

Rank-level values come from graded Jacobian rings, whose pieces
``jacobian_hilbert_series`` counts from the weights alone: with all weights
1 it yields the primitive Hodge numbers of a smooth degree-d form in N+1
variables, hence the topological Euler characteristic.  At the
Grothendieck-Witt level the compactly-supported characteristic is
implemented for split quadrics through their pure-Tate decomposition, using
chi^c of the i-th Tate twist = <-1>^i; only that path loads ``gw`` and ``tate``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .errors import InadmissibleWeightsError, InputDomainError

if TYPE_CHECKING:
    from .gw import GWElement


def jacobian_hilbert_series(weights: Sequence[int], r: int) -> tuple[int, ...]:
    """Coefficients of prod_i (1 - t^(r - a_i)) / prod_i (1 - t^(a_i)).

    For f quasi-homogeneous of degree r with an isolated singularity,
    coefficient k is the dimension of the weighted-degree-k piece of the
    Jacobian ring.  Each factor 1 - t^a is divided out exactly by the stride
    recurrence q[k] = p[k] + q[k-a]; a remainder means no isolated
    singularity has these weights and raises InadmissibleWeightsError.
    """
    if any(a < 1 or a > r for a in weights):
        raise InadmissibleWeightsError(f"weights must lie in [1, {r}] for degree {r}")
    series = [1]
    for a in weights:  # multiply by 1 - t^e, top down
        e = r - a
        series += [0] * e
        for k in reversed(range(e, len(series))):
            series[k] -= series[k - e]
    for a in weights:
        for k in range(a, len(series)):
            series[k] += series[k - a]
        if any(series[-a:]):
            raise InadmissibleWeightsError(
                f"weights {tuple(weights)} and degree {r} give no polynomial Hilbert series"
            )
        del series[-a:]
    return tuple(series)


def milnor_rank_weighted(weights: Sequence[int], r: int) -> int:
    """The Milnor number: the sum of ``jacobian_hilbert_series``."""
    return sum(jacobian_hilbert_series(weights, r))


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
    from .gw import RATIONALS, diag_form
    from .tate import quadric_motive

    return diag_form([(-1) ** -t for t, _ in quadric_motive(n).summands], RATIONALS)
