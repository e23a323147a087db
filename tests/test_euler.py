"""Hodge numbers of smooth hypersurfaces and split-quadric Euler classes."""

from fractions import Fraction

import pytest

from quadsing import euler, gw
from quadsing.errors import InputDomainError


def _form(*entries):
    return gw.diag_form([Fraction(a) for a in entries])


def test_primitive_hodge_plane_curves():
    # cubic: genus 1, quartic: genus 3
    assert euler.primitive_hodge(3, 2) == (1, 1)
    assert euler.primitive_hodge(4, 2) == (3, 3)


def test_primitive_hodge_surfaces():
    # cubic surface: h^{1,1}_prim = 6
    assert euler.primitive_hodge(3, 3) == (0, 6, 0)
    # quartic surface (K3): 1, 19, 1
    assert euler.primitive_hodge(4, 3) == (1, 19, 1)


def test_primitive_hodge_low_cases():
    # plane conic: rational curve, no primitive cohomology
    assert euler.primitive_hodge(2, 2) == (0, 0)
    # split quadric surface: one primitive (1,1) class
    assert euler.primitive_hodge(2, 3) == (0, 1, 0)
    # three points on a line
    assert euler.primitive_hodge(3, 1) == (2,)


def test_primitive_hodge_symmetry():
    for d in range(2, 6):
        for N in range(1, 5):
            primitive = euler.primitive_hodge(d, N)
            assert primitive == tuple(reversed(primitive))
            assert len(primitive) == N


def test_primitive_hodge_rejects_bad_input():
    with pytest.raises(InputDomainError):
        euler.primitive_hodge(1, 2)
    with pytest.raises(InputDomainError):
        euler.primitive_hodge(3, 0)


def test_euler_rank_classics():
    assert euler.euler_rank(3, 2) == 0  # elliptic curve
    assert euler.euler_rank(4, 2) == -4  # genus 3 curve
    assert euler.euler_rank(3, 3) == 9  # cubic surface
    assert euler.euler_rank(4, 3) == 24  # K3
    assert euler.euler_rank(2, 3) == 4  # quadric surface
    assert euler.euler_rank(3, 1) == 3  # three points


def test_chi_split_quadric_small():
    # n = 0 is the point pair x^2 = y^2
    assert euler.chi_split_quadric(0) == _form(1, 1)
    assert gw.is_equal(euler.chi_split_quadric(1), _form(1, -1))
    assert gw.is_equal(euler.chi_split_quadric(2), _form(1, 1, -1, -1))


def test_chi_split_quadric_rank_matches_topology():
    for n in range(0, 7):
        assert euler.chi_split_quadric(n).rank == euler.euler_rank(2, n + 1)


def test_chi_split_quadric_signature():
    # hyperbolic in odd dimensions, signature 2 exactly when 4 | n
    for n in (1, 2, 3, 5, 6, 7):
        assert euler.chi_split_quadric(n).signature() == 0
    for n in (0, 4, 8):
        assert euler.chi_split_quadric(n).signature() == 2
