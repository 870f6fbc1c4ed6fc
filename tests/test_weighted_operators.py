"""Operators whose weight decides: theta_c = c ad and T = id on a 2-step
nilpotent system, and its member with L' != L (``conftest``'s
``weighted_identity`` and ``weighted_inclusion``).  Each is an operator
of weight 1 - 3c and of no other weight."""

from fractions import Fraction

import pytest

from triplekit.cohomology import OperatorComplex
from triplekit.fileio import load_algebra
from triplekit.fixtures import fixture_path
from triplekit.representations import verify_action, verify_representation
from triplekit.rota_baxter import check_rbo, check_rbo_all_weights

from conftest import weighted_identity, weighted_inclusion

F = Fraction


def lts3_identity(c):
    return weighted_identity(load_algebra(fixture_path("lts3")), c)


def lts4_identity(c):
    return weighted_identity(load_algebra(fixture_path("lts4")), c)


# (family, c, H^1 dims, H^3 dims) as Z/B/H; H^1 loses its coboundary
# only at c = 1, where theta_c is ad and delta X = (c - 1)[X, -] is 0
CASES = [
    *((lts3_identity, c, (5, int(c != 1), 5 - int(c != 1)), (10, 4, 6)) for c in (1, -1, F(1, 3), F(2, 3), 2)),
    *((lts4_identity, c, (9, int(c != 1), 9 - int(c != 1)), (31, 7, 24)) for c in (1, -1, F(1, 3), F(2, 3), 2)),
    *((weighted_inclusion, c, (7, int(c != 1), 7 - int(c != 1)), (14, 5, 9)) for c in (1, -1, F(2, 3))),
]


@pytest.mark.parametrize("family, c, h1, h3", CASES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_the_weight_decides_and_the_cohomology_is_pinned(family, c, h1, h3):
    rbo = family(c)
    action = rbo.action
    assert rbo.weight == 1 - 3 * F(c)
    assert verify_representation(action.rep) == ()
    assert verify_action(action) == ()
    assert check_rbo(action, rbo.weight, rbo.T) == ()
    for weight in {0, 1, -1} - {rbo.weight}:
        assert check_rbo(action, weight, rbo.T) != (), weight
    assert check_rbo_all_weights(action, rbo.T) != ()
    complex_ = OperatorComplex(rbo)
    one, three = complex_.cohomology(1).result, complex_.cohomology(3).result
    assert (one.dim_cocycles, one.dim_coboundaries, one.dim_H) == h1
    assert (three.dim_cocycles, three.dim_coboundaries, three.dim_H) == h3
    assert three.sign_convention == "complex"
