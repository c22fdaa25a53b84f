"""The ring contract shared by GradedPoly, PointedClass and CurveClass."""

import pytest

from sqtaut.curve import OMEGA, SIGMA, cc_omega, cc_scalar, cc_sigma
from sqtaut.kappa_lambda import kappa_class, kl_one, lambda_class
from sqtaut.pointed import pc_diagonal, pc_one, pc_psihat
from sqtaut.rings import InputError

G, D, CAP = 4, 3, 2


def graded():
    x = kl_one(G) + kappa_class(G, 1) - 2 * lambda_class(G, 2)
    y = 3 * kappa_class(G, 2) + lambda_class(G, 1)
    return x, y, kappa_class(G + 1, 1)


def pointed():
    x = pc_one(G, D) + pc_psihat(G, D, 1) - kappa_class(G, 1) * pc_diagonal(G, D, (1, 2))
    y = 2 * pc_psihat(G, D, 2) + pc_diagonal(G, D, (2, 3)) + lambda_class(G, 1) * pc_one(G, D)
    return x, y, pc_one(G, D + 1)


def curve():
    x = cc_scalar(G, D, 1) + cc_omega(G, D) + cc_sigma(G, D, 1)
    y = pc_psihat(G, D, 1) * cc_sigma(G, D, 2) - kappa_class(G, 1) * cc_omega(G, D)
    return x, y, cc_omega(G + 1, D)


BUILDERS = [graded, pointed, curve]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_additive_inverse_and_subtraction(build):
    x, y, _ = build()
    assert (x + (-x)).is_zero
    assert not (x + (-x))
    assert x - y == x + (-y)
    assert x - y != y - x
    assert 1 - x == -(x - 1)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_capped_power_matches_repeated_product(build):
    x, y, _ = build()
    capped = x.truncate(CAP)
    cube = capped ** 3
    assert cube == capped * capped * capped
    assert cube == (x * x * x).truncate(CAP)
    assert cube.cap == CAP
    assert capped ** 0 == 1
    with pytest.raises(InputError):
        x ** -1


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_equality_ignores_the_cap(build):
    x, y, _ = build()
    assert x.truncate(10) == x
    assert x.truncate(10).cap == 10 and x.cap is None
    assert (x + y).truncate(10) == x.truncate(10) + y


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_mismatched_space_rejected(build):
    x, _, other = build()
    with pytest.raises(InputError):
        x + other
    with pytest.raises(InputError):
        x - other
    with pytest.raises(InputError):
        x * other
    assert x != other


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_table_is_read_only(build):
    x, _, _ = build()
    table = x._table
    key, value = next(iter(table.items()))
    with pytest.raises(TypeError):
        table[key] = value
    with pytest.raises(AttributeError):
        table.clear()
    with pytest.raises(AttributeError):
        x.cap = 1


def test_curve_class_cap_bounds_coefficient_degree():
    # omega and sigma add nothing to the degree the cap bounds
    x = kappa_class(G, 2) * cc_omega(G, D) + cc_sigma(G, D, 1)
    assert set(x.terms) == {(OMEGA, 1), (SIGMA, 1)}
    assert set(x.truncate(1).terms) == {(SIGMA, 1)}
