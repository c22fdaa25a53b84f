"""Genus-zero chain spaces and intersection numbers."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from sqtaut.genus0 import intersect_M02d, poincare_Q02, psi_integral_M0n
from sqtaut.rings import InputError


def tpoly(pairs):
    """Coefficient list of sum c * t^exp over (exp, c) pairs."""
    out = [Fraction(0)] * (max(exp for exp, _ in pairs) + 1)
    for exp, c in pairs:
        out[exp] += c
    return out


# -- oracle: string equation for psi integrals ----------------------------
# removing a psi-free point subtracts 1 from one exponent in all ways.

def psi_by_string_equation(a):
    a = tuple(a)
    n = len(a)
    if sum(a) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    if all(v > 0 for v in a):  # off-dimension, unreachable when sum = n-3
        return Fraction(0)
    j = next(i for i in range(n) if a[i] == 0)
    rest = a[:j] + a[j + 1:]
    total = Fraction(0)
    for i in range(n - 1):
        if rest[i] > 0:
            total += psi_by_string_equation(rest[:i] + (rest[i] - 1,) + rest[i + 1:])
    return total


def compositions(d: int):
    """All ordered compositions of d >= 1, as tuples of positive parts, in
    lexicographic order: the chain components that poincare_Q02 sums over."""
    if d < 1:
        raise InputError("d must be >= 1")

    def rec(rest):
        if rest == 0:
            yield ()
            return
        for head in range(1, rest + 1):
            for tail in rec(rest - head):
                yield (head,) + tail

    yield from rec(d)


def test_composition_enumeration():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert sum(1 for _ in compositions(8)) == 2 ** 7
    assert all(sum(c) == 6 and min(c) >= 1 for c in compositions(6))
    with pytest.raises(InputError):
        list(compositions(0))
    # the strata sum that poincare_Q02 groups by the last part
    for d in range(1, 9):
        strata = [0] * (2 * d - 1)
        for c in compositions(d):
            strata[2 * sum(part - 1 for part in c)] += 1
        assert poincare_Q02(d) == strata


def test_poincare_closed_form():
    # (1 + t^2)^(d-1), checked for d <= 12
    for d in range(1, 13):
        expect = tpoly([(2 * j, comb(d - 1, j)) for j in range(d)])
        assert poincare_Q02(d) == expect


def test_poincare_examples():
    assert poincare_Q02(1) == [1]
    assert poincare_Q02(4) == tpoly([(0, 1), (2, 3), (4, 3), (6, 1)])


def test_poincare_large_d_is_fast():
    # grouped by the last chain component instead of enumerating 2^(d-1)
    # compositions
    start = time.perf_counter()
    got = poincare_Q02(200)
    assert time.perf_counter() - start < 1
    assert got == tpoly([(2 * j, comb(199, j)) for j in range(200)])


def test_poincare_additions_are_estimated_before_computing(monkeypatch):
    from sqtaut import genus0

    assert genus0.MAX_ADDITIONS >= 200 + 201 * 200 * 199 // 6  # poincare_Q02(200) runs
    monkeypatch.setattr(genus0, "MAX_ADDITIONS", 14)
    assert poincare_Q02(4) == tpoly([(0, 1), (2, 3), (4, 3), (6, 1)])
    with pytest.raises(InputError, match=r"^poincare_Q02\(5\) needs 25 coefficient "
                                         r"additions; the limit is 14$"):
        poincare_Q02(5)


def test_intersect_additions_are_estimated_before_computing(monkeypatch):
    from sqtaut import genus0

    # d (min(x1, x2) + 1): the exponents, then up to min(x1, x2) + 1 states a level
    monkeypatch.setattr(genus0, "MAX_ADDITIONS", 20)
    assert intersect_M02d(5, 3, 1) == intersect_M02d(5, 3, 1, (0,) * 5) == comb(4, 1)
    with pytest.raises(InputError, match=r"^intersect_M02d\(7, 3, 3\) needs 28 coefficient "
                                         r"additions; the limit is 20$"):
        intersect_M02d(7, 3, 3)
    with pytest.raises(InputError, match=r"^intersect_M02d\(21, 0, 20\) needs 21 "):
        intersect_M02d(21, 0, 20, iter(()))  # refused before y is read
    with pytest.raises(InputError, match=r"^intersect_M02d\(21, -1, 0\) needs 21 "):
        intersect_M02d(21, -1, 0)


def test_intersect_vanishing_off_dimension():
    assert intersect_M02d(3, 1, 0, (0, 0, 0)) == 0
    assert intersect_M02d(2, 0, 0, (0, 0)) == 0
    assert intersect_M02d(4, 2, 2, (0, 0, 0, 0)) == 0


def test_intersect_multinomial_closed_form():
    # all-zero light exponents: binom(d-1; x1, x2), checked for d <= 10
    for d in range(1, 11):
        for x1 in range(d):
            x2 = d - 1 - x1
            got = intersect_M02d(d, x1, x2, (0,) * d)
            assert got == comb(d - 1, x1)


def test_intersect_vanishes_with_light_psi():
    for d in range(2, 8):
        for j in range(d):
            y = [0] * d
            y[j] = 1
            for x1 in range(d - 1):
                x2 = d - 2 - x1
                assert intersect_M02d(d, x1, x2, y) == 0
    assert intersect_M02d(3, 0, 0, (1, 1, 0)) == 0


def test_intersect_large_d_is_fast():
    # the level-by-level table needs neither a call stack nor 2^d paths
    start = time.perf_counter()
    assert intersect_M02d(40, 20, 19, (0,) * 40) == comb(39, 20)
    assert time.perf_counter() - start < 1
    assert intersect_M02d(1100, 0, 1099, (0,) * 1100) == 1
    y = [0] * 40
    y[7] = 1
    assert intersect_M02d(40, 20, 18, y) == 0
    assert intersect_M02d(40, 0, 0, (1,) * 39 + (0,)) == 0


def test_intersect_light_point_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(2, 7)
        y = [rng.randint(0, 1) for _ in range(d)]
        x1 = rng.randint(0, 2)
        x2 = d - 1 - x1 - sum(y)
        if x2 < 0:
            continue
        base = intersect_M02d(d, x1, x2, y)
        rng.shuffle(y)
        assert intersect_M02d(d, x1, x2, y) == base


def test_psi_integral_examples():
    assert psi_integral_M0n((0, 0, 0)) == 1
    assert psi_integral_M0n((1, 0, 0, 0)) == 1
    assert psi_integral_M0n((1, 1, 0, 0, 0)) == 2
    assert psi_integral_M0n((2, 0, 0, 0, 0)) == 1
    assert psi_integral_M0n((1, 0, 0)) == 0


def test_psi_integral_against_string_equation():
    for n in range(3, 9):
        for a in itertools.combinations_with_replacement(range(4), n):
            if sum(a) != n - 3:
                continue
            assert psi_integral_M0n(a) == psi_by_string_equation(a)


def test_psi_integral_input_checks():
    with pytest.raises(InputError):
        psi_integral_M0n((0, 0))
    with pytest.raises(InputError):
        psi_integral_M0n((-1, 0, 0, 1, 1))
    with pytest.raises(InputError):
        intersect_M02d(2, 0, 0, (0,))
