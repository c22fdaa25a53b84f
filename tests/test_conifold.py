"""Resolved-conifold local invariants: series expansion, scaling law."""

from fractions import Fraction
from math import factorial

import pytest

from sqtaut.conifold import (
    LocalSeries,
    check_scaling,
    conifold_F,
    conifold_N,
)
from sqtaut.rings import InputError, series_mul, truncated_inverse

# Series are coefficient lists indexed by degree.


def t_series_sin_half(maxdeg):
    """sin(t/2) as an exact t-series up to degree maxdeg."""
    out = [Fraction(0)] * (maxdeg + 1)
    for j in range((maxdeg + 1) // 2):
        out[2 * j + 1] = Fraction((-1) ** j, factorial(2 * j + 1)) / Fraction(2) ** (2 * j + 1)
    return out


def F_as_t_series(series, maxdeg):
    out = [Fraction(0)] * (maxdeg + 1)
    out[0] = series.constant_term
    for g in range(1, series.max_genus + 1):
        if 2 * g <= maxdeg:
            out[2 * g] = series.N1(g)
    return out


# -- oracle: second route, invert sin then square -------------------------

def oracle_coeffs(max_genus):
    half = [Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(max_genus + 1)]
    inv_half = truncated_inverse(half, max_genus)
    sq = series_mul(inv_half, inv_half, max_genus)
    return [sq[g] / Fraction(4) ** g for g in range(1, max_genus + 1)]


def test_frozen_small_values():
    s = conifold_F(3)
    assert s.N1(1) == Fraction(1, 12)
    assert s.N1(2) == Fraction(1, 240)
    assert s.N1(3) == Fraction(1, 6048)
    assert s.constant_term == 1


def test_two_expansion_routes_agree():
    s = conifold_F(12)
    assert list(s.coeffs) == oracle_coeffs(12)


def test_series_identity_F_times_sin_squared():
    # F(t) * (2 sin(t/2))^2 = t^2 exactly, through t^26
    maxdeg = 26
    s = conifold_F(13)
    sin_half = t_series_sin_half(maxdeg)
    sin_sq = [4 * c for c in series_mul(sin_half, sin_half, maxdeg)]
    lhs = series_mul(F_as_t_series(s, maxdeg), sin_sq, maxdeg)
    assert lhs == [0, 0, 1] + [0] * (maxdeg - 2)


def test_coefficients_positive():
    s = conifold_F(12)
    for g in range(1, 13):
        assert s.N1(g) > 0


def test_scaling_law():
    s = conifold_F(6)
    assert conifold_N(1, 2, s) == Fraction(1, 24)  # N_{1,1}/2
    assert conifold_N(1, 1, s) == Fraction(1, 12)
    assert conifold_N(2, 3, s) == Fraction(3, 240)
    for g in range(1, 7):
        for d in range(1, 6):
            expect = s.N1(g) * Fraction(d) ** (2 * g - 3)
            assert conifold_N(g, d, s) == expect


def test_input_validation():
    with pytest.raises(InputError):
        conifold_F(0)
    s = conifold_F(2)
    with pytest.raises(InputError):
        s.N1(3)
    with pytest.raises(InputError):
        conifold_N(0, 1, s)
    with pytest.raises(InputError):
        conifold_N(1, 0, s)
    with pytest.raises(InputError):
        LocalSeries(2, (Fraction(1),), Fraction(1))


def test_series_size_is_estimated_before_computing(monkeypatch):
    from sqtaut import conifold

    monkeypatch.setattr(conifold, "MAX_PRODUCTS", 16)
    assert conifold_F(3).max_genus == 3
    with pytest.raises(InputError, match=r"^conifold_F\(4\) needs about 25 coefficient "
                                         r"products; the limit is 16$"):
        conifold_F(4)


def test_scaled_digits_are_weighed_from_bit_lengths():
    # 1 + 198^2 powers of d's digits: 167 bits admit, 170 bits (10^51 - 1) do not
    check_scaling(199, 2 ** 167 - 1)
    check_scaling(1, 10 ** 4000)  # N_{1,d} writes d once
    with pytest.raises(InputError, match=r"^N\[g,d\] for g <= 199 at a d of 170 bits writes "
                                         r"about 2,006,319 digits; the limit is 2,000,000$"):
        check_scaling(199, 10 ** 51 - 1)
