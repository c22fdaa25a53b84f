"""Local invariants of the resolved conifold: degree-1 invariants from the
squared sine expansion and the degree-scaling law.

The genus generating series is

    F(t) = sum_{g >= 1} N_{g,1} t^{2g} = ((t/2) / sin(t/2))^2 - 1,

computed exactly by inverting the squared sine series in the variable
v = (t/2)^2: with  S(v) = (sum_{j >= 0} (-1)^j v^j / (2j+1)!)^2  one has
((t/2)/sin(t/2))^2 = 1/S(v), and N_{g,1} is the v^g coefficient divided
by 4^g.  The closed form's constant term is 1 and is recorded separately
from the positive-genus coefficients.  Series in v are lists of Fractions
indexed by the power of v.

Higher degrees scale as N_{g,d} = d^(2g-3) * N_{g,1}; for g = 1 the
exponent is negative and the value is the exact rational N_{1,1}/d.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log10

from .rings import Frozen, InputError, series_mul, truncated_inverse

MAX_PRODUCTS = 40_000  # coefficient products of conifold_F: max_genus <= 199
# digits that the powers of d in N_{g,d}, 1 <= g <= max_genus, write: max_genus
# 199 at d < 2^167 (about 10^50), or 22 at d of 4,300 digits, the most `int` reads
MAX_DIGITS = 2_000_000


class LocalSeries(Frozen):
    """Exact coefficients N_{g,1} for 1 <= g <= max_genus.

    `constant_term` records the degree-zero value of the closed form
    ((t/2)/sin(t/2))^2, which is 1 and is not a curve count.
    """

    _fields = ("max_genus", "coeffs", "constant_term")

    def __init__(self, max_genus: int, coeffs: tuple, constant_term: Fraction) -> None:
        if max_genus < 1:
            raise InputError("max_genus must be >= 1")
        if len(coeffs) != max_genus:
            raise InputError("need one coefficient per genus")
        self._set(max_genus, coeffs, constant_term)

    def N1(self, g: int) -> Fraction:
        """N_{g,1}."""
        if not 1 <= g <= self.max_genus:
            raise InputError(f"genus {g} outside 1..{self.max_genus}")
        return self.coeffs[g - 1]


def _sine_square_series(max_genus: int) -> list:
    """(sin(u)/u)^2 as a series in v = u^2, truncated at v^max_genus."""
    half = [Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(max_genus + 1)]
    return series_mul(half, half, max_genus)


def conifold_F(max_genus: int) -> LocalSeries:
    """Exact N_{g,1} for g up to max_genus by series inversion."""
    if max_genus < 1:
        raise InputError("max_genus must be >= 1")
    products = (max_genus + 1) ** 2  # about half in the square, half in the inverse
    if products > MAX_PRODUCTS:
        raise InputError(f"conifold_F({max_genus}) needs about {products:,} coefficient "
                         f"products; the limit is {MAX_PRODUCTS:,}")
    inv = truncated_inverse(_sine_square_series(max_genus), max_genus)
    coeffs = tuple(inv[g] / Fraction(4) ** g for g in range(1, max_genus + 1))
    return LocalSeries(max_genus, coeffs, inv[0])


def check_scaling(max_genus: int, d: int) -> None:
    """Refuse N_{g,d} for 1 <= g <= max_genus past MAX_DIGITS, weighed
    before any power is taken: d^(2g-3) writes |2g - 3| times the digits
    of d, which sum to 1 + (max_genus - 1)^2 times them."""
    digits = int((1 + (max_genus - 1) ** 2) * d.bit_length() * log10(2))
    if digits > MAX_DIGITS:
        raise InputError(f"N[g,d] for g <= {max_genus} at a d of {d.bit_length()} bits writes "
                         f"about {digits:,} digits; the limit is {MAX_DIGITS:,}")


def conifold_N(g: int, d: int, series: LocalSeries) -> Fraction:
    """N_{g,d} = d^(2g-3) * N_{g,1}, exact for every g >= 1, d >= 1."""
    if g < 1:
        raise InputError("g must be >= 1")
    if d < 1:
        raise InputError("d must be >= 1")
    return series.N1(g) * Fraction(d) ** (2 * g - 3)
