"""Genus-zero combinatorics: chain-space Betti polynomials, two-heavy-point
intersection numbers with colliding light points, and psi intersection
numbers on the n-pointed space.

The space of a rational curve with two distinguished points and d light
points that may collide deformation-retracts onto a chain of components;
its Poincare polynomial is a sum over ordered compositions of d, one
factor t^{2(part-1)} per chain component.  Grouped by the last part p it
is Q(0) = 1, Q(n) = sum_{p=1..n} t^{2p-2} Q(n-p), with closed form
(1+t^2)^{d-1}.  Polynomials in t are lists of Fractions indexed by the
power of t.

Intersection numbers against psi classes at the two heavy points and the
light points satisfy a point-forgetting recursion

    I(d; x1, x2 | y_1..y_d) = I(d-1; x1-1, x2 | ...) + I(d-1; x1, x2-1 | ...)

valid when y_d = 0 (the dropped light point carries no psi), with base
I(1; 0, 0 | 0) = 1, evaluated level by level, one light point forgotten
per level.  The value vanishes unless every y_j = 0, where it is the
binomial coefficient binom(d-1; x1, x2).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .rings import InputError

MAX_ADDITIONS = 10_000_000  # coefficient additions: poincare_Q02 (d <= 391), intersect_M02d


def poincare_Q02(d: int) -> list:
    """Poincare polynomial of the two-pointed degree-d chain space.

    Sum over compositions (d_1,...,d_n) of d of prod_i t^{2 d_i - 2};
    equals (1 + t^2)^(d-1).  Returns the coefficients of t^0..t^(2d-2).
    """
    if d < 1:
        raise InputError("d must be >= 1")
    # row n adds sums[n - p] for p = 1..n, one entry each, or 1 for sums[0]
    additions = d + (d + 1) * d * (d - 1) // 6
    if additions > MAX_ADDITIONS:
        raise InputError(f"poincare_Q02({d}) needs {additions:,} coefficient "
                         f"additions; the limit is {MAX_ADDITIONS:,}")
    # sums[n][j]: coefficient of t^(2j) in Q(n), grouped by the last part p
    sums = [[1]]
    for n in range(1, d + 1):
        row = [0] * n
        for p in range(1, n + 1):
            for j, c in enumerate(sums[n - p], start=p - 1):
                row[j] += c
        sums.append(row)
    out = [Fraction(0)] * (2 * d - 1)
    out[::2] = map(Fraction, sums[d])
    return out


def intersect_M02d(d: int, x1: int, x2: int, y: Sequence[int] | None = None) -> Fraction:
    """Integral of psi1^x1 psi2^x2 prod_j psihat_j^y_j over the
    two-heavy-point space with d light points; y = None is all zero.

    Computed by the point-forgetting recursion; vanishes off dimension
    x1 + x2 + sum(y) = d - 1.
    """
    if d < 1:
        raise InputError("d must be >= 1")
    # y has d entries, and each of d - 1 levels adds min(x1, x2) + 1 states
    additions = d * (max(min(x1, x2), 0) + 1)
    if additions > MAX_ADDITIONS:
        raise InputError(f"intersect_M02d({d}, {x1}, {x2}) needs {additions:,} coefficient "
                         f"additions; the limit is {MAX_ADDITIONS:,}")
    y = (0,) * d if y is None else tuple(y)
    if len(y) != d:
        raise InputError(f"need {d} light exponents, got {len(y)}")
    if any(v < 0 for v in y) or x1 < 0 or x2 < 0:
        raise InputError("exponents must be nonnegative")
    if x1 + x2 + sum(y) != d - 1:
        return Fraction(0)
    # Forgetting a psi-free light point keeps sum(y), so a level's state is
    # x1 alone: ways[a] counts the recursion paths reaching (a, total - a).
    # While a nonnegative state exists, sum(y) < level: a psi-free point
    # remains to forget.
    ways = {x1: 1}
    total = x1 + x2
    for _ in range(d - 1):
        step: dict = {}
        for a, w in ways.items():
            if a > 0:
                step[a - 1] = step.get(a - 1, 0) + w
            if total - a > 0:
                step[a] = step.get(a, 0) + w
        ways = step
        total -= 1
    # level 1 has dimension 0: only x1 = x2 = y_1 = 0 survives, worth 1
    return Fraction(sum(ways.values()))


def psi_integral_M0n(exponents: Sequence[int]) -> Fraction:
    """Integral of prod_i psi_i^{a_i} over the n-pointed genus-zero space.

    Equals the multinomial (n-3)! / prod(a_i!) when sum(a_i) = n - 3, and
    zero otherwise.  Requires n >= 3.
    """
    a = tuple(exponents)
    n = len(a)
    if n < 3:
        raise InputError("need at least three marked points")
    if any(v < 0 for v in a):
        raise InputError("exponents must be nonnegative")
    if sum(a) != n - 3:
        return Fraction(0)
    denom = 1
    for v in a:
        denom *= factorial(v)
    return Fraction(factorial(n - 3), denom)
