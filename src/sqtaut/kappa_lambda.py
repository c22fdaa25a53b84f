"""Polynomials in kappa and lambda classes at a fixed genus.

Generators: kappa_a (degree a, a >= 1) and lambda_i (degree i, 1 <= i <= g)
for a genus g >= 2 surface.  A monomial is a tuple of ((kind, index), exp)
pairs with kind 0 for kappa and 1 for lambda (see `rings`).  Classes are
built as one table of `kl_factor` pairs, which check the genus and index
ranges and fold kappa_0 = 2g-2, kappa with a negative index = 0 and
lambda_0 = 1 into scalars, so keys only ever mention positive indices.

`lambda_to_kappa` eliminates every lambda generator: the Chern character of
the rank-g Hodge-type bundle is supported in odd degrees, ch_{2l-1} =
B_{2l} / (2l)! * kappa_{2l-1}, so c(E) = exp(sum_{k odd} (k-1)! ch_k) and
lambda_n maps to the degree-n part of exp(sum_{k odd} B_{k+1} / (k (k+1)) *
kappa_k) (Mumford's formula), the same at every genus g >= n.  The image
of each lambda monomial is computed once and shared by all genera;
concurrent first calls may duplicate work but agree on the value, so the
cache is safe without locks.

An image is stored over one denominator: (D, read-only table of int
numerators), D the least common denominator of its coefficients, so that
images multiply through `rings.int_mul`.  `lambda_to_kappa` scales every
term to one common denominator, sums ints and builds one Fraction per
output term; nothing is rounded.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .rings import GradedPoly, InputError, bernoulli, int_mul, mono_mul

KAPPA, LAMBDA = 0, 1

# A KLPoly is a GradedPoly; the genus travels with the value, so ordinary
# polynomial arithmetic enforces genus equality.
KLPoly = GradedPoly


def check_genus(genus: int) -> None:
    if genus < 2:
        raise InputError("genus must be >= 2")


def genus_of(p: KLPoly) -> int:
    if not isinstance(p, GradedPoly):
        raise InputError("not a kappa/lambda polynomial")
    return p.genus


def kl_scalar(genus: int, value) -> KLPoly:
    check_genus(genus)
    return GradedPoly(genus, {(): Fraction(value)})


def kl_zero(genus: int) -> KLPoly:
    return kl_scalar(genus, 0)


def kl_one(genus: int) -> KLPoly:
    return kl_scalar(genus, 1)


def kl_factor(genus: int, kind: int, index: int, exp: int = 1) -> tuple:
    """kappa_index^exp (kind KAPPA) or lambda_index^exp (kind LAMBDA) as a
    (monomial, scalar) pair; a lambda index must lie in 0..genus."""
    check_genus(genus)
    if exp < 0:
        raise InputError("negative exponent")
    if kind == LAMBDA and not 0 <= index <= genus:
        raise InputError(f"lambda index {index} out of range for genus {genus}")
    if exp == 0 or (kind == LAMBDA and index == 0):
        return (), 1
    if index < 0:
        return (), 0
    if index == 0:
        return (), (2 * genus - 2) ** exp
    return (((kind, index), exp),), 1


def kappa_class(genus: int, index: int, exp: int = 1) -> KLPoly:
    """kappa_index^exp; index 0 is the scalar 2g-2, negative index is 0."""
    return GradedPoly(genus, dict([kl_factor(genus, KAPPA, index, exp)]))


def lambda_class(genus: int, index: int, exp: int = 1) -> KLPoly:
    """lambda_index^exp; lambda_0 is 1.  Index must lie in 0..genus."""
    return GradedPoly(genus, dict([kl_factor(genus, LAMBDA, index, exp)]))


def _common_sum(terms: list) -> tuple:
    """The sum of num/den * mono * table over (mono, num, den, table) terms
    with int tables, as (D, int table) with D the lcm of the dens: every
    term is scaled to D once, so the sum runs on ints."""
    common = lcm(*(t[2] for t in terms))
    acc: dict = {}
    for mono, num, den, image in terms:
        scale = num * (common // den)
        for m, c in image.items():
            key = mono_mul(mono, m)
            acc[key] = acc.get(key, 0) + scale * c
    return common, acc


def _reduced(den: int, table: dict) -> tuple:
    """(den, table) over the least denominator, the table made read-only."""
    g = gcd(den, *table.values())
    return den // g, MappingProxyType({m: c // g for m, c in table.items()})


@lru_cache(maxsize=None)
def _lambda_image(part: tuple) -> tuple:
    """The kappa image of a lambda part (a monomial of ((LAMBDA, i), e)
    factors) as (denominator, read-only table of int numerators), the same
    at every genus.  lambda_n alone: n e_n = sum_{k odd} B_{k+1}/(k+1)
    kappa_k e_{n-k}, from exp(f)' = f' exp(f) for the exponent f of the
    module docstring.  A product is its last factor times the rest;
    lambda_n^e splits in halves, so the recursion depth grows with log e."""
    if not part:
        return 1, MappingProxyType({(): 1})
    (_, n), e = part[-1]
    if len(part) == 1 and e == 1:
        terms = []
        for k in range(1, n + 1, 2):
            q = bernoulli(k + 1) / ((k + 1) * n)
            den, image = _lambda_image((((LAMBDA, n - k), 1),) if n > k else ())
            terms.append(((((KAPPA, k), 1),), q.numerator, q.denominator * den, image))
        return _reduced(*_common_sum(terms))
    if len(part) > 1:
        first, second = part[:-1], part[-1:]
    else:
        first, second = (((LAMBDA, n), e // 2),), (((LAMBDA, n), e - e // 2),)
    (d1, t1), (d2, t2) = _lambda_image(first), _lambda_image(second)
    return _reduced(d1 * d2, int_mul(t1, t2, None))


@lru_cache(maxsize=None)
def _lambda_table(genus: int) -> tuple:
    """(image of lambda_1, ..., image of lambda_g) as kappa-polynomials."""
    check_genus(genus)
    images = (_lambda_image((((LAMBDA, n), 1),)) for n in range(1, genus + 1))
    return tuple(GradedPoly(genus, {m: Fraction(c, den) for m, c in image.items()})
                 for den, image in images)


def lambda_to_kappa(p: KLPoly) -> KLPoly:
    """Rewrite p with every lambda generator eliminated in favor of kappas.

    A ring homomorphism: kappa generators are fixed, and the lambda part of
    each monomial maps to its cached, genus-free kappa image.  Every term is
    scaled to one common denominator, so the sums run on ints and each
    output coefficient is one Fraction.
    """
    genus = genus_of(p)
    terms = []
    for mono, coeff in p.coeffs.items():
        # factors are sorted by (kind, index): the kappas come first
        cut = bisect_left(mono, ((LAMBDA, 0),))
        den, image = _lambda_image(mono[cut:])
        terms.append((mono[:cut], coeff.numerator, coeff.denominator * den, image))
    common, acc = _common_sum(terms)
    return GradedPoly(genus, {m: Fraction(c, common) for m, c in acc.items() if c})


def chern_E_dual(genus: int, maxdeg: int) -> KLPoly:
    """Total Chern class of the dual Hodge-type bundle, truncated.

    Equals sum_i (-1)^i lambda_i up to degree min(genus, maxdeg).
    """
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    check_genus(genus)
    return GradedPoly(genus, {kl_factor(genus, LAMBDA, i)[0]: (-1) ** i
                              for i in range(min(genus, maxdeg) + 1)}, maxdeg)


def kl_is_kappa_only(p: KLPoly) -> bool:
    return all(kind == KAPPA for mono in p.coeffs for (kind, _), _ in mono)
