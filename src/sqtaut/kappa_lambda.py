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
output term; nothing is rounded.  The images a call needs that are
missing from the cache are first weighed together by `_image_work`, from
partition counts, and refused with InputError past MAX_IMAGE_WORK.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .rings import GradedPoly, InputError, _factor_texts, bernoulli, int_mul, mono_mul

KAPPA, LAMBDA = 0, 1

# estimated term products that building the lambda images one call needs
# may take (see _image_work): lambda_60 (about 2 s) and lambda_3^600 (0.8 s)
# pass, lambda_69 and lambda_3^1000 (5.6 s) do not
MAX_IMAGE_WORK = 500_000

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


def _odd_partitions(total: int, top: int) -> list:
    """counts[x], for x <= total: the partitions of x into odd parts <= top."""
    counts = [1] + [0] * total
    for part in range(1, min(top, total) + 1, 2):
        for x in range(part, total + 1):
            counts[x] += counts[x - part]
    return counts


def _halves(part: tuple) -> tuple:
    """The two lambda parts whose images multiply to the image of `part`,
    a product or a power: its last factor and the rest, or the halves of
    lambda_n^e, so that the recursion depth grows with log e."""
    (_, n), e = part[-1]
    if len(part) > 1:
        return part[:-1], part[-1:]
    return (((LAMBDA, n), e // 2),), (((LAMBDA, n), e - e // 2),)


def _image_work(parts: list) -> int:
    """An upper bound on the term products that building the images of the
    lambda parts `parts` takes from an empty cache, counted only until it
    passes MAX_IMAGE_WORK.  An image of degree D whose largest lambda
    index is m has at most as many terms as D has partitions into odd
    parts <= m (its kappa indices are odd and <= m), and a product of two
    images at most as many as the product of theirs.  lambda_j alone sums
    the terms of lambda_{j-1}, lambda_{j-3}, ..., and needs every lambda_i,
    i < j.  A product multiplies every pair of terms; its coefficients
    have about 1.5 D digits, so a pair is weighed as
    1 + floor(D^2 / 1000^2) steps."""
    top = max(part[-1][0][1] for part in parts)
    # lambda_j alone sums at least (j + 1) // 2 terms, so lambda_1..lambda_top
    # take at least top^2 / 4 products
    if top * top // 4 > MAX_IMAGE_WORK:
        return top * top // 4
    # odd[x], for x < len(odd): the partitions of x into odd parts, grown
    # only as far as the sum needs them; for a large top it passes the
    # limit at j = 62, inside the first table
    odd, work = _odd_partitions(min(top, 64), top), 0
    for j in range(1, top + 1):
        if j == len(odd):
            odd = _odd_partitions(min(2 * j, top), top)
        work += sum(odd[j - 1::-2])
        if work > MAX_IMAGE_WORK:
            return work
    terms = {}

    def count(part: tuple) -> int:
        # the terms of the image of part, adding the products that build
        # it; past the limit, nothing more is counted
        nonlocal work
        if work > MAX_IMAGE_WORK:
            return 0
        if part not in terms:
            (_, n), e = part[-1]
            if len(part) == 1 and e == 1:
                terms[part] = odd[n]
            else:
                first, second = _halves(part)
                pairs = count(first) * count(second)
                degree = sum(i * x for (_, i), x in part)
                work += pairs * (1 + degree * degree // 1_000_000)
                # partitions are counted while that costs less than the limit
                if work <= MAX_IMAGE_WORK and degree * (n + 1) // 2 <= MAX_IMAGE_WORK:
                    pairs = min(pairs, _odd_partitions(degree, n)[degree])
                terms[part] = pairs
        return terms[part]

    for part in parts:
        count(part)
    return work


class _Images(dict):
    """`_IMAGES[part]` is the kappa image of a lambda part (a monomial of
    ((LAMBDA, i), e) factors) as (denominator, read-only table of int
    numerators), the same at every genus, built on first use.  lambda_n
    alone: n e_n = sum_{k odd} B_{k+1}/(k+1) kappa_k e_{n-k}, from
    exp(f)' = f' exp(f) for the exponent f of the module docstring; any
    other part is the product of the images of its `_halves`."""

    def __missing__(self, part: tuple) -> tuple:
        (_, n), e = part[-1]
        if len(part) == 1 and e == 1:
            terms = []
            for k in range(1, n + 1, 2):
                q = bernoulli(k + 1) / ((k + 1) * n)
                den, image = self[(((LAMBDA, n - k), 1),) if n > k else ()]
                terms.append(((((KAPPA, k), 1),), q.numerator, q.denominator * den, image))
            image = _reduced(*_common_sum(terms))
        else:
            (d1, t1), (d2, t2) = map(self.__getitem__, _halves(part))
            image = _reduced(d1 * d2, int_mul(t1, t2, None))
        self[part] = image
        return image


_IMAGES = _Images({(): (1, MappingProxyType({(): 1}))})


def _fill_images(parts) -> None:
    """Build the images of the lambda parts `parts` that are missing from
    the cache, after weighing them together by `_image_work`: past
    MAX_IMAGE_WORK, raise InputError before building any."""
    missing = list({part for part in parts if part not in _IMAGES})
    if missing:
        work = _image_work(missing)
        if work > MAX_IMAGE_WORK:
            what = "*".join(_factor_texts(max(missing, key=lambda part: part[-1][0][1])))
            if len(missing) > 1:
                what += f" and {len(missing) - 1} other lambda monomials"
            raise InputError(f"eliminating {what} needs an estimated {work:,} or more term "
                             f"products; the limit is {MAX_IMAGE_WORK:,}")
        for part in missing:
            _IMAGES[part]  # built on first use


@lru_cache(maxsize=None)
def _lambda_table(genus: int) -> tuple:
    """(image of lambda_1, ..., image of lambda_g) as kappa-polynomials."""
    check_genus(genus)
    parts = [(((LAMBDA, n), 1),) for n in range(1, genus + 1)]
    _fill_images(parts)
    return tuple(GradedPoly(genus, {m: Fraction(c, den) for m, c in image.items()})
                 for den, image in map(_IMAGES.__getitem__, parts))


def lambda_to_kappa(p: KLPoly) -> KLPoly:
    """Rewrite p with every lambda generator eliminated in favor of kappas.

    A ring homomorphism: kappa generators are fixed, and the lambda part of
    each monomial maps to its cached, genus-free kappa image.  Every term is
    scaled to one common denominator, so the sums run on ints and each
    output coefficient is one Fraction.  At the first image missing from
    the cache, every image p needs is weighed and built (`_fill_images`).
    """
    genus = genus_of(p)
    terms = []
    for mono, coeff in p.coeffs.items():
        # factors are sorted by (kind, index): the kappas come first
        cut = bisect_left(mono, ((LAMBDA, 0),))
        image = _IMAGES.get(mono[cut:])
        if image is None:
            _fill_images([m[bisect_left(m, ((LAMBDA, 0),)):] for m in p.coeffs])
            image = _IMAGES[mono[cut:]]
        den, table = image
        terms.append((mono[:cut], coeff.numerator, coeff.denominator * den, table))
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
