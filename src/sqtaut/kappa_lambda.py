"""Polynomials in kappa and lambda classes at a fixed genus.

Generators: kappa_a (degree a, a >= 1) and lambda_i (degree i, 1 <= i <= g)
for a genus g >= 2 surface.  A monomial is a tuple of ((kind, index), exp)
pairs with kind 0 for kappa and 1 for lambda (see `rings`).  kappa_0 is the
scalar 2g-2 and kappa with a negative index is zero; both are folded in at
construction so polynomial keys only ever mention positive indices.  The
constructors here are where genus and index ranges are checked.

`lambda_to_kappa` eliminates every lambda generator: the Chern character of
the rank-g Hodge-type bundle is supported in odd degrees, ch_{2l-1} =
B_{2l} / (2l)! * kappa_{2l-1}, so c(E) = exp(sum_{k odd} (k-1)! ch_k) and
lambda_n maps to the degree-n part of exp(sum_{k odd} B_{k+1} / (k (k+1)) *
kappa_k) (Mumford's formula), the same at every genus g >= n.  Each image is
computed once per n and shared by all genera; concurrent first calls may
duplicate work but agree on the value, so the caches are safe without locks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .rings import GradedPoly, InputError, accumulate, bernoulli, mono_mul

KAPPA, LAMBDA = 0, 1

# A KLPoly is a GradedPoly; the genus travels with the value, so ordinary
# polynomial arithmetic enforces genus equality.
KLPoly = GradedPoly


def _check_genus(genus: int) -> None:
    if genus < 2:
        raise InputError("genus must be >= 2")


def genus_of(p: KLPoly) -> int:
    if not isinstance(p, GradedPoly):
        raise InputError("not a kappa/lambda polynomial")
    return p.genus


def kl_scalar(genus: int, value) -> KLPoly:
    _check_genus(genus)
    return GradedPoly(genus, {(): Fraction(value)})


def kl_zero(genus: int) -> KLPoly:
    return kl_scalar(genus, 0)


def kl_one(genus: int) -> KLPoly:
    return kl_scalar(genus, 1)


def kappa_class(genus: int, index: int, exp: int = 1) -> KLPoly:
    """kappa_index^exp; index 0 is the scalar 2g-2, negative index is 0."""
    _check_genus(genus)
    if exp < 0:
        raise InputError("negative exponent")
    if exp == 0:
        return kl_one(genus)
    if index < 0:
        return kl_zero(genus)
    if index == 0:
        return kl_scalar(genus, Fraction(2 * genus - 2) ** exp)
    return GradedPoly(genus, {(((KAPPA, index), exp),): Fraction(1)})


def lambda_class(genus: int, index: int, exp: int = 1) -> KLPoly:
    """lambda_index^exp; lambda_0 is 1.  Index must lie in 0..genus."""
    _check_genus(genus)
    if exp < 0:
        raise InputError("negative exponent")
    if not 0 <= index <= genus:
        raise InputError(f"lambda index {index} out of range for genus {genus}")
    if exp == 0 or index == 0:
        return kl_one(genus)
    return GradedPoly(genus, {(((LAMBDA, index), exp),): Fraction(1)})


@lru_cache(maxsize=None)
def _lambda_image(n: int) -> tuple:
    """The kappa image e_n of lambda_n as (monomial, coefficient) pairs, by
    n e_n = sum_{k odd} B_{k+1}/(k+1) kappa_k e_{n-k}: the degree-n part of
    exp(f)' = f' exp(f) for the exponent f of the module docstring."""
    if n == 0:
        return (((), Fraction(1)),)
    acc: dict = {}
    for k in range(1, n + 1, 2):
        q = bernoulli(k + 1) / ((k + 1) * n)
        for m, c in _lambda_image(n - k):
            accumulate(acc, mono_mul(m, (((KAPPA, k), 1),)), q * c)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _lambda_table(genus: int) -> tuple:
    """(image of lambda_1, ..., image of lambda_g) as kappa-polynomials."""
    _check_genus(genus)
    return tuple(GradedPoly(genus, dict(_lambda_image(n)))
                 for n in range(1, genus + 1))


def lambda_to_kappa(p: KLPoly) -> KLPoly:
    """Rewrite p with every lambda generator eliminated in favor of kappas.

    A ring homomorphism: kappa generators are fixed, lambda_i maps to its
    kappa-polynomial image.  The images of lambda parts, and of the single
    powers they are built from, repeat across monomials; they are memoized
    for the duration of one call.
    """
    genus = genus_of(p)
    table = _lambda_table(genus)
    images: dict = {}  # lambda part of a monomial -> its kappa image

    def image(part: tuple) -> KLPoly:
        out = images.get(part)
        if out is None:
            if len(part) == 1:
                ((_, idx), exp), = part
                out = table[idx - 1] ** exp
            else:
                out = image(part[:1])
                for factor in part[1:]:
                    out = out * image((factor,))
            images[part] = out
        return out

    acc: dict = {}
    for mono, coeff in p.coeffs.items():
        kappas = tuple(f for f in mono if f[0][0] == KAPPA)
        lambdas = tuple(f for f in mono if f[0][0] == LAMBDA)
        if not lambdas:
            accumulate(acc, kappas, coeff)
            continue
        for m, q in image(lambdas).coeffs.items():
            accumulate(acc, mono_mul(kappas, m), coeff * q)
    return GradedPoly(genus, acc)


def chern_E_dual(genus: int, maxdeg: int) -> KLPoly:
    """Total Chern class of the dual Hodge-type bundle, truncated.

    Equals sum_i (-1)^i lambda_i up to degree min(genus, maxdeg).
    """
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    out = kl_one(genus)
    for i in range(1, min(genus, maxdeg) + 1):
        term = lambda_class(genus, i)
        out = out + (term if i % 2 == 0 else -term)
    return out.truncate(maxdeg)


def kl_is_kappa_only(p: KLPoly) -> bool:
    return all(kind == KAPPA for mono in p.coeffs for (kind, _), _ in mono)
