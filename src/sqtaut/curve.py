"""Class calculus on the universal curve over the d-pointed base.

A class on the universal curve is written in the normal form

    sum_b  pullback(alpha_b) * omega^b   +   sum_i  pullback(beta_i) * sigma_i

where omega is the relative dualizing class, sigma_i is the divisor of the
i-th light section, and the pulled-back coefficients are PointedClass
values on the base.  `CurveClass` keeps it as one `rings.SparseSum` table
keyed by (OMEGA, b) and (SIGMA, i); the rewriting rules closing this
normal form under multiplication are

    sigma_i^2        = -pullback(psihat_i) * sigma_i
    sigma_i sigma_j  =  pullback(D_{ij}) * sigma_{min(i,j)}     (i != j)
    omega  sigma_i   =  pullback(psihat_i) * sigma_i.

The fiber integration pi_push sends pullback(a)*sigma_i to a,
pullback(a)*omega^{b+1} to a*kappa_b with kappa_{-1} = 0 skipped (a bare
pullback integrates to zero) and kappa_0 = 2g-2, satisfying the projection
formula by construction.

`CurveClass` and `pi_push` keep the section calculus itself; the tests
use them as the oracle for `relations.prop8_relation`, which evaluates
the Prop. 8 relation from per-block series instead.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .kappa_lambda import check_genus, kappa_class
from .pointed import (
    PointedClass,
    chern_F,  # not used here; kept importable as sqtaut.curve.chern_F
    pc_diagonal,
    pc_one,
    pc_psihat,
)
from .relations import prop8_relation  # kept importable as sqtaut.curve.prop8_relation
from .rings import (
    GradedPoly,
    InputError,
    SparseSum,
    accumulate,
    combine_caps,
)


OMEGA, SIGMA = 0, 1


def _valid_key(key, d: int) -> bool:
    """Whether key is (OMEGA, b) with b >= 0 or (SIGMA, i) with 1 <= i <= d."""
    if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int)):
        return False
    kind, n = key
    return kind == OMEGA and n >= 0 or kind == SIGMA and 1 <= n <= d


class CurveClass(SparseSum):
    """Normal-form class on the universal curve over the d-pointed base.

    `terms` maps (OMEGA, b), b >= 0, to the pulled-back coefficient of
    omega^b and (SIGMA, i), 1 <= i <= d, to that of sigma_i.  The cap
    bounds the degree of the coefficients: every rewriting rule keeps or
    raises it, so the terms beyond a cap form an ideal.
    """

    _fields = ("genus", "d", "terms", "cap")

    def __init__(self, genus: int, d: int, terms, cap: int | None = None) -> None:
        check_genus(genus)
        if d < 1:
            raise InputError("d must be >= 1")
        clean = {}
        for key, coeff in terms.items():
            if not _valid_key(key, d):
                raise InputError(f"bad curve-class key {key!r}")
            if (coeff.genus, coeff.d) != (genus, d):
                raise InputError("coefficient on wrong base")
            if cap is not None:
                coeff = coeff.truncate(combine_caps(coeff.cap, cap))
            if not coeff.is_zero:
                clean[key] = coeff
        self._set(genus, d, MappingProxyType(clean), cap)

    _space = property(lambda self: (self.genus, self.d))
    _table = property(lambda self: self.terms)
    _SCALARS = (int, Fraction, GradedPoly, PointedClass)

    def _scalar(self, q) -> "CurveClass":
        return cc_scalar(self.genus, self.d, q)

    def scale(self, factor) -> "CurveClass":
        """Multiply by a pulled-back PointedClass, kappa/lambda class, or scalar."""
        if not isinstance(factor, self._SCALARS):
            raise InputError(f"cannot scale by {type(factor).__name__}")
        cap = combine_caps(self.cap, getattr(factor, "cap", None))
        return self._new({key: c * factor for key, c in self.terms.items()}, cap)

    def _mul(self, other: "CurveClass") -> "CurveClass":
        return cc_mul(self, other)

    def __str__(self) -> str:
        pieces = []
        for (kind, n), coeff in sorted(self.terms.items()):
            if kind == SIGMA:
                pieces.append(f"pi^*({coeff})*sigma_{n}")
            else:
                head = "omega" if n == 1 else f"omega^{n}"
                pieces.append(f"pi^*({coeff})" + ("" if n == 0 else f"*{head}"))
        return " + ".join(pieces) if pieces else "0"


# -- constructors --------------------------------------------------------

def cc_zero(genus: int, d: int) -> CurveClass:
    return CurveClass(genus, d, {})

def cc_scalar(genus: int, d: int, value) -> CurveClass:
    v = pc_one(genus, d).scale(value)
    return CurveClass(genus, d, {(OMEGA, 0): v})

def cc_pullback(p: PointedClass, omega_pow: int = 0) -> CurveClass:
    if omega_pow < 0:
        raise InputError("negative omega power")
    return CurveClass(p.genus, p.d, {(OMEGA, omega_pow): p})

def cc_omega(genus: int, d: int) -> CurveClass:
    return CurveClass(genus, d, {(OMEGA, 1): pc_one(genus, d)})

def cc_sigma(genus: int, d: int, i: int) -> CurveClass:
    if not 1 <= i <= d:
        raise InputError(f"section index {i} out of range 1..{d}")
    return CurveClass(genus, d, {(SIGMA, i): pc_one(genus, d)})

def cc_sections_sum(genus: int, d: int) -> CurveClass:
    """s = sigma_1 + ... + sigma_d."""
    return CurveClass(
        genus, d, {(SIGMA, i): pc_one(genus, d) for i in range(1, d + 1)}
    )


# -- multiplication ------------------------------------------------------

def cc_mul(x: CurveClass, y: CurveClass) -> CurveClass:
    if not isinstance(x, CurveClass) or not isinstance(y, CurveClass):
        raise InputError("cc_mul expects two CurveClass operands")
    x._require_compatible(y)
    g, d = x.genus, x.d
    acc: dict = {}
    for (k1, n1), c1 in x.terms.items():
        for (k2, n2), c2 in y.terms.items():
            coeff = c1 * c2
            if k1 == OMEGA and k2 == OMEGA:
                key = (OMEGA, n1 + n2)
            elif k1 == OMEGA or k2 == OMEGA:
                # omega^b * sigma_i = psihat_i^b * sigma_i
                b, i = (n1, n2) if k1 == OMEGA else (n2, n1)
                key, coeff = (SIGMA, i), coeff * pc_psihat(g, d, i) ** b
            elif n1 == n2:
                key, coeff = (SIGMA, n1), -(coeff * pc_psihat(g, d, n1))
            else:
                key, coeff = (SIGMA, min(n1, n2)), coeff * pc_diagonal(g, d, (n1, n2))
            accumulate(acc, key, coeff)
    return CurveClass(g, d, acc, combine_caps(x.cap, y.cap))


# -- fiber integration ---------------------------------------------------

def pi_push(x: CurveClass) -> PointedClass:
    """Pushforward along the universal curve's projection to the base."""
    g, d = x.genus, x.d
    acc: dict = {}
    cap = None
    for (kind, n), coeff in x.terms.items():
        if kind == OMEGA:
            if n == 0:  # a bare pullback integrates to zero
                continue
            coeff = coeff.scale(kappa_class(g, n - 1))
        cap = combine_caps(cap, coeff.cap)
        for mono, c in coeff.terms.items():
            accumulate(acc, mono, c)
    return PointedClass(g, d, acc, cap)
