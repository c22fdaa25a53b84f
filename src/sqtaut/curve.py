"""Class calculus on the universal curve over the d-pointed base.

A class on the universal curve is written in the normal form

    sum_b  pullback(alpha_b) * omega^b   +   sum_i  pullback(beta_i) * sigma_i

where omega is the relative dualizing class, sigma_i is the divisor of the
i-th light section, and the pulled-back coefficients are PointedClass
values on the base.  The rewriting rules closing this normal form under
multiplication are

    sigma_i^2        = -pullback(psihat_i) * sigma_i
    sigma_i sigma_j  =  pullback(D_{ij}) * sigma_{min(i,j)}     (i != j)
    omega  sigma_i   =  pullback(psihat_i) * sigma_i.

The fiber integration pi_push sends pullback(a)*sigma_i to a,
pullback(a)*omega^{b+1} to a*kappa_b with kappa_{-1} = 0 skipped (a bare
pullback integrates to zero) and kappa_0 = 2g-2, satisfying the projection
formula by construction.

`prop8_relation` produces, for c > 0, the degree g-2d-2+a+b+c relation

    eps_*( pi_*(s^a omega^b) * c_{g-d-1+c}(F_d)
           + (-1)^{g-d-1} [ pi_*((s-1)^a omega^b) * c_-(F_d) ]^{g-d-2+a+b+c} )

where s = sigma_1 + ... + sigma_d, c_- is the total Chern class evaluated
at -1, and [.]^k selects the degree-k part after the product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType

from .kappa_lambda import KLPoly, kappa_class
from .pointed import (
    PointedClass,
    chern_F,
    epsilon_push,
    pc_diagonal,
    pc_one,
    pc_psihat,
    pc_zero,
    rank_F,
)
from .rings import GradedPoly, InputError, power


@dataclass(frozen=True, eq=False)
class CurveClass:
    """Normal-form class on the universal curve over the d-pointed base.

    `omega_terms` maps b >= 0 to the pulled-back coefficient of omega^b;
    `sigma_terms` maps a section index i to the pulled-back coefficient of
    sigma_i.  Both are read-only copies of the tables passed in, with zero
    coefficients dropped.
    """

    genus: int
    d: int
    omega_terms: MappingProxyType
    sigma_terms: MappingProxyType

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise InputError("genus must be >= 2")
        if self.d < 1:
            raise InputError("d must be >= 1")
        for field, check in (
            ("omega_terms", lambda b: isinstance(b, int) and b >= 0),
            ("sigma_terms", lambda i: isinstance(i, int) and 1 <= i <= self.d),
        ):
            clean = {}
            for key, coeff in getattr(self, field).items():
                if not check(key):
                    raise InputError(f"bad curve-class key {key!r}")
                if (coeff.genus, coeff.d) != (self.genus, self.d):
                    raise InputError("coefficient on wrong base")
                if not coeff.is_zero:
                    clean[key] = coeff
            object.__setattr__(self, field, MappingProxyType(clean))

    @property
    def is_zero(self) -> bool:
        return not self.omega_terms and not self.sigma_terms

    def _require_compatible(self, other: "CurveClass") -> None:
        if (self.genus, self.d) != (other.genus, other.d):
            raise InputError("mismatched genus or light-point count")

    def __add__(self, other):
        if not isinstance(other, CurveClass):
            return NotImplemented
        self._require_compatible(other)
        om = dict(self.omega_terms)
        for b, coeff in other.omega_terms.items():
            om[b] = om[b] + coeff if b in om else coeff
        sg = dict(self.sigma_terms)
        for i, coeff in other.sigma_terms.items():
            sg[i] = sg[i] + coeff if i in sg else coeff
        return CurveClass(self.genus, self.d, om, sg)

    def __neg__(self):
        return CurveClass(
            self.genus,
            self.d,
            {b: -c for b, c in self.omega_terms.items()},
            {i: -c for i, c in self.sigma_terms.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, CurveClass):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "CurveClass":
        """Multiply by a pulled-back PointedClass, kappa/lambda class, or scalar."""
        if isinstance(factor, (int, Fraction, GradedPoly)):
            return CurveClass(
                self.genus,
                self.d,
                {b: c.scale(factor) for b, c in self.omega_terms.items()},
                {i: c.scale(factor) for i, c in self.sigma_terms.items()},
            )
        if isinstance(factor, PointedClass):
            return CurveClass(
                self.genus,
                self.d,
                {b: c * factor for b, c in self.omega_terms.items()},
                {i: c * factor for i, c in self.sigma_terms.items()},
            )
        raise InputError(f"cannot scale by {type(factor).__name__}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedPoly, PointedClass)):
            return self.scale(other)
        if not isinstance(other, CurveClass):
            return NotImplemented
        return cc_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GradedPoly, PointedClass)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n, cc_scalar(self.genus, self.d, 1))

    def __eq__(self, other):
        if not isinstance(other, CurveClass):
            return NotImplemented
        return (
            (self.genus, self.d) == (other.genus, other.d)
            and self.omega_terms == other.omega_terms
            and self.sigma_terms == other.sigma_terms
        )

    def __str__(self) -> str:
        pieces = []
        for b in sorted(self.omega_terms):
            coeff = self.omega_terms[b]
            head = "1" if b == 0 else ("omega" if b == 1 else f"omega^{b}")
            pieces.append(f"pi^*({coeff})" + ("" if b == 0 else f"*{head}"))
        for i in sorted(self.sigma_terms):
            pieces.append(f"pi^*({self.sigma_terms[i]})*sigma_{i}")
        return " + ".join(pieces) if pieces else "0"


# -- constructors --------------------------------------------------------

def cc_zero(genus: int, d: int) -> CurveClass:
    return CurveClass(genus, d, {}, {})

def cc_scalar(genus: int, d: int, value) -> CurveClass:
    v = pc_one(genus, d).scale(value)
    return CurveClass(genus, d, {0: v}, {})

def cc_pullback(p: PointedClass, omega_pow: int = 0) -> CurveClass:
    if omega_pow < 0:
        raise InputError("negative omega power")
    return CurveClass(p.genus, p.d, {omega_pow: p}, {})

def cc_omega(genus: int, d: int) -> CurveClass:
    return CurveClass(genus, d, {1: pc_one(genus, d)}, {})

def cc_sigma(genus: int, d: int, i: int) -> CurveClass:
    if not 1 <= i <= d:
        raise InputError(f"section index {i} out of range 1..{d}")
    return CurveClass(genus, d, {}, {i: pc_one(genus, d)})

def cc_sections_sum(genus: int, d: int) -> CurveClass:
    """s = sigma_1 + ... + sigma_d."""
    return CurveClass(
        genus, d, {}, {i: pc_one(genus, d) for i in range(1, d + 1)}
    )


# -- multiplication ------------------------------------------------------

def cc_mul(x: CurveClass, y: CurveClass) -> CurveClass:
    if not isinstance(x, CurveClass) or not isinstance(y, CurveClass):
        raise InputError("cc_mul expects two CurveClass operands")
    x._require_compatible(y)
    g, d = x.genus, x.d
    om: dict = {}
    sg: dict = {}

    def add_om(b, coeff):
        if coeff.is_zero:
            return
        om[b] = om[b] + coeff if b in om else coeff

    def add_sg(i, coeff):
        if coeff.is_zero:
            return
        sg[i] = sg[i] + coeff if i in sg else coeff

    for b1, c1 in x.omega_terms.items():
        for b2, c2 in y.omega_terms.items():
            add_om(b1 + b2, c1 * c2)
        for i, c2 in y.sigma_terms.items():
            # omega^b1 * sigma_i = psihat_i^b1 * sigma_i
            add_sg(i, c1 * c2 * pc_psihat(g, d, i) ** b1)
    for i, c1 in x.sigma_terms.items():
        for b2, c2 in y.omega_terms.items():
            add_sg(i, c1 * c2 * pc_psihat(g, d, i) ** b2)
        for j, c2 in y.sigma_terms.items():
            if i == j:
                add_sg(i, -(c1 * c2 * pc_psihat(g, d, i)))
            else:
                add_sg(min(i, j), c1 * c2 * pc_diagonal(g, d, (i, j)))
    return CurveClass(g, d, om, sg)


# -- fiber integration ---------------------------------------------------

def pi_push(x: CurveClass) -> PointedClass:
    """Pushforward along the universal curve's projection to the base."""
    g, d = x.genus, x.d
    out = pc_zero(g, d)
    for i, coeff in x.sigma_terms.items():
        out = out + coeff
    for b, coeff in x.omega_terms.items():
        if b == 0:
            continue  # a bare pullback integrates to zero
        out = out + coeff.scale(kappa_class(g, b - 1))
    return out


# -- relation generator --------------------------------------------------

def _alternate_signs(p: PointedClass) -> PointedClass:
    """Evaluate a total class at -1: negate odd-total-degree parts."""
    out = pc_zero(p.genus, p.d, p.trunc)
    for k in p.total_degrees():
        part = p.degree_part(k)
        out = out + (part if k % 2 == 0 else -part)
    return out


def prop8_relation(genus: int, d: int, a: int, b: int, c: int) -> KLPoly:
    """Pushforward relation from the section calculus; requires c > 0.

    Returns the (vanishing) kappa/lambda class of degree g-2d-2+a+b+c.
    Degrees involved must be nonnegative: the Chern index g-d-1+c and the
    selection degree g-d-2+a+b+c.
    """
    if genus < 2:
        raise InputError("genus must be >= 2")
    if d < 1:
        raise InputError("d must be >= 1")
    if min(a, b) < 0:
        raise InputError("a and b must be >= 0")
    if c <= 0:
        raise InputError("c must be > 0")
    chern_index = rank_F(genus, d) + c
    select = genus - d - 2 + a + b + c
    if chern_index < 0 or select < 0:
        raise InputError("negative Chern or selection degree")
    trunc = max(chern_index, select)
    cF = chern_F(genus, d, trunc)

    s = cc_sections_sum(genus, d)
    w = cc_omega(genus, d)
    wb = w ** b
    term1 = pi_push(s ** a * wb) * cF.degree_part(chern_index)

    # (s - 1)^a expanded binomially before integrating
    shifted = pc_zero(genus, d)
    for j in range(a + 1):
        piece = pi_push(s ** j * wb)
        coeff = Fraction(comb(a, j))
        if (a - j) % 2:
            coeff = -coeff
        shifted = shifted + piece.scale(coeff)
    bracket = (shifted * _alternate_signs(cF)).degree_part(select)
    if (genus - d - 1) % 2:
        bracket = -bracket

    return epsilon_push(term1 + bracket)
