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

`prop8_relation` produces, for c > 0, the degree R = g-2d-2+a+b+c relation

    eps_*( pi_*(s^a omega^b) * c_{g-d-1+c}(F_d)
           + (-1)^{g-d-1} [ pi_*((s-1)^a omega^b) * c_-(F_d) ]^{g-d-2+a+b+c} )

where s = sigma_1 + ... + sigma_d, c_- is the total Chern class evaluated
at -1, and [.]^k selects the degree-k part after the product is formed.
P_j = pi_*(s^j omega^b) is homogeneous of degree j+b-1, so with
N = g-d-2+a+b+c the term C(a,j) (-1)^{a-j} P_j of the bracket meets
c_{N-j-b+1}(F_d) with the sign (-1)^{g-d-1} (-1)^{a-j} (-1)^{N-j-b+1} =
(-1)^c, and the first term is the degree-N part of P_a * c(F_d).  Hence
the relation is eps_*([Q * c(F_d)]^N) with

    Q = pi_*((s^a + (-1)^c (s+1)^a) omega^b) = sum_j w_j P_j,
    w_j = [j = a] + (-1)^c C(a, j).

It is evaluated without block monomials, in three steps.

  1. P_0 = kappa_{b-1} (0 for b = 0).  For j >= 1 expand s^j: a word of
     length j in the sigma_i with support S (|S| = m) is D_S sigma_{min S}
     times (-psihat_S)^{j-m}, and surj(j, m) words have support S, so

         P_j = sum_{S nonempty} surj(j, m) (-1)^{j-m} D_S psihat_S^{j-m+b}.

  2. c(F_d) = c(E^vee) sum_pi prod_{B in pi} D_B g_{|B|}(psihat_B) with the
     block series g_s of `pointed`.  In D_S psihat_S^e * c(F_d) the r
     blocks of pi that meet S merge with S into one block, which gains the
     exponent |S| - r = sum_B (|B n S| - 1) with sign (-1)^{|S|-r}; blocks
     missing S are unchanged.
  3. eps_* sends a block with exponent T to kappa_{T-1}, so the blocks
     missing S push to E_{d-n}, n the size of the merged block; C(d, n)
     places that block and C(n, m) places S in it.  By steps 1 and 2 the
     merged block carries x^{j+b-r} with sign (-1)^{j-r}, x = psihat,
     that is (-1)^j x^{j+b-m} times -x^{|B n S|-1} for each block B of pi
     it absorbs, so it pushes the series

         A_n = x^b sum_{m>=1} C(n, m) W_m(x) Psi_{n,m}(x),
         W_m = sum_j w_j (-1)^j surj(j, m) x^{j-m},

     where Psi_{n,m} sums, over the set partitions of n points into blocks
     that each meet a fixed m-set M, the product over blocks B of
     -x^{|B n M|-1} g_{|B|}.  A recursion on the block holding the least
     point of M gives Psi_{0,0} = 1 and

         Psi_{n,m} = sum_{k>=1, l>=0} C(m-1, k-1) C(n-m, l)
                     (-x^{k-1} g_{k+l}) Psi_{n-k-l, m-k}.

The relation is the degree-R part of

    c(E^vee) ( w_0 kappa_{b-1} E_d + sum_{n=1}^{d} C(d, n) eps(A_n) E_{d-n} ),

eps(A) = sum_{T>=1} [x^T] A kappa_{T-1}: O(d^2 a^2) products of series of
length R + 2 (Psi is cached across calls) and O(d^2) polynomial products of
degree <= R, against one term per set partition of the light points and
exponent pattern in c(F_d).  surj(j, m), w_j and the binomials are
integers, so Psi_{n,m} and W_m are too and, as in `pointed`, all of it runs
in ints.  `CurveClass` and `pi_push` keep the section calculus itself,
which the tests use as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .kappa_lambda import KLPoly, check_genus, kappa_class, kl_zero
from .pointed import (
    PointedClass,
    _block_series,
    _dual_hodge_part,
    _push_series,
    _pushed_partition,
    chern_F,  # not used here; kept importable as sqtaut.curve.chern_F
    pc_diagonal,
    pc_one,
    pc_psihat,
    rank_F,
)
from .rings import (
    GradedPoly,
    InputError,
    SparseSum,
    accumulate,
    combine_caps,
    int_mul,
    series_mul,
    setfield,
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
                coeff = coeff.truncate(cap)
            if not coeff.is_zero:
                clean[key] = coeff
        setfield(self, "genus", genus)
        setfield(self, "d", d)
        setfield(self, "terms", MappingProxyType(clean))
        setfield(self, "cap", cap)

    _space = property(lambda self: (self.genus, self.d))
    _table = property(lambda self: self.terms)
    _SCALARS = (int, Fraction, GradedPoly, PointedClass)

    def _scalar(self, q) -> "CurveClass":
        return cc_scalar(self.genus, self.d, q)

    def scale(self, factor) -> "CurveClass":
        """Multiply by a pulled-back PointedClass, kappa/lambda class, or scalar."""
        if not isinstance(factor, self._SCALARS):
            raise InputError(f"cannot scale by {type(factor).__name__}")
        return self._new({key: c * factor for key, c in self.terms.items()}, self.cap)

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


# -- relation generator --------------------------------------------------

def _surjections(j: int, m: int) -> int:
    """The number of maps from a j-set onto an m-set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** j for i in range(m + 1))


@lru_cache(maxsize=None)
def _meeting_series(n: int, m: int, maxdeg: int) -> tuple:
    """Coefficients 0..maxdeg of Psi_{n,m}: set partitions of n points into
    blocks that each meet a fixed m-set M, block B weighted by
    -x^{|B n M| - 1} g_{|B|} (step 3 of the module docstring)."""
    if m == 0:
        return (int(n == 0),) + (0,) * maxdeg
    out = [0] * (maxdeg + 1)
    for k in range(1, m + 1):
        for l in range(n - m + 1):
            weight = comb(m - 1, k - 1) * comb(n - m, l)
            block = _block_series(k + l, maxdeg)
            rest = _meeting_series(n - k - l, m - k, maxdeg)
            for t, q in enumerate(series_mul(block, rest, maxdeg - k + 1)):
                out[t + k - 1] -= weight * q
    return tuple(out)


def prop8_relation(genus: int, d: int, a: int, b: int, c: int) -> KLPoly:
    """Pushforward relation from the section calculus; requires c > 0.

    Returns the (vanishing) kappa/lambda class of degree R = g-2d-2+a+b+c,
    eps_*([Q * c(F_d)]_N) with Q = pi_*((s^a + (-1)^c (s+1)^a) omega^b)
    and N = g-d-2+a+b+c.  Degrees involved must be nonnegative: the Chern
    index g-d-1+c and the selection degree N.

    Computed in ints from per-block series (module docstring, steps 1-3),
    with no class on the curve or the pointed base; the section calculus
    gives the same value through pi_push, chern_F and epsilon_push.
    """
    check_genus(genus)
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
    R = select - d
    if R < 0:
        return kl_zero(genus)
    top = R + 1  # x^T pushes to kappa_{T-1}, of degree T - 1 <= R
    sign = -1 if c % 2 else 1
    w = [sign * comb(a, j) for j in range(a + 1)]
    w[a] += 1
    W = [None]
    for m in range(1, min(a, d) + 1):
        series = [0] * (top + 1)
        for j in range(m, min(a, top + m) + 1):
            series[j - m] = (-1) ** j * w[j] * _surjections(j, m)
        W.append(series)
    total: dict = {}
    for n in range(d + 1):
        A = [0] * (top + 1)
        if n == 0 and b <= top:  # w_0 kappa_{b-1} is w_0 x^b pushed
            A[b] = w[0]
        for m in range(1, min(a, n) + 1):
            part = series_mul(W[m], _meeting_series(n, m, top), top - b)
            for t, q in enumerate(part):
                A[t + b] += comb(n, m) * q
        E = _pushed_partition(genus, d - n, R)
        for mono, q in int_mul(_push_series(genus, A, R), E, R).items():
            total[mono] = total.get(mono, 0) + comb(d, n) * q
    return _dual_hodge_part(genus, total, R)
