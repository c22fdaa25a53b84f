"""The relation generators: Theorem 5 and Prop. 8 from per-block series.

Both push Chern classes of the obstruction bundle F_d, c(F_d) =
chern_E_dual * chern_B^{-1} (rank g - d - 1, see `pointed`), from the
d-pointed space to the genus-g base.  Three facts reduce them to
one-variable series and kappa/lambda tables, with no block monomial:

  1. chern_B^{-1} is a product over blocks: it equals the sum over set
     partitions P of {1..d} of prod_{S in P} D_S * g_{|S|}(psihat_S), with
     universal one-variable series g_1 = 1/(1 - x) and

         (1 - (s+1) x) g_{s+1} = - sum_{a=1}^{s} C(s, a-1) (s+1-a) g_a g_{s+1-a},

     the single-block coefficient of chern_B(s+1)^{-1} *
     (1 + Delta_{s+1} - psihat_{s+1}) = chern_B(s)^{-1} lifted (so
     g_2 = -1/((1-x)^2 (1-2x))).
  2. epsilon_push sends a block with exponent t to kappa_{t-1} whatever its
     size, so a block carrying the series A(x) pushes to eps(A) =
     sum_{t>=1} [x^t] A * kappa_{t-1} (kappa_0 = 2g - 2), and chern_B^{-1}
     pushes to E_d, where, summing over the size of the block of label n,

         E_0 = 1,   E_n = sum_{s=1}^{n} C(n-1, s-1) eps(g_s) E_{n-s}.

  3. chern_E_dual is pulled back from the base, so by the projection
     formula it factors out of every pushforward.

Theorem 5.  For k >= 1 the degree N = g-2d-1+2k class eps_*(c_{g-d-1+2k}(F_d))
vanishes on the base; by facts 1-3 it is the degree-N part of
chern_E_dual * E_d: O(d^2) products instead of one term per set partition
of the light points.

Prop. 8.  For c > 0 the degree R = g-2d-2+a+b+c relation is

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
    w_j = [j = a] + (-1)^c C(a, j),

evaluated in three steps.

  1. P_0 = kappa_{b-1} (0 for b = 0).  For j >= 1 expand s^j: a word of
     length j in the sigma_i with support S (|S| = m) is D_S sigma_{min S}
     times (-psihat_S)^{j-m}, and surj(j, m) words have support S, so

         P_j = sum_{S nonempty} surj(j, m) (-1)^{j-m} D_S psihat_S^{j-m+b}.

  2. In D_S psihat_S^e * c(F_d) (fact 1) the r blocks of the partition that
     meet S merge with S into one block, which gains the exponent
     |S| - r = sum_B (|B n S| - 1) with sign (-1)^{|S|-r}; blocks missing S
     are unchanged.
  3. By fact 2 the blocks missing S push to E_{d-n}, n the size of the
     merged block; C(d, n) places that block and C(n, m) places S in it.
     By steps 1 and 2 the merged block carries x^{j+b-r} with sign
     (-1)^{j-r}, x = psihat, that is (-1)^j x^{j+b-m} times -x^{|B n S|-1}
     for each block B it absorbs, so it pushes the series

         A_n = x^b sum_{m>=1} C(n, m) W_m(x) Psi_{n,m}(x),
         W_m = sum_j w_j (-1)^j surj(j, m) x^{j-m},

     where Psi_{n,m} sums, over the set partitions of n points into blocks
     that each meet a fixed m-set M, the product over blocks B of
     -x^{|B n M|-1} g_{|B|}.  A recursion on the block holding the least
     point of M gives Psi_{0,0} = 1 and

         Psi_{n,m} = sum_{k>=1, l>=0} C(m-1, k-1) C(n-m, l)
                     (-x^{k-1} g_{k+l}) Psi_{n-k-l, m-k}.

The relation is the degree-R part of

    c(E^vee) ( w_0 kappa_{b-1} E_d + sum_{n=1}^{d} C(d, n) eps(A_n) E_{d-n} ):

O(d^2 a^2) products of series of length R + 2 and O(d^2) polynomial
products of degree <= R, against one term per set partition of the light
points and exponent pattern in c(F_d).

Both routes are integral (g_1 = 1/(1 - x), the division by 1 - (s+1) x,
kappa_0 = 2g - 2, surj(j, m), w_j and binomial weights keep integers;
chern_E_dual is +-1, one monomial per degree), so they run on int tables
until the return, with g_s, E_n and Psi_{n,m} cached.  A table is keyed by
partitions p (kappa indices, nonincreasing; () is 1, of degree sum(p)), so
a product with the linear form eps(A) adds one part to each key.
`pointed.pushed_chern` and the section calculus (`curve.pi_push`) give the
same values, and the tests use them as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, log10
from types import MappingProxyType

from .kappa_lambda import KAPPA, LAMBDA, KLPoly, check_genus, kl_zero
from .rings import GradedPoly, InputError, series_mul

MAX_WORK = 2_000_000  # estimated steps one relation may take (see _check_work)


def rank_F(genus: int, d: int) -> int:
    return genus - d - 1


def _check_work(call: str, d: int, top: int, parts: int, products: int,
                series: int) -> None:
    """Raise InputError, before anything is allocated, when `products` table
    products over the partitions of 0..top into at most `parts` parts, and
    `series` coefficient products of series, may pass MAX_WORK steps.  The
    coefficients grow with g_d, of about D = d log10 d digits, and a step
    on them is weighed as 1 + floor(D^2 / 600^2) small-int steps.  The
    partitions are counted only until the estimate passes the limit."""
    digits = int(d * log10(d))
    weight = 1 + digits * digits // 360_000
    products *= weight
    work = series * weight
    # weak compositions of 0..top bound the partitions: most calls stop here
    if work + products * comb(top + min(parts, top), top) <= MAX_WORK:
        return
    work += products  # over the partition ()
    rows = [[1]]  # rows[r][j]: partitions of r into at most j parts
    for r in range(1, top + 1):
        if work > MAX_WORK:
            break
        row = [0]
        for j in range(1, min(parts, r) + 1):
            row.append(row[j - 1] + rows[r - j][min(j, r - j)])
        rows.append(row)
        work += products * row[-1]
    if work > MAX_WORK:
        raise InputError(f"{call} needs an estimated {work:,} or more steps; "
                         f"the limit is {MAX_WORK:,}")


def _squares(j: int) -> int:
    """1^2 + 2^2 + ... + j^2."""
    return j * (j + 1) * (2 * j + 1) // 6


@lru_cache(maxsize=None)
def _block_series(s: int, maxdeg: int) -> tuple:
    """Coefficients 0..maxdeg of g_s, the series of a block of s light
    points in chern_B^{-1} (fact 1 of the module docstring); all ints."""
    if s == 1:
        return (1,) * (maxdeg + 1)
    for smaller in range(2, s):  # cache upward: recursion stays one level deep
        _block_series(smaller, maxdeg)
    rhs = [0] * (maxdeg + 1)
    for a in range(1, s):
        weight = comb(s - 1, a - 1) * (s - a)
        prod = series_mul(_block_series(a, maxdeg), _block_series(s - a, maxdeg),
                          maxdeg)
        for n, c in enumerate(prod):
            rhs[n] -= weight * c
    out, prev = [], 0
    for c in rhs:  # divide by 1 - s x
        prev = c + s * prev
        out.append(prev)
    return tuple(out)


@lru_cache(maxsize=None)
def _with_parts(p: tuple, maxdeg: int) -> tuple:
    """p, then p plus a part t = 1..maxdeg - sum(p), parts nonincreasing."""
    return (p,) + tuple(tuple(sorted(p + (t,), reverse=True))
                        for t in range(1, maxdeg - sum(p) + 1))


def _push_products(genus: int, terms, maxdeg: int) -> dict:
    """sum weight * eps(series) * E_rest over the (weight, series, rest)
    triples of terms, in degrees <= maxdeg, as a partition -> int table;
    each series is given through x^{maxdeg+1} (fact 2)."""
    acc: dict = {}
    for weight, series, rest in terms:
        # eps(series) as the linear form in kappa_0 = 2g - 2, kappa_1, ...
        form = [weight * c for c in (series[1] * (2 * genus - 2), *series[2:])]
        for p, c in _pushed_partition(genus, rest, maxdeg).items():
            for q, f in zip(_with_parts(p, maxdeg), form):
                acc[q] = acc.get(q, 0) + c * f
    return {p: c for p, c in acc.items() if c}


@lru_cache(maxsize=None)
def _pushed_partition(genus: int, n: int, maxdeg: int) -> MappingProxyType:
    """E_n (fact 2) in degrees <= maxdeg, a read-only partition -> int table."""
    if n == 0:
        return MappingProxyType({(): 1})
    # E_{n-s} from E_0 up: recursion stays shallow
    return MappingProxyType(_push_products(
        genus, ((comb(n - 1, s - 1), _block_series(s, maxdeg + 1), n - s)
                for s in range(n, 0, -1)), maxdeg))


@lru_cache(maxsize=None)
def _kappa_monomial(p: tuple) -> tuple:
    """The `rings` monomial of prod kappa_t over the parts t of p."""
    return tuple(((KAPPA, t), p.count(t)) for t in sorted(set(p)))


def _dual_hodge_part(genus: int, table, degree: int) -> KLPoly:
    """The degree part of chern_E_dual * table, in one pass: the partition p
    of the table meets only (-1)^i lambda_i, i = degree - sum(p).  The
    table's values are nonzero ints, and each p gives its own monomial."""
    return GradedPoly._trusted(genus, {
        _kappa_monomial(p) + ((((LAMBDA, i), 1),) if i else ()): Fraction(-c if i & 1 else c)
        for p, c in table.items() if 0 <= (i := degree - sum(p)) <= genus})


def theorem5_class(genus: int, d: int, k: int) -> KLPoly:
    """The degree N = g-2d-1+2k relation epsilon_*(c_{r+2k}(F_d)), r = g-d-1.

    Vanishes in the tautological ring of the base for every k >= 1; the
    returned expression is the relation's left-hand side, computed as the
    degree-N part of chern_E_dual * E_d (module docstring), and 0 when
    N < 0.
    """
    check_genus(genus)
    if d < 1:
        raise InputError("d must be >= 1")
    if k < 1:
        raise InputError("k must be >= 1")
    target = rank_F(genus, d) + 2 * k
    if target < 0:
        raise InputError("negative Chern degree")
    N = target - d
    if N < 0:
        return kl_zero(genus)
    # E_n takes n table products, and g_s takes s - 1 products of series of
    # length N + 2; a term written out of the table costs about eight visits
    _check_work(f"theorem5_class({genus}, {d}, {k})", d, N, d, d * (d + 1) // 2 + 8,
                d * (d - 1) // 2 * (N + 2) ** 2)
    return _dual_hodge_part(genus, _pushed_partition(genus, d, N), N)


def _surjections(j: int, m: int) -> int:
    """The number of maps from a j-set onto an m-set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** j for i in range(m + 1))


@lru_cache(maxsize=None)
def _meeting_series(n: int, m: int, maxdeg: int) -> tuple:
    """Coefficients 0..maxdeg of Psi_{n,m}: set partitions of n points into
    blocks that each meet a fixed m-set M, block B weighted by
    -x^{|B n M| - 1} g_{|B|} (Prop. 8, step 3 of the module docstring)."""
    if m == 0:
        return (int(n == 0),) + (0,) * maxdeg
    out = [0] * (maxdeg + 1)
    for k in range(1, min(m, maxdeg + 1) + 1):  # a larger k adds past x^maxdeg
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
    and N = g-d-2+a+b+c, computed from per-block series (module
    docstring).  Degrees involved must be nonnegative: the Chern index
    g-d-1+c and the selection degree N.
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
    # as in theorem5_class, with d + 1 more table products for the
    # relation, one series product per A_n and m, and the products of
    # Psi_{n,m}, m <= n <= d: n - m + 1 for each k <= min(m, R + 2), of
    # length R + 2 - k, each with one more step for the call
    series = (d * (d - 1) // 2 + d * min(a, d)) * (R + 2) ** 2 + sum(
        (d - m + 1) * (d - m + 2) // 2
        * (_squares(R + 1) - _squares(max(R + 1 - m, 0)) + min(m, R + 2))
        for m in range(1, min(a, d) + 1))
    _check_work(f"prop8_relation({genus}, {d}, {a}, {b}, {c})", d, R, d + 1,
                (d + 1) * (d + 2) // 2 + 8, series)
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

    def merged(n: int) -> list:  # the series A_n of the merged block
        A = [0] * (top + 1)
        if n == 0 and b <= top:  # w_0 kappa_{b-1} is w_0 x^b pushed
            A[b] = w[0]
        for m in range(1, min(a, n) + 1):
            part = series_mul(W[m], _meeting_series(n, m, top), top - b)
            for t, q in enumerate(part):
                A[t + b] += comb(n, m) * q
        return A

    total = _push_products(
        genus, ((comb(d, n), merged(n), d - n) for n in range(d + 1)), R)
    return _dual_hodge_part(genus, total, R)
