"""Tautological classes on the d-fold fiber product of the universal curve
over the genus-g base, where the d light points may collide.

Additive basis after rewriting: block monomials.  A block monomial is a
set partition of the light labels {1..d} into blocks, each block B carrying
a cotangent-weight exponent t_B >= 0.  A block of size >= 2 stands for the
small diagonal where its points collide, and the exponent is the power of
the common cotangent-line class on that diagonal; a singleton block {j}
with exponent t stands for psihat_j^t.  The codimension of a monomial is

    sum_B t_B  +  sum_{|B| >= 2} (|B| - 1).

Two rewriting facts make this a basis and drive multiplication:

  * restricted to the diagonal of a block J, every psihat_j with j in J
    becomes the common class psihat_J;
  * a product of diagonals with overlapping supports collapses:
    D_J * D_J' = (-psihat_{J u J'})^{|J n J'| - 1} * D_{J u J'}.

Merging the blocks of two monomials therefore proceeds by connected
components: a component F assembled from r constituent blocks (counted
from both factors) picks up the exponent |F| + 1 - r on -psihat_F, since
every light label lies in exactly one block of each factor.

Coefficients are kappa/lambda polynomials pulled back from the base; a
`PointedClass` is a `rings.SparseSum` over block monomials whose degree
cap counts codimension plus coefficient degree.  The pushforward to the
base sends a block monomial to prod_B kappa_{t_B - 1} (kappa_{-1} = 0,
kappa_0 = 2g - 2), lowering degree by exactly d.

The total Chern class of the index-type obstruction bundle F_d (rank
g - d - 1) is

    chern_F = chern_E_dual * (prod_{i=1}^{d} (1 + Delta_i - psihat_i))^{-1}

with Delta_i = D_{1,i} + ... + D_{i-1,i}, and chern_B is the product being
inverted.  By fact 1 of `relations`, chern_B^{-1} is the sum over set
partitions P of {1..d} of prod_{S in P} D_S * g_{|S|}(psihat_S), g_s a
one-variable series, so `chern_F` writes c(F_d) down term by term: the
block monomial (P, t) has coefficient chern_E_dual * prod_{S in P}
[x^{t_S}] g_{|S|}.  Pushing its Chern class of degree (g - d - 1) + 2k to
the base gives the Theorem 5 relation (`pushed_chern`), which
`relations.theorem5_class` computes without block monomials.

`block_groups(d, k)` enumerates the block monomials of degree k for the
pairing, and its unchecked step for `chern_F` (every k <= maxdeg), from
set partitions kept per (d, length); `block_labels` counts them in closed
form, and past MAX_LABELS they are refused before anything is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping

from .kappa_lambda import (
    KLPoly,
    chern_E_dual,
    check_genus,
    genus_of,
    kl_one,
    kl_scalar,
    kl_zero,
)
from .relations import _block_series, _kappa_monomial
from .relations import theorem5_class  # kept importable as sqtaut.pointed.theorem5_class
from .rings import (
    Frozen,
    GradedPoly,
    InputError,
    SparseSum,
    _factor_texts,
    _format_terms,
    _power_text,
    accumulate,
    check_set_partition,
    combine_caps,
    iter_weak_compositions,
    mono_mul,
    poly_mul,
    set_partitions,
)


class BlockMonomial(Frozen):
    """Canonical block monomial: partition of {1..d} + exponent per block.

    Blocks are tuples of strictly increasing labels, ordered by least
    element; together they cover {1..d} exactly.  The constructor checks
    this; `_trusted` skips the check for monomials built from valid ones.
    `degree`, the codimension, is stored once, at construction.
    """

    _fields = ("d", "blocks", "exps")

    def __init__(self, d: int, blocks: tuple, exps: tuple) -> None:
        if d < 0:
            raise InputError("d must be >= 0")
        check_set_partition(blocks, exps, d)
        self._set(d, blocks, exps)

    def _set(self, d: int, blocks: tuple, exps: tuple) -> None:
        # the four fields in one write; the blocks cover d labels, and a
        # block of size s adds s - 1
        self.__dict__.update(d=d, blocks=blocks, exps=exps, degree=sum(exps) + d - len(blocks))

    # written out, not Frozen's generic pair: monomials key every class
    # table, and these run at the speed of a frozen dataclass's
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.d, self.blocks, self.exps) == (other.d, other.blocks, other.exps)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.blocks, self.exps))

    def relabel(self, perm: Mapping[int, int]) -> "BlockMonomial":
        pairs = sorted(
            ((tuple(sorted(perm[x] for x in b)), e)
             for b, e in zip(self.blocks, self.exps)),
            key=lambda pe: pe[0][0],
        )
        return BlockMonomial(
            self.d,
            tuple(b for b, _ in pairs),
            tuple(e for _, e in pairs),
        )

    def factor_texts(self) -> list:
        """The diagonal and psihat factors as text; [] for the unit."""
        parts = []
        for block, exp in zip(self.blocks, self.exps):
            label = ",".join(str(x) for x in block)
            if len(block) >= 2:
                parts.append(f"D_{{{label}}}")
            if exp:
                parts.append(_power_text(f"psih_{{{label}}}", exp))
        return parts

    def __str__(self) -> str:
        return "*".join(self.factor_texts()) or "1"


def unit_monomial(d: int) -> BlockMonomial:
    return BlockMonomial(d, tuple((j,) for j in range(1, d + 1)), (0,) * d)


def psihat_monomial(d: int, j: int, exp: int = 1) -> BlockMonomial:
    if not 1 <= j <= d:
        raise InputError(f"light label {j} out of range 1..{d}")
    base = unit_monomial(d)
    exps = list(base.exps)
    exps[j - 1] = exp
    return BlockMonomial(d, base.blocks, tuple(exps))


def diagonal_monomial(d: int, labels: Iterable[int]) -> BlockMonomial:
    J = tuple(sorted(set(labels)))
    if len(J) < 2:
        raise InputError("a diagonal needs at least two labels")
    if not all(1 <= x <= d for x in J):
        raise InputError(f"labels {J} out of range 1..{d}")
    blocks = [J] + [(j,) for j in range(1, d + 1) if j not in J]
    blocks.sort(key=lambda b: b[0])
    return BlockMonomial(d, tuple(blocks), (0,) * len(blocks))


class PointedClass(SparseSum):
    """A finite sum of block monomials with kappa/lambda coefficients.

    `terms` maps block monomials to nonzero coefficients; the degree for
    the cap is the monomial codimension plus the coefficient degree.
    """

    _fields = ("genus", "d", "terms", "cap")

    def __init__(self, genus: int, d: int, terms, cap: int | None = None) -> None:
        check_genus(genus)
        if d < 0:
            raise InputError("d must be >= 0")
        clean: dict = {}
        for mono, coeff in terms.items():
            if mono.d != d:
                raise InputError("monomial has wrong number of light points")
            if genus_of(coeff) != genus:
                raise InputError("coefficient has wrong genus")
            if cap is not None:
                coeff = coeff.truncate(combine_caps(coeff.cap, cap - mono.degree))
            if coeff.is_zero:
                continue
            clean[mono] = coeff
        self._set(genus, d, MappingProxyType(clean), cap)

    _space = property(lambda self: (self.genus, self.d))
    _table = property(lambda self: self.terms)
    _SCALARS = (int, Fraction, GradedPoly)

    def _scalar(self, q) -> "PointedClass":
        return pc_from_kl(self.genus, self.d, kl_scalar(self.genus, q))

    # -- queries ---------------------------------------------------------

    def coefficient(self, mono: BlockMonomial) -> KLPoly:
        return self.terms.get(mono, kl_zero(self.genus))

    def homogeneous_degrees(self) -> list:
        out = set()
        for mono, coeff in self.terms.items():
            for k in coeff.homogeneous_degrees():
                out.add(mono.degree + k)
        return sorted(out)

    def ordered_terms(self) -> list:
        """Terms in canonical order: monomial degree, then blocks, then
        exponents."""
        return sorted(self.terms.items(),
                      key=lambda mc: (mc[0].degree, mc[0].blocks, mc[0].exps))

    def degree_part(self, k: int) -> "PointedClass":
        parts = {mono: coeff.degree_part(k - mono.degree)
                 for mono, coeff in self.terms.items()}
        return PointedClass(self.genus, self.d, parts, None)

    def relabel(self, perm: Mapping[int, int]) -> "PointedClass":
        """Apply a permutation of the light labels (a ring automorphism)."""
        if sorted(perm) != list(range(1, self.d + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.d + 1)):
            raise InputError("perm must permute 1..d")
        out = {}
        for mono, coeff in self.terms.items():
            out[mono.relabel(perm)] = coeff
        return PointedClass(self.genus, self.d, out, self.cap)

    # -- arithmetic ------------------------------------------------------

    def scale(self, factor) -> "PointedClass":
        """Multiply by a scalar or by a pulled-back kappa/lambda class."""
        if isinstance(factor, (int, Fraction)):
            factor = kl_scalar(self.genus, factor)
        if genus_of(factor) != self.genus:
            raise InputError("coefficient has wrong genus")
        cap = combine_caps(self.cap, factor.cap)
        out = {}
        for mono, coeff in self.terms.items():
            out[mono] = poly_mul(coeff, factor, None if cap is None else cap - mono.degree)
        return PointedClass(self.genus, self.d, out, cap)

    def _mul(self, other: "PointedClass") -> "PointedClass":
        return pc_mul(self, other)

    def __str__(self) -> str:
        def term(mono, coeff):  # a coefficient of several terms is parenthesized
            if len(coeff.coeffs) > 1:
                return [f"({coeff})", *mono.factor_texts()], 1
            [(m, q)] = coeff.coeffs.items()
            return [*_factor_texts(m), *mono.factor_texts()], q
        return _format_terms(term(mono, coeff) for mono, coeff in self.ordered_terms())


# -- constructors --------------------------------------------------------

def pc_zero(genus: int, d: int) -> PointedClass:
    return PointedClass(genus, d, {})


def pc_one(genus: int, d: int) -> PointedClass:
    return PointedClass(genus, d, {unit_monomial(d): kl_one(genus)})


def pc_from_kl(genus: int, d: int, coeff: KLPoly) -> PointedClass:
    if genus_of(coeff) != genus:
        raise InputError("coefficient has wrong genus")
    # the unit monomial has degree 0, so the coefficient's cap is the class's
    return PointedClass(genus, d, {unit_monomial(d): coeff}, coeff.cap)


def pc_monomial(genus: int, d: int, mono: BlockMonomial, coeff=None) -> PointedClass:
    if coeff is None:
        coeff = kl_one(genus)
    return PointedClass(genus, d, {mono: coeff})


def pc_psihat(genus: int, d: int, j: int, exp: int = 1) -> PointedClass:
    return pc_monomial(genus, d, psihat_monomial(d, j, exp))


def pc_diagonal(genus: int, d: int, labels: Iterable[int]) -> PointedClass:
    return pc_monomial(genus, d, diagonal_monomial(d, labels))


def pc_delta(genus: int, d: int, i: int) -> PointedClass:
    """Delta_i = D_{1,i} + ... + D_{i-1,i}; Delta_1 = 0."""
    if not 1 <= i <= d:
        raise InputError(f"light label {i} out of range 1..{d}")
    one = kl_one(genus)
    return PointedClass(genus, d, {diagonal_monomial(d, (j, i)): one
                                   for j in range(1, i)})


def pc_delta_sym(genus: int, d: int) -> PointedClass:
    """The symmetric diagonal divisor: sum of all D_{i,j}, i < j."""
    one = kl_one(genus)
    return PointedClass(genus, d, {diagonal_monomial(d, (i, j)): one
                                   for i in range(1, d + 1)
                                   for j in range(i + 1, d + 1)})


# -- multiplication ------------------------------------------------------

def _merge_monomials(m1: BlockMonomial, m2: BlockMonomial):
    """Merge block structures; return (monomial, sign).

    A component of the union of both partitions is a (labels, exponent
    sum, block count) triple; each block of m2 absorbs the components it
    meets.  A component F of r blocks collapses to one block that gains
    |F| + 1 - r exponent units, each carrying a factor -1.
    """
    comps = [(set(b), e, 1) for b, e in zip(m1.blocks, m1.exps)]
    for block, exp in zip(m2.blocks, m2.exps):
        labels, count, rest = set(block), 1, []
        for comp in comps:  # components are disjoint, so labels may grow
            if labels.isdisjoint(comp[0]):
                rest.append(comp)
            else:
                labels |= comp[0]
                exp += comp[1]
                count += comp[2]
        comps = rest + [(labels, exp, count)]
    pairs = sorted((tuple(sorted(labels)), exp + len(labels) + 1 - count)
                   for labels, exp, count in comps)
    # the gained units sum to d + #components - #blocks of both factors
    sign = (-1) ** (m1.d + len(comps) - len(m1.blocks) - len(m2.blocks))
    return BlockMonomial._trusted(m1.d, tuple(b for b, _ in pairs),
                                  tuple(e for _, e in pairs)), sign


def pc_mul(a: PointedClass, b: PointedClass) -> PointedClass:
    """Product in canonical form; bilinear over kappa/lambda coefficients."""
    if not isinstance(a, PointedClass) or not isinstance(b, PointedClass):
        raise InputError("pc_mul expects two PointedClass operands")
    a._require_compatible(b)
    trunc = combine_caps(a.cap, b.cap)
    genus = a.genus
    acc: dict = {}
    # merging adds degrees, so past the cap the rest of b only gets higher
    b_terms = sorted(((m.degree, m, c) for m, c in b.terms.items()),
                     key=lambda t: t[0])
    for m1, c1 in a.terms.items():
        deg1 = m1.degree
        for deg2, m2, c2 in b_terms:
            if trunc is not None and deg1 + deg2 > trunc:
                break
            mono, sign = _merge_monomials(m1, m2)
            if trunc is not None and mono.degree > trunc:
                continue
            cap = None if trunc is None else trunc - mono.degree
            # each coefficient is trusted only through its own cap too
            coeff = poly_mul(c1, c2, combine_caps(cap, combine_caps(c1.cap, c2.cap)))
            if coeff:
                accumulate(acc, mono, -coeff if sign < 0 else coeff)
    return PointedClass(genus, a.d, acc, trunc)


# -- enumeration ---------------------------------------------------------

MAX_LABELS = 500_000  # (7, 7) writes 489,588; chern_F at d = 1 stops at 100,000 terms


def block_labels(d: int, lo: int, hi: int) -> int:
    """The labels that the block monomials of degree lo..hi on d light
    points write: d each, plus 4 for its own record (object, exponents and,
    in c(F_d), coefficient), which d alone undercounts at small d.  Per
    length l: S(d, l) partitions times the l-tuples of total lo-d+l..hi-d+l.
    Past MAX_LABELS the count may stop at a part already larger."""
    # the l = d part, C(hi + d - 1, d - 1) tuples of total hi: most refusals
    top, r = d + 4, min(hi, d - 1)
    for i in range(1, r + 1):
        top = top * (hi + d - 1 - r + i) // i
        if top > MAX_LABELS:
            return top
    # row[j] = S(n, n - j) for j = 0..r, from n = 0 up to d
    row = [1] + [0] * r
    for n in range(1, d + 1):
        row = [1] + [(n - j) * row[j - 1] + row[j] for j in range(1, r + 1)]
    # d - j blocks: the (d - j)-tuples of total at most hi - j, less those under lo - j
    monomials = sum(s * (comb(hi + d - 2 * j, d - j)
                         - (comb(lo + d - 2 * j - 1, d - j) if lo > j else 0))
                    for j, s in enumerate(row))
    return (d + 4) * monomials


def check_labels(what: str, labels: int) -> None:
    if labels > MAX_LABELS:
        raise InputError(f"{what} writes {labels:,} labels or more; "
                         f"the limit is {MAX_LABELS:,}")


@lru_cache(maxsize=64)
def block_groups(d: int, k: int) -> tuple:
    """The block monomials of degree k on d >= 1 light points: per length l,
    descending, the triple (l, the set partitions of length l, the exponent
    list they share, since l blocks have degree d - l before exponents),
    each in lexicographic order.  Kept per (d, k), tuples all the way down."""
    if d < 1 or k < 0:
        raise InputError("need d >= 1 and k >= 0")
    check_labels(f"enumerating the block monomials of degree {k} on {d} points",
                 block_labels(d, k, k))
    return _block_groups(d, k)


@lru_cache(maxsize=16)
def _partitions(d: int) -> dict:
    """Per length l, the set partitions of {1..d} into l parts, sorted: the
    lengths d down to the least any call has asked for, shared across k."""
    return {}


def _block_groups(d: int, k: int) -> tuple:
    """`block_groups` without its checks, for a caller that has made them.
    The lengths not yet kept come from one `set_partitions(d, d - k)`."""
    kept, lo = _partitions(d), max(d - k, 1)
    if lo not in kept:
        new = {}
        for part in set_partitions(d, lo):
            if len(part) not in kept:
                new.setdefault(len(part), []).append(part)
        kept.update((l, tuple(sorted(parts))) for l, parts in new.items())
    return tuple((l, kept[l], tuple(iter_weak_compositions(k - d + l, l)))
                 for l in range(d, lo - 1, -1))


# -- Chern classes of the obstruction theory -----------------------------

@lru_cache(maxsize=64)
def _chern_F_cached(genus: int, d: int, maxdeg: int) -> PointedClass:
    dual = chern_E_dual(genus, maxdeg)
    if d == 0:
        return pc_from_kl(genus, 0, dual).truncate(maxdeg)
    # a block of s points has degree s - 1, so no block has more than maxdeg + 1
    series = [None] + [_block_series(s, maxdeg) for s in range(1, min(d, maxdeg + 1) + 1)]
    terms = {}
    # chern_F has checked every degree, and the result is cached, so its
    # degrees stay out of the shared LRU, which a high degree would flush
    for k in range(maxdeg + 1):
        for _, parts, exps_list in _block_groups(d, k):
            for blocks in parts:
                for exps in exps_list:
                    coeff = prod(series[len(b)][t] for b, t in zip(blocks, exps))
                    terms[BlockMonomial._trusted(d, blocks, exps)] = dual.scale(coeff)
    return PointedClass(genus, d, terms, maxdeg)


def chern_F(genus: int, d: int, maxdeg: int) -> PointedClass:
    """Total Chern class of the rank g-d-1 obstruction bundle, truncated.

    Equals chern_E_dual times the inverse of chern_B, written down term by
    term as the module docstring says.  Cached per (genus, d, maxdeg).
    """
    check_genus(genus)
    if d < 0:
        raise InputError("d must be >= 0")
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    check_labels(f"chern_F({genus}, {d}, {maxdeg})", block_labels(d, 0, maxdeg))
    return _chern_F_cached(genus, d, maxdeg)


# -- pushforward to the base ---------------------------------------------

def epsilon_push(c: PointedClass) -> KLPoly:
    """Pushforward along the map forgetting all light points.

    Block rule: a monomial with blocks B and exponents t_B pushes to
    prod_B kappa_{t_B - 1}; any exponent-0 block kills the term, and a
    block with t_B = 1 gives the scalar kappa_0 = 2g-2.  Lowers degree by
    exactly d, and so every cap by d.
    """
    genus, d = c.genus, c.d
    acc: dict = {}
    cap = None if c.cap is None else c.cap - d
    for mono, coeff in c.terms.items():
        if 0 in mono.exps:
            continue
        if coeff.cap is not None:  # the push lowers degree by d
            cap = combine_caps(cap, mono.degree - d + coeff.cap)
        scalar = (2 * genus - 2) ** mono.exps.count(1)
        kappas = _kappa_monomial(tuple(sorted((t - 1 for t in mono.exps if t > 1),
                                              reverse=True)))
        for m, q in coeff.coeffs.items():
            accumulate(acc, mono_mul(kappas, m), scalar * q)
    return GradedPoly(genus, acc, cap)


def pushed_chern(genus: int, d: int, chern_degree: int) -> KLPoly:
    """epsilon_*(c_m(F_d)) for m = chern_degree."""
    if chern_degree < 0:
        raise InputError("negative Chern degree")
    total = chern_F(genus, d, chern_degree)
    return epsilon_push(total.degree_part(chern_degree))
