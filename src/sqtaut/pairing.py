"""Pairing of diagonal/psihat monomial classes against boundary chain
strata in genus zero, with the block-triangular rank certificate.

For d light points and degree k, the rows and the columns of the matrix
are both indexed by the block monomials of degree k, in the groups of
`pointed.block_groups`: a set partition P of {1..d} into l blocks with
an exponent tuple tau of length l, sum(tau) = k - d + l.  Row [P, tau] is
the monomial X[P, tau] = prod_i psihat_{P_i}^{tau_i} D_{P_i} on the space
with two heavy points, extended here to m = 4 + k - d + 2l heavy points.

The paired functional Y[P', tau'] integrates against a chain stratum: a
curve with components R_0 - R_1 - ... - R_{l'} - R_{l'+1} in a chain,
where R_0 and R_{l'+1} carry two heavy markings each and no light points,
and R_i (1 <= i <= l') carries tau'_i + 1 heavy markings and the light
block P'_i; heavy labels 1..m' are distributed left to right.  The
functional also multiplies by psi at the least heavy label r'_i on each
interior component.  The stratum has dimension l' + k.

Pairing evaluation:
  * l < l': zero, proven structurally - the row monomial cannot place a
    diagonal block on every interior component;
  * l = l', P != P': zero - the supports of the diagonals miss the
    stratum's light-point distribution;
  * l = l', P = P': the integral factors over components, each factor a
    genus-zero psi integral on tau'_i + 4 points, giving
    prod_i (tau_i + 1) when tau = tau' and 0 otherwise;
  * l > l': left unevaluated - these entries are never needed for the
    rank argument and no closed evaluation is claimed for them.

Ordering rows and columns by l descending makes the matrix block
lower-triangular with diagonal blocks that are themselves diagonal with
positive entries, which certifies that the X[P, tau] pair independently
against the functionals: full rank.

`pairing_entry` applies the four cases to one cell; only the third reads
factors, and its cell is nonzero only where every component factor is, so
a row's nonzero own-partition columns are the product of its
per-component supports, each tuple looked up in the exponent list.

The certificate checks only the cells of each row against its own
partition's columns, since the other cases hold by the rule itself.  A
cell is the product of its component factors, so the factor tables prove
them all: if, for each row exponent t (each t <= k, or k alone at d = 1),
the factor of t is nonzero only at column exponent t, where it is t + 1,
each row's one nonzero such cell is its diagonal, prod (t_i + 1).  Only
if that proof fails are the rows searched, once per length and row
exponents, to name the first failing cell in row order, then column
order, or to accept.  `PairingMatrix` expands a row at a time from the
enumeration's groups.  Each certificate and matrix reads its factors
through `_component_integral` into a memo of its own, bounded, as the
enumeration is, by `pointed.MAX_LABELS`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, product, repeat
from math import prod
from operator import getitem
from typing import Iterator

from .genus0 import psi_integral_M0n
from .pointed import BlockMonomial, block_groups, check_labels
from .rings import CertificateError, DomainError, Frozen, InputError

PROVEN_ZERO = "proven-zero"
COMPUTED = "computed"
UNEVALUATED = "unevaluated"

REASON_TOO_FEW_BLOCKS = "fewer diagonal blocks than interior components"
REASON_SUPPORT_MISMATCH = "diagonal supports miss the stratum's light blocks"


class ChainStratum(Frozen):
    """The chain-of-components stratum of the column indexed by `monomial`.

    `heavy_labels` and `light_blocks` hold one tuple per component
    0..l+1, l the number of blocks; `psi_labels` the least heavy label of
    each interior one.
    """

    _fields = ("monomial", "heavy_labels", "light_blocks", "psi_labels")

    @classmethod
    def from_spec(cls, mono: BlockMonomial) -> "ChainStratum":
        heavy, light, psi, next_label = [(1, 2)], [()], [], 3
        for block, t in zip(mono.blocks, mono.exps):
            labels = tuple(range(next_label, next_label + t + 1))
            next_label += t + 1
            heavy.append(labels)
            light.append(block)
            psi.append(labels[0])
        heavy.append((next_label, next_label + 1))
        light.append(())
        return cls(mono, tuple(heavy), tuple(light), tuple(psi))

    @property
    def heavy_count(self) -> int:
        """m = 4 + k - d + 2l heavy markings in total."""
        return sum(len(h) for h in self.heavy_labels)

    @property
    def dimension(self) -> int:
        """dim of the ambient space minus one node per component join."""
        mono = self.monomial
        return (self.heavy_count + mono.d - 3) - (len(mono.blocks) + 1)


class PairingEntry(Frozen):
    """One cell: its status, its value if computed, its reason if proven zero."""

    _fields = ("status", "value", "reason")

    def __init__(self, status: str, value: Fraction | None = None,
                 reason: str | None = None) -> None:
        self._set(status, value, reason)


def enumerate_P(d: int, k: int) -> list:
    """The block monomials of degree k on d light points, the index of both
    rows and columns, in the order of `block_groups`, as a fresh list."""
    return [BlockMonomial._trusted(d, blocks, t)
            for _, parts, exps in block_groups(d, k) for blocks in parts for t in exps]


# each outcome with no cell-specific data has one shared (frozen) entry
_TOO_FEW_BLOCKS = PairingEntry(PROVEN_ZERO, reason=REASON_TOO_FEW_BLOCKS)
_SUPPORT_MISMATCH = PairingEntry(PROVEN_ZERO, reason=REASON_SUPPORT_MISMATCH)
_UNEVALUATED = PairingEntry(UNEVALUATED)
_COMPUTED_ZERO = PairingEntry(COMPUTED, value=Fraction(0))


@lru_cache(maxsize=256)
def _component_integral(t: int, tp: int) -> int:
    """The factor of interior component i: the integral on tau'_i + 4
    points of psi at the least heavy label and psi^t at the collapsed
    light point, a multinomial and so an int."""
    value = psi_integral_M0n([1, t] + [0] * (tp + 2))
    if value.denominator != 1:
        raise DomainError(f"component integral ({t}, {tp}) is {value}, not an integer")
    return value.numerator


class _Factors(dict):
    """`factors[t]` is the pair (table, support): the tuple of
    `_component_integral(t, tp)` for tp in 0..degree, read on first use,
    and the tp where it is nonzero.  Each certificate and matrix keeps one,
    weighed as (k + 1)^2 integrals of k + 4 points, each point a label."""

    __slots__ = ("span",)

    def __init__(self, degree: int) -> None:
        check_labels(f"reading the component integrals of degree {degree}",
                     (degree + 1) ** 2 * (degree + 4))
        self.span = range(degree + 1)

    def __missing__(self, t: int) -> tuple:
        table = tuple(map(_component_integral, repeat(t), self.span))
        entry = self[t] = table, tuple(compress(self.span, table))
        return entry


def _nonzero(exps: tuple, index: dict, factors: _Factors) -> list:
    """The (rank, product) pairs, in rank order, of the columns of one
    partition where every component factor of the row exponents `exps`
    is nonzero; `index` maps each column's exponent tuple to its rank in
    the partition's exponent list."""
    tables, supports = zip(*map(factors.__getitem__, exps))
    return sorted([(index[col], prod(map(getitem, tables, col)))
                   for col in product(*supports) if col in index])


def pairing_entry(row: BlockMonomial, col: BlockMonomial) -> PairingEntry:
    """Evaluate the pairing of the monomial `row` against the chain stratum
    of the monomial `col`, by the four cases of the module docstring."""
    if (row.d, row.degree) != (col.d, col.degree):
        raise InputError("row and column have mismatched (d, k)")
    l, lp = len(row.blocks), len(col.blocks)
    if l != lp:
        return _TOO_FEW_BLOCKS if l < lp else _UNEVALUATED
    if row.blocks != col.blocks:
        return _SUPPORT_MISMATCH
    value = prod(map(_component_integral, row.exps, col.exps))
    return PairingEntry(COMPUTED, value=Fraction(value)) if value else _COMPUTED_ZERO


class DiagonalBlock(Frozen):
    """Evidence for one l = l' block: diagonal values (Fractions in row
    order) and zero off-diagonal."""

    _fields = ("length", "size", "diagonal", "off_diagonal_checked")


class Certificate(Frozen):
    """Structural full-rank certificate for the pairing matrix.

    `blocks` holds one DiagonalBlock per length, descending; `zero_pairs`
    counts the proven-zero cells (row shorter than column) and
    `unevaluated_pairs` the cells never needed (row longer).
    """

    _fields = ("d", "k", "size", "blocks", "zero_pairs", "unevaluated_pairs", "full_rank")


class PairingMatrix:
    """Rows and columns: the block monomials `specs` of `enumerate_P`,
    built on first read; column j is the chain stratum of `specs[j]`.
    Entries are computed on demand, a row at a time, from the enumeration's
    length groups: `entry(i, j)` keeps the entries of the last row it
    computed, so `entries()` expands each row once.  A matrix keeps one
    factor memo and one entry per computed value."""

    def __init__(self, d: int, k: int):
        self.d, self.k = d, k
        # per row length, descending: (first row, end, exponent list, exponent index)
        self._lengths, lo = [], 0
        for _, parts, exps in block_groups(d, k):
            hi = lo + len(parts) * len(exps)
            self._lengths.append((lo, hi, exps, {t: r for r, t in enumerate(exps)}))
            lo = hi
        self.size = lo
        self._factors = _Factors(k)
        self._computed = {0: _COMPUTED_ZERO}  # value -> its one entry
        self._i, self._row = None, None  # the last row computed and its entries

    @cached_property
    def specs(self) -> list:
        return enumerate_P(self.d, self.k)

    def entry(self, i: int, j: int) -> PairingEntry:
        if i != self._i:
            self._row = self._row_entries(i)
            self._i = i
        return self._row[j]

    def _row_entries(self, i: int) -> list:
        """Row i in full: proven zero against longer columns, support
        mismatch against the other partitions of its length, unevaluated
        against shorter ones, and computed against its own partition."""
        i = range(self.size)[i]  # as `specs` reads it: from the end if negative
        lo, hi, exps, index = next(g for g in self._lengths if i < g[1])
        n = len(exps)
        start = i - (i - lo) % n  # the row's partition's first column
        row = [_TOO_FEW_BLOCKS] * lo + [_SUPPORT_MISMATCH] * (hi - lo)
        row += [_UNEVALUATED] * (self.size - hi)
        row[start:start + n] = [_COMPUTED_ZERO] * n
        computed = self._computed
        for r, value in _nonzero(exps[i - start], index, self._factors):
            entry = computed.get(value)
            if entry is None:
                entry = computed[value] = PairingEntry(COMPUTED, value=Fraction(value))
            row[start + r] = entry
        return row

    def entries(self) -> Iterator[tuple]:
        n = self.size
        return ((i, j, self.entry(i, j)) for i in range(n) for j in range(n))


def _reject(i: int, lo: int, expected: int, nonzero: list) -> None:
    """Raise the CertificateError of row i's first failing cell, by column:
    its partition's columns start at `lo`, and `nonzero` holds their
    (rank, product) pairs; every other cell of the row holds by the rule."""
    values = dict(nonzero)
    for b in sorted({*values, i - lo}):
        j, value = lo + b, values.get(b, 0)
        if j == i:
            if value <= 0 or value != expected:
                want = "positive" if value <= 0 else expected
                raise CertificateError(f"diagonal entry {i} is {value}, expected {want}")
        elif value:
            raise CertificateError(f"off-diagonal entry ({i},{j}) is nonzero")


_fraction = lru_cache(maxsize=256)(Fraction)  # diagonal values repeat across lengths and calls


def rank_certificate(d: int, k: int) -> Certificate:
    """Verify block triangularity and positive diagonal; certify full rank,
    from the component factors as the module docstring says.  For d = k = 5
    it makes 36 factor reads, searches no row and builds no block monomial."""
    factors = _Factors(k)
    # each own-partition cell is a product of these; rows hold every t <= k, or k at d = 1
    proven = all(factors[t][1] == (t,) and factors[t][0][t] == t + 1
                 for t in (factors.span if d > 1 else (k,)))
    blocks, lo, within = [], 0, 0
    for l, parts, exps in block_groups(d, k):
        size = len(parts) * len(exps)
        expected = [prod(map((1).__add__, t)) for t in exps]  # prod (t + 1)
        if not proven:  # name the first failing cell, if any
            index = {t: r for r, t in enumerate(exps)}
            for r, t in enumerate(exps):
                nonzero = _nonzero(t, index, factors)
                if nonzero != [(r, expected[r])]:
                    _reject(lo + r, lo, expected[r], nonzero)
        values = tuple(map(_fraction, expected))
        blocks.append(DiagonalBlock(l, size, values * len(parts), size * (size - 1)))
        lo, within = lo + size, within + size * size
    # cells between lengths: proven zero below the blocks, unevaluated above
    cross = (lo * lo - within) // 2
    return Certificate(d, k, lo, tuple(blocks), cross, cross, True)
