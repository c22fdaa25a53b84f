"""Pairing of diagonal/psihat monomial classes against boundary chain
strata in genus zero, with the block-triangular rank certificate.

For d light points and degree k, the rows and the columns of the matrix
are both indexed by the block monomials of `pointed` of degree k: a set
partition P of {1..d} into l blocks (l >= d-k, blocks ordered by least
element) with an exponent tuple tau of length l, sum(tau) = k - d + l.
Row [P, tau] is the monomial X[P, tau] = prod_i psihat_{P_i}^{tau_i}
D_{P_i} on the space with two heavy points, extended here to
m = 4 + k - d + 2l heavy points.

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

The certificate evaluates every cell it checks, so one evaluation has to
be cheap: the structural entries (too few blocks, support mismatch,
unevaluated) and the computed zeros are shared immutable constants, and
the component factors are ints cached on (tau_i, tau'_i).  A computed
cell is an int product that stops at the first zero factor, so only a
nonzero computed cell allocates: one Fraction and one PairingEntry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import prod
from typing import Iterator

from .genus0 import psi_integral_M0n
from .pointed import BlockMonomial
from .rings import (
    CertificateError,
    DomainError,
    Frozen,
    InputError,
    iter_weak_compositions,
    set_partitions,
    setfield,
)

PROVEN_ZERO = "proven-zero"
COMPUTED = "computed"
UNEVALUATED = "unevaluated"

REASON_TOO_FEW_BLOCKS = "fewer diagonal blocks than interior components"
REASON_SUPPORT_MISMATCH = "diagonal supports miss the stratum's light blocks"

MAX_DK = 5  # the largest d and k that rank_certificate accepts


class ChainStratum(Frozen):
    """The chain-of-components stratum of the column indexed by `monomial`.

    `heavy_labels` and `light_blocks` hold one tuple per component
    0..l+1, l the number of blocks; `psi_labels` the least heavy label of
    each interior one.
    """

    _fields = ("monomial", "heavy_labels", "light_blocks", "psi_labels")

    def __init__(self, monomial: BlockMonomial, heavy_labels: tuple,
                 light_blocks: tuple, psi_labels: tuple) -> None:
        setfield(self, "monomial", monomial)
        setfield(self, "heavy_labels", heavy_labels)
        setfield(self, "light_blocks", light_blocks)
        setfield(self, "psi_labels", psi_labels)

    @classmethod
    def from_spec(cls, mono: BlockMonomial) -> "ChainStratum":
        heavy = [(1, 2)]
        light = [()]
        psi = []
        next_label = 3
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
    """One cell: its status, its value when computed, and the reason for a
    proven zero."""

    _fields = ("status", "value", "reason")

    def __init__(self, status: str, value: Fraction | None = None,
                 reason: str | None = None) -> None:
        setfield(self, "status", status)
        setfield(self, "value", value)
        setfield(self, "reason", reason)


def enumerate_P(d: int, k: int) -> list:
    """The block monomials of degree k on d light points, the index of both
    rows and columns: number of blocks descending, then lexicographic in
    (blocks, exps)."""
    if d < 1 or k < 0:
        raise InputError("need d >= 1 and k >= 0")
    out = []
    # l blocks have degree d - l before their exponents
    for blocks in sorted(set_partitions(d, d - k), key=lambda p: (-len(p), p)):
        l = len(blocks)
        for exps in iter_weak_compositions(k - d + l, l):
            out.append(BlockMonomial._trusted(d, blocks, exps))
    return out


# The structural outcomes and the computed zero carry no cell-specific
# data; PairingEntry is frozen, so every such cell shares one of these.
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


def pairing_entry(row: BlockMonomial, col: BlockMonomial) -> PairingEntry:
    """Evaluate the pairing of the monomial `row` against the chain stratum
    of the monomial `col`."""
    if row.d != col.d or row.degree != col.degree:
        raise InputError("row and column have mismatched (d, k)")
    l, lp = len(row.blocks), len(col.blocks)
    if l < lp:
        return _TOO_FEW_BLOCKS
    if l > lp:
        return _UNEVALUATED
    if row.blocks != col.blocks:
        return _SUPPORT_MISMATCH
    value = 1
    for t, tp in zip(row.exps, col.exps):
        value *= _component_integral(t, tp)
        if not value:
            return _COMPUTED_ZERO
    return PairingEntry(COMPUTED, value=Fraction(value))


class DiagonalBlock(Frozen):
    """Evidence for one l = l' block: diagonal values and zero off-diagonal."""

    _fields = ("length", "size", "diagonal", "off_diagonal_checked")

    def __init__(self, length: int, size: int, diagonal: tuple,
                 off_diagonal_checked: int) -> None:
        setfield(self, "length", length)
        setfield(self, "size", size)
        setfield(self, "diagonal", diagonal)  # Fractions in row order
        setfield(self, "off_diagonal_checked", off_diagonal_checked)


class Certificate(Frozen):
    """Structural full-rank certificate for the pairing matrix.

    `blocks` holds one DiagonalBlock per length, descending; `zero_pairs`
    counts the proven-zero cells (row shorter than column) and
    `unevaluated_pairs` the cells never needed (row longer).
    """

    _fields = ("d", "k", "size", "blocks", "zero_pairs", "unevaluated_pairs",
               "full_rank")

    def __init__(self, d: int, k: int, size: int, blocks: tuple, zero_pairs: int,
                 unevaluated_pairs: int, full_rank: bool) -> None:
        setfield(self, "d", d)
        setfield(self, "k", k)
        setfield(self, "size", size)
        setfield(self, "blocks", blocks)
        setfield(self, "zero_pairs", zero_pairs)
        setfield(self, "unevaluated_pairs", unevaluated_pairs)
        setfield(self, "full_rank", full_rank)


class PairingMatrix:
    """Rows and columns: the block monomials `specs` of `enumerate_P`;
    column j is the chain stratum of `specs[j]`.

    Entries are computed on demand (the full matrix for d = k = 5 has
    ~600k cells); `entry(i, j)` and `entries()` expose them.  Invariants:
    every row-shorter-than-column entry is proven zero, every equal-length
    entry is computed exactly.
    """

    def __init__(self, d: int, k: int):
        self.d = d
        self.k = k
        self.specs = enumerate_P(d, k)

    @property
    def size(self) -> int:
        return len(self.specs)

    def entry(self, i: int, j: int) -> PairingEntry:
        return pairing_entry(self.specs[i], self.specs[j])

    def entries(self) -> Iterator[tuple]:
        for i in range(self.size):
            for j in range(self.size):
                yield i, j, self.entry(i, j)


def _diagonal_value(i: int, row: BlockMonomial, e: PairingEntry) -> Fraction:
    """The value of diagonal cell i, checked computed, positive and equal
    to the product of t + 1 over the row's exponents t."""
    if e.status != COMPUTED:
        raise CertificateError(f"diagonal entry {i} not computed")
    if e.value <= 0:
        raise CertificateError(f"diagonal entry {i} is {e.value}, expected positive")
    expected = prod(t + 1 for t in row.exps)
    if e.value != expected:
        raise CertificateError(f"diagonal entry {i} is {e.value}, expected {expected}")
    return e.value


def rank_certificate(d: int, k: int) -> Certificate:
    """Verify block triangularity and positive diagonal; certify full rank.

    For each length block of columns, rows lo..hi-1 (the block) must be
    diagonal and rows hi.. (shorter) proven zero; every such cell is
    evaluated once.  Raises CertificateError if any diagonal entry
    vanishes or an equal-length off-diagonal entry is nonzero.
    """
    if d > MAX_DK or k > MAX_DK:
        raise InputError(f"d and k must be <= {MAX_DK}")
    specs = PairingMatrix(d, k).specs
    n = len(specs)
    blocks, lo = [], 0
    for l, group in groupby(specs, key=lambda s: len(s.blocks)):
        columns = list(group)
        hi = lo + len(columns)
        diag = []
        for i in range(lo, n):
            row = specs[i]
            for j, col in enumerate(columns, lo):
                e = pairing_entry(row, col)
                if i >= hi:
                    if e.status != PROVEN_ZERO:
                        raise CertificateError(f"entry ({i},{j}) should be proven zero")
                elif i == j:
                    diag.append(_diagonal_value(i, row, e))
                elif e.value or e.status == UNEVALUATED:  # a zero is computed or proven
                    raise CertificateError(f"off-diagonal entry ({i},{j}) is nonzero")
        blocks.append(DiagonalBlock(l, hi - lo, tuple(diag), (hi - lo) * (hi - lo - 1)))
        lo = hi
    # cells between different lengths: proven zero below the blocks, as
    # many unevaluated above
    cross = (n * n - sum(b.size ** 2 for b in blocks)) // 2
    return Certificate(d, k, n, tuple(blocks), cross, cross, True)
