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

Every cell comes from one rule, `_row_runs`, which scores a row against
a run of columns laid out by `_columns` and returns the row compressed.
A cell's outcome is a proven-zero reason, None if unevaluated, or the
int product of the component factors of (tau_i, tau'_i).  The outcome
depends only on the lengths, except where the column shares the row's
set partition, so the rule gives one outcome per stretch of
equal-length columns, read from the layout's tuple for the row's length,
and, apart, the positions of the row's partition.  Of those columns
only the live ones, where every component factor is nonzero, get a
product; every other column of the partition is a computed 0.  The
layout groups the columns by set partition and keeps one live table per
distinct exponent list (the exponent tuples of a partition's columns, in
column order): for row exponents tau, the (rank, product) pairs of the
live columns, found by looking up in the list each tuple of exponents
where the factors of tau are nonzero.  The partitions that carry one
list share its table, and the rule maps each rank to the row's own
column through its partition's positions; in `enumerate_P` order every
partition of one length carries the same list, so d = k = 5 has 5 live
tables and 175 fills for 52 partitions and 772 rows.  Every value that
rows share is a tuple.  A layout, and so its tables, serves one
certificate, one `PairingMatrix` or one `pairing_entry`; no factor read
for one is reused by another.  The certificate scores each row once and
expands only a failing row, cell by cell, to name the first failing
cell in row order, then column order; `PairingMatrix.entry` and
`pairing_entry` expand the rows they read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, groupby, product, repeat
from math import prod
from operator import attrgetter, getitem
from typing import Iterator

from .genus0 import psi_integral_M0n
from .pointed import BlockMonomial
from .rings import (CertificateError, DomainError, Frozen, InputError,
                    iter_weak_compositions, set_partitions, setfield)

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
        setfield(self, "status", status)
        setfield(self, "value", value)
        setfield(self, "reason", reason)


def enumerate_P(d: int, k: int) -> list:
    """The block monomials of degree k on d light points, the index of both
    rows and columns: number of blocks descending, then lexicographic in
    (blocks, exps).  Each call returns a fresh list; for d, k <= MAX_DK,
    the range of `rank_certificate`, it copies one enumeration kept per
    (d, k) for the life of the process."""
    if d < 1 or k < 0:
        raise InputError("need d >= 1 and k >= 0")
    if d <= MAX_DK and k <= MAX_DK:
        return list(_enumeration(d, k))
    return list(_enumeration.__wrapped__(d, k))


@lru_cache(maxsize=MAX_DK * (MAX_DK + 1))  # every key enumerate_P passes
def _enumeration(d: int, k: int) -> tuple:
    specs = []
    parts = sorted(set_partitions(d, d - k), key=lambda p: (-len(p), p))
    for l, group in groupby(parts, len):
        # l blocks have degree d - l before their exponents, which the
        # partitions of length l share
        exps = tuple(iter_weak_compositions(k - d + l, l))
        specs += [BlockMonomial._trusted(d, blocks, t) for blocks in group for t in exps]
    return tuple(specs)


# each outcome with no cell-specific data has one shared (frozen) entry
_TOO_FEW_BLOCKS = PairingEntry(PROVEN_ZERO, reason=REASON_TOO_FEW_BLOCKS)
_SUPPORT_MISMATCH = PairingEntry(PROVEN_ZERO, reason=REASON_SUPPORT_MISMATCH)
_UNEVALUATED = PairingEntry(UNEVALUATED)
_COMPUTED_ZERO = PairingEntry(COMPUTED, value=Fraction(0))
_REASONS = (REASON_TOO_FEW_BLOCKS, REASON_SUPPORT_MISMATCH)


class _Entries(dict):
    """`_ENTRIES[outcome]` is the entry of a cell outcome: the shared ones
    above, and one per computed int value while fewer than 256 are kept."""

    def __missing__(self, value: int) -> PairingEntry:
        entry = PairingEntry(COMPUTED, value=Fraction(value))
        if len(self) < 256:
            self[value] = entry
        return entry


_ENTRIES = _Entries({REASON_TOO_FEW_BLOCKS: _TOO_FEW_BLOCKS, REASON_SUPPORT_MISMATCH: _SUPPORT_MISMATCH,
                     None: _UNEVALUATED, 0: _COMPUTED_ZERO})


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
    `_component_integral(t, tp)` for tp in `span`, read through the
    module's `_component_integral` on first use, and the tp where it is
    nonzero."""

    __slots__ = ("span",)

    def __init__(self, span: range) -> None:
        self.span = span

    def __missing__(self, t: int) -> tuple:
        table = tuple(map(_component_integral, repeat(t), self.span))
        entry = self[t] = table, tuple(compress(self.span, table))
        return entry


class _Live(dict):
    """The columns of the partitions that carry one exponent list:
    `index` maps each column's exponent tuple to its rank in the list, and
    `live[row_exps]` is the tuple of (rank, product) of the columns where
    every component factor of `factors` is nonzero, in rank order, filled
    on first use and shared by the rows that need it."""

    __slots__ = ("index", "factors")

    def __init__(self, exps: tuple, factors: _Factors) -> None:
        self.index = {col: b for b, col in enumerate(exps)}
        self.factors = factors

    def __missing__(self, row_exps: tuple) -> tuple:
        # a live column's exponents lie in every component's support
        tables, supports = zip(*map(self.factors.__getitem__, row_exps))
        index = self.index
        live = self[row_exps] = tuple(sorted([(index[col], prod(map(getitem, tables, col)))
                                              for col in product(*supports) if col in index]))
        return live


_KEY, _BLOCKS = attrgetter("d", "degree"), attrgetter("blocks")


def _columns(cols) -> tuple:
    """A run of distinct columns laid out for `_row_runs`: the monomials
    `cols` in order; their one (d, degree) key, None unless there is
    exactly one; the (length, size) of each stretch of consecutive
    equal-length columns; if the key is one, per set partition its column
    positions (contiguous or not) and the `_Live` of its exponent list, one
    per distinct list, sharing the run's factor table over the exponents
    0..degree, and per row length 0..d the outcome of each stretch."""
    keys = set(map(_KEY, cols))
    key = keys.pop() if len(keys) == 1 else None
    blocks = list(map(_BLOCKS, cols))
    runs = tuple((l, len(list(g))) for l, g in groupby(map(len, blocks)))
    parts, stretches = {}, ()
    if key is not None:
        stretches = tuple(tuple([(REASON_TOO_FEW_BLOCKS if l < lp else None if l > lp
                                  else REASON_SUPPORT_MISMATCH, size) for lp, size in runs])
                          for l in range(key[0] + 1))
        for j, part in enumerate(blocks):
            parts.setdefault(part, []).append(j)
        factors, shared = _Factors(range(key[1] + 1)), {}
        for part, js in parts.items():
            listed = tuple([cols[j].exps for j in js])
            live = shared.get(listed)
            if live is None:
                live = shared[listed] = _Live(listed, factors)
            parts[part] = tuple(js), live
    return cols, key, runs, parts, stretches


def _row_runs(row: BlockMonomial, columns: tuple) -> tuple:
    """The cell rule: the outcomes of pairing the monomial `row` against
    the chain stratum of each column of the run `columns`, as (outcomes,
    own, live), all tuples: one (outcome, size) per stretch of equal-length
    columns, in order; the positions of the row's set partition, computed
    0 except the (position, product) pairs of `live`, in order, where
    every component factor is nonzero."""
    cols, key, runs, parts, stretches = columns
    if (row.d, row.degree) != key:
        raise InputError("row and column have mismatched (d, k)")
    outcomes = stretches[len(row.blocks)]
    part = parts.get(row.blocks)
    if part is None:
        return outcomes, (), ()
    js, live = part
    return outcomes, js, tuple([(js[b], value) for b, value in live[row.exps]])


def _expand(out: tuple, cell=lambda outcome: outcome) -> list:
    """The row `out` of `_row_runs` in full, one item per column: `cell`
    of its outcome, the outcome itself by default."""
    outcomes, own, live = out
    cells = []
    for outcome, size in outcomes:
        cells += [cell(outcome)] * size
    if len(own) > len(live):  # some columns of the row's partition are 0
        zero = cell(0)
        for j in own:
            cells[j] = zero
    for j, value in live:
        cells[j] = cell(value)
    return cells


def pairing_entry(row: BlockMonomial, col: BlockMonomial) -> PairingEntry:
    """Evaluate the pairing of the monomial `row` against the chain stratum
    of the monomial `col`."""
    return _expand(_row_runs(row, _columns((col,))), _ENTRIES.__getitem__)[0]


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

    _fields = ("d", "k", "size", "blocks", "zero_pairs", "unevaluated_pairs", "full_rank")

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
    column j is the chain stratum of `specs[j]`.  Entries are computed on
    demand, a row at a time: the first `entry` call lays out the columns,
    with the live tables the rows share, and `entry(i, j)` keeps
    the entries of the last row it computed, so `entries()` costs one rule
    call per row.  Rows shorter than the column are proven zero, rows of
    its length computed exactly.
    """

    def __init__(self, d: int, k: int):
        self.d, self.k = d, k
        self.specs = enumerate_P(d, k)
        self._run = None  # all columns as one run, laid out on the first entry
        self._i, self._row = None, None  # the last row computed and its entries

    @property
    def size(self) -> int:
        return len(self.specs)

    def entry(self, i: int, j: int) -> PairingEntry:
        if i != self._i:
            if self._run is None:
                self._run = _columns(self.specs)
            self._row = _expand(_row_runs(self.specs[i], self._run), _ENTRIES.__getitem__)
            self._i = i
        return self._row[j]

    def entries(self) -> Iterator[tuple]:
        n = self.size
        return ((i, j, self.entry(i, j)) for i in range(n) for j in range(n))


def _reject(i: int, lo: int, expected: int, cells: list) -> None:
    """Raise the CertificateError of row i's first failing cell, by column;
    the columns before `lo` lie in longer blocks than the row's."""
    for j, cell in enumerate(cells):
        if j < lo:
            if cell not in _REASONS:
                raise CertificateError(f"entry ({i},{j}) should be proven zero")
        elif i == j:
            if cell is None or cell in _REASONS:
                raise CertificateError(f"diagonal entry {i} not computed")
            if cell <= 0 or cell != expected:
                want = "positive" if cell <= 0 else expected
                raise CertificateError(f"diagonal entry {i} is {cell}, expected {want}")
        elif cell not in (0, *_REASONS):  # a zero is computed or proven
            raise CertificateError(f"off-diagonal entry ({i},{j}) is nonzero")


def rank_certificate(d: int, k: int) -> Certificate:
    """Verify block triangularity and positive diagonal; certify full rank.

    The columns are laid out once.  Each row, in order, is scored once
    against the columns of the longer length blocks, which must prove it
    zero, and of its own block, which must be diagonal with the product of
    t + 1 over its exponents t on the diagonal; so every cell with row
    length <= column length is evaluated once.  A row passes when its
    stretches are those of a correct row, its own-partition columns lie in
    its block and its diagonal is its one live cell; `_reject` raises
    CertificateError for the first failing cell of any other row.  The
    rows whose partitions carry one exponent list read one live table,
    so the row that fills an entry is the first in row order to need it.
    For d = k = 5: 772 rule calls, 5 live tables, 175 fills and 36
    factor reads, in 3.2-5.5 ms for a process's first call, enumeration
    included, and 1.9-3.4 ms for its second (medians of three sets of
    20-30 processes pinned to one core of a shared 2-vCPU Intel Xeon,
    Python 3.11.7).
    """
    if d > MAX_DK or k > MAX_DK:
        raise InputError(f"d and k must be <= {MAX_DK}")
    specs = enumerate_P(d, k)
    n = len(specs)
    cols, key, runs, parts, stretches = _columns(specs)
    blocks, lo, within, zeros = [], 0, 0, ()
    for b, (l, size) in enumerate(runs):
        hi = lo + size
        # the columns through this block, and a correct row's stretches there
        prefix = cols[:hi], key, runs[:b + 1], parts, tuple(o[:b + 1] for o in stretches)
        correct = zeros + ((REASON_SUPPORT_MISMATCH, size),)
        # `inside`: the own positions last found in the block; a partition's
        # rows share them
        diag, inside = [], ()
        for i, row in enumerate(specs[lo:hi], lo):
            out = _row_runs(row, prefix)
            outcomes, own, live = out
            expected = prod(map((1).__add__, row.exps))  # prod (t + 1)
            if (outcomes != correct or live != ((i, expected),)
                    or own is not inside and min(own, default=lo) < lo):
                _reject(i, lo, expected, _expand(out))
            inside = own
            diag.append(_ENTRIES[expected].value)
        blocks.append(DiagonalBlock(l, size, tuple(diag), size * (size - 1)))
        lo, within = hi, within + size * size
        zeros += (REASON_TOO_FEW_BLOCKS, size),
    # cells between lengths: proven zero below the blocks, unevaluated above
    cross = (n * n - within) // 2
    return Certificate(d, k, n, tuple(blocks), cross, cross, True)
