"""Pairing index enumeration, chain strata, entry evaluation, and the
block-triangular rank certificate."""

from fractions import Fraction
from math import prod

import pytest

from sqtaut import pairing
from sqtaut.genus0 import psi_integral_M0n
from sqtaut.pairing import (
    COMPUTED,
    PROVEN_ZERO,
    UNEVALUATED,
    CertificateError,
    ChainStratum,
    PairingEntry,
    PairingMatrix,
    enumerate_P,
    pairing_entry,
    rank_certificate,
)
from sqtaut import pointed
from sqtaut.pointed import BlockMonomial, block_labels
from sqtaut.rings import DomainError, InputError, set_partitions


# -- oracle: |P[d,k]| = sum_l S(d,l) * C(k-d+2l-1, l-1) -------------------

def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def comb(n, k):
    from math import comb as _comb

    return _comb(n, k) if 0 <= k <= n else 0


def count_by_formula(d, k):
    total = 0
    for l in range(max(1, d - k), d + 1):
        total += stirling2(d, l) * comb(k - d + 2 * l - 1, l - 1)
    return total


def test_set_partition_enumeration():
    assert sorted(set_partitions(3)) == sorted(
        [
            (((1, 2, 3)),),
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1,), (2, 3)),
            ((1,), (2,), (3,)),
        ]
    )
    assert sum(1 for _ in set_partitions(5)) == 52


def test_set_partitions_min_parts_keeps_order():
    for d in range(1, 7):
        full = list(set_partitions(d))
        for m in range(d + 2):
            assert list(set_partitions(d, m)) == [p for p in full if len(p) >= m]
    for d, k in ((4, 2), (5, 3)):
        parts = [s.blocks for s in enumerate_P(d, k)]
        assert parts == sorted(parts, key=lambda p: (-len(p), p))


def test_enumerate_d2_k1():
    specs = enumerate_P(2, 1)
    assert [(s.blocks, s.exps) for s in specs] == [
        (((1,), (2,)), (0, 1)),
        (((1,), (2,)), (1, 0)),
        (((1, 2),), (0,)),
    ]


def test_enumerate_edge_cases():
    assert [(s.blocks, s.exps) for s in enumerate_P(1, 0)] == [(((1,),), (0,))]
    assert [(s.blocks, s.exps) for s in enumerate_P(2, 0)] == [
        (((1,), (2,)), (0, 0))
    ]
    # d=3, k=1: l >= 2 only
    assert all(len(s.blocks) >= 2 for s in enumerate_P(3, 1))


def test_count_matches_formula():
    for d in range(1, 6):
        for k in range(0, 6):
            assert len(enumerate_P(d, k)) == count_by_formula(d, k), (d, k)


def test_enumeration_is_deterministic_and_length_descending():
    for d, k in ((3, 2), (4, 3), (5, 5)):
        specs = enumerate_P(d, k)
        assert specs == enumerate_P(d, k)
        lengths = [len(s.blocks) for s in specs]
        assert lengths == sorted(lengths, reverse=True)


def test_enumerated_rows_are_the_validated_monomials_of_degree_k():
    for d in range(1, 6):
        for k in range(0, 6):
            for row in enumerate_P(d, k):
                valid = BlockMonomial(d, row.blocks, row.exps)
                assert row == valid and row.degree == valid.degree == k, (d, k, row)


def test_chain_stratum_shape():
    spec = BlockMonomial(3, ((1, 3), (2,)), (1, 0))
    assert spec.degree == 2
    st = ChainStratum.from_spec(spec)
    assert st.monomial is spec
    # m = 4 + k - d + 2l = 7 heavy labels
    assert st.heavy_count == 7
    assert st.heavy_labels == ((1, 2), (3, 4), (5,), (6, 7))
    assert st.light_blocks == ((), (1, 3), (2,), ())
    assert st.psi_labels == (3, 5)
    assert st.dimension == len(spec.blocks) + spec.degree


def test_stratum_dimension_formula():
    for d, k in ((2, 1), (3, 3), (5, 4)):
        for spec in enumerate_P(d, k):
            st = ChainStratum.from_spec(spec)
            assert st.heavy_count == 4 + k - d + 2 * len(spec.blocks)
            assert st.dimension == len(spec.blocks) + k


def test_entry_rules():
    specs = enumerate_P(2, 1)
    # shorter row against longer column: proven zero
    e = pairing_entry(specs[2], specs[0])
    assert e.status == PROVEN_ZERO and e.reason
    # longer row against shorter column: unevaluated, never zero-claimed
    e = pairing_entry(specs[0], specs[2])
    assert e.status == UNEVALUATED and e.value is None
    # equal length, equal partition, equal tau: product of (t_i + 1)
    e = pairing_entry(specs[0], specs[0])
    assert e.status == COMPUTED and e.value == 2
    e = pairing_entry(specs[1], specs[1])
    assert e.status == COMPUTED and e.value == 2
    e = pairing_entry(specs[2], specs[2])
    assert e.status == COMPUTED and e.value == 1
    # equal length, different tau: computed zero
    e = pairing_entry(specs[0], specs[1])
    assert e.status == COMPUTED and e.value == 0


def test_entry_partition_mismatch():
    specs = enumerate_P(3, 2)
    two_part = [s for s in specs if len(s.blocks) == 2]
    assert len(two_part) >= 4
    a = two_part[0]
    b = next(s for s in two_part if s.blocks != a.blocks)
    e = pairing_entry(a, b)
    assert e.status == PROVEN_ZERO


def test_entry_diagonal_values():
    for spec in enumerate_P(4, 3):
        e = pairing_entry(spec, spec)
        expected = 1
        for t in spec.exps:
            expected *= t + 1
        assert e.status == COMPUTED and e.value == expected


def test_entry_requires_matching_indices():
    a = enumerate_P(2, 1)[0]
    b = enumerate_P(2, 2)[0]
    with pytest.raises(InputError):
        pairing_entry(a, b)
    with pytest.raises(InputError):
        pairing_entry(a, enumerate_P(3, 1)[0])


def test_matrix_small():
    m = PairingMatrix(2, 1)
    assert m.size == 3
    seen = {(i, j): e for i, j, e in m.entries()}
    assert len(seen) == 9
    assert seen[(0, 0)].value == 2
    assert seen[(2, 0)].status == PROVEN_ZERO
    assert seen[(0, 2)].status == UNEVALUATED


def test_certificates_spot_checks():
    c = rank_certificate(2, 1)
    assert c.full_rank and c.size == 3
    assert [b.length for b in c.blocks] == [2, 1]
    assert c.blocks[0].diagonal == (2, 2)
    c = rank_certificate(4, 2)
    assert c.full_rank and c.size == count_by_formula(4, 2)
    c = rank_certificate(1, 0)
    assert c.full_rank and c.size == 1


def test_certificate_bound(monkeypatch):
    """The enumeration and the factor reads are both held to MAX_LABELS,
    counted before anything is built; (7, 7) fits and (8, 8) does not."""
    for d, k in ((6, 6), (7, 7)):
        assert rank_certificate(d, k).size == count_by_formula(d, k)
    assert block_labels(7, 7, 7) == 11 * count_by_formula(7, 7) <= pointed.MAX_LABELS
    with pytest.raises(InputError, match=r"^enumerating the block monomials of degree 8 on "
                                         r"8 points writes 4,551,024 labels or more; "
                                         r"the limit is 500,000$"):
        rank_certificate(8, 8)
    with pytest.raises(InputError, match=r"^reading the component integrals of degree 100 "
                                         r"writes 1,060,904 labels or more"):
        rank_certificate(1, 100)
    with pytest.raises(InputError, match=r"^need d >= 1 and k >= 0$"):
        rank_certificate(0, 1)
    monkeypatch.setattr(pointed, "MAX_LABELS", block_labels(6, 1, 1) - 1)
    pointed.block_groups.cache_clear()  # a kept enumeration is not counted again
    with pytest.raises(InputError, match=r"^enumerating the block monomials of degree 1 on 6"):
        enumerate_P(6, 1)


def test_pairing_index_validation():
    # the index is a validated block monomial; a degree that does not fit
    # the blocks cannot be stated, since the degree is derived from them
    with pytest.raises(InputError):
        BlockMonomial(2, ((2,), (1,)), (0, 1))
    with pytest.raises(InputError):
        BlockMonomial(2, ((1,),), (1,))
    with pytest.raises(InputError):
        BlockMonomial(10 ** 12, ((1,),), (0,))  # label count checked before range()


# -- count oracle: the certificate's shape follows from |P[d,k]| by length --

# each point with the limit set to the labels of (bound, bound)
CERTIFIED = [(d, k, 5) for d in range(1, 6) for k in range(0, 6)] + [(6, 1, 6)]


def rows_of_length(d, k, l):
    return stirling2(d, l) * comb(k - d + 2 * l - 1, l - 1)


@pytest.mark.parametrize("d,k,bound", CERTIFIED)
def test_certificate_counts_match_formula(monkeypatch, d, k, bound):
    monkeypatch.setattr(pointed, "MAX_LABELS", block_labels(bound, bound, bound))
    cert = rank_certificate(d, k)
    lengths = [l for l in range(d, 0, -1) if rows_of_length(d, k, l)]
    n = {l: rows_of_length(d, k, l) for l in lengths}
    assert cert.full_rank and cert.size == sum(n.values())
    assert [b.length for b in cert.blocks] == lengths
    for block in cert.blocks:
        l = block.length
        assert block.size == n[l]
        assert block.off_diagonal_checked == n[l] * (n[l] - 1)
        # sum over the weak compositions t of k - d + l into l parts of
        # prod(t_i + 1) is C(k - d + 3l - 1, 2l - 1), once per partition
        assert sum(block.diagonal) == stirling2(d, l) * comb(k - d + 3 * l - 1, 2 * l - 1)
    cross = sum(n[a] * n[b] for i, a in enumerate(lengths) for b in lengths[i + 1:])
    assert cert.zero_pairs == cross
    assert cert.unevaluated_pairs == cross
    diagonal = [v for b in cert.blocks for v in b.diagonal]
    specs = enumerate_P(d, k)
    assert diagonal == [prod(t + 1 for t in s.exps) for s in specs]
    assert all(type(v) is Fraction for v in diagonal)


def test_certificate_expands_no_row_it_accepts(monkeypatch):
    """A correct certificate is judged from the nonzero columns per length
    and row exponents: it builds no entry and names no failing cell."""
    init = PairingEntry.__init__
    entries, rejects = [], []
    monkeypatch.setattr(PairingEntry, "__init__",
                        lambda self, *a, **kw: entries.append(a) or init(self, *a, **kw))
    monkeypatch.setattr(pairing, "_reject", lambda *a: rejects.append(a))
    for d, k in ((3, 2), (4, 3), (5, 3)):
        assert rank_certificate(d, k).full_rank
    assert entries == [] and rejects == []


def test_certificate_lays_out_once_and_calls_no_rule(monkeypatch):
    """A passing certificate reads the enumeration's groups once, calls no
    cell rule and builds no block monomial."""
    groups_of, rule = pairing.block_groups, pairing.pairing_entry
    trusted, init = BlockMonomial._trusted, BlockMonomial.__init__
    for d, k in ((1, 0), (3, 2), (4, 3), (5, 5)):
        reads, cells, monomials = [], [], []
        monkeypatch.setattr(pairing, "block_groups",
                            lambda *a: reads.append(a) or groups_of(*a))
        monkeypatch.setattr(pairing, "pairing_entry", lambda *a: cells.append(a) or rule(*a))
        monkeypatch.setattr(BlockMonomial, "_trusted",
                            classmethod(lambda cls, *a: monomials.append(a) or trusted(*a)))
        monkeypatch.setattr(BlockMonomial, "__init__",
                            lambda self, *a: monomials.append(a) or init(self, *a))
        assert rank_certificate(d, k).full_rank
        monkeypatch.undo()
        assert reads == [(d, k)] and cells == [] and monomials == []


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6) for k in range(0, 6)])
def test_certificate_reads_each_component_factor_once(monkeypatch, d, k):
    """One certificate reads each factor (t, tp), t, tp <= k, at most once."""
    calls = []
    monkeypatch.setattr(pairing, "_component_integral",
                        lambda t, tp: calls.append((t, tp)) or _FACTOR(t, tp))
    assert rank_certificate(d, k).full_rank
    assert len(calls) == len(set(calls)) <= (k + 1) ** 2
    assert all(0 <= t <= k and 0 <= tp <= k for t, tp in calls)


def test_certificate_shares_live_tables(monkeypatch):
    """At d = k = 5 the certificate proves every own-partition cell from
    the factor tables t = 0..5 that all 772 rows share: it searches no row,
    makes at most 36 factor reads and builds no block monomial."""
    finds, reads, monomials = [], [], []
    trusted, init = BlockMonomial._trusted, BlockMonomial.__init__
    monkeypatch.setattr(pairing, "_nonzero", lambda *a: finds.append(a))
    monkeypatch.setattr(pairing, "_reject", lambda *a: finds.append(a))
    monkeypatch.setattr(pairing, "_component_integral",
                        lambda t, tp: reads.append((t, tp)) or _FACTOR(t, tp))
    monkeypatch.setattr(BlockMonomial, "_trusted",
                        classmethod(lambda cls, *a: monomials.append(a) or trusted(*a)))
    monkeypatch.setattr(BlockMonomial, "__init__",
                        lambda self, *a: monomials.append(a) or init(self, *a))
    assert rank_certificate(5, 5).size == 772
    assert finds == [] and monomials == []
    assert len(reads) == len(set(reads)) <= 36


def test_shared_row_values_are_immutable():
    """The enumeration's groups, which every certificate and matrix of one
    (d, k) reads, are tuples all the way down, and a matrix's entries are
    frozen: no caller can change what a later row reads."""
    for d, k in ((4, 3), (5, 5)):
        groups = pointed.block_groups(d, k)
        assert groups is pointed.block_groups(d, k) and type(groups) is tuple
        for group in groups:
            _, parts, exps = group
            assert all(type(x) is tuple for x in (group, parts, exps, *parts, *exps))
            assert all(type(block) is tuple for part in parts for block in part)
    matrix = PairingMatrix(4, 3)
    first = [matrix.entry(0, j) for j in range(matrix.size)]
    with pytest.raises(AttributeError):
        first[0].value = Fraction(5)
    assert matrix.entry(1, 1).value == 6
    assert [matrix.entry(0, j) for j in range(matrix.size)] == first


def test_a_shared_live_table_fails_at_its_first_row(monkeypatch):
    """A factor patched for cells that several partitions share fails at
    the first such row in row order, with the message of a cell-by-cell
    scan.  With every diagonal factor negated, rows of even length stay
    correct, so (4,3) passes its 4-block and fails the first row of its
    3-block, whose six partitions share one exponent list."""
    factor = lambda t, tp: -_FACTOR(t, tp)  # noqa: E731
    want = verdict(lambda: literal_certificate(4, 3, factor))
    assert want == "diagonal entry 20 is -3, expected positive"
    monkeypatch.setattr(pairing, "_component_integral", factor)
    assert verdict(lambda: rank_certificate(4, 3)) == want


def test_a_patched_factor_reaches_the_next_certificate(monkeypatch):
    """A factor patched between two certificates, or two matrices, is the
    one the second reads: no factor is kept from one to the next."""
    first = rank_certificate(4, 3)
    matrix = PairingMatrix(3, 2)
    assert matrix.entry(0, 0).value == 3
    monkeypatch.setattr(pairing, "_component_integral", lambda t, tp: 3 * _FACTOR(t, tp))
    with pytest.raises(CertificateError) as err:
        rank_certificate(4, 3)
    assert str(err.value) == "diagonal entry 0 is 324, expected 4"
    assert PairingMatrix(3, 2).entry(0, 0).value == 81
    assert pairing_entry(matrix.specs[0], matrix.specs[0]).value == 81
    monkeypatch.undo()
    assert rank_certificate(4, 3) == first


def test_matrix_computes_each_row_once(monkeypatch):
    """A row-by-row walk over the grid expands each row once."""
    expand = PairingMatrix._row_entries
    calls = []
    monkeypatch.setattr(PairingMatrix, "_row_entries",
                        lambda self, i: calls.append(i) or expand(self, i))
    matrix = PairingMatrix(4, 2)
    cells = list(matrix.entries())
    assert len(cells) == matrix.size ** 2
    assert calls == list(range(matrix.size))
    assert matrix.entry(0, 1) == pairing_entry(matrix.specs[0], matrix.specs[1])


def test_matrix_reads_each_component_factor_once(monkeypatch):
    """A matrix keeps one factor memo: walking its grid reads each factor
    (t, tp), t, tp <= k, at most once, and a second matrix reads them
    again."""
    calls = []
    monkeypatch.setattr(pairing, "_component_integral",
                        lambda t, tp: calls.append((t, tp)) or _FACTOR(t, tp))
    for _ in range(2):
        calls.clear()
        cells = list(PairingMatrix(4, 3).entries())
        assert calls and len(calls) == len(set(calls)) <= 16
    assert sum(e.status == COMPUTED for _, _, e in cells) == 20 * 20 + 6 * 6 * 6 + 7 * 4 + 1


# -- fault injection: a wrong component factor fails the certificate -------

_FACTOR = pairing._component_integral
FAULTS = [
    # nonzero off-diagonal: tau != tau' no longer forces a zero factor
    (lambda t, tp: t + 1 if t == tp else 1, "off-diagonal entry (0,1) is nonzero"),
    (lambda t, tp: 0, "diagonal entry 0 is 0, expected positive"),
    (lambda t, tp: 2 * _FACTOR(t, tp), "diagonal entry 0 is 64, expected 4"),
]


@pytest.mark.parametrize("factor,message", FAULTS)
def test_certificate_rejects_wrong_component_factors(monkeypatch, factor, message):
    monkeypatch.setattr(pairing, "_component_integral", factor)
    with pytest.raises(CertificateError) as err:
        rank_certificate(4, 3)
    assert str(err.value) == message


def overriding(cells):
    """The component factor with the value cells[(t, tp)] at each (t, tp)
    of `cells`."""
    return lambda t, tp: cells.get((t, tp), _FACTOR(t, tp))


FIRST_FAILURES = [
    (4, 3, {(1, 2): -1, (2, 1): -1}, "off-diagonal entry (1,2) is nonzero"),
    # row 1 is nonzero at column 0, before its wrong diagonal
    (4, 3, {(1, 0): -1, (2, 3): -1, (2, 2): 7}, "off-diagonal entry (1,0) is nonzero"),
    # row 0's wrong diagonal comes before its nonzero column 1
    (4, 3, {(0, 1): -1, (3, 2): -1, (3, 3): 5}, "diagonal entry 0 is 5, expected 4"),
    # rows 1, 2, 4, ... fail, row 1 first
    (4, 3, {(1, 1): 0, (2, 2): 7}, "diagonal entry 1 is 0, expected positive"),
    (4, 3, {(2, 2): 5}, "diagonal entry 1 is 10, expected 6"),
    # rows 0-19 have four blocks and pass with every diagonal factor
    # negated; row 20, the first of three blocks, fails
    (4, 3, {(t, t): -t - 1 for t in range(4)}, "diagonal entry 20 is -3, expected positive"),
    # rows 0 and 1 have two blocks and pass; row 2, of one block, fails
    (2, 1, {(0, 0): -1, (1, 1): -2}, "diagonal entry 2 is -1, expected positive"),
]


@pytest.mark.parametrize("d,k,cells,message", FIRST_FAILURES,
                         ids=[message for *_, message in FIRST_FAILURES])
def test_certificate_names_the_first_failing_cell(monkeypatch, d, k, cells, message):
    """With several failing cells, the certificate names the first in row
    order, then column order, as a cell-by-cell scan does."""
    factor = overriding(cells)
    assert verdict(lambda: literal_certificate(d, k, factor)) == message
    monkeypatch.setattr(pairing, "_component_integral", factor)
    assert verdict(lambda: rank_certificate(d, k)) == message


def per_row_verdict(d, k, factor):
    """The verdict of a search of every row against its own partition's
    columns: the message of the first failing cell, in row order, then
    column order, or None when every row holds."""
    specs = enumerate_P(d, k)
    for i, row in enumerate(specs):
        want = prod(t + 1 for t in row.exps)
        for j, col in enumerate(specs):
            if col.blocks != row.blocks:
                continue
            value = prod(factor(t, tp) for t, tp in zip(row.exps, col.exps))
            if j == i and (value <= 0 or value != want):
                expected = "positive" if value <= 0 else want
                return f"diagonal entry {i} is {value}, expected {expected}"
            if j != i and value:
                return f"off-diagonal entry ({i},{j}) is nonzero"
    return None


FACTOR_FAULTS = {
    # row exponent 2 against column exponent 0 needs a larger column
    # exponent elsewhere, whose factor is zero: no cell fails
    "off-diagonal-unreached": {(2, 0): 5},
    "swapped-pair": {(0, 1): 1, (1, 0): 1},
    "wrong-diagonal": {(2, 2): 5},
    "zero-diagonal": {(1, 1): 0},
}


@pytest.mark.parametrize("fault", list(FACTOR_FAULTS))
def test_certificate_matches_a_per_row_search_under_faults(monkeypatch, fault):
    """Under a wrong component factor the proof from the factor tables
    fails, and the certificate gives the verdict and message of a search
    of every row: it rejects at the same first failing cell, or accepts
    with the same certificate as without the fault."""
    factor = overriding(FACTOR_FAULTS[fault])
    points = [(d, k) for d in range(1, 5) for k in range(5)]
    clean = {point: rank_certificate(*point) for point in points}
    monkeypatch.setattr(pairing, "_component_integral", factor)
    verdicts = []
    for d, k in points:
        want = per_row_verdict(d, k, factor)
        got = verdict(lambda: rank_certificate(d, k))
        assert got == (want or certificate_fields(clean[d, k])), (d, k)
        verdicts.append(want)
    if fault == "off-diagonal-unreached":
        assert verdicts == [None] * len(points)
    else:
        assert any(verdicts) and None in verdicts


def test_component_factor_must_be_an_integer(monkeypatch):
    pairing._component_integral.cache_clear()
    monkeypatch.setattr(pairing, "psi_integral_M0n", lambda a: Fraction(1, 2))
    spec = BlockMonomial(1, ((1,),), (0,))
    try:
        with pytest.raises(DomainError, match="not an integer"):
            pairing_entry(spec, spec)
    finally:
        pairing._component_integral.cache_clear()


# -- literal-seed oracle: pairing_entry written out cell by cell -------------

def literal_degree(mono):
    """Codimension of a block monomial, counted block by block."""
    return sum(mono.exps) + sum(len(b) - 1 for b in mono.blocks)


def literal_factor(t, tp):
    """The component integral taken straight from psi_integral_M0n."""
    return psi_integral_M0n([1, t] + [0] * (tp + 2))


def literal_pairing_entry(row, col, factor=literal_factor):
    """The entry rule written out directly: a new PairingEntry per cell and
    the product of the component integrals `factor(tau_i, tau'_i)`."""
    if (row.d, literal_degree(row)) != (col.d, literal_degree(col)):
        raise InputError("row and column have mismatched (d, k)")
    l, lp = len(row.blocks), len(col.blocks)
    if l < lp:
        return PairingEntry(
            "proven-zero", reason="fewer diagonal blocks than interior components"
        )
    if l > lp:
        return PairingEntry("unevaluated")
    if row.blocks != col.blocks:
        return PairingEntry(
            "proven-zero", reason="diagonal supports miss the stratum's light blocks"
        )
    value = Fraction(1)
    for i in range(l):
        value *= factor(row.exps[i], col.exps[i])
        if value == 0:
            break
    return PairingEntry("computed", value=value)


LITERAL_GRIDS = [
    (d, k) for d in range(1, 6) for k in range(0, 6) if len(enumerate_P(d, k)) <= 60
] + [(5, 3)]


@pytest.mark.parametrize("d,k", LITERAL_GRIDS)
def test_entries_match_literal_rule(d, k):
    matrix = PairingMatrix(d, k)
    for row in matrix.specs:
        for col in matrix.specs:
            got = pairing_entry(row, col)
            want = literal_pairing_entry(row, col)
            assert (got.status, got.value, got.reason) == (
                want.status,
                want.value,
                want.reason,
            ), (row, col)
            assert type(got.value) is type(want.value)


def assert_rows_match_literal_rule(d, k, factor=literal_factor):
    """Every cell of `PairingMatrix(d, k)`, its rows expanded in order,
    against the literal entry of its row and column."""
    matrix = PairingMatrix(d, k)
    for i, j, got in matrix.entries():
        want = literal_pairing_entry(matrix.specs[i], matrix.specs[j], factor)
        assert (got.status, got.value, got.reason) == (want.status, want.value, want.reason), (i, j)
        assert type(got.value) is type(want.value)


@pytest.mark.parametrize("d,k", LITERAL_GRIDS)
def test_row_rule_matches_literal_rule(d, k):
    """The matrix's rows, expanded from the enumeration's groups."""
    assert_rows_match_literal_rule(d, k)


def literal_entry(outcome):
    """The entry of a cell outcome: a proven-zero reason, None when
    unevaluated, else a computed value."""
    if outcome is None:
        return PairingEntry(UNEVALUATED)
    if isinstance(outcome, str):
        return PairingEntry(PROVEN_ZERO, reason=outcome)
    return PairingEntry(COMPUTED, value=Fraction(outcome))


def literal_certificate(d, k, factor=literal_factor, faults=None):
    """The certificate rebuilt cell by cell from `literal_pairing_entry`,
    each cell (i, j) of `faults` given that outcome instead: in row order,
    then column order, each cell of a longer column must be a proven zero,
    and of a column of the row's length prod(t + 1) on the diagonal and a
    computed or proven zero elsewhere; the first cell that fails raises the
    certificate's message.  Returns the fields the certificate reports,
    the cross-length counts read off the cells."""
    specs = enumerate_P(d, k)
    n = len(specs)
    cells = [[literal_pairing_entry(row, col, factor) for col in specs] for row in specs]
    for (i, j), outcome in (faults or {}).items():
        cells[i][j] = literal_entry(outcome)
    lengths = [len(s.blocks) for s in specs]
    for i in range(n):
        for j in range(n):
            e = cells[i][j]
            if lengths[i] < lengths[j]:
                if e.status != PROVEN_ZERO:
                    raise CertificateError(f"entry ({i},{j}) should be proven zero")
            elif lengths[i] > lengths[j]:
                continue
            elif i == j:
                want = prod(t + 1 for t in specs[i].exps)
                if e.status != COMPUTED:
                    raise CertificateError(f"diagonal entry {i} not computed")
                if e.value <= 0 or e.value != want:
                    got = "positive" if e.value <= 0 else want
                    raise CertificateError(f"diagonal entry {i} is {e.value}, expected {got}")
            elif e.status == UNEVALUATED or e.value:
                raise CertificateError(f"off-diagonal entry ({i},{j}) is nonzero")
    blocks = [(l, lengths.count(l), tuple(cells[i][i].value for i in range(n) if lengths[i] == l))
              for l in sorted(set(lengths), reverse=True)]
    cross = [(lengths[i] < lengths[j], e.status) for i, row in enumerate(cells)
             for j, e in enumerate(row) if lengths[i] != lengths[j]]
    return {
        "size": n,
        "blocks": blocks,
        "zero_pairs": cross.count((True, PROVEN_ZERO)),
        "unevaluated_pairs": cross.count((False, UNEVALUATED)),
        "cross_pairs": len(cross),
    }


def certificate_fields(cert):
    return {
        "size": cert.size,
        "blocks": [(b.length, b.size, b.diagonal) for b in cert.blocks],
        "zero_pairs": cert.zero_pairs,
        "unevaluated_pairs": cert.unevaluated_pairs,
        "cross_pairs": cert.zero_pairs + cert.unevaluated_pairs,
    }


CERTIFIED_LITERALLY = [(d, k) for d in range(1, 6) for k in range(0, 6)
                       if len(enumerate_P(d, k)) <= 225]


@pytest.mark.parametrize("d,k", CERTIFIED_LITERALLY)
def test_certificate_matches_literal_certificate(d, k):
    """The certificate equals the one rebuilt cell by cell: block lengths,
    sizes and diagonals, and the proven-zero and unevaluated counts."""
    cert = rank_certificate(d, k)
    assert cert.full_rank and (cert.d, cert.k) == (d, k)
    assert certificate_fields(cert) == literal_certificate(d, k)


def verdict(build):
    """A certificate's fields, or the message of the CertificateError it raises."""
    try:
        out = build()
    except CertificateError as err:
        return str(err)
    return out if type(out) is dict else certificate_fields(out)


PARTIAL_SUPPORTS = [
    # nonzero at t = tp and at tp = 0: a component with t > 0 widens its
    # support to two exponents, the intersection still only holds the
    # diagonal, and a zero exponent doubles the diagonal
    (lambda t, tp: _FACTOR(t, tp) + (tp == 0), True),
    # the same supports with the diagonal kept: nothing fails
    (lambda t, tp: _FACTOR(t, tp) if t == tp else int(tp == 0), False),
    # nonzero within one of t > 0: the intersection holds off-diagonal
    # columns in the rows with two positive exponents
    (lambda t, tp: tp + 1 if t == tp or (t and abs(t - tp) == 1) else 0, True),
    # nonzero everywhere: every column of the row's partition is live, so a
    # live-table fill walks every composition of the supports
    (lambda t, tp: tp + 1, True),
]
PARTIAL_SUPPORT_IDS = ["zero-exponent", "zero-exponent-diagonal-kept", "neighbours", "everywhere"]


@pytest.mark.parametrize("factor", [f for f, _ in PARTIAL_SUPPORTS],
                         ids=PARTIAL_SUPPORT_IDS)
def test_row_rule_matches_literal_rule_on_partial_supports(monkeypatch, factor):
    """Nonzero columns off the diagonal get the product of their own factors."""
    monkeypatch.setattr(pairing, "_component_integral", factor)
    for d, k in ((3, 3), (4, 3)):
        assert_rows_match_literal_rule(d, k, factor)


@pytest.mark.parametrize("factor,rejects", PARTIAL_SUPPORTS,
                         ids=PARTIAL_SUPPORT_IDS)
@pytest.mark.parametrize("d,k", [(3, 3), (4, 3), (4, 5), (5, 3)])
def test_partial_supports_fail_at_the_first_failing_cell(monkeypatch, d, k, factor, rejects):
    """With a component factor nonzero on part of 0..s, the certificate
    rejects at the cell a cell-by-cell scan names first, or accepts as the
    scan does."""
    want = verdict(lambda: literal_certificate(d, k, factor))
    monkeypatch.setattr(pairing, "_component_integral", factor)
    got = verdict(lambda: rank_certificate(d, k))
    assert got == want
    assert isinstance(got, str) == rejects


def test_row_rule_matches_literal_rule_on_shuffled_runs():
    """A matrix read cell by cell in any order matches the literal rule:
    the row it keeps is always the row asked for."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def reads(draw):
        d, k = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        n = len(enumerate_P(d, k))
        cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=40))
        return d, k, cells

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(reads())
    def check(drawn):
        d, k, cells = drawn
        matrix = PairingMatrix(d, k)
        for i, j in cells:
            got = matrix.entry(i, j)
            want = literal_pairing_entry(matrix.specs[i], matrix.specs[j])
            assert (got.status, got.value, got.reason) == (want.status, want.value, want.reason)

    check()


def test_row_rule_rejects_a_run_of_mixed_keys():
    """The rule scores a row only against columns of its own (d, k)."""
    run = enumerate_P(3, 2)[:2] + enumerate_P(3, 1)[:1]
    for row in run:
        for col in run:
            if (row.d, row.degree) == (col.d, col.degree):
                assert pairing_entry(row, col).status == COMPUTED
            else:
                with pytest.raises(InputError, match=r"^row and column have mismatched \(d, k\)$"):
                    pairing_entry(row, col)


def test_enumerations_are_fresh_lists_with_equal_contents():
    a, b = enumerate_P(4, 3), enumerate_P(4, 3)
    assert type(a) is list and a is not b and a == b
    a.clear()
    assert enumerate_P(4, 3) == b


def test_matrix_lays_out_columns_on_first_entry(monkeypatch):
    """A matrix reads its size and rows from the enumeration's groups, once,
    and builds no block monomial until `specs` is read."""
    groups_of, trusted = pairing.block_groups, BlockMonomial._trusted
    reads, monomials = [], []
    monkeypatch.setattr(pairing, "block_groups", lambda *a: reads.append(a) or groups_of(*a))
    monkeypatch.setattr(BlockMonomial, "_trusted",
                        classmethod(lambda cls, *a: monomials.append(a) or trusted(*a)))
    matrix = PairingMatrix(3, 2)
    assert matrix.size == 13 and reads == [(3, 2)]
    cells = list(matrix.entries())
    assert reads == [(3, 2)] and monomials == []
    specs = matrix.specs
    assert len(monomials) == len(specs) == 13 and reads == [(3, 2)] * 2
    assert matrix.specs is specs and len(monomials) == 13
    assert [e for _, _, e in cells] == [pairing_entry(r, c) for r in specs for c in specs]


def test_matrix_reads_negative_indices_from_the_end():
    matrix = PairingMatrix(4, 3)
    specs = matrix.specs
    assert matrix.entry(-1, -1) == pairing_entry(specs[-1], specs[-1])
    assert [matrix.entry(-36, j) for j in range(matrix.size)] == [
        pairing_entry(specs[-36], col) for col in specs]
    with pytest.raises(IndexError):
        matrix.entry(matrix.size, 0)


def test_computed_values_share_one_entry():
    matrix = PairingMatrix(3, 2)
    cells = [e for _, _, e in matrix.entries() if e.status == COMPUTED]
    by_value = {}
    for e in cells:
        assert by_value.setdefault(e.value, e) is e
    assert by_value[0] is pairing._COMPUTED_ZERO and len(by_value) > 2
