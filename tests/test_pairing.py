"""Pairing index enumeration, chain strata, entry evaluation, and the
block-triangular rank certificate."""

from fractions import Fraction
from itertools import groupby
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
    set_partitions,
)
from sqtaut.pointed import BlockMonomial
from sqtaut.rings import DomainError, InputError


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
    with pytest.raises(InputError, match=r"^d and k must be <= 5$"):
        rank_certificate(6, 1)
    with pytest.raises(InputError, match=r"^d and k must be <= 5$"):
        rank_certificate(2, 7)
    monkeypatch.setattr(pairing, "MAX_DK", 6)
    assert rank_certificate(6, 1).full_rank


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

CERTIFIED = [(d, k, 5) for d in range(1, 6) for k in range(0, 6)] + [(6, 1, 6)]


def rows_of_length(d, k, l):
    return stirling2(d, l) * comb(k - d + 2 * l - 1, l - 1)


@pytest.mark.parametrize("d,k,bound", CERTIFIED)
def test_certificate_counts_match_formula(monkeypatch, d, k, bound):
    monkeypatch.setattr(pairing, "MAX_DK", bound)
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


def column_indices(specs, columns):
    """The indices in `specs` of the columns of a run, whose monomials it
    keeps first, in order: a block monomial is determined by its blocks
    and exps."""
    index = {(s.blocks, s.exps): j for j, s in enumerate(specs)}
    return [index[c.blocks, c.exps] for c in columns[0]]


def covered_positions(out, size):
    """The run positions a compressed row of `_row_runs` covers, each as
    often as it covers it: every column once through the stretches, the
    own-partition columns distinct, and the live ones among them."""
    outcomes, own, live = out
    assert sum(n for _, n in outcomes) == size
    assert len(set(own)) == len(own) and all(0 <= j < size for j in own)
    assert [j for j, _ in live] == sorted({j for j, _ in live} & set(own))
    return list(range(size))


def test_certificate_evaluates_every_checked_cell(monkeypatch):
    """Every cell with row length <= column length goes through the row
    rule exactly once; no cell is counted without evaluation."""
    rule = pairing._row_runs
    for d, k in ((3, 2), (4, 3), (5, 2), (4, 5), (5, 4)):
        specs = enumerate_P(d, k)
        rows = {id(x): i for i, x in enumerate(specs)}
        seen = []

        def counting(row, columns):
            out = rule(row, columns)
            js = column_indices(specs, columns)
            seen.extend((rows[id(row)], js[c]) for c in covered_positions(out, len(js)))
            return out

        monkeypatch.setattr(pairing, "enumerate_P", lambda d, k: specs)
        monkeypatch.setattr(pairing, "_row_runs", counting)
        cert = rank_certificate(d, k)
        monkeypatch.undo()
        lengths = [len(s.blocks) for s in specs]
        expected = {
            (i, j)
            for i in range(len(specs))
            for j in range(len(specs))
            if lengths[i] <= lengths[j]
        }
        assert len(seen) == len(set(seen)) == len(expected)
        assert set(seen) == expected
        assert cert.zero_pairs + sum(b.size ** 2 for b in cert.blocks) == len(seen)


def test_certificate_expands_no_row_it_accepts(monkeypatch):
    """A correct row is judged from its stretches and live values; only a
    failing row is expanded cell by cell."""
    expand = pairing._expand
    calls = []
    monkeypatch.setattr(pairing, "_expand", lambda *a: calls.append(a) or expand(*a))
    for d, k in ((3, 2), (4, 3), (5, 3)):
        assert rank_certificate(d, k).full_rank
    assert calls == []


def test_certificate_calls_the_rule_once_per_row(monkeypatch):
    """The certificate lays out its columns once and scores each row once,
    in order."""
    rule, layout = pairing._row_runs, pairing._columns
    for d, k in ((1, 0), (3, 2), (4, 3), (5, 5)):
        rows, layouts = [], []
        monkeypatch.setattr(pairing, "_row_runs", lambda row, cols: rows.append(row) or rule(row, cols))
        monkeypatch.setattr(pairing, "_columns", lambda cols: layouts.append(cols) or layout(cols))
        assert rank_certificate(d, k).full_rank
        monkeypatch.undo()
        specs = enumerate_P(d, k)
        assert rows == specs and layouts == [specs]


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
    """At d = k = 5 the partitions of one length carry one exponent list:
    772 rows, one layout, 5 live tables for 52 partitions, one live-table
    fill per distinct (exponent list, row exponents) and at most 36
    factor reads."""
    rule, layout, fill = pairing._row_runs, pairing._columns, pairing._Live.__missing__
    rows, layouts, fills, reads = [], [], [], []
    monkeypatch.setattr(pairing, "_row_runs", lambda row, cols: rows.append(row) or rule(row, cols))
    monkeypatch.setattr(pairing, "_columns", lambda cols: layouts.append(layout(cols)) or layouts[-1])
    monkeypatch.setattr(pairing._Live, "__missing__",
                        lambda live, exps: fills.append((id(live), exps)) or fill(live, exps))
    monkeypatch.setattr(pairing, "_component_integral",
                        lambda t, tp: reads.append((t, tp)) or _FACTOR(t, tp))
    assert rank_certificate(5, 5).full_rank
    assert len(rows) == 772 and len(layouts) == 1
    parts = layouts[0][3]
    assert len(parts) == 52 and len({id(live) for _, live in parts.values()}) == 5
    assert len(fills) == len(set(fills)) == 175
    assert len(reads) <= 36


def test_shared_row_values_are_immutable():
    """The stretch outcomes, own positions and live values that rows share
    are tuples, and so is every row's output: no caller can change what a
    later row reads."""
    specs = enumerate_P(4, 3)
    columns = pairing._columns(specs)
    outs = [pairing._row_runs(row, columns) for row in specs]
    for row, out in zip(specs, outs):
        outcomes, own, live = out
        assert type(out) is tuple
        assert all(type(x) is tuple for x in (outcomes, own, live, *outcomes, *live))
        assert outcomes is columns[4][len(row.blocks)] and own is columns[3][row.blocks][0]
        with pytest.raises(TypeError):
            outcomes[0] = (None, 1)
        with pytest.raises(TypeError):
            own[0] = 0
    first = outs[0]
    assert pairing._row_runs(specs[0], columns) == first
    assert type(columns[4]) is tuple
    for _, live in columns[3].values():
        assert all(type(col) is tuple for col in live.index)
        assert all(type(pairs) is tuple and all(type(p) is tuple for p in pairs)
                   for pairs in live.values())
    entries = [entry for _, live in columns[3].values() for entry in live.factors.values()]
    assert entries and all(type(entry) is tuple and len(entry) == 2
                           and all(type(x) is tuple for x in entry) for entry in entries)


def test_a_shared_live_table_fails_at_its_first_row(monkeypatch):
    """A factor patched for cells that several partitions share fails at
    the first such row in row order, with the message of a cell-by-cell
    scan.  With every diagonal factor negated, rows of even length stay
    correct, so (4,3) passes its 4-block and fails the first row of its
    3-block, whose six partitions share one live table."""
    factor = lambda t, tp: -_FACTOR(t, tp)  # noqa: E731
    want = verdict(lambda: literal_certificate(4, 3, factor))
    assert want == "diagonal entry 20 is -3, expected positive"
    layouts = []
    layout = pairing._columns
    monkeypatch.setattr(pairing, "_columns", lambda cols: layouts.append(layout(cols)) or layouts[-1])
    monkeypatch.setattr(pairing, "_component_integral", factor)
    assert verdict(lambda: rank_certificate(4, 3)) == want
    specs = enumerate_P(4, 3)
    _, live = layouts[0][3][specs[20].blocks]
    sharing = [b for b, (_, other) in layouts[0][3].items() if other is live]
    assert len(sharing) == 6 and specs[20].blocks == sharing[0]


def test_live_tables_are_not_shared_across_exponent_orders(monkeypatch):
    """Two partitions whose columns carry the same exponents in different
    orders get their own live tables, each indexing the exponents in its
    own order; a third in the first one's order shares the first's, and
    every cell still matches the literal rule.  With every factor nonzero,
    a row's live columns come in column order in either run order."""
    specs = enumerate_P(3, 2)
    col = {(s.blocks, s.exps): s for s in specs}
    a, b, c = ((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2, 3))
    run = [col[a, (0, 1)], col[a, (1, 0)], col[b, (1, 0)], col[b, (0, 1)],
           col[c, (0, 1)], col[c, (1, 0)]]
    parts = pairing._columns(run)[3]
    assert parts[a][1] is not parts[b][1] and parts[a][1] is parts[c][1]
    assert parts[a][1].index == {(0, 1): 0, (1, 0): 1}
    assert parts[b][1].index == {(1, 0): 0, (0, 1): 1}
    assert_run_matches_literal_rule(specs, run)
    assert_run_matches_literal_rule(specs, run[::-1])
    monkeypatch.setattr(pairing, "_component_integral", lambda t, tp: tp + 1)
    for cols in (run, run[::-1]):
        columns = pairing._columns(cols)
        lives = [[j for j, _ in pairing._row_runs(row, columns)[2]] for row in specs]
        assert max(map(len, lives)) == 2 and all(js == sorted(js) for js in lives)


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
    """A row-by-row walk over the grid calls the row rule once per row."""
    rule = pairing._row_runs
    calls = []
    monkeypatch.setattr(pairing, "_row_runs", lambda row, cols: calls.append(row) or rule(row, cols))
    matrix = PairingMatrix(4, 2)
    cells = list(matrix.entries())
    assert len(cells) == matrix.size ** 2
    assert calls == matrix.specs
    assert matrix.entry(0, 1) == pairing_entry(matrix.specs[0], matrix.specs[1])


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


def faulty_cells(monkeypatch, specs, faults):
    """Make the row rule give the outcome faults[(i, j)] for each cell (i, j)
    of `specs`, and its own outcome elsewhere: a row with a fault comes back
    as the stretches of equal outcomes of its expanded cells."""
    rule = pairing._row_runs
    rows = {id(x): i for i, x in enumerate(specs)}

    def patched(row, columns):
        out = rule(row, columns)
        i = rows[id(row)]
        cells = pairing._expand(out)
        for c, j in enumerate(column_indices(specs, columns)):
            cells[c] = faults.get((i, j), cells[c])
        if cells == pairing._expand(out):
            return out
        return [(cell, len(list(g))) for cell, g in groupby(cells)], (), []

    monkeypatch.setattr(pairing, "_row_runs", patched)


def certificate_with_faults(monkeypatch, d, k, faults):
    specs = enumerate_P(d, k)
    monkeypatch.setattr(pairing, "enumerate_P", lambda d, k: specs)
    faulty_cells(monkeypatch, specs, faults)
    return rank_certificate(d, k)


def test_certificate_rejects_an_uncomputed_diagonal_cell(monkeypatch):
    with pytest.raises(CertificateError) as err:
        certificate_with_faults(monkeypatch, 4, 3, {(2, 2): None})
    assert str(err.value) == "diagonal entry 2 not computed"


def test_certificate_rejects_a_computed_zero_below_the_blocks(monkeypatch):
    specs = enumerate_P(4, 3)
    i = next(i for i, s in enumerate(specs) if len(s.blocks) < len(specs[0].blocks))
    with pytest.raises(CertificateError) as err:
        certificate_with_faults(monkeypatch, 4, 3, {(i, 1): 0})
    assert str(err.value) == f"entry ({i},1) should be proven zero"


@pytest.mark.parametrize("reason", [pairing.REASON_TOO_FEW_BLOCKS,
                                    pairing.REASON_SUPPORT_MISMATCH])
def test_certificate_accepts_a_proven_zero_inside_a_block(monkeypatch, reason):
    """An off-diagonal cell of a length block's own rows may be a proven
    zero instead of a computed one."""
    clean = rank_certificate(4, 3)
    assert certificate_with_faults(monkeypatch, 4, 3, {(3, 5): reason, (5, 3): reason}) == clean


def test_certificate_rejects_an_unevaluated_cell_inside_a_block(monkeypatch):
    with pytest.raises(CertificateError) as err:
        certificate_with_faults(monkeypatch, 4, 3, {(3, 5): None})
    assert str(err.value) == "off-diagonal entry (3,5) is nonzero"


@pytest.mark.parametrize("faults,message", [
    ({(2, 1): None, (2, 2): None}, "off-diagonal entry (2,1) is nonzero"),
    ({(2, 2): None, (2, 4): 7}, "diagonal entry 2 not computed"),
    ({(2, 2): 5, (2, 3): 1}, "diagonal entry 2 is 5, expected 6"),
    ({(2, 4): -1, (3, 3): 0}, "off-diagonal entry (2,4) is nonzero"),
    ({(3, 3): 0}, "diagonal entry 3 is 0, expected positive"),
    # rows 0-19 have four blocks, 20 and 21 three: row 20 fails first
    ({(20, 20): 0, (21, 1): 0}, "diagonal entry 20 is 0, expected positive"),
])
def test_certificate_names_the_first_failing_cell(monkeypatch, faults, message):
    """With several faults, the first in row order, then column order, is
    the one reported."""
    with pytest.raises(CertificateError) as err:
        certificate_with_faults(monkeypatch, 4, 3, faults)
    assert str(err.value) == message


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


def assert_row_matches_literal_rule(row, run, out, factor=literal_factor):
    """A compressed row of `_row_runs` against the literal entries of `row`
    and the columns `run`: expanded, each cell is the literal entry's reason
    for a proven zero, None when unevaluated, the int value if computed;
    `own` holds exactly the columns of the row's partition, and `live`
    exactly those of them with a nonzero value."""
    cells = pairing._expand(out)
    assert len(cells) == len(run)
    for col, cell in zip(run, cells):
        want = literal_pairing_entry(row, col, factor)
        if want.status == "computed":
            assert type(cell) is int and cell == want.value, (row, col)
        else:
            assert cell == want.reason, (row, col)
    _, own, live = out
    assert list(own) == [j for j, col in enumerate(run) if col.blocks == row.blocks]
    assert [j for j, _ in live] == [j for j in own if cells[j] != 0]


@pytest.mark.parametrize("d,k", LITERAL_GRIDS)
def test_row_rule_matches_literal_rule(d, k):
    """The row rule's outcome for every cell, compressed and expanded."""
    specs = enumerate_P(d, k)
    columns = pairing._columns(specs)
    for row in specs:
        assert_row_matches_literal_rule(row, specs, pairing._row_runs(row, columns))


def assert_run_matches_literal_rule(specs, run):
    """Every row of `specs` against the column run `run`, cell by cell."""
    columns = pairing._columns(run)
    for row in specs:
        assert_row_matches_literal_rule(row, run, pairing._row_runs(row, columns))


def literal_certificate(d, k, factor=literal_factor):
    """The certificate rebuilt cell by cell from `literal_pairing_entry`:
    in row order, then column order, each cell of a longer column must be a
    proven zero, and of a column of the row's length prod(t + 1) on the
    diagonal and a computed or proven zero elsewhere; the first cell that
    fails raises the certificate's message.  Returns the fields the
    certificate reports, the cross-length counts read off the cells."""
    specs = enumerate_P(d, k)
    n = len(specs)
    cells = [[literal_pairing_entry(row, col, factor) for col in specs] for row in specs]
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
    """Live columns off the diagonal get the product of their own factors."""
    monkeypatch.setattr(pairing, "_component_integral", factor)
    for d, k in ((3, 3), (4, 3)):
        specs = enumerate_P(d, k)
        columns = pairing._columns(specs)
        for row in specs:
            assert_row_matches_literal_rule(row, specs, pairing._row_runs(row, columns), factor)


def test_certificate_rejects_own_partition_columns_below_the_blocks(monkeypatch):
    """A row below a longer block whose rule output claims a column of that
    block among its own partition's, computed 0, fails at that column."""
    rule = pairing._row_runs
    specs = enumerate_P(4, 3)
    i = next(i for i, s in enumerate(specs) if len(s.blocks) < len(specs[0].blocks))
    assert len(specs[1].blocks) == len(specs[0].blocks)
    patched_rows = []

    def patched(row, columns):
        outcomes, own, live = rule(row, columns)
        if row is specs[i]:
            patched_rows.append(row)
            own = [1, *own]
        return outcomes, own, live

    monkeypatch.setattr(pairing, "enumerate_P", lambda d, k: specs)
    monkeypatch.setattr(pairing, "_row_runs", patched)
    with pytest.raises(CertificateError) as err:
        rank_certificate(4, 3)
    assert str(err.value) == f"entry ({i},1) should be proven zero"
    assert patched_rows == [specs[i]]


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


def split_run():
    """The specs of d = 3, k = 2 and a run in which the columns of the
    partition {1}{2}{3} are split apart by other columns."""
    specs = enumerate_P(3, 2)
    own = [s for s in specs if s.blocks == ((1,), (2,), (3,))]
    other = [s for s in specs if s.blocks != ((1,), (2,), (3,))]
    return specs, [own[0], other[0], own[1], other[-1], own[2]]


def test_row_rule_on_a_partition_split_apart():
    """The columns of one set partition need not be contiguous in a run:
    its computed stretch is written at their positions only."""
    specs, run = split_run()
    positions, _ = pairing._columns(run)[3][((1,), (2,), (3,))]
    assert positions == (0, 2, 4)
    assert_run_matches_literal_rule(specs, run)
    assert_run_matches_literal_rule(specs, run[::-1])


def test_row_rule_matches_literal_rule_on_shuffled_runs():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @st.composite
    def runs(draw):
        d, k = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        specs = enumerate_P(d, k)
        order = draw(st.permutations(range(len(specs))))
        keep = draw(st.integers(1, len(specs)))
        return specs, [specs[j] for j in order[:keep]]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(runs())
    @example(split_run())
    def check(drawn):
        assert_run_matches_literal_rule(*drawn)

    check()


def test_row_rule_rejects_a_run_of_mixed_keys():
    run = enumerate_P(3, 2)[:2] + enumerate_P(3, 1)[:1]
    columns = pairing._columns(run)
    for row in run:
        with pytest.raises(InputError, match=r"^row and column have mismatched \(d, k\)$"):
            pairing._row_runs(row, columns)


def test_enumerations_are_fresh_lists_with_equal_contents():
    a, b = enumerate_P(4, 3), enumerate_P(4, 3)
    assert type(a) is list and a is not b and a == b
    a.clear()
    assert enumerate_P(4, 3) == b


def test_enumerations_beyond_the_certificate_range_are_not_kept():
    d = pairing.MAX_DK + 1
    calls = pairing._enumeration.cache_info()
    a, b = enumerate_P(d, 1), enumerate_P(d, 1)
    assert a == b and len(a) == count_by_formula(d, 1)
    assert pairing._enumeration.cache_info() == calls


def test_matrix_lays_out_columns_on_first_entry():
    matrix = PairingMatrix(3, 2)
    assert matrix.size == len(matrix.specs) == 13
    assert matrix._run is None
    first = matrix.entry(0, 0)
    assert matrix._run is not None
    assert first == pairing_entry(matrix.specs[0], matrix.specs[0])


def test_computed_values_share_one_entry():
    matrix = PairingMatrix(3, 2)
    cells = [e for _, _, e in matrix.entries() if e.status == COMPUTED]
    by_value = {}
    for e in cells:
        assert by_value.setdefault(e.value, e) is e
    assert by_value[0] is pairing._COMPUTED_ZERO and len(by_value) > 2
