"""Canonical-form rewriting, obstruction Chern classes, pushforwards, and
the even-shift relation generator."""

import ast
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
import math
from math import comb

import pytest

import sqtaut
from sqtaut import relations
from sqtaut.kappa_lambda import (
    KAPPA,
    _lambda_table,
    chern_E_dual,
    kappa_class,
    kl_one,
    kl_scalar,
    kl_zero,
    lambda_class,
    kl_is_kappa_only,
    lambda_to_kappa,
)
from sqtaut.pointed import (
    BlockMonomial,
    _chern_F_cached,
    _merge_monomials,
    PointedClass,
    chern_F,
    diagonal_monomial,
    epsilon_push,
    pc_delta,
    pc_delta_sym,
    pc_diagonal,
    pc_from_kl,
    pc_monomial,
    pc_mul,
    pc_one,
    pc_psihat,
    pc_zero,
    psihat_monomial,
    pushed_chern,
    unit_monomial,
)
from sqtaut.relations import (
    _block_series,
    _kappa_monomial,
    _pushed_partition,
    _with_parts,
    prop8_relation,
    rank_F,
    theorem5_class,
)
from sqtaut.rings import DomainError, InputError, check_set_partition, mono_mul, series_mul


# -- ring-arithmetic oracles: c(B_d) as a product and inversion by series --

def chern_B(genus: int, d: int, maxdeg: int) -> PointedClass:
    """Total Chern class of the light-point subsheaf:
    prod_{i=1}^{d} (1 + Delta_i - psihat_i), truncated."""
    if d < 1:
        raise InputError("d must be >= 1")
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    out = pc_one(genus, d).truncate(maxdeg)
    for i in range(1, d + 1):
        factor = (
            pc_one(genus, d) + pc_delta(genus, d, i) - pc_psihat(genus, d, i)
        ).truncate(maxdeg)
        out = out * factor
    return out


def pc_inverse(p: PointedClass, maxdeg: int) -> PointedClass:
    """Inverse modulo degree > maxdeg; requires unit constant part."""
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    one = pc_one(p.genus, p.d).truncate(maxdeg)
    if p.degree_part(0) != pc_one(p.genus, p.d):
        raise DomainError("pc_inverse requires constant part 1")
    n = (p.truncate(maxdeg) - one)
    result = one
    power = one
    for _ in range(maxdeg):
        power = power * (-n)
        if power.is_zero:
            break
        result = result + power
    return result


def mono_with(d, blocks_exps):
    """Build a block monomial from {block: exp} over {1..d}."""
    assigned = set()
    blocks = []
    exps = []
    for block, exp in blocks_exps.items():
        blocks.append(tuple(sorted(block)))
        exps.append(exp)
        assigned |= set(block)
    for j in range(1, d + 1):
        if j not in assigned:
            blocks.append((j,))
            exps.append(0)
    order = sorted(range(len(blocks)), key=lambda i: blocks[i][0])
    return BlockMonomial(d, tuple(blocks[i] for i in order),
                         tuple(exps[i] for i in order))


def test_rewrite_examples():
    g = 3
    d12 = pc_diagonal(g, 3, (1, 2))
    d23 = pc_diagonal(g, 3, (2, 3))
    assert d12 * d23 == pc_monomial(g, 3, mono_with(3, {(1, 2, 3): 0}))

    sq = pc_diagonal(g, 2, (1, 2)) * pc_diagonal(g, 2, (1, 2))
    assert sq == -pc_monomial(g, 2, mono_with(2, {(1, 2): 1}))

    merged = pc_psihat(g, 2, 1) * pc_diagonal(g, 2, (1, 2))
    assert merged == pc_monomial(g, 2, mono_with(2, {(1, 2): 1}))
    assert merged == pc_psihat(g, 2, 2) * pc_diagonal(g, 2, (1, 2))


def test_diagonal_triple_products_associative():
    # exhaustive over all diagonals on {1..4}
    g = 2
    subsets = [
        J for r in (2, 3, 4) for J in itertools.combinations(range(1, 5), r)
    ]
    classes = [pc_diagonal(g, 4, J) for J in subsets]
    for a in classes:
        for b in classes:
            ab = a * b
            for c in classes:
                assert (ab) * c == a * (b * c)


def test_block_monomial_degree():
    m = mono_with(5, {(1, 2): 2, (3,): 1})
    # exps 2 + 1, diagonal block of size 2 adds 1
    assert m.degree == 4
    assert unit_monomial(3).degree == 0
    assert diagonal_monomial(4, (1, 2, 3)).degree == 2


def random_monomial(rng, d, maxexp=3):
    labels = list(range(1, d + 1))
    rng.shuffle(labels)
    blocks = {}
    while labels:
        size = rng.randint(1, min(3, len(labels)))
        block = tuple(labels[:size])
        labels = labels[size:]
        blocks[block] = rng.randint(0, maxexp)
    return mono_with(d, blocks)


def random_coeff(rng, g):
    p = kl_scalar(g, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if rng.random() < 0.4:
        p = p * kappa_class(g, rng.randint(1, 2))
    if rng.random() < 0.3:
        p = p + lambda_class(g, 1)
    return p


def test_pc_mul_commutative_associative_fuzz():
    # >= 1000 random monomial pairs/triples across d <= 6
    rng = random.Random(224466)
    g = 3
    for trial in range(1000):
        d = rng.randint(1, 6)
        a = pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
        b = pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
        ab = a * b
        assert ab == b * a
        if trial % 3 == 0:
            c = pc_monomial(g, d, random_monomial(rng, d))
            assert ab * c == a * (b * c)


def test_canonical_form_idempotent_on_outputs():
    rng = random.Random(777)
    g = 2
    for _ in range(200):
        d = rng.randint(1, 5)
        a = pc_monomial(g, d, random_monomial(rng, d))
        b = pc_monomial(g, d, random_monomial(rng, d))
        out = a * b
        for mono in out.terms:
            # sorting labels and blocks again changes nothing
            pairs = sorted(
                ((tuple(sorted(b)), e) for b, e in zip(mono.blocks, mono.exps)),
                key=lambda be: be[0][0],
            )
            assert tuple(b for b, _ in pairs) == mono.blocks
            assert tuple(e for _, e in pairs) == mono.exps


def test_relabel_equivariance():
    rng = random.Random(31337)
    g = 3
    d = 4
    for _ in range(100):
        perm_vals = list(range(1, d + 1))
        rng.shuffle(perm_vals)
        perm = dict(zip(range(1, d + 1), perm_vals))
        a = pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
        b = pc_monomial(g, d, random_monomial(rng, d))
        assert (a * b).relabel(perm) == a.relabel(perm) * b.relabel(perm)
        assert epsilon_push(a.relabel(perm)) == epsilon_push(a)


def test_distributivity_fuzz():
    rng = random.Random(909)
    g = 2
    d = 3
    for _ in range(200):
        a = pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
        b = pc_monomial(g, d, random_monomial(rng, d))
        c = pc_monomial(g, d, random_monomial(rng, d))
        assert a * (b + c) == a * b + a * c


def test_delta_conventions():
    g = 2
    assert pc_delta(g, 3, 1).is_zero
    assert pc_delta(g, 3, 3) == pc_diagonal(g, 3, (1, 3)) + pc_diagonal(g, 3, (2, 3))
    assert pc_delta_sym(g, 2) == pc_diagonal(g, 2, (1, 2))


def test_chern_B_small():
    g = 4
    cb = chern_B(g, 2, 1)
    expect = (
        pc_one(g, 2)
        - pc_psihat(g, 2, 1)
        - pc_psihat(g, 2, 2)
        + pc_diagonal(g, 2, (1, 2))
    ).truncate(1)
    assert cb.degree_part(0) == pc_one(g, 2)
    assert cb.degree_part(1) == expect.degree_part(1)
    assert chern_B(g, 1, 3) == (
        pc_one(g, 1) - pc_psihat(g, 1, 1)
    ).truncate(3)


def test_chern_F_degree_one_parts():
    g = 5
    c1 = chern_F(g, 1, 1).degree_part(1)
    assert c1 == (
        pc_from_kl(g, 1, -lambda_class(g, 1)) + pc_psihat(g, 1, 1)
    )
    c2 = chern_F(g, 2, 1).degree_part(1)
    expect = (
        pc_from_kl(g, 2, -lambda_class(g, 1))
        + pc_psihat(g, 2, 1)
        + pc_psihat(g, 2, 2)
        - pc_diagonal(g, 2, (1, 2))
    )
    assert c2 == expect


def test_chern_F_against_geometric_series_oracle():
    # independent route: per-factor geometric series, then multiply
    g = 5
    N = 4
    d = 2
    geom1 = pc_zero(g, d).truncate(N)
    geom2 = pc_zero(g, d).truncate(N)
    x1 = pc_psihat(g, d, 1).truncate(N)
    x2 = (pc_psihat(g, d, 2) - pc_delta(g, d, 2)).truncate(N)
    for j in range(N + 1):
        geom1 = geom1 + x1 ** j
        geom2 = geom2 + x2 ** j
    oracle = pc_from_kl(g, d, chern_E_dual(g, N)).truncate(N) * geom1 * geom2
    assert chern_F(g, d, N) == oracle


def test_chern_F_times_chern_B_is_dual_hodge():
    cases = [(g, d, N) for g, d in ((3, 1), (4, 2), (5, 3), (6, 4))
             for N in range(7)]
    for g, d, N in cases + [(7, 5, 4), (20, 12, 2)]:
        prod = chern_F(g, d, N) * chern_B(g, d, N)
        assert prod == pc_from_kl(g, d, chern_E_dual(g, N)).truncate(N), (g, d, N)
    assert chern_F(5, 0, 3) == pc_from_kl(5, 0, chern_E_dual(5, 3)).truncate(3)
    start = time.perf_counter()
    _chern_F_cached.__wrapped__(20, 12, 2)  # bypass the cache
    assert time.perf_counter() - start < 1.0


def test_chern_F_term_count_is_its_number_of_terms():
    """block_labels counts d + 4 labels for each block monomial that
    block_groups enumerates, one degree at a time, and for each term that
    chern_F writes down, over every degree up to its truncation."""
    from sqtaut.pointed import block_groups, block_labels

    for d in range(1, 7):
        for k in range(7):
            rows = sum(len(parts) * len(exps) for _, parts, exps in block_groups(d, k))
            assert block_labels(d, k, k) == (d + 4) * rows, (d, k)
            assert block_labels(d, 1, k) == (d + 4) * sum(
                len(parts) * len(exps) for j in range(1, k + 1)
                for _, parts, exps in block_groups(d, j)), (d, k)
    for d in range(6):
        for m in range(7):
            terms = len(_chern_F_cached.__wrapped__(6, d, m).terms)
            assert block_labels(d, 0, m) == (d + 4) * terms, (d, m)
    assert block_labels(7, 0, 6) == 11 * 44_508 and block_labels(8, 0, 7) == 12 * 379_252


def test_chern_F_terms_are_counted_before_computing(monkeypatch):
    from sqtaut import pointed

    monkeypatch.setattr(pointed, "MAX_LABELS", 6 * 19)
    assert len(chern_F(4, 2, 4).terms) == 19
    with pytest.raises(InputError, match=r"^chern_F\(4, 2, 5\) writes 156 labels "
                                         r"or more; the limit is 114$"):  # 26 terms
        chern_F(4, 2, 5)
    # past the limit the count stops in its l = d part: here after one factor
    assert pointed.block_labels(10 ** 6, 0, 10 ** 6) == (10 ** 6 + 4) * (10 ** 6 + 1)


def test_chern_F_builds_only_what_its_degree_reaches(monkeypatch):
    """At d = 1500 and degree 0 chern_F is the one unit monomial: it builds
    no block series past one point, and the enumeration opens one part per
    label without recursing."""
    from sqtaut import pointed

    built = []
    series = pointed._block_series
    monkeypatch.setattr(pointed, "_block_series", lambda s, n: built.append(s) or series(s, n))
    one = chern_F(3, 1500, 0)
    assert built == [1] and str(one) == "1"
    assert one == pc_one(3, 1500)


def test_chern_F_keeps_the_shared_enumerations():
    """chern_F walks its degrees outside the LRU of block_groups, so a
    degree past its 64 entries leaves the pairing's enumeration kept."""
    from sqtaut import pointed
    from sqtaut.pairing import rank_certificate

    pointed._chern_F_cached.cache_clear()
    rank_certificate(5, 5)
    chern_F(2, 1, 200)
    before = pointed.block_groups.cache_info()
    rank_certificate(5, 5)
    after = pointed.block_groups.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_block_groups_share_partitions_across_degrees(monkeypatch):
    """The set partitions of each length are enumerated once per d and
    shared across k: in any order of calls, each gives the groups of one
    sorted enumeration, enumerates no more partitions than
    set_partitions(d, d - k), and none once its lengths are kept."""
    from sqtaut import pointed, rings

    yielded = []
    monkeypatch.setattr(pointed, "set_partitions",
                        lambda *a: (yielded.append(a) or p for p in rings.set_partitions(*a)))
    pointed._partitions.cache_clear()
    pointed.block_groups.cache_clear()
    for d in range(1, 7):
        least = d + 1  # the least length kept so far
        for k in (3, 0, 5, 1, 6, 2, 4):
            yielded.clear()
            parts = sorted(rings.set_partitions(d, d - k), key=lambda p: (-len(p), p))
            assert pointed.block_groups(d, k) == tuple(
                (l, tuple(group), tuple(rings.iter_weak_compositions(k - d + l, l)))
                for l, group in itertools.groupby(parts, len)), (d, k)
            assert len(yielded) <= len(parts)
            if max(d - k, 1) >= least:
                assert yielded == [], (d, k)
            least = min(least, max(d - k, 1))
    pointed.block_groups.cache_clear()


def test_chern_F_counts_its_labels_once(monkeypatch):
    """chern_F checks the labels of every degree at once and then walks
    the degrees unchecked: one block_labels call for all 2,001."""
    from sqtaut import pointed

    calls = []
    count = pointed.block_labels
    monkeypatch.setattr(pointed, "block_labels", lambda *a: calls.append(a) or count(*a))
    pointed._chern_F_cached.cache_clear()
    assert len(chern_F(2, 1, 2000).terms) == 2001
    assert calls == [(1, 0, 2000)]


def test_epsilon_push_examples():
    g = 4
    assert epsilon_push(pc_one(g, 2)) == 0
    assert epsilon_push(pc_psihat(g, 1, 1)) == kl_scalar(g, 2 * g - 2)
    assert epsilon_push(pc_psihat(g, 1, 1, exp=3)) == kappa_class(g, 2)
    two_psi = pc_monomial(g, 2, mono_with(2, {(1,): 2, (2,): 3}))
    assert epsilon_push(two_psi) == kappa_class(g, 1) * kappa_class(g, 2)
    assert epsilon_push(pc_diagonal(g, 2, (1, 2))) == 0
    diag_psi = pc_monomial(g, 2, mono_with(2, {(1, 2): 3}))
    assert epsilon_push(diag_psi) == kappa_class(g, 2)


def test_epsilon_push_degree_drop():
    rng = random.Random(606)
    g = 3
    for _ in range(100):
        d = rng.randint(1, 5)
        mono = random_monomial(rng, d)
        pushed = epsilon_push(pc_monomial(g, d, mono))
        if pushed.is_zero:
            continue
        assert pushed.homogeneous_degrees() == [mono.degree - d]


def test_epsilon_push_of_a_capped_class_keeps_every_valid_term():
    # the push lowers degree by exactly d, so a class capped at M pushes to
    # the sum of its pushed degree parts, capped at M - d
    for g, d, M in ((8, 2, 6), (6, 3, 5), (5, 1, 4), (7, 4, 6)):
        c = chern_F(g, d, M)
        whole = epsilon_push(c)
        parts = sum((epsilon_push(c.degree_part(k)) for k in range(M + 1)), kl_zero(g))
        assert whole == parts, (g, d, M)
        assert whole.cap == M - d
    assert len(epsilon_push(chern_F(8, 2, 6)).coeffs) == 22
    g = 5
    mixed = (pc_psihat(g, 1, 1, 8) + pc_psihat(g, 1, 1, 2)).truncate(10)
    assert epsilon_push(mixed) == kappa_class(g, 1) + kappa_class(g, 7)
    # a coefficient's own cap counts from the degree of the pushed monomial
    capped = pc_monomial(g, 1, psihat_monomial(1, 1, 3), kl_one(g).truncate(0))
    assert epsilon_push(capped) == kappa_class(g, 2)
    assert epsilon_push(capped).cap == 2


def test_pushforward_of_mixed_psihat_diagonal_powers():
    # eps_*(psihat_1^i1 * (psihat_2 - Delta)^i2) =
    #   -(2^i2 - 1) kappa_{i1+i2-2} + kappa_{i1-1} kappa_{i2-1}
    for g in (4, 6, 8):
        delta = pc_delta_sym(g, 2)
        p2 = pc_psihat(g, 2, 2)
        p1 = pc_psihat(g, 2, 1)
        for i1 in range(0, 9):
            for i2 in range(0, 9 - i1):
                got = epsilon_push(p1 ** i1 * (p2 - delta) ** i2)
                expect = (
                    -(2 ** i2 - 1) * kappa_class(g, i1 + i2 - 2)
                    + kappa_class(g, i1 - 1) * kappa_class(g, i2 - 1)
                )
                assert got == expect, (g, i1, i2)


def d2_closed_form(g):
    """Displayed closed form of the d=2, k=1 relation (lambda-mixed)."""
    out = kl_zero(g)
    for i in range(2, g):
        inner = kl_zero(g)
        for i1 in range(0, i + 1):
            inner = inner + kappa_class(g, i1 - 1) * kappa_class(g, i - i1 - 1)
        inner = inner - (2 ** (i + 1) - i - 2) * kappa_class(g, i - 2)
        term = lambda_class(g, g - 1 - i) * inner
        out = out + (term if i % 2 == 0 else -term)
    return out


def test_theorem5_d2_matches_closed_form_small():
    for g in (4, 5, 6):
        got = theorem5_class(g, 2, 1)
        expect = d2_closed_form(g)
        if (g - 1) % 2:
            expect = -expect
        assert got == expect


def test_theorem5_genus6_kappa_relation():
    rel = lambda_to_kappa(theorem5_class(6, 2, 1))
    k1 = kappa_class(6, 1)
    k2 = kappa_class(6, 2)
    k3 = kappa_class(6, 3)
    target = 25 * k1 ** 3 - 1080 * k1 * k2 + 15912 * k3
    scale = rel.coefficient((((0, 3), 1),)) / 15912
    assert scale != 0
    assert rel == scale * target


def test_d1_odd_shift_closed_form():
    # eps_*(c_{g-1}(F_1)) = sum_{j=0}^{g-2} (-1)^j lambda_j kappa_{g-2-j};
    # nonzero, and not a relation (odd shift)
    for g in (2, 3, 4, 5, 6):
        got = pushed_chern(g, 1, g - 1)
        expect = kl_zero(g)
        for j in range(0, g - 1):
            term = lambda_class(g, j) * kappa_class(g, g - 2 - j)
            expect = expect + (term if j % 2 == 0 else -term)
        assert got == expect
        assert not got.is_zero


def test_rank_and_parameter_validation():
    assert rank_F(6, 2) == 3
    with pytest.raises(InputError):
        theorem5_class(1, 1, 1)
    with pytest.raises(InputError):
        theorem5_class(4, 0, 1)
    with pytest.raises(InputError):
        theorem5_class(4, 1, 0)
    with pytest.raises(InputError):
        theorem5_class(2, 4, 1)  # target Chern degree -1
    with pytest.raises(InputError):
        pc_mul(pc_one(3, 2), pc_one(3, 3))
    with pytest.raises(InputError):
        pc_mul(pc_one(3, 2), pc_one(4, 2))


def test_truncation_total_degree():
    g = 3
    p = pc_monomial(g, 2, mono_with(2, {(1,): 1}), kappa_class(g, 2)).truncate(2)
    # monomial degree 1 + coefficient degree 2 exceeds the cap
    assert p.is_zero
    q = pc_monomial(g, 2, mono_with(2, {(1,): 1}), kappa_class(g, 1)).truncate(2)
    assert not q.is_zero


def test_monomial_validation():
    with pytest.raises(InputError):
        BlockMonomial(2, ((2,), (1,)), (0, 0))
    with pytest.raises(InputError):
        BlockMonomial(2, ((1, 2),), (-1,))
    with pytest.raises(InputError):
        BlockMonomial(3, ((1, 2),), (0,))
    with pytest.raises(InputError):
        diagonal_monomial(3, (2,))
    with pytest.raises(InputError):
        psihat_monomial(2, 3)


def test_cached_classes_cannot_be_mutated():
    first = chern_F(5, 2, 3)
    count = len(first.terms)
    with pytest.raises(AttributeError):
        first.terms.clear()
    with pytest.raises(TypeError):
        first.terms[unit_monomial(2)] = kl_one(5)
    with pytest.raises(AttributeError):
        first.terms = {}
    coeff = next(iter(first.terms.values()))
    with pytest.raises(TypeError):
        coeff.coeffs[()] = Fraction(1)
    again = chern_F(5, 2, 3)
    assert len(again.terms) == count
    assert again == first
    table_entry = _lambda_table(6)[1]
    with pytest.raises(AttributeError):
        table_entry.coeffs.pop(())
    assert _lambda_table(6)[1] == Fraction(1, 288) * kappa_class(6, 1) ** 2


def test_construction_copies_caller_tables():
    source = {unit_monomial(2): kl_one(4), psihat_monomial(2, 1): kl_zero(4)}
    p = PointedClass(4, 2, source)
    assert len(source) == 2
    source.clear()
    assert p == pc_one(4, 2)


def test_merge_monomials_adds_degrees():
    # pc_mul stops at the cap on this: a component of r blocks gains
    # |F| + 1 - r exponent units, the diagonal codimension it loses
    rng = random.Random(4242)
    for _ in range(500):
        d = rng.randint(1, 6)
        m1 = random_monomial(rng, d)
        m2 = random_monomial(rng, d)
        mono, _ = _merge_monomials(m1, m2)
        assert mono.degree == m1.degree + m2.degree


def literal_merge(m1, m2):
    """The diagonal collapse written out: union-find joins the labels of
    every block of both factors, and a component F assembled from r blocks
    gets the exponent sum plus |F| + 1 - r, each extra unit a factor -1."""
    parent = {x: x for x in range(1, m1.d + 1)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = [pair for mono in (m1, m2) for pair in zip(mono.blocks, mono.exps)]
    for block, _ in pairs:
        for x in block[1:]:
            parent[find(x)] = find(block[0])
    members, exps, counts = {}, {}, {}
    for x in parent:
        members.setdefault(find(x), []).append(x)
    for block, exp in pairs:
        root = find(block[0])
        exps[root] = exps.get(root, 0) + exp
        counts[root] = counts.get(root, 0) + 1
    sign, out = 1, []
    for root, labels in members.items():
        extra = len(labels) + 1 - counts[root]
        sign *= (-1) ** extra
        out.append((tuple(sorted(labels)), exps[root] + extra))
    out.sort()
    return tuple(b for b, _ in out), tuple(e for _, e in out), sign


def test_merge_monomials_matches_union_find_oracle():
    from sqtaut.pairing import enumerate_P

    def check(m1, m2):
        mono, sign = _merge_monomials(m1, m2)
        assert (mono.blocks, mono.exps, sign) == literal_merge(m1, m2), (m1, m2)

    pairs = 0
    for d in range(1, 5):
        monos = [m for k in range(4) for m in enumerate_P(d, k)]
        for m1, m2 in itertools.product(monos, repeat=2):
            check(m1, m2)
            pairs += 1
    rng = random.Random(2992)
    for _ in range(2000):
        d = rng.randint(1, 6)
        check(random_monomial(rng, d), random_monomial(rng, d))
    assert pairs > 5000


def test_trusted_monomials_are_canonical():
    # merges and chern_F build monomials without the constructor's check;
    # every one they build must still pass it
    rng = random.Random(8080)
    for _ in range(500):
        d = rng.randint(1, 6)
        mono, _ = _merge_monomials(random_monomial(rng, d), random_monomial(rng, d))
        check_set_partition(mono.blocks, mono.exps, d)
        valid = BlockMonomial(d, mono.blocks, mono.exps)
        assert mono == valid and mono.degree == valid.degree
    keys = 0
    for g, d, N in itertools.product((2, 5), range(5), range(6)):
        for mono in chern_F(g, d, N).terms:
            check_set_partition(mono.blocks, mono.exps, d)
            keys += 1
    assert keys > 1000


def test_capped_pc_mul_is_truncated_product():
    rng = random.Random(515)
    g = 3
    for _ in range(200):
        d = rng.randint(1, 4)
        a = pc_zero(g, d)
        b = pc_zero(g, d)
        for _ in range(4):
            a = a + pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
            b = b + pc_monomial(g, d, random_monomial(rng, d), random_coeff(rng, g))
        cap = rng.randint(0, 6)
        assert pc_mul(a.truncate(cap), b) == (a * b).truncate(cap)


def test_scale_keeps_the_cap_of_a_capped_factor():
    # chern_E_dual(4, 1) = 1 - lambda_1 is trusted only through degree 1,
    # so psihat_1 (degree 1) times it is psihat_1 through degree 1
    product = pc_psihat(4, 2, 1) * chern_E_dual(4, 1)
    assert product == pc_psihat(4, 2, 1) and product.cap == 1
    # the same rule as the kappa/lambda product
    assert (kappa_class(4, 2) * chern_E_dual(4, 1)).cap == 1
    # with both operands capped, the smaller cap wins
    capped = pc_psihat(4, 2, 1).truncate(3) * chern_E_dual(4, 2)
    assert capped.cap == 2
    assert capped == pc_psihat(4, 2, 1) * chern_E_dual(4, 1).truncate(None)


def test_capped_coefficients_keep_their_caps_through_pc_mul():
    # a class built from 1 - lambda_1, trusted through degree 1, keeps that
    # cap, so its product with psihat_1 is the scaled product above
    dual = pc_from_kl(4, 2, chern_E_dual(4, 1))
    assert dual.cap == 1
    product = dual * pc_psihat(4, 2, 1)
    assert product == pc_psihat(4, 2, 1) * chern_E_dual(4, 1)
    assert str(product) == "psih_{1}" and product.cap == 1
    # with no class cap, the coefficients' own caps bound their product:
    # (1 - lambda_1) * lambda_1 is lambda_1 through coefficient degree 1
    a = pc_monomial(4, 2, unit_monomial(2), chern_E_dual(4, 1))
    b = pc_monomial(4, 2, psihat_monomial(2, 1), lambda_class(4, 1))
    assert a.cap is None and b.cap is None
    coeff = pc_mul(a, b).coefficient(psihat_monomial(2, 1))
    assert coeff == lambda_class(4, 1) and coeff.cap == 1


def test_class_cap_keeps_a_tighter_coefficient_cap():
    # 1 - lambda_1 is trusted through degree 1; the class cap 5 leaves room
    # 3 beside psihat_1^2, which must not widen the coefficient's own cap
    mono, dual = psihat_monomial(1, 1, 2), chern_E_dual(4, 1)
    capped = PointedClass(4, 1, {mono: dual}, 5)
    assert capped.terms[mono].cap == 1
    assert epsilon_push(capped).cap == 2
    assert epsilon_push(PointedClass(4, 1, {mono: dual})).cap == 2


def test_block_series_closed_forms():
    # g_2 = -1/((1-x)^2 (1-2x)): [x^t] g_2 = -(2^(t+2) - t - 3)
    assert _block_series(2, 10) == tuple(
        Fraction(-(2 ** (t + 2) - t - 3)) for t in range(11)
    )
    assert _block_series(3, 3) == (4, 32, 160, 648)
    assert _block_series(1, 4) == (1,) * 5


@lru_cache(maxsize=None)
def fraction_block_series(s, maxdeg):
    # the Fraction recursion for g_s as it was written before the block
    # series were kept in ints
    if s == 1:
        return (Fraction(1),) * (maxdeg + 1)
    rhs = [Fraction(0)] * (maxdeg + 1)
    for a in range(1, s):
        weight = comb(s - 1, a - 1) * (s - a)
        prod = series_mul(fraction_block_series(a, maxdeg),
                          fraction_block_series(s - a, maxdeg), maxdeg)
        for n, c in enumerate(prod):
            rhs[n] -= weight * c
    out, prev = [], Fraction(0)
    for c in rhs:  # divide by 1 - s x
        prev = c + s * prev
        out.append(prev)
    return tuple(out)


def test_block_series_are_the_fraction_recursion_in_ints():
    for s in range(1, 9):
        for N in range(13):
            got = _block_series(s, N)
            assert got == fraction_block_series(s, N), (s, N)
            assert all(type(c) is int for c in got), (s, N)


def set_partitions(labels):
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1:]


def test_inverse_chern_B_is_product_over_blocks():
    # c(B_d)^{-1} = sum over set partitions P of prod_S D_S g_|S|(psihat_S)
    g = 3
    for d in range(1, 5):
        for N in range(6):
            expect = {}
            for part in set_partitions(tuple(range(1, d + 1))):
                blocks = sorted(part)
                base = sum(len(b) - 1 for b in blocks)
                for exps in itertools.product(range(N + 1), repeat=len(blocks)):
                    if base + sum(exps) > N:
                        continue
                    coeff = Fraction(1)
                    for block, t in zip(blocks, exps):
                        coeff *= _block_series(len(block), N)[t]
                    mono = BlockMonomial(d, tuple(blocks), exps)
                    expect[mono] = kl_scalar(g, coeff)
            got = pc_inverse(chern_B(g, d, N), N)
            assert got == PointedClass(g, d, expect), (d, N)


def test_theorem5_matches_pointed_ring_pushforward():
    # the block formula against eps_*(c(F_d)) built through block monomials
    for g in range(2, 11):
        for d in range(1, 5):
            for k in range(1, 5):
                target = rank_F(g, d) + 2 * k
                if target < 0 or target - d > 4:
                    continue
                assert theorem5_class(g, d, k) == pushed_chern(g, d, target), (g, d, k)


def test_theorem5_large_d_is_fast():
    for g, d, k in ((8, 7, 4), (14, 10, 5)):
        start = time.perf_counter()
        rel = theorem5_class(g, d, k)
        assert time.perf_counter() - start < 1.0
        assert rel.homogeneous_degrees() == [g - 2 * d - 1 + 2 * k]
        assert kl_is_kappa_only(lambda_to_kappa(rel))


def test_relation_recursion_depth_does_not_grow_with_d():
    # the block series and E_n fill their caches in ascending order, so a
    # low recursion limit is enough at any d; a fresh process keeps the
    # caches cold
    script = (
        "import sys\n"
        "from sqtaut.relations import _block_series, prop8_relation, theorem5_class\n"
        "sys.setrecursionlimit(100)\n"
        "assert len(_block_series(200, 3)) == 4\n"
        "assert theorem5_class(2, 150, 150).homogeneous_degrees() == [1]\n"
        "assert prop8_relation(2, 150, 0, 0, 300).is_zero\n"
    )
    src = os.path.dirname(os.path.dirname(sqtaut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_theorem5_stable_range_relations_vanish():
    # In degree <= g/3 the kappa ring of M_g has no relations (Harer
    # stability with Madsen-Weiss), so every relation there is 0 once
    # lambdas are eliminated; checked up to d = 10, where the pointed
    # ring route is out of reach.
    count = 0
    for g in range(2, 15):
        for d in range(1, 11):
            for k in range(1, d + 2):
                degree = g - 2 * d - 1 + 2 * k
                if rank_F(g, d) + 2 * k < 0 or not 0 <= degree <= g // 3:
                    continue
                assert lambda_to_kappa(theorem5_class(g, d, k)).is_zero, (g, d, k)
                count += 1
    assert count > 100


def test_theorem5_below_degree_zero_is_zero():
    # Chern degree 2 on 3 light points pushes below degree 0
    assert theorem5_class(4, 3, 1) == kl_zero(4)
    assert pushed_chern(4, 3, 2) == kl_zero(4)


def test_relation_series_live_in_relations():
    # one series engine: `relations` reads only the ring layers, `curve`
    # imports no private name, and no other module defines a series helper
    package = os.path.dirname(sqtaut.__file__)
    trees = {}
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())

    def imports(module):
        return [node for node in ast.walk(trees[module])
                if isinstance(node, (ast.Import, ast.ImportFrom))]

    local = {node.module for node in imports("relations")
             if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"rings", "kappa_lambda"}
    assert not any(alias.name.startswith("sqtaut") for node in imports("relations")
                   if isinstance(node, ast.Import) for alias in node.names)
    assert not [alias.name for node in imports("curve") for alias in node.names
                if alias.name.startswith("_")]
    for helper in ("_block_series", "_pushed_partition", "_meeting_series",
                   "_with_parts", "_kappa_monomial"):
        homes = [module for module, tree in trees.items()
                 if any(isinstance(node, ast.FunctionDef) and node.name == helper
                        for node in ast.walk(tree))]
        assert homes == ["relations"], helper


def kappa_partitions(r, largest=None):
    """Partitions of r, parts nonincreasing."""
    if r == 0:
        yield ()
        return
    for part in range(min(r, largest or r), 0, -1):
        for rest in kappa_partitions(r - part, part):
            yield (part,) + rest


def test_with_parts_adds_one_part_and_keeps_parts_nonincreasing():
    for r in range(9):
        for p in kappa_partitions(r):
            extended = _with_parts(p, 10)
            assert extended[0] == p and len(extended) == 11 - r
            for t, q in enumerate(extended[1:], 1):
                assert all(x >= y for x, y in zip(q, q[1:])), (p, t)
                assert sorted(q) == sorted(p + (t,)), (p, t)


def test_kappa_monomial_is_the_canonical_rings_monomial():
    count = 0
    for r in range(13):
        for p in kappa_partitions(r):
            want = ()
            for t in p:
                want = mono_mul(want, (((KAPPA, t), 1),))
            got = _kappa_monomial(p)
            assert got == want, p
            assert got == tuple(sorted(got)) and all(e >= 1 for _, e in got), p
            count += 1
    assert count == 272  # p(0) + ... + p(12)


def test_relation_work_estimate_counts_the_table_partitions(monkeypatch):
    # theorem5_class(24, 12, 11) builds E_1..E_12 in 78 table products over
    # at most the partitions of 0..21 into at most 12 parts (as many as the
    # relation's terms), writes each term out for 8 more steps, and builds
    # g_1..g_12 in 66 products of series of length 23
    parts = sum(1 for r in range(22) for p in kappa_partitions(r) if len(p) <= 12)
    assert parts == len(theorem5_class(24, 12, 11).coeffs) == 3319
    work = (78 + 8) * parts + 66 * 23 ** 2
    monkeypatch.setattr(relations, "MAX_WORK", work)
    assert theorem5_class(24, 12, 11)
    monkeypatch.setattr(relations, "MAX_WORK", work - 1)
    with pytest.raises(InputError, match=rf"^theorem5_class\(24, 12, 11\) needs an "
                                         rf"estimated {work:,} or more steps; "
                                         rf"the limit is {work - 1:,}$"):
        theorem5_class(24, 12, 11)


def test_prop8_work_estimate_counts_the_nonempty_meeting_products(monkeypatch):
    # written out product by product: the block series and the A_n take
    # products of series of length R + 2; Psi_{n,m} (m <= n <= d) takes
    # n - m + 1 products for each k <= m, of which those with k <= R + 2
    # are nonempty, of length R + 2 - k, and each counts one more step
    g, d, a, b, c = 16, 10, 3, 2, 4
    R = g - 2 * d - 2 + a + b + c
    meeting = sum((R + 2 - k) ** 2 + 1
                  for m in range(1, min(a, d) + 1) for n in range(m, d + 1)
                  for k in range(1, min(m, R + 2) + 1) for _ in range(n - m + 1))
    series = (d * (d - 1) // 2 + d * min(a, d)) * (R + 2) ** 2 + meeting
    parts = sum(1 for r in range(R + 1) for p in kappa_partitions(r) if len(p) <= d + 1)
    work = ((d + 1) * (d + 2) // 2 + 8) * parts + series
    monkeypatch.setattr(relations, "MAX_WORK", work)
    assert prop8_relation(g, d, a, b, c).homogeneous_degrees() == [R]
    monkeypatch.setattr(relations, "MAX_WORK", work - 1)
    with pytest.raises(InputError, match=rf"^prop8_relation\({g}, {d}, {a}, {b}, {c}\) "
                                         rf"needs an estimated {work:,} or more steps"):
        prop8_relation(g, d, a, b, c)


def test_relation_work_estimate_weighs_coefficient_digits():
    # the coefficients of g_s have about s log10 s digits
    for s in (50, 100, 200):
        digits = [len(str(abs(x))) for x in _block_series(s, 2)]
        assert all(1 <= n / (s * math.log10(s)) <= 1.15 for n in digits), (s, digits)
    # g_600: 1,666 digits, so each step of theorem5_class(1200, 600, 1)
    # weighs 1 + 1666^2 // 600^2 = 8; the estimate passes the limit with the
    # series and the table products over the partition ()
    weight = 1 + 1666 ** 2 // 600 ** 2
    work = weight * (600 * 599 // 2 * 3 ** 2 + 600 * 601 // 2 + 8)
    start = time.perf_counter()
    with pytest.raises(InputError, match=rf"^theorem5_class\(1200, 600, 1\) needs an "
                                         rf"estimated {work:,} or more steps"):
        theorem5_class(1200, 600, 1)
    assert time.perf_counter() - start < 0.5


def test_recorded_relation_calls_stay_under_the_work_limit():
    # the scaling calls that the README and the CI log time
    for args in ((20, 10, 9), (24, 12, 11), (30, 14, 13)):
        assert theorem5_class(*args).homogeneous_degrees() == [args[0] - 2 * args[1] - 1
                                                               + 2 * args[2]]
    for args in ((20, 8, 4, 3, 5), (16, 10, 3, 2, 4)):
        prop8_relation(*args)


def test_pushed_partition_tables_are_read_only():
    table = _pushed_partition(5, 3, 4)
    assert table and all(sum(p) <= 4 for p in table)
    with pytest.raises(TypeError):
        table[(1,)] = 0
    with pytest.raises(TypeError):
        table[()] = 0
    assert _pushed_partition(5, 3, 4) is table
