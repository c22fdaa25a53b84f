"""Universal-curve section calculus, fiber integration, and the mixed
section/omega relation generator."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from sqtaut.curve import (
    OMEGA,
    SIGMA,
    CurveClass,
    cc_mul,
    cc_omega,
    cc_pullback,
    cc_scalar,
    cc_sections_sum,
    cc_sigma,
    cc_zero,
    pi_push,
)
from sqtaut.kappa_lambda import chern_E_dual, kappa_class, kl_scalar, lambda_to_kappa
from sqtaut.pointed import (
    BlockMonomial,
    chern_F,
    epsilon_push,
    pc_delta_sym,
    pc_diagonal,
    pc_from_kl,
    pc_monomial,
    pc_one,
    pc_psihat,
    pc_zero,
)
from sqtaut import relations
from sqtaut.relations import _meeting_series, prop8_relation, rank_F, theorem5_class
from sqtaut.rings import InputError


G, D = 4, 3

# d = 5 points of the oracle grid, cheap enough in the pointed ring
D5_POINTS = [(8, 5, 1, 1, 3), (10, 5, 1, 1, 1)]


def psihat_sum(g, d):
    out = pc_zero(g, d)
    for j in range(1, d + 1):
        out = out + pc_psihat(g, d, j)
    return out


def test_section_rewrite_rules():
    s1 = cc_sigma(G, D, 1)
    s2 = cc_sigma(G, D, 2)
    w = cc_omega(G, D)
    assert s1 * s1 == s1.scale(-pc_psihat(G, D, 1))
    assert s1 * s2 == cc_sigma(G, D, 1).scale(pc_diagonal(G, D, (1, 2)))
    assert s2 * s1 == s1 * s2
    assert w * s1 == s1.scale(pc_psihat(G, D, 1))
    assert w * w == cc_pullback(pc_one(G, D), 2)


def test_pushforward_table():
    # pi_*(s) = d, pi_*(omega) = 2g-2, pi_*(s*omega) = sum psihat_j,
    # pi_*(s^2) = -sum psihat_j + 2*Delta
    for g, d in ((3, 1), (4, 3), (5, 4)):
        s = cc_sections_sum(g, d)
        w = cc_omega(g, d)
        assert pi_push(s) == pc_one(g, d).scale(d)
        assert pi_push(w) == pc_one(g, d).scale(2 * g - 2)
        assert pi_push(s * w) == psihat_sum(g, d)
        expect = -psihat_sum(g, d) + pc_delta_sym(g, d).scale(2)
        assert pi_push(s * s) == expect


def test_pushforward_of_bare_pullback_vanishes():
    p = pc_psihat(G, D, 2)
    assert pi_push(cc_pullback(p)).is_zero
    assert pi_push(cc_scalar(G, D, 5)).is_zero


def test_pushforward_omega_powers():
    w = cc_omega(G, D)
    assert pi_push(w ** 2) == pc_one(G, D).scale(kappa_class(G, 1))
    assert pi_push(w ** 3) == pc_one(G, D).scale(kappa_class(G, 2))


def test_projection_formula_fuzz():
    # pi_push(pullback(p) * x) = p * pi_push(x)
    rng = random.Random(4242)
    s = cc_sections_sum(G, D)
    w = cc_omega(G, D)
    for _ in range(60):
        x = (s ** rng.randint(0, 2)) * (w ** rng.randint(0, 2))
        p = pc_psihat(G, D, rng.randint(1, D), rng.randint(0, 2))
        assert pi_push(x.scale(p)) == p * pi_push(x)


def test_sd_symmetry_of_section_pushforwards():
    # pi_*(s^a omega^b) is invariant under relabeling light points
    rng = random.Random(12)
    for a, b in itertools.product(range(4), range(4)):
        if a + b > 6 or a + b == 0:
            continue
        s = cc_sections_sum(G, D)
        w = cc_omega(G, D)
        pushed = pi_push(s ** a * w ** b)
        for _ in range(4):
            vals = list(range(1, D + 1))
            rng.shuffle(vals)
            perm = dict(zip(range(1, D + 1), vals))
            assert pushed.relabel(perm) == pushed


def test_curve_class_ring_axioms_fuzz():
    rng = random.Random(3113)
    gens = [
        cc_sigma(G, D, 1),
        cc_sigma(G, D, 3),
        cc_omega(G, D),
        cc_pullback(pc_psihat(G, D, 2)),
        cc_scalar(G, D, Fraction(1, 2)),
    ]
    for _ in range(150):
        x = rng.choice(gens)
        y = rng.choice(gens)
        z = rng.choice(gens)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_prop8_rejects_bad_parameters():
    with pytest.raises(InputError):
        prop8_relation(6, 2, 0, 1, 0)
    with pytest.raises(InputError):
        prop8_relation(6, 2, 0, 1, -2)
    with pytest.raises(InputError):
        prop8_relation(6, 0, 0, 1, 2)
    with pytest.raises(InputError):
        prop8_relation(2, 4, 0, 1, 1)  # Chern index g-d-1+c = -2


def test_prop8_009_reduces_to_even_shift_relation():
    # (a,b,c) = (0,1,2k): the bracket contributes the mirror of term one;
    # total = 2(2g-2) * theorem5_class
    for g, d, k in ((6, 1, 1), (6, 2, 1), (7, 2, 1), (8, 3, 1)):
        got = prop8_relation(g, d, 0, 1, 2 * k)
        expect = (2 * (2 * g - 2)) * theorem5_class(g, d, k)
        assert got == expect


def third_relation(g, d, k):
    """eps_*(2*Delta*c_{r+2k} + (d+g-1)*c_{r+2k+1})."""
    r = rank_F(g, d)
    cF = chern_F(g, d, r + 2 * k + 1)
    inner = (
        pc_delta_sym(g, d).scale(2) * cF.degree_part(r + 2 * k)
        + cF.degree_part(r + 2 * k + 1).scale(d + g - 1)
    )
    return epsilon_push(inner)


def test_prop8_sum_identity():
    # prop8(1,1,2k) + prop8(2,0,2k) = 2 * third_relation, d <= 4, k <= 2
    cases = []
    for d in range(1, 5):
        for k in (1, 2):
            for g in (max(2, d + 1), 7):
                if rank_F(g, d) + 2 * k < 0 or g < 2:
                    continue
                cases.append((g, d, k))
    for g, d, k in sorted(set(cases)):
        lhs = prop8_relation(g, d, 1, 1, 2 * k) + prop8_relation(g, d, 2, 0, 2 * k)
        rhs = 2 * third_relation(g, d, k)
        assert lhs == rhs, (g, d, k)


def literal_prop8(g, d, a, b, c):
    """The two-term formula of the relations module docstring, as written."""
    r = rank_F(g, d)
    N = g - d - 2 + a + b + c
    top = max(r + c, N)
    cF = chern_F(g, d, top)
    c_minus = pc_zero(g, d).truncate(top)
    for k in range(top + 1):
        c_minus = c_minus + cF.degree_part(k).scale((-1) ** k)
    s = cc_sections_sum(g, d)
    wb = cc_omega(g, d) ** b
    term1 = pi_push(s ** a * wb) * cF.degree_part(r + c)
    bracket = (pi_push((s - 1) ** a * wb) * c_minus).degree_part(N)
    return epsilon_push(term1 + (-bracket if r % 2 else bracket))


def pushed_product_prop8(g, d, a, b, c):
    """The relation as one pushed product in the pointed ring,
    eps_*([pi_*((s^a + (-1)^c (s+1)^a) omega^b) * c(F_d)]_N)."""
    N = g - d - 2 + a + b + c
    s = cc_sections_sum(g, d)
    sign = -1 if c % 2 else 1
    pushed = pi_push((s ** a + sign * (s + 1) ** a) * cc_omega(g, d) ** b)
    return epsilon_push((pushed * chern_F(g, d, N)).degree_part(N))


def single_block_sum(g, d, j, b):
    """sum over nonempty S of surj(j, |S|) (-1)^{j-|S|} D_S psihat_S^{j-|S|+b}."""
    out = pc_zero(g, d)
    for size in range(1, min(j, d) + 1):
        surj = sum((-1) ** i * comb(size, i) * (size - i) ** j
                   for i in range(size + 1))
        for S in itertools.combinations(range(1, d + 1), size):
            blocks = sorted([S] + [(x,) for x in range(1, d + 1) if x not in S])
            exps = tuple(j - size + b if block == S else 0 for block in blocks)
            mono = BlockMonomial(d, tuple(blocks), exps)
            out = out + pc_monomial(g, d, mono).scale((-1) ** (j - size) * surj)
    return out


def test_section_power_pushforward_is_single_block_sum():
    # Prop. 8 step 1 of the relations module docstring: pi_*(s^j omega^b)
    for g, d in ((3, 1), (4, 2), (4, 3), (5, 4)):
        s = cc_sections_sum(g, d)
        w = cc_omega(g, d)
        for j, b in itertools.product(range(1, 5), range(3)):
            assert pi_push(s ** j * w ** b) == single_block_sum(g, d, j, b), (g, d, j, b)


def test_meeting_series_are_ints():
    for n in range(7):
        for m in range(n + 1):
            for N in range(9):
                series = _meeting_series(n, m, N)
                assert len(series) == N + 1
                assert all(type(q) is int for q in series), (n, m, N)

def test_prop8_matches_pushed_product_oracle():
    # D5_POINTS reach d = 5, past the grid
    points = [(g, d, a, b, c)
              for g in (3, 4)
              for d, a, b, c in itertools.product(range(1, 5), range(4), range(3),
                                                  range(1, 4))]
    points += D5_POINTS
    checked = nonzero = 0
    for g, d, a, b, c in points:
        N = g - d - 2 + a + b + c
        if rank_F(g, d) + c < 0 or N < 0:
            with pytest.raises(InputError):
                prop8_relation(g, d, a, b, c)
            continue
        got = prop8_relation(g, d, a, b, c)
        assert got == pushed_product_prop8(g, d, a, b, c), (g, d, a, b, c)
        checked += 1
        nonzero += not got.is_zero
    assert checked > 100 and nonzero > 40
    assert any(not prop8_relation(*p).is_zero for p in D5_POINTS)


def test_prop8_stable_range_relations_vanish():
    # In degree <= g/3 the kappa ring of M_g has no relations (Harer
    # stability with Madsen-Weiss), so every relation there is 0 once
    # lambdas are eliminated; the code assumes nothing of the kind.
    count = nonzero = 0
    for g in range(2, 15):
        for d, a, b, c in itertools.product(range(1, 8), range(4), range(3),
                                            range(1, 5)):
            degree = g - 2 * d - 2 + a + b + c
            if rank_F(g, d) + c < 0 or not 0 <= degree <= g // 3:
                continue
            rel = prop8_relation(g, d, a, b, c)
            assert lambda_to_kappa(rel).is_zero, (g, d, a, b, c)
            count += 1
            nonzero += not rel.is_zero
    assert count > 800 and nonzero > 300


def test_prop8_large_d_is_fast():
    start = time.perf_counter()
    rel = prop8_relation(16, 10, 3, 2, 4)
    assert time.perf_counter() - start < 1.0
    assert rel.homogeneous_degrees() == [3]
    # degree 3 <= g/3, so it vanishes once lambdas are eliminated
    assert lambda_to_kappa(rel).is_zero


def test_prop8_matches_literal_two_term_formula():
    # covers a = b = 0 (zero class), a + b = 1 and a + b >= 2
    seen = set()
    for g in (3, 5):
        for d, a, b, c in itertools.product(range(1, 4), range(4), range(3),
                                            range(1, 4)):
            N = g - d - 2 + a + b + c
            if rank_F(g, d) + c < 0 or N < 0:
                continue
            got = prop8_relation(g, d, a, b, c)
            assert got == literal_prop8(g, d, a, b, c), (g, d, a, b, c)
            seen.add(min(a + b, 2))
            if a + b == 0:
                assert got.is_zero
    assert seen == {0, 1, 2}


def test_prop8_degree():
    # relation degree is g - 2d - 2 + a + b + c
    rel = prop8_relation(7, 2, 1, 1, 2)
    assert rel.homogeneous_degrees() == [5]
    rel2 = prop8_relation(6, 1, 0, 1, 2)
    assert rel2.homogeneous_degrees() == [5]


def record_tables(monkeypatch) -> list:
    """The (genus, n, maxdeg) of every E_n table that relations reads from
    now on; the recursion inside the tables reads through the record too."""
    calls = []
    original = relations._pushed_partition

    def recorded(genus, n, maxdeg):
        calls.append((genus, n, maxdeg))
        return original(genus, n, maxdeg)
    monkeypatch.setattr(relations, "_pushed_partition", recorded)
    return calls


def test_prop8_with_a_0_and_odd_c_is_zero_and_reads_no_table(monkeypatch):
    # w_0 = 1 + (-1)^c vanishes and no other w_j exists, so every form is 0
    calls = record_tables(monkeypatch)
    for g, d, b, c in ((8, 3, 2, 1), (8, 3, 0, 3), (12, 4, 3, 5), (5, 1, 1, 1)):
        assert prop8_relation(g, d, 0, b, c).is_zero, (g, d, b, c)
    assert calls == []
    assert not prop8_relation(8, 3, 0, 2, 2).is_zero  # even c: w_0 = 2
    assert calls


def test_prop8_with_b_0_reads_no_table_of_all_points(monkeypatch):
    # A_0 = w_0 x^0 pushes to kappa_{-1} = 0, so E_d is never read
    calls = record_tables(monkeypatch)
    for g, d, a, c in ((8, 3, 2, 1), (8, 4, 2, 1), (7, 3, 3, 2), (6, 2, 1, 2)):
        R = g - 2 * d - 2 + a + c
        rel = prop8_relation(g, d, a, 0, c)
        assert rel == pushed_product_prop8(g, d, a, 0, c), (g, d, a, c)
        assert (g, d, R) not in calls and (g, d - 1, R) in calls, (g, d, a, c)


def push_products_term_by_term(genus, terms, maxdeg):
    """sum weight * eps(series) * E_rest with every coefficient written out,
    zeros included: the definition _push_products computes."""
    acc = {}
    for weight, series, rest in terms:
        coeffs = [series[1] * (2 * genus - 2), *series[2:]]
        for p, c in relations._pushed_partition(genus, rest, maxdeg).items():
            for t in range(maxdeg - sum(p) + 1):
                q = tuple(sorted(p + (t,), reverse=True)) if t else p
                acc[q] = acc.get(q, 0) + c * weight * coeffs[t]
    return {p: c for p, c in acc.items() if c}


def test_push_products_skips_zero_coefficients_only(monkeypatch):
    genus, maxdeg = 7, 5
    shapes = {  # coefficients of x^0..x^6; x^0 never pushes
        "first": [9, 0, 2, -3, 1, 4, 5],
        "interior": [0, 3, 0, -2, 0, 0, 7],
        "trailing": [1, -1, 4, 0, 0, 0, 0],
        "zero": [6, 0, 0, 0, 0, 0, 0],
        "full": [2, 1, -2, 3, 5, -1, 2],
    }
    rng = random.Random(5)
    for i in range(20):
        shapes[f"random-{i}"] = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(7)]
    for name, series in shapes.items():
        for rest in range(4):
            terms = [(3, series, rest), (2, shapes["full"], 1)]
            want = push_products_term_by_term(genus, terms, maxdeg)
            assert relations._push_products(genus, terms, maxdeg) == want, (name, rest)
    calls = record_tables(monkeypatch)
    assert relations._push_products(genus, [(5, shapes["zero"], 9)], maxdeg) == {}
    assert calls == []


def test_curve_class_leaves_caller_tables_alone():
    terms = {
        (OMEGA, 0): pc_one(G, D),
        (OMEGA, 1): pc_zero(G, D),
        (SIGMA, 2): pc_zero(G, D),
        (SIGMA, 3): pc_psihat(G, D, 1),
    }
    x = CurveClass(G, D, terms)
    assert len(terms) == 4
    assert set(x.terms) == {(OMEGA, 0), (SIGMA, 3)}
    terms.clear()
    assert x == cc_scalar(G, D, 1) + cc_sigma(G, D, 3) * cc_pullback(pc_psihat(G, D, 1))
    with pytest.raises(TypeError):
        x.terms[(OMEGA, 2)] = pc_one(G, D)


def test_scale_keeps_the_cap_of_a_capped_factor():
    # chern_E_dual(4, 1) = 1 - lambda_1 is trusted only through degree 1
    c = cc_omega(4, 2) * cc_pullback(pc_psihat(4, 2, 1))
    product = c * chern_E_dual(4, 1)
    assert product.cap == 1
    assert product == cc_omega(4, 2) * cc_pullback(pc_psihat(4, 2, 1))
    assert product.terms[(OMEGA, 1)].cap == 1


def test_class_cap_keeps_a_tighter_coefficient_cap():
    # a pulled-back 1 - lambda_1 is trusted through degree 1, under any
    # looser class cap
    dual = pc_from_kl(4, 2, chern_E_dual(4, 1))
    capped = CurveClass(4, 2, {(SIGMA, 1): dual}, 5)
    assert capped.terms[(SIGMA, 1)].cap == 1
    assert pi_push(capped).cap == 1 == pi_push(CurveClass(4, 2, {(SIGMA, 1): dual})).cap
