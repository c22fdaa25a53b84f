"""Named verification checks over the whole calculus.

Each check re-derives one family of published values or identities from
scratch and compares exactly; there are no tolerances.  Checks are
addressed by id (or a short alias), run in a fixed order, and report a
machine-readable result.  The CLI's verify command and the acceptance
test suite both dispatch through this registry.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from time import perf_counter

from .conifold import conifold_F, conifold_N
from .curve import (
    cc_omega,
    cc_pullback,
    cc_sections_sum,
    cc_sigma,
    pi_push,
)
from .genus0 import intersect_M02d, poincare_Q02
from .kappa_lambda import (
    kappa_class,
    kl_scalar,
    kl_zero,
    lambda_class,
    lambda_to_kappa,
)
from .pairing import CertificateError, rank_certificate
from .pointed import (
    BlockMonomial,
    chern_F,
    epsilon_push,
    pc_delta_sym,
    pc_diagonal,
    pc_from_kl,
    pc_monomial,
    pc_mul,
    pc_psihat,
    pushed_chern,
)
from .relations import prop8_relation, rank_F, theorem5_class
from .rings import Frozen, InputError, series_mul


class CheckResult(Frozen):
    """Outcome of one named check, with its run time and the budget of
    its check, both in seconds."""

    _fields = ("check_id", "statement", "passed", "details", "elapsed", "budget")


class Check(Frozen):
    """A named check: `run()` returns (passed, details); `budget` is its
    documented runtime bound in seconds."""

    _fields = ("check_id", "aliases", "statement", "budget", "run")


# -- individual checks ----------------------------------------------------

def _check_betti():
    closed_form = [Fraction(1)]  # (1+t^2)^(d-1), coefficients of t^0..t^(2d-2)
    for d in range(1, 13):
        if poincare_Q02(d) != closed_form:
            return False, (f"strata sum differs from the closed form at d={d}",)
        closed_form = series_mul(closed_form, [1, 0, 1], 2 * d)
    return True, ("strata sums match (1+t^2)^(d-1) for d=1..12",)


def _check_intersect():
    checked = 0
    for d in range(1, 11):
        for x1 in range(d):
            x2 = d - 1 - x1
            got = intersect_M02d(d, x1, x2, (0,) * d)
            if got != comb(d - 1, x1):
                return False, (f"({d},{x1},{x2}) gives {got}",)
            checked += 1
    vanished = 0
    for d in range(2, 9):
        for x1 in range(d - 1):
            for j in range(d):
                y = [0] * d
                y[j] = 1
                if intersect_M02d(d, x1, d - 2 - x1, y) != 0:
                    return False, (f"positive light exponent at d={d} survives",)
                vanished += 1
    return True, (
        f"{checked} on-dimension integrals match binom(d-1, x1)",
        f"{vanished} integrals with a positive light exponent vanish",
    )


def _check_canonical_form():
    g = 5

    def mono(d, blocks_exps):
        blocks, exps = zip(*blocks_exps)
        return pc_monomial(g, d, BlockMonomial(d, blocks, exps))

    examples = [
        # psi-hat restricted to a diagonal attaches to the block
        (pc_mul(pc_psihat(g, 2, 1), pc_diagonal(g, 2, (1, 2))),
         mono(2, [((1, 2), 1)])),
        (pc_mul(pc_psihat(g, 2, 2), pc_diagonal(g, 2, (1, 2))),
         mono(2, [((1, 2), 1)])),
        # self-intersection excess: D^2 = -psih * D
        (pc_mul(pc_diagonal(g, 2, (1, 2)), pc_diagonal(g, 2, (1, 2))),
         -mono(2, [((1, 2), 1)])),
        # overlapping supports merge, one sign per excess unit
        (pc_mul(pc_diagonal(g, 3, (1, 2)), pc_diagonal(g, 3, (2, 3))),
         mono(3, [((1, 2, 3), 0)])),
        (pc_mul(pc_diagonal(g, 4, (1, 2)), pc_diagonal(g, 4, (3, 4))),
         mono(4, [((1, 2), 0), ((3, 4), 0)])),
        (pc_mul(pc_diagonal(g, 4, (1, 2, 3)), pc_diagonal(g, 4, (2, 3, 4))),
         -mono(4, [((1, 2, 3, 4), 1)])),
    ]
    for i, (got, expected) in enumerate(examples):
        if got != expected:
            return False, (f"rewrite example {i} fails: {got}",)

    labels = [c for size in (2, 3, 4) for c in combinations((1, 2, 3, 4), size)]
    gens = [pc_diagonal(g, 4, lab) for lab in labels]
    products = {
        (i, j): pc_mul(a, b)
        for i, a in enumerate(gens)
        for j, b in enumerate(gens)
    }
    triples = 0
    for i in range(len(gens)):
        for j in range(len(gens)):
            left = products[i, j]
            for k in range(len(gens)):
                if pc_mul(left, gens[k]) != pc_mul(gens[i], products[j, k]):
                    return False, (f"associativity fails at triple {(i, j, k)}",)
                triples += 1
    return True, (
        "6 rewrite examples hold",
        f"{triples} diagonal triples over four light points associate",
    )


def _check_push_expansion():
    count = 0
    for g in range(4, 9):
        psih1 = pc_psihat(g, 2, 1)
        shifted = pc_psihat(g, 2, 2) - pc_delta_sym(g, 2)
        for i1 in range(9):
            for i2 in range(9 - i1):
                lhs = epsilon_push(pc_mul(psih1 ** i1, shifted ** i2))
                rhs = (
                    -(2 ** i2 - 1) * kappa_class(g, i1 + i2 - 2)
                    + kappa_class(g, i1 - 1) * kappa_class(g, i2 - 1)
                )
                if lhs != rhs:
                    return False, (f"expansion fails at g={g}, ({i1},{i2})",)
                count += 1
    return True, (f"{count} pushforward expansions match at genus 4..8",)


def _closed_form_d2(g):
    out = kl_zero(g)
    for i in range(2, g):
        inner = kl_zero(g)
        for i1 in range(i + 1):
            inner = inner + kappa_class(g, i1 - 1) * kappa_class(g, i - i1 - 1)
        inner = inner - (2 ** (i + 1) - i - 2) * kappa_class(g, i - 2)
        out = out + Fraction((-1) ** i) * lambda_class(g, g - 1 - i) * inner
    return out


def _check_relation_d2():
    for g in range(4, 11):
        expected = _closed_form_d2(g)
        if (g - 1) % 2:
            expected = -expected
        if theorem5_class(g, 2, 1) != expected:
            return False, (f"closed form fails at genus {g}",)
    return True, ("d=2, k=1 classes match the closed form for genus 4..10",)


def _check_relation_genus6():
    rel = lambda_to_kappa(theorem5_class(6, 2, 1))
    k1 = kappa_class(6, 1)
    target = 25 * k1 ** 3 - 1080 * k1 * kappa_class(6, 2) + 15912 * kappa_class(6, 3)
    scale = rel.coefficient((((0, 3), 1),)) / 15912
    if scale == 0:
        return False, ("relation has no kappa_3 term",)
    if rel != scale * target:
        return False, ("relation is not proportional to the target",)
    return True, (f"genus-6 relation = ({scale}) * (25k1^3 - 1080k1k2 + 15912k3)",)


def _check_odd_shift():
    for g in range(2, 11):
        got = pushed_chern(g, 1, g - 1)
        expected = kl_zero(g)
        for j in range(g - 1):
            expected = expected + Fraction((-1) ** j) * lambda_class(g, j) * kappa_class(g, g - 2 - j)
        if got != expected or got.is_zero:
            return False, (f"odd-shift class fails at genus {g}",)
    return True, ("d=1 odd-shift classes match and are nonzero for genus 2..10",)


def _third_relation(g, d, k):
    r = rank_F(g, d)
    cF = chern_F(g, d, r + 2 * k + 1)
    inner = (
        pc_delta_sym(g, d).scale(2) * cF.degree_part(r + 2 * k)
        + cF.degree_part(r + 2 * k + 1).scale(d + g - 1)
    )
    return epsilon_push(inner)


def _check_section_calculus():
    for g, d in ((3, 1), (4, 3), (5, 4), (7, 2)):
        s = cc_sections_sum(g, d)
        w = cc_omega(g, d)
        psi_sum = sum(
            (pc_psihat(g, d, i) for i in range(1, d + 1)),
            pc_from_kl(g, d, kl_zero(g)),
        )
        table = [
            (pi_push(s), pc_from_kl(g, d, kl_scalar(g, d))),
            (pi_push(w), pc_from_kl(g, d, kl_scalar(g, 2 * g - 2))),
            (pi_push(s * w), psi_sum),
            (pi_push(s * s), pc_delta_sym(g, d).scale(2) - psi_sum),
        ]
        for i, (got, expected) in enumerate(table):
            if got != expected:
                return False, (f"table entry {i} fails at (g,d)=({g},{d})",)
    identities = 0
    for d in range(1, 5):
        for g in range(max(2, d - 1), 10):
            lhs = prop8_relation(g, d, 1, 1, 2) + prop8_relation(g, d, 2, 0, 2)
            if lhs != 2 * _third_relation(g, d, 1):
                return False, (f"sum identity fails at (g,d)=({g},{d})",)
            identities += 1
    return True, (
        "pushforward table reproduced at four (g,d) pairs",
        f"{identities} sum identities hold for d<=4, genus<=9",
    )


def _check_pairing():
    total = 0
    largest = 0
    for d in range(1, 6):
        for k in range(6):
            try:
                cert = rank_certificate(d, k)
            except CertificateError as exc:
                return False, (f"certificate fails at (d,k)=({d},{k}): {exc}",)
            if not cert.full_rank:
                return False, (f"no full-rank verdict at (d,k)=({d},{k})",)
            if sum(b.size for b in cert.blocks) != cert.size:
                return False, (f"block sizes disagree at (d,k)=({d},{k})",)
            total += 1
            largest = max(largest, cert.size)
    if largest != 772:
        return False, (f"largest matrix has {largest} rows, expected 772",)
    return True, (
        f"{total} certificates issued for d<=5, k<=5",
        "largest matrix is 772x772",
    )


def _check_conifold():
    series = conifold_F(13)
    # series in v = (t/2)^2, as coefficient lists
    half = [Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(14)]
    sine_sq = series_mul(half, half, 13)
    f_series = [series.constant_term] + [
        series.N1(g) * Fraction(4) ** g for g in range(1, 14)
    ]
    if series_mul(f_series, sine_sq, 13) != [1] + [0] * 13:
        return False, ("series product differs from t^2 below order t^28",)
    frozen = ((1, Fraction(1, 12)), (2, Fraction(1, 240)), (3, Fraction(1, 6048)))
    for g, value in frozen:
        if series.N1(g) != value:
            return False, (f"N_{g},1 = {series.N1(g)}, expected {value}",)
    if series.constant_term != 1:
        return False, (f"constant term is {series.constant_term}",)
    if any(series.N1(g) <= 0 for g in range(1, 13)):
        return False, ("a coefficient through genus 12 is not positive",)
    scaled = 0
    for g in range(1, 13):
        for d in range(1, 6):
            expected = series.N1(g) * Fraction(d) ** (2 * g - 3)
            if conifold_N(g, d, series) != expected:
                return False, (f"scaling law fails at (g,d)=({g},{d})",)
            scaled += 1
    if conifold_N(1, 2, series) != series.N1(1) / 2:
        return False, ("N_{1,2} is not half of N_{1,1}",)
    if conifold_N(2, 3, series) != 3 * series.N1(2):
        return False, ("N_{2,3} is not 3 N_{2,1}",)
    if conifold_N(3, 3, series) != 27 * series.N1(3):
        return False, ("N_{3,3} is not 27 N_{3,1}",)
    return True, (
        "series inverse identity holds through t^26",
        f"{scaled} scaling values match d^(2g-3) N_g1",
    )


def _random_blocks(rng, d):
    """A random canonical (block, exponent) list on d light points."""
    labels = list(range(1, d + 1))
    rng.shuffle(labels)
    blocks = []
    i = 0
    while i < d:
        size = rng.randint(1, d - i)
        blocks.append(tuple(sorted(labels[i:i + size])))
        i += size
    return sorted(
        zip(blocks, (rng.randint(0, 3) for _ in blocks)),
        key=lambda pe: pe[0][0],
    )


def _random_monomial(rng, g, d):
    blocks, exps = zip(*_random_blocks(rng, d))
    return pc_monomial(g, d, BlockMonomial(d, blocks, exps))


def _check_properties():
    rng = random.Random(20260822)
    g = 4

    for _ in range(300):
        d = rng.randint(2, 6)
        pairs = _random_blocks(rng, d)
        wide = [i for i, (b, _) in enumerate(pairs) if len(b) > 1]
        if len(pairs) > 1 and (not wide or rng.random() < 0.5):
            pairs.reverse()  # blocks out of least-element order
        else:
            i = rng.choice(wide)  # labels inside one block out of order
            pairs[i] = (pairs[i][0][::-1], pairs[i][1])
        blocks, exps = zip(*pairs)
        try:
            BlockMonomial(d, blocks, exps)
        except InputError:
            continue
        return False, (f"non-canonical blocks {blocks} were accepted",)

    triples = 0
    for _ in range(1000):
        d = rng.randint(1, 6)
        a, b, c = (_random_monomial(rng, g, d) for _ in range(3))
        ab = pc_mul(a, b)
        if ab != pc_mul(b, a):
            return False, (f"commutativity fails: {a} * {b}",)
        if pc_mul(ab, c) != pc_mul(a, pc_mul(b, c)):
            return False, (f"associativity fails: {a}, {b}, {c}",)
        triples += 1

    for _ in range(200):
        d = rng.randint(2, 6)
        a, b = _random_monomial(rng, g, d), _random_monomial(rng, g, d)
        image = list(range(1, d + 1))
        rng.shuffle(image)
        perm = dict(zip(range(1, d + 1), image))
        if pc_mul(a, b).relabel(perm) != pc_mul(a.relabel(perm), b.relabel(perm)):
            return False, ("product is not relabeling-equivariant",)
        if epsilon_push(a.relabel(perm)) != epsilon_push(a):
            return False, ("pushforward is not relabeling-invariant",)

    for _ in range(150):
        d = rng.randint(1, 5)
        p = _random_monomial(rng, g, d)
        q = _random_monomial(rng, g, d)
        base = rng.choice([
            cc_sigma(g, d, rng.randint(1, d)),
            cc_omega(g, d) ** rng.randint(1, 2),
            cc_sections_sum(g, d) * cc_omega(g, d),
        ])
        x = base.scale(q)
        if pi_push(cc_pullback(p) * x) != pc_mul(p, pi_push(x)):
            return False, ("projection formula fails",)

    # even Chern characters of the Hodge bundle vanish after elimination
    gg = 9
    e = [kl_scalar(gg, 1)] + [lambda_class(gg, i) for i in range(1, 9)]
    p_power = {}
    for n in range(1, 9):
        acc = Fraction((-1) ** (n - 1) * n) * e[n]
        for i in range(1, n):
            acc = acc + Fraction((-1) ** (i - 1)) * e[i] * p_power[n - i]
        p_power[n] = acc
    for n in (2, 4, 6, 8):
        if not lambda_to_kappa(p_power[n]).is_zero:
            return False, (f"even Chern character of degree {n} survives",)

    return True, (
        "300 non-canonical block orders rejected",
        f"{triples} random triples commute and associate",
        "200 relabelings equivariant, 150 projection cases hold",
        "even Chern characters vanish through degree 8",
    )


# -- registry -------------------------------------------------------------

CHECKS = (
    Check(
        "betti",
        ("lemma4",),
        "The strata-sum Poincare polynomial of the two-pointed degree-d "
        "chain space equals (1+t^2)^(d-1) for every d up to 12.",
        1.0,
        _check_betti,
    ),
    Check(
        "intersect",
        (),
        "The point-forgetting recursion for two-heavy-point integrals with "
        "up to 10 light points matches binom(d-1, x1) in every "
        "dimension-correct case and vanishes whenever a light cotangent "
        "exponent is positive.",
        1.0,
        _check_intersect,
    ),
    Check(
        "canonical-form",
        (),
        "The psi-hat and diagonal rewriting identities hold on worked "
        "examples, and products of diagonal generators over four light "
        "points are associative for all 1331 triples.",
        1.0,
        _check_canonical_form,
    ),
    Check(
        "push-expansion",
        (),
        "Pushing forward psih_1^i1 (psih_2 - Delta)^i2 from two light "
        "points gives kappa_{i1-1} kappa_{i2-1} - (2^i2 - 1) "
        "kappa_{i1+i2-2} for all i1+i2 <= 8 at genus 4 through 8.",
        5.0,
        _check_push_expansion,
    ),
    Check(
        "relation-d2",
        (),
        "The d=2, k=1 relation class equals, up to the parity sign, the "
        "alternating lambda-kappa closed form sum_i (-1)^i lambda_{g-1-i} "
        "(sum_{i1+i2=i} kappa_{i1-1} kappa_{i2-1} - (2^(i+1)-i-2) "
        "kappa_{i-2}) for genus 4 through 10.",
        10.0,
        _check_relation_d2,
    ),
    Check(
        "relation-genus6",
        ("genus6",),
        "After eliminating lambda classes, the genus-6, d=2 relation is a "
        "nonzero rational multiple of 25 kappa_1^3 - 1080 kappa_1 kappa_2 "
        "+ 15912 kappa_3.",
        5.0,
        _check_relation_genus6,
    ),
    Check(
        "odd-shift",
        (),
        "The d=1 class in one degree above the bundle rank equals "
        "sum_j (-1)^j lambda_j kappa_{g-2-j} and is nonzero for genus 2 "
        "through 10.",
        5.0,
        _check_odd_shift,
    ),
    Check(
        "section-calculus",
        (),
        "The fiberwise pushforward sends s to d, omega to 2g-2, s*omega to "
        "the psi-hat sum, and s^2 to twice Delta minus the psi-hat sum; "
        "and the a+b=2, c=2 relations sum to twice the pushforward of "
        "2 Delta c_{r+2} + (d+g-1) c_{r+3} for d <= 4, genus <= 9.",
        30.0,
        _check_section_calculus,
    ),
    Check(
        "pairing",
        (),
        "Every pairing matrix with d <= 5, k <= 5 is block-triangular with "
        "diagonal blocks diagonal of entries prod(t_i + 1), shorter rows "
        "proven zero against longer columns, hence full rank.",
        30.0,
        _check_pairing,
    ),
    Check(
        "conifold",
        (),
        "The local series satisfies F(t) (2 sin(t/2))^2 = t^2 exactly "
        "through t^26, has N_{1,1} = 1/12, N_{2,1} = 1/240, N_{3,1} = "
        "1/6048, and obeys N_{g,d} = d^(2g-3) N_{g,1} for g <= 12, "
        "d <= 5.",
        1.0,
        _check_conifold,
    ),
    Check(
        "properties",
        (),
        "Block monomials with unsorted blocks or block order are rejected; "
        "block products commute and "
        "associate on 1000 random monomial triples with up to 6 light "
        "points; products and pushforwards are relabeling-equivariant; "
        "the fiberwise pushforward satisfies the projection formula; and "
        "even-degree Chern characters of the Hodge bundle vanish after "
        "lambda elimination through degree 8.",
        60.0,
        _check_properties,
    ),
)


def lookup(name: str) -> Check:
    """Find a check by id or alias; raise InputError if unknown."""
    for check in CHECKS:
        if name == check.check_id or name in check.aliases:
            return check
    known = ", ".join(c.check_id for c in CHECKS)
    raise InputError(f"unknown check {name!r}; known checks: {known}")


def run_check(check: Check) -> CheckResult:
    start = perf_counter()
    passed, details = check.run()
    elapsed = perf_counter() - start
    return CheckResult(check.check_id, check.statement, passed, tuple(details), elapsed,
                       check.budget)


def run_all(only: str | None = None) -> list:
    """Run every check, or just the one named by `only`."""
    selected = CHECKS if only is None else (lookup(only),)
    return [run_check(c) for c in selected]
