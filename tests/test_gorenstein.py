"""The lambda_g lambda_{g-1} evaluation as an oracle on the relation families.

epsilon: R^{g-2}(M_g) -> Q integrates against lambda_g lambda_{g-1}.  With
S(b) = sum over permutations tau of {1..m} of prod over the cycles c of
tau of kappa_{b(c)} (kappa_0 = 2g - 2), the pushforward of
psi_1^{b_1+1} ... psi_m^{b_m+1}, Getzler-Pandharipande give, for
sum(b) = g - 2,

    epsilon(S(b)) = (2g-3+m)! |B_2g| / (2^{2g-1} (2g)! prod_i (2 b_i + 1)!!).

The last point of a permutation is a fixed point or follows another, so
kappa_c S(b) = S(b + (c,)) - sum_j S(b with b_j += c): a recursion that
peels one kappa at a time.  The code computes none of this, so a relation
that pairs nonzero against some kappa monomial is wrong.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from sqtaut.kappa_lambda import lambda_to_kappa
from sqtaut.relations import prop8_relation, theorem5_class
from sqtaut.rings import bernoulli


@lru_cache(maxsize=None)
def socle(g, kappas, b=()):
    """epsilon(prod_i kappa_{kappas_i} S(b)), both tuples sorted."""
    if not kappas:
        den = 2 ** (2 * g - 1) * factorial(2 * g) * prod(prod(range(2 * x + 1, 0, -2)) for x in b)
        return factorial(2 * g - 3 + len(b)) * abs(bernoulli(2 * g)) / den
    *rest, c = kappas
    value = socle(g, tuple(rest), tuple(sorted(b + (c,))))
    for j in range(len(b)):
        value -= socle(g, tuple(rest), tuple(sorted(b[:j] + (b[j] + c,) + b[j + 1:])))
    return value


def partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        yield ()
    for part in range(min(n, top), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def pairs_to_zero(genus, coeffs):
    """Whether every degree part of a kappa polynomial of degree <= g - 2
    pairs to zero against every kappa monomial of the complementary degree."""
    by_degree = {}
    for mono, q in coeffs.items():
        kappas, scalar = [], q
        for (kind, index), exp in mono:
            assert kind == 0, "kappa-only"
            if index == 0:
                scalar *= (2 * genus - 2) ** exp
            else:
                kappas += [index] * exp
        by_degree.setdefault(sum(kappas), []).append((kappas, scalar))
    return all(sum(q * socle(genus, tuple(sorted(kappas + list(mu)))) for kappas, q in terms) == 0
               for r, terms in by_degree.items() if r <= genus - 2
               for mu in partitions(genus - 2 - r))


def test_socle_values():
    assert socle(2, ()) == Fraction(1, 5760)  # lambda_2 lambda_1 on M_2
    assert socle(3, (1,)) == 12 * Fraction(1, 1451520)  # kappa_1 = 12 lambda_1 on M_3


def family():
    for g in range(2, 9):
        for d in range(1, 5):
            for k in range(1, d + (g + 1) // 2 + 1):
                if 0 <= g - 2 * d - 1 + 2 * k <= g - 2:
                    yield g, theorem5_class(g, d, k)
        for d in range(1, 4):
            for a in range(3):
                for b in range(3):
                    for c in range(1, 2 * d - a - b + 1):
                        if g - 2 * d - 2 + a + b + c >= 0:
                            yield g, prop8_relation(g, d, a, b, c)


def test_relations_pair_to_zero_and_a_doubled_coefficient_does_not():
    seen = 0
    for g, rel in family():
        kappa = lambda_to_kappa(rel)
        assert pairs_to_zero(g, kappa.coeffs), (g, rel)
        seen += not kappa.is_zero
    assert seen > 100
    kappa = lambda_to_kappa(theorem5_class(8, 3, 2)).coeffs  # degree 5 of 6, 7 terms
    assert len(kappa) == 7
    for mono, q in kappa.items():
        assert not pairs_to_zero(8, {**kappa, mono: 2 * q}), mono
