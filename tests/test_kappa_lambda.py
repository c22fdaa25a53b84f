"""kappa/lambda polynomial ring and the lambda elimination homomorphism."""

import random
from fractions import Fraction

import pytest

from sqtaut.kappa_lambda import (
    KAPPA,
    LAMBDA,
    _lambda_table,
    chern_E_dual,
    kappa_class,
    kl_is_kappa_only,
    kl_one,
    kl_scalar,
    kl_zero,
    lambda_class,
    lambda_to_kappa,
)
from sqtaut.rings import GradedPoly, InputError, bernoulli, poly_mul


# -- oracle: closed-form elementary symmetric functions in power sums -----
# e1 = p1, e2 = (p1^2 - p2)/2, e3 = (p1^3 - 3 p1 p2 + 2 p3)/6,
# e4 = (p1^4 - 6 p1^2 p2 + 3 p2^2 + 8 p1 p3 - 6 p4)/24.

def power_sum(genus, k):
    if k % 2 == 0:
        return kl_zero(genus)
    return (bernoulli(k + 1) / (k + 1)) * kappa_class(genus, k)


def oracle_lambda(genus, i):
    p1 = power_sum(genus, 1)
    p2 = power_sum(genus, 2)
    p3 = power_sum(genus, 3)
    p4 = power_sum(genus, 4)
    if i == 1:
        return p1
    if i == 2:
        return Fraction(1, 2) * (p1 ** 2 - p2)
    if i == 3:
        return Fraction(1, 6) * (p1 ** 3 - 3 * p1 * p2 + 2 * p3)
    if i == 4:
        return Fraction(1, 24) * (
            p1 ** 4 - 6 * p1 ** 2 * p2 + 3 * p2 ** 2 + 8 * p1 * p3 - 6 * p4
        )
    raise AssertionError


def test_lambda_images_match_closed_forms():
    for g in (4, 6, 9):
        for i in (1, 2, 3, 4):
            assert lambda_to_kappa(lambda_class(g, i)) == oracle_lambda(g, i)


def test_lambda_images_frozen_small_cases():
    # frozen from the closed-form oracle
    g = 6
    k1 = kappa_class(g, 1)
    k3 = kappa_class(g, 3)
    assert lambda_to_kappa(lambda_class(g, 1)) == Fraction(1, 12) * k1
    assert lambda_to_kappa(lambda_class(g, 2)) == Fraction(1, 288) * k1 ** 2
    assert lambda_to_kappa(lambda_class(g, 3)) == (
        Fraction(1, 10368) * k1 ** 3 - Fraction(1, 360) * k3
    )


def test_kappa_only_polynomials_unchanged():
    g = 5
    p = 3 * kappa_class(g, 2) ** 2 + kappa_class(g, 1) - kl_scalar(g, 7)
    assert lambda_to_kappa(p) == p
    assert kl_is_kappa_only(p)


def test_kappa_special_indices():
    g = 4
    assert kappa_class(g, -1) == 0
    assert kappa_class(g, -3) == 0
    assert kappa_class(g, 0) == kl_scalar(g, 2 * g - 2)
    assert kappa_class(g, 0, 2) == kl_scalar(g, (2 * g - 2) ** 2)
    assert lambda_class(g, 0) == kl_one(g)


def test_lambda_index_bounds():
    with pytest.raises(InputError):
        lambda_class(3, 4)
    with pytest.raises(InputError):
        lambda_class(3, -1)
    for make in (kl_zero, kl_one, lambda g: kl_scalar(g, 5),
                 lambda g: kappa_class(g, 1), lambda g: lambda_class(g, 1)):
        with pytest.raises(InputError):
            make(1)


def random_kl(rng, g, with_lambda=True):
    p = kl_scalar(g, rng.randint(-3, 3))
    for _ in range(rng.randint(0, 4)):
        t = kl_scalar(g, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3)):
            if with_lambda and rng.random() < 0.5:
                t = t * lambda_class(g, rng.randint(1, min(g, 4)))
            else:
                t = t * kappa_class(g, rng.randint(1, 4))
        p = p + t
    return p


def test_lambda_to_kappa_is_ring_homomorphism_fuzz():
    rng = random.Random(41)
    g = 5
    for _ in range(150):
        a = random_kl(rng, g)
        b = random_kl(rng, g)
        assert lambda_to_kappa(a * b) == lambda_to_kappa(a) * lambda_to_kappa(b)
        assert lambda_to_kappa(a + b) == lambda_to_kappa(a) + lambda_to_kappa(b)


def test_lambda_to_kappa_preserves_homogeneous_degree():
    g = 6
    for i in range(1, g + 1):
        img = lambda_to_kappa(lambda_class(g, i))
        assert img.homogeneous_degrees() in ([i], [])
    p = lambda_class(g, 2) * kappa_class(g, 3)
    assert lambda_to_kappa(p).homogeneous_degrees() == [5]


def test_even_chern_character_components_vanish():
    # Newton's identities the other way: p_n = e1 p_{n-1} - e2 p_{n-2} + ...
    # + (-1)^{n-1} n e_n; substituting the kappa-images of e must kill every
    # even-degree power sum.
    g = 9
    e = [kl_one(g)] + [lambda_to_kappa(lambda_class(g, i)) for i in range(1, g + 1)]
    p = [kl_zero(g)]
    for n in range(1, 9):
        acc = kl_zero(g)
        for i in range(1, n):
            term = e[i] * p[n - i]
            acc = acc + (term if i % 2 else -term)
        lead = Fraction(n) * e[n]
        acc = acc + (lead if n % 2 else -lead)
        p.append(acc)
    for n in (2, 4, 6, 8):
        assert p[n] == 0
    for n in (1, 3, 5, 7):
        assert p[n] == power_sum(g, n)


def test_chern_E_dual_shape():
    g = 4
    c = chern_E_dual(g, 10)
    expect = (
        kl_one(g)
        - lambda_class(g, 1)
        + lambda_class(g, 2)
        - lambda_class(g, 3)
        + lambda_class(g, 4)
    )
    assert c == expect
    assert chern_E_dual(g, 2) == kl_one(g) - lambda_class(g, 1) + lambda_class(g, 2)
    assert chern_E_dual(g, 0) == kl_one(g)


def test_genus_mismatch_rejected():
    with pytest.raises(InputError):
        _ = kappa_class(4, 1) + kappa_class(5, 1)


# -- oracle: the lambda table by Newton's identities, as built before the
# images became genus-free: e_n = (1/n) sum_i (-1)^{i-1} e_{n-i} p_i with
# full polynomial products.

def newton_lambda_table(genus):
    p = [kl_zero(genus)] + [power_sum(genus, k) for k in range(1, genus + 1)]
    e = [kl_one(genus)]
    for n in range(1, genus + 1):
        acc = kl_zero(genus)
        for i in range(1, n + 1):
            term = e[n - i] * p[i]
            acc = acc + (term if i % 2 else -term)
        e.append(Fraction(1, n) * acc)
    return tuple(e[1:])


def test_lambda_table_matches_newton_identities():
    for g in range(2, 15):
        assert _lambda_table(g) == newton_lambda_table(g), g


def test_lambda_images_are_genus_free():
    # the image of lambda_n has the same coefficients at every genus >= n
    for n in range(1, 17):
        first = _lambda_table(max(n, 2))[n - 1].coeffs
        for g in range(max(n, 2), 25):
            assert _lambda_table(g)[n - 1].coeffs == first, (n, g)


def test_mumford_relation_in_degrees_up_to_genus():
    # ch(E + E^vee) has no part in positive degree, so c(E) c(E^vee) = 1;
    # in degrees <= g only lambda_1..lambda_g occur, so this holds for the
    # kappa images without Newton's identities
    for g in range(2, 17):
        chern_E = kl_one(g)
        for i in range(1, g + 1):
            chern_E = chern_E + lambda_class(g, i)
        product = poly_mul(chern_E, chern_E_dual(g, g), g)
        assert lambda_to_kappa(product) == kl_one(g), g


# -- oracle: the per-call rule of lambda_to_kappa before its images were
# cached by lambda part: each lambda^e factor maps to table[i-1] ** e, and
# the images of the factors are multiplied.

def per_call_lambda_to_kappa(p):
    table = _lambda_table(p.genus)
    out = kl_zero(p.genus)
    for mono, coeff in p.coeffs.items():
        kappas = tuple(f for f in mono if f[0][0] == KAPPA)
        term = GradedPoly(p.genus, {kappas: coeff})
        for (kind, i), e in mono:
            if kind == LAMBDA:
                term = term * table[i - 1] ** e
        out = out + term
    return out


def partitions(n, largest):
    """Partitions of n into parts <= largest, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def lambda_monomial(genus, parts):
    out = kl_one(genus)
    for i in parts:
        out = out * lambda_class(genus, i)
    return out


def test_lambda_monomials_match_per_call_rule():
    g = 10
    for n in range(11):
        for parts in partitions(n, g):
            p = lambda_monomial(g, parts)
            assert lambda_to_kappa(p) == per_call_lambda_to_kappa(p), parts


def test_mixed_monomials_match_per_call_rule():
    g = 10
    rng = random.Random(7)
    for _ in range(60):
        p = random_kl(rng, g)
        assert lambda_to_kappa(p) == per_call_lambda_to_kappa(p)
    p = (kappa_class(g, 2) * lambda_class(g, 3) ** 2 * lambda_class(g, 1)
         - Fraction(5, 3) * kappa_class(g, 1) ** 2 * lambda_class(g, 4))
    assert lambda_to_kappa(p) == per_call_lambda_to_kappa(p)


def test_multi_factor_images_are_genus_free():
    parts = (3, 2, 2, 1)
    six = lambda_to_kappa(lambda_monomial(6, parts))
    nine = lambda_to_kappa(lambda_monomial(9, parts))
    assert six.coeffs and six.coeffs == nine.coeffs
    assert six.homogeneous_degrees() == [8]


def test_large_lambda_powers_need_little_stack():
    # lambda_n^e splits in halves, so the recursion depth grows with log e
    g = 3
    p = lambda_class(g, 1, 700) * lambda_class(g, 2, 333) * kappa_class(g, 3)
    assert lambda_to_kappa(p) == per_call_lambda_to_kappa(p)
    assert lambda_to_kappa(p).homogeneous_degrees() == [1369]
