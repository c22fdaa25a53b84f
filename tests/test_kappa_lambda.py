"""kappa/lambda polynomial ring and the lambda elimination homomorphism."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from sqtaut.jsonio import SCHEMA, parse_kl
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
from sqtaut.rings import (GradedPoly, InputError, accumulate, bernoulli, mono_mul,
                          poly_mul)


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


# -- oracle: lambda_to_kappa as a per-term Fraction loop, one product and
# one sum per image term, over images built by the same recursion on
# Fraction coefficients

@lru_cache(maxsize=None)
def fraction_image(part):
    if not part:
        return (((), Fraction(1)),)
    (_, n), e = part[-1]
    acc: dict = {}
    if len(part) == 1 and e == 1:
        for k in range(1, n + 1, 2):
            q = bernoulli(k + 1) / ((k + 1) * n)
            lower = (((LAMBDA, n - k), 1),) if n > k else ()
            for m, c in fraction_image(lower):
                accumulate(acc, mono_mul(m, (((KAPPA, k), 1),)), q * c)
        return tuple(acc.items())
    if len(part) > 1:
        first, second = part[:-1], part[-1:]
    else:
        first, second = (((LAMBDA, n), e // 2),), (((LAMBDA, n), e - e // 2),)
    for m1, c1 in fraction_image(first):
        for m2, c2 in fraction_image(second):
            accumulate(acc, mono_mul(m1, m2), c1 * c2)
    return tuple(acc.items())


def fraction_lambda_to_kappa(p):
    acc: dict = {}
    for mono, coeff in p.coeffs.items():
        kappas = tuple(f for f in mono if f[0][0] == KAPPA)
        lambdas = tuple(f for f in mono if f[0][0] == LAMBDA)
        for m, q in fraction_image(lambdas):
            accumulate(acc, mono_mul(kappas, m), coeff * q)
    return GradedPoly(p.genus, acc)


def kl_payload(genus, coeffs):
    return {"schema": SCHEMA, "kind": "kl-class", "genus": genus,
            "terms": [{"coeff": c} for c in coeffs]}


MIXED_DENOMINATORS = [
    {"rational": "3/7", "lambda": {"1": 3, "2": 1}, "kappa": {"1": 1}},
    {"rational": "-5/12", "lambda": {"3": 2}},
    {"rational": "1/1001", "lambda": {"7": 1}},
    {"rational": "22/9", "kappa": {"2": 2}},
    {"rational": "-1/2", "lambda": {"2": 1, "5": 1}, "kappa": {"3": 1}},
    {"rational": "7/2", "lambda": {"1": 2}},
    {"rational": "-13/30", "lambda": {"4": 1, "1": 1}},
    {"rational": "1/3"},
]


def test_lambda_to_kappa_matches_fraction_loop_on_mixed_denominators():
    p = parse_kl(kl_payload(7, MIXED_DENOMINATORS))
    assert lambda_to_kappa(p) == fraction_lambda_to_kappa(p)
    rng = random.Random(14)
    for _ in range(40):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            coeff = {"rational": f"{rng.randint(-30, 30)}/{rng.randint(1, 400)}"}
            for name, top in (("kappa", 4), ("lambda", 7)):
                coeff[name] = {str(rng.randint(1, top)): rng.randint(1, 3)
                               for _ in range(rng.randint(0, 2))}
            coeffs.append(coeff)
        p = parse_kl(kl_payload(7, coeffs))
        assert lambda_to_kappa(p) == fraction_lambda_to_kappa(p), coeffs
    # terms that cancel: lambda_1 = kappa_1 / 12
    p = parse_kl(kl_payload(3, [{"rational": "12", "lambda": {"1": 1}},
                                {"rational": "-1", "kappa": {"1": 1}}]))
    assert lambda_to_kappa(p) == kl_zero(3) == fraction_lambda_to_kappa(p)


def test_lambda_to_kappa_is_additive_and_multiplicative_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    g = 6
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=60)
    factor = st.tuples(st.sampled_from([KAPPA, LAMBDA]), st.integers(1, 4),
                       st.integers(1, 3))
    term = st.tuples(coeff, st.lists(factor, max_size=3)).map(lambda t: kl_term(g, *t))
    kl_classes = st.lists(term, max_size=4).map(lambda ts: sum(ts, kl_zero(g)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kl_classes, kl_classes)
    def check(a, b):
        assert lambda_to_kappa(a + b) == lambda_to_kappa(a) + lambda_to_kappa(b)
        assert lambda_to_kappa(a * b) == lambda_to_kappa(a) * lambda_to_kappa(b)

    check()


def kl_term(genus, coeff, factors):
    """coeff times the (kind, index, exp) generator powers."""
    out = kl_scalar(genus, coeff)
    for kind, index, exp in factors:
        out = out * (kappa_class if kind == KAPPA else lambda_class)(genus, index, exp)
    return out


# -- the work bound of lambda elimination ------------------------------------

from sqtaut import kappa_lambda  # noqa: E402


def fresh_images(monkeypatch):
    """An empty image cache, as in a new process."""
    images = kappa_lambda._Images({(): (1, kappa_lambda._IMAGES[()][1])})
    monkeypatch.setattr(kappa_lambda, "_IMAGES", images)
    return images


BOUNDED_PARTS = [
    [(((LAMBDA, 7), 1),)],
    [(((LAMBDA, 3), 40),)],
    [(((LAMBDA, 5), 13),)],
    [(((LAMBDA, 2), 3), ((LAMBDA, 5), 2))],
    [(((LAMBDA, 1), 50), ((LAMBDA, 3), 1), ((LAMBDA, 4), 2))],
    [(((LAMBDA, n), 1),) for n in range(1, 16)],
    [(((LAMBDA, 3), 4),), (((LAMBDA, 3), 5),), (((LAMBDA, 1), 2), ((LAMBDA, 6), 1))],
]


@pytest.mark.parametrize("parts", BOUNDED_PARTS)
def test_image_work_bounds_the_term_products_built(monkeypatch, parts):
    """`_image_work` is at least the number of term products the images
    take to build from an empty cache: pairs multiplied, and terms summed
    into a single lambda_n."""
    images = fresh_images(monkeypatch)
    products = []
    int_mul, common_sum = kappa_lambda.int_mul, kappa_lambda._common_sum
    monkeypatch.setattr(kappa_lambda, "int_mul",
                        lambda a, b, cap: products.append(len(a) * len(b)) or int_mul(a, b, cap))
    monkeypatch.setattr(kappa_lambda, "_common_sum",
                        lambda terms: products.append(sum(len(t[3]) for t in terms))
                        or common_sum(terms))
    estimate = kappa_lambda._image_work(parts)
    kappa_lambda._fill_images(parts)
    assert set(parts) <= set(images)
    assert sum(products) <= estimate <= kappa_lambda.MAX_IMAGE_WORK


@pytest.mark.parametrize("n", [1, 7, 24])
def test_image_work_of_one_lambda_is_the_terms_it_sums(monkeypatch, n):
    """For lambda_n alone the estimate is exact: every partition of x into
    odd parts is a term of the image of lambda_x, and lambda_1..lambda_n
    sum exactly those terms."""
    fresh_images(monkeypatch)
    summed = []
    common_sum = kappa_lambda._common_sum
    monkeypatch.setattr(kappa_lambda, "_common_sum",
                        lambda terms: summed.append(sum(len(t[3]) for t in terms))
                        or common_sum(terms))
    parts = [(((LAMBDA, n), 1),)]
    estimate = kappa_lambda._image_work(parts)
    kappa_lambda._fill_images(parts)
    assert sum(summed) == estimate


@pytest.mark.parametrize("part,passes", [
    ((((LAMBDA, 60), 1),), True),
    ((((LAMBDA, 3), 600),), True),
    ((((LAMBDA, 69), 1),), False),
    # 336,772 term pairs, but of coefficients with thousands of digits
    ((((LAMBDA, 3), 1000),), False),
], ids=["lambda_60", "lambda_3^600", "lambda_69", "lambda_3^1000"])
def test_image_work_limit_lies_between_the_documented_images(part, passes):
    assert (kappa_lambda._image_work([part]) <= kappa_lambda.MAX_IMAGE_WORK) == passes


def test_lambda_elimination_is_weighed_only_on_a_cache_miss(monkeypatch):
    fresh_images(monkeypatch)
    weighed = []
    work = kappa_lambda._image_work
    monkeypatch.setattr(kappa_lambda, "_image_work", lambda parts: weighed.append(parts) or work(parts))
    p = lambda_class(6, 2) * lambda_class(6, 3) + lambda_class(6, 5) + kappa_class(6, 1)
    first = lambda_to_kappa(p)
    assert len(weighed) == 1
    assert sorted(weighed[0]) == sorted([(((LAMBDA, 2), 1), ((LAMBDA, 3), 1)), (((LAMBDA, 5), 1),)])
    assert lambda_to_kappa(p) == first and lambda_to_kappa(lambda_class(6, 5)) is not None
    assert len(weighed) == 1


def test_lambda_elimination_past_the_limit_builds_nothing(monkeypatch):
    """Every missing image of a call is weighed before any is built, and the
    call is refused with one line once their sum passes the limit."""
    images = fresh_images(monkeypatch)
    p = lambda_class(20, 3) ** 300 + lambda_class(20, 2)
    assert kappa_lambda._image_work([(((LAMBDA, 3), 300),)]) < kappa_lambda.MAX_IMAGE_WORK
    monkeypatch.setattr(kappa_lambda, "MAX_IMAGE_WORK", 100)
    with pytest.raises(InputError, match=r"^eliminating lambda_3\^300 and 1 other lambda "
                                         r"monomials needs an estimated [\d,]+ or more term "
                                         r"products; the limit is 100$"):
        lambda_to_kappa(p)
    assert list(images) == [()]
    with pytest.raises(InputError, match=r"^eliminating lambda_20 and 19 other lambda monomials"):
        kappa_lambda._lambda_table.__wrapped__(20)
    assert lambda_to_kappa(lambda_class(20, 2)) == Fraction(1, 288) * kappa_class(20, 1) ** 2
