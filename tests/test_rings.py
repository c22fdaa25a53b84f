"""Exact core: scalar invariants, graded polynomial arithmetic, series ops,
Bernoulli numbers."""

import random
from fractions import Fraction
from math import ceil, comb, gcd, log2

import pytest

from sqtaut.kappa_lambda import kappa_class, kl_one, kl_zero, lambda_class
from sqtaut.rings import (
    DomainError,
    GradedPoly,
    InputError,
    Rational,
    _bernoulli_all,
    bernoulli,
    format_series,
    int_from_text,
    int_mul,
    int_text,
    iter_weak_compositions,
    mono_degree,
    mono_mul,
    poly_mul,
    rational_text,
    series_mul,
    set_partitions,
    truncated_inverse,
)

G = 3  # genus of the kappa/lambda polynomials below


def k(index=1, exp=1):
    return kappa_class(G, index, exp)


def lam(index=1, exp=1):
    return lambda_class(G, index, exp)


def x(exp=1):
    """x^exp as a coefficient list."""
    return [0] * exp + [1]


# -- oracle: Bernoulli recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0 ----------

def bernoulli_by_recurrence(up_to):
    b = [Fraction(1)]
    for n in range(1, up_to + 1):
        s = sum(Fraction(comb(n + 1, k)) * b[k] for k in range(n))
        b.append(-s / (n + 1))
    return b


def test_rational_is_exact_and_canonical():
    assert Rational is Fraction
    q = Rational(6, -4)
    assert q.denominator > 0
    assert gcd(abs(q.numerator), q.denominator) == 1
    assert Rational(0, 5) == Rational(0, 1)


def test_rational_canonical_under_arithmetic_fuzz():
    rng = random.Random(20260822)
    for _ in range(400):
        a = Rational(rng.randint(-40, 40), rng.randint(1, 40))
        b = Rational(rng.randint(-40, 40), rng.randint(1, 40))
        for v in (a + b, a - b, a * b):
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1
        if b != 0:
            v = a / b
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1


def test_poly_mul_truncates():
    one = kl_one(G)
    p = one + k()
    q = one - k()
    assert poly_mul(p, q, 2) == one - k(1, 2)
    r = one + k() + lam(2)
    assert poly_mul(r, p, 2) == one + 2 * k() + k(1, 2) + lam(2)
    assert poly_mul(r, p, 2).degree == 2
    assert poly_mul(lam(3), k(), 3).is_zero


def random_poly(rng, maxexp=3, nterms=5):
    """A random polynomial in kappa_1, kappa_2 and lambda_1..lambda_G."""
    gens = [(0, 1), (0, 2)] + [(1, i) for i in range(1, G + 1)]
    coeffs = {}
    for _ in range(rng.randint(0, nterms)):
        mono = []
        for gen in gens:
            exp = rng.randint(0, maxexp) if rng.random() < 0.4 else 0
            if exp:
                mono.append((gen, exp))
        coeffs[tuple(mono)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GradedPoly(G, coeffs)


def test_poly_mul_identity_random():
    rng = random.Random(7)
    one = kl_one(G)
    for _ in range(50):
        p = random_poly(rng)
        assert poly_mul(p, one, 10) == p.truncate(10)
        assert poly_mul(p, kl_zero(G), 10).is_zero


def test_truncated_inverse_examples():
    assert truncated_inverse([1], 5) == [1, 0, 0, 0, 0, 0]
    assert truncated_inverse([1, -1], 3) == [1, 1, 1, 1]
    assert truncated_inverse([1, -2], 2) == [1, 2, 4]
    assert truncated_inverse([1, 0, -1, 5, 7], 0) == [1]
    assert all(isinstance(c, Fraction) for c in truncated_inverse([1, 3], 4))


def test_truncated_inverse_requires_unit_constant():
    with pytest.raises(DomainError):
        truncated_inverse([2], 3)
    with pytest.raises(DomainError):
        truncated_inverse(x(), 3)
    with pytest.raises(DomainError):
        truncated_inverse([], 3)
    with pytest.raises(InputError):
        truncated_inverse([1], -1)


def random_series(rng, top, denominators):
    return [Fraction(1)] + [
        Fraction(rng.randint(-4, 4), rng.randint(1, denominators))
        for _ in range(top)
    ]


def test_inverse_is_involutive():
    rng = random.Random(11)
    for _ in range(30):
        p = random_series(rng, 4, 3)
        q = truncated_inverse(truncated_inverse(p, 6), 6)
        assert q == p + [0, 0]


def test_inverse_multiplies_to_one():
    rng = random.Random(13)
    for _ in range(30):
        p = random_series(rng, 5, 4)
        assert series_mul(p, truncated_inverse(p, 7), 7) == [1] + [0] * 7


def test_series_mul_truncates():
    assert series_mul([1, 1], [1, 1], 5) == [1, 2, 1]
    assert series_mul([1, 1], [1, 1], 1) == [1, 2]
    assert series_mul([1, 2, 3], [4, 5], 10) == [4, 13, 22, 15]
    assert series_mul([1, 2, 3], [4, 5], 0) == [4]
    assert series_mul([1, 2, 3], [4, 5], -1) == []
    assert series_mul([1, 2, 3], [4, 5], -3) == []
    assert format_series([1, 0, 3, 0, 1], "t") == "1 + 3*t^2 + t^4"
    assert format_series([0, Fraction(-1, 2), 1], "v") == "-1/2*v + v^2"
    assert format_series([0, 0], "t") == "0"


def test_series_mul_keeps_coefficient_type():
    ints = series_mul([1, 0, 2], (3, 4), 5)
    assert ints == [3, 4, 6, 8]
    assert all(type(c) is int for c in ints)
    fracs = series_mul([Fraction(0), Fraction(1, 2)], [Fraction(2), Fraction(0)], 4)
    assert fracs == [0, 1, 0]
    assert all(type(c) is Fraction for c in fracs)
    # slots that no product reaches keep 0 of the type of the first entries
    ints = series_mul([0, 0, 1], [0, 2], 3)
    assert ints == [0, 0, 0, 2] and all(type(c) is int for c in ints)
    for a, b in (([Fraction(0), 0, 1], [0, 2]), ([0, 0, 1], [Fraction(0), 2]),
                 ([], [Fraction(1), Fraction(2)]), ([Fraction(1), 3], [])):
        out = series_mul(a, b, 3)
        assert out == series_mul([int(c) for c in a], [int(c) for c in b], 3)
        assert all(type(c) is Fraction for c in out), (a, b)
    assert series_mul([], [1, 2], 3) == [0] and series_mul([], [], 3) == []


def test_int_mul_takes_ints_only():
    k1 = (((0, 1), 1),)
    a, b = {(): 2, k1: -3}, {k1: 5}
    assert int_mul(a, b, None) == {k1: 10, (((0, 1), 2),): -15}
    assert int_mul(a, b, 1) == {k1: 10}
    assert int_mul(a, {k1: 5, (): 0}, 0) == {}
    # a coefficient that is not an int is an error, never rounded
    for bad in (Fraction(7, 2), Fraction(3), 0.5):
        with pytest.raises(DomainError):
            int_mul(a, {k1: bad}, None)
        with pytest.raises(DomainError):
            int_mul({k1: bad}, b, None)

def test_ring_axioms_fuzz():
    # commutativity, associativity, distributivity: >= 1000 random triples
    rng = random.Random(990017)
    for _ in range(1000):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a


def test_degree_bookkeeping():
    p = k() * k(2)
    assert p.degree == 3
    assert (lam(2) * lam(3, 2)).degree == 8
    assert kl_zero(G).degree == -1
    assert (k() + k(3)).degree_part(3) == k(3)
    assert (k() + lam(3)).degree_part(3) == lam(3)
    assert (k() + k(3) + lam(1) * lam(2)).homogeneous_degrees() == [1, 3]
    assert (k() ** 3).coefficient((((0, 1), 3),)) == 1


def test_mismatched_generator_sets_rejected():
    # the generators of a polynomial are the kappa and lambda classes of
    # its genus; polynomials of different genera do not mix
    with pytest.raises(InputError):
        poly_mul(k(), kappa_class(G + 1, 1), 4)
    with pytest.raises(InputError):
        _ = k() + lambda_class(G + 1, 1)
    with pytest.raises(InputError):
        poly_mul(k(), 1, 4)
    assert k() != kappa_class(G + 1, 1)


def test_truncation_is_per_value_not_global():
    p = (kl_one(G) + k()).truncate(1)
    q = kl_one(G) + k()
    assert (p * q).coefficient((((0, 1), 2),)) == 0
    assert (q * q).coefficient((((0, 1), 2),)) == 1


def test_deterministic_term_order():
    p = lam(1) + k(2) + k(1) + kl_one(G) + k(1, 2) + lam(1) * k(1)
    assert [m for m, _ in p.terms()] == [
        (),
        (((0, 1), 1),),
        (((1, 1), 1),),
        (((0, 1), 2),),
        (((0, 1), 1), ((1, 1), 1)),
        (((0, 2), 1),),
    ]
    assert str(p) == (
        "1 + kappa_1 + lambda_1 + kappa_1^2 + kappa_1*lambda_1 + kappa_2"
    )


def nested_sort_key(m):
    """The earlier sort key of `GradedPoly.terms()`, (degree, ((gen, -exp),
    ...)), kept as the oracle of the flat one."""
    return (mono_degree(m), tuple((gen, -e) for gen, e in m))


def dict_mono_mul(m1, m2):
    """The product of two monomials through a dict and a sort."""
    acc = dict(m1)
    for gen, exp in m2:
        acc[gen] = acc.get(gen, 0) + exp
    return tuple(sorted(acc.items()))


def monomials(st, min_size, max_size):
    """Canonical kappa/lambda monomials of min_size..max_size factors,
    kinds mixed, indices 1..6, exponents 1..5."""
    return st.dictionaries(st.tuples(st.integers(0, 1), st.integers(1, 6)),
                           st.integers(1, 5), min_size=min_size, max_size=max_size
                           ).map(lambda acc: tuple(sorted(acc.items())))


def test_terms_order_matches_the_nested_key_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(monomials(st, 1, 4), unique=True, max_size=40))
    def check(ms):
        p = GradedPoly(6, {m: Fraction(i + 1) for i, m in enumerate(ms)})
        assert [m for m, _ in p.terms()] == sorted(ms, key=nested_sort_key)

    check()


KAPPA_1, KAPPA_2, KAPPA_3 = (((0, 1), 1),), (((0, 2), 1),), (((0, 3), 1),)
LAMBDA_1 = (((1, 1), 1),)


@pytest.mark.parametrize("m1,m2,want", [
    # a merge into an existing generator, on either side
    ((((0, 1), 2), ((0, 3), 1)), (((0, 3), 2),), (((0, 1), 2), ((0, 3), 3))),
    ((((0, 3), 2),), (((0, 1), 2), ((0, 3), 1)), (((0, 1), 2), ((0, 3), 3))),
    # insertion before, between and after the factors
    (KAPPA_2 + LAMBDA_1, KAPPA_1, KAPPA_1 + KAPPA_2 + LAMBDA_1),
    (KAPPA_1 + KAPPA_3, (((0, 2), 4),), KAPPA_1 + (((0, 2), 4),) + KAPPA_3),
    (KAPPA_1 + KAPPA_2, (((0, 5), 1),), KAPPA_1 + KAPPA_2 + (((0, 5), 1),)),
    # a lambda after kappas, and kappas before a lambda
    ((((0, 1), 1), ((0, 4), 2)), LAMBDA_1, (((0, 1), 1), ((0, 4), 2)) + LAMBDA_1),
    (LAMBDA_1, KAPPA_1 + KAPPA_2, KAPPA_1 + KAPPA_2 + LAMBDA_1),
    # the empty monomial on either side
    ((), KAPPA_1 + LAMBDA_1, KAPPA_1 + LAMBDA_1),
    (KAPPA_1 + LAMBDA_1, (), KAPPA_1 + LAMBDA_1),
    ((), (), ()),
    # both sides one factor
    (LAMBDA_1, KAPPA_2, KAPPA_2 + LAMBDA_1),
    (KAPPA_2, KAPPA_2, (((0, 2), 2),)),
    # two factors on both sides
    (KAPPA_1 + LAMBDA_1, KAPPA_1 + KAPPA_3, (((0, 1), 2),) + KAPPA_3 + LAMBDA_1),
])
def test_mono_mul_cases(m1, m2, want):
    assert mono_mul(m1, m2) == want == dict_mono_mul(m1, m2)


def test_mono_mul_matches_the_dict_route_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(monomials(st, 0, 4), monomials(st, 0, 4))
    def check(m1, m2):
        assert mono_mul(m1, m2) == dict_mono_mul(m1, m2)

    check()


def test_values_are_read_only():
    p = k() + lam(2)
    with pytest.raises(TypeError):
        p.coeffs[()] = Fraction(1)
    with pytest.raises(AttributeError):
        p.genus = 4
    source = {(((0, 1), 1),): Fraction(2)}
    q = GradedPoly(G, source)
    source.clear()
    assert q == 2 * k()


def test_bernoulli_frozen_values():
    # expected values computed by the recurrence oracle, frozen here
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_recurrence_oracle_up_to_200():
    oracle = bernoulli_by_recurrence(200)
    for n in range(2, 201, 2):
        assert bernoulli(n) == oracle[n]
    # the recurrence itself re-checked on the produced values
    for n in range(1, 201):
        assert sum(Fraction(comb(n + 1, k)) * oracle[k] for k in range(n + 1)) == 0


def test_ascending_bernoulli_calls_fill_the_cache_log_n_times():
    _bernoulli_all.cache_clear()
    for n in range(2, 201, 2):
        bernoulli(n)
    assert _bernoulli_all.cache_info().misses <= ceil(log2(200)) + 1


def test_bernoulli_rejects_bad_input():
    for bad in (0, 1, 3, 7, -2):
        with pytest.raises(InputError):
            bernoulli(bad)


def test_decimal_text_of_any_length():
    # CPython's default int <-> str limit is 4,300 digits
    rng = random.Random(7)
    for length in (1, 479, 480, 481, 4300, 4301, 9000, 20001):
        digits = str(rng.randint(1, 9)) + "".join(
            str(rng.randint(0, 9)) for _ in range(length - 1))
        n = 0
        for chunk in range(0, length, 400):  # an independent reading
            piece = digits[chunk:chunk + 400]
            n = n * 10 ** len(piece) + int(piece)
        assert int_from_text(digits) == n
        assert int_text(n) == digits and int_text(-n) == "-" + digits
    assert int_text(10 ** 5000) == "1" + "0" * 5000
    assert int_from_text("0" * 6000 + "12") == 12
    assert int_text(0) == "0"
    big = Fraction(-(10 ** 5000 + 1), 3 ** 9000)
    num, den = rational_text(big).split("/")
    assert Fraction(int_from_text(num[1:]), int_from_text(den)) == -big
    assert rational_text(Fraction(-3, 4)) == "-3/4" and rational_text(5) == "5"


# -- enumerators: the earlier recursive forms are the order oracles --------

def recursive_set_partitions(d, min_parts=1):
    """Every label tries each earlier part, then a new one; a branch is cut
    one level after it can no longer open enough parts."""
    def rec(x, parts):
        if len(parts) + d - x + 1 < min_parts:
            return
        if x > d:
            yield tuple(tuple(p) for p in parts)
            return
        for part in parts:
            part.append(x)
            yield from rec(x + 1, parts)
            part.pop()
        parts.append([x])
        yield from rec(x + 1, parts)
        parts.pop()

    yield from rec(1, [])


def recursive_weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_enumerators_keep_the_recursive_order():
    for d in range(1, 9):
        for m in range(-1, d + 2):
            assert list(set_partitions(d, m)) == list(recursive_set_partitions(d, m)), (d, m)
    for total in range(9):
        for parts in range(9):
            assert list(iter_weak_compositions(total, parts)) == list(
                recursive_weak_compositions(total, parts)), (total, parts)


def test_enumerators_do_not_recurse_per_label():
    # a label opening a part and a zero entry cost no stack frame, so
    # neither depth grows past the interpreter's limit with d
    assert list(set_partitions(3000, 3000)) == [tuple((j,) for j in range(1, 3001))]
    first = next(set_partitions(3000, 2999))
    assert first[0] == (1, 2) and len(first) == 2999
    assert list(iter_weak_compositions(0, 3000)) == [(0,) * 3000]
    ones = list(iter_weak_compositions(1, 3000))
    assert len(ones) == 3000 and ones[0][-1] == ones[-1][0] == 1
    with pytest.raises(InputError):
        next(set_partitions(0))
