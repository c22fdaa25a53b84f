"""Serialization round-trips and pretty/JSON agreement."""

import json
import random
from fractions import Fraction

import pytest

from sqtaut.genus0 import poincare_Q02
from sqtaut.jsonio import (
    MAX_EXPONENT,
    SCHEMA,
    emit_kl,
    emit_pointed,
    emit_poly,
    emit_rational,
    parse_kl,
    parse_kl_pretty,
    parse_pointed,
    parse_poly,
    parse_rational,
)
from sqtaut.kappa_lambda import (
    kappa_class,
    kl_scalar,
    kl_zero,
    lambda_class,
    lambda_to_kappa,
)
from sqtaut.pointed import chern_F
from sqtaut.relations import theorem5_class
from sqtaut.rings import InputError


def random_kl(rng, g):
    p = kl_zero(g)
    for _ in range(rng.randint(0, 5)):
        t = kl_scalar(g, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                t = t * lambda_class(g, rng.randint(1, min(4, g)))
            else:
                t = t * kappa_class(g, rng.randint(1, 4))
        p = p + t
    return p


def test_kl_round_trip_fuzz():
    rng = random.Random(8)
    for _ in range(100):
        g = rng.randint(2, 7)
        p = random_kl(rng, g)
        payload = emit_kl(p)
        assert payload["schema"] == SCHEMA
        assert parse_kl(payload) == p
        # survives an actual JSON text round trip
        assert parse_kl(json.loads(json.dumps(payload))) == p


def test_kl_emission_deterministic():
    p = theorem5_class(6, 2, 1)
    assert emit_kl(p) == emit_kl(p)
    assert json.dumps(emit_kl(p)) == json.dumps(emit_kl(p))


def test_pointed_round_trip():
    for g, d, n in ((5, 2, 3), (6, 3, 2), (4, 1, 4)):
        p = chern_F(g, d, n)
        payload = emit_pointed(p)
        assert parse_pointed(json.loads(json.dumps(payload))) == p


def test_provenance_attached():
    rel = theorem5_class(6, 2, 1)
    payload = emit_kl(
        rel, provenance={"theorem": "theorem5", "params": {"g": 6, "d": 2, "k": 1}}
    )
    assert payload["provenance"]["theorem"] == "theorem5"
    assert parse_kl(payload) == rel


def test_poly_round_trip():
    p = poincare_Q02(5)
    payload = emit_poly(p, "t")
    assert payload["coefficients"] == {"0": "1", "2": "4", "4": "6", "6": "4", "8": "1"}
    assert parse_poly(json.loads(json.dumps(payload))) == p
    assert parse_poly(emit_poly([0, Fraction(1, 3)], "v")) == [0, Fraction(1, 3)]


def test_rational_round_trip():
    payload = emit_rational(Fraction(-7, 3))
    assert parse_rational(payload) == Fraction(-7, 3)


def test_pretty_parse_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        g = rng.randint(2, 6)
        p = random_kl(rng, g)
        assert parse_kl_pretty(str(p), g) == p


def test_pretty_and_json_agree_on_relation():
    rel = lambda_to_kappa(theorem5_class(6, 2, 1))
    from_pretty = parse_kl_pretty(str(rel), 6)
    from_json = parse_kl(emit_kl(rel))
    assert from_pretty == from_json == rel


def test_parse_rejects_wrong_schema():
    with pytest.raises(InputError):
        parse_kl({"schema": "other", "kind": "kl-class", "genus": 2, "terms": []})
    with pytest.raises(InputError):
        parse_pointed({"schema": SCHEMA, "kind": "kl-class", "genus": 2, "terms": []})
    with pytest.raises(InputError):
        parse_kl_pretty("", 4)


def _read_value(value):
    return parse_rational({"schema": SCHEMA, "kind": "rational", "value": value})


def test_rational_strings_read_as_fraction_reads_them():
    # every string form Fraction accepts gives its value, every other
    # string an InputError; non-strings still go to Fraction
    rng = random.Random(25)
    alphabet = "0123456789_./eE+- \t\n١x"
    corpus = ["1.5", "-1_0.2_5E-1_0", " .5 ", "1.", "+.5e+2", "1_000/3",
              "١/٢", "1/0", "1 /2", "1.d", "1e", ".", "", "1__0"]
    corpus += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
               for _ in range(3000)]
    for value in corpus + [0.1, True, 7, None, float("nan"), float("inf"), [1]]:
        try:
            expected = Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            with pytest.raises(InputError, match="^bad rational"):
                _read_value(value)
        else:
            assert _read_value(value) == expected, value


def test_long_decimal_and_exponent_strings_are_read():
    ones = (10 ** 5000 - 1) // 9  # 5,000 ones, more than int() reads by default
    assert _read_value("1" * 5000 + ".5") == ones + Fraction(1, 2)
    assert _read_value("-" + "1" * 5000 + "e2") == -100 * ones
    assert _read_value("0." + "0" * 4999 + "1") == Fraction(1, 10 ** 5000)
    assert _read_value("1" * 5000 + "/" + "1" * 5000) == 1


def test_exponents_are_read_up_to_the_bound():
    # both the regex path and the Fraction fallback (underscores) stop at
    # MAX_EXPONENT, before the power is built
    assert MAX_EXPONENT == 10_000
    assert _read_value("1e10000") == 10 ** 10_000
    assert _read_value("-2.5E-10000") == Fraction(-25, 10 ** 10_001)
    assert _read_value("3e000000000000000000002 ") == 300
    for value in ("1e10000000", "1e-10000000", "1e1_000_000", "1e10001",
                  "-1.5e+10001", "1e" + "9" * 5000, " 2E1_0001\n"):
        with pytest.raises(InputError, match="^bad rational .*: exponent magnitude over 10000$"):
            _read_value(value)


def kl_payload(g, **coeff):
    return {"schema": SCHEMA, "kind": "kl-class", "genus": g,
            "terms": [{"coeff": {"rational": "1", **coeff}}]}


def test_generator_exponents_are_read_up_to_the_bound():
    # kappa_0^N is the scalar (2g-2)^N, so an exponent asks for its digits
    g, over = 2, MAX_EXPONENT + 1
    assert parse_kl(kl_payload(g, kappa={"0": MAX_EXPONENT})) == kl_scalar(g, 2 ** MAX_EXPONENT)
    assert parse_kl(kl_payload(g, **{"lambda": {"1": 4000}})) == lambda_class(g, 1, 4000)
    assert parse_kl_pretty(f"kappa_1^{MAX_EXPONENT}", g) == kappa_class(g, 1, MAX_EXPONENT)
    pointed = {"schema": SCHEMA, "kind": "pointed-class", "genus": g, "d": 1,
               "terms": [{"partition": [[1]], "exponents": [1],
                          "coeff": {"rational": "1", "lambda": {"2": over}}}]}
    for read in (lambda: parse_kl(kl_payload(g, kappa={"0": over})),
                 lambda: parse_kl(kl_payload(g, kappa={"3": str(10 ** 100)})),
                 lambda: parse_kl(kl_payload(g, **{"lambda": {"1": over}})),
                 lambda: parse_pointed(pointed)):
        with pytest.raises(InputError, match="^(kappa|lambda) exponent over 10000$"):
            read()
    with pytest.raises(InputError, match="^exponent over 10000$"):
        parse_kl_pretty(f"3/4*kappa_0^{over}", g)


def test_genus_is_read_up_to_the_bound():
    # kappa_0 is the scalar 2g - 2, so a genus of many digits asks for as
    # many digits per kappa_0 factor; the bound holds before any scalar
    big = MAX_EXPONENT
    assert parse_kl(kl_payload(big, kappa={"0": 2})) == kl_scalar(big, (2 * big - 2) ** 2)
    pointed = {"schema": SCHEMA, "kind": "pointed-class", "d": 1,
               "terms": [{"partition": [[1]], "exponents": [0],
                          "coeff": {"rational": "1/0", "kappa": {"0": MAX_EXPONENT}}}]}
    for genus in (MAX_EXPONENT + 1, 10 ** 21, str(10 ** 200)):
        for read in (lambda: parse_kl(kl_payload(genus, rational="1/0",
                                                 kappa={"0": MAX_EXPONENT})),
                     lambda: parse_pointed({**pointed, "genus": genus})):
            with pytest.raises(InputError, match="^genus over 10000$"):
                read()


def test_parse_kl_keeps_no_zero_and_refuses_malformed_coefficients():
    # outside input reaches a class only through the validating constructor:
    # a zero coefficient, or terms that cancel, leave no entry in the table,
    # and the stored values are Fractions
    g = 4
    for payload in (kl_payload(g, rational="0", kappa={"1": 2}),
                    kl_payload(g, rational="0/7"),
                    {**kl_payload(g, kappa={"2": 1}),
                     "terms": [{"coeff": {"rational": "3", "kappa": {"2": 1}}},
                               {"coeff": {"rational": "-3", "kappa": {"2": 1}}}]}):
        p = parse_kl(payload)
        assert p == kl_zero(g) and dict(p.coeffs) == {}
    p = parse_kl(kl_payload(g, rational="6/4", **{"lambda": {"2": 1}}))
    assert [type(c) for c in p.coeffs.values()] == [Fraction]
    assert dict(p.coeffs) == {(((1, 2), 1),): Fraction(3, 2)}
    for bad in ("1/0", "abc", "", "1/2/3", None, [1], {"p": 1}):
        with pytest.raises(InputError, match="^bad rational "):
            parse_kl(kl_payload(g, rational=bad, kappa={"1": 1}))
    for coeff in ({"kappa": {"1": 1}}, {"rational": "1", "kappa": {"x": 1}},
                  {"rational": "1", "kappa": {"1": 1.5}},
                  {"rational": "1", "lambda": {"5": 1}}, "1"):
        with pytest.raises(InputError):
            parse_kl({**kl_payload(g), "terms": [{"coeff": coeff}]})
