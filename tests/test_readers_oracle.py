"""The table-building readers against the ring-arithmetic readers they
replaced.

`ring_parse_kl`, `ring_parse_pointed` and `ring_parse_kl_pretty` are the
earlier readers, copied literally with the constructors and helpers they
called: they build every class by one `GradedPoly` product per generator
factor and one whole-table `+` per term.  On a seeded corpus of valid and
malformed payloads the readers in `jsonio` must give the same value or the
same InputError message.
"""

import copy
import json
import random
from fractions import Fraction
from typing import Mapping

import pytest

from sqtaut.jsonio import (
    SCHEMA,
    emit_kl,
    emit_pointed,
    parse_kl,
    parse_kl_pretty,
    parse_pointed,
)
from sqtaut.kappa_lambda import KAPPA, LAMBDA, kl_one, kl_scalar, kl_zero
from sqtaut.pointed import BlockMonomial, PointedClass, chern_F
from sqtaut.relations import prop8_relation, theorem5_class
from sqtaut.rings import GENERATOR_NAMES, GradedPoly, InputError, SparseSum, accumulate


# -- the ring-arithmetic readers -------------------------------------------

def kappa_class(genus, index, exp=1):
    if genus < 2:
        raise InputError("genus must be >= 2")
    if exp < 0:
        raise InputError("negative exponent")
    if exp == 0:
        return kl_one(genus)
    if index < 0:
        return kl_zero(genus)
    if index == 0:
        return kl_scalar(genus, Fraction(2 * genus - 2) ** exp)
    return GradedPoly(genus, {(((KAPPA, index), exp),): Fraction(1)})


def lambda_class(genus, index, exp=1):
    if genus < 2:
        raise InputError("genus must be >= 2")
    if exp < 0:
        raise InputError("negative exponent")
    if not 0 <= index <= genus:
        raise InputError(f"lambda index {index} out of range for genus {genus}")
    if exp == 0 or index == 0:
        return kl_one(genus)
    return GradedPoly(genus, {(((LAMBDA, index), exp),): Fraction(1)})


_CLASSES = (kappa_class, lambda_class)


def _get(obj, key):
    try:
        return obj[key]
    except KeyError:
        raise InputError(f"missing {key!r}") from None


def _mapping(value, what):
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _int(value, what):
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def _rational(value):
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"bad rational {value!r}") from None


def _coeff_from_payload(genus, payload):
    payload = _mapping(payload, "coefficient")
    out = kl_scalar(genus, _rational(_get(payload, "rational")))
    for name, make in zip(GENERATOR_NAMES, _CLASSES):
        for idx, exp in _mapping(payload.get(name, {}), name).items():
            out = out * make(genus, _int(idx, f"{name} index"),
                             _int(exp, f"{name} exponent"))
    return out


def _check_header(payload, kind):
    _mapping(payload, "payload")
    if payload.get("schema") != SCHEMA:
        raise InputError(f"expected schema {SCHEMA!r}")
    if payload.get("kind") != kind:
        raise InputError(f"expected kind {kind!r}, got {payload.get('kind')!r}")


def _terms(payload):
    return [_mapping(t, "term") for t in _list(_get(payload, "terms"), "terms")]


def ring_parse_kl(payload):
    _check_header(payload, "kl-class")
    genus = _int(_get(payload, "genus"), "genus")
    out = kl_zero(genus)
    for term in _terms(payload):
        out = out + _coeff_from_payload(genus, _get(term, "coeff"))
    return out


def ring_parse_pointed(payload):
    _check_header(payload, "pointed-class")
    genus = _int(_get(payload, "genus"), "genus")
    d = _int(_get(payload, "d"), "d")
    acc = {}
    for term in _terms(payload):
        mono = BlockMonomial(
            d,
            tuple(
                tuple(_int(x, "label") for x in _list(b, "block"))
                for b in _list(_get(term, "partition"), "partition")
            ),
            tuple(_int(e, "exponent") for e in _list(_get(term, "exponents"), "exponents")),
        )
        accumulate(acc, mono, _coeff_from_payload(genus, _get(term, "coeff")))
    return PointedClass(genus, d, acc)


def ring_parse_kl_pretty(text, genus):
    text = text.strip()
    if not text:
        raise InputError("empty class text")
    if text == "0":
        return kl_zero(genus)
    normalized = text.replace(" - ", " + -").replace(" + ", "\x00")
    out = kl_zero(genus)
    for piece in normalized.split("\x00"):
        piece = piece.strip()
        sign = 1
        while piece.startswith("-"):
            sign = -sign
            piece = piece[1:].strip()
        coeff = Fraction(sign)
        factors = kl_scalar(genus, 1)
        for chunk in piece.split("*"):
            chunk = chunk.strip()
            if not chunk:
                raise InputError(f"empty factor in {piece!r}")
            head = chunk.split("^")[0]
            if head.replace("/", "").isdigit():
                coeff *= _rational(chunk)
                continue
            if "^" in chunk:
                name, exp_text = chunk.split("^", 1)
                exp = _int(exp_text, "exponent")
            else:
                name, exp = chunk, 1
            kind, _, idx_text = name.partition("_")
            if kind not in GENERATOR_NAMES or not idx_text.isdigit():
                raise InputError(f"bad generator {name!r}")
            make = _CLASSES[GENERATOR_NAMES.index(kind)]
            factors = factors * make(genus, int(idx_text), exp)
        out = out + coeff * factors
    return out


# -- the corpus --------------------------------------------------------------

JUNK = [None, True, False, -1, 0, 1, 2, 3, 7, 1.5, float("nan"), "", "x", "1",
        "01", "-1", "1/2", "1/0", "1.5", "1e3", " 2 ", "+3", "1_000", [], [1], {},
        {"1": 1}, {"x": 1}, {"1": -1}, {"0": 2}, {"-2": 1}, {"9": 1}]


def _mutate(rng, obj):
    """obj with one value replaced, one key dropped or one key added,
    somewhere in the tree."""
    obj = copy.deepcopy(obj)
    containers = []

    def walk(node):
        if isinstance(node, (dict, list)):
            containers.append(node)
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)

    walk(obj)
    node = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.random()
    if keys and action < 0.6:
        node[rng.choice(keys)] = copy.deepcopy(rng.choice(JUNK))
    elif keys and action < 0.8:
        key = rng.choice(keys)
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(["1", "01", "0", "-1", "kappa", "lambda", "x"])] = \
            copy.deepcopy(rng.choice(JUNK))
    else:
        node.append(copy.deepcopy(rng.choice(JUNK)))
    return obj


def _valid_kl_payloads():
    rng = random.Random(11)
    out = [emit_kl(theorem5_class(g, d, k))
           for g, d, k in ((2, 1, 1), (5, 2, 2), (7, 3, 2), (9, 2, 3))]
    out.append(emit_kl(prop8_relation(5, 2, 1, 1, 2)))
    for _ in range(40):
        g = rng.randint(2, 6)
        terms = []
        for _ in range(rng.randint(0, 6)):
            coeff = {"rational": str(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))}
            for name, low, top in (("kappa", -1, 5), ("lambda", 0, g)):
                if rng.random() < 0.7:
                    coeff[name] = {str(rng.randint(low, top)): rng.randint(0, 3)
                                   for _ in range(rng.randint(1, 3))}
            terms.append({"coeff": coeff})
        out.append({"schema": SCHEMA, "kind": "kl-class", "genus": g, "terms": terms})
    return out


def _valid_pointed_payloads():
    out = [emit_pointed(chern_F(g, d, n).degree_part(n))
           for g, d, n in ((3, 1, 2), (4, 2, 2), (5, 3, 3), (6, 2, 4))]
    payload = emit_pointed(chern_F(4, 2, 3))
    payload["terms"] += payload["terms"][:5]  # repeated monomials add up
    out.append(payload)
    return out


def _corpus(valid, seed, per_payload):
    rng = random.Random(seed)
    out = list(valid)
    for payload in valid:
        for _ in range(per_payload):
            bad = payload
            for _ in range(rng.randint(1, 2)):
                bad = _mutate(rng, bad)
            out.append(bad)
    return out


def outcome(parse, *args):
    """("value", text, value) or ("error", message) for an InputError."""
    try:
        value = parse(*args)
    except InputError as exc:
        return ("error", str(exc))
    return ("value", str(value), value)


def test_parse_kl_matches_ring_arithmetic():
    corpus = _corpus(_valid_kl_payloads(), 21, 25)
    errors = 0
    for payload in corpus:
        got, want = outcome(parse_kl, payload), outcome(ring_parse_kl, payload)
        assert got == want, json.dumps(payload, default=repr)[:300]
        errors += got[0] == "error"
    assert errors > 500 and len(corpus) - errors > 200


def test_parse_pointed_matches_ring_arithmetic():
    corpus = _corpus(_valid_pointed_payloads(), 22, 60)
    errors = 0
    for payload in corpus:
        got, want = outcome(parse_pointed, payload), outcome(ring_parse_pointed, payload)
        assert got == want, json.dumps(payload, default=repr)[:300]
        errors += got[0] == "error"
    assert errors > 200 and len(corpus) - errors > 30


PRETTY_EDITS = ["", " ", "-", " - ", " + ", "*", "^", "^-1", "^x", "_", "/", "0",
                "1/0", "kappa_", "lambda_9", "kappa_0", "kappa_-1", "lambda_0",
                "x", "2", "3/4*", "--", "kapa_1", "lambda_1^2*"]


def _pretty_corpus():
    rng = random.Random(23)
    texts = []
    for payload in _valid_kl_payloads():
        genus = payload["genus"]
        text = str(ring_parse_kl(payload))
        texts.append((text, genus))
        for _ in range(10):
            pos = rng.randint(0, len(text))
            cut = rng.randint(0, 3) if rng.random() < 0.5 else 0
            edited = text[:pos] + rng.choice(PRETTY_EDITS) + text[pos + cut:]
            texts.append((edited, rng.choice([genus, genus, 1, 3])))
    return texts


def test_parse_kl_pretty_matches_ring_arithmetic():
    corpus = _pretty_corpus()
    errors = 0
    for text, genus in corpus:
        got = outcome(parse_kl_pretty, text, genus)
        want = outcome(ring_parse_kl_pretty, text, genus)
        assert got == want, (text, genus)
        errors += got[0] == "error"
    assert errors > 200 and len(corpus) - errors > 60


def test_pretty_generator_index_must_be_a_decimal_number():
    # '²'.isdigit() holds but int('²') fails: the ring-arithmetic reader
    # raised a bare ValueError here
    with pytest.raises(ValueError) as old:
        ring_parse_kl_pretty("kappa_²", 3)
    assert not isinstance(old.value, InputError)
    with pytest.raises(InputError, match="bad generator 'kappa_²'"):
        parse_kl_pretty("kappa_²", 3)


def test_readers_build_no_class_by_ring_arithmetic(monkeypatch):
    kl = emit_kl(theorem5_class(20, 10, 9))
    pointed = emit_pointed(chern_F(5, 4, 4))
    text = str(theorem5_class(20, 10, 9))
    assert len(kl["terms"]) > 1000 and len(pointed["terms"]) > 100
    want = (parse_kl(kl), parse_pointed(pointed), parse_kl_pretty(text, 20))

    def forbidden(*args):
        raise AssertionError("a reader used ring arithmetic")

    monkeypatch.setattr(SparseSum, "__add__", forbidden)
    monkeypatch.setattr(GradedPoly, "_mul", forbidden)
    assert (parse_kl(kl), parse_pointed(pointed), parse_kl_pretty(text, 20)) == want
