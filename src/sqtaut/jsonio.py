"""JSON payloads (schema "sq-taut/1") and text round-trips.

Every emitted payload is a dict with "schema" and "kind" keys.  Class-like
kinds:

  pointed-class   {genus, d, terms: [TERM]}
  kl-class        {genus, terms: [KLTERM], provenance?}

TERM  = {partition: [[int]], exponents: [int], coeff: COEFF}
KLTERM = {coeff: COEFF}
COEFF = {kappa: {index: exp}, lambda: {index: exp}, rational: "p/q"}

Each TERM carries exactly one kappa/lambda monomial (classes are emitted
fully expanded), the partition lists every block including exponent-zero
singletons, and term order is canonical, so emission is deterministic and
`parse(emit(x)) == x`.  Relations carry a provenance object naming the
generating operation and its parameters.  Rationals of any length are
written and read; only exponents and the genus are bounded, by
MAX_EXPONENT: the exponent of an "e" form and that of a kappa or lambda
generator, and the genus of a class.  The readers sum one
(monomial, scalar) pair per term, built by `kappa_lambda.kl_factor`, into
one table per class (per block monomial) and raise InputError with a
one-line message on bad payloads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .kappa_lambda import KLPoly, check_genus, genus_of, kl_factor
from .rings import (GENERATOR_NAMES, GradedPoly, InputError, accumulate,
                    int_from_text, mono_mul, rational_text)

# parse_pointed imports `pointed` itself, so that a command line run that
# reads no pointed class does not load it
if TYPE_CHECKING:
    from .pointed import PointedClass

SCHEMA = "sq-taut/1"

# The string forms that `Fraction` reads on every supported Python: "p/q"
# (the form `rational_text` writes), or "p.q" decimals with an exponent
_NUMBER = re.compile(r"""\s*(?P<sign>[+-]?)(?=\d|\.\d)(?P<num>\d*)
    (?:/(?P<den>\d+) | (?:\.(?P<dec>\d*))?(?:e(?P<exp>[+-]?\d+))?)\s*""",
                     re.VERBOSE | re.IGNORECASE)

# The largest exponent magnitude read in an "e" form, the largest exponent
# of a kappa or lambda generator and the largest genus.  An exponent asks
# for as many digits as its value, in the read and in every later product
# and write: 10**10_000 is read and written back in about a millisecond,
# 10**1_000_000 takes seconds, and kappa_0^N is the scalar (2g-2)^N, whose
# digits also grow with the digits of the genus.  sqtaut itself writes no
# "e" form.
MAX_EXPONENT = 10_000
# The exponent of an "e" form as Fraction reads it, underscores included
_EXPONENT = re.compile(r"e[+-]?(?P<digits>\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


# -- reading untrusted payloads ------------------------------------------
# Every malformed value becomes an InputError with a one-line message.

def _get(obj: Mapping, key: str):
    try:
        return obj[key]
    except KeyError:
        raise InputError(f"missing {key!r}") from None


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    # JSON integers and index strings only: int() would truncate 1.7 to 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def _exponent(value, what: str) -> int:
    exp = _int(value, what)
    if exp > MAX_EXPONENT:
        raise InputError(f"{what} over {MAX_EXPONENT}")
    return exp


def _genus(payload: Mapping) -> int:
    genus = _int(_get(payload, "genus"), "genus")
    if genus > MAX_EXPONENT:
        raise InputError(f"genus over {MAX_EXPONENT}")
    return genus


def _rational(value) -> Fraction:
    # _NUMBER strings at any length: every digit run but the exponent is read
    # in pieces; other values (underscores, "1 / 2") as this Python's Fraction.
    # Either way an exponent over MAX_EXPONENT is refused before it is read.
    text = value if isinstance(value, str) else ""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent["digits"].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InputError(f"bad rational {value!r}: exponent magnitude "
                             f"over {MAX_EXPONENT}")
    match = _NUMBER.fullmatch(text)
    try:
        if match is None:
            return Fraction(value)
        sign, num, den, dec, exp = match.group("sign", "num", "den", "dec", "exp")
        dec = dec or ""  # p.q is pq / 10^len(q)
        q = Fraction(int_from_text(num + dec), int_from_text(den or "1") * 10 ** len(dec))
        if exp:
            q *= Fraction(10) ** int(exp)
        return -q if sign == "-" else q
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"bad rational {value!r}") from None


def _coeff_payload(kl_mono, q: Fraction) -> dict:
    kappa, lam = {}, {}
    for (kind, index), exp in kl_mono:
        (lam if kind else kappa)[str(index)] = exp
    return {"kappa": kappa, "lambda": lam, "rational": rational_text(q)}


def _coeff(genus: int, payload) -> tuple:
    """The (monomial, scalar) pair of a COEFF payload."""
    payload = _mapping(payload, "coefficient")
    scalar = _rational(_get(payload, "rational"))
    check_genus(genus)
    mono = ()
    for kind, name in enumerate(GENERATOR_NAMES):
        for idx, exp in _mapping(payload.get(name, {}), name).items():
            m, q = kl_factor(genus, kind, _int(idx, f"{name} index"),
                             _exponent(exp, f"{name} exponent"))
            mono, scalar = mono_mul(mono, m), scalar * q
    return mono, scalar


def _check_header(payload, kind: str) -> None:
    _mapping(payload, "payload")
    if payload.get("schema") != SCHEMA:
        raise InputError(f"expected schema {SCHEMA!r}")
    if payload.get("kind") != kind:
        raise InputError(f"expected kind {kind!r}, got {payload.get('kind')!r}")


def _terms(payload: Mapping) -> list:
    return [_mapping(t, "term") for t in _list(_get(payload, "terms"), "terms")]


# -- kappa/lambda classes -------------------------------------------------

def emit_kl(p: KLPoly, provenance: Mapping | None = None) -> dict:
    genus = genus_of(p)
    terms = [{"coeff": _coeff_payload(mono, q)} for mono, q in p.terms()]
    out = {"schema": SCHEMA, "kind": "kl-class", "genus": genus, "terms": terms}
    if provenance is not None:
        out["provenance"] = dict(_mapping(provenance, "provenance"))
    return out


def parse_kl(payload: Mapping) -> KLPoly:
    _check_header(payload, "kl-class")
    genus = _genus(payload)
    check_genus(genus)
    acc: dict = {}
    for term in _terms(payload):
        accumulate(acc, *_coeff(genus, _get(term, "coeff")))
    return GradedPoly(genus, acc)


# -- pointed classes ------------------------------------------------------

def emit_pointed(p: PointedClass) -> dict:
    terms = []
    for mono, coeff in p.ordered_terms():
        for kl_mono, q in coeff.terms():
            terms.append(
                {
                    "partition": [list(b) for b in mono.blocks],
                    "exponents": list(mono.exps),
                    "coeff": _coeff_payload(kl_mono, q),
                }
            )
    return {
        "schema": SCHEMA,
        "kind": "pointed-class",
        "genus": p.genus,
        "d": p.d,
        "terms": terms,
    }


def parse_pointed(payload: Mapping) -> PointedClass:
    from .pointed import BlockMonomial, PointedClass
    _check_header(payload, "pointed-class")
    genus = _genus(payload)
    d = _int(_get(payload, "d"), "d")
    acc: dict = {}
    for term in _terms(payload):
        mono = BlockMonomial(
            d,
            tuple(
                tuple(_int(x, "label") for x in _list(b, "block"))
                for b in _list(_get(term, "partition"), "partition")
            ),
            tuple(_int(e, "exponent") for e in _list(_get(term, "exponents"), "exponents")),
        )
        accumulate(acc.setdefault(mono, {}), *_coeff(genus, _get(term, "coeff")))
    return PointedClass(genus, d, {mono: GradedPoly(genus, table)
                                   for mono, table in acc.items()})


# -- one-variable series and rationals -----------------------------------

def emit_poly(coeffs: list, variable: str) -> dict:
    """Payload for a series given as a list of Fractions indexed by degree."""
    return {
        "schema": SCHEMA,
        "kind": "poly",
        "variable": variable,
        "coefficients": {str(n): rational_text(q) for n, q in enumerate(coeffs) if q},
    }


def parse_poly(payload: Mapping) -> list:
    """The coefficient list, indexed by degree, of a poly payload."""
    _check_header(payload, "poly")
    terms = {}
    for degree, q in _mapping(_get(payload, "coefficients"), "coefficients").items():
        n = _int(degree, "degree")
        if n < 0:
            raise InputError(f"negative degree {n}")
        terms[n] = _rational(q)
    out = [Fraction(0)] * (max(terms) + 1 if terms else 0)
    for n, q in terms.items():
        out[n] = q
    return out


def emit_rational(q: Fraction, **extra) -> dict:
    out = {"schema": SCHEMA, "kind": "rational", "value": rational_text(q)}
    out.update(extra)
    return out


def parse_rational(payload: Mapping) -> Fraction:
    _check_header(payload, "rational")
    return _rational(_get(payload, "value"))


# -- pretty text for kappa/lambda classes --------------------------------

def parse_kl_pretty(text: str, genus: int) -> KLPoly:
    """Parse the pretty printer's output back into a class.

    Grammar: terms joined by ' + ' / ' - ', each term an optional rational
    followed by '*'-separated generator factors 'kappa_i^e' / 'lambda_i^e'.
    """
    text = text.strip()
    if not text:
        raise InputError("empty class text")
    check_genus(genus)
    normalized = text.replace(" - ", " + -").replace(" + ", "\x00")
    acc: dict = {}
    for piece in normalized.split("\x00"):
        piece = piece.strip()
        sign = 1
        while piece.startswith("-"):
            sign = -sign
            piece = piece[1:].strip()
        mono, coeff = (), Fraction(sign)
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
                exp = _exponent(exp_text, "exponent")
            else:
                name, exp = chunk, 1
            kind, _, idx_text = name.partition("_")
            if kind not in GENERATOR_NAMES or not idx_text.isdecimal():
                raise InputError(f"bad generator {name!r}")
            m, q = kl_factor(genus, GENERATOR_NAMES.index(kind), int(idx_text), exp)
            mono, coeff = mono_mul(mono, m), coeff * q
        accumulate(acc, mono, coeff)
    return GradedPoly(genus, acc)
