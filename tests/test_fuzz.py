"""Property-based fuzzing of the untrusted-input boundary.

Any JSON value given to `parse_kl` or `parse_pointed`, and any text given
to `parse_kl_pretty`, yields a class or raises InputError.  The commands
that read serialized classes exit 0, or exit 2 with one `error:` line on
stderr and nothing on stdout.  Integers in the generated payloads stay
small, so that every valid payload is also cheap to compute with.
"""

import contextlib
import io
import json
import sys

import pytest

from sqtaut.cli import main
from sqtaut.jsonio import SCHEMA, parse_kl, parse_kl_pretty, parse_pointed
from sqtaut.pointed import PointedClass
from sqtaut.rings import GradedPoly, InputError

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

small_int = st.integers(-2, 5)
number_text = st.sampled_from(["0", "1", "01", "2", "-1", "1/2", "-3/4", "1/0", "1.5",
                               "1e2", " 2 ", "+3", "1_0", "x", "", "²", "٣"])
scalar = (st.none() | st.booleans() | small_int | number_text
          | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
json_value = st.recursive(
    scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | number_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def damaged(draw, payload):
    """payload with up to two values replaced by any JSON value, keys
    dropped or keys added, anywhere in the tree."""
    for _ in range(draw(st.integers(0, 2))):
        nodes = []

        def walk(node):
            if isinstance(node, (dict, list)):
                nodes.append(node)
                for child in (node.values() if isinstance(node, dict) else node):
                    walk(child)

        walk(payload)
        node = draw(st.sampled_from(nodes))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if keys and action != "add":
            key = draw(st.sampled_from(keys))
            if action == "drop":
                del node[key]
            else:
                node[key] = draw(json_value)
        elif isinstance(node, dict):
            node[draw(number_text | st.sampled_from(["kappa", "lambda"]))] = draw(json_value)
        else:
            node.append(draw(json_value))
    return payload


@st.composite
def coeffs(draw, genus):
    ranges = {"kappa": st.integers(-1, 4), "lambda": st.integers(0, max(genus, 0))}
    out = {"rational": draw(number_text.filter(lambda t: t not in ("x", "", "1/0"))
                            | small_int)}
    for name, index in ranges.items():
        if draw(st.booleans()):
            out[name] = draw(st.dictionaries(index.map(str), st.integers(0, 3), max_size=2))
    return out


@st.composite
def kl_payloads(draw):
    genus = draw(st.integers(1, 5))
    terms = draw(st.lists(coeffs(genus).map(lambda c: {"coeff": c}), max_size=4))
    payload = {"schema": SCHEMA, "kind": "kl-class", "genus": genus, "terms": terms}
    return draw(damaged(payload))


@st.composite
def pointed_terms(draw, genus, d):
    # a set partition of 1..d from a restricted growth string
    blocks: list = []
    for label in range(1, d + 1):
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append([label])
        else:
            blocks[b].append(label)
    exps = [draw(st.integers(0, 3)) for _ in blocks]
    return {"partition": blocks, "exponents": exps, "coeff": draw(coeffs(genus))}


@st.composite
def pointed_payloads(draw):
    genus, d = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    terms = draw(st.lists(pointed_terms(genus, d), max_size=3))
    payload = {"schema": SCHEMA, "kind": "pointed-class", "genus": genus, "d": d,
               "terms": terms}
    return draw(damaged(payload))


pretty_piece = st.sampled_from(["kappa_1", "kappa_0", "kappa_3^2", "lambda_1", "lambda_2^3",
                                "lambda_9", "3/4", "-", "1/0", "*", " + ", " - ", "^", "_",
                                "kappa_", "x", "0", " ", "²", "^-1"])


@st.composite
def pretty_texts(draw):
    """The text of a class with a piece inserted and a span cut out."""
    try:
        text = str(parse_kl(draw(kl_payloads())))
    except InputError:
        text = draw(st.text(max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(pretty_piece) + text[at + cut:]
    return text


def class_or_input_error(parse, *args, kind):
    try:
        value = parse(*args)
    except InputError:
        return
    assert isinstance(value, kind)


@FUZZ
@given(kl_payloads())
def test_parse_kl_gives_a_class_or_input_error(payload):
    class_or_input_error(parse_kl, payload, kind=GradedPoly)


@FUZZ
@given(pointed_payloads())
def test_parse_pointed_gives_a_class_or_input_error(payload):
    class_or_input_error(parse_pointed, payload, kind=PointedClass)


@FUZZ
@given(pretty_texts(), st.integers(1, 5))
def test_parse_kl_pretty_gives_a_class_or_input_error(text, genus):
    class_or_input_error(parse_kl_pretty, text, genus, kind=GradedPoly)


def run_cli(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def exits_0_or_2_with_one_line(argv, stdin_text):
    code, out, err = run_cli(argv, stdin_text)
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@FUZZ
@given(kl_payloads() | json_value, st.booleans())
def test_cli_lambda_to_kappa_exit_contract(payload, as_json):
    argv = ["lambda-to-kappa", "-"] + (["--json"] if as_json else [])
    exits_0_or_2_with_one_line(argv, json.dumps(payload))


@FUZZ
@given(pointed_payloads() | json_value, st.booleans())
def test_cli_push_exit_contract(payload, as_json):
    argv = ["push", "-"] + (["--json"] if as_json else [])
    exits_0_or_2_with_one_line(argv, json.dumps(payload))


@FUZZ
@given(pointed_payloads(), st.text(max_size=6) | pointed_payloads().map(json.dumps))
def test_cli_mult_exit_contract(tmp_path_factory, first, second):
    path = tmp_path_factory.getbasetemp() / "second.json"
    path.write_text(second)
    exits_0_or_2_with_one_line(["mult", "-", str(path)], json.dumps(first))
