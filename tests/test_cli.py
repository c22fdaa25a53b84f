"""End-to-end tests of the command-line front end via main(argv)."""

import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sqtaut
from sqtaut import cli, verify
from sqtaut.cli import main
from sqtaut.conifold import conifold_F, conifold_N
from sqtaut.jsonio import (emit_kl, emit_pointed, parse_kl, parse_kl_pretty,
                           parse_pointed, parse_rational)
from sqtaut.kappa_lambda import kappa_class, lambda_class, lambda_to_kappa
from sqtaut.pointed import chern_F, pc_mul, pc_psihat
from sqtaut.relations import prop8_relation, theorem5_class
from sqtaut.pairing import CertificateError

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_relation_pretty_reparses(capsys):
    code, out = run(capsys, "relation", "--theorem5", "-g", "6", "-d", "2",
                    "-k", "1", "--kappa-only")
    assert code == 0
    header, body = out.strip().split("\n")
    assert header == "# theorem5 g=6 d=2 k=1 (kappa-only)"
    expected = lambda_to_kappa(theorem5_class(6, 2, 1))
    assert parse_kl_pretty(body, 6) == expected


def test_relation_json_provenance(capsys):
    code, out = run(capsys, "relation", "--theorem5", "-g", "5", "-d", "1",
                    "-k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == {
        "theorem": "theorem5",
        "params": {"g": 5, "d": 1, "k": 1},
    }
    assert parse_kl(payload) == theorem5_class(5, 1, 1)


def test_relation_prop8_consistency(capsys):
    code, out = run(capsys, "relation", "--prop8", "-g", "5", "-d", "1",
                    "-a", "0", "-b", "1", "-c", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"]["params"] == {"a": 0, "b": 1, "c": 2, "g": 5, "d": 1}
    assert parse_kl(payload) == 2 * (2 * 5 - 2) * theorem5_class(5, 1, 1)
    assert parse_kl(payload) == prop8_relation(5, 1, 0, 1, 2)


def test_relation_bad_parameters(capsys):
    assert run(capsys, "relation", "--theorem5", "-g", "6", "-d", "2",
               "-k", "1", "-a", "2")[0] == 2
    assert run(capsys, "relation", "--prop8", "-g", "6", "-d", "2",
               "-a", "1", "-b", "1")[0] == 2
    assert run(capsys, "relation", "--theorem5", "-g", "1", "-d", "1",
               "-k", "1")[0] == 2


def test_chern_f_json(capsys):
    code, out = run(capsys, "chern-f", "-g", "5", "-d", "2", "--degree", "2",
                    "--json")
    assert code == 0
    parsed = parse_pointed(json.loads(out))
    assert parsed == chern_F(5, 2, 2).degree_part(2)


def test_push_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    part = chern_F(5, 2, 2).degree_part(2)
    payload = json.dumps(emit_pointed(part))
    src = tmp_path / "class.json"
    src.write_text(payload)
    code, out = run(capsys, "push", str(src))
    assert code == 0
    assert out.strip() == "32"
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out = run(capsys, "push")
    assert code == 0
    assert out.strip() == "32"


def test_mult_matches_library(capsys, tmp_path):
    a = pc_psihat(4, 3, 1)
    b = pc_psihat(4, 3, 2)
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(emit_pointed(a)))
    fb.write_text(json.dumps(emit_pointed(b)))
    code, out = run(capsys, "mult", str(fa), str(fb), "--json")
    assert code == 0
    assert parse_pointed(json.loads(out)) == pc_mul(a, b)


def test_betti_output(capsys):
    code, out = run(capsys, "betti", "--d", "4")
    assert code == 0
    assert out.strip() == "1 + 3*t^2 + 3*t^4 + t^6"
    code, out = run(capsys, "betti", "--d", "4", "--json")
    payload = json.loads(out)
    assert payload["coefficients"] == {"0": "1", "2": "3", "4": "3", "6": "1"}
    assert payload["d"] == 4


def test_verify_is_loaded_only_on_use():
    # only verify-paper needs sqtaut.verify; the package still serves its
    # names on first access
    script = (
        "import sys\n"
        "from sqtaut.cli import main\n"
        "assert main(['betti', '--d', '3']) == 0\n"
        "assert 'sqtaut.verify' not in sys.modules\n"
        "import sqtaut\n"
        "assert len(sqtaut.CHECKS) == 11 and callable(sqtaut.run_check)\n"
        "assert 'sqtaut.verify' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(sqtaut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1 + 2*t^2 + t^4"


def _imported(*args) -> set:
    """The modules that a fresh interpreter imports to run `python args`."""
    src = os.path.dirname(os.path.dirname(sqtaut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def test_cold_start_imports_no_dataclasses():
    # every command starts a fresh interpreter; dataclasses costs about
    # 20 ms there (with inspect, ast, dis and tokenize) and nothing needs it
    # at run time.  Measured against what argparse, fractions and json load
    # by themselves on this Python.
    bare = _imported("-c", "import argparse, fractions, json")
    for args in (("-m", "sqtaut", "betti", "--d", "4"), ("-c", "import sqtaut.cli")):
        extra = _imported(*args) - bare
        assert "sqtaut.cli" in extra
        assert not extra & {"dataclasses", "inspect"}, args
    package = Path(sqtaut.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+dataclasses\b", text, re.M), path


# what `python -m sqtaut` imports for every command: the package, the
# front end and the readers and writers it uses (runpy executes
# sqtaut.__main__ without importing it)
CLI_MODULES = {"sqtaut", "sqtaut.cli", "sqtaut.jsonio", "sqtaut.kappa_lambda",
               "sqtaut.rings"}
POINTED_MODULES = {"pointed", "relations"}


# command -> (arguments, the modules it loads besides CLI_MODULES)
COMMAND_MODULES = {
    "relation-theorem5": ("relation --theorem5 -g 6 -d 2 -k 1 --kappa-only",
                          {"relations"}),
    "relation-prop8": ("relation --prop8 -g 5 -d 1 -a 0 -b 1 -c 2 --json",
                       {"relations"}),
    "chern-f": ("chern-f -g 5 -d 2 --degree 2", POINTED_MODULES),
    "push": ("push {pointed}", POINTED_MODULES),
    "mult": ("mult {pointed} {pointed} --json", POINTED_MODULES),
    "betti": ("betti --d 4", {"genus0"}),
    "intersect": ("intersect --d 5 --x1 2 --x2 2", {"genus0"}),
    "pairing": ("pairing --d 2 --k 1", {"pairing", "genus0", *POINTED_MODULES}),
    "conifold": ("conifold --max-genus 3 --d 2", {"conifold"}),
    "lambda-to-kappa": ("lambda-to-kappa {kl} --json", set()),
    "verify-paper": ("verify-paper --only conifold",
                     {"verify", "curve", "conifold", "genus0", "pairing",
                      *POINTED_MODULES}),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # without cached bytecode, every loaded module is compiled on every start
    pointed = tmp_path / "pointed.json"
    pointed.write_text(json.dumps(emit_pointed(chern_F(5, 2, 1).degree_part(1))))
    kl = tmp_path / "kl.json"
    kl.write_text(json.dumps(emit_kl(theorem5_class(6, 2, 1))))
    argv, extra = COMMAND_MODULES[command]
    args = argv.format(pointed=pointed, kl=kl).split()
    loaded = {m for m in _imported("-m", "sqtaut", *args)
              if m.split(".")[0] == "sqtaut"}
    assert loaded == CLI_MODULES | {f"sqtaut.{m}" for m in extra}


def test_intersect_output(capsys):
    code, out = run(capsys, "intersect", "--d", "5", "--x1", "2", "--x2", "2")
    assert code == 0
    assert out.strip() == "6"
    code, out = run(capsys, "intersect", "--d", "5", "--x1", "2", "--x2", "2",
                    "--json")
    payload = json.loads(out)
    assert payload["value"] == "6"
    assert payload["y"] == [0, 0, 0, 0, 0]
    assert run(capsys, "intersect", "--d", "3", "--x1", "1", "--x2", "1",
               "--y", "0")[0] == 2
    code, out = run(capsys, "intersect", "--d", "1100", "--x1", "0", "--x2", "1099")
    assert (code, out.strip()) == (0, "1")


def test_pairing_json_small_and_large(capsys):
    code, out = run(capsys, "pairing", "--d", "2", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 3
    assert [b["length"] for b in payload["blocks"]] == [2, 1]
    assert payload["full_rank"] is True
    assert payload["entries"] == [["2", "0", "."], ["0", "2", "."], ["z", "z", "1"]]

    code, out = run(capsys, "pairing", "--d", "5", "--k", "3", "--json")
    payload = json.loads(out)
    assert payload["size"] == 225
    assert "entries" not in payload
    assert sum(b["size"] for b in payload["blocks"]) == 225


def test_conifold_output(capsys):
    code, out = run(capsys, "conifold", "--max-genus", "3", "--d", "2")
    assert code == 0
    assert "N[2,1] = 1/240" in out
    code, out = run(capsys, "conifold", "--max-genus", "3", "--d", "2",
                    "--json")
    payload = json.loads(out)
    assert payload["n1"] == {"1": "1/12", "2": "1/240", "3": "1/6048"}
    assert payload["nd"]["1"] == "1/24"
    assert payload["constant_term"] == "1"


def test_conifold_at_the_highest_genus_runs_with_a_small_d(capsys):
    assert main("conifold --max-genus 199 --d 99".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 200 and lines[199].startswith("N[199,1] = ")


def test_conifold_beyond_the_int_str_digit_limit():
    # N[160,1] has a 666-digit denominator; 640 is the lowest limit Python allows
    series = conifold_F(160)
    src = os.path.dirname(os.path.dirname(sqtaut.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640")
    argv = [sys.executable, "-m", "sqtaut", "conifold", "--max-genus", "160", "--d", "2"]
    plain, as_json = (subprocess.run(argv + extra, env=env, capture_output=True,
                                     text=True, timeout=120)
                      for extra in ([], ["--json"]))
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (as_json.returncode, as_json.stderr) == (0, "")
    payload = json.loads(as_json.stdout)
    lines = plain.stdout.splitlines()
    assert lines[0] == "constant term: 1" and payload["constant_term"] == "1"
    for g in range(1, 161):
        n1, nd = payload["n1"][str(g)], payload["nd"][str(g)]
        assert lines[g] == f"N[{g},1] = {n1}   N[{g},2] = {nd}"
        assert parse_rational({**payload, "kind": "rational", "value": n1}) == series.N1(g)
        assert (parse_rational({**payload, "kind": "rational", "value": nd})
                == conifold_N(g, 2, series))


def test_lambda_to_kappa_preserves_provenance(capsys, tmp_path):
    p = lambda_class(6, 3) + kappa_class(6, 1) * lambda_class(6, 2)
    src = tmp_path / "kl.json"
    src.write_text(json.dumps(emit_kl(p, {"theorem": "theorem5",
                                          "params": {"g": 6, "d": 2, "k": 1}})))
    code, out = run(capsys, "lambda-to-kappa", str(src), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"]["theorem"] == "theorem5"
    assert parse_kl(payload) == lambda_to_kappa(p)


def fix_clock(monkeypatch):
    """Make every check take 0.25 s by the clock of `sqtaut.verify`."""
    monkeypatch.setattr(verify, "perf_counter", itertools.count(0, 0.25).__next__)


def test_verify_paper_filtering(capsys, monkeypatch):
    fix_clock(monkeypatch)
    code, out = run(capsys, "verify-paper", "--only", "lemma4")
    assert code == 0
    assert out.splitlines()[0] == "PASS  betti (0.25 s, budget 1 s)"
    assert out.strip().endswith("1/1 checks passed")
    code, out = run(capsys, "verify-paper", "--only", "genus6", "--json")
    payload = json.loads(out)
    assert payload["kind"] == "verify-report"
    assert payload["passed"] is True
    assert payload["checks"][0]["id"] == "relation-genus6"
    assert run(capsys, "verify-paper", "--only", "nonsense")[0] == 2


def test_verify_paper_reports_time_and_budget(capsys):
    """Each check reports its run time and its budget, in seconds: numbers
    in the JSON, a suffix of its line in the text."""
    code, out = run(capsys, "verify-paper", "--only", "lemma4", "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    for field in ("elapsed_s", "budget_s"):
        assert type(check[field]) is float and check[field] >= 0, field
    assert check["budget_s"] == verify.lookup("lemma4").budget
    code, out = run(capsys, "verify-paper", "--only", "genus6")
    assert re.fullmatch(r"PASS  relation-genus6 \(\d+\.\d\d s, budget 5 s\)",
                        out.splitlines()[0])


def test_failing_check_exits_1_and_still_reports(capsys, monkeypatch):
    failing = verify.Check("always-fails", (), "A check that fails.", 1.0,
                           lambda: (False, ("forced failure",)))
    monkeypatch.setattr(verify, "CHECKS", (failing,))
    fix_clock(monkeypatch)
    code, out = run(capsys, "verify-paper")
    assert code == 1
    assert out.splitlines() == ["FAIL  always-fails (0.25 s, budget 1 s)",
                                "      A check that fails.",
                                "      - forced failure", "0/1 checks passed"]
    code, out = run(capsys, "verify-paper", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["passed"] is False


def test_certificate_error_exits_1_with_one_line(capsys, monkeypatch):
    def fails(d, k):
        raise CertificateError(f"forced failure at d={d} k={k}")
    monkeypatch.setattr(sqtaut.pairing, "rank_certificate", fails)
    for argv in (["pairing", "--d", "2", "--k", "1"],
                 ["pairing", "--d", "2", "--k", "1", "--json"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failure: forced failure at d=2 k=1\n"


def _readme_examples() -> list:
    """(command line, printed output) of every `$ sqtaut` line in README."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_six_examples():
    assert len(README_EXAMPLES) == 6


@pytest.mark.parametrize("command,output", README_EXAMPLES,
                         ids=[c for c, _ in README_EXAMPLES])
def test_readme_examples(capsys, monkeypatch, command, output):
    # a pipe feeds each stage's stdout to the next stage's stdin
    text = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "sqtaut"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(argv[1:]) == 0
        text = capsys.readouterr().out
    assert text == output


def test_output_directory_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SQTAUT_OUTPUT_DIR", str(tmp_path))
    code, out = run(capsys, "betti", "--d", "3", "--output", "betti.txt")
    assert code == 0
    assert out == ""
    assert (tmp_path / "betti.txt").read_text().strip() == "1 + 2*t^2 + t^4"


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert run(capsys, "push", "/no/such/file.json")[0] == 2


def _kl_payload(genus=4, **coeff):
    coeff.setdefault("rational", "1")
    return {"schema": "sq-taut/1", "kind": "kl-class", "genus": genus,
            "terms": [{"coeff": coeff}]}


MALFORMED = [
    ("lambda-to-kappa", _kl_payload(rational="1/0")),
    ("lambda-to-kappa", [_kl_payload()]),
    ("lambda-to-kappa", _kl_payload(kappa=[1])),
    ("lambda-to-kappa", _kl_payload(kappa={"x": 1})),
    ("lambda-to-kappa", _kl_payload(**{"lambda": {"5": 1}})),
    ("lambda-to-kappa", _kl_payload(genus=1)),
    ("lambda-to-kappa", _kl_payload(genus=None)),
    ("lambda-to-kappa", _kl_payload(rational=None)),
    ("lambda-to-kappa", _kl_payload(kappa={"1": "two"})),
    ("lambda-to-kappa", {**_kl_payload(), "terms": ["not a term"]}),
    ("lambda-to-kappa", {**_kl_payload(), "terms": {"coeff": {}}}),
    ("lambda-to-kappa", {"schema": "sq-taut/1", "kind": "kl-class", "genus": 4}),
    ("lambda-to-kappa", {**_kl_payload(), "terms": [{"coeff": [1]}]}),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4, "d": 1,
              "terms": [{"partition": 5, "exponents": [1],
                         "coeff": {"rational": "1"}}]}),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4, "d": 1,
              "terms": [{"partition": [[1]], "exponents": [None],
                         "coeff": {"rational": "1"}}]}),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4, "d": 1,
              "terms": [{"partition": [[1]], "exponents": [1],
                         "coeff": {"rational": "2/0"}}]}),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4, "d": 1,
              "terms": [{"partition": [[1.7]], "exponents": [1],
                         "coeff": {"rational": "1"}}]}),
    # a huge d must be rejected without building the label range
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4,
              "d": 10 ** 12, "terms": [{"partition": [[1]], "exponents": [1],
                                        "coeff": {"rational": "1"}}]}),
    # 10 bytes that would ask for a 10,000,001-digit numerator
    ("lambda-to-kappa", _kl_payload(rational="1e10000000")),
    # kappa_0^N is the scalar (2g-2)^N: a million-digit number here
    ("lambda-to-kappa", _kl_payload(kappa={"0": 10 ** 6})),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 4, "d": 1,
              "terms": [{"partition": [[1]], "exponents": [1],
                         "coeff": {"rational": "1", "kappa": {"0": 10 ** 6}}}]}),
    # kappa_0^10000 at a 21-digit genus is a 210,000-digit scalar
    ("lambda-to-kappa", _kl_payload(genus=10 ** 21, kappa={"0": 10_000})),
    ("push", {"schema": "sq-taut/1", "kind": "pointed-class", "genus": 10 ** 21,
              "d": 1, "terms": [{"partition": [[1]], "exponents": [1],
                                 "coeff": {"rational": "1", "kappa": {"0": 10_000}}}]}),
]


def exits_2_with_one_line(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command,payload", MALFORMED)
def test_malformed_payloads_exit_2_with_one_line(capsys, monkeypatch, command, payload):
    exits_2_with_one_line(capsys, monkeypatch, [command, "-"], json.dumps(payload))


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv,text", [
    (["push", "-"], DEEP_JSON),
    (["mult", "-", "-"], DEEP_JSON),
    (["lambda-to-kappa", "-"], DEEP_JSON),
    (["lambda-to-kappa", "-", "--json"],
     json.dumps({**_kl_payload(), "provenance": 5})),
], ids=["push-deep", "mult-deep", "lambda-to-kappa-deep", "provenance-int"])
def test_deep_json_and_bad_provenance_exit_2_with_one_line(capsys, monkeypatch,
                                                           argv, text):
    exits_2_with_one_line(capsys, monkeypatch, argv, text)


@pytest.mark.parametrize("argv,text", [
    ("relation --theorem5 -g 100000 -d 2 -k 1 --kappa-only", ""),
    ("relation --prop8 -g 100000000 -d 1 -a 0 -b 1 -c 2", ""),
    ("conifold --max-genus 100000", ""),
    ("relation --theorem5 -g 2 -d 1000 -k 1000", ""),
    ("relation --theorem5 -g 1200 -d 600 -k 1", ""),
    ("lambda-to-kappa -", json.dumps(_kl_payload(genus=4, **{"lambda": {"3": 10000}}))),
    ("lambda-to-kappa -", json.dumps(_kl_payload(genus=200, **{"lambda": {"200": 1}}))),
    ("relation --theorem5 -g 200 -d 1 -k 1 --kappa-only", ""),
    ("betti --d 100000", ""),
    ("chern-f -g 20 -d 9 --degree 9", ""),
    ("chern-f -g 2 -d 300 --degree 1", ""),
    ("pairing --d 8 --k 8", ""),
    ("pairing --d 2 --k 1000", ""),
    ("intersect --d 100000 --x1 50000 --x2 49999", ""),
    ("intersect --d 1000000000000 --x1 0 --x2 0", ""),
    ("conifold --max-genus 199 --d " + "9" * 1000, ""),
], ids=["theorem5-genus", "prop8-genus", "conifold-genus", "theorem5-d", "theorem5-digits",
        "lambda-power", "lambda-index", "theorem5-kappa-only", "betti-d", "chern-f-terms",
        "chern-f-labels", "pairing-labels", "pairing-factors", "intersect-x", "intersect-d",
        "conifold-d"])
def test_oversized_work_exits_2_with_one_line_before_computing(capsys, monkeypatch, argv, text):
    start = time.perf_counter()
    exits_2_with_one_line(capsys, monkeypatch, argv.split(), text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv,head", [
    ("chern-f -g 2 -d 1500 --degree 0", "1"),
    ("pairing --d 7 --k 7 --json", "{"),
    ("pairing --d 100000 --k 0", "pairing matrix d=100000 k=0: 1 rows"),
])
def test_admitted_edges_of_the_label_bound_run(capsys, argv, head):
    start = time.perf_counter()
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(head)
    assert time.perf_counter() - start < 2.0


def test_prop8_with_many_meeting_products_of_low_degree_runs(capsys):
    # R = 5, so only the products of Psi_{n,m} with k <= 7 are nonempty
    argv = "relation --prop8 -g 46 -d 40 -a 40 -b 0 -c 1".split()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out


def test_results_longer_than_the_int_str_digit_limit_are_written(capsys, monkeypatch):
    # (1/12)^4000 kappa_1^4000 has a 4,317-digit denominator
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    payload = _kl_payload(genus=2, **{"lambda": {"1": 4000}})
    expected = lambda_to_kappa(parse_kl(payload))
    assert expected.coefficient((((0, 1), 4000),)) == Fraction(1, 12 ** 4000)
    for argv in (["lambda-to-kappa", "-"], ["lambda-to-kappa", "-", "--json"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if "--json" in argv:
            assert parse_kl(json.loads(captured.out)) == expected
        else:
            assert parse_kl_pretty(captured.out, 2) == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
