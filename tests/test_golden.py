"""Byte-level golden corpus for the command line.

Each case runs `sqtaut.cli.main` in process and compares the exit code and
the sha256 of stdout with `golden/cli.json`; the clock of `sqtaut.verify`
is fixed, so that every check reports 0.25 s.  An argument of the form
`@ID` is replaced by a file holding the stdout of the earlier case ID, and
a case with a `stdin` entry reads that case's stdout from standard input,
so `push`, `mult` and `lambda-to-kappa` consume outputs that are pinned
themselves.  The corpus covers every command shown in README.md except the
bare `verify-paper` and `verify-paper --json`, which run all eleven checks.

To record the digests of new cases:

    PYTHONPATH=src python tests/test_golden.py

It keeps every digest already in the file and runs only the cases the file
lacks, with the earlier cases they read, so a re-record never accepts a
changed output.  After an intended output change, delete the affected
entries from the file first.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from sqtaut import verify
from sqtaut.cli import main
from sqtaut.jsonio import emit_kl
from sqtaut.kappa_lambda import _lambda_table, chern_E_dual, lambda_to_kappa
from sqtaut.relations import prop8_relation, theorem5_class
from sqtaut.rings import GradedPoly, poly_mul

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
RELATION_GRID_SHA256 = "b175a4630604fcb026e10c8a525d5dd06a13470132dea927a9984ea3ba79cd4d"

T5 = ["relation", "--theorem5"]
P8 = ["relation", "--prop8"]

# (id, argv, id of the case whose stdout is piped to stdin, or None)
CASES = (
    ("t5-6-2-1-ko", T5 + ["-g", "6", "-d", "2", "-k", "1", "--kappa-only"], None),
    ("t5-6-2-1", T5 + ["-g", "6", "-d", "2", "-k", "1"], None),
    ("t5-6-2-1-json", T5 + ["-g", "6", "-d", "2", "-k", "1", "--json"], None),
    ("t5-6-2-1-ko-json",
     T5 + ["-g", "6", "-d", "2", "-k", "1", "--kappa-only", "--json"], None),
    ("t5-5-1-1-json", T5 + ["-g", "5", "-d", "1", "-k", "1", "--json"], None),
    ("t5-8-3-2", T5 + ["-g", "8", "-d", "3", "-k", "2"], None),
    ("t5-8-3-2-ko", T5 + ["-g", "8", "-d", "3", "-k", "2", "--kappa-only"], None),
    ("p8-5-1-0-1-2-json",
     P8 + ["-g", "5", "-d", "1", "-a", "0", "-b", "1", "-c", "2", "--json"], None),
    ("p8-5-1-0-1-2", P8 + ["-g", "5", "-d", "1", "-a", "0", "-b", "1", "-c", "2"], None),
    ("p8-5-1-0-1-2-ko",
     P8 + ["-g", "5", "-d", "1", "-a", "0", "-b", "1", "-c", "2", "--kappa-only"], None),
    ("p8-6-2-1-1-2", P8 + ["-g", "6", "-d", "2", "-a", "1", "-b", "1", "-c", "2"], None),
    ("p8-6-2-1-1-2-ko-json",
     P8 + ["-g", "6", "-d", "2", "-a", "1", "-b", "1", "-c", "2",
           "--kappa-only", "--json"], None),
    ("t5-10-3-1-ko-json",
     T5 + ["-g", "10", "-d", "3", "-k", "1", "--kappa-only", "--json"], None),
    ("p8-6-1-1-1-1", P8 + ["-g", "6", "-d", "1", "-a", "1", "-b", "1", "-c", "1"], None),
    ("p8-5-1-0-0-2-json",
     P8 + ["-g", "5", "-d", "1", "-a", "0", "-b", "0", "-c", "2", "--json"], None),
    ("p8-6-2-2-0-1", P8 + ["-g", "6", "-d", "2", "-a", "2", "-b", "0", "-c", "1"], None),
    ("p8-6-2-0-2-2-json",
     P8 + ["-g", "6", "-d", "2", "-a", "0", "-b", "2", "-c", "2", "--json"], None),
    ("p8-7-3-1-1-3-json",
     P8 + ["-g", "7", "-d", "3", "-a", "1", "-b", "1", "-c", "3", "--json"], None),
    ("p8-9-5-2-2-3-json",
     P8 + ["-g", "9", "-d", "5", "-a", "2", "-b", "2", "-c", "3", "--json"], None),
    ("t5-14-5-4-ko-json",
     T5 + ["-g", "14", "-d", "5", "-k", "4", "--kappa-only", "--json"], None),
    ("t5-12-4-3", T5 + ["-g", "12", "-d", "4", "-k", "3"], None),
    ("p8-10-4-2-1-3-ko",
     P8 + ["-g", "10", "-d", "4", "-a", "2", "-b", "1", "-c", "3", "--kappa-only"], None),
    ("p8-12-5-3-0-2-json",
     P8 + ["-g", "12", "-d", "5", "-a", "3", "-b", "0", "-c", "2", "--json"], None),
    ("relation-bad", T5 + ["-g", "1", "-d", "1", "-k", "1"], None),
    ("chern-5-2-2-json", ["chern-f", "-g", "5", "-d", "2", "--degree", "2", "--json"], None),
    ("chern-5-2-2", ["chern-f", "-g", "5", "-d", "2", "--degree", "2"], None),
    ("chern-6-3-3", ["chern-f", "-g", "6", "-d", "3", "--degree", "3"], None),
    ("chern-6-3-3-json", ["chern-f", "-g", "6", "-d", "3", "--degree", "3", "--json"], None),
    ("chern-4-2-1-json", ["chern-f", "-g", "4", "-d", "2", "--degree", "1", "--json"], None),
    ("chern-4-2-2-json", ["chern-f", "-g", "4", "-d", "2", "--degree", "2", "--json"], None),
    ("chern-6-4-2-json", ["chern-f", "-g", "6", "-d", "4", "--degree", "2", "--json"], None),
    ("chern-7-4-3", ["chern-f", "-g", "7", "-d", "4", "--degree", "3"], None),
    ("push-stdin", ["push", "-"], "chern-5-2-2-json"),
    ("push-file-json", ["push", "@chern-5-2-2-json", "--json"], None),
    ("push-6-3-3", ["push", "@chern-6-3-3-json"], None),
    ("mult", ["mult", "@chern-4-2-1-json", "@chern-4-2-1-json"], None),
    ("mult-json", ["mult", "@chern-4-2-1-json", "@chern-4-2-2-json", "--json"], None),
    ("mult-trunc", ["mult", "@chern-4-2-1-json", "@chern-4-2-1-json", "--trunc", "1"], None),
    ("l2k-json", ["lambda-to-kappa", "@t5-6-2-1-json", "--json"], None),
    ("l2k-text", ["lambda-to-kappa", "@t5-6-2-1-json"], None),
    ("l2k-stdin", ["lambda-to-kappa", "-"], "p8-5-1-0-1-2-json"),
    ("betti-4", ["betti", "--d", "4"], None),
    ("betti-4-json", ["betti", "--d", "4", "--json"], None),
    ("betti-1", ["betti", "--d", "1"], None),
    ("betti-7-json", ["betti", "--d", "7", "--json"], None),
    ("intersect-5-2-2", ["intersect", "--d", "5", "--x1", "2", "--x2", "2"], None),
    ("intersect-5-2-2-json",
     ["intersect", "--d", "5", "--x1", "2", "--x2", "2", "--json"], None),
    ("intersect-y",
     ["intersect", "--d", "3", "--x1", "1", "--x2", "0", "--y", "1", "0", "0", "--json"], None),
    ("conifold-3-2", ["conifold", "--max-genus", "3", "--d", "2"], None),
    ("conifold-3-2-json", ["conifold", "--max-genus", "3", "--d", "2", "--json"], None),
    ("conifold-13", ["conifold", "--max-genus", "13"], None),
    ("conifold-6-json", ["conifold", "--max-genus", "6", "--json"], None),
    ("pairing-2-1", ["pairing", "--d", "2", "--k", "1"], None),
    ("pairing-2-1-json", ["pairing", "--d", "2", "--k", "1", "--json"], None),
    ("pairing-3-2", ["pairing", "--d", "3", "--k", "2"], None),
    ("pairing-5-3-json", ["pairing", "--d", "5", "--k", "3", "--json"], None),
    ("pairing-4-4", ["pairing", "--d", "4", "--k", "4"], None),
    ("pairing-5-5-json", ["pairing", "--d", "5", "--k", "5", "--json"], None),
    # entry grids with several set partitions per length
    ("pairing-3-5-json", ["pairing", "--d", "3", "--k", "5", "--json"], None),
    ("pairing-4-2-json", ["pairing", "--d", "4", "--k", "2", "--json"], None),
    ("pairing-3-5", ["pairing", "--d", "3", "--k", "5"], None),
    ("verify-genus6", ["verify-paper", "--only", "genus6"], None),
    ("verify-lemma4-json", ["verify-paper", "--only", "lemma4", "--json"], None),
)


def run_corpus(wanted=None) -> dict:
    """Run the cases named in `wanted` (default: every case) and the earlier
    cases whose stdout they read, in order; return {id: {"exit": code,
    "sha256": hex}} for each case run."""
    needed = {case_id for case_id, _, _ in CASES} if wanted is None else set(wanted)
    for case_id, argv, stdin_from in reversed(CASES):
        if case_id in needed:
            needed.update(arg[1:] for arg in argv if arg.startswith("@"))
            if stdin_from is not None:
                needed.add(stdin_from)
    outputs: dict = {}
    results: dict = {}
    fixed_clock = mock.patch.object(verify, "perf_counter", itertools.count(0, 0.25).__next__)
    with tempfile.TemporaryDirectory() as tmp, fixed_clock:
        for case_id, argv, stdin_from in CASES:
            if case_id not in needed:
                continue
            args = []
            for arg in argv:
                if arg.startswith("@"):
                    path = Path(tmp) / f"{arg[1:]}.out"
                    path.write_text(outputs[arg[1:]], encoding="utf-8")
                    arg = str(path)
                args.append(arg)
            out = io.StringIO()
            old_stdin = sys.stdin
            if stdin_from is not None:
                sys.stdin = io.StringIO(outputs[stdin_from])
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(args)
            finally:
                sys.stdin = old_stdin
            text = out.getvalue()
            outputs[case_id] = text
            results[case_id] = {
                "exit": code,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            }
    return results


def test_cli_output_matches_golden_corpus():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus()
    assert list(got) == list(expected)
    mismatched = [case_id for case_id in got if got[case_id] != expected[case_id]]
    assert not mismatched


def relation_grid():
    """Every theorem5_class with g <= 16, d <= 6, k <= d + 1 and relation
    degree 0..g-2 (170 points), then every prop8_relation with 4 <= g <= 12,
    d <= 5, a, b <= 3, 1 <= c <= 4 and nonnegative Chern and selection
    degrees (2,861 points)."""
    for g in range(2, 17):
        for d in range(1, 7):
            for k in range(1, d + 2):
                if 0 <= g - 2 * d - 1 + 2 * k <= g - 2:
                    yield theorem5_class(g, d, k)
    for g in range(4, 13):
        for d in range(1, 6):
            for a in range(4):
                for b in range(4):
                    for c in range(1, 5):
                        if g - d - 1 + c >= 0 and g - d - 2 + a + b + c >= 0:
                            yield prop8_relation(g, d, a, b, c)


def relation_grid_digest() -> str:
    """sha256 of the `emit_kl` JSON of every relation of `relation_grid`."""
    digest = hashlib.sha256()
    for rel in relation_grid():
        digest.update(json.dumps(emit_kl(rel), sort_keys=True).encode())
    return digest.hexdigest()


def test_relation_grids_match_recorded_digest():
    # the relation generators beyond the benchmark's domain, byte for byte
    assert relation_grid_digest() == RELATION_GRID_SHA256


def assert_canonical(p):
    """p is what validating construction makes of its own table: nonzero
    Fraction values, canonical monomials and nothing above its cap."""
    again = GradedPoly(p.genus, dict(p.coeffs), p.cap)
    assert again == p and again.cap == p.cap
    assert all(type(c) is Fraction and c for c in p.coeffs.values())
    for m in p.coeffs:
        assert m == tuple(sorted(dict(m).items()))
        assert all(kind in (0, 1) and index >= 1 and exp >= 1
                   for (kind, index), exp in m)


def test_trusted_producers_build_canonical_tables():
    # theorem5_class, prop8_relation, lambda_to_kappa and degree_part build
    # their results without the validating constructor
    genera = set()
    for rel in relation_grid():
        assert_canonical(rel)
        assert_canonical(lambda_to_kappa(rel))
        assert_canonical(rel.degree_part(rel.degree))
        genera.add(rel.genus)
    for g in genera:
        for image in _lambda_table(g):
            assert_canonical(image)
    rel = theorem5_class(8, 3, 2)
    for cap in (None, 0, 3, 6):
        assert_canonical(poly_mul(rel, chern_E_dual(8, 4), cap))


if __name__ == "__main__":
    known = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    got = run_corpus([case_id for case_id, _, _ in CASES if case_id not in known])
    table = {case_id: known.get(case_id) or got[case_id] for case_id, _, _ in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
