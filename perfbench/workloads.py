"""The benchmark's four workloads: domains, cycles, requests and checks.

A workload is a finite domain of parameter points.  `reference.json` holds,
for every point of every domain, the digest of its correct output and its
cold cost in seconds; both were recorded once by `make_reference.py`.  The
costs only order points when a cycle is split into rounds.

A run is a sequence of cycles.  A cycle runs every point of the domain, the
same for every seed, split into fixed rounds; every round is one fresh
worker process with cold caches.  The seed chooses the order of the rounds
and the order of the requests in each round.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sqtaut
from sqtaut import pairing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

# The relation sweeps leave out the points whose cold cost at the reference
# commit exceeded this: one of them would take a large share of a round.
COST_CUTOFF_S = 1.5


def key(point) -> str:
    return ",".join(str(x) for x in point)


def digest_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- theorem5 sweep -------------------------------------------------------

def t5_candidates() -> list:
    """(g, d, k) for theorem5_class: d = 1 with k = 1, 2, and d = 2..5 with
    1 <= k < d and relation degree 0..g-2; g <= 14."""
    out = []
    for g in range(2, 15):
        for k in (1, 2):
            out.append((g, 1, k))
        for d in range(2, 6):
            for k in range(1, d):
                if 0 <= g - 2 * d - 1 + 2 * k <= g - 2:
                    out.append((g, d, k))
    return out


def t5_request(point, ctx):
    g, d, k = point
    raw = sqtaut.theorem5_class(g, d, k)
    rel = sqtaut.lambda_to_kappa(raw)
    provenance = {
        "theorem": "theorem5",
        "params": {"g": g, "d": d, "k": k},
        "kappa_only": True,
    }
    return raw, rel, sqtaut.emit_kl(rel, provenance)


def _homogeneous(p, degree: int) -> bool:
    return all(k == degree for k in p.homogeneous_degrees())


def t5_digest(point, result) -> str:
    return digest_json(result[2])


def t5_invariants(point, result) -> bool:
    g, d, k = point
    raw, rel, payload = result
    degree = g - 2 * d - 1 + 2 * k
    return (
        _homogeneous(raw, degree)
        and _homogeneous(rel, degree)
        and sqtaut.kl_is_kappa_only(rel)
        and sqtaut.parse_kl(payload) == rel
    )


# -- prop8 sweep ----------------------------------------------------------

def prop8_candidates() -> list:
    """(g, d, a, b, c) for prop8_relation: g = 5 and 8, d = 1..4, a, b = 0..2,
    c = 1..3, relation degree g-2d-2+a+b+c >= 0."""
    out = []
    for g in (5, 8):
        for d in range(1, 5):
            for a in range(3):
                for b in range(3):
                    for c in range(1, 4):
                        if g - 2 * d - 2 + a + b + c >= 0:
                            out.append((g, d, a, b, c))
    return out


def prop8_request(point, ctx):
    return sqtaut.prop8_relation(*point)


def prop8_payload(point, rel) -> dict:
    g, d, a, b, c = point
    provenance = {
        "theorem": "prop8",
        "params": {"a": a, "b": b, "c": c, "g": g, "d": d},
    }
    return sqtaut.emit_kl(rel, provenance)


def prop8_digest(point, rel) -> str:
    return digest_json(prop8_payload(point, rel))


def prop8_invariants(point, rel) -> bool:
    g, d, a, b, c = point
    return (
        _homogeneous(rel, g - 2 * d - 2 + a + b + c)
        and sqtaut.parse_kl(prop8_payload(point, rel)) == rel
    )


# -- pairing certificates -------------------------------------------------

def pairing_candidates() -> list:
    return [(d, k) for d in range(1, 6) for k in range(1, 6)]


def pairing_request(point, ctx) -> dict:
    """The certificate and, for at most 60 rows, the full entry grid, as the
    `pairing` command builds them."""
    d, k = point
    cert = sqtaut.rank_certificate(d, k)
    payload = {
        "d": d,
        "k": k,
        "size": cert.size,
        "blocks": [
            [b.length, b.size, [str(v) for v in b.diagonal], b.off_diagonal_checked]
            for b in cert.blocks
        ],
        "proven_zero_pairs": cert.zero_pairs,
        "unevaluated_pairs": cert.unevaluated_pairs,
        "full_rank": cert.full_rank,
    }
    if cert.size <= 60:
        matrix = sqtaut.PairingMatrix(d, k)
        cells = []
        for i in range(matrix.size):
            row = []
            for j in range(matrix.size):
                e = matrix.entry(i, j)
                if e.status == pairing.COMPUTED:
                    row.append(str(e.value))
                elif e.status == pairing.PROVEN_ZERO:
                    row.append("z")
                else:
                    row.append(".")
            cells.append(row)
        payload["entries"] = cells
    return payload


def pairing_digest(point, payload) -> str:
    return digest_json(payload)


def pairing_invariants(point, payload) -> bool:
    d, k = point
    return payload["full_rank"] is True and payload["size"] == len(
        sqtaut.enumerate_P(d, k)
    )


# -- CLI cold start -------------------------------------------------------

def cli_candidates() -> list:
    """CLI points: (command kind, *integer parameters)."""
    out = [("betti", d) for d in range(1, 13)]
    out += [("intersect", d, x1, d - 1 - x1) for d in range(1, 8)
            for x1 in range(d) if 2 * x1 <= d - 1]
    out += [("conifold", g, d) for g in range(2, 12) for d in (2, 3)]
    out += [("theorem5", g, d, 1) for g in range(3, 13) for d in (1, 2)
            if g - 2 * d + 1 >= 0]
    out += [("prop8", g, 1, a, a, a + 1) for g in range(4, 11) for a in range(2)]
    out += [("chern-push", g, d, d) for g in range(3, 9) for d in (1, 2)]
    out += [("mult", g, i, j) for g in range(3, 8) for i in range(1, 3)
            for j in range(i, 3)]
    out += [("lambda-to-kappa", g, d, 1) for g in range(3, 11) for d in (1, 2)
            if g - 2 * d + 1 >= 0]
    return out


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def cli_argv(point, tmp: Path) -> tuple:
    """(argv lists of the piped processes, stdin file or None) for a point.

    Builds the point's input files in `tmp`.
    """
    kind, *p = point
    if kind == "betti":
        return [["betti", "--d", str(p[0])]], None
    if kind == "intersect":
        d, x1, x2 = p
        return [["intersect", "--d", str(d), "--x1", str(x1), "--x2", str(x2)]], None
    if kind == "conifold":
        g, d = p
        return [["conifold", "--max-genus", str(g), "--d", str(d), "--json"]], None
    if kind == "theorem5":
        g, d, k = p
        return [["relation", "--theorem5", "-g", str(g), "-d", str(d), "-k", str(k),
                 "--json"]], None
    if kind == "prop8":
        g, d, a, b, c = p
        return [["relation", "--prop8", "-g", str(g), "-d", str(d), "-a", str(a),
                 "-b", str(b), "-c", str(c), "--json"]], None
    if kind == "chern-push":
        g, d, m = p
        return [["chern-f", "-g", str(g), "-d", str(d), "--degree", str(m), "--json"],
                ["push", "-"]], None
    if kind == "mult":
        g, i, j = p
        total = sqtaut.chern_F(g, 2, i + j)
        left = _write_json(tmp / f"mult-{g}-{i}-{j}-a.json",
                           sqtaut.emit_pointed(total.degree_part(i)))
        right = _write_json(tmp / f"mult-{g}-{i}-{j}-b.json",
                            sqtaut.emit_pointed(total.degree_part(j)))
        return [["mult", left, right]], None
    if kind == "lambda-to-kappa":
        g, d, k = p
        src = _write_json(tmp / f"l2k-{g}-{d}-{k}.json",
                          sqtaut.emit_kl(sqtaut.theorem5_class(g, d, k)))
        return [["lambda-to-kappa", "-", "--json"]], src
    raise ValueError(f"unknown CLI point {point!r}")


@dataclass
class CliContext:
    tmp: Path
    prefix: list          # interpreter and entry point for one CLI process
    commands: dict        # point -> (argv lists, stdin path)
    trace_dir: Path | None  # where the traced entry point writes its spans
    env: dict             # the CLI processes' environment
    calls: int = 0


def cli_setup(points, trace: bool = False, shim: Path | None = None,
              trace_dir: Path | None = None) -> CliContext:
    """Build the points' input files in a fresh temporary directory.

    Untraced, each process runs `python -m sqtaut`; traced, it runs `shim`,
    which writes its spans into `trace_dir`.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=TMP_ROOT))
    if trace:
        prefix = [sys.executable, str(shim)]
    else:
        prefix = [sys.executable, "-m", "sqtaut"]
        trace_dir = None
    commands = {tuple(pt): cli_argv(pt, tmp) for pt in points}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SQTAUT_OUTPUT_DIR", None)
    return CliContext(tmp, prefix, commands, trace_dir, env)


def cli_teardown(ctx: CliContext) -> None:
    shutil.rmtree(ctx.tmp, ignore_errors=True)


def cli_request(point, ctx: CliContext):
    """Run the point's command in fresh processes; return (exit codes, stdout)."""
    argvs, stdin_path = ctx.commands[tuple(point)]
    procs = []
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    try:
        for argv in argvs:
            prefix = list(ctx.prefix)
            if ctx.trace_dir is not None:
                prefix += [str(ctx.trace_dir / f"cli-{ctx.calls}-{len(procs)}.json")]
            source = procs[-1].stdout if procs else stdin
            procs.append(subprocess.Popen(
                prefix + argv, stdin=source, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, cwd=ctx.tmp, env=ctx.env,
            ))
            if source is not stdin:
                source.close()  # the next process owns the read end
        out, _ = procs[-1].communicate(timeout=120)
        for p in procs[:-1]:
            p.wait(timeout=120)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
        if stdin_path:
            stdin.close()
        ctx.calls += 1
    return tuple(p.returncode for p in procs), out


def cli_digest(point, result) -> str:
    return digest_bytes(result[1])


def cli_invariants(point, result) -> bool:
    return all(code == 0 for code in result[0])


# -- cycles and rounds ----------------------------------------------------

def deal(n: int):
    """Split a cycle into n rounds of about equal cost.

    The points, in order of cost, are dealt in groups of at most one run per
    round, back and forth, so the runs of one point land in different rounds.
    """
    def split(cycle: list) -> list:
        groups, group = [], []
        for k, runs in cycle:
            if len(group) + runs > n:
                groups.append(group)
                group = []
            group += [k] * runs
        groups.append(group)
        rounds: list = [[] for _ in range(n)]
        for i, group in enumerate(groups):
            slots = range(n) if i % 2 == 0 else range(n - 1, -1, -1)
            for k, r in zip(group, slots):
                rounds[r].append(k)
        return rounds
    return split


def by_family(size: int):
    """One round per family: the points that share their first `size`
    parameters, as a sweep over the others would run them."""
    def split(cycle: list) -> list:
        families: dict = {}
        for k, runs in cycle:
            families.setdefault(tuple(k.split(",")[:size]), []).extend([k] * runs)
        return [families[f] for f in sorted(families)]
    return split


# -- registry -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    candidates: Callable[[], list]
    request: Callable     # (point, context) -> result
    digest: Callable      # (point, result) -> digest of the output
    invariants: Callable  # (point, result) -> bool
    split: Callable       # cycle -> rounds, see deal and by_family
    passes: Callable = lambda cost: 1  # runs per cycle of a point of this cost

    def check(self, point, result, digest: str) -> bool:
        """True when the result matches the reference and its invariants."""
        return self.digest(point, result) == digest and self.invariants(point, result)

    def rounds(self, ref: dict) -> list:
        """The rounds of one cycle: every domain point, each run `passes`
        times, split into rounds."""
        entries = ref[self.name]
        ordered = sorted(entries, key=lambda k: (entries[k]["cost_s"], k))
        return self.split([(k, self.passes(entries[k]["cost_s"])) for k in ordered])


WORKLOADS = {
    w.name: w
    for w in (
        # the cheap points run twice, so that a cycle has 100 requests
        Workload("t5-sweep", t5_candidates, t5_request, t5_digest, t5_invariants,
                 deal(4), passes=lambda cost: 2 if cost < 0.05 else 1),
        # one round per (g, d): the requests of a round share c(F_d)
        Workload("prop8-sweep", prop8_candidates, prop8_request, prop8_digest,
                 prop8_invariants, by_family(2)),
        Workload("pairing-cert", pairing_candidates, pairing_request,
                 pairing_digest, pairing_invariants, deal(7),
                 passes=lambda cost: 7),
        Workload("cli-cold", cli_candidates, cli_request, cli_digest,
                 cli_invariants, deal(8)),
    )
}


def parse_point(k: str) -> tuple:
    parts = k.split(",")
    if parts[0].isdigit():
        return tuple(int(x) for x in parts)
    return (parts[0], *(int(x) for x in parts[1:]))


def round_points(workload: Workload, ref: dict, seed: int, index: int) -> list:
    """The points of round `index` of a run with `seed`, in request order.

    Rounds come in cycles, and every cycle runs the same rounds; the seed
    orders the rounds of each cycle and the requests of each round.
    """
    rounds = workload.rounds(ref)
    cycle, slot = divmod(index, len(rounds))
    rng = random.Random(f"{workload.name}/{seed}/{cycle}")
    picks = list(rounds[rng.sample(range(len(rounds)), len(rounds))[slot]])
    rng.shuffle(picks)
    return [parse_point(k) for k in picks]
