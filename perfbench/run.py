"""The sqtaut benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced

A run is a sequence of whole cycles of rounds (see workloads.py), each
round one fresh worker process, started until `--seconds` have passed and
at least `min_requests` (meta.json) requests were issued, so that ten
samples lie beyond p90.  Every cycle runs the same points, so every run
measures the same mix.  The client is closed-loop and single: one request
at a time.  Each round is pinned to one of the CPUs the run may use, taking
them in turn, so that every run spends the same share of its rounds on each
CPU; on a shared host this steadies the figures.  A cli-cold round may use
all of them, because a piped command runs two processes side by side.

After each untraced round, a few more fresh workers on the same points stop
where their first request would start, so that `setup_s` is a median over
at least `setup_samples` (meta.json) set-ups per cycle.

With `--trace 0` the run reports the end-to-end metrics of meta.json.  With
`--trace 1` it alternates untraced and traced rounds over the same points
and reports the per-layer metrics, as means per traced round, plus
`trace.overhead_ratio`.  The traced rounds' spans are written under
`.perfbench_out/spans/`.

Standard library only.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exits 1, without that line,
when the checkout holds no program to measure or a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
META = HERE / "meta.json"
SPANS_ROOT = ROOT / ".perfbench_out" / "spans"
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_meta() -> dict:
    with open(META, encoding="utf-8") as fh:
        return json.load(fh)


def run_round(workload: str, points: list, trace: bool, spans_dir: Path | None,
              cpus: list, setup_only: bool = False) -> dict:
    """Run one round in a fresh worker pinned to `cpus`; return the worker's
    report plus `setup_s`, the time from spawning the worker to its first
    request.  With `setup_only` the worker stops where its first request
    would start."""
    job = {"workload": workload, "points": points, "trace": trace,
           "spans_dir": str(spans_dir) if spans_dir else None, "cpus": cpus,
           "setup_only": setup_only}
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    # a session of its own, so that a stuck round is killed with its children
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"a {workload} round exceeded {ROUND_TIMEOUT_S} s") from None
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"a {workload} round failed with exit code {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["t_first"] - spawned
    return report


def plan(workload: str, seed: int):
    """(points of round i, rounds per cycle) for a run with `seed`."""
    sys.path.insert(0, str(SRC))
    import workloads as wl

    w = wl.WORKLOADS[workload]
    ref = wl.load_reference()
    return (lambda index: [list(p) for p in wl.round_points(w, ref, seed, index)],
            len(w.rounds(ref)))


def hd_quantile(xs: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of `xs`: the mean of the
    order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  In a
    sparse tail it rests on several samples, where interpolation rests on
    two, so one slow request moves it less.  Needs p(n+1) > 1 and
    (1-p)(n+1) > 1."""
    xs = sorted(xs)
    n, steps = len(xs), 16
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # the weight of the i-th order statistic is the density's mass on
    # [i/n, (i+1)/n], by Simpson's rule
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds: list, setups: list) -> dict:
    latencies = [x for r in rounds for x in r["latencies"]]
    verdicts = [x for r in rounds for x in r["ok"]]
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(latencies) / sum(r["loop_s"] for r in rounds),
        "latency_p50_ms": hd_quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": hd_quantile(latencies, 0.9) * 1e3,
        "ok_ratio": sum(verdicts) / len(verdicts),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list, untraced: list, names: list) -> dict:
    """Per-layer metrics as means per traced round; ratios from the sums."""
    sums: dict = {}
    for r in traced:
        for name, value in r["layers"].items():
            sums[name] = sums.get(name, 0) + value
    n = len(traced)
    out = {name: sums.get(name, 0) / n for name in names}
    out["rings.poly_mul.yield"] = _ratio(
        sums.get("rings.poly_mul.terms_out", 0), sums.get("rings.poly_mul.term_pairs", 0))
    out["pointed.pc_mul.yield"] = _ratio(
        sums.get("pointed.pc_mul.terms_out", 0), sums.get("pointed.pc_mul.merges", 0))
    hits = sums.get("pointed.chern_F_cache.hits", 0)
    out["pointed.chern_F_cache.hit_ratio"] = _ratio(
        hits, hits + sums.get("pointed.chern_F_cache.misses", 0))
    out["cli.import_s"] = statistics.median(x for r in traced for x in r["import_s"])

    def rate(rounds):
        return sum(len(r["latencies"]) for r in rounds) / sum(r["loop_s"] for r in rounds)

    out["trace.overhead_ratio"] = rate(traced) / rate(untraced)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run cycles until `seconds` pass and enough requests were issued;
    return (rounds, metric values).

    Untraced, each round is followed by set-up-only workers on the same
    points, enough that a cycle gives at least `setup_samples` set-up
    times."""
    points_of, cycle = plan(workload, seed)
    meta = load_meta()
    probes = 0 if trace else -(-meta["setup_samples"] // cycle) - 1
    setups = []
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    spans_dir = SPANS_ROOT / f"{workload}-seed{seed}"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
    cpus = sorted(os.sched_getaffinity(0))
    index = 0
    while True:
        points = points_of(index)
        # a CLI request may pipe two processes, which run side by side
        pin = cpus if workload == "cli-cold" else [cpus[index % len(cpus)]]
        untraced.append(run_round(workload, points, False, None, pin))
        setups.append(untraced[-1]["setup_s"])
        for _ in range(probes):
            setups.append(run_round(workload, points, False, None, pin,
                                    setup_only=True)["setup_s"])
        if trace:
            traced.append(run_round(workload, points, True,
                                    spans_dir / f"round-{index}", pin))
        index += 1
        if index % cycle:
            continue
        issued = sum(len(r["latencies"]) for r in untraced)
        if time.monotonic() >= deadline and issued >= meta["min_requests"]:
            break
    if trace:
        names = [m["name"] for m in meta["per_layer"]]
        return untraced + traced, per_layer(traced, untraced, names)
    return untraced, end_to_end(untraced, setups)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def report(rounds: list, values: dict, units: dict) -> dict:
    verdicts = [x for r in rounds for x in r["ok"]]
    failed = verdicts.count(False)
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    meta = load_meta()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in meta["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=meta["default_seed"])
    parser.add_argument("--seconds", type=float, default=meta["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqtaut" / "__init__.py").is_file():
        print(f"error: no sqtaut sources under {SRC}", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in meta[kind]}
    names = [w["name"] for w in meta["workloads"]] if args.workload == "all" else [args.workload]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": commit(), "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    all_rounds, all_values, all_units = [], {}, {}
    try:
        for name in names:
            rounds, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"workload": name, **env, "rounds": len(rounds)}))
            for metric, value in values.items():
                print(f"  {name:13s} {metric:40s} {value:14.6f} {units[metric]}")
            all_rounds += rounds
            if len(names) == 1:
                all_values, all_units = values, units
            else:
                for metric, value in values.items():
                    all_values[f"{name}.{metric}"] = value
                    all_units[f"{name}.{metric}"] = units[metric]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(all_rounds, all_values, all_units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
