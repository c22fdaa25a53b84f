"""Record the reference table: one output digest and one cold cost per point.

    python3 perfbench/make_reference.py [workload ...]

Run once, at a commit whose `sqtaut verify-paper` passes every check; later
commits are checked against the digests it wrote.  Each API point runs with
the program's caches emptied first, so its cost is the cold cost.  For the
relation sweeps, whose points lead with the genus, the scan of a family of
points that differ only in genus stops at the first point over the cost
cutoff, because cost grows with genus.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from sqtaut import kappa_lambda, pointed, rings  # noqa: E402


def clear_caches() -> None:
    for fn in (pointed._chern_F_cached, kappa_lambda._lambda_table,
               rings._bernoulli_all):
        fn.cache_clear()


GENUS_SCANNED = ("t5-sweep", "prop8-sweep")


def measure(workload: wl.Workload) -> dict:
    points = workload.candidates()
    scanned = workload.name in GENUS_SCANNED
    ctx = None
    if workload.name == "cli-cold":
        ctx = wl.cli_setup(points, trace=False)
    table = {}
    too_costly = set()
    try:
        for point in points:
            family = point[1:]
            if family in too_costly:
                continue
            clear_caches()
            t0 = time.perf_counter()
            result = workload.request(point, ctx)
            cost = time.perf_counter() - t0
            if scanned and cost > wl.COST_CUTOFF_S:
                too_costly.add(family)
                print(f"{workload.name} {point}: {cost:.3f} s, dropped", flush=True)
                continue
            if not workload.invariants(point, result):
                raise RuntimeError(f"{workload.name} {point}: invariant failed")
            table[wl.key(point)] = {
                "digest": workload.digest(point, result),
                "cost_s": round(cost, 4),
            }
    finally:
        if ctx is not None:
            wl.cli_teardown(ctx)
    return table


def main(names) -> int:
    ref = wl.load_reference() if wl.REFERENCE.exists() else {}
    for name in names or list(wl.WORKLOADS):
        ref[name] = measure(wl.WORKLOADS[name])
        print(f"{name}: {len(ref[name])} points", flush=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
