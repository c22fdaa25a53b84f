"""One round of a workload, in a fresh process with every cache cold.

Reads a job from stdin as JSON:

    {"workload": name, "points": [...], "trace": bool, "spans_dir": path,
     "cpus": [n, ...], "setup_only": bool}

pins itself (and so the CLI processes it starts) to the CPUs listed,
imports sqtaut from the checkout, builds the round's inputs, issues the
requests one after another and checks every result.  Prints one JSON
object: the monotonic clock reading at the first request, per-request
latencies and verdicts, the request loop's wall time, peak RSS and, when
traced, the per-layer summary.  A setup-only job stops where the first
request would start and prints only the clock reading.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    job = json.load(sys.stdin)
    os.sched_setaffinity(0, job["cpus"])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sqtaut.cli  # noqa: F401  (the import every workload pays)
    import_s = time.perf_counter() - t0
    if not Path(sqtaut.__file__).resolve().is_relative_to(SRC):
        print(f"sqtaut imported from {sqtaut.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[job["workload"]]
    ref = wl.load_reference()[workload.name]
    points = [wl.parse_point(wl.key(p)) for p in job["points"]]
    is_cli = workload.name == "cli-cold"
    spans_dir = Path(job["spans_dir"]) if job["trace"] else None

    tracer = None
    if job["trace"] and not is_cli:
        tracer = Tracer()
        tracer.install()
    ctx = None
    if is_cli:
        ctx = wl.cli_setup(points, job["trace"], HERE / "cli_shim.py", spans_dir)
    if job["setup_only"]:
        t_first = time.monotonic()
        if ctx is not None:
            wl.cli_teardown(ctx)
        print(json.dumps({"t_first": t_first}))
        return 0
    failed = object()
    results, latencies = [], []
    try:
        t_first = time.monotonic()
        origin_ns = time.perf_counter_ns()
        for i, point in enumerate(points):
            start = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.run_request(i, workload.request, point, ctx)
                else:
                    result = workload.request(point, ctx)
            except Exception:
                traceback.print_exc()
                result = failed
            latencies.append(time.perf_counter() - start)
            results.append(result)
        loop_s = time.perf_counter_ns() - origin_ns
    finally:
        if tracer is not None:
            tracer.uninstall()
        if ctx is not None:
            wl.cli_teardown(ctx)

    verdicts = []
    for point, result in zip(points, results):
        try:
            ok = result is not failed and workload.check(
                point, result, ref[wl.key(point)]["digest"])
        except Exception:
            traceback.print_exc()
            ok = False
        verdicts.append(ok)

    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    out = {
        "t_first": t_first,
        "latencies": latencies,
        "ok": verdicts,
        "loop_s": loop_s / 1e9,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "import_s": [import_s],
        "layers": None,
    }
    if job["trace"]:
        if is_cli:
            out["layers"], out["import_s"] = merge_cli_traces(spans_dir)
        else:
            out["layers"] = tracer.summary()
            tracer.write_spans(spans_dir / "spans.json", origin_ns)
    print(json.dumps(out))
    return 0


def merge_cli_traces(spans_dir: Path):
    """Sum the per-process summaries the CLI shim wrote."""
    layers: dict = {}
    imports = []
    for path in sorted(spans_dir.glob("cli-*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        imports.append(data["import_s"])
        for name, value in data["summary"].items():
            layers[name] = layers.get(name, 0) + value
    return layers, imports


if __name__ == "__main__":
    sys.exit(main())
