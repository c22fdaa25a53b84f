"""Traced stand-in for `python -m sqtaut`.

    python3 perfbench/cli_shim.py DIR/NAME.json <sqtaut arguments>

Times the cold import of `sqtaut.cli`, installs the tracer and runs the
command with the same stdin and stdout.  Writes the import time and the
per-layer summary to DIR/NAME.json and the spans to DIR/spans-NAME.json.
Exits with the command's code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import sqtaut.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    origin_ns = time.perf_counter_ns()
    try:
        code = tracer.run_request(0, sqtaut.cli.main, argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    out = Path(out_path)
    tracer.write_spans(out.with_name("spans-" + out.name), origin_ns)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
