"""Spans and work counts around sqtaut's public functions.

`Tracer.install` replaces each traced function in every loaded sqtaut module
that binds it, so calls made through any module's globals (for example
`PointedClass.__mul__` reaching `pc_mul`) are seen; `uninstall` puts every
original back.  Nothing inside the program changes: work done through
operators such as `GradedPoly.__mul__` counts toward the calling span.

A span is (name, start, end, parent span, request id); spans are kept in
memory in flat arrays and written out by `write_spans`.  Calls, total time
and self time (a span's time minus that of its traced children) are summed
as spans close.  The functions in HOT are called hundreds of thousands of
times per round: they are counted and timed the same way, but keep no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns


def _terms(p) -> int:
    return len(p.coeffs)


def _pterms(p) -> int:
    return len(p.terms)


# (module, function, work counts taken from the arguments and the result)
TARGETS = (
    ("rings", "poly_mul",
     lambda a, r: {"term_pairs": _terms(a[0]) * _terms(a[1]), "terms_out": _terms(r)}),
    ("pointed", "pc_mul",
     lambda a, r: {"merges": _pterms(a[0]) * _pterms(a[1]), "terms_out": _pterms(r)}),
    ("pointed", "chern_F", lambda a, r: {"terms_out": _pterms(r)}),
    ("pointed", "epsilon_push", lambda a, r: {"terms_in": _pterms(a[0])}),
    ("pointed", "theorem5_class", None),
    ("kappa_lambda", "lambda_to_kappa",
     lambda a, r: {"terms_in": _terms(a[0]), "terms_out": _terms(r)}),
    ("curve", "prop8_relation", None),
    ("curve", "cc_mul", None),
    ("curve", "pi_push", None),
    ("pairing", "rank_certificate", lambda a, r: {"rows": r.size}),
    ("pairing", "pairing_entry", None),
    ("pairing", "enumerate_P", None),
    ("genus0", "psi_integral_M0n", None),
    ("genus0", "intersect_M02d", None),
    ("genus0", "poincare_Q02", None),
    ("jsonio", "emit_kl", None),
    ("jsonio", "parse_kl", None),
    ("jsonio", "emit_pointed", None),
    ("jsonio", "parse_pointed", None),
    ("conifold", "conifold_F", None),
    ("cli", "main", None),
)

HOT = ("pairing.pairing_entry", "genus0.psi_integral_M0n")

# (module, lru_cache-wrapped function, metric prefix)
CACHES = (
    ("pointed", "_chern_F_cached", "pointed.chern_F_cache"),
    ("kappa_lambda", "_lambda_table", "kappa_lambda.lambda_table"),
    ("rings", "_bernoulli_all", "rings.bernoulli_cache"),
)


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, f, _ in TARGETS] + ["request"]
        self.hot = {self.names.index(name) for name in HOT}
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.name_col = array("i")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack: list = []      # open frames: [name id, start, child ns, span]
        self.request = -1
        self.counts: dict = {}
        self._patched: list = []   # (module, attribute, original)
        self._caches: list = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for name_id, (mod_name, fn_name, measure) in enumerate(TARGETS):
            home = importlib.import_module(f"sqtaut.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(name_id, original, measure)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").split(".")[0] == "sqtaut"
                        and getattr(mod, fn_name, None) is original):
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))
        for mod_name, fn_name, prefix in CACHES:
            fn = getattr(importlib.import_module(f"sqtaut.{mod_name}"), fn_name)
            self._caches.append((prefix, fn))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def _wrap(self, name_id: int, original, measure):
        counts = self.counts
        prefix = self.names[name_id]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame)
            if measure is not None:
                for k, v in measure(args + tuple(kwargs.values()), result).items():
                    name = f"{prefix}.{k}"
                    counts[name] = counts.get(name, 0) + v
            return result

        return wrapper

    # -- spans -----------------------------------------------------------

    def _open(self, name_id: int) -> list:
        span = -1
        if name_id not in self.hot:
            span = len(self.name_col)
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0), -1)
            self.name_col.append(name_id)
            self.parent_col.append(parent)
            self.request_col.append(self.request)
            self.start_col.append(0)
            self.end_col.append(0)
        frame = [name_id, 0, 0, span]
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        name_id, start, child_ns, span = frame
        duration = end - start
        self.calls[name_id] += 1
        self.total_ns[name_id] += duration
        self.self_ns[name_id] += duration - child_ns
        if self.stack:
            self.stack[-1][2] += duration
        if span >= 0:
            self.start_col[span] = start
            self.end_col[span] = end

    def _cache_state(self) -> list:
        return [(p, fn.cache_info()) for p, fn in self._caches]

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) as request `request_id` inside a root span and
        add the request's cache hits and misses to the counts."""
        self.request = request_id
        before = self._cache_state()
        frame = self._open(len(TARGETS))
        try:
            return fn(*args)
        finally:
            self._close(frame)
            for (prefix, old), (_, new) in zip(before, self._cache_state()):
                for field in ("hits", "misses"):
                    name = f"{prefix}.{field}"
                    delta = getattr(new, field) - getattr(old, field)
                    self.counts[name] = self.counts.get(name, 0) + delta
            self.request = -1

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per traced function: calls, total and self seconds; plus counts."""
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[name_id]
            out[f"{name}.total_s"] = self.total_ns[name_id] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name_id] / 1e9
        out.update(self.counts)
        return out

    def write_spans(self, path, origin_ns: int) -> None:
        """Write the kept spans, times in nanoseconds after `origin_ns`."""
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "request", "start_ns", "end_ns"],
            "name": self.name_col.tolist(),
            "parent": self.parent_col.tolist(),
            "request": self.request_col.tolist(),
            "start_ns": [t - origin_ns for t in self.start_col],
            "end_ns": [t - origin_ns for t in self.end_col],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
