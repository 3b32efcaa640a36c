"""Spans around circembed's public functions, kept in memory, and the
per-layer metrics computed from them.

The program is measured from outside: each wrapper replaces a public name
at the place where its caller looks the name up.  `circembed.cli` imports
most functions by name, so those are replaced in `circembed.cli`; the
calls made inside `embedding`, `sampler` and `validation` are replaced in
those modules; `MaternKernel.kappa` is replaced on the class.  A wrapper
returns exactly what it wraps and re-raises what it raises.  A name that
no longer exists is skipped and listed in `Tracer.missing`, so its metrics
read 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# (module, attribute, span name, counts recorded at the boundary).  The
# counts are computed from arguments and results, so each is a count of
# work as the program was asked to do it, not a timing.
TARGETS = [
    ("circembed.cli", "minimal_embedding", "embedding.search", None),
    ("circembed.cli", "batch_sample_values", "sampler.batch",
     lambda a, k, r: {"kept_points": _size(r)}),
    ("circembed.cli", "validate_samples", "validation.validate", None),
    ("circembed.cli", "write_field_binary", "formats.write_binary",
     lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("circembed.cli", "write_field_csv", "formats.write_csv",
     lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("circembed.cli", "read_field_binary", "formats.read",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}),
    ("circembed.cli", "decay_report", "analysis.decay_report", None),
    ("circembed.embedding", "first_column", "embedding.first_column", None),
    ("circembed.embedding", "spectrum", "embedding.spectrum",
     lambda a, k, r: {"points": _size(_arg(a, k, 0, "column"))}),
    ("circembed.sampler", "draw_normal", "sampler.draw_normal",
     lambda a, k, r: {"points": _size(r)}),
    ("circembed.validation", "dense_covariance",
     "validation.dense_covariance", None),
    ("circembed.kernels:MaternKernel", "kappa", "kernels.kappa",
     lambda a, k, r: {"values": _size(_arg(a, k, 1, "r"))}),
]

ROOT = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self._op = 0
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, parent, sid, counts):
        with self._lock:
            self.spans.append(Span(sid, name, parent, self._op, start, end,
                                   counts))

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a call from a worker thread has no span of its own thread
            # above it; it belongs to the operation that started the thread
            parent = stack[-1] if stack else self._root
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                self._record(name, start, end, parent, sid,
                             {"raised": type(exc).__name__})
                raise
            end = time.perf_counter()
            stack.pop()
            self._record(name, start, end, parent, sid,
                         measure(args, kwargs, result) if measure else {})
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name, measure in TARGETS:
            owner = _resolve(module_name)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, measure))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn):
        """Call fn() as operation op_id under a root span; return its result."""
        with self._lock:
            sid = next(self._ids)
        self._op = op_id
        self._root = sid
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._record(ROOT, start, end, None, sid, {})
            self._root = None


def _resolve(spec: str):
    module_name, _, cls = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, cls, None) if cls else module


# --------------------------------------------------------------- metrics

def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    pieces = sorted((max(c.start, span.start), min(c.end, span.end))
                    for c in children)
    covered, reach = 0.0, span.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def span_totals(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed
    counts, over the given spans (those of one operation run)."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "max_points": 0})
        duration = s.end - s.start
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - _covered(s, children.get(s.id, []))
        for key, value in s.counts.items():
            if isinstance(value, (int, float)):
                t[key] = t.get(key, 0) + value
        t["max_points"] = max(t["max_points"], s.counts.get("points", 0))
    # a search attempt is one spectrum transform made inside the search;
    # the sampler's transform work is the normals drawn inside a batch
    for s in spans:
        t = totals[s.name]
        if s.name == "embedding.spectrum" \
                and _has_ancestor(s, "embedding.search", by_id):
            t["attempts"] = t.get("attempts", 0) + 1
        elif s.name == "sampler.draw_normal" \
                and _has_ancestor(s, "sampler.batch", by_id):
            t["batch_points"] = t.get("batch_points", 0) + s.counts["points"]
    return totals


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


# Per-layer metrics and their units.  Across the operations of a workload
# the values add, except *_max_points, which takes the largest; ratios are
# formed after adding.  *_bytes_computed are computed from shapes: points
# times the 16 bytes of a complex128 transform output.
LAYER_METRICS = {
    "kernels.kappa_calls": "count",
    "kernels.kappa_values": "count",
    "kernels.kappa_s": "s",
    "embedding.search_s": "s",
    "embedding.search_attempts": "count",
    "embedding.search_self_s": "s",
    "embedding.first_column_s": "s",
    "embedding.first_column_calls": "count",
    "embedding.spectrum_s": "s",
    "embedding.spectrum_points": "count",
    "embedding.spectrum_max_points": "count",
    "embedding.spectrum_bytes_computed": "bytes",
    "embedding.attempt_s": "s",
    "sampler.batch_s": "s",
    "sampler.batch_self_s": "s",
    "sampler.draw_normal_s": "s",
    "sampler.draw_normal_calls": "count",
    "sampler.transform_points": "count",
    "sampler.kept_points": "count",
    "sampler.kept_ratio": "ratio",
    "sampler.transform_bytes_computed": "bytes",
    "formats.write_s": "s",
    "formats.write_bytes": "bytes",
    "formats.csv_write_s": "s",
    "formats.read_s": "s",
    "formats.read_bytes": "bytes",
    "validation.validate_s": "s",
    "validation.dense_covariance_s": "s",
    "validation.self_s": "s",
    "validation.large_s": "s",
    "analysis.decay_report_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

COMPLEX_BYTES = 16


def op_layer_values(totals: dict) -> dict:
    """Additive per-layer values of one operation run (no ratios)."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    return {
        "kernels.kappa_calls": get("kernels.kappa", "calls"),
        "kernels.kappa_values": get("kernels.kappa", "values"),
        "kernels.kappa_s": get("kernels.kappa", "s"),
        "embedding.search_s": get("embedding.search", "s"),
        "embedding.search_attempts": get("embedding.spectrum", "attempts"),
        "embedding.search_self_s": get("embedding.search", "self_s"),
        "embedding.first_column_s": get("embedding.first_column", "s"),
        "embedding.first_column_calls": get("embedding.first_column",
                                            "calls"),
        "embedding.spectrum_s": get("embedding.spectrum", "s"),
        "embedding.spectrum_points": get("embedding.spectrum", "points"),
        "embedding.spectrum_max_points": get("embedding.spectrum",
                                             "max_points"),
        "sampler.batch_s": get("sampler.batch", "s"),
        "sampler.batch_self_s": get("sampler.batch", "self_s"),
        "sampler.draw_normal_s": get("sampler.draw_normal", "s"),
        "sampler.draw_normal_calls": get("sampler.draw_normal", "calls"),
        "sampler.transform_points": get("sampler.draw_normal",
                                        "batch_points"),
        "sampler.kept_points": get("sampler.batch", "kept_points"),
        "formats.write_s": (get("formats.write_binary", "s")
                            + get("formats.write_csv", "s")),
        "formats.write_bytes": (get("formats.write_binary", "bytes")
                                + get("formats.write_csv", "bytes")),
        "formats.csv_write_s": get("formats.write_csv", "s"),
        "formats.read_s": get("formats.read", "s"),
        "formats.read_bytes": get("formats.read", "bytes"),
        "validation.validate_s": get("validation.validate", "s"),
        "validation.dense_covariance_s": get("validation.dense_covariance",
                                             "s"),
        "validation.self_s": get("validation.validate", "self_s"),
        "analysis.decay_report_s": get("analysis.decay_report", "s"),
        "cli.self_s": get(ROOT, "self_s"),
        "trace.spans": sum(t["calls"] for t in totals.values()),
    }


def layer_metrics(per_op: list[dict], large_s: float,
                  overhead_s: float) -> dict:
    """Workload per-layer metrics from one dict per operation in the
    workload (each the median over that operation's traced runs)."""
    out = {}
    for key in per_op[0]:
        values = [v[key] for v in per_op]
        out[key] = max(values) if key.endswith("_max_points") else sum(values)
    out["embedding.spectrum_bytes_computed"] = \
        COMPLEX_BYTES * out["embedding.spectrum_points"]
    out["sampler.transform_bytes_computed"] = \
        COMPLEX_BYTES * out["sampler.transform_points"]
    attempts = out["embedding.search_attempts"]
    out["embedding.attempt_s"] = (out["embedding.search_s"] / attempts
                                  if attempts else 0.0)
    points = out["sampler.transform_points"]
    out["sampler.kept_ratio"] = (out["sampler.kept_points"] / points
                                 if points else 0.0)
    out["validation.large_s"] = large_s
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in LAYER_METRICS}
