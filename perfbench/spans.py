"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: each layer entry point
is wrapped at the module or class attribute its callers look up, so the
package under test is never edited.  A span holds its name, start, end,
parent span and the id of the operation it belongs to; counters ride on
the span as attributes.  Entry points called tens of thousands of times per
operation (the edge block) are recorded as one aggregate per parent span,
a call count and a total time, which keeps tracing cost and memory bounded.

A wrapped name that no longer exists is recorded as absent, not an error,
so the benchmark keeps working when a later change removes an entry point.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

_MISSING = object()


class Recorder:
    """Spans of traced operations, kept in memory until written out."""

    def __init__(self):
        self.spans: list[dict] = []
        # (parent span id, name) -> [calls, seconds] for aggregated leaves
        self.leaves: dict[tuple[int, str], list] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else -1, name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def write(self, path: str) -> None:
        """Write spans and aggregated leaves as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, name), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(
                    json.dumps(
                        {"aggregate": name, "parent": parent,
                         "op": self.spans[parent]["op"] if parent >= 0 else None,
                         "calls": calls, "seconds": seconds}
                    )
                    + "\n"
                )


def self_times(rec: Recorder) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    Operations run on one thread, so a span's children never overlap and
    the covered time is the sum of their durations plus the aggregated
    leaf time recorded under the span.
    """
    own = [s["end"] - s["start"] for s in rec.spans]
    for s in rec.spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    for (parent, _), (_, seconds) in rec.leaves.items():
        if parent >= 0:
            own[parent] -= seconds
    return own


# --- wrapping -------------------------------------------------------------


def _resolve(target: str):
    """``"pkg.module:Attr.sub"`` -> (owner object, attribute name, value)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, _MISSING)
        if owner is _MISSING:
            return None
    value = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(
        owner, attr, _MISSING
    )
    if value is _MISSING:
        return None
    return owner, attr, value


def _span_wrapper(fn, rec: Recorder, name: str, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if annotate is not None:
            span["attrs"].update(annotate(args, out))
        return out

    return wrapper


def _leaf_wrapper(fn, rec: Recorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, perf_counter() - t0)

    return wrapper


def _cached_generate_wrapper(fn, rec: Recorder, name: str):
    # A cache hit builds nothing; ``cache_info`` tells hits from misses when
    # the generator is memoised, otherwise every call builds its tree.
    info = getattr(fn, "cache_info", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = info().misses if info else None
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        hit = info is not None and info().misses == misses
        span["attrs"].update(hit=hit, edges_built=0 if hit else len(out.edges))
        return out

    return wrapper


class Tracer:
    """Installs span wrappers on the layer entry points and removes them."""

    def __init__(self, rec: Recorder, probes):
        self.rec = rec
        self.probes = probes
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for target, name, kind, annotate in self.probes:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, value = found
            self._saved.append((owner, attr, value))
            setattr(owner, attr, self._wrap(value, name, kind, annotate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, value, name, kind, annotate):
        if isinstance(value, functools.cached_property):
            wrapped = functools.cached_property(
                self._wrap(value.func, name, kind, annotate)
            )
            wrapped.__set_name__(None, value.attrname)
            return wrapped
        if kind == "leaf":
            return _leaf_wrapper(value, self.rec, name)
        if kind == "generate":
            return _cached_generate_wrapper(value, self.rec, name)
        return _span_wrapper(value, self.rec, name, annotate)
