"""Span recording for the traced benchmark run.

The traced run wraps public functions of ``pbl`` from outside the package:
each wrapper records a span (id, parent, request id, name, start, end,
failed) and is bound in place of the original in every ``pbl`` module that
holds it, so calls between modules (``pbl.billiard.caustics``,
``pbl.periodicity.trace``, ...) are traced as well.  The wrappers are
bound only for the traced slices of a run; the untraced run installs
nothing.

``poncelet_verify`` runs its samples on a thread pool.  Pool threads start
with no open span, so their spans take the open ``poncelet_verify`` span
as parent; one closed-loop client means at most one is open at a time.
Only those children can overlap each other, so only a fostering span's
self time needs the union of its children's intervals.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

#: Per-layer metrics printed by the traced run, with their units.  The
#: wrapped functions are the ``<module>.<function>`` prefixes named here;
#: ``COUNTED`` ones only count calls, because they run many times per
#: billiard bounce and a span each would swamp the trace.
LAYER_METRICS = (
    ("confocal.caustics.calls", "calls/req"),
    ("confocal.caustics.self_ms", "ms/req"),
    ("confocal.caustics.failed", "calls/req"),
    ("confocal.integrals_F.calls", "calls/req"),
    ("confocal.integrals_F.self_ms", "ms/req"),
    ("confocal.integrals_F.failed", "calls/req"),
    ("metric.dot.calls", "calls/req"),
    ("billiard.trace.calls", "calls/req"),
    ("billiard.trace.self_ms", "ms/req"),
    ("billiard.trace.failed", "calls/req"),
    ("billiard.recompute_drift.self_ms", "ms/req"),
    ("billiard.trajectory_to_dict.self_ms", "ms/req"),
    ("billiard.direction_with_caustics.calls", "calls/req"),
    ("billiard.direction_with_caustics.failed", "calls/req"),
    ("billiard.direction_with_caustics.self_ms", "ms/req"),
    ("billiard.direction_with_caustics.useful_ratio", "ratio"),
    ("periodicity.poncelet_verify.overlap", "threads"),
    ("periodicity.planar_cayley_det.calls", "calls/req"),
    ("periodicity.planar_cayley_det.self_ms", "ms/req"),
    ("periodicity.planar_cayley_det.calls_per_root", "calls/root"),
    ("periodicity.sqrt_series.self_ms", "ms/req"),
    ("periodicity.cayley_condition.self_ms", "ms/req"),
    ("confocal.jacobi_coordinates.calls", "calls/req"),
    ("confocal.jacobi_coordinates.self_ms", "ms/req"),
    ("confocal.jacobi_coordinates.failed", "calls/req"),
    ("relativistic.relativistic_type.self_ms", "ms/req"),
    ("relativistic.decorated_coordinates.self_ms", "ms/req"),
    ("relativistic.focal_residual.self_ms", "ms/req"),
    ("relativistic.tropic_point.self_ms", "ms/req"),
    ("relativistic.tropic_surface_normal.self_ms", "ms/req"),
    ("confocal.interlacing_report.self_ms", "ms/req"),
    ("tracing.traced_over_untraced_rps", "ratio"),
)

COUNTED = frozenset({"metric.dot"})
FOSTERS = frozenset({"periodicity.poncelet_verify"})
TRACED = sorted({name.rsplit(".", 1)[0] for name, _ in LAYER_METRICS} - {"tracing"})

#: Span columns and their array type codes; parent -1 means no parent.
SPAN_COLUMNS = (("span", "q"), ("parent", "q"), ("request", "q"), ("name", "H"),
                ("start_s", "d"), ("end_s", "d"), ("failed", "B"))


class Recorder:
    """Thread-safe in-memory store of spans and call counts.

    Spans are kept column-wise in typed arrays (about 43 bytes a span), so
    a traced run of several hundred thousand calls stays small.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._foster = -1
        self.request_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.fostering: set[str] = set()
        self.cols = {col: array(code) for col, code in SPAN_COLUMNS}
        self.counts: Counter = Counter()

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def call(self, name: str, fn, args, kwargs, fosters: bool = False):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._foster
        with self._lock:
            self._next_id += 1
            sid = self._next_id
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            if fosters:
                self.fostering.add(name)
        stack.append(sid)
        saved = self._foster
        if fosters:
            self._foster = sid
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            if fosters:
                self._foster = saved
            stack.pop()
            row = (sid, parent, self.request_id, self._name_ids[name], start, end, failed)
            with self._lock:
                for col, value in zip(self.cols.values(), row):
                    col.append(value)

    def columns(self) -> dict:
        return {col: np.frombuffer(arr, dtype=arr.typecode) for col, arr in self.cols.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def install(recorder: Recorder, modules):
    """Bind a recording wrapper for every TRACED function in all modules,
    and return a function that binds the originals back.

    ``modules`` are the imported ``pbl`` modules; every attribute that is
    the original function object is replaced, whatever name it has there.
    """
    by_name = {m.__name__: m for m in modules}
    replaced = []
    for qual in TRACED:
        module, fname = qual.split(".")
        orig = getattr(by_name["pbl." + module], fname)
        if qual in COUNTED:
            def wrapper(*args, _fn=orig, _q=qual, **kwargs):
                recorder.count(_q)
                return _fn(*args, **kwargs)
        else:
            def wrapper(*args, _fn=orig, _q=qual, **kwargs):
                return recorder.call(_q, _fn, args, kwargs, _q in FOSTERS)
        wrapper = functools.wraps(orig)(wrapper)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    replaced.append((m, attr, orig))

    def uninstall() -> None:
        for m, attr, orig in replaced:
            setattr(m, attr, orig)

    return uninstall


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(recorder: Recorder) -> dict:
    """Per span name: calls, failed, self seconds, child busy and wall seconds.

    Self time is the span's duration minus the part of it that its direct
    children cover.  ``busy_s`` sums the children's durations, which for a
    fostering span exceeds the part they cover when pool threads overlap.
    """
    c = recorder.columns()
    n = len(c["span"])
    row_of = np.zeros(recorder._next_id + 1, dtype=np.int64)
    row_of[c["span"]] = np.arange(n)
    dur = c["end_s"] - c["start_s"]
    has_parent = c["parent"] >= 0
    parent_row = row_of[c["parent"][has_parent]]
    busy = np.bincount(parent_row, weights=dur[has_parent], minlength=n)
    covered = busy.copy()
    foster_ids = [i for i, name in enumerate(recorder.names) if name in recorder.fostering]
    kid_rows = np.flatnonzero(has_parent)[np.isin(c["name"][parent_row], foster_ids)]
    kids = defaultdict(list)
    for r, lo, hi in zip(row_of[c["parent"][kid_rows]], c["start_s"][kid_rows], c["end_s"][kid_rows]):
        kids[r].append((lo, hi))
    for r, intervals in kids.items():
        covered[r] = _union_length(intervals)
    self_s = dur - covered
    stats = {}
    for i, name in enumerate(recorder.names):
        mask = c["name"] == i
        stats[name] = {"calls": int(mask.sum()), "failed": int(c["failed"][mask].sum()),
                       "self_s": float(self_s[mask].sum()), "busy_s": float(busy[mask].sum()),
                       "wall_s": float(dur[mask].sum())}
    return stats


def layer_metrics(recorder: Recorder, requests: int, roots: int, rps_ratio: float) -> dict:
    """Value of every LAYER_METRICS entry; per-request figures divide by
    ``requests``, ``calls_per_root`` by the ``roots`` the requests found."""
    stats = layer_stats(recorder)
    empty = {"calls": 0, "failed": 0, "self_s": 0.0, "busy_s": 0.0, "wall_s": 0.0}
    values = {}
    for name, _ in LAYER_METRICS:
        qual, stat = name.rsplit(".", 1)
        st = stats.get(qual, empty)
        calls = recorder.counts[qual] if qual in COUNTED else st["calls"]
        if stat == "calls":
            v = calls / requests
        elif stat == "failed":
            v = st["failed"] / requests
        elif stat == "self_ms":
            v = 1e3 * st["self_s"] / requests
        elif stat == "useful_ratio":
            v = (calls - st["failed"]) / calls if calls else 0.0
        elif stat == "overlap":
            v = st["busy_s"] / st["wall_s"] if st["wall_s"] else 0.0
        elif stat == "calls_per_root":
            v = calls / roots if roots else 0.0
        elif name == "tracing.traced_over_untraced_rps":
            v = rps_ratio
        else:
            raise KeyError(name)
        values[name] = v
    return values
