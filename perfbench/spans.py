"""Spans for the traced run, recorded from outside the simulator.

`instrument` swaps the public functions of each tiersim layer for wrappers
that record one span per call (name, start, end, parent) and restores the
originals on exit. Spans are kept in flat arrays in memory and written out
once, after the run. A span's self time is its duration minus the time its
wrapped children cover; work in an unwrapped callee counts as the caller's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from tiersim import cache, coherence, engine, interconnect, system

SPANS_FORMAT = "tiersim-perfbench-spans-1"
_FIELDS = (("name", "i"), ("parent", "i"), ("start_ns", "q"), ("end_ns", "q"))

CACHE_METHODS = ("probe", "fill", "evict", "select_victim", "demand_read",
                 "writeback_write", "service", "touch", "write_touch",
                 "invalidate")


class SpanRecorder:
    """Spans of one traced run, plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]          # stack of open span indexes; -1 is the root
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(result) runs once the span
        is closed, so counting costs the caller, not the layer."""
        nid = self.name_id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own pipeline."""
        idx = self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def self_times(self) -> dict[str, tuple[int, int]]:
        return self_times(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path: str) -> None:
        header = {"format": SPANS_FORMAT, "names": self.names,
                  "count": len(self.start), "byteorder": sys.byteorder,
                  "fields": [list(f) for f in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str) -> dict:
    """Load a file written by SpanRecorder.write: the header plus one
    array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != SPANS_FORMAT:
            raise ValueError(f"{path}: not a spans file")
        out = {"names": header["names"]}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            out[field] = arr
    return out


def self_times(names, name, parent, start, end) -> dict[str, tuple[int, int]]:
    """{span name: (calls, self time in ns)}.

    Children are recorded after their parent, so one pass from the last
    span back finds every child's duration before its parent is reached.
    """
    covered = [0] * len(start)
    calls = [0] * len(names)
    own = [0] * len(names)
    for i in range(len(start) - 1, -1, -1):
        duration = end[i] - start[i]
        nid = name[i]
        calls[nid] += 1
        own[nid] += duration - covered[i]
        p = parent[i]
        if p >= 0:
            covered[p] += duration
    return {n: (calls[k], own[k]) for k, n in enumerate(names)}


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap every traced tiersim function for the duration of the block."""
    counts = rec.counts

    def count_holder(state: str) -> None:
        if state != cache.I:
            counts["snoop_useful"] += 1

    def count_actions(step) -> None:
        for action in step.actions:
            if action[0] == coherence.SUPPLY_OWNER:
                counts["c2c_supplies"] += 1
            elif action[0] == coherence.INVALIDATE:
                counts["invalidations"] += 1

    targets = [(cache.CacheLevel, m, f"cache.{m}", None) for m in CACHE_METHODS]
    targets += [
        (system.Stack, "state", "coherence.snoop_state", count_holder),
        (system.Stack, "authoritative", "coherence.snoop_authoritative", None),
        # system.py imports coherence_step by name, so its binding there is
        # the one the access path calls.
        (system, "coherence_step", "coherence.step", count_actions),
        (interconnect.BusChannel, "request", "bus.request", None),
        (interconnect.MeshNetwork, "_at_router", "noc.hop", None),
        (engine.EventQueue, "schedule", "engine.schedule", None),
        (system.MemoryController, "serve", "memctrl.serve", None),
        (system.System, "run", "system.run", None),
        (system.System, "build_report", "report.build", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
