"""Deterministic discrete-event kernel.

Time is unsigned integer picoseconds. Events with equal timestamps dispatch
in insertion order, so a run is a pure function of (configuration, seed).
The kernel is strictly single-threaded; parallelism only ever exists across
independent simulations.

The queue is a binary heap of plain `(time, seq, handler, payload)` tuples,
which `heapq` compares in C. `seq` is unique per queue, so two entries
always differ by the second field and a handler or payload is never
compared.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Any, Callable


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled in the simulated past."""


class EventQueue:
    """Priority queue of events ordered by (time, insertion sequence).

    Each heap entry is a `(time, seq, handler, payload)` tuple; `seq` is
    unique, so ties on time are broken by insertion order and a handler or
    payload is never compared."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self.now = 0
        self.dispatched = 0

    def schedule(self, time_ps: int, handler: Callable[[Any], None],
                 payload: Any = None) -> None:
        if time_ps < self.now:
            raise SchedulingError(
                f"event scheduled at {time_ps} ps, before current time {self.now} ps")
        heapq.heappush(self._heap, (int(time_ps), self._seq, handler, payload))
        self._seq += 1

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, t_end_ps: int | float = math.inf) -> int:
        """Dispatch every event with time <= t_end_ps in (time, seq) order
        and return how many were dispatched.

        The simulated clock never decreases; when the queue drains early the
        clock still advances to t_end_ps (if finite) so that consecutive runs
        compose: run_until(t1); run_until(t2) == run_until(t2).
        """
        heap = self._heap
        heappop = heapq.heappop
        count = 0
        while heap and heap[0][0] <= t_end_ps:
            time_ps, _, handler, payload = heappop(heap)
            self.now = time_ps
            handler(payload)
            count += 1
        if t_end_ps != math.inf and t_end_ps > self.now:
            self.now = int(t_end_ps)
        self.dispatched += count
        return count


class FifoResource:
    """A resource that serves one booking at a time, in booking order: a
    booking starts at max(arrival, free_at_ps) and holds the resource for
    its hold time, so windows never overlap and busy time is their sum.
    `book` is the one place this rule is applied."""

    __slots__ = ("free_at_ps", "busy_ps", "grants")

    def __init__(self) -> None:
        self.free_at_ps = 0
        self.busy_ps = 0
        self.grants = 0

    def book(self, arrival_ps: int, hold_ps: int) -> tuple[int, int]:
        """Book after every booking already made; returns (start, done)."""
        start = max(arrival_ps, self.free_at_ps)
        done = start + hold_ps
        self.free_at_ps = done
        self.busy_ps += hold_ps
        self.grants += 1
        return start, done


def cycles_for_latency(latency_ns: float, clock_period_ps: int) -> int:
    """Whole clock cycles covering a latency, rounding up."""
    if clock_period_ps <= 0:
        raise ValueError("clock period must be > 0")
    latency_ps = int(round(latency_ns * 1000.0))
    if latency_ps <= 0:
        return 0
    return -(-latency_ps // clock_period_ps)


def substream(seed: int, *path: int | str) -> random.Random:
    """Per-component RNG derived from the run seed and a fixed component path.

    Uses sha256 so streams are stable across platforms and adding a component
    never perturbs any other component's stream.
    """
    key = "/".join([str(seed), *map(str, path)]).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
