"""Deterministic discrete-event kernel.

Time is unsigned integer picoseconds, and a run is a pure function of
(configuration, seed). The kernel is strictly single-threaded; parallelism
only ever exists across independent simulations.

`EventQueue` is the mesh's queue: every event is a payload for its one
handler, the mesh's router step. It rests on two facts of the mesh. No hop
is scheduled at the current time, because every router, link and TSV delay
is at least one cycle; so `schedule` refuses a time at or before `now`.
And every message's injection time is known when it is loaded; so the
injections come from one feed of `(time, payload)` pairs in time order,
which the queue reads one ahead, and at each time it injects every fed
record first, in feed order, and then dispatches the hop arrivals, in the
order they were scheduled. For the hops it keeps a heap of the distinct
pending times and a FIFO list of payloads for each, so hops that share a
time pay one heap push and pop.

Each cluster runs its own cores on a heap of turns in (time, seq) order
(`Cluster.run_until`), because no cluster shares state with another or
with the messages.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Any, Callable, Iterator


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled before the clock allows."""


class EventQueue:
    """The mesh's events: injections from one feed in time order, and hop
    arrivals in a heap of their distinct times with a FIFO list of
    payloads each, all dispatched to one handler."""

    def __init__(self, handler: Callable[[Any], None]) -> None:
        self._handler = handler
        self._times: list[int] = []     # heap of the times that have a list
        self._buckets: dict[int, list[Any]] = {}
        self._feed: Iterator[tuple[int, Any]] = iter(())
        self._head: tuple[int, Any] | None = None   # the feed's next pair
        self.now = 0
        self.dispatched = 0

    def schedule(self, time_ps: int, payload: Any) -> None:
        """Dispatch payload at time_ps, after the injections at that time
        and the payloads scheduled there before it."""
        if time_ps <= self.now:
            raise SchedulingError(
                f"event scheduled at {time_ps} ps, at or before current "
                f"time {self.now} ps")
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [payload]
            heapq.heappush(self._times, time_ps)
        else:
            bucket.append(payload)

    def feed(self, events: Iterator[tuple[int, Any]]) -> None:
        """Make `events`, `(time, payload)` pairs whose times never
        decrease, the injections, in place of any feed left. The queue
        reads each pair when the one before it is injected; a first time
        before `now` raises SchedulingError and sets nothing, and a time
        before the one ahead of it raises it when it is reached."""
        head = next(events, None)
        if head is not None and head[0] < self.now:
            raise SchedulingError(
                f"injection at {head[0]} ps, before current time {self.now} ps")
        self._feed, self._head = events, head

    def run_until(self, t_end_ps: int | float = math.inf) -> int:
        """Dispatch every event with time <= t_end_ps, each time's
        injections before its hop arrivals, and return how many were
        dispatched. An event whose handler raises has left the queue and
        counts, and the events after it stay pending.

        The simulated clock never decreases; when the queue drains early the
        clock still advances to t_end_ps (if finite) so that consecutive runs
        compose: run_until(t1); run_until(t2) == run_until(t2).
        """
        times, buckets, handler = self._times, self._buckets, self._handler
        feed, head = self._feed, self._head
        heappop = heapq.heappop
        count = i = 0
        try:
            while True:
                if head is not None and (not times or head[0] <= times[0]):
                    time_ps = head[0]
                    if time_ps < self.now:
                        raise SchedulingError(
                            f"injection at {time_ps} ps comes after one at "
                            f"{self.now} ps")
                elif times:
                    time_ps = times[0]
                else:
                    break
                if time_ps > t_end_ps:
                    break
                self.now = time_ps
                while head is not None and head[0] == time_ps:
                    payload = head[1]
                    head = next(feed, None)
                    count += 1
                    handler(payload)
                if times and times[0] == time_ps:
                    bucket = buckets[time_ps]
                    for payload in bucket:
                        i += 1
                        handler(payload)
                    heappop(times)
                    del buckets[time_ps]
                    count += i
                    i = 0
        finally:
            if i:
                # A hop's handler raised: the arrivals its list has
                # dispatched leave it, so the rest stay pending.
                del bucket[:i]
            self._head = head
            self.dispatched += count + i
        if t_end_ps != math.inf and t_end_ps > self.now:
            self.now = int(t_end_ps)
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
        free_at = self.free_at_ps
        start = arrival_ps if arrival_ps > free_at else free_at
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
