"""Deterministic discrete-event kernel.

Time is unsigned integer picoseconds. Events with equal timestamps dispatch
in insertion order, so a run is a pure function of (configuration, seed).
The kernel is strictly single-threaded; parallelism only ever exists across
independent simulations.

The queue keeps a heap of the distinct pending times, and for each time
a FIFO bucket of `(seq, handler, payload)` entries in seq order, where
`seq` counts the events a queue has been given. An event at a time that
already has a bucket is appended to it, so a run whose events share
their times pays one heap push and pop per time, not per event.
`run_until` takes the heap's least time and dispatches its bucket from
the front until it is empty, then pops the time, so an event that a
handler schedules at `now` joins the live bucket. `seq` is unique per
queue, so neither the heap nor a bucket ever compares a handler or
payload.

`schedule_all` schedules a batch of n events that an iterator yields in
time order, and reads each from the iterator only when the one before it
is dispatched. It reserves the seqs `base ... base+n-1` that n successive
`schedule` calls in that order would take, and advances the counter past
them, so every event scheduled later gets a larger seq. Only the batch's
earliest undispatched event sits in a bucket; its dispatch reads the
batch's next event and inserts it into its time's bucket at its seq's
place, which may be the bucket being dispatched, before calling the
handler. The dispatch order is exactly the one eager scheduling gives,
while the queue keeps nothing per event of the batch. A caller whose
events are not in time order sorts them first, stably, which gives the
order scheduling them one by one in their first order would.

A system runs its mesh on one of these queues. Each cluster runs its own
cores on a heap of turns in the same (time, seq) order
(`Cluster.run_until`), because no cluster shares state with another or
with the messages.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import random
from typing import Any, Callable, Iterable


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled in the simulated past."""


class EventQueue:
    """Events ordered by (time, insertion sequence): a heap of the distinct
    pending times, and for each a FIFO bucket of `(seq, handler, payload)`
    entries in seq order."""

    def __init__(self) -> None:
        self._times: list[int] = []     # heap of the times that have a bucket
        self._buckets: dict[int, list[tuple[int, Callable[[Any], None], Any]]] = {}
        self._seq = 0
        self.now = 0
        self.dispatched = 0

    def schedule(self, time_ps: int, handler: Callable[[Any], None],
                 payload: Any = None) -> None:
        if time_ps < self.now:
            raise SchedulingError(
                f"event scheduled at {time_ps} ps, before current time {self.now} ps")
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [(self._seq, handler, payload)]
            heapq.heappush(self._times, time_ps)
        else:
            bucket.append((self._seq, handler, payload))
        self._seq += 1

    def _insert(self, time_ps: int, entry: tuple) -> None:
        """Put a batch event into its time's bucket at its seq's place."""
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [entry]
            heapq.heappush(self._times, time_ps)
        else:
            bisect.insort(bucket, entry)

    def schedule_all(self, events: Iterable[tuple[int, Any]], count: int,
                     handler: Callable[[Any], None]) -> None:
        """Schedule `handler(payload)` at `time` for each of the `count`
        `(time, payload)` pairs of `events`, whose times never decrease, as
        `count` successive `schedule` calls would: the i-th takes seq
        base + i. Each pair is read when the one before it is dispatched,
        so only the batch's earliest undispatched event is in a bucket. A
        first time in the past raises SchedulingError before anything is
        scheduled, and a time before the one ahead of it raises it when it
        is read."""
        if count == 0:
            return
        events = iter(events)
        time_ps, payload = next(events)
        if time_ps < self.now:
            raise SchedulingError(
                f"event scheduled at {time_ps} ps, before current time {self.now} ps")
        base = self._seq
        self._seq += count
        rest = zip(range(base + 1, base + count), events)

        def dispatch(payload: Any) -> None:
            entry = next(rest, None)
            if entry is not None:
                seq, (time_ps, next_payload) = entry
                if time_ps < self.now:
                    raise SchedulingError(
                        f"batch event at {time_ps} ps comes after one at "
                        f"{self.now} ps")
                self._insert(time_ps, (seq, dispatch, next_payload))
            handler(payload)

        self._insert(time_ps, (base, dispatch, payload))

    def run_until(self, t_end_ps: int | float = math.inf) -> int:
        """Dispatch every event with time <= t_end_ps in (time, seq) order
        and return how many were dispatched.

        The simulated clock never decreases; when the queue drains early the
        clock still advances to t_end_ps (if finite) so that consecutive runs
        compose: run_until(t1); run_until(t2) == run_until(t2).
        """
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        count = 0
        while times and times[0] <= t_end_ps:
            self.now = time_ps = times[0]
            bucket = buckets[time_ps]
            i = 0
            try:
                for _, handler, payload in bucket:
                    i += 1
                    handler(payload)
            except BaseException:
                # A handler raised: the events its time has dispatched leave
                # the bucket, so the rest stay pending.
                del bucket[:i]
                raise
            heappop(times)
            del buckets[time_ps]
            count += i
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
