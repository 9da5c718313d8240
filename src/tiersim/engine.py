"""Deterministic discrete-event kernel.

Time is unsigned integer picoseconds. Events with equal timestamps dispatch
in insertion order, so a run is a pure function of (configuration, seed).
The kernel is strictly single-threaded; parallelism only ever exists across
independent simulations.

The queue is a binary heap of plain `(time, seq, handler, payload)` tuples,
which `heapq` compares in C. `seq` is unique per queue, so two entries
always differ by the second field and a handler or payload is never
compared.

`schedule_all` schedules a batch of n events lazily. It reserves the seqs
`base ... base+n-1` that n successive `schedule` calls in list order would
take, and advances the counter past them, so every event scheduled later
gets a larger seq. Only the batch's earliest undispatched event sits in the
heap; its dispatch pushes the batch's next `(time, seq)` entry before
calling the handler. Keys stay unique, so the dispatch order is exactly the
one eager scheduling gives, while the heap holds only what is in flight.
A batch whose times never decrease, as generated message traffic always
is, is walked in index order; any other batch is walked in a stable sort
of its indices by time.

A system keeps one queue per cluster and one for the mesh, because no
cluster shares state with another or with the messages. A handler may run
an event in place instead of scheduling it when `runs_next` says it would
be dispatched next whatever happens: it falls within the current
`run_until` end and strictly before the heap's head (or the heap is
empty). The handler sets `now` to the event's time and goes on, so the
order of effects is the one scheduling gives. `dispatched` and the counts
`run_until` returns cover only events that went through the heap.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Any, Callable, Sequence


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
        self._reserved = 0      # batch events not yet pushed onto the heap
        self.now = 0
        self.dispatched = 0
        self._until: int | float = -math.inf   # the current run's end

    def schedule(self, time_ps: int, handler: Callable[[Any], None],
                 payload: Any = None) -> None:
        if time_ps < self.now:
            raise SchedulingError(
                f"event scheduled at {time_ps} ps, before current time {self.now} ps")
        heapq.heappush(self._heap, (int(time_ps), self._seq, handler, payload))
        self._seq += 1

    def schedule_all(self, times: Sequence[int], handler: Callable[[Any], None],
                     payloads: Sequence[Any]) -> None:
        """Schedule `handler(payloads[i])` at `times[i]` for every i, in the
        order n successive `schedule` calls would give: event i takes seq
        base + i. Only the batch's earliest undispatched event is in the
        heap at a time."""
        n = len(times)
        if n == 0:
            return
        # Timsort is linear on sorted input, so this checks an in-order
        # batch at C speed and spares it the index sort.
        ordered = sorted(times)
        if ordered[0] < self.now:
            raise SchedulingError(
                f"event scheduled at {ordered[0]} ps, before current time {self.now} ps")
        if ordered == times:
            order = iter(range(n))
        else:
            order = iter(sorted(range(n), key=times.__getitem__))
        base = self._seq
        self._seq += n
        self._reserved += n - 1
        heap = self._heap
        heappush = heapq.heappush

        def dispatch(payload: Any) -> None:
            i = next(order, None)
            if i is not None:
                self._reserved -= 1
                heappush(heap, (int(times[i]), base + i, dispatch, payloads[i]))
            handler(payload)

        i = next(order)
        heappush(heap, (int(times[i]), base + i, dispatch, payloads[i]))

    def runs_next(self, time_ps: int) -> bool:
        """Whether an event scheduled now at time_ps would be the next one
        dispatched: it is within the current run's end and strictly before
        every pending event, so a handler may run it in place."""
        heap = self._heap
        return time_ps <= self._until and (not heap or time_ps < heap[0][0])

    def pending(self) -> int:
        return len(self._heap) + self._reserved

    def run_until(self, t_end_ps: int | float = math.inf) -> int:
        """Dispatch every event with time <= t_end_ps in (time, seq) order
        and return how many were dispatched.

        The simulated clock never decreases; when the queue drains early the
        clock still advances to t_end_ps (if finite) so that consecutive runs
        compose: run_until(t1); run_until(t2) == run_until(t2).
        """
        heap = self._heap
        heappop = heapq.heappop
        self._until = t_end_ps
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
