"""Intra-cluster coherent bus and inter-cluster mesh NoC.

The bus is three independent FIFO channels (request, response, snoop) with
beat-serial occupancy. The NoC is a 2D/3D mesh with deterministic XYZ
dimension-order routing, input-buffered routers with unbounded queues, and
pipelined flit serialization: a packet's zero-load latency is
hops * (router_delay + per-hop link/TSV latency) + flit count.

Bus and NoC are disjoint fabrics; nothing ever bridges them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .engine import EventQueue, FifoResource
from .metrics import LatencyLog
from .workload import Size

Coord = tuple[int, int, int]
Step = tuple[FifoResource, int]   # a directed link and its hop latency in ps


# --- cluster bus -------------------------------------------------------------


class BusChannel(FifoResource):
    """One bus layer: FIFO grants, one transfer in flight at a time,
    occupancy of ceil(bytes / beat_width) cycles per grant."""

    def __init__(self, beat_width: int = 16, clock_period_ps: int = 1000):
        super().__init__()
        self.beat_width = beat_width
        self.clock_period_ps = clock_period_ps
        self._hold_ps: dict[int, int] = {}  # transfer size -> hold time

    def occupancy_cycles(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.beat_width))

    def request(self, t_ps: int, nbytes: int) -> tuple[int, int]:
        """Book a transfer arriving at t_ps after every transfer already
        booked; returns (grant time, completion time).

        Grants are FIFO in booking order, not in arrival order: a booking
        can arrive earlier than one already on the channel (7.5% of fig33's
        bus bookings at seed 0 do) and then waits behind it. ROADMAP item 3 tracks
        making bookings causally ordered. The hold time is computed once
        per transfer size: only 8 bytes and the block size occur."""
        hold = self._hold_ps.get(nbytes)
        if hold is None:
            hold = self._hold_ps[nbytes] = (self.occupancy_cycles(nbytes)
                                            * self.clock_period_ps)
        return self.book(t_ps, hold)


class ClusterBus:
    """CCI-style three-layered bus: requests, responses, snoops."""

    def __init__(self, beat_width: int = 16, clock_period_ps: int = 1000):
        self.request = BusChannel(beat_width, clock_period_ps)
        self.response = BusChannel(beat_width, clock_period_ps)
        self.snoop = BusChannel(beat_width, clock_period_ps)


# --- mesh topology and analytics ---------------------------------------------


@dataclass(frozen=True)
class MeshTopology:
    """A mesh's shape and timing. Each field's annotation is its only rule
    as a config value, and its default the config's; a SystemSpec fills in
    the default `dims` from its cluster grid and core tiers."""

    dims: tuple[Size, Size, Size] | None = None
    link_latency: Size = 1    # cycles per horizontal hop
    tsv_latency: Size = 1     # cycles per vertical hop
    router_delay: Size = 1    # cycles per router traversal
    flit_width: Size = 16     # bytes

    def contains(self, coord: tuple[int, int, int]) -> bool:
        x, y, z = coord
        nx, ny, nz = self.dims
        return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz


def _dim_mean_distance(n: int) -> Fraction:
    # sum over ordered pairs of |i-j| in 0..n-1 is n(n^2-1)/3
    return Fraction(n * n * n - n, 3 * n * n)


def mean_hop_count(dims: tuple[int, int, int]) -> Fraction:
    """Exact average Manhattan distance over ordered (src, dst) pairs,
    self-pairs included. Excluding them rescales by n/(n-1) with n the node
    count, which cancels in 2D-vs-3D ratios."""
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid mesh dims {dims}")
    return sum((_dim_mean_distance(d) for d in dims), Fraction(0))


def packetize(payload_bytes: int, flit_width: int) -> int:
    """Flit count of a payload: one header flit plus ceil(payload /
    flit_width) body flits. At one flit per cycle per link it is also the
    serialization time in cycles."""
    if flit_width <= 0:
        raise ValueError("flit_width must be > 0")
    if payload_bytes < 0:
        raise ValueError("payload must be >= 0")
    return 1 + -(-payload_bytes // flit_width)


# --- timed mesh network --------------------------------------------------------


class MeshNetwork:
    """Packet-level timed mesh on the shared event queue.

    Messages are injected as parallel lists, one entry per message. Each
    distinct (src, dst) pair has one XYZ route, built by `_route` when the
    first of its packets is dispatched: a tuple of `(link, hop_ps)` steps,
    one per directed link, shared by every route that crosses the link.
    `_steps` keeps the step of each link `(node, port)`. Its link is a
    `FifoResource`, created when the first route that crosses it is built
    and booked like the bus channels, cache arrays and memory controllers:
    it is held for one cycle per flit of each packet. A packet is the plain
    tuple `(steps, hold_ps, t_inject)`, with `steps` an iterator over its
    route; it is built when its injection event is dispatched and reused
    from hop to hop. The head flit advances router by router, so queueing
    delay is the only congestion effect (unbounded input buffers, no
    drops). `msg_samples` logs each delivered message's injection and
    delivery times, in delivery order.
    """

    def __init__(self, topo: MeshTopology, engine: EventQueue,
                 clock_period_ps: int = 1000):
        self.topo = topo
        self.engine = engine
        self.clock_period_ps = clock_period_ps
        self._routes: dict[tuple[Coord, Coord], tuple[Step, ...]] = {}
        self._steps: dict[tuple[Coord, str], Step] = {}
        self._router_ps = topo.router_delay * clock_period_ps
        self.injected = 0
        self.delivered = 0
        self.msg_samples = LatencyLog()

    @property
    def in_flight(self) -> int:
        return self.injected - self.delivered

    def inject(self, times_ps: Sequence[int], srcs: Sequence[Coord],
               dsts: Sequence[Coord], payload_bytes: Sequence[int]) -> None:
        """Inject message i from srcs[i] to dsts[i] at times_ps[i], carrying
        payload_bytes[i]. Every node and payload size is checked before
        anything is scheduled, each distinct one once; each size's link
        hold time (one cycle per flit) is worked out here, not per
        dispatch. All messages are counted as injected now; the event queue
        holds only the earliest one not yet dispatched. When message i's
        event is dispatched, its pair's route is looked up, or built, and
        the message becomes a packet at its source router."""
        for node in {*srcs, *dsts}:
            if not self.topo.contains(node):
                raise ValueError(f"packet endpoints outside mesh {self.topo.dims}")
        clock = self.clock_period_ps
        hold_of = {b: packetize(b, self.topo.flit_width) * clock
                   for b in set(payload_bytes)}
        holds = [hold_of[b] for b in payload_bytes]
        engine = self.engine
        routes = self._routes

        def inject_one(i: int) -> None:
            pair = (srcs[i], dsts[i])
            route = routes.get(pair)
            if route is None:
                route = routes[pair] = self._route(*pair)
            self._at_router((iter(route), holds[i], engine.now))

        self.injected += len(times_ps)
        engine.schedule_all(times_ps, inject_one, range(len(times_ps)))

    def _route(self, src: Coord, dst: Coord) -> tuple[Step, ...]:
        """XYZ dimension-order routing: the steps that correct x, then y,
        then z, one hop at a time."""
        topo = self.topo
        node = list(src)
        route = []
        for axis, name in enumerate("xyz"):
            latency = topo.tsv_latency if name == "z" else topo.link_latency
            while node[axis] != dst[axis]:
                sign = 1 if dst[axis] > node[axis] else -1
                key = (tuple(node), ("+" if sign > 0 else "-") + name)
                step = self._steps.get(key)
                if step is None:
                    step = self._steps[key] = (
                        FifoResource(), latency * self.clock_period_ps)
                route.append(step)
                node[axis] += sign
        return tuple(route)

    def _at_router(self, pkt: tuple[Iterator[Step], int, int]) -> None:
        # The head flit at a router: book the route's next link after the
        # router delay and arrive at the next router after its latency, or
        # deliver once the route is used up.
        steps, hold_ps, t_inject = pkt
        step = next(steps, None)
        engine = self.engine
        if step is None:
            self.delivered += 1
            self.msg_samples.append(t_inject, engine.now + hold_ps)
            return
        link, hop_ps = step
        depart, _ = link.book(engine.now + self._router_ps, hold_ps)
        engine.schedule(depart + hop_ps, self._at_router, pkt)
