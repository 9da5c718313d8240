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
from typing import Sequence

from .engine import EventQueue, FifoResource
from .metrics import LatencyLog

Coord = tuple[int, int, int]


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
    dims: tuple[int, int, int]
    link_latency: int = 1     # cycles per horizontal hop
    tsv_latency: int = 1      # cycles per vertical hop
    router_delay: int = 1     # cycles per router traversal
    flit_width: int = 16      # bytes

    def violations(self, path: str = "noc") -> list[str]:
        out = []
        if any(d < 1 for d in self.dims):
            out.append(f"{path}.dims: all dimensions must be >= 1 ({self.dims})")
        if self.link_latency < 1 or self.tsv_latency < 1:
            out.append(f"{path}: link/TSV latencies must be >= 1 cycle")
        if self.router_delay < 1:
            out.append(f"{path}.router_delay: must be >= 1 ({self.router_delay})")
        if self.flit_width < 1:
            out.append(f"{path}.flit_width: must be >= 1 ({self.flit_width})")
        return out

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

    Messages are injected as parallel lists, one entry per message. A
    packet is the plain tuple `(node, dst, flits, t_inject)`, built only
    when its injection event is dispatched. Each directed link
    `(node, port)` is a `FifoResource`, built on first use and booked like
    the bus channels, cache arrays and memory controllers: it is held for
    `flits` cycles per packet. The head flit advances router by router, so
    queueing delay is the only congestion effect (unbounded input buffers,
    no drops). `msg_samples` logs each delivered message's injection and
    delivery times, in delivery order.
    """

    def __init__(self, topo: MeshTopology, engine: EventQueue,
                 clock_period_ps: int = 1000):
        self.topo = topo
        self.engine = engine
        self.clock_period_ps = clock_period_ps
        self.links: dict[tuple[Coord, str], FifoResource] = {}
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
        anything is scheduled, each distinct one once; each size's flit
        count is worked out here, not per dispatch. All messages are
        counted as injected now; the event queue holds only the earliest one
        not yet dispatched, and message i becomes a packet when its event is
        dispatched."""
        for node in {*srcs, *dsts}:
            if not self.topo.contains(node):
                raise ValueError(f"packet endpoints outside mesh {self.topo.dims}")
        flits_of = {b: packetize(b, self.topo.flit_width)
                    for b in set(payload_bytes)}
        flits = [flits_of[b] for b in payload_bytes]
        engine = self.engine

        def inject_one(i: int) -> None:
            self._at_router((srcs[i], dsts[i], flits[i], engine.now))

        self.injected += len(times_ps)
        engine.schedule_all(times_ps, inject_one, range(len(times_ps)))

    def _at_router(self, pkt: tuple[Coord, Coord, int, int]) -> None:
        # One hop of XYZ routing: pick the output port, the next node and the
        # link or TSV latency. `reference_walk` in tests/test_interconnect.py
        # spells the same routing out step by step and checks this against it.
        node, dst, flits, t_inject = pkt
        x, y, z = node
        dx, dy, dz = dst
        topo = self.topo
        clock = self.clock_period_ps
        if x != dx:
            if dx > x:
                port, nxt = "+x", (x + 1, y, z)
            else:
                port, nxt = "-x", (x - 1, y, z)
            hop_latency = topo.link_latency
        elif y != dy:
            if dy > y:
                port, nxt = "+y", (x, y + 1, z)
            else:
                port, nxt = "-y", (x, y - 1, z)
            hop_latency = topo.link_latency
        elif z != dz:
            if dz > z:
                port, nxt = "+z", (x, y, z + 1)
            else:
                port, nxt = "-z", (x, y, z - 1)
            hop_latency = topo.tsv_latency
        else:
            self.delivered += 1
            self.msg_samples.append(t_inject, self.engine.now + flits * clock)
            return
        ready = self.engine.now + topo.router_delay * clock
        link = self.links.get((node, port))
        if link is None:
            link = self.links[(node, port)] = FifoResource()
        depart, _ = link.book(ready, flits * clock)
        self.engine.schedule(depart + hop_latency * clock, self._at_router,
                             (nxt, dst, flits, t_inject))
