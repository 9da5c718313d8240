"""Intra-cluster coherent bus and inter-cluster mesh NoC.

The bus is three independent FIFO channels (request, response, snoop) with
beat-serial occupancy. The NoC is a 2D/3D mesh with deterministic XYZ
dimension-order routing, input-buffered routers with unbounded queues, and
pipelined flit serialization: a packet's zero-load latency is
hops * (router_delay + per-hop link/TSV latency) + flit count.

Bus and NoC are disjoint fabrics; nothing ever bridges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import EventQueue

MESSAGE = "message"

LOCAL = "local"


# --- cluster bus -------------------------------------------------------------

REQUEST = "request"
RESPONSE = "response"
SNOOP = "snoop"


class BusChannel:
    """One bus layer: FIFO grants, one transfer in flight at a time,
    occupancy of ceil(bytes / beat_width) cycles per grant."""

    def __init__(self, name: str, beat_width: int = 16, clock_period_ps: int = 1000):
        self.name = name
        self.beat_width = beat_width
        self.clock_period_ps = clock_period_ps
        self.free_at_ps = 0
        self.grants = 0
        self.busy_ps = 0

    def occupancy_cycles(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.beat_width))

    def request(self, t_ps: int, nbytes: int) -> tuple[int, int]:
        """Book a transfer arriving at t_ps after every transfer already
        booked; returns (grant time, completion time).

        Grants are FIFO in booking order, not in arrival order: a booking
        can arrive earlier than one already on the channel (7.5% of fig33's
        bus bookings at seed 0 do) and then waits behind it. ROADMAP item 4 tracks
        making bookings causally ordered."""
        grant = max(t_ps, self.free_at_ps)
        hold = self.occupancy_cycles(nbytes) * self.clock_period_ps
        self.free_at_ps = grant + hold
        self.grants += 1
        self.busy_ps += hold
        return grant, grant + hold


@dataclass
class ClusterBus:
    """CCI-style three-layered bus: requests, responses, snoops."""

    beat_width: int = 16
    clock_period_ps: int = 1000
    request: BusChannel = field(init=False)
    response: BusChannel = field(init=False)
    snoop: BusChannel = field(init=False)

    def __post_init__(self) -> None:
        self.request = BusChannel(REQUEST, self.beat_width, self.clock_period_ps)
        self.response = BusChannel(RESPONSE, self.beat_width, self.clock_period_ps)
        self.snoop = BusChannel(SNOOP, self.beat_width, self.clock_period_ps)

    @property
    def total_grants(self) -> int:
        return self.request.grants + self.response.grants + self.snoop.grants


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


def hop_count(src: tuple[int, int, int], dst: tuple[int, int, int],
              topo: MeshTopology) -> int:
    """Manhattan distance between two mesh nodes."""
    if not topo.contains(src) or not topo.contains(dst):
        raise ValueError(f"coordinate out of range for mesh {topo.dims}: {src} -> {dst}")
    return sum(abs(a - b) for a, b in zip(src, dst))


def route_next_hop(current: tuple[int, int, int],
                   dst: tuple[int, int, int]) -> str:
    """XYZ dimension-order routing: correct X, then Y, then Z."""
    if current[0] != dst[0]:
        return "+x" if dst[0] > current[0] else "-x"
    if current[1] != dst[1]:
        return "+y" if dst[1] > current[1] else "-y"
    if current[2] != dst[2]:
        return "+z" if dst[2] > current[2] else "-z"
    return LOCAL


_PORT_DELTA = {
    "+x": (1, 0, 0), "-x": (-1, 0, 0),
    "+y": (0, 1, 0), "-y": (0, -1, 0),
    "+z": (0, 0, 1), "-z": (0, 0, -1),
}


def step_toward(current: tuple[int, int, int], port: str) -> tuple[int, int, int]:
    x, y, z = current
    dx, dy, dz = _PORT_DELTA[port]
    return (x + dx, y + dy, z + dz)


def _dim_mean_distance(n: int) -> Fraction:
    # sum over ordered pairs of |i-j| in 0..n-1 is n(n^2-1)/3
    return Fraction(n * n * n - n, 3 * n * n)


def mean_hop_count(dims: tuple[int, int, int], include_self: bool = True) -> Fraction:
    """Exact average Manhattan distance over ordered (src, dst) pairs.

    Self-pairs are included by default; excluding them rescales by
    n/(n-1) with n the node count, which cancels in 2D-vs-3D ratios.
    """
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid mesh dims {dims}")
    mean = sum((_dim_mean_distance(d) for d in dims), Fraction(0))
    if not include_self:
        n = dims[0] * dims[1] * dims[2]
        if n == 1:
            raise ValueError("a 1-node mesh has no non-self pairs")
        mean = mean * Fraction(n, n - 1)
    return mean


def packetize(kind: str, payload_bytes: int, flit_width: int) -> tuple[int, int]:
    """(flit count, serialization cycles) for a payload: one header flit plus
    ceil(payload / flit_width) body flits, at one flit per cycle per link."""
    if flit_width <= 0:
        raise ValueError("flit_width must be > 0")
    if payload_bytes < 0:
        raise ValueError("payload must be >= 0")
    flits = 1 + -(-payload_bytes // flit_width)
    return flits, flits


# --- timed mesh network --------------------------------------------------------


@dataclass
class Packet:
    src: tuple[int, int, int]
    dst: tuple[int, int, int]
    kind: str
    payload: int
    flits: int
    t_inject: int
    t_deliver: int | None = None


class MeshNetwork:
    """Packet-level timed mesh on the shared event queue.

    Each directed link is a FIFO resource occupied for `flits` cycles per
    packet; the head flit advances router by router, so queueing delay is the
    only congestion effect (unbounded input buffers, no drops).
    """

    def __init__(self, topo: MeshTopology, engine: EventQueue,
                 clock_period_ps: int = 1000):
        self.topo = topo
        self.engine = engine
        self.clock_period_ps = clock_period_ps
        self._link_free: dict[tuple[tuple[int, int, int], str], int] = {}
        self.injected = 0
        self.delivered = 0
        self.latency_samples_ps: list[int] = []
        self.packets_delivered: list[Packet] = []

    @property
    def in_flight(self) -> int:
        return self.injected - self.delivered

    def inject(self, t_ps: int, src: tuple[int, int, int],
               dst: tuple[int, int, int], kind: str, payload_bytes: int) -> Packet:
        if not self.topo.contains(src) or not self.topo.contains(dst):
            raise ValueError(f"packet endpoints outside mesh {self.topo.dims}")
        flits, _ = packetize(kind, payload_bytes, self.topo.flit_width)
        pkt = Packet(src=src, dst=dst, kind=kind, payload=payload_bytes,
                     flits=flits, t_inject=t_ps)
        self.injected += 1
        self.engine.schedule(t_ps, self._at_router, (pkt, src))
        return pkt

    def _at_router(self, payload: tuple[Packet, tuple[int, int, int]]) -> None:
        # One hop of XYZ routing, inlined from route_next_hop/step_toward:
        # pick the output port, the next node and the link or TSV latency.
        pkt, node = payload
        x, y, z = node
        dx, dy, dz = pkt.dst
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
            pkt.t_deliver = self.engine.now + pkt.flits * clock
            self.delivered += 1
            self.latency_samples_ps.append(pkt.t_deliver - pkt.t_inject)
            self.packets_delivered.append(pkt)
            return
        ready = self.engine.now + topo.router_delay * clock
        key = (node, port)
        depart = max(ready, self._link_free.get(key, 0))
        self._link_free[key] = depart + pkt.flits * clock
        self.engine.schedule(depart + hop_latency * clock, self._at_router, (pkt, nxt))
