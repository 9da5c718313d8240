import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tiersim.arch import preset, spec_from_dict, validate_spec
from tiersim.engine import EventQueue
from tiersim.interconnect import (BusChannel, ClusterBus, MeshNetwork,
                                  MeshTopology, mean_hop_count, packetize)

# Reference XYZ routing, one step at a time. `MeshNetwork._route` builds
# each route from the same decisions; the tests below walk routes with these
# and check the network against the walk.

LOCAL = "local"

_PORT_DELTA = {
    "+x": (1, 0, 0), "-x": (-1, 0, 0),
    "+y": (0, 1, 0), "-y": (0, -1, 0),
    "+z": (0, 0, 1), "-z": (0, 0, -1),
}


def route_next_hop(current, dst):
    """XYZ dimension-order routing: correct X, then Y, then Z."""
    if current[0] != dst[0]:
        return "+x" if dst[0] > current[0] else "-x"
    if current[1] != dst[1]:
        return "+y" if dst[1] > current[1] else "-y"
    if current[2] != dst[2]:
        return "+z" if dst[2] > current[2] else "-z"
    return LOCAL


def step_toward(current, port):
    x, y, z = current
    dx, dy, dz = _PORT_DELTA[port]
    return (x + dx, y + dy, z + dz)


def manhattan(src, dst):
    return sum(abs(a - b) for a, b in zip(src, dst))


def topo(dims, **kw):
    return MeshTopology(dims=dims, **kw)


def test_route_next_hop_examples():
    assert route_next_hop((2, 1, 0), (0, 1, 3)) == "-x"
    assert route_next_hop((0, 1, 3), (0, 1, 3)) == LOCAL
    assert route_next_hop((0, 0, 0), (0, 2, 1)) == "+y"
    assert route_next_hop((0, 2, 0), (0, 2, 1)) == "+z"


def walk(src, dst):
    path = [src]
    node = src
    for _ in range(100):
        port = route_next_hop(node, dst)
        if port == LOCAL:
            return path
        node = step_toward(node, port)
        path.append(node)
    raise AssertionError("route did not terminate")


def test_routes_cycle_free_3x3x3():
    nodes = list(itertools.product(range(3), range(3), range(3)))
    for src in nodes:
        for dst in nodes:
            path = walk(src, dst)
            assert len(path) == len(set(path)), "route revisited a node"
            assert path[-1] == dst


def test_route_length_equals_hop_count_4x4x2():
    nodes = list(itertools.product(range(4), range(4), range(2)))
    assert len(nodes) ** 2 == 1024
    for src in nodes:
        for dst in nodes:
            assert len(walk(src, dst)) - 1 == manhattan(src, dst)


def enumerate_mean(dims, include_self=True):
    nodes = list(itertools.product(*(range(d) for d in dims)))
    total = 0
    pairs = 0
    for s in nodes:
        for d in nodes:
            if not include_self and s == d:
                continue
            total += sum(abs(a - b) for a, b in zip(s, d))
            pairs += 1
    return Fraction(total, pairs)


def test_mean_hop_count_exhaustive_oracle():
    assert mean_hop_count((8, 8, 1)) == enumerate_mean((8, 8, 1)) == Fraction(21, 4)
    assert mean_hop_count((4, 4, 4)) == enumerate_mean((4, 4, 4)) == Fraction(15, 4)
    for dims in ((1, 1, 1), (2, 3, 4), (5, 1, 2), (3, 3, 3)):
        assert mean_hop_count(dims) == enumerate_mean(dims)


def test_mean_hop_count_values():
    assert float(mean_hop_count((8, 8, 1))) == 5.25
    assert float(mean_hop_count((4, 4, 4))) == 3.75


def test_2d_to_3d_ratio_is_forty_percent():
    ratio = mean_hop_count((8, 8, 1)) / mean_hop_count((4, 4, 4))
    assert ratio == Fraction(7, 5)
    assert abs(float(ratio) - 1.400) <= 0.001


def test_ratio_independent_of_self_pairs():
    with_self = mean_hop_count((8, 8, 1)) / mean_hop_count((4, 4, 4))
    without = (enumerate_mean((8, 8, 1), include_self=False)
               / enumerate_mean((4, 4, 4), include_self=False))
    assert with_self == without


def test_mean_hop_count_invalid_dims():
    with pytest.raises(ValueError):
        mean_hop_count((0, 4, 4))


def test_packetize_examples():
    assert packetize(256, 16) == 17
    assert packetize(0, 16) == 1
    assert packetize(64, 16) == 5
    with pytest.raises(ValueError):
        packetize(10, 0)


def test_bus_channel_fifo_grants():
    # two enqueues in the same cycle: grants at t and t + occupancy
    ch = BusChannel(beat_width=16, clock_period_ps=1000)
    assert ch.request(0, 16) == (0, 1000)
    assert ch.request(0, 16) == (1000, 2000)


def test_bus_occupancy_64b_on_16b_beats():
    ch = BusChannel(beat_width=16, clock_period_ps=1000)
    assert ch.occupancy_cycles(64) == 4
    g0, done0 = ch.request(0, 64)
    g1, done1 = ch.request(0, 64)
    assert (g0, done0) == (0, 4000)
    assert (g1, done1) == (4000, 8000)


def test_cluster_bus_has_three_independent_channels():
    bus = ClusterBus(beat_width=16, clock_period_ps=1000)
    bus.request.request(0, 16)
    bus.response.request(0, 64)
    bus.snoop.request(0, 8)
    assert [ch.grants for ch in (bus.request, bus.response, bus.snoop)] == [1, 1, 1]
    assert bus.request.free_at_ps == 1000
    assert bus.response.free_at_ps == 4000
    assert bus.snoop.free_at_ps == 1000


def zero_load_latency(t, src, dst, payload):
    engine = EventQueue()
    net = MeshNetwork(t, engine, clock_period_ps=1000)
    net.inject(*zip(*[(0, src, dst, payload)]))
    engine.run_until()
    [(t_inject, t_deliver)] = net.msg_samples
    return (t_deliver - t_inject) // 1000


def test_zero_load_latency_formula_exact():
    # hops * (router_delay + per-hop link/TSV latency) + serialization
    t = topo((4, 4, 2), link_latency=1, tsv_latency=1, router_delay=1,
             flit_width=16)
    flits = packetize(64, 16)
    for src, dst in (((0, 0, 0), (3, 2, 1)), ((1, 1, 0), (1, 1, 1)),
                     ((3, 3, 1), (0, 0, 0))):
        hops = manhattan(src, dst)
        assert zero_load_latency(t, src, dst, 64) == hops * (1 + 1) + flits


def test_zero_load_latency_with_slow_tsv_and_router():
    t = topo((2, 2, 3), link_latency=2, tsv_latency=4, router_delay=3,
             flit_width=16)
    flits = packetize(32, 16)
    got = zero_load_latency(t, (0, 0, 0), (1, 1, 2), 32)
    # 2 horizontal hops at (3+2), 2 vertical hops at (3+4), + 3 flits
    assert got == 2 * 5 + 2 * 7 + flits


def test_packets_conserved_mid_run():
    t = topo((4, 4, 1))
    engine = EventQueue()
    net = MeshNetwork(t, engine, clock_period_ps=1000)
    net.inject(*zip(*[(i * 500, (i % 4, 0, 0), (3 - i % 4, 3, 0), 64)
                      for i in range(20)]))
    assert net.injected == 20 and net.delivered == 0
    engine.run_until(4000)
    assert net.injected == net.delivered + net.in_flight
    assert net.in_flight > 0
    # each packet in flight, injected or not yet, has exactly one event pending
    assert engine.pending() == net.in_flight
    engine.run_until()
    assert net.injected == net.delivered == 20
    assert net.in_flight == 0


@pytest.mark.parametrize("bad, error", [
    ((0, (0, 0, 0), (1, 1, 0), -1), "payload must be >= 0"),
    ((0, (0, 0, 0), (2, 0, 0), 64), "outside mesh"),
    ((0, (0, 0, -1), (1, 0, 0), 64), "outside mesh"),
])
def test_bad_message_refused_before_anything_is_scheduled(bad, error):
    engine = EventQueue()
    net = MeshNetwork(topo((2, 2, 1)), engine, clock_period_ps=1000)
    with pytest.raises(ValueError, match=error):
        net.inject(*zip(*[(0, (0, 0, 0), (1, 1, 0), 64), bad]))
    assert engine.pending() == 0 and net.injected == 0


def reference_walk(t, clock_ps, packets):
    """`(t_inject, t_deliver)` of `packets` ((t_inject, src, dst, flits)
    tuples) in the order they are delivered, and the final link bookings,
    walked hop by hop with route_next_hop/step_toward. Every packet is
    scheduled up front, one `schedule` call each, in list order.

    Every directed link (node, port) is a FIFO: a head flit that is ready
    after the router delay departs when the link frees, holds it for one
    cycle per flit and arrives after the link or TSV latency."""
    engine = EventQueue()
    link_free = {}
    delivered = []

    def hop(payload):
        i, node = payload
        t_inject, _, dst, flits = packets[i]
        port = route_next_hop(node, dst)
        if port == LOCAL:
            delivered.append((t_inject, engine.now + flits * clock_ps))
            return
        latency = t.tsv_latency if port in ("+z", "-z") else t.link_latency
        ready = engine.now + t.router_delay * clock_ps
        depart = max(ready, link_free.get((node, port), 0))
        link_free[(node, port)] = depart + flits * clock_ps
        engine.schedule(depart + latency * clock_ps, hop,
                        (i, step_toward(node, port)))

    for i, (t_inject, src, _, _) in enumerate(packets):
        engine.schedule(t_inject, hop, (i, src))
    engine.run_until()
    return delivered, link_free


@st.composite
def mesh_traffic(draw):
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.integers(2, 3)))
    link = draw(st.integers(1, 4))
    tsv = draw(st.integers(1, 4).filter(lambda v: v != link))
    t = topo(dims, link_latency=link, tsv_latency=tsv,
             router_delay=draw(st.integers(2, 4)),
             flit_width=draw(st.sampled_from([8, 16])))
    clock_ps = draw(st.sampled_from([1000, 1250]))
    node = st.tuples(*(st.integers(0, d - 1) for d in dims))
    packets = draw(st.lists(
        st.tuples(st.integers(0, 12).map(lambda c: c * clock_ps), node, node,
                  st.integers(0, 96)),
        min_size=1, max_size=40))
    return t, clock_ps, packets


@settings(max_examples=150, deadline=None)
@given(traffic=mesh_traffic())
def test_mesh_matches_reference_walk_property(traffic):
    """MeshNetwork delivers every packet when, and in the order, a hop-by-hop
    reference walk that schedules every packet up front does, and books
    every link the same, on 3D meshes whose TSVs are slower or faster than
    their links, under contention."""
    t, clock_ps, packets = traffic
    engine = EventQueue()
    net = MeshNetwork(t, engine, clock_period_ps=clock_ps)
    net.inject(*zip(*packets))
    engine.run_until()
    expected, link_free = reference_walk(
        t, clock_ps, [(t_inject, src, dst, packetize(nbytes, t.flit_width))
                      for t_inject, src, dst, nbytes in packets])
    assert list(net.msg_samples) == expected
    assert {k: link.free_at_ps for k, (link, _) in net._steps.items()} == link_free
    assert net.delivered == len(packets)


@settings(max_examples=100, deadline=None)
@given(traffic=mesh_traffic(), data=st.data())
def test_mesh_run_split_anywhere_matches_one_run_property(traffic, data):
    """Stopping the run at any time and resuming it gives the same
    deliveries and link bookings as one run: a packet stopped mid-route
    resumes from the step it had reached."""
    t, clock_ps, packets = traffic
    runs = []
    for stops in ([], [data.draw(st.integers(0, 40 * clock_ps), label="t")]):
        engine = EventQueue()
        net = MeshNetwork(t, engine, clock_period_ps=clock_ps)
        net.inject(*zip(*packets))
        for stop in stops:
            engine.run_until(stop)
        engine.run_until()
        runs.append((list(net.msg_samples), net.delivered,
                     {k: link.free_at_ps for k, (link, _) in net._steps.items()}))
    assert runs[0] == runs[1]
    assert runs[0][1] == len(packets)


def test_router_handler_runs_once_per_hop_and_once_to_deliver(monkeypatch):
    # perfbench counts hops as calls of `_at_router` less deliveries, so a
    # packet must call it once per link it crosses and once more at its
    # destination, whatever dimensions its route corrects.
    calls = []
    original = MeshNetwork._at_router

    def counted(self, pkt):
        calls.append(pkt)
        original(self, pkt)

    monkeypatch.setattr(MeshNetwork, "_at_router", counted)
    routes = [((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (3, 0, 0)),
              ((3, 2, 1), (0, 2, 1)), ((1, 0, 0), (1, 2, 0)),
              ((2, 2, 0), (2, 2, 1)), ((3, 0, 1), (0, 2, 0)),
              ((0, 2, 1), (3, 0, 0))]
    for src, dst in routes:
        engine = EventQueue()
        net = MeshNetwork(topo((4, 3, 2)), engine, clock_period_ps=1000)
        calls.clear()
        net.inject([0, 0], [src, src], [dst, dst], [64, 0])
        engine.run_until()
        assert len(calls) == 2 * (manhattan(src, dst) + 1), (src, dst)
        assert net.delivered == 2


def test_topology_violations():
    # Each mesh field keeps its kind, or validate_spec reports it at its
    # path; fig33 has a 2x2 cluster grid.
    def violations(**noc):
        cfg = preset("fig33")
        cfg["noc"].update(noc)
        return validate_spec(spec_from_dict(cfg))

    assert violations(dims=[4, 4, 1]) == []
    assert violations(dims=[0, 4, 1]) == ["noc.dims[0]: must be >= 1, got 0"]
    assert violations(router_delay=0) == [
        "noc.router_delay: must be >= 1, got 0"]


def test_dimension_order_channel_dependencies_acyclic():
    """Deadlock freedom: enumerate every route in a 3x3x2 mesh, build the
    channel dependency graph (edge when some route leaves channel a on
    channel b), and verify it has no cycle."""
    nodes = list(itertools.product(range(3), range(3), range(2)))
    edges = set()
    for src in nodes:
        for dst in nodes:
            path = walk(src, dst)
            channels = list(zip(path, path[1:]))
            edges.update(zip(channels, channels[1:]))
    graph = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}

    def dfs(ch):
        color[ch] = GRAY
        for nxt in graph.get(ch, ()):
            if color.get(nxt, WHITE) == GRAY:
                raise AssertionError(f"cyclic channel dependency at {ch} -> {nxt}")
            if color.get(nxt, WHITE) == WHITE:
                dfs(nxt)
        color[ch] = BLACK

    for ch in list(graph):
        if color.get(ch, WHITE) == WHITE:
            dfs(ch)
