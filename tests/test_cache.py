import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from tiersim.arch import preset, spec_from_dict, validate_spec
from tiersim.cache import (LRU, PSEUDO_RANDOM, WORD_SIZE, CacheGeometry,
                           CacheLevel, CacheLine, I, M, Region, S, check_wear,
                           compose_address)
from tiersim.engine import EventQueue, FifoResource
from tiersim.interconnect import BusChannel, MeshNetwork, MeshTopology, packetize
from tiersim.memtech import READ, WRITE, catalog_default
from tiersim.system import MemoryController, System

CAT = catalog_default()

Outcome = namedtuple("Outcome", "hit wear_event bypass")


def decompose_address(addr, geom):
    """(tag, set_index, block_offset) for a physical address: the inverse
    of `compose_address`, which the cache's lookups compute inline."""
    offset = addr % geom.block_size
    block = addr // geom.block_size
    return block // geom.sets, block % geom.sets, offset


def word_mask(level, addr, size):
    """Mask of the block words an access covers, as the simulator's
    `System._core_op` returns it for a write."""
    offset = addr % level.geom.block_size
    last = min((offset + size - 1) // WORD_SIZE, level.geom.words_per_block - 1)
    return (1 << (last + 1)) - (1 << (offset // WORD_SIZE))


def access(level, op, addr, size=WORD_SIZE):
    """One core access made through the calls the simulator makes:
    `demand_read`, then `write_touch` on a write hit, or on a miss a `fill`
    (a write-allocate fill for a write), which bypasses a worn way. A wear
    event is a rise in the level's `worn_lines`."""
    worn = level.worn_lines
    set_index, way = level.demand_read(addr)
    mask = word_mask(level, addr, size) if op == "W" else 0
    if way is not None:
        if op == "W":
            level.write_touch(set_index, way, mask)
        return Outcome(True, level.worn_lines > worn, False)
    _, way, _ = level.fill(addr, M if op == "W" else S,
                           write_fill_words=mask.bit_count())
    return Outcome(False, level.worn_lines > worn, way is None)


def mk_level(capacity=32768, block=64, ways=2, replacement=LRU, tech="SRAM",
             banks=1, nuca_base=0, nuca_hop=0, regions=(), partial=False,
             seed=0):
    geom = CacheGeometry(capacity=capacity, block_size=block, associativity=ways,
                         banks=banks, replacement=replacement,
                         nuca_base_latency=nuca_base, nuca_per_hop=nuca_hop,
                         regions=tuple(regions), partial_writes=partial)
    techs = [CAT[r.tech] for r in regions] if regions else [CAT[tech]]
    return CacheLevel("test", geom, techs, rng=random.Random(seed))


def test_decompose_example():
    geom = CacheGeometry(capacity=32768, block_size=64, associativity=2)
    assert geom.sets == 256
    assert decompose_address(0x12345, geom) == (4, 141, 5)


def test_decompose_zero():
    geom = CacheGeometry(capacity=32768, block_size=64, associativity=2)
    assert decompose_address(0, geom) == (0, 0, 0)


@given(addr=st.integers(0, 2**48 - 1),
       block_exp=st.integers(4, 8), set_exp=st.integers(0, 10),
       ways=st.integers(1, 8))
def test_decompose_roundtrip(addr, block_exp, set_exp, ways):
    block = 1 << block_exp
    sets = 1 << set_exp
    geom = CacheGeometry(capacity=sets * ways * block, block_size=block,
                         associativity=ways)
    tag, set_index, offset = decompose_address(addr, geom)
    assert compose_address(tag, set_index, offset, geom) == addr


def test_roundtrip_bulk_random():
    rng = random.Random(1)
    geom = CacheGeometry(capacity=1 << 20, block_size=64, associativity=4)
    for _ in range(10**4):
        addr = rng.randrange(1 << 48)
        tag, s, off = decompose_address(addr, geom)
        assert compose_address(tag, s, off, geom) == addr


def test_geometry_violations():
    # Each rule across a geometry's fields is a validate_spec violation at
    # its key's path; fig32's l1d has 32 KiB in 2 ways of 64-byte blocks.
    def violations(**entry):
        cfg = preset("fig32")
        cfg["caches"]["l1d"].update(entry)
        return validate_spec(spec_from_dict(cfg))

    assert violations() == []
    assert ("caches.l1d.block_size: not a power of two (48)"
            in violations(block_size=48))
    assert violations(banks=3) == [
        "caches.l1d.banks: 3 does not divide 256 sets"]
    assert violations(associativity=4, regions=[
        {"ways": [0, 2], "tech": "SRAM"}, {"ways": [3, 4], "tech": "PCRAM"}]) == [
        "caches.l1d.regions: way ranges must partition [0, 4)"]


def test_lru_eviction_order():
    # 2-way set: fill A, B, touch A, fill C -> B evicted
    level = mk_level(capacity=128, block=64, ways=2)  # one set
    a, b, c = 0x000, 0x040 + 64 * 0, 0x080
    # all three map to set 0 of a 1-set cache
    access(level, "R", 0 * 64)
    access(level, "R", 1 * 64)
    access(level, "R", 0 * 64)
    res = access(level, "R", 2 * 64)
    assert not res.hit
    # way that held block 1 (the LRU one) was chosen
    tags = [line.tag for line in level.lines[0] if line.state != I]
    assert 0 in tags and 2 in tags and 1 not in tags


def test_select_victim_prefers_invalid_ways():
    for policy in (LRU, PSEUDO_RANDOM):
        level = mk_level(capacity=256, block=64, ways=4, replacement=policy)
        access(level, "R", 0)
        access(level, "R", 64 * 4)
        assert all(line.state == I for line in level.lines[0][2:])
        assert level.select_victim(0) == 2


def test_select_victim_lru_argmin():
    level = mk_level(capacity=256, block=64, ways=4)
    for tag in range(4):
        access(level, "R", tag * 4 * 64)
    level.lines[0][0].lru_stamp = 5
    level.lines[0][1].lru_stamp = 3
    level.lines[0][2].lru_stamp = 9
    level.lines[0][3].lru_stamp = 1
    assert level.select_victim(0) == 3


def test_pseudo_random_reproducible():
    def run(seed):
        level = mk_level(capacity=256, block=64, ways=4,
                         replacement=PSEUDO_RANDOM, seed=seed)
        rng = random.Random(7)
        outcome = []
        for _ in range(2000):
            res = access(level, "R", rng.randrange(64) * 256)
            outcome.append(res.hit)
        return outcome

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_nuca_bank_latency():
    # banks in a row, controller at bank 0: base 2, per-hop 1, bank k -> 2+k
    level = mk_level(capacity=64 * 64, block=64, ways=1, banks=8,
                     nuca_base=2, nuca_hop=1)
    assert level.geom.sets == 64
    for set_index in range(64):
        assert level.nuca_cycles(set_index) == 2 + set_index % 8
    assert level.nuca_cycles(3) == 5


def test_booking_tables_follow_the_latency_rule():
    # The tables a routed booking reads are filled from nuca_cycles and
    # op_cycles, on an array whose banks and regions all cost differently.
    level = mk_level(capacity=64 * 64 * 4, block=64, ways=4, banks=8,
                     nuca_base=2, nuca_hop=3,
                     regions=(Region((0, 2), "SRAM"), Region((2, 4), "PCRAM")))
    assert len(level.route_cycles) == level.geom.banks == 8
    for set_index in range(level.geom.sets):
        assert level.route_cycles[set_index % 8] == level.nuca_cycles(set_index)
    for kind in (READ, WRITE):
        assert [level.way_cycles[kind][w] for w in range(4)] == [
            level.op_cycles(w, kind) for w in range(4)]
    assert level.way_cycles[WRITE][0] != level.way_cycles[WRITE][3]

    period = level.clock_period_ps
    level.service(0, 50)  # the port is busy until 50 cycles
    for set_index, way, kind, record in ((13, 3, WRITE, True),
                                         (6, None, READ, False),
                                         (2, 1, READ, True)):
        samples, total = level.hit_latency_samples, level.hit_latency_sum_ps
        start = max(1000, level.port.free_at_ps)
        done = System._book(level, set_index, way, kind, 1000, record)
        assert done - start == period * (level.nuca_cycles(set_index)
                                          + level.op_cycles(way or 0, kind))
        assert level.hit_latency_samples == samples + record
        assert level.hit_latency_sum_ps == total + record * (done - start)


def test_partial_writes_count_words_not_blocks():
    level = mk_level(capacity=128, block=64, ways=2, partial=True)
    access(level, "R", 0)
    res = access(level, "W", 0, size=8)
    assert res.hit
    line = level.lines[0][0]
    assert line.write_count == 1  # one 8-byte word, not 8
    access(level, "W", 0, size=64)
    assert line.write_count == 9  # full-block write touches all 8 words


def test_full_writes_count_once_per_access():
    level = mk_level(capacity=128, block=64, ways=2, partial=False)
    access(level, "W", 0, size=8)   # write fill
    access(level, "W", 8, size=8)   # write hit
    access(level, "W", 0, size=64)  # write hit
    assert level.lines[0][0].write_count == 3


def test_check_wear_contract():
    params = CAT["PCRAM"]
    line = CacheLine(write_count=int(params.endurance))
    assert not check_wear(line, params)
    line.write_count += 1
    assert check_wear(line, params)


def test_wear_threshold_and_sentinel():
    from dataclasses import replace
    limited = replace(CAT["SRAM"], endurance=3)
    level = CacheLevel("t", CacheGeometry(128, 64, 2), [limited])
    for i in range(3):
        res = access(level, "W", 0)
        assert not res.wear_event, f"write {i + 1} must stay ok"
    res = access(level, "W", 0)
    assert res.wear_event
    assert level.worn_lines == 1

    unlimited = CAT["SRAM"]
    level = CacheLevel("t", CacheGeometry(128, 64, 2), [unlimited])
    for _ in range(10000):
        access(level, "W", 0)
    assert level.worn_lines == 0


def test_wear_exactly_one_event_in_1500_write_replay():
    from dataclasses import replace
    limited = replace(CAT["PCRAM"], endurance=1000)
    level = CacheLevel("t", CacheGeometry(128, 64, 2), [limited])
    events = []
    for i in range(1, 1501):
        res = access(level, "W", 0)
        if res.wear_event:
            events.append(i)
    assert events == [1001]
    assert level.worn_lines == 1


def test_worn_line_bypasses_and_way_is_never_reused():
    from dataclasses import replace
    limited = replace(CAT["PCRAM"], endurance=2)
    level = CacheLevel("t", CacheGeometry(64, 64, 1), [limited])
    access(level, "W", 0)
    access(level, "W", 0)
    res = access(level, "W", 0)
    assert res.wear_event
    res = access(level, "W", 0)
    assert res.bypass and not res.hit
    res = access(level, "R", 64)  # different block, same single way: set is dead
    assert res.bypass


def test_fill_refuses_a_worn_block_even_with_a_free_way():
    # Below the bus every array a read missed is offered the block, so this
    # refusal alone keeps a worn way from being refilled.
    from dataclasses import replace
    holders = {}
    level = CacheLevel("t", CacheGeometry(256, 64, 2),   # 2 sets of 2 ways
                       [replace(CAT["PCRAM"], endurance=1)],
                       snoop_filter=(holders, 4))
    level.fill(64, S)                       # block 1, set 1
    set_index, way, _ = level.fill(0, M, write_fill_words=1)
    level.write_touch(set_index, way, 1)    # the second write wears it out
    assert level.worn_lines == 1 and level.select_victim(0) == 1

    def state():
        return (level.fills, holders.copy(),
                [level.probe(block * 64) for block in range(8)],
                [(line.tag, line.state, line.worn)
                 for ways in level.lines for line in ways])

    before = state()
    assert before[1] == {1: 4}
    assert level.fill(0, S) == (0, None, None)
    assert state() == before


def test_write_count_survives_refill():
    level = mk_level(capacity=64, block=64, ways=1)
    access(level, "W", 0)
    access(level, "W", 64)   # evicts block 0, same physical way
    access(level, "W", 0)
    assert level.lines[0][0].write_count == 3


def test_lru_stamps_distinct_for_valid_lines():
    level = mk_level(capacity=512, block=64, ways=8)
    rng = random.Random(0)
    for _ in range(500):
        access(level, "R", rng.randrange(32) * 64)
    stamps = [line.lru_stamp for line in level.lines[0] if line.state != I]
    assert len(stamps) == len(set(stamps))


def test_at_most_one_valid_line_per_tag_per_set():
    level = mk_level(capacity=2048, block=64, ways=4, replacement=PSEUDO_RANDOM)
    rng = random.Random(8)
    for _ in range(5000):
        access(level, "W" if rng.random() < 0.5 else "R",
                     rng.randrange(64) * 64)
    for set_lines in level.lines:
        tags = [line.tag for line in set_lines if line.state != I]
        assert len(tags) == len(set(tags))


class StackLRU:
    """Brute-force per-set recency-list reference model."""

    def __init__(self, sets, ways, block):
        self.sets = sets
        self.ways = ways
        self.block = block
        self.stacks = [[] for _ in range(sets)]

    def access(self, addr):
        block_no = addr // self.block
        s = block_no % self.sets
        tag = block_no // self.sets
        stack = self.stacks[s]
        hit = tag in stack
        if hit:
            stack.remove(tag)
        elif len(stack) == self.ways:
            stack.pop()
        stack.insert(0, tag)
        return hit


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lru_matches_stack_model_property(seed):
    level = mk_level(capacity=4096, block=64, ways=4)
    ref = StackLRU(level.geom.sets, 4, 64)
    rng = random.Random(seed)
    for _ in range(2000):
        addr = rng.randrange(256) * 64
        assert access(level, "R", addr).hit == ref.access(addr)


# -- lookup index against the way scan it replaced ------------------------------

def scan_probe(level, addr):
    """Reference probe: scan every built way of the set. Returns
    (set_index, hit way or None, worn-line tag match)."""
    tag, set_index, _ = decompose_address(addr, level.geom)
    worn_match = False
    for way, line in enumerate(level.lines[set_index]):
        if line.tag != tag:
            continue
        if line.worn:
            worn_match = True
        elif line.state != I:
            return set_index, way, False
    return set_index, None, worn_match


def scan_victim(level, set_index, rng):
    """Reference victim over all `associativity` ways, unbuilt ones invalid:
    the first usable invalid way, else the policy over the usable list."""
    ways = level.lines[set_index]
    lines = [ways[w] if w < len(ways) else CacheLine()
             for w in range(level.geom.associativity)]
    usable = [w for w, line in enumerate(lines) if not line.worn]
    if not usable:
        return None
    for w in usable:
        if lines[w].state == I:
            return w
    if level.geom.replacement == LRU:
        return min(usable, key=lambda w: lines[w].lru_stamp)
    return usable[rng.randrange(len(usable))]


def expected_victim(level, set_index):
    rng = random.Random()
    rng.setstate(level.rng.getstate())
    return scan_victim(level, set_index, rng)


def check_index(level, n_blocks):
    for block in range(n_blocks):
        addr = block * level.geom.block_size
        assert level.probe(addr) == scan_probe(level, addr)[:2]
    for set_index in range(level.geom.sets):
        expect = expected_victim(level, set_index)  # before the draw
        assert level.select_victim(set_index) == expect


index_ops = st.lists(st.tuples(
    st.sampled_from(["fill", "write_fill", "evict", "invalidate",
                     "write_touch", "writeback_write"]),
    st.integers(0, 63), st.integers(0, 63), st.integers(1, 64)),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=index_ops, set_exp=st.integers(0, 1), ways=st.integers(1, 4),
       replacement=st.sampled_from([LRU, PSEUDO_RANDOM]),
       partial=st.booleans(), hybrid=st.booleans(),
       endurance=st.integers(1, 12), seed=st.integers(0, 1000))
def test_index_matches_way_scan_property(ops, set_exp, ways, replacement,
                                         partial, hybrid, endurance, seed):
    from dataclasses import replace
    sets = 1 << set_exp
    pcram = replace(CAT["PCRAM"], endurance=endurance)
    if hybrid and ways > 1:
        regions = (Region((0, ways // 2), "SRAM"),
                   Region((ways // 2, ways), "PCRAM"))
        techs = [CAT["SRAM"], pcram]
    else:
        regions, techs = (), [pcram]
    geom = CacheGeometry(capacity=sets * ways * 64, block_size=64,
                         associativity=ways, replacement=replacement,
                         regions=regions, partial_writes=partial)
    level = CacheLevel("prop", geom, techs, rng=random.Random(seed))
    n_blocks = sets * (ways + 2)   # more blocks than lines, so tags collide
    for op, a, b, size in ops:
        addr = (a % n_blocks) * 64
        set_index, way = level.probe(addr)
        if op in ("fill", "write_fill") and way is None:
            worn = scan_probe(level, addr)[2]
            victim = expected_victim(level, set_index)
            refused = worn or victim is None
            filled = level.fill(addr, S if op == "fill" else M,
                                write_fill_words=0 if op == "fill" else 1 + b % 8)
            assert filled[:2] == (set_index, None if refused else victim)
        elif op in ("evict", "invalidate"):
            getattr(level, op)(a % sets, b % ways)
        elif op == "write_touch" and way is not None:
            level.write_touch(set_index, way,
                              word_mask(level, b % 64, min(size, 64 - b % 64)))
        elif op == "writeback_write":
            level.writeback_write(addr, dirty_words=b % 256)
        check_index(level, n_blocks)


# -- FIFO bookings: the one rule every timed resource follows --------------------

def check_fifo_bookings(resource, windows):
    """Each window starts at or after the previous one's end, the
    resource's busy time is exactly the measure of the windows' union, and
    it granted one booking per window."""
    for (_, prev_done), (start, _) in zip(windows, windows[1:]):
        assert start >= prev_done
    union, reach = 0, 0
    for start, done in sorted(windows):
        union += max(0, done - max(start, reach))
        reach = max(reach, done)
    assert resource.busy_ps == union
    assert resource.grants == len(windows)


BOOKINGS = st.lists(st.tuples(st.integers(-3000, 3000), st.integers(0, 6)),
                    max_size=40)


def bookings(requests):
    """(arrival, cycles) pairs whose arrivals may repeat or go back in time,
    but never below 0."""
    arrival = 0
    for delta, cycles in requests:
        arrival = max(0, arrival + delta)
        yield arrival, cycles


@settings(max_examples=200, deadline=None)
@given(requests=BOOKINGS, period=st.integers(1, 1500))
def test_service_windows_are_fifo_and_busy_is_their_union(requests, period):
    """Arrivals may repeat or go back in time; the resource still books each
    hold after the one before it, and its busy time is exactly the measure
    of the union of the windows it returned."""
    resource = FifoResource()
    windows = []
    for arrival, cycles in bookings(requests):
        start, done = resource.book(arrival, cycles * period)
        assert start >= arrival and done - start == cycles * period
        windows.append((start, done))
    check_fifo_bookings(resource, windows)


def book_cache_array(requests, period):
    level = CacheLevel("busy", CacheGeometry(capacity=1024, block_size=64,
                                             associativity=2),
                       [CAT["SRAM"]], clock_period_ps=period)
    windows = []
    for arrival, cycles in bookings(requests):
        start, done = level.service(arrival, cycles)
        assert start >= arrival and done - start == cycles * period
        windows.append((start, done))
    return level.port, windows


def book_bus_channel(requests, period):
    channel = BusChannel(beat_width=16, clock_period_ps=period)
    windows = []
    for arrival, cycles in bookings(requests):
        start, done = channel.request(arrival, cycles * 16)
        assert start >= arrival and done - start == max(1, cycles) * period
        windows.append((start, done))
    return channel, windows


def book_memory_controller(requests, period):
    ctrl = MemoryController(latency_ps=3 * period)
    windows = []
    for arrival, cycles in bookings(requests):
        start, done = ctrl.serve(arrival, is_write=cycles % 2 == 1)
        assert start >= arrival and done - start == 3 * period
        windows.append((start, done))
    assert ctrl.writes == sum(cycles % 2 for _, cycles in requests)
    return ctrl.port, windows


def book_mesh_link(requests, period):
    """One packet per request over the single +x link of a 2x1x1 mesh.
    The link is booked when a head flit is ready, in dispatch order, so
    windows are read back from delivery times in that order."""
    t = MeshTopology(dims=(2, 1, 1), link_latency=2, router_delay=1,
                     flit_width=16)
    engine = EventQueue()
    net = MeshNetwork(t, engine, clock_period_ps=period)
    sent = [(arrival, (0, 0, 0), (1, 0, 0), cycles * 16)
            for arrival, cycles in bookings(requests)]
    if sent:
        net.inject(*zip(*sent))
    engine.run_until()
    windows = []
    in_order = sorted(sent, key=lambda m: m[0])   # stable: dispatch order
    assert len(net.msg_samples) == len(in_order)
    for (arrival, _, _, nbytes), (t_inject, t_deliver) in zip(in_order,
                                                              net.msg_samples):
        assert t_inject == arrival
        hold = packetize(nbytes, t.flit_width) * period
        start = t_deliver - hold - t.link_latency * period
        assert start >= t_inject + t.router_delay * period
        windows.append((start, start + hold))
    link, _ = net._steps.get(((0, 0, 0), "+x"), (FifoResource(), 0))
    return link, windows


@pytest.mark.parametrize("book", [book_cache_array, book_bus_channel,
                                  book_memory_controller, book_mesh_link],
                         ids=["CacheLevel.service", "BusChannel.request",
                              "MemoryController.serve", "mesh-link"])
@settings(max_examples=100, deadline=None)
@given(requests=BOOKINGS, period=st.integers(1, 1500))
def test_every_timed_resource_books_fifo_windows(book, requests, period):
    """Every user of the booking rule keeps its windows in booking order,
    counts their union as busy time and grants once per booking."""
    check_fifo_bookings(*book(requests, period))
