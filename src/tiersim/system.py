"""The simulatable system built from a validated SystemSpec.

Each cluster is one coherent UMA domain: per-core L1 stacks snooping over a
three-channel bus, shared (or per-core distributed) L2 arrays on their cache
tiers, an optional column-shared L3, and one fixed-latency memory controller
over a cluster-private backing store. Clusters exchange only message packets
over the mesh NoC; the bus and the NoC are never bridged.

Each cluster keeps an exact snoop filter (the exact form of JETTY, Moshovos
et al., HPCA 2001): a map from block number to a bitmask of the stacks whose
L1d or private L2 holds the block valid. The arrays maintain it themselves
where their block index changes, so a snoop asks only the stacks in the
mask, and a block nobody holds costs one dict lookup however many stacks
the cluster has.

Coherence state and data commit atomically at bus-serialization points, in
event-dispatch order; timing comes from one FIFO booking rule,
`FifoResource.book`, shared by the bus channels, cache array ports, memory
controllers and NoC links, so latencies show queueing contention while the
protocol itself stays a linearizable state machine.

Block data images exist only for the data log (`record_log=True`): the
report never holds a data value, so with the log off no line, victim or
backing store carries data and no write draws a value. The log changes no
timing and no report byte.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

from .arch import DISTRIBUTED, L2_SPLIT_ID, SystemSpec
from .cache import (DIRTY_STATES, I, M, O, PSEUDO_RANDOM, S, WORD_SIZE,
                    CacheLevel, CacheLine, Eviction)
from .coherence import (CORE_READ, CORE_WRITE, INVALIDATE, SUPPLY_OWNER,
                        StepResult, coherence_step)
from .engine import EventQueue, FifoResource, substream
from .interconnect import ClusterBus, MeshNetwork
from .memtech import READ, WRITE, area_estimate
from .metrics import (LatencyLog, float_sum, regions_energy, summarize_latency,
                      tier_power_density)
from .workload import LATEST_START_PS, MessageRecord, TraceRecord

# The per-array counters a level's report entry sums over its instances.
LEVEL_COUNTERS = ("n_read", "n_write", "hits", "misses", "fills", "evictions",
                  "writebacks", "invalidations")


def _wear_summary(levels: list[CacheLevel], worn_key: str) -> dict:
    """Wear over several arrays: the highest write count, the summed worn
    lines under `worn_key` and again as wear events (a line wears out
    once), and the earliest first wear (None if none)."""
    firsts = [lv.first_wear_time_ps for lv in levels
              if lv.first_wear_time_ps is not None]
    worn = sum(lv.worn_lines for lv in levels)
    return {"max_write_count": max((lv.max_write_count for lv in levels), default=0),
            worn_key: worn, "wear_events": worn,
            "first_wear_time_ps": min(firsts, default=None)}


class WorkloadError(ValueError):
    """Workload records inconsistent with the system being simulated."""


class ClusterMemory:
    """Cluster-private backing store at block granularity (NORMA: clusters
    never share one of these)."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self.words = block_size // WORD_SIZE
        self._blocks: dict[int, list[int]] = {}

    def _base(self, addr: int) -> int:
        return addr - addr % self.block_size

    def read_block(self, addr: int) -> list[int]:
        return list(self._blocks.get(self._base(addr), [0] * self.words))

    def merge(self, addr: int, dirty_words: int, data: list[int]) -> None:
        base = self._base(addr)
        block = self._blocks.setdefault(base, [0] * self.words)
        for w in range(self.words):
            if dirty_words >> w & 1:
                block[w] = data[w]


@dataclass
class MemoryController:
    """Fixed latency, one request in service at a time; reads are the
    port's grants less the writes."""

    latency_ps: int
    port: FifoResource = field(default_factory=FifoResource)
    writes: int = 0

    def serve(self, arrival_ps: int, is_write: bool) -> tuple[int, int]:
        self.writes += is_write
        return self.port.book(arrival_ps, self.latency_ps)


# A block's way down from a core: its arrays from the L1d, with None where
# it crosses the bus.
Path = tuple[CacheLevel | None, ...]


@dataclass
class Stack:
    """One core's private slice of the hierarchy: the unit that snoops.
    `snooped` holds the arrays its cluster snoops: the L1d, then the
    private L2 when the stack has one. `paths` holds the stack's way down,
    `(l1d, l2p?, None, home?, l3?)`: one path per shared-L2 home in tier
    order, or a single path when the cluster has no shared L2."""

    index: int            # within the cluster
    core_tier: int
    l1i: CacheLevel
    l1d: CacheLevel
    l2_private: CacheLevel | None = None
    paths: tuple[Path, ...] = ()
    snooped: tuple[CacheLevel, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.snooped = ((self.l1d,) if self.l2_private is None
                        else (self.l1d, self.l2_private))

    def authoritative(self, addr: int) -> tuple[CacheLevel, int, int] | None:
        """The line holding this block's MOESI state for the stack: the L1
        copy when valid, else the private L2 copy."""
        for level in self.snooped:
            set_index, way = level.probe(addr)
            if way is not None:
                return level, set_index, way
        return None

    def state(self, addr: int) -> str:
        loc = self.authoritative(addr)
        if loc is None:
            return I
        level, set_index, way = loc
        return level.lines[set_index][way].state

    def drop(self, addr: int) -> None:
        """Invalidate every copy this stack holds (remote BusRdX)."""
        for level in self.snooped:
            set_index, way = level.probe(addr)
            if way is not None:
                level.invalidate(set_index, way)


@dataclass
class Cluster:
    """One coherent domain, simulated on its own event queue `engine`.
    `holders` is its snoop filter: block number -> bitmask with bit 2i set
    while stack i's L1d holds the block valid and bit 2i+1 while its
    private L2 does. Only those two arrays of each stack write it; a block
    no stack holds has no entry."""

    index: int
    stacks: list[Stack]
    bus: ClusterBus
    memctrl: MemoryController
    memory: ClusterMemory
    holders: dict[int, int] = field(default_factory=dict)
    engine: EventQueue = field(default_factory=EventQueue)
    l2i: dict[int, CacheLevel] = field(default_factory=dict)
    l3: CacheLevel | None = None
    # Each shared L2 in tier order; none when distributed.
    l2_homes: tuple[CacheLevel, ...] = ()

    @property
    def l2_shared(self) -> dict[int, CacheLevel]:
        """The shared L2 arrays by tier: a view of `l2_homes`."""
        return {level.tier: level for level in self.l2_homes}


class System:
    """A built, runnable system. Owns all mutable state for one simulation.

    Each cluster runs on its own event queue, and the mesh on `engine`.
    `mem_samples` logs each memory access's issue and completion times
    when it completes, one cluster's run after another, and the mesh's
    `msg_samples` logs each message when it is delivered, so a run stopped
    early counts only what finished."""

    def __init__(self, spec: SystemSpec, seed: int = 0, record_log: bool = False):
        self.spec = spec
        self.seed = seed
        self.engine = EventQueue()
        self.block_size = spec.caches.l1d.block_size
        self.noc = MeshNetwork(spec.noc, self.engine, spec.clocks.noc_ps)
        # Every cache array in build order. The report reads this, never
        # the cluster fields.
        self.levels: list[CacheLevel] = []
        self.clusters = [self._build_cluster(i) for i in range(spec.n_clusters)]
        self.mem_samples = LatencyLog()
        self.trace_records = 0
        self.messages = 0
        self._write_seq = 0
        self.data_log: list[tuple[str, int, int, int]] | None = [] if record_log else None
        self._core_ps = spec.clocks.core_ps
        self._tsv_ps = spec.noc.tsv_latency * spec.clocks.bus_ps
        self._assert_norma_isolation()

    def _assert_norma_isolation(self) -> None:
        """No data path may exist between cluster address spaces: every
        stateful memory-side component must belong to exactly one cluster."""
        seen: dict[int, int] = {}

        def claim(obj, cluster_index):
            if obj is None:
                return
            owner = seen.setdefault(id(obj), cluster_index)
            if owner != cluster_index:
                raise RuntimeError(
                    f"NORMA violation: component shared between clusters "
                    f"{owner} and {cluster_index}")

        for cluster in self.clusters:
            for component in (cluster.engine, cluster.memory, cluster.memctrl,
                              cluster.bus, cluster.l3,
                              *cluster.l2_homes,
                              *cluster.l2i.values()):
                claim(component, cluster.index)
            for stack in cluster.stacks:
                for component in (stack.l1i, stack.l1d, stack.l2_private):
                    claim(component, cluster.index)

    # -- construction -----------------------------------------------------------

    def _mk_level(self, name: str, cfg_name: str, cluster: int,
                  unit: int, tier: int,
                  snoop_filter: tuple[dict[int, int], int] | None = None
                  ) -> CacheLevel:
        """Build one cache array on `tier` and register it for the report;
        a snooped array gets its cluster's filter and its bit in it."""
        cfg = getattr(self.spec.caches, cfg_name)
        techs = ([self.spec.catalog[r.tech] for r in cfg.regions]
                 if cfg.regions else [self.spec.catalog[cfg.tech]])
        clock_key = {"l1i": "core_ps", "l1d": "core_ps", "l2": "l2_ps",
                     "l2i": "l2_ps", "l3": "l3_ps"}[cfg_name]
        level = CacheLevel(
            name, cfg, techs,
            clock_period_ps=getattr(self.spec.clocks, clock_key),
            rng=(substream(self.seed, name, cluster, unit)
                 if cfg.replacement == PSEUDO_RANDOM else None),
            write_mix=self.spec.write_mix,
            snoop_filter=snoop_filter, tier=tier)
        self.levels.append(level)
        return level

    def _build_cluster(self, index: int) -> Cluster:
        spec = self.spec
        distributed = (spec.caches.l2 is not None
                       and spec.caches.l2.topology == DISTRIBUTED)
        stacks: list[Stack] = []
        holders: dict[int, int] = {}
        for tier_pos, core_tier in enumerate(spec.core_tiers):
            l2_tier = spec.l2_tier_for_core_tier(core_tier)
            for k in range(spec.cores_per_cluster):
                local = tier_pos * spec.cores_per_cluster + k
                l1i = self._mk_level("l1i", "l1i", index, local, core_tier)
                l1d = self._mk_level("l1d", "l1d", index, local, core_tier,
                                     (holders, 1 << 2 * local))
                l2p = (self._mk_level("l2", "l2", index, local, l2_tier,
                                      (holders, 2 << 2 * local))
                       if distributed and l2_tier is not None else None)
                stacks.append(Stack(index=local, core_tier=core_tier, l1i=l1i,
                                    l1d=l1d, l2_private=l2p))
        cluster = Cluster(
            index=index, stacks=stacks,
            bus=ClusterBus(beat_width=spec.bus.beat_width,
                           clock_period_ps=spec.clocks.bus_ps),
            memctrl=MemoryController(latency_ps=int(round(spec.memory_latency_ns * 1000))),
            memory=ClusterMemory(self.block_size),
            holders=holders)
        homes = []
        for tier, kind in enumerate(spec.tier_stack):
            if kind != L2_SPLIT_ID or spec.caches.l2 is None:
                continue
            if not distributed:
                homes.append(self._mk_level("l2", "l2", index, tier, tier))
            icfg = "l2i" if spec.caches.l2i else "l2"
            cluster.l2i[tier] = self._mk_level("l2i", icfg, index, tier, tier)
        cluster.l2_homes = tuple(homes)
        l3_tier = spec.l3_tier()
        l3 = ()
        if l3_tier is not None and spec.caches.l3 is not None:
            cluster.l3 = self._mk_level("l3", "l3", index, l3_tier, l3_tier)
            l3 = (cluster.l3,)
        for stack in stacks:
            top = (*stack.snooped, None)
            stack.paths = (tuple((*top, home, *l3) for home in homes)
                           or ((*top, *l3),))
        return cluster

    def home_coord(self, cluster_index: int) -> tuple[int, int, int]:
        gx = self.spec.cluster_grid[0]
        return (cluster_index % gx, cluster_index // gx, 0)

    # -- workload ----------------------------------------------------------------

    def load_trace(self, records: list[TraceRecord]) -> None:
        """Check every record, then schedule each core's first access. A
        record must stay inside one block, name a core of the system, and
        keep its core's ticks non-negative, non-decreasing and before
        LATEST_START_PS."""
        total_cores = self.spec.total_cores
        per_cluster = self.spec.cores_per_cluster_total
        block = self.block_size
        per_core: dict[int, list[TraceRecord]] = {}
        for rec in records:
            core, tick, size, addr = rec.core, rec.tick, rec.size, rec.addr
            if not 1 <= size <= block - addr % block:
                if 1 <= size <= block:
                    raise WorkloadError(
                        f"core {core} tick {tick}: access of {size} bytes at "
                        f"{addr:#x} crosses a {block}-byte block boundary")
                raise WorkloadError(f"access size {size} outside 1..{block} "
                                    f"(the block size)")
            recs = per_core.get(core)
            if recs is None:
                # A core's number and first tick are checked once; each
                # later tick is checked against the one before it.
                if not 0 <= core < total_cores:
                    raise WorkloadError(f"core {core} outside the {total_cores}-core system")
                if tick < 0:
                    raise WorkloadError(f"core {core}: tick {tick} is negative")
                per_core[core] = [rec]
            elif tick < recs[-1].tick:
                raise WorkloadError(f"core {core}: tick {tick} is negative" if tick < 0
                                    else f"core {core}: ticks must be non-decreasing")
            else:
                recs.append(rec)
        for core, queue in per_core.items():
            if queue[-1].tick * self._core_ps >= LATEST_START_PS:
                raise WorkloadError(f"core {core}: tick {queue[-1].tick} starts "
                                    f"at or after {LATEST_START_PS} ps")
        for core, queue in per_core.items():
            cluster = self.clusters[core // per_cluster]
            queue.reverse()
            first = queue.pop()
            t_first = first.tick * self._core_ps
            cluster.engine.schedule(t_first, self._on_core,
                                    (cluster, cluster.stacks[core % per_cluster],
                                     first, queue, t_first))
        self.trace_records += len(records)

    def load_messages(self, records: list[MessageRecord]) -> None:
        """Check every record, then inject all of them into the mesh, from
        and to their clusters' home nodes. A record must name two clusters of
        the system and a non-negative tick that starts before LATEST_START_PS;
        the first one that does not raises WorkloadError, and then nothing is
        injected.

        The checks read whole columns; only when one fails are the records
        walked one by one to name the first bad one."""
        if not records:
            return
        n_clusters = self.spec.n_clusters
        if n_clusters < 2:
            raise WorkloadError("message workload requires at least two clusters")
        noc_ps = self.spec.clocks.noc_ps
        ticks = [rec.tick for rec in records]
        srcs = [rec.src_cluster for rec in records]
        dsts = [rec.dst_cluster for rec in records]
        used = {*srcs, *dsts}
        ordered = sorted(ticks)   # linear when the ticks are in order
        if (ordered[0] < 0 or ordered[-1] * noc_ps >= LATEST_START_PS
                or min(used) < 0 or max(used) >= n_clusters):
            for rec in records:
                for cid in (rec.src_cluster, rec.dst_cluster):
                    if not 0 <= cid < n_clusters:
                        raise WorkloadError(f"cluster {cid} outside the "
                                            f"{n_clusters}-cluster system")
                if rec.tick < 0:
                    raise WorkloadError(f"message tick {rec.tick} is negative")
                if rec.tick * noc_ps >= LATEST_START_PS:
                    raise WorkloadError(f"message tick {rec.tick} starts at or "
                                        f"after {LATEST_START_PS} ps")
        coords = [self.home_coord(c) for c in range(n_clusters)]
        self.noc.inject([t * noc_ps for t in ticks], [coords[c] for c in srcs],
                        [coords[c] for c in dsts], [rec.bytes for rec in records])
        self.messages += len(records)

    def run(self, t_end_ps: int | float = math.inf) -> int:
        """Run each cluster's queue to t_end_ps in cluster order, then the
        mesh's, and return the events they dispatched. No cluster shares
        state with another or with the mesh, so the order moves no result."""
        return (sum(c.engine.run_until(t_end_ps) for c in self.clusters)
                + self.engine.run_until(t_end_ps))

    # -- the memory access path ---------------------------------------------------

    def _on_core(self, payload) -> None:
        """A core's event: `(cluster, stack, rec, queue, t_issue)` issues
        `rec` at t_issue, or with `rec` None logs the access issued at
        t_issue as complete now. The core then goes on through its records:
        a completion is logged at its done time, and the next record issues
        at max(that time, its tick). Each step runs in place while the
        cluster's queue says it runs next (`EventQueue.runs_next`), with the
        queue's `now` moved to it; the first that does not is scheduled."""
        cluster, stack, rec, queue, t_issue = payload
        engine = cluster.engine
        runs_next = engine.runs_next
        log = self.mem_samples.append
        core_ps = self._core_ps
        while True:
            if rec is not None:
                t_done = self._do_access(cluster, stack, rec, t_issue)
                if not runs_next(t_done):
                    engine.schedule(t_done, self._on_core,
                                    (cluster, stack, None, queue, t_issue))
                    return
                engine.now = t_done
            log(t_issue, engine.now)
            if not queue:
                return
            rec = queue.pop()
            t_issue = max(engine.now, rec.tick * core_ps)
            if not runs_next(t_issue):
                engine.schedule(t_issue, self._on_core,
                                (cluster, stack, rec, queue, t_issue))
                return
            engine.now = t_issue

    def _words_of(self, addr: int, size: int) -> tuple[int, int, int]:
        """(block base, first word index, word count) covered by an access,
        which `load_trace` has checked stays inside its block."""
        offset = addr % self.block_size
        first = offset // WORD_SIZE
        return addr - offset, first, (offset + size - 1) // WORD_SIZE - first + 1

    def _core_op(self, cluster: Cluster, rec: TraceRecord,
                 data: list[int] | None) -> int:
        """Serve the core's op on a block image. Returns a write's word mask,
        0 for a read. With the data log on, a read logs the words it reads,
        and a write puts fresh values into the image and logs them."""
        log = self.data_log
        if rec.op == "R":
            if log is not None:
                base, first, count = self._words_of(rec.addr, rec.size)
                for w in range(first, first + count):
                    log.append(("r", cluster.index, base + w * WORD_SIZE, data[w]))
            return 0
        base, first, count = self._words_of(rec.addr, rec.size)
        if log is not None:
            for w in range(first, first + count):
                self._write_seq += 1
                data[w] = self._write_seq
                log.append(("w", cluster.index, base + w * WORD_SIZE, data[w]))
        return ((1 << count) - 1) << first

    def _tsv_delay(self, tier_a: int, tier_b: int) -> int:
        return abs(tier_a - tier_b) * self._tsv_ps

    def _path(self, stack: Stack, addr: int) -> Path:
        """The stack's path for a block: the one through the block's
        shared-L2 home, which interleaves homes by block number, so a block
        has exactly one shared-L2 residence per cluster."""
        paths = stack.paths
        return paths[addr // self.block_size % len(paths)]

    @staticmethod
    def _book(level: CacheLevel, set_index: int, way: int | None, kind: str,
              t: int, record: bool) -> int:
        """Book an access that reaches its line through the banks and
        arrives at t: the array is busy for the bank route plus the op on
        `way` (way 0 on a miss), and with `record` the service time is a
        hit-latency sample. Returns the done time."""
        return level.service(
            t, level.route_cycles[set_index % len(level.route_cycles)]
            + level.way_cycles[kind][way or 0], record)[1]

    def _writeback(self, cluster: Cluster, ev: Eviction, path: Path, k: int,
                   t: int) -> None:
        """The one write-back walk: a dirty victim that leaves the array of
        `path[k]` at t walks the rest of `path`, and the bus crossing books
        the request channel for the block. The victim merges at the first
        array that holds the block, else it goes on to the memory
        controller. A merged line takes the victim's state, so an O victim
        keeps O at every level: at a private L2, the coherence point, that
        keeps sharers elsewhere legal; below the bus only dirty against
        clean matters."""
        tier = path[k].tier
        for level in path[k + 1:]:
            if level is None:
                _, t = cluster.bus.request.request(t, self.block_size)
                continue
            t += self._tsv_delay(tier, level.tier)
            tier = level.tier
            set_index, way = level.writeback_write(ev.addr, ev.dirty_words,
                                                   ev.data, ev.state, now_ps=t)
            t = self._book(level, set_index, way, WRITE, t, way is not None)
            if way is not None:
                return
        cluster.memctrl.serve(t, is_write=True)
        if ev.data is not None:
            cluster.memory.merge(ev.addr, ev.dirty_words, ev.data)

    def _snoop(self, cluster: Cluster, stack: Stack, addr: int, event: str,
               t: int) -> tuple[list[str], StepResult, int]:
        """Head of every bus transaction: the request grant, the snoop vector
        of the cluster's stacks, the MOESI step and the snoop grant. Only
        the stacks the snoop filter names are asked for their state; every
        other entry is I. Returns (vector, step, t_snoop_done)."""
        bus = cluster.bus
        _, req_done = bus.request.request(t, 8)
        stacks = cluster.stacks
        vector = [I] * len(stacks)
        mask = cluster.holders.get(addr // self.block_size, 0)
        while mask:
            i = (mask & -mask).bit_length() - 1 >> 1
            vector[i] = stacks[i].state(addr)
            mask &= ~(3 << 2 * i)
        step = coherence_step(vector, event, stack.index)
        _, snoop_done = bus.snoop.request(req_done, 8)
        return vector, step, snoop_done

    @staticmethod
    def _commit_remotes(cluster: Cluster, addr: int, vector: list[str],
                        step: StepResult) -> int:
        """Commit a transaction's state changes to the other stacks: a copy
        going to I is dropped, any other change lands on the stack's
        authoritative line. Only a supplying owner and the invalidated
        stacks can change, so only those are visited; a BusRdX names its
        owner as both. Returns the dirty words of the invalidated owner
        (old state M or O), which the requester inherits: ownership moves
        with the data, or, on an upgrade, an O holder's data already matches
        the requester's, so only the mask moves."""
        inherited = 0
        changed = dict.fromkeys(a[1] for a in step.actions
                                if a[0] == SUPPLY_OWNER or a[0] == INVALIDATE)
        for i in changed:
            old, new = vector[i], step.states[i]
            if old == new:
                continue
            remote = cluster.stacks[i]
            if new == I:
                if old in DIRTY_STATES:
                    level, set_index, way = remote.authoritative(addr)
                    inherited |= level.lines[set_index][way].dirty_words
                remote.drop(addr)
            else:
                level, set_index, way = remote.authoritative(addr)
                level.lines[set_index][way].state = new
        return inherited

    def _to_m(self, cluster: Cluster, stack: Stack, line: CacheLine,
              addr: int, t: int) -> int:
        """Take a valid line to M for a write at t: silently from E or M,
        and from S or O by a bus upgrade with the data already local. The
        upgrade invalidates the remote copies, and `line` inherits a remote
        owner's dirty words and takes its new state. Returns the time the
        write may go on: t, or the upgrade's snoop grant."""
        if line.state not in (S, O):
            line.state = M
            return t
        vector, step, t = self._snoop(cluster, stack, addr, CORE_WRITE, t)
        line.dirty_words |= self._commit_remotes(cluster, addr, vector, step)
        line.state = step.states[stack.index]
        return t

    def _bus_transaction(self, cluster: Cluster, stack: Stack, addr: int,
                         event: str, t_ready: int):
        """One serialized coherence transaction: request grant, snoop, state
        commit, and either an owner supply or a descent below the bus.

        Returns (data, fill_state, t_data_ready, inherited_dirty). State and
        data commit now; t_data_ready carries the modeled latency. `data` is
        a copy of the block image, or None with the data log off.
        """
        vector, step, t = self._snoop(cluster, stack, addr, event, t_ready)

        carry = self.data_log is not None
        data: list[int] | None = None
        supplied = False
        for action in step.actions:
            if action[0] == SUPPLY_OWNER:
                supplied = True
                supplier = cluster.stacks[action[1]]
                level, set_index, way = supplier.authoritative(addr)
                if carry:
                    data = list(level.lines[set_index][way].data)
                t = (self._book(level, set_index, way, READ, t, False)
                     + self._tsv_delay(supplier.core_tier, stack.core_tier))

        # Commit remote state changes after the supplier's data is captured.
        inherited_dirty = self._commit_remotes(cluster, addr, vector, step)

        if not supplied:
            # Read down the path below the bus. Every array the read missed
            # is offered the block on the way back, in path order (`fill`
            # refuses a worn way), and its dirty victim walks on down.
            path = self._path(stack, addr)
            below = path.index(None) + 1
            tier = stack.core_tier
            for k in range(below, len(path)):
                level = path[k]
                t += self._tsv_delay(tier, level.tier)
                tier = level.tier
                set_index, way = level.demand_read(addr)
                t = self._book(level, set_index, way, READ, t, way is not None)
                if way is not None:
                    if carry:
                        data = list(level.lines[set_index][way].data)
                    break
            else:
                k = len(path)
                _, t = cluster.memctrl.serve(t, is_write=False)
                if carry:
                    data = cluster.memory.read_block(addr)
            for j in range(below, k):
                victim = path[j].fill(addr, state=S, data=data)[2]
                if victim is not None:
                    self._writeback(cluster, victim, path, j, t)
            t += self._tsv_delay(tier, stack.core_tier)
        _, resp_done = cluster.bus.response.request(t, self.block_size)
        return data, step.states[stack.index], resp_done, inherited_dirty

    def _fill_l1(self, cluster: Cluster, stack: Stack, rec: TraceRecord,
                 state: str, data: list[int] | None, dirty_words: int,
                 t: int) -> int | None:
        """Allocate the block in L1 in `state` (a write fill charges wear),
        write back the dirty victim, and serve the core op on the new line,
        which takes over `dirty_words`. Returns the op's completion time, or
        None when L1 has no usable way for the block: its way is worn out,
        or every way of its set is."""
        l1 = stack.l1d
        op, addr, size = rec.op, rec.addr, rec.size
        set_index, way, ev = l1.fill(
            addr, state=state, data=data,
            write_fill_words=self._words_of(addr, size)[2] if op == "W" else 0,
            now_ps=t)
        if ev is not None:
            self._writeback(cluster, ev, self._path(stack, ev.addr), 0, t)
        if way is None:
            return None
        line = l1.lines[set_index][way]
        # A write's wear was already charged by the write fill.
        line.dirty_words |= dirty_words | self._core_op(cluster, rec, line.data)
        return l1.service(t, l1.way_cycles[READ if op == "R" else WRITE][way])[1]

    def _do_access(self, cluster: Cluster, stack: Stack, rec: TraceRecord,
                   t0: int) -> int:
        addr, op = rec.addr, rec.op
        l1 = stack.l1d
        set_index, way = l1.probe(addr)

        # L1 hit paths -------------------------------------------------------
        if way is not None:
            line = l1.lines[set_index][way]
            l1.count_access(op, way)
            if op == "R":
                done = self._book(l1, set_index, way, READ, t0, True)
                l1.touch(set_index, way)
                self._core_op(cluster, rec, line.data)
                return done
            # A bus upgrade first reads the line, without the bank route,
            # and the write hit then records no hit-latency sample.
            upgrade = line.state in (S, O)
            t = l1.service(t0, l1.way_cycles[READ][way])[1] if upgrade else t0
            t = self._to_m(cluster, stack, line, addr, t)
            mask = self._core_op(cluster, rec, line.data)
            l1.write_touch(set_index, way, mask, now_ps=t)
            return self._book(l1, set_index, way, WRITE, t, not upgrade)

        # L1 miss: try the stack's private L2 before the bus -----------------
        l1.count_access(op, None)
        _, t = l1.service(t0, l1.way_cycles[READ][0])
        l2p = stack.l2_private
        if l2p is not None:
            set_index, way = l2p.demand_read(addr)
            t = self._book(l2p, set_index, way, READ,
                           t + self._tsv_delay(stack.core_tier, l2p.tier),
                           way is not None)
            t += self._tsv_delay(l2p.tier, stack.core_tier)
            if way is not None:
                return self._promote_from_private(cluster, stack, rec, t,
                                                  set_index, way)

        event = CORE_READ if op == "R" else CORE_WRITE
        data, fill_state, t_data, inherited_dirty = self._bus_transaction(
            cluster, stack, addr, event, t)

        if l2p is not None:
            # Keep a demoted clean duplicate in the private L2 so the stack
            # can re-fetch locally after the L1 copy is evicted.
            ev = l2p.fill(addr, state=S, data=data)[2]
            if ev is not None:
                self._writeback(cluster, ev, self._path(stack, ev.addr), 1,
                                t_data)

        done = self._fill_l1(cluster, stack, rec, fill_state, data,
                             inherited_dirty, t_data)
        if done is not None:
            return done
        # No usable L1 way: serve the op without caching and push a write
        # straight down as a whole-block victim.
        if self._core_op(cluster, rec, data):
            full_mask = (1 << (self.block_size // WORD_SIZE)) - 1
            self._writeback(cluster, Eviction(
                addr=addr - addr % self.block_size, dirty_words=full_mask,
                data=data, state=M), self._path(stack, addr), 0, t_data)
        return t_data

    def _promote_from_private(self, cluster: Cluster, stack: Stack,
                              rec: TraceRecord, t: int, l2_set: int,
                              l2_way: int) -> int:
        """Stack hit in the private L2, already read at t: move the
        authoritative copy up to L1 (the L2 keeps a demoted clean
        duplicate). A write first takes M, over the bus from S or O."""
        addr, op = rec.addr, rec.op
        l2p = stack.l2_private
        line = l2p.lines[l2_set][l2_way]
        if op == "W":
            t = self._to_m(cluster, stack, line, addr, t)

        done = self._fill_l1(cluster, stack, rec, line.state, line.data,
                             line.dirty_words, t)
        if done is not None:
            line.state = S
            line.dirty_words = 0
            return done
        # No usable L1 way: the private L2 line keeps authority and serves
        # the op itself.
        mask = self._core_op(cluster, rec, line.data)
        if mask:
            l2p.write_touch(l2_set, l2_way, mask, now_ps=t)
        return t

    # -- reporting ----------------------------------------------------------------

    @staticmethod
    def _busy_idle_ns(level: CacheLevel, duration_ns: float) -> tuple[float, float]:
        # fire-and-forget write-backs may book service slightly past the last
        # dispatched event; clamp so busy + idle = duration holds exactly
        busy = min(level.port.busy_ps / 1000.0, duration_ns)
        return busy, duration_ns - busy

    def build_report(self) -> dict:
        duration_ps = max(q.now for q in (self.engine,
                                          *(c.engine for c in self.clusters)))
        duration_ns = duration_ps / 1000.0
        by_name: dict[str, list[CacheLevel]] = {}
        for level in self.levels:
            by_name.setdefault(level.name, []).append(level)

        levels: dict[str, dict] = {}
        tier_energy: dict[int, float] = {}
        tier_area: dict[int, float] = {}
        for name, arrays in by_name.items():
            ref = arrays[0]
            region_mib = [ref.region_capacity_mib(r) for r in range(len(ref.regions))]
            area = float_sum(map(area_estimate, region_mib, ref.tech_by_region))
            busy_idle = [self._busy_idle_ns(lv, duration_ns) for lv in arrays]
            energies = [regions_energy(zip(lv.tech_by_region, region_mib,
                                           lv.region_reads, lv.region_writes),
                                       idle, self.spec.write_mix)
                        for lv, (_, idle) in zip(arrays, busy_idle)]
            for level, energy in zip(arrays, energies):
                tier = level.tier
                tier_energy[tier] = tier_energy.get(tier, 0.0) + energy
                tier_area[tier] = tier_area.get(tier, 0.0) + area
            lat_n = sum(level.hit_latency_samples for level in arrays)
            levels[name] = {
                "instances": len(arrays),
                "tech": ref.geom.tech,
                "capacity_mib_per_instance": ref.capacity_mib(),
                **{c: sum(getattr(level, c) for level in arrays)
                   for c in LEVEL_COUNTERS},
                "busy_ns": float_sum(busy for busy, _ in busy_idle),
                "idle_ns": float_sum(idle for _, idle in busy_idle),
                "energy_nj": float_sum(energies),
                "mean_hit_latency_ps": (
                    sum(level.hit_latency_sum_ps for level in arrays) / lat_n
                    if lat_n else None),
                "wear": _wear_summary(arrays, "worn_lines"),
                "regions": [{
                    "tech": tech.name,
                    "capacity_mib": region_mib[r],
                    "n_read": sum(level.region_reads[r] for level in arrays),
                    "n_write": sum(level.region_writes[r] for level in arrays),
                } for r, tech in enumerate(ref.tech_by_region)],
            }
        endurance = _wear_summary(self.levels, "worn_blocks")

        tiers = []
        for tier, kind in enumerate(self.spec.tier_stack):
            area = tier_area.get(tier, 0.0)
            energy = tier_energy.get(tier, 0.0)
            density = None
            if area > 0 and duration_ns > 0:
                density = tier_power_density(energy, duration_ns, area)
            tiers.append({"index": tier, "kind": kind, "area_units": area,
                          "energy_nj": energy,
                          "power_density_mw_per_unit": density})

        bus_totals = {"request_grants": 0, "response_grants": 0, "snoop_grants": 0}
        for cluster in self.clusters:
            bus_totals["request_grants"] += cluster.bus.request.grants
            bus_totals["response_grants"] += cluster.bus.response.grants
            bus_totals["snoop_grants"] += cluster.bus.snoop.grants
        bus_totals["total_grants"] = sum(bus_totals.values())

        mem, msg = self.mem_samples, self.noc.msg_samples
        bucket = self.spec.report.histogram_bucket_ps
        report = {
            "meta": {
                "seed": self.seed,
                "duration_ps": duration_ps,
                "config": self.spec.raw,
                "trace_records": self.trace_records,
                "messages": self.messages,
            },
            "levels": levels,
            "energy": {
                "total_nj": float_sum(lv["energy_nj"] for lv in levels.values()),
                "per_level_nj": {name: lv["energy_nj"]
                                 for name, lv in levels.items()},
                "write_mix": self.spec.write_mix,
                "standby_power_is_configurable": True,
            },
            "latency": {
                "mem": summarize_latency(map(operator.sub, mem.ends, mem.starts),
                                         bucket),
                "msg": summarize_latency(map(operator.sub, msg.ends, msg.starts),
                                         bucket),
            },
            "endurance": endurance,
            "tiers": tiers,
            "interconnect": {
                "bus": bus_totals,
                "noc": {
                    "injected": self.noc.injected,
                    "delivered": self.noc.delivered,
                    "in_flight": self.noc.in_flight,
                },
                "memory_controllers": {
                    "reads": sum(c.memctrl.port.grants - c.memctrl.writes
                                 for c in self.clusters),
                    "writes": sum(c.memctrl.writes for c in self.clusters),
                },
            },
        }
        return report

    def latency_rows(self) -> Iterator[tuple[str, int, int]]:
        """Every latency sample as a `(class, start, end)` row: the memory
        accesses, then the messages, each in completion order. The memory
        rows of the clusters' runs are merged by a stable sort on the end
        time, so accesses of different clusters that end together go in
        cluster order."""
        for t0, t1 in sorted(self.mem_samples, key=operator.itemgetter(1)):
            yield "mem", t0, t1
        for t0, t1 in self.noc.msg_samples:
            yield "msg", t0, t1
