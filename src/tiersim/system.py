"""The simulatable system built from a validated SystemSpec.

Each cluster is one coherent UMA domain: per-core L1 stacks snooping over a
three-channel bus, shared (or per-core distributed) L2 arrays on their cache
tiers, an optional column-shared L3, and one fixed-latency memory controller
over a cluster-private backing store. Clusters exchange only message packets
over the mesh NoC; the bus and the NoC are never bridged. A `Cluster` builds,
starts and runs itself, stepping its cores from one heap of their turns;
`System` adds the mesh, which runs on its own `EventQueue`, and the
loaders. The report is `metrics.build_report` of the clusters' snapshots
and the mesh's counts.

Each cluster keeps an exact snoop filter (the exact form of JETTY, Moshovos
et al., HPCA 2001), which the arrays maintain where their block index
changes. It is the bus's directory: a transaction reads each holder's line
from the filter's bits and that array's index, runs the MOESI step on the
holders' states alone and commits to the lines it found, so a block nobody
holds costs one dict lookup however many stacks the cluster has.

Coherence state and data commit atomically at bus-serialization points, in
the order the cluster runs its cores' steps; timing comes from one FIFO
booking rule, `FifoResource.book`, shared by the bus channels, cache array
ports, memory controllers and NoC links, so latencies show queueing
contention while the protocol itself stays a linearizable state machine.

Block data images exist only for the data log (`record_log=True`): the
report never holds a data value, so with the log off no line, victim or
backing store carries data and no write draws a value. The log changes no
timing and no report byte.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import count, repeat

from .arch import DISTRIBUTED, L2_SPLIT_ID, SystemSpec
from .cache import (DIRTY_STATES, I, M, O, PSEUDO_RANDOM, S, WORD_SIZE,
                    CacheLevel, CacheLine, Eviction)
from .coherence import (CORE_READ, CORE_WRITE, SUPPLY_OWNER, StepResult,
                        coherence_step)
from .engine import FifoResource, SchedulingError, substream
from .interconnect import ClusterBus, MeshNetwork
from .memtech import READ, WRITE
from .metrics import LatencyLog, build_report
from .workload import LATEST_START_PS, MessageRecord, TraceRecord

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
    `(l1d, l2p?, None, home?, l3?)`: one path per shared L2 in its
    cluster's `l2_shared`, in tier order, or a single path when that is
    empty."""

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

    def drop(self, block: int) -> None:
        """Invalidate every copy this stack holds of a block (remote BusRdX)."""
        for level in self.snooped:
            way = level.resident.get(block)
            if way is not None:
                level.invalidate(block % level.sets, way)


class Cluster:
    """One coherent domain, and the access path through it. It builds all of
    itself, so no two clusters share a part, and runs its own cores without
    a `System`: `turns` is a heap of `(time, seq, stack, rec, stream,
    t_issue)` core turns, at most one per core, that `start` and
    `run_until` push and `run_until` pops; seq counts the cluster's pushes.
    `levels` holds its arrays in build order: each stack's L1i, L1d and
    private L2, each L2 tier's shared L2 and L2i, the L3. `l2_shared` and
    `l2i` map each L2 tier to its shared L2 and its L2i, in tier order;
    `l2_shared` is empty when the L2 is distributed.

    `holders` is the snoop filter: block number -> bitmask with bit 2i set
    while stack i's L1d holds the block valid and bit 2i+1 while its
    private L2 does; a block no stack holds has no entry.

    Each completed access appends its issue and completion times to
    `mem_samples`, the log the cluster is handed. With `record_log`,
    `data_log` gets an `(op, word address, value)` entry for each word a
    core reads ("r") or writes ("w"). Cluster i of n writes the values
    i+1, i+1+n, i+1+2n, …, so no two clusters write the same value."""

    def __init__(self, spec: SystemSpec, index: int, seed: int,
                 mem_samples: LatencyLog, record_log: bool):
        self.index = index
        self.block_size = spec.caches.l1d.block_size
        self._core_ps = spec.clocks.core_ps
        self._tsv_ps = spec.noc.tsv_latency * spec.clocks.bus_ps
        self.holders: dict[int, int] = {}
        self.bus = ClusterBus(beat_width=spec.bus.beat_width,
                              clock_period_ps=spec.clocks.bus_ps)
        self.memctrl = MemoryController(
            latency_ps=int(round(spec.memory_latency_ns * 1000)))
        self.memory = ClusterMemory(self.block_size)
        self.now = 0
        self.turns: list[tuple] = []
        self._seqs = count()
        self.mem_samples = mem_samples
        self.data_log: list[tuple[str, int, int]] | None = [] if record_log else None
        self._next_write = index + 1
        self._write_step = spec.n_clusters
        self.levels: list[CacheLevel] = []

        def array(name: str, unit: int, tier: int,
                  holder_bit: int = 0) -> CacheLevel:
            """A fresh cache array on `tier`, added to `levels`; a snooped
            array gets its bit in the snoop filter. An L2i with no config
            of its own is built as the L2 is."""
            cfg = (getattr(spec.caches, name)
                   or (spec.caches.l2 if name == "l2i" else None))
            techs = ([spec.catalog[r.tech] for r in cfg.regions]
                     if cfg.regions else [spec.catalog[cfg.tech]])
            clock_key = {"l1i": "core_ps", "l1d": "core_ps", "l2": "l2_ps",
                         "l2i": "l2_ps", "l3": "l3_ps"}[name]
            level = CacheLevel(
                name, cfg, techs,
                clock_period_ps=getattr(spec.clocks, clock_key),
                rng=(substream(seed, name, index, unit)
                     if cfg.replacement == PSEUDO_RANDOM else None),
                write_mix=spec.write_mix,
                snoop_filter=(self.holders, holder_bit) if holder_bit else None,
                tier=tier)
            self.levels.append(level)
            return level

        distributed = (spec.caches.l2 is not None
                       and spec.caches.l2.topology == DISTRIBUTED)
        self.stacks: list[Stack] = []
        for tier_pos, core_tier in enumerate(spec.core_tiers):
            l2_tier = spec.l2_tier_for_core_tier(core_tier)
            for k in range(spec.cores_per_cluster):
                local = tier_pos * spec.cores_per_cluster + k
                l1i = array("l1i", local, core_tier)
                l1d = array("l1d", local, core_tier, 1 << 2 * local)
                l2p = (array("l2", local, l2_tier, 2 << 2 * local)
                       if distributed and l2_tier is not None else None)
                self.stacks.append(Stack(index=local, core_tier=core_tier,
                                         l1i=l1i, l1d=l1d, l2_private=l2p))
        self.l2_shared: dict[int, CacheLevel] = {}
        self.l2i: dict[int, CacheLevel] = {}
        for tier, kind in enumerate(spec.tier_stack):
            if kind != L2_SPLIT_ID or spec.caches.l2 is None:
                continue
            if not distributed:
                self.l2_shared[tier] = array("l2", tier, tier)
            self.l2i[tier] = array("l2i", tier, tier)
        l3_tier = spec.l3_tier()
        self.l3 = (array("l3", l3_tier, l3_tier)
                   if l3_tier is not None and spec.caches.l3 is not None else None)
        l3 = () if self.l3 is None else (self.l3,)
        for stack in self.stacks:
            top = (*stack.snooped, None)
            stack.paths = (tuple((*top, l2, *l3) for l2 in self.l2_shared.values())
                           or ((*top, *l3),))

    def start(self, local: int, stream: Iterator[TraceRecord]) -> None:
        """Push stack `local`'s first turn, on the first record of `stream`,
        from which the core takes the rest as it runs. An empty stream
        starts nothing; a first issue before `now` raises SchedulingError."""
        first = next(stream, None)
        if first is not None:
            t_first = first.tick * self._core_ps
            if t_first < self.now:
                raise SchedulingError(f"core {local} starts at {t_first} ps, "
                                      f"before current time {self.now} ps")
            heapq.heappush(self.turns, (t_first, next(self._seqs),
                                        self.stacks[local], first, stream, t_first))

    def snapshot(self) -> dict:
        """What the report reads of the cluster, as plain values: its
        clock `now`, its arrays' snapshots in `levels` order, its bus
        channels' grants, and its memory controller's reads and writes."""
        memctrl = self.memctrl
        return {"now": self.now,
                "levels": [level.snapshot() for level in self.levels],
                "bus": {f"{ch}_grants": getattr(self.bus, ch).grants
                        for ch in ("request", "response", "snoop")},
                "memory_controller": {"reads": memctrl.port.grants - memctrl.writes,
                                      "writes": memctrl.writes}}

    # -- the memory access path ---------------------------------------------------

    def run_until(self, t_end_ps: int | float = math.inf) -> int:
        """Pop the turns with time <= t_end_ps in (time, seq) order and
        return how many were popped. A turn is a core's step at its time t:
        with `rec` it issues rec, and with `rec` None it logs the access
        issued at t_issue as complete at t and takes the core's next record,
        to issue at max(t, its tick). The core's next step runs in place
        while it is within t_end_ps and strictly before the heap's head, and
        the first that is not is pushed. As the mesh's queue does, the
        clock `now` then moves on to a finite t_end_ps."""
        turns = self.turns
        heappop, heappush = heapq.heappop, heapq.heappush
        do_access = self._do_access
        log_start = self.mem_samples.starts.append
        log_end = self.mem_samples.ends.append
        core_ps = self._core_ps
        seqs = self._seqs
        now = self.now
        popped = 0
        while turns and turns[0][0] <= t_end_ps:
            t, _, stack, rec, stream, t_issue = heappop(turns)
            popped += 1
            while True:
                now = t
                if rec is None:
                    log_start(t_issue)
                    log_end(t)
                    rec = next(stream, None)
                    if rec is None:
                        break
                    t = t_issue = max(t, rec.tick * core_ps)
                else:
                    t = do_access(stack, rec, t)
                    rec = None
                if t > t_end_ps or turns and t >= turns[0][0]:
                    heappush(turns, (t, next(seqs), stack, rec, stream, t_issue))
                    break
        self.now = int(t_end_ps) if now < t_end_ps < math.inf else now
        return popped

    def _words_of(self, addr: int, size: int) -> tuple[int, int, int]:
        """(block base, first word index, word count) covered by an access,
        which `load_trace` has checked stays inside its block."""
        offset = addr % self.block_size
        first = offset // WORD_SIZE
        return addr - offset, first, (offset + size - 1) // WORD_SIZE - first + 1

    def _core_op(self, rec: TraceRecord, data: list[int] | None) -> int:
        """Serve the core's op on a block image. Returns a write's word mask,
        0 for a read. With the data log on, a read logs the words it reads,
        and a write puts fresh values into the image and logs them."""
        log = self.data_log
        if rec.op == "R":
            if log is not None:
                base, first, count = self._words_of(rec.addr, rec.size)
                for w in range(first, first + count):
                    log.append(("r", base + w * WORD_SIZE, data[w]))
            return 0
        base, first, count = self._words_of(rec.addr, rec.size)
        if log is not None:
            for w in range(first, first + count):
                data[w] = self._next_write
                self._next_write += self._write_step
                log.append(("w", base + w * WORD_SIZE, data[w]))
        return ((1 << count) - 1) << first

    def _path(self, stack: Stack, addr: int) -> Path:
        """The stack's path for a block: the one through the block's
        shared-L2 home, which interleaves homes by block number, so a block
        has exactly one shared-L2 residence per cluster."""
        paths = stack.paths
        return paths[addr // self.block_size % len(paths)]

    def _writeback(self, ev: Eviction, path: Path, k: int, t: int) -> None:
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
                _, t = self.bus.request.request(t, self.block_size)
                continue
            t += abs(tier - level.tier) * self._tsv_ps
            tier = level.tier
            set_index, way = level.writeback_write(ev.addr, ev.dirty_words,
                                                   ev.data, ev.state, now_ps=t)
            t = level.book(set_index, way, WRITE, t, way is not None)
            if way is not None:
                return
        self.memctrl.serve(t, is_write=True)
        if ev.data is not None:
            self.memory.merge(ev.addr, ev.dirty_words, ev.data)

    def _snoop(self, stack: Stack, addr: int, event: str,
               t: int) -> tuple[list[tuple | None], StepResult, int, int]:
        """Head of every bus transaction: the request grant, the MOESI step
        on the states of the block's holders alone, in stack order, and the
        snoop grant. Each holder is (stack, array, set, way) of its line: its
        L1d's when its bit 2i is set, else its private L2's. The requester is
        listed whether it holds a copy or not (None when not). Returns
        (holders, step, the requester's position, t_snoop_done); the step's
        indexes are positions in `holders`."""
        bus = self.bus
        _, req_done = bus.request.request(t, 8)
        block = addr // self.block_size
        bits = self.holders.get(block, 0)
        me = stack.index
        holders: list[tuple | None] = []
        states, pos, mask = [], 0, bits
        while mask:
            i = (mask & -mask).bit_length() - 1 >> 1
            mask &= ~(3 << 2 * i)
            pos += i < me
            holder = self.stacks[i]
            level = holder.l1d if bits >> 2 * i & 1 else holder.l2_private
            set_index = block % level.sets
            way = level.resident[block]
            holders.append((holder, level, set_index, way))
            states.append(level.lines[set_index][way].state)
        if not bits >> 2 * me & 3:  # the requester holds no copy: its I
            holders.insert(pos, None)
            states.insert(pos, I)
        step = coherence_step(states, event, pos)
        _, snoop_done = bus.snoop.request(req_done, 8)
        return holders, step, pos, snoop_done

    def _commit_remotes(self, addr: int, holders: list[tuple | None],
                        step: StepResult) -> int:
        """Commit a transaction's state changes to the holders in the step's
        `remotes`, at the lines `_snoop` found: a copy going to I is
        dropped, any other change lands on the line. Returns the dirty words
        of the invalidated owner (old state M or O), which the requester
        inherits: ownership moves with the data, or, on an upgrade, an O
        holder's data already matches the requester's."""
        inherited = 0
        for j in step.remotes:
            remote, level, set_index, way = holders[j]
            line = level.lines[set_index][way]
            if step.states[j] != I:
                line.state = step.states[j]
                continue
            if line.state in DIRTY_STATES:
                inherited |= line.dirty_words
            remote.drop(addr // self.block_size)
        return inherited

    def _to_m(self, stack: Stack, line: CacheLine, addr: int, t: int) -> int:
        """Take a valid line to M for a write at t: silently from E or M,
        and from S or O by a bus upgrade with the data already local. The
        upgrade invalidates the remote copies, and `line` inherits a remote
        owner's dirty words and takes its new state. Returns the time the
        write may go on: t, or the upgrade's snoop grant."""
        if line.state not in (S, O):
            line.state = M
            return t
        holders, step, me, t = self._snoop(stack, addr, CORE_WRITE, t)
        line.dirty_words |= self._commit_remotes(addr, holders, step)
        line.state = step.states[me]
        return t

    def _do_access(self, stack: Stack, rec: TraceRecord, t0: int) -> int:
        """Serve `rec` on `stack`'s core from t0 and return its completion
        time. State and data commit now; the time carries the latency.

        An L1d miss walks the block's path below the L1d. Each array pays
        the TSV delay from the step before, is read (`demand_read`, so a
        write counts as a read there) and is booked. A private-L2 hit goes
        back to the core tier, and a write there first takes M, over the bus
        from S or O. The bus sits on the core tier: the walk goes back there
        and snoops, in one serialized transaction. An owner supplies the
        block from its L1d or private L2 across the TSVs between its core's
        tier and the requester's, not its L2's. With no owner the walk reads
        on to the first array that holds the block, else the memory
        controller; each array below the bus that it missed takes the block
        in S, and the walk goes back to the core tier. The remote states
        commit, and the response channel carries the block.

        Either way the L1d then takes the block, and a private L2 keeps or
        becomes a clean duplicate. When the L1d has no usable way for it
        (its way is worn out, or every way of its set is), the op is served
        without caching: after a private-L2 hit the L2 line serves it, and
        otherwise a write goes down as a whole-block M victim. Known
        defect: no array counts the write an L2 line serves."""
        addr, op = rec.addr, rec.op
        l1 = stack.l1d

        # L1 hit paths; a miss is counted on region 0 ----------------------
        if op == "R":
            set_index, way = l1.demand_read(addr)
            if way is not None:
                done = l1.book(set_index, way, READ, t0, True)
                if self.data_log is not None:
                    self._core_op(rec, l1.lines[set_index][way].data)
                return done
        else:
            set_index, way = l1.demand_write(addr)
        if way is not None:
            line = l1.lines[set_index][way]
            # A bus upgrade first reads the line, without the bank route,
            # and the write hit then records no hit-latency sample.
            upgrade = line.state in (S, O)
            t = l1.service(t0, l1.way_cycles[READ][way])[1] if upgrade else t0
            t = self._to_m(stack, line, addr, t)
            mask = self._core_op(rec, line.data)
            l1.write_touch(set_index, way, mask, now_ps=t)
            return l1.book(set_index, way, WRITE, t, not upgrade)

        # L1 miss: walk the block's path down from the L1d -----------------
        _, t = l1.service(t0, l1.way_cycles[READ][0])
        path = self._path(stack, addr)
        tsv_ps = self._tsv_ps
        core_tier = tier = stack.core_tier
        below = 0  # the first step below the bus, once the walk crosses it
        for k in range(1, len(path)):
            level = path[k]
            if level is None:
                t += abs(tier - core_tier) * tsv_ps
                tier = core_tier
                below = k + 1
                holders, step, me, t = self._snoop(
                    stack, addr, CORE_READ if op == "R" else CORE_WRITE, t)
                for action in step.actions:
                    if action[0] == SUPPLY_OWNER:
                        supplier, level, set_index, way = holders[action[1]]
                        t = level.book(set_index, way, READ, t, False)
                        tier = supplier.core_tier
                        break
                else:
                    continue  # no owner supplies: read on below the bus
                break
            t += abs(tier - level.tier) * tsv_ps
            tier = level.tier
            set_index, way = level.demand_read(addr)
            t = level.book(set_index, way, READ, t, way is not None)
            if way is not None:
                break
        else:
            k, level = len(path), None
            _, t = self.memctrl.serve(t, is_write=False)
        t_back = t + abs(tier - core_tier) * tsv_ps
        l2p = stack.l2_private
        served = None  # the private-L2 line that served the access
        if below:
            data = (None if self.data_log is None
                    else self.memory.read_block(addr) if level is None
                    else list(level.lines[set_index][way].data))
            # Each array below the bus that the read missed (none after a
            # supply) is offered the block (`fill` refuses a worn way) at
            # the walk's time, and its victim walks on down; the remotes
            # commit once the data is taken.
            for j in range(below, k):
                victim = path[j].fill(addr, state=S, data=data)[2]
                if victim is not None:
                    self._writeback(victim, path, j, t)
            dirty = self._commit_remotes(addr, holders, step)
            state = step.states[me]
            _, t = self.bus.response.request(t_back, self.block_size)
            if l2p is not None:
                victim = l2p.fill(addr, state=S, data=data)[2]
                if victim is not None:
                    self._writeback(victim, self._path(stack, victim.addr), 1, t)
        else:
            served = l2p.lines[set_index][way]
            t = t_back if op == "R" else self._to_m(stack, served, addr, t_back)
            state, data, dirty = served.state, served.data, served.dirty_words

        # The L1d takes the block (a write fill charges wear) ---------------
        l1_set, l1_way, victim = l1.fill(
            addr, state=state, data=data,
            write_fill_words=self._words_of(addr, rec.size)[2] if op == "W" else 0,
            now_ps=t)
        if victim is not None:
            self._writeback(victim, self._path(stack, victim.addr), 0, t)
        if l1_way is not None:
            line = l1.lines[l1_set][l1_way]
            # A write's wear was already charged by the write fill.
            line.dirty_words |= dirty | self._core_op(rec, line.data)
            if served is not None:
                served.state = S
                served.dirty_words = 0
            return l1.service(
                t, l1.way_cycles[READ if op == "R" else WRITE][l1_way])[1]
        # No usable L1 way: serve the op without caching, on the private-L2
        # line that served it, else pushing a write straight down as a
        # whole-block victim.
        mask = self._core_op(rec, data)
        if mask and served is not None:
            l2p.write_touch(set_index, way, mask, now_ps=t)
        elif mask:
            full_mask = (1 << (self.block_size // WORD_SIZE)) - 1
            self._writeback(Eviction(
                addr=addr - addr % self.block_size, dirty_words=full_mask,
                data=data, state=M), path, 0, t)
        return t


class System:
    """A built, runnable system. Owns all mutable state for one simulation.

    `System` makes the clusters, which build themselves, and the mesh,
    loads the workload, routes each core to its cluster, runs the clusters
    and then the mesh, and builds the report as `metrics.build_report` of
    the clusters' snapshots (`Cluster.snapshot`). Each cluster runs its own
    cores (`Cluster.run_until`), and the mesh runs on the queue `engine`.
    A memory workload comes in one of two ways, and either way each core
    takes its records from its own stream as it runs: `load_trace` checks
    a list of records and starts each core on its share of it, while
    `start_cores` starts cores on streams that are known to be good, such
    as generated ones, without reading them first. `load_messages` checks
    its records in one walk, and leaves them in place when their ticks
    never fall or else copies them in tick order; the mesh's queue reads
    each one when the one before it is injected. `mem_samples` logs each
    memory access's issue and completion times when it completes, one
    cluster's run after another, and the mesh's `msg_samples` logs each
    message when it is delivered, so a run stopped early counts only what
    finished."""

    def __init__(self, spec: SystemSpec, seed: int = 0, record_log: bool = False):
        self.spec = spec
        self.seed = seed
        self.block_size = spec.caches.l1d.block_size
        self.noc = MeshNetwork(spec.noc, spec.clocks.noc_ps)
        self.engine = self.noc.engine
        self.mem_samples = LatencyLog()
        self.clusters = [Cluster(spec, i, seed, self.mem_samples, record_log)
                         for i in range(spec.n_clusters)]
        self.trace_records = 0

    # -- workload ----------------------------------------------------------------

    def load_trace(self, records: list[TraceRecord]) -> None:
        """Check every record, then start each core on its own records. A
        record must stay inside one block, name a core of the system, and
        keep its core's ticks non-negative, non-decreasing and before
        LATEST_START_PS."""
        total_cores = self.spec.total_cores
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
        core_ps = self.spec.clocks.core_ps
        for core, queue in per_core.items():
            if queue[-1].tick * core_ps >= LATEST_START_PS:
                raise WorkloadError(f"core {core}: tick {queue[-1].tick} starts "
                                    f"at or after {LATEST_START_PS} ps")
        for queue in per_core.values():
            # A core pops its records off its reversed list, which lets each
            # go as it is taken, once per record the list holds.
            queue.reverse()
        self.start_cores({core: map(list.pop, repeat(queue, len(queue)))
                          for core, queue in per_core.items()}, len(records))

    def start_cores(self, streams: Mapping[int, Iterator[TraceRecord]],
                    count: int) -> None:
        """Start each core, numbered across the system, on its stream in
        its cluster (`Cluster.start`); `count` is the records of all the
        streams together. Each core's records must be what `load_trace`
        accepts, which nothing here checks again."""
        per_cluster = self.spec.cores_per_cluster_total
        for core, stream in streams.items():
            self.clusters[core // per_cluster].start(core % per_cluster, stream)
        self.trace_records += count

    def load_messages(self, records: list[MessageRecord]) -> None:
        """Check every record, then feed each to the mesh's queue, to be
        sent from its cluster's home node to the other's at its tick. A
        record must name two clusters of the system and a non-negative tick
        that starts before LATEST_START_PS; the first one that does not
        raises WorkloadError, and then nothing is fed. Messages load once:
        a second non-empty load raises WorkloadError too.

        One walk checks each record's source cluster, destination cluster
        and tick, in that order, and notes whether the ticks ever fall;
        only then are the records copied, in a stable sort by tick. The
        queue reads each record when the one before it is injected, and
        injects the records at each time before the hops that arrive then,
        so `records` must stay as it is until the run is over."""
        if not records:
            return
        if self.noc.injected:
            raise WorkloadError("messages already loaded")
        n_clusters = self.spec.n_clusters
        if n_clusters < 2:
            raise WorkloadError("message workload requires at least two clusters")
        noc_ps = self.spec.clocks.noc_ps
        late = -(-LATEST_START_PS // noc_ps)   # the first tick that starts too late
        outside = f"outside the {n_clusters}-cluster system"
        in_order, prev = True, 0
        for rec in records:
            src, dst, tick = rec.src_cluster, rec.dst_cluster, rec.tick
            if not 0 <= src < n_clusters:
                raise WorkloadError(f"cluster {src} {outside}")
            if not 0 <= dst < n_clusters:
                raise WorkloadError(f"cluster {dst} {outside}")
            if tick < 0:
                raise WorkloadError(f"message tick {tick} is negative")
            if tick >= late:
                raise WorkloadError(f"message tick {tick} starts at or "
                                    f"after {LATEST_START_PS} ps")
            if tick < prev:
                in_order = False
            prev = tick
        if not in_order:
            records = sorted(records, key=operator.attrgetter("tick"))
        gx = self.spec.cluster_grid[0]
        homes = [(c % gx, c // gx, 0) for c in range(n_clusters)]
        packet = self.noc.packet

        def injections() -> Iterator[tuple[int, tuple]]:
            for rec in records:
                t = rec.tick * noc_ps
                yield t, packet(homes[rec.src_cluster], homes[rec.dst_cluster],
                                rec.bytes, t)

        self.engine.feed(injections())
        self.noc.injected += len(records)

    def run(self, t_end_ps: int | float = math.inf) -> int:
        """Run each cluster to t_end_ps in cluster order, then the mesh's
        queue, and return the clusters' popped turns plus the mesh's
        dispatched events. No cluster shares state with another or with the
        mesh, so the order moves no result."""
        return (sum(c.run_until(t_end_ps) for c in self.clusters)
                + self.engine.run_until(t_end_ps))

    def build_report(self) -> dict:
        """The report: `metrics.build_report` of the clusters' snapshots,
        the mesh's time and packet counts, and the latency samples."""
        mem, msg, noc = self.mem_samples, self.noc.msg_samples, self.noc
        return build_report(
            self.spec, self.seed, self.trace_records,
            [c.snapshot() for c in self.clusters],
            {"now": self.engine.now, "injected": noc.injected,
             "delivered": noc.delivered, "in_flight": noc.in_flight},
            Counter(map(operator.sub, mem.ends, mem.starts)),
            Counter(map(operator.sub, msg.ends, msg.starts)))

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
