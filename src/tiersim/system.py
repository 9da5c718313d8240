"""The simulatable system built from a validated SystemSpec.

Each cluster is one coherent UMA domain: per-core L1 stacks snooping over a
three-channel bus, shared (or per-core distributed) L2 arrays on their cache
tiers, an optional column-shared L3, and one fixed-latency memory controller
over a cluster-private backing store. Clusters exchange only message packets
over the mesh NoC; the bus and the NoC are never bridged.

Coherence state and data commit atomically at bus-serialization points, in
event-dispatch order; timing comes from FIFO resource bookings (bus channels,
cache arrays, memory controller), so latencies show queueing contention while
the protocol itself stays a linearizable state machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arch import DISTRIBUTED, L2_SPLIT_ID, SystemSpec
from .cache import E, I, M, O, S, WORD_SIZE, CacheLevel, Eviction
from .coherence import CORE_READ, CORE_WRITE, SUPPLY_OWNER, coherence_step
from .engine import EventQueue, substream
from .interconnect import MESSAGE, ClusterBus, MeshNetwork
from .memtech import READ, AccessCounters, level_energy
from .metrics import summarize_latency, tier_power_density
from .workload import MessageRecord, TraceRecord

WRITE = "write"


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
            if dirty_words >> w & 1 and w < len(data):
                block[w] = data[w]


@dataclass
class MemoryController:
    latency_ps: int
    free_at_ps: int = 0
    reads: int = 0
    writes: int = 0

    def serve(self, arrival_ps: int, is_write: bool) -> tuple[int, int]:
        start = max(arrival_ps, self.free_at_ps)
        done = start + self.latency_ps
        self.free_at_ps = done
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return start, done


@dataclass
class Stack:
    """One core's private slice of the hierarchy: the unit that snoops."""

    index: int            # within the cluster
    core_id: int          # global
    core_tier: int
    l1i: CacheLevel
    l1d: CacheLevel
    l2_private: CacheLevel | None = None
    l2_tier: int | None = None

    def authoritative(self, addr: int) -> tuple[CacheLevel, int, int] | None:
        """The line holding this block's MOESI state for the stack: the L1
        copy when valid, else the private L2 copy."""
        for level in (self.l1d, self.l2_private):
            if level is None:
                continue
            _, set_index, way, _ = level.probe(addr)
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
        for level in (self.l1d, self.l2_private):
            if level is None:
                continue
            _, set_index, way, _ = level.probe(addr)
            if way is not None:
                level.invalidate(set_index, way)


@dataclass
class Cluster:
    index: int
    coord: tuple[int, int]
    stacks: list[Stack]
    bus: ClusterBus
    memctrl: MemoryController
    memory: ClusterMemory
    l2_shared: dict[int, CacheLevel] = field(default_factory=dict)   # tier -> array
    l2i: dict[int, CacheLevel] = field(default_factory=dict)
    l3: CacheLevel | None = None
    l3_tier: int | None = None

    def l2_home(self, addr: int, block_size: int) -> tuple[CacheLevel, int] | None:
        """Home L2 array for a block: address-interleaved across L2 tiers so
        a block has exactly one shared-L2 residence per cluster."""
        if not self.l2_shared:
            return None
        tiers = sorted(self.l2_shared)
        tier = tiers[(addr // block_size) % len(tiers)]
        return self.l2_shared[tier], tier


class System:
    """A built, runnable system. Owns all mutable state for one simulation."""

    def __init__(self, spec: SystemSpec, seed: int = 0, record_log: bool = False):
        self.spec = spec
        self.seed = seed
        self.engine = EventQueue()
        self.block_size = spec.caches["l1d"].geometry.block_size
        self.noc = MeshNetwork(spec.noc, self.engine, spec.clocks["noc_ps"])
        self.clusters = [self._build_cluster(i) for i in range(spec.n_clusters)]
        self.mem_samples: list[tuple[int, int]] = []
        self.trace_records = 0
        self.messages = 0
        self._write_seq = 0
        self.data_log: list[tuple[str, int, int, int]] | None = [] if record_log else None
        self._tsv_ps = spec.noc.tsv_latency * spec.clocks["bus_ps"]
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
            for component in (cluster.memory, cluster.memctrl, cluster.bus,
                              cluster.l3, *cluster.l2_shared.values(),
                              *cluster.l2i.values()):
                claim(component, cluster.index)
            for stack in cluster.stacks:
                for component in (stack.l1i, stack.l1d, stack.l2_private):
                    claim(component, cluster.index)

    # -- construction -----------------------------------------------------------

    def _mk_level(self, name: str, cfg_name: str, cluster: int,
                  unit: int | str) -> CacheLevel:
        cfg = self.spec.caches[cfg_name]
        techs = ([self.spec.catalog[r.tech] for r in cfg.geometry.regions]
                 if cfg.geometry.regions else [self.spec.catalog[cfg.tech]])
        clock_key = {"l1i": "core_ps", "l1d": "core_ps", "l2": "l2_ps",
                     "l2i": "l2_ps", "l3": "l3_ps"}[cfg_name]
        return CacheLevel(
            name, cfg.geometry, techs,
            clock_period_ps=self.spec.clocks[clock_key],
            rng=substream(self.seed, name, cluster, unit),
            write_mix=self.spec.write_mix)

    def _build_cluster(self, index: int) -> Cluster:
        spec = self.spec
        gx = spec.cluster_grid[0]
        coord = (index % gx, index // gx)
        distributed = (spec.caches.get("l2") is not None
                       and spec.caches["l2"].topology == DISTRIBUTED)
        stacks: list[Stack] = []
        for tier_pos, core_tier in enumerate(spec.core_tiers):
            l2_tier = spec.l2_tier_for_core_tier(core_tier)
            for k in range(spec.cores_per_cluster):
                local = tier_pos * spec.cores_per_cluster + k
                core_id = index * spec.cores_per_cluster_total + local
                stack = Stack(
                    index=local, core_id=core_id, core_tier=core_tier,
                    l1i=self._mk_level("l1i", "l1i", index, local),
                    l1d=self._mk_level("l1d", "l1d", index, local),
                    l2_tier=l2_tier)
                if distributed and l2_tier is not None:
                    stack.l2_private = self._mk_level("l2", "l2", index, local)
                stacks.append(stack)
        cluster = Cluster(
            index=index, coord=coord, stacks=stacks,
            bus=ClusterBus(beat_width=spec.bus_beat_width,
                           clock_period_ps=spec.clocks["bus_ps"]),
            memctrl=MemoryController(latency_ps=int(round(spec.memory_latency_ns * 1000))),
            memory=ClusterMemory(self.block_size))
        for t in spec.tier_stack:
            if t.kind != L2_SPLIT_ID or spec.caches.get("l2") is None:
                continue
            if not distributed:
                cluster.l2_shared[t.index] = self._mk_level("l2", "l2", index, t.index)
            icfg = "l2i" if spec.caches.get("l2i") else "l2"
            cluster.l2i[t.index] = self._mk_level("l2i", icfg, index, t.index)
        l3_tier = spec.l3_tier()
        if l3_tier is not None and spec.caches.get("l3") is not None:
            cluster.l3 = self._mk_level("l3", "l3", index, l3_tier)
            cluster.l3_tier = l3_tier
        return cluster

    def home_coord(self, cluster_index: int) -> tuple[int, int, int]:
        gx = self.spec.cluster_grid[0]
        return (cluster_index % gx, cluster_index // gx, 0)

    # -- workload ----------------------------------------------------------------

    def load_trace(self, records: list[TraceRecord]) -> None:
        per_core: dict[int, list[TraceRecord]] = {}
        last_tick: dict[int, int] = {}
        for rec in records:
            if not 0 <= rec.core < self.spec.total_cores:
                raise WorkloadError(f"core {rec.core} outside the {self.spec.total_cores}-core system")
            if rec.size > self.block_size:
                raise WorkloadError(f"access size {rec.size} exceeds block size {self.block_size}")
            if rec.tick < last_tick.get(rec.core, 0):
                raise WorkloadError(f"core {rec.core}: ticks must be non-decreasing")
            last_tick[rec.core] = rec.tick
            per_core.setdefault(rec.core, []).append(rec)
        core_ps = self.spec.clocks["core_ps"]
        for core, recs in per_core.items():
            cluster = self.clusters[self.spec.cluster_of_core(core)]
            stack = cluster.stacks[core % self.spec.cores_per_cluster_total]
            queue = list(reversed(recs))
            first = queue.pop()
            self.engine.schedule(first.tick * core_ps, self._on_issue,
                                 (cluster, stack, first, queue))
        self.trace_records += len(records)

    def load_messages(self, records: list[MessageRecord]) -> None:
        if records and self.spec.n_clusters < 2:
            raise WorkloadError("message workload requires at least two clusters")
        noc_ps = self.spec.clocks["noc_ps"]
        for rec in records:
            for cid in (rec.src_cluster, rec.dst_cluster):
                if not 0 <= cid < self.spec.n_clusters:
                    raise WorkloadError(f"cluster {cid} outside the "
                                        f"{self.spec.n_clusters}-cluster system")
            self.noc.inject(rec.tick * noc_ps, self.home_coord(rec.src_cluster),
                            self.home_coord(rec.dst_cluster), MESSAGE, rec.bytes)
        self.messages += len(records)

    def run(self, t_end_ps: int | float = math.inf) -> int:
        return self.engine.run_until(t_end_ps)

    # -- the memory access path ---------------------------------------------------

    def _on_issue(self, payload) -> None:
        cluster, stack, rec, queue = payload
        t_done = self._do_access(cluster, stack, rec, self.engine.now)
        self.mem_samples.append((self.engine.now, t_done))
        self.engine.schedule(t_done, self._on_complete, (cluster, stack, queue))

    def _on_complete(self, payload) -> None:
        cluster, stack, queue = payload
        if not queue:
            return
        rec = queue.pop()
        issue = max(self.engine.now, rec.tick * self.spec.clocks["core_ps"])
        self.engine.schedule(issue, self._on_issue, (cluster, stack, rec, queue))

    def _next_value(self) -> int:
        self._write_seq += 1
        return self._write_seq

    def _log(self, kind: str, cluster: int, word_addr: int, value: int) -> None:
        if self.data_log is not None:
            self.data_log.append((kind, cluster, word_addr, value))

    def _words_of(self, addr: int, size: int) -> tuple[int, int, int]:
        """(block base, first word index, word count) covered by an access."""
        base = addr - addr % self.block_size
        first = (addr % self.block_size) // WORD_SIZE
        last = min((addr % self.block_size + size - 1) // WORD_SIZE,
                   self.block_size // WORD_SIZE - 1)
        return base, first, last - first + 1

    def _apply_write(self, cluster: Cluster, line_data: list[int],
                     addr: int, size: int) -> tuple[int, list[int]]:
        """Write fresh values into a block image; returns (mask, values)."""
        base, first, count = self._words_of(addr, size)
        mask = 0
        values = []
        for k in range(count):
            value = self._next_value()
            values.append(value)
            if first + k < len(line_data):
                line_data[first + k] = value
            mask |= 1 << (first + k)
            self._log("w", cluster.index, base + (first + k) * WORD_SIZE, value)
        return mask, values

    def _log_read(self, cluster: Cluster, data: list[int], addr: int, size: int) -> None:
        base, first, count = self._words_of(addr, size)
        for k in range(count):
            value = data[first + k] if first + k < len(data) else 0
            self._log("r", cluster.index, base + (first + k) * WORD_SIZE, value)

    def _tsv_delay(self, tier_a: int, tier_b: int) -> int:
        return abs(tier_a - tier_b) * self._tsv_ps

    def _chain_below_bus(self, cluster: Cluster, stack: Stack,
                         addr: int) -> list[tuple[CacheLevel, int]]:
        """Cache levels the bus-side of a request descends through, in order."""
        chain: list[tuple[CacheLevel, int]] = []
        if stack.l2_private is None:
            home = cluster.l2_home(addr, self.block_size)
            if home is not None:
                chain.append(home)
        if cluster.l3 is not None:
            chain.append((cluster.l3, cluster.l3_tier))
        return chain

    def _writeback_down(self, cluster: Cluster, from_tier: int, ev: Eviction,
                        t_avail: int,
                        chain: list[tuple[CacheLevel, int]]) -> None:
        """Push a dirty victim toward memory: merge at the first level that
        holds the block, else forward all the way to the controller."""
        t = t_avail
        prev = from_tier
        for level, tier in chain:
            t += self._tsv_delay(prev, tier)
            res = level.writeback_write(ev.addr, ev.dirty_words, ev.data, now_ps=t)
            way = res.way if res.way is not None else 0
            start, t = level.service(t, res.nuca_cycles + level.op_cycles(way, WRITE))
            if res.hit:
                level.record_hit_latency(t - start)
                return
            prev = tier
        _, _ = cluster.memctrl.serve(t, is_write=True)
        cluster.memory.merge(ev.addr, ev.dirty_words, ev.data)

    def _drop_remotes(self, cluster: Cluster, stack: Stack, addr: int,
                      vector: list[str], new_states) -> int:
        """Invalidate remote copies an upgrade kills; the upgrading line
        inherits a remote owner's dirty-word responsibility (an O holder's
        data matches every sharer's, so only the mask needs to move)."""
        inherited = 0
        for i, (old, new) in enumerate(zip(vector, new_states)):
            if i == stack.index or old == new or new != I:
                continue
            if old == O:
                loc = cluster.stacks[i].authoritative(addr)
                if loc is not None:
                    level, set_index, way = loc
                    inherited |= level.lines[set_index][way].dirty_words
            cluster.stacks[i].drop(addr)
        return inherited

    def _private_l2_spill(self, cluster: Cluster, stack: Stack, ev: Eviction,
                          t_avail: int) -> None:
        """Dirty victim leaving a private L2 heads below the bus."""
        _, done = cluster.bus.request.request(t_avail, self.block_size)
        chain = [(cluster.l3, cluster.l3_tier)] if cluster.l3 is not None else []
        self._writeback_down(cluster, stack.l2_tier, ev, done, chain)

    def _l1_writeback(self, cluster: Cluster, stack: Stack, ev: Eviction,
                      t_avail: int) -> None:
        """Dirty L1 victim: distributed stacks merge into their private L2
        locally; anything deeper (or shared mode) rides the request channel."""
        if stack.l2_private is not None:
            t = t_avail + self._tsv_delay(stack.core_tier, stack.l2_tier)
            res = stack.l2_private.writeback_write(ev.addr, ev.dirty_words,
                                                   ev.data, now_ps=t)
            way = res.way if res.way is not None else 0
            start, t = stack.l2_private.service(
                t, res.nuca_cycles + stack.l2_private.op_cycles(way, WRITE))
            if res.hit:
                stack.l2_private.record_hit_latency(t - start)
                if ev.state == O:
                    # The private L2 sits at the coherence point: a demoted
                    # owner keeps O so sharers elsewhere stay legal.
                    stack.l2_private.lines[res.set_index][res.way].state = O
                return
            self._private_l2_spill(cluster, stack, ev, t)
            return
        _, done = cluster.bus.request.request(t_avail, self.block_size)
        self._writeback_down(cluster, stack.core_tier, ev, done,
                             self._chain_below_bus(cluster, stack, ev.addr))

    def _bus_transaction(self, cluster: Cluster, stack: Stack, addr: int,
                         event: str, t_ready: int):
        """One serialized coherence transaction: request grant, snoop, state
        commit, and either an owner supply or a descent below the bus.

        Returns (data, fill_state, t_data_ready). State and data commit now;
        t_data_ready carries the modeled latency.
        """
        bus = cluster.bus
        _, req_done = bus.request.request(t_ready, 8)
        vector = [s.state(addr) for s in cluster.stacks]
        step = coherence_step(vector, event, stack.index)
        _, snoop_done = bus.snoop.request(req_done, 8)

        supplier: int | None = None
        for action in step.actions:
            if action[0] == SUPPLY_OWNER:
                supplier = action[1]

        data: list[int] | None = None
        inherited_dirty = 0
        t = snoop_done
        if supplier is not None:
            loc = cluster.stacks[supplier].authoritative(addr)
            level, set_index, way = loc
            line = level.lines[set_index][way]
            data = list(line.data)
            if event == CORE_WRITE:
                # Ownership moves with the data on a BusRdX; the new owner
                # inherits responsibility for the supplier's dirty words.
                inherited_dirty = line.dirty_words
            _, done = level.service(t, level.nuca_cycles(set_index)
                                    + level.op_cycles(way, READ))
            t = done + self._tsv_delay(cluster.stacks[supplier].core_tier,
                                       stack.core_tier)

        # Commit remote state changes after the supplier's data is captured.
        for i, (old, new) in enumerate(zip(vector, step.states)):
            if i == stack.index or old == new:
                continue
            if new == I:
                cluster.stacks[i].drop(addr)
            else:
                loc = cluster.stacks[i].authoritative(addr)
                if loc is not None:
                    level, set_index, way = loc
                    level.lines[set_index][way].state = new

        if data is None:
            chain = self._chain_below_bus(cluster, stack, addr)
            fill_below: list[int] = []
            prev = stack.core_tier
            data_tier = stack.core_tier
            hit_below = False
            for idx, (level, tier) in enumerate(chain):
                t += self._tsv_delay(prev, tier)
                res = level.demand_read(addr)
                way = res.way if res.way is not None else 0
                start, done = level.service(
                    t, res.nuca_cycles + level.op_cycles(way, READ))
                t = done
                prev = tier
                if res.hit:
                    level.record_hit_latency(done - start)
                    data = list(res.data)
                    data_tier = tier
                    hit_below = True
                    break
                if not res.bypass:
                    fill_below.append(idx)
            if not hit_below:
                _, t = cluster.memctrl.serve(t, is_write=False)
                data = cluster.memory.read_block(addr)
                data_tier = prev
            for idx in fill_below:
                level, tier = chain[idx]
                filled = level.fill(addr, state=S, data=data)
                if filled.writeback is not None:
                    self._writeback_down(cluster, tier, filled.writeback, t,
                                         chain[idx + 1:])
            t += self._tsv_delay(data_tier, stack.core_tier)
        _, resp_done = bus.response.request(t, self.block_size)
        return data, step.states[stack.index], resp_done, inherited_dirty

    def _do_access(self, cluster: Cluster, stack: Stack, rec: TraceRecord,
                   t0: int) -> int:
        addr, size = rec.addr, rec.size
        op = rec.op
        l1 = stack.l1d
        _, set_index, way, worn = l1.probe(addr)
        offset = addr % self.block_size

        # L1 hit paths -------------------------------------------------------
        if way is not None:
            line = l1.lines[set_index][way]
            if op == "R":
                l1.count_access("R", way, hit=True)
                start, done = l1.service(
                    t0, l1.nuca_cycles(set_index) + l1.op_cycles(way, READ))
                l1.record_hit_latency(done - start)
                l1.touch(set_index, way)
                self._log_read(cluster, line.data, addr, size)
                return done
            if line.state in (M, E):
                if line.state == E:
                    step = coherence_step([s.state(addr) for s in cluster.stacks],
                                          CORE_WRITE, stack.index)
                    line.state = step.states[stack.index]  # silent E -> M
                l1.count_access("W", way, hit=True)
                mask, values = self._apply_write(cluster, line.data, addr, size)
                l1.write_touch(set_index, way, offset, size, now_ps=t0)
                start, done = l1.service(
                    t0, l1.nuca_cycles(set_index) + l1.op_cycles(way, WRITE))
                l1.record_hit_latency(done - start)
                return done
            # S or O: upgrade over the bus, data already local.
            l1.count_access("W", way, hit=True)
            _, probe_done = l1.service(t0, l1.op_cycles(way, READ))
            bus = cluster.bus
            _, req_done = bus.request.request(probe_done, 8)
            vector = [s.state(addr) for s in cluster.stacks]
            step = coherence_step(vector, CORE_WRITE, stack.index)
            _, snoop_done = bus.snoop.request(req_done, 8)
            line.dirty_words |= self._drop_remotes(cluster, stack, addr,
                                                   vector, step.states)
            line.state = step.states[stack.index]
            self._apply_write(cluster, line.data, addr, size)
            l1.write_touch(set_index, way, offset, size, now_ps=snoop_done)
            _, done = l1.service(snoop_done,
                                 l1.nuca_cycles(set_index) + l1.op_cycles(way, WRITE))
            return done

        # L1 miss: try the stack's private L2 before the bus -----------------
        l1.count_access(op, None, hit=False)
        _, probe_done = l1.service(t0, l1.op_cycles(0, READ))
        t = probe_done

        if stack.l2_private is not None:
            l2p = stack.l2_private
            _, l2_set, l2_way, _ = l2p.probe(addr)
            if l2_way is not None:
                return self._promote_from_private(
                    cluster, stack, rec, t, l2_set, l2_way, worn)
            l2p.demand_read(addr)  # counted miss probe
            t += self._tsv_delay(stack.core_tier, stack.l2_tier)
            _, t = l2p.service(t, l2p.nuca_cycles(l2_set) + l2p.op_cycles(0, READ))
            t += self._tsv_delay(stack.l2_tier, stack.core_tier)

        event = CORE_READ if op == "R" else CORE_WRITE
        data, fill_state, t_data, inherited_dirty = self._bus_transaction(
            cluster, stack, addr, event, t)

        if stack.l2_private is not None:
            # Keep a demoted clean duplicate in the private L2 so the stack
            # can re-fetch locally after the L1 copy is evicted.
            l2_filled = stack.l2_private.fill(addr, state=S, data=data)
            if l2_filled.writeback is not None:
                self._private_l2_spill(cluster, stack, l2_filled.writeback, t_data)

        if worn:
            # The L1 way for this block is worn out: serve the op without
            # caching and push writes straight down.
            if op == "R":
                self._log_read(cluster, data, addr, size)
                return t_data
            block = list(data)
            mask, _ = self._apply_write(cluster, block, addr, size)
            full_mask = (1 << (self.block_size // WORD_SIZE)) - 1
            ev = Eviction(addr=addr - offset, dirty_words=full_mask,
                          data=block, state=M)
            self._l1_writeback(cluster, stack, ev, t_data)
            return t_data

        filled = l1.fill(addr, state=fill_state, data=data,
                         write_fill_words=(self._words_of(addr, size)[2]
                                           if op == "W" else 0),
                         now_ps=t_data)
        if filled.writeback is not None:
            self._l1_writeback(cluster, stack, filled.writeback, t_data)
        if filled.way is None:
            # No usable way in the set: behave like the worn-bypass path.
            if op == "R":
                self._log_read(cluster, data, addr, size)
                return t_data
            block = list(data)
            self._apply_write(cluster, block, addr, size)
            full_mask = (1 << (self.block_size // WORD_SIZE)) - 1
            self._l1_writeback(cluster, stack, Eviction(
                addr=addr - offset, dirty_words=full_mask, data=block, state=M),
                t_data)
            return t_data
        line = l1.lines[filled.set_index][filled.way]
        if op == "R":
            self._log_read(cluster, line.data, addr, size)
            _, done = l1.service(t_data, l1.op_cycles(filled.way, READ))
            return done
        mask, _ = self._apply_write(cluster, line.data, addr, size)
        line.dirty_words |= mask | inherited_dirty
        _, done = l1.service(t_data, l1.op_cycles(filled.way, WRITE))
        return done

    def _promote_from_private(self, cluster: Cluster, stack: Stack,
                              rec: TraceRecord, t: int, l2_set: int,
                              l2_way: int, l1_worn: bool) -> int:
        """Stack hit in the private L2: move the authoritative copy up to L1
        (the L2 keeps a demoted clean duplicate)."""
        addr, size, op = rec.addr, rec.size, rec.op
        l1 = stack.l1d
        l2p = stack.l2_private
        line = l2p.lines[l2_set][l2_way]
        state = line.state

        # The promote reads the private L2 array whatever the core op is;
        # the write itself lands in L1 after the move.
        l2p.demand_read(addr)
        t += self._tsv_delay(stack.core_tier, stack.l2_tier)
        start, done = l2p.service(
            t, l2p.nuca_cycles(l2_set) + l2p.op_cycles(l2_way, READ))
        l2p.record_hit_latency(done - start)
        t = done + self._tsv_delay(stack.l2_tier, stack.core_tier)

        new_state = state
        if op == "W":
            if state in (S, O):
                bus = cluster.bus
                _, req_done = bus.request.request(t, 8)
                vector = [s.state(addr) for s in cluster.stacks]
                step = coherence_step(vector, CORE_WRITE, stack.index)
                _, t = bus.snoop.request(req_done, 8)
                line.dirty_words |= self._drop_remotes(cluster, stack, addr,
                                                       vector, step.states)
                new_state = step.states[stack.index]
            else:
                new_state = M

        if l1_worn:
            # Cannot cache in L1; operate on the private L2 line directly.
            if op == "R":
                l2p.touch(l2_set, l2_way)
                self._log_read(cluster, line.data, addr, size)
                return t
            line.state = new_state
            self._apply_write(cluster, line.data, addr, size)
            l2p.write_touch(l2_set, l2_way, addr % self.block_size, size, now_ps=t)
            return t

        data = list(line.data)
        moved_mask = line.dirty_words
        filled = l1.fill(addr, state=new_state, data=data,
                         write_fill_words=(self._words_of(addr, size)[2]
                                           if op == "W" else 0),
                         now_ps=t)
        line.state = S
        line.dirty_words = 0
        if filled.writeback is not None:
            self._l1_writeback(cluster, stack, filled.writeback, t)
        if filled.way is None:
            line.state = state  # promotion failed; keep authority in L2
            line.dirty_words = moved_mask
            if op == "R":
                self._log_read(cluster, data, addr, size)
                return t
            line.state = new_state
            self._apply_write(cluster, line.data, addr, size)
            l2p.write_touch(l2_set, l2_way, addr % self.block_size, size, now_ps=t)
            return t
        l1_line = l1.lines[filled.set_index][filled.way]
        l1_line.dirty_words |= moved_mask
        if op == "R":
            self._log_read(cluster, l1_line.data, addr, size)
            _, done = l1.service(t, l1.op_cycles(filled.way, READ))
            return done
        mask, _ = self._apply_write(cluster, l1_line.data, addr, size)
        l1_line.dirty_words |= mask  # wear already charged by the write fill
        _, done = l1.service(t, l1.op_cycles(filled.way, WRITE))
        return done

    # -- coherence sweep for property tests --------------------------------------

    def check_coherence(self, addrs: list[int]) -> None:
        from .coherence import check_invariants
        for cluster in self.clusters:
            for addr in addrs:
                check_invariants([s.state(addr) for s in cluster.stacks])

    # -- reporting ----------------------------------------------------------------

    def _level_instances(self) -> dict[str, list[tuple[CacheLevel, int]]]:
        out: dict[str, list[tuple[CacheLevel, int]]] = {}
        for cluster in self.clusters:
            for stack in cluster.stacks:
                out.setdefault("l1i", []).append((stack.l1i, stack.core_tier))
                out.setdefault("l1d", []).append((stack.l1d, stack.core_tier))
                if stack.l2_private is not None:
                    out.setdefault("l2", []).append((stack.l2_private, stack.l2_tier))
            for tier, lvl in sorted(cluster.l2_shared.items()):
                out.setdefault("l2", []).append((lvl, tier))
            for tier, lvl in sorted(cluster.l2i.items()):
                out.setdefault("l2i", []).append((lvl, tier))
            if cluster.l3 is not None:
                out.setdefault("l3", []).append((cluster.l3, cluster.l3_tier))
        return out

    def _cfg_for_level(self, name: str):
        key = name if name != "l2i" else ("l2i" if self.spec.caches.get("l2i") else "l2")
        return self.spec.caches[key]

    @staticmethod
    def _busy_idle_ns(level: CacheLevel, duration_ns: float) -> tuple[float, float]:
        # fire-and-forget write-backs may book service slightly past the last
        # dispatched event; clamp so busy + idle = duration holds exactly
        busy = min(level.busy_ps / 1000.0, duration_ns)
        return busy, duration_ns - busy

    def _instance_energy(self, level: CacheLevel, duration_ns: float) -> float:
        busy_ns, idle_ns = self._busy_idle_ns(level, duration_ns)
        total = 0.0
        for r, _region in enumerate(level.regions):
            counters = AccessCounters(
                n_read=level.region_reads[r], n_write=level.region_writes[r],
                busy_time=busy_ns, idle_time=idle_ns)
            total += level_energy(counters, level.tech_by_region[r],
                                  level.region_capacity_mib(r), level.write_mix)
        return total

    def build_report(self) -> dict:
        duration_ps = self.engine.now
        duration_ns = duration_ps / 1000.0
        instances = self._level_instances()

        levels: dict[str, dict] = {}
        per_level_energy: dict[str, float] = {}
        tier_energy: dict[int, float] = {}
        tier_area: dict[int, float] = {}
        endurance = {"max_write_count": 0, "worn_blocks": 0,
                     "wear_events": 0, "first_wear_time_ps": None}

        for name, insts in instances.items():
            cfg = self._cfg_for_level(name)
            agg = {
                "instances": len(insts),
                "tech": cfg.tech,
                "capacity_mib_per_instance": insts[0][0].capacity_mib(),
                "n_read": 0, "n_write": 0, "hits": 0, "misses": 0,
                "fills": 0, "evictions": 0, "writebacks": 0, "invalidations": 0,
                "busy_ns": 0.0, "idle_ns": 0.0, "energy_nj": 0.0,
                "mean_hit_latency_ps": None,
                "wear": {"max_write_count": 0, "worn_lines": 0, "wear_events": 0,
                         "first_wear_time_ps": None},
                "regions": [],
            }
            region_counts = [[0, 0] for _ in insts[0][0].regions]
            lat_sum = 0
            lat_n = 0
            for level, tier in insts:
                energy = self._instance_energy(level, duration_ns)
                agg["energy_nj"] += energy
                tier_energy[tier] = tier_energy.get(tier, 0.0) + energy
                tier_area[tier] = tier_area.get(tier, 0.0) + sum(
                    level.region_capacity_mib(r) / level.tech_by_region[r].norm_density
                    for r in range(len(level.regions)))
                agg["n_read"] += level.n_read
                agg["n_write"] += level.n_write
                agg["hits"] += level.hits
                agg["misses"] += level.misses
                agg["fills"] += level.fills
                agg["evictions"] += level.evictions
                agg["writebacks"] += level.writebacks
                agg["invalidations"] += level.invalidations
                busy_ns, idle_ns = self._busy_idle_ns(level, duration_ns)
                agg["busy_ns"] += busy_ns
                agg["idle_ns"] += idle_ns
                lat_sum += level.hit_latency_sum_ps
                lat_n += level.hit_latency_samples
                for r in range(len(level.regions)):
                    region_counts[r][0] += level.region_reads[r]
                    region_counts[r][1] += level.region_writes[r]
                wear = agg["wear"]
                wear["max_write_count"] = max(wear["max_write_count"],
                                              level.max_write_count)
                wear["worn_lines"] += level.worn_lines
                wear["wear_events"] += level.wear_events
                if level.first_wear_time_ps is not None:
                    if (wear["first_wear_time_ps"] is None
                            or level.first_wear_time_ps < wear["first_wear_time_ps"]):
                        wear["first_wear_time_ps"] = level.first_wear_time_ps
            ref = insts[0][0]
            for r, region in enumerate(ref.regions):
                agg["regions"].append({
                    "tech": ref.tech_by_region[r].name,
                    "capacity_mib": ref.region_capacity_mib(r),
                    "n_read": region_counts[r][0],
                    "n_write": region_counts[r][1],
                })
            if lat_n:
                agg["mean_hit_latency_ps"] = lat_sum / lat_n
            levels[name] = agg
            per_level_energy[name] = agg["energy_nj"]
            wear = agg["wear"]
            endurance["max_write_count"] = max(endurance["max_write_count"],
                                               wear["max_write_count"])
            endurance["worn_blocks"] += wear["worn_lines"]
            endurance["wear_events"] += wear["wear_events"]
            if wear["first_wear_time_ps"] is not None:
                if (endurance["first_wear_time_ps"] is None
                        or wear["first_wear_time_ps"] < endurance["first_wear_time_ps"]):
                    endurance["first_wear_time_ps"] = wear["first_wear_time_ps"]

        tiers = []
        for t in self.spec.tier_stack:
            area = tier_area.get(t.index, 0.0)
            energy = tier_energy.get(t.index, 0.0)
            density = None
            if area > 0 and duration_ns > 0:
                density = tier_power_density(energy, duration_ns, area)
            tiers.append({"index": t.index, "kind": t.kind, "area_units": area,
                          "energy_nj": energy,
                          "power_density_mw_per_unit": density})

        bus_totals = {"request_grants": 0, "response_grants": 0, "snoop_grants": 0}
        for cluster in self.clusters:
            bus_totals["request_grants"] += cluster.bus.request.grants
            bus_totals["response_grants"] += cluster.bus.response.grants
            bus_totals["snoop_grants"] += cluster.bus.snoop.grants
        bus_totals["total_grants"] = sum(bus_totals.values())

        mem_latencies = [t1 - t0 for t0, t1 in self.mem_samples]
        bucket = self.spec.histogram_bucket_ps
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
                "total_nj": sum(per_level_energy.values()),
                "per_level_nj": per_level_energy,
                "write_mix": self.spec.write_mix,
                "standby_power_is_configurable": True,
            },
            "latency": {
                "mem": summarize_latency(mem_latencies, bucket).to_dict(),
                "msg": summarize_latency(self.noc.latency_samples_ps, bucket).to_dict(),
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
                    "reads": sum(c.memctrl.reads for c in self.clusters),
                    "writes": sum(c.memctrl.writes for c in self.clusters),
                },
            },
        }
        return report

    def latency_rows(self) -> list[tuple[str, int, int]]:
        rows = [("mem", t0, t1) for t0, t1 in self.mem_samples]
        rows.extend(("msg", p.t_inject, p.t_deliver)
                    for p in self.noc.packets_delivered)
        return rows
