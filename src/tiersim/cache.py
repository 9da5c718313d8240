"""Set-associative cache levels.

One CacheLevel models one cache array: LRU or seeded pseudo-random
replacement, NUCA bank latency, optional hybrid technology regions that
partition the ways, per-word partial-write tracking, and write-endurance
wear. Policy is write-back + write-allocate throughout; writeback writes
that miss are forwarded to the next level without allocating.

Storage is sparse. A set's ways are built one at a time, lowest index
first, by the first fill that lands in each; a way not yet built counts as
invalid and unworn, so replacement picks the same victims as it would over
a fully built set. Lookups never scan ways: each level keeps an index from
block number to the way of its valid, unworn line, plus the set of blocks
whose way has worn out, and `probe` and `fill` consult only those. An
array its cluster snoops (an L1d or a private L2) is handed that cluster's
snoop filter and its own bit in it, and sets and clears the bit where the
index gains and loses the block.

The level has one API, which the simulator and the tests both drive, and
its calls return tuples: `probe` gives `(set_index, way)`, `way` None on
a miss. A request from above is `demand_read` (no allocation; the caller
fills on a miss response) or `writeback_write` (merged on a hit,
forwarded on a miss); each counts the access and returns as `probe` does.
`fill` installs a block and returns `(set_index, way, victim)`, `victim`
the dirty `Eviction` or None; it refuses a block whose way is worn out,
or whose set has no usable way, with way None and the level unchanged.
`write_touch` applies a write hit.
Coherence state lives in the line's `state` field but is driven externally
(see coherence module). Callers may move a valid line between MOESI
states directly, but a line leaves the index only through `evict`,
`invalidate` or wearing out, so nothing outside this module sets `I`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal

from .engine import FifoResource, cycles_for_latency
from .memtech import READ, WRITE, TechnologyParams
from .workload import Count, Size

WORD_SIZE = 8  # bytes per partial-write word

LRU = "lru"
PSEUDO_RANDOM = "pseudo_random"

M, O, E, S, I = "M", "O", "E", "S", "I"
DIRTY_STATES = (M, O)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Region:
    """Contiguous way range [ways[0], ways[1]) backed by one technology."""

    ways: tuple[Count, Count]
    tech: str


@dataclass(frozen=True)
class CacheGeometry:
    """An array's shape. Each field's annotation is its only rule as a
    config value, and its default the config's."""

    capacity: Size                    # bytes
    block_size: Size = 64             # bytes
    associativity: Size = 2           # ways
    banks: Size = 1
    replacement: Literal[LRU, PSEUDO_RANDOM] = LRU
    nuca_base_latency: Count = 0      # cycles, bank-routing cost at the controller
    nuca_per_hop: Count = 0           # cycles per bank of distance
    regions: tuple[Region, ...] = ()  # empty means single implicit region
    partial_writes: bool = False

    @property
    def sets(self) -> int:
        return self.capacity // (self.associativity * self.block_size)

    @property
    def words_per_block(self) -> int:
        return self.block_size // WORD_SIZE

    def violations(self, path: str = "geometry") -> list[str]:
        """Each rule across fields it breaks, by path; its fields keep their kinds."""
        out = []
        if not _is_pow2(self.block_size):
            out.append(f"{path}.block_size: not a power of two ({self.block_size})")
        if self.capacity % (self.associativity * self.block_size) != 0:
            out.append(f"{path}.capacity: {self.capacity} not sets*ways*block_size")
            return out
        if not _is_pow2(self.sets):
            out.append(f"{path}.capacity: derived set count {self.sets} not a power of two")
        if self.sets % self.banks != 0:
            out.append(f"{path}.banks: {self.banks} does not divide {self.sets} sets")
        expect = 0   # where the next region must start; -1 once one does not
        for lo, hi in sorted(r.ways for r in self.regions):
            expect = hi if lo == expect and hi > lo else -1
        if self.regions and expect != self.associativity:
            out.append(f"{path}.regions: way ranges must partition "
                       f"[0, {self.associativity})")
        return out


def compose_address(tag: int, set_index: int, offset: int, geom: CacheGeometry) -> int:
    return (tag * geom.sets + set_index) * geom.block_size + offset


def check_wear(line: "CacheLine", params: TechnologyParams) -> bool:
    """True when the line has exceeded the technology's write endurance."""
    return line.write_count > params.endurance


@dataclass(slots=True)
class CacheLine:
    tag: int = 0
    state: str = I
    lru_stamp: int = 0
    write_count: int = 0
    dirty_words: int = 0          # bitmask over words in the block
    worn: bool = False
    data: list[int] | None = None  # block image, only while a fill supplied one


@dataclass(slots=True)
class Eviction:
    """Dirty victim handed back to the caller for write-back."""

    addr: int
    dirty_words: int
    data: list[int] | None
    state: str


class CacheLevel:
    """One cache array instance with counters for reporting.

    The latency rule lives in `nuca_cycles` (bank route) and `op_cycles`
    (read or write on a way's region). The access path reads it from two
    tables filled from those once, at construction: `route_cycles[bank]`
    and `way_cycles[kind][way]`. A booking is one `service` call, which
    holds the port for the cycles given and, with `record`, takes the
    service time as a hit-latency sample.
    """

    def __init__(self, name: str, geom: CacheGeometry,
                 tech_by_region: list[TechnologyParams],
                 clock_period_ps: int = 1000,
                 rng: random.Random | None = None,
                 write_mix: float = 0.5,
                 snoop_filter: tuple[dict[int, int], int] | None = None,
                 tier: int = 0):
        regions = geom.regions or (Region((0, geom.associativity),
                                          tech_by_region[0].name),)
        if len(tech_by_region) != len(regions):
            raise ValueError(f"{name}: {len(regions)} regions but "
                             f"{len(tech_by_region)} technology records")
        self.name = name
        self.geom = geom
        self.tier = tier  # its tier in the stack; 0 for an array built alone
        self.regions = regions
        self.tech_by_region = list(tech_by_region)
        self.clock_period_ps = clock_period_ps
        # Only pseudo-random replacement draws; an LRU level keeps no rng.
        self.rng = rng or (random.Random(0) if geom.replacement == PSEUDO_RANDOM
                           else None)
        self._stamp = 0
        self._sets = geom.sets
        self._block_size = geom.block_size
        # lines[s] holds set s's built ways in way order. Ways at index
        # len(lines[s]) and above are unbuilt: invalid and unworn. A set
        # nothing was ever filled into shares the empty tuple; its first
        # fill gives it a list of its own.
        self.lines: list[list[CacheLine] | tuple[()]] = [()] * geom.sets
        # The lookup path: block number -> way of its valid, unworn line,
        # and the blocks whose way wore out (worn ways keep their tag).
        self._resident: dict[int, int] = {}
        self._worn_blocks: set[int] = set()
        # A snooped array also keeps its bit in the cluster's map from block
        # number to holder bits, set exactly while the block is in _resident.
        self._holders, self._holder_bit = snoop_filter or (None, 0)
        self._region_of_way = [0] * geom.associativity
        for idx, r in enumerate(regions):
            for w in range(*r.ways):
                self._region_of_way[w] = idx

        # Reporting counters. n_read/n_write count accesses (demand reads,
        # core reads/writes, writeback writes); fills are responses, not
        # accesses, so energy recomputes from these counts alone.
        self.n_read = 0
        self.n_write = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.writebacks = 0
        self.region_reads = [0] * len(regions)
        self.region_writes = [0] * len(regions)
        self.worn_lines = 0
        self.max_write_count = 0
        self.first_wear_time_ps: int | None = None
        self.invalidations = 0
        self.hit_latency_sum_ps = 0
        self.hit_latency_samples = 0
        self.port = FifoResource()  # single-ported: one access in service at a time

        per_region_write_ns = [
            write_mix * t.write_set_latency + (1.0 - write_mix) * t.write_reset_latency
            for t in tech_by_region]
        self._read_cycles = [cycles_for_latency(t.read_latency, clock_period_ps)
                             for t in tech_by_region]
        self._write_cycles = [cycles_for_latency(ns, clock_period_ps)
                              for ns in per_region_write_ns]
        self.route_cycles = [self.nuca_cycles(b) for b in range(geom.banks)]
        self.way_cycles = {kind: [self.op_cycles(w, kind)
                                  for w in range(geom.associativity)]
                           for kind in (READ, WRITE)}

    # -- geometry helpers ---------------------------------------------------

    def nuca_cycles(self, set_index: int) -> int:
        """Bank-route cycles to the set's bank, set_index % banks."""
        geom = self.geom
        return geom.nuca_base_latency + geom.nuca_per_hop * (set_index % geom.banks)

    def op_cycles(self, way: int, kind: str) -> int:
        region = self._region_of_way[way]
        return (self._read_cycles if kind == READ else self._write_cycles)[region]

    # -- lookup / replacement -------------------------------------------------

    def probe(self, addr: int) -> tuple[int, int | None]:
        """(set_index, hit way or None)."""
        block = addr // self._block_size
        return block % self._sets, self._resident.get(block)

    def touch(self, set_index: int, way: int) -> None:
        self._stamp += 1
        self.lines[set_index][way].lru_stamp = self._stamp

    def select_victim(self, set_index: int) -> int | None:
        """Way to fill: first usable invalid way, else the policy's choice.

        An unbuilt way is invalid, and every built way has a lower index, so
        the next unbuilt way is chosen only when no built way is free.
        Returns None when every way of the set is worn out.
        """
        ways = self.lines[set_index]
        for w, line in enumerate(ways):
            if line.state == I and not line.worn:
                return w
        if len(ways) < self.geom.associativity:
            return len(ways)
        usable = [w for w, line in enumerate(ways) if not line.worn]
        if not usable:
            return None
        if self.geom.replacement == LRU:
            return min(usable, key=lambda w: ways[w].lru_stamp)
        return usable[self.rng.randrange(len(usable))]

    def _unindex(self, set_index: int, line: CacheLine) -> None:
        """Drop a valid line from the lookup index, and its bit from the
        snoop filter, as it leaves that state."""
        if line.worn:
            return
        block = line.tag * self._sets + set_index
        del self._resident[block]
        if self._holders is not None:
            rest = self._holders[block] & ~self._holder_bit
            if rest:
                self._holders[block] = rest
            else:
                del self._holders[block]

    def evict(self, set_index: int, way: int) -> Eviction | None:
        """Invalidate a way; dirty victims come back for write-back. The
        victim takes the line's data image itself, not a copy: the line
        drops it, and a refill gets a fresh one."""
        ways = self.lines[set_index]
        if way >= len(ways) or ways[way].state == I:
            return None
        line = ways[way]
        self._unindex(set_index, line)
        self.evictions += 1
        out = None
        if line.state in DIRTY_STATES:
            self.writebacks += 1
            out = Eviction(
                addr=compose_address(line.tag, set_index, 0, self.geom),
                dirty_words=line.dirty_words,
                data=line.data,
                state=line.state)
        line.state = I
        line.dirty_words = 0
        line.data = None
        return out

    def fill(self, addr: int, state: str, data: list[int] | None = None,
             write_fill_words: int = 0, now_ps: int = 0
             ) -> tuple[int, int | None, Eviction | None]:
        """Install a block that is not resident (miss response), or refuse
        it as the module docstring says. The line keeps a copy of `data`,
        or no image when `data` is None. write_fill_words > 0 marks a
        write-allocate fill and charges wear for it."""
        block = addr // self._block_size
        set_index = block % self._sets
        way = (None if block in self._worn_blocks
               else self.select_victim(set_index))
        if way is None:
            return set_index, None, None
        ways = self.lines[set_index]
        if way == len(ways):
            if not ways:
                ways = self.lines[set_index] = []
            ways.append(CacheLine())
            victim = None
        else:
            victim = self.evict(set_index, way)
        line = ways[way]
        # write_count survives refills: endurance wears the physical way,
        # not the block that happens to occupy it.
        line.tag = block // self._sets
        line.state = state
        line.dirty_words = 0
        line.data = list(data) if data is not None else None
        self._resident[block] = way
        if self._holders is not None:
            # A sole holder's entry is the level's own bit object: no new int.
            held = self._holders.get(block)
            self._holders[block] = (self._holder_bit if held is None
                                    else held | self._holder_bit)
        self.fills += 1
        self.touch(set_index, way)
        if write_fill_words:
            self._charge_write(set_index, way, write_fill_words, now_ps)
        return set_index, way, victim

    # -- wear ---------------------------------------------------------------

    def _charge_write(self, set_index: int, way: int, words: int, now_ps: int) -> None:
        """Bump write_count per the partial-write rule; wear out past endurance."""
        line = self.lines[set_index][way]
        line.write_count += words if self.geom.partial_writes else 1
        self.max_write_count = max(self.max_write_count, line.write_count)
        tech = self.tech_by_region[self._region_of_way[way]]
        if not line.worn and check_wear(line, tech):
            if line.state != I:
                self._unindex(set_index, line)
            line.worn = True
            self._worn_blocks.add(line.tag * self._sets + set_index)
            self.worn_lines += 1
            if self.first_wear_time_ps is None:
                self.first_wear_time_ps = now_ps

    def write_touch(self, set_index: int, way: int, mask: int,
                    now_ps: int = 0) -> None:
        """Apply a write hit to a resident line: mark the words in `mask`
        dirty, touch the line and charge wear for that many words."""
        self.lines[set_index][way].dirty_words |= mask
        self.touch(set_index, way)
        self._charge_write(set_index, way, mask.bit_count(), now_ps)

    # -- system-facing access paths -------------------------------------------

    def demand_read(self, addr: int) -> tuple[int, int | None]:
        """Fetch request from the level above. No allocation here; the caller
        fills on the miss response."""
        set_index, way = self.probe(addr)
        self.count_access("R", way)
        if way is not None:
            self.touch(set_index, way)
        return set_index, way

    def writeback_write(self, addr: int, dirty_words: int,
                        data: list[int] | None = None, state: str = M,
                        now_ps: int = 0) -> tuple[int, int | None]:
        """Write-back of a victim in `state` from the level above. Hits merge
        in place; misses (and worn lines) are forwarded, never allocated."""
        set_index, way = self.probe(addr)
        self.count_access("W", way)
        if way is None:
            return set_index, None
        line = self.lines[set_index][way]
        line.state = state
        line.dirty_words |= dirty_words
        if data is not None:
            for w in range(self.geom.words_per_block):
                if dirty_words >> w & 1:
                    line.data[w] = data[w]
        self.touch(set_index, way)
        self._charge_write(set_index, way, dirty_words.bit_count() or 1, now_ps)
        return set_index, way

    def invalidate(self, set_index: int, way: int) -> None:
        """Drop a copy on a remote invalidation; ownership travels with the
        bus data, so nothing is written back."""
        ways = self.lines[set_index]
        if way >= len(ways):
            return
        line = ways[way]
        if line.state != I:
            self._unindex(set_index, line)
            self.invalidations += 1
        line.state = I
        line.dirty_words = 0
        line.data = None

    # -- accounting -----------------------------------------------------------

    def count_access(self, op: str, way: int | None) -> None:
        """Count one access, read ("R") or write ("W"): a hit on `way`,
        charged to that way's region, or a miss (`way` None), charged to
        region 0. Every access of the level is counted here."""
        if way is None:
            self.misses += 1
            region = 0
        else:
            self.hits += 1
            region = self._region_of_way[way]
        if op == "R":
            self.n_read += 1
            self.region_reads[region] += 1
        else:
            self.n_write += 1
            self.region_writes[region] += 1

    def service(self, arrival_ps: int, cycles: int,
                record: bool = False) -> tuple[int, int]:
        """Occupy the array's port for an access, after every access already
        booked; returns (start, done) in ps. With `record` the service time,
        done - start, is a hit-latency sample."""
        start, done = self.port.book(arrival_ps, cycles * self.clock_period_ps)
        if record:
            self.hit_latency_sum_ps += done - start
            self.hit_latency_samples += 1
        return start, done

    def capacity_mib(self) -> float:
        return self.geom.capacity / (1024.0 * 1024.0)

    def region_capacity_mib(self, region_index: int) -> float:
        r = self.regions[region_index]
        frac = (r.ways[1] - r.ways[0]) / self.geom.associativity
        return self.capacity_mib() * frac
