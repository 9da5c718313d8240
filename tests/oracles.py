"""Oracles that tests check a system against, kept out of the simulator:
the MOESI invariants and the snoop filter of every cluster, a sequential
memory that replays each cluster's data log, and the clusters' isolation."""

from tiersim.coherence import CoherenceFault, check_invariants


def check_coherence(system, addrs: list[int]) -> None:
    """Check the MOESI invariants of each address's snoop vector, and that
    the snoop filter's entry equals the holders a probe of every stack's
    L1d and private L2 finds, in every cluster. Raises CoherenceFault."""
    for cluster in system.clusters:
        for addr in addrs:
            check_invariants([s.state(addr) for s in cluster.stacks])
            probed = 0
            for stack in cluster.stacks:
                for bit, level in enumerate(stack.snooped):
                    if level.probe(addr)[1] is not None:
                        probed |= 1 << (2 * stack.index + bit)
            block = addr // system.block_size
            if cluster.holders.get(block, 0) != probed:
                raise CoherenceFault(
                    f"cluster {cluster.index} block {block:#x}: snoop "
                    f"filter {cluster.holders.get(block, 0):#b}, "
                    f"stacks hold {probed:#b}")


# ROADMAP item 8: a write that wears a line out strands its dirty words, so
# later reads of them return stale data. These are the (stale, reads) counts
# of count_stale_reads on the corpus and golden cases that show it, with the
# data log on; every other case reads clean. Item 8's fix empties this.
STALE_READS = {
    "case00": (48, 2080), "case07": (54, 1178), "case09": (296, 4376),
    "case17": (24, 1304), "case18": (136, 5440), "case21": (3, 220),
    "worn-l1": (10, 479), "distributed-worn": (13, 474),
}


def _replayed_reads(system):
    """Replay each cluster's data log on a sequential memory of its own, in
    which a word reads 0 until it is written. Yields each read as
    `(cluster, word, value, expected)`, expected being the last value
    written to the word."""
    for cluster in system.clusters:
        memory: dict[int, int] = {}
        for kind, word, value in cluster.data_log:
            if kind == "w":
                memory[word] = value
            else:
                yield cluster.index, word, value, memory.get(word, 0)


def replay_data_log(system) -> int:
    """Asserts that every read of the replayed data logs returns the last
    value written to its word, and returns the number of reads."""
    reads = 0
    for index, word, value, expected in _replayed_reads(system):
        reads += 1
        assert value == expected, (
            f"cluster {index} read {value} at {word:#x}, expected {expected}")
    return reads


def count_stale_reads(system) -> tuple[int, int]:
    """(stale, reads): how many reads of the replayed data logs did not
    return the last value written to their word, of how many reads."""
    stale = reads = 0
    for _, _, value, expected in _replayed_reads(system):
        reads += 1
        stale += value != expected
    return stale, reads


def check_norma_isolation(system) -> None:
    """Check that no stateful memory-side part belongs to two clusters: a
    cluster's heap of turns, backing store, memory controller, bus, snoop
    filter and cache arrays are its own (NORMA: no data path between cluster
    address spaces). The arrays its paths use must be exactly `levels`,
    in build order, so none escapes the check or the report."""
    owner: dict[int, int] = {}
    for cluster in system.clusters:
        used = [a for s in cluster.stacks
                for a in (s.l1i, s.l1d, s.l2_private)]
        used += [a for tier, l2i in cluster.l2i.items()
                 for a in (cluster.l2_shared.get(tier), l2i)]
        used = [a for a in (*used, cluster.l3) if a is not None]
        assert list(map(id, used)) == list(map(id, cluster.levels)), (
            f"cluster {cluster.index}: its paths' arrays are not its levels")
        assert {id(a) for s in cluster.stacks for p in s.paths for a in p
                if a is not None} <= set(map(id, cluster.levels))
        for part in (cluster.turns, cluster.memory, cluster.memctrl,
                     cluster.bus, cluster.holders, *cluster.levels):
            first = owner.setdefault(id(part), cluster.index)
            assert first == cluster.index, (
                f"{type(part).__name__} shared between clusters {first} "
                f"and {cluster.index}")
