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


def replay_data_log(system) -> int:
    """Replay each cluster's data log on a sequential memory of its own, in
    which a word reads 0 until it is written. Asserts that every read
    returns the last value written to its word, and returns the number of
    reads."""
    reads = 0
    for cluster in system.clusters:
        memory: dict[int, int] = {}
        for kind, word, value in cluster.data_log:
            if kind == "w":
                memory[word] = value
            else:
                reads += 1
                assert memory.get(word, 0) == value, (
                    f"cluster {cluster.index} read {value} at {word:#x}, "
                    f"expected {memory.get(word, 0)}")
    return reads


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
