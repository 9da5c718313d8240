"""Oracles that tests check a finished run against, kept out of the
simulator: the MOESI invariants and the snoop filter of every cluster, and
a sequential memory that replays the data log."""

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
    """Replay a run's data log on a sequential memory: each cluster has its
    own address space, in which a word reads 0 until it is written. Asserts
    that every read returns the last value written to its word, and returns
    the number of reads."""
    memory: dict[tuple[int, int], int] = {}
    reads = 0
    for kind, cluster, word, value in system.data_log:
        if kind == "w":
            memory[cluster, word] = value
        else:
            reads += 1
            assert memory.get((cluster, word), 0) == value, (
                f"cluster {cluster} read {value} at {word:#x}, expected "
                f"{memory.get((cluster, word), 0)}")
    return reads
