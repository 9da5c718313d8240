"""Trace ingestion and synthetic workload generators.

Memory traces are CSV `tick,core,op,addr,size` with a mandatory header line;
message traces are CSV `tick,src_cluster,dst_cluster,bytes`. Generators are
pure functions of their parameters and seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterable, Iterator, NewType, TextIO

from .engine import substream

TRACE_HEADER = "tick,core,op,addr,size"
MESSAGE_HEADER = "tick,src_cluster,dst_cluster,bytes"

ADDR_BITS = 48
ADDR_SPACE = 1 << ADDR_BITS

# Kinds of generator parameter. A parameter's annotation is its only rule,
# applied by `argument_problems`: an `int` takes an integer, a `Count` an
# integer >= 0, a `Size` one >= 1, a `CoreCount` one from 1 to the system's
# total core count, a `ClusterCount` one from 2 to the system's cluster
# count, and a `Probability` a number in [0, 1].
Count = NewType("Count", int)
Size = NewType("Size", int)
CoreCount = NewType("CoreCount", int)
ClusterCount = NewType("ClusterCount", int)
Probability = NewType("Probability", float)
# The integer kinds, each with its least value.
_LEAST = {int: None, Count: 0, Size: 1, CoreCount: 1, ClusterCount: 2}


def generator_parameters(gen) -> dict[str, object]:
    """A generator's parameters, less the seed, each with its annotation."""
    return {name: p.annotation for name, p
            in inspect.signature(gen, eval_str=True).parameters.items()
            if name != "seed"}


def argument_problems(gen, args: dict, cores: int = 0,
                      clusters: int = 0) -> list[tuple[str, str]]:
    """(parameter, problem) for each of `gen`'s parameters in `args` whose
    value breaks its rule; other names are left to the caller. A system's
    `cores` and `clusters`, where >= 1, bound the counts from above."""
    rules = generator_parameters(gen)
    bounds = {CoreCount: (cores, "cores"), ClusterCount: (clusters, "clusters")}
    out: list[tuple[str, str]] = []
    for name, value in args.items():
        kind = rules.get(name)
        least = _LEAST.get(kind)
        most, unit = bounds.get(kind, (0, ""))
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is Probability and not (number and 0 <= value <= 1):
            out.append((name, f"must be a number in [0, 1], got {value!r}"))
        elif kind in _LEAST and not (number and isinstance(value, int)):
            out.append((name, f"must be an integer, got {value!r}"))
        elif most >= 1 and not least <= value <= most:
            out.append((name, f"must be from {least} to the system's {most} "
                              f"{unit}, got {value}"))
        elif least is not None and value < least:
            out.append((name, f"must be >= {least}, got {value}"))
    return out


def hot_window_problem(cores: int, hot_set_bytes: int,
                       hot_overlap: float) -> str | None:
    """Why `gen_synthetic_trace`'s hot windows would not all lie below
    ADDR_SPACE, or None. Core c's window starts at c * hot_set_bytes, and
    the window every core shares, used when hot_overlap > 0, at
    cores * hot_set_bytes; each is hot_set_bytes long."""
    windows = cores + (hot_overlap > 0)
    most = ADDR_SPACE // windows
    if hot_set_bytes > most:
        return (f"must be at most {most}, so that {windows} hot windows fit "
                f"in the {ADDR_BITS}-bit address space, got {hot_set_bytes}")
    return None


class TraceParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, slots=True)
class TraceRecord:
    tick: int      # earliest issue cycle, core clock
    core: int      # global core id
    op: str        # "R" or "W"
    addr: int      # 48-bit physical address
    size: int      # bytes, at most one block


@dataclass(frozen=True, slots=True)
class MessageRecord:
    tick: int
    src_cluster: int
    dst_cluster: int
    bytes: int


def parse_trace_line(line: str, lineno: int = 0) -> TraceRecord | None:
    """Parse one trace line; comments and blank lines yield None."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split(",")
    if len(parts) != 5:
        raise TraceParseError(lineno, f"expected 5 fields, got {len(parts)}")
    try:
        tick = int(parts[0])
        core = int(parts[1])
    except ValueError as exc:
        raise TraceParseError(lineno, str(exc)) from None
    if tick < 0:
        raise TraceParseError(lineno, f"tick must be >= 0, got {tick}")
    op = parts[2].strip()
    if op not in ("R", "W"):
        raise TraceParseError(lineno, f"op must be R or W, got {op!r}")
    addr_text = parts[3].strip()
    if not addr_text.lower().startswith("0x"):
        raise TraceParseError(lineno, f"addr must be 0x-prefixed hex, got {addr_text!r}")
    try:
        addr = int(addr_text, 16)
    except ValueError:
        raise TraceParseError(lineno, f"bad hex address {addr_text!r}") from None
    try:
        size = int(parts[4])
    except ValueError as exc:
        raise TraceParseError(lineno, str(exc)) from None
    if size <= 0:
        raise TraceParseError(lineno, f"size must be > 0, got {size}")
    if addr >= ADDR_SPACE:
        raise TraceParseError(lineno, f"address exceeds {ADDR_BITS} bits")
    return TraceRecord(tick, core, op, addr, size)


def _record_lines(stream: TextIO, header: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each record line of a file whose
    first line that is neither blank nor a `#` comment must be `header`."""
    header_seen = False
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if not header_seen:
            if text != header:
                raise TraceParseError(lineno, f"missing header {header!r}")
            header_seen = True
            continue
        yield lineno, text


def parse_trace(stream: TextIO) -> list[TraceRecord]:
    """Parse a whole trace file, validating the header line."""
    return [parse_trace_line(text, lineno)
            for lineno, text in _record_lines(stream, TRACE_HEADER)]


def write_trace(records: Iterable[TraceRecord], stream: TextIO) -> None:
    stream.write(TRACE_HEADER + "\n")
    for r in records:
        stream.write(f"{r.tick},{r.core},{r.op},0x{r.addr:x},{r.size}\n")


def parse_messages(stream: TextIO) -> list[MessageRecord]:
    records: list[MessageRecord] = []
    for lineno, text in _record_lines(stream, MESSAGE_HEADER):
        parts = text.split(",")
        if len(parts) != 4:
            raise TraceParseError(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            tick, src, dst, nbytes = (int(p) for p in parts)
        except ValueError as exc:
            raise TraceParseError(lineno, str(exc)) from None
        if tick < 0:
            raise TraceParseError(lineno, f"tick must be >= 0, got {tick}")
        if src == dst:
            raise TraceParseError(lineno, "src_cluster must differ from dst_cluster")
        if nbytes <= 0:
            raise TraceParseError(lineno, f"bytes must be > 0, got {nbytes}")
        records.append(MessageRecord(tick, src, dst, nbytes))
    return records


def write_messages(records: Iterable[MessageRecord], stream: TextIO) -> None:
    stream.write(MESSAGE_HEADER + "\n")
    for r in records:
        stream.write(f"{r.tick},{r.src_cluster},{r.dst_cluster},{r.bytes}\n")


def gen_synthetic_trace(cores: CoreCount, length: Count,
                        hot_fraction: Probability, hot_set_bytes: Size,
                        seed: int, *,
                        read_fraction: Probability = 2.0 / 3.0,
                        access_size: Size = 8,
                        tick_interval: Count = 1,
                        hot_overlap: Probability = 0.0) -> list[TraceRecord]:
    """Per-core hot-set memory trace: with probability hot_fraction an access
    falls in the core's hot window, else anywhere below ADDR_SPACE.

    Hot windows are disjoint per core by default so shared-vs-distributed L2
    comparisons stay clean; hot_overlap redirects that fraction of hot
    accesses to a window shared by every core.
    """
    for name, problem in argument_problems(gen_synthetic_trace, locals()):
        raise ValueError(f"{name} {problem}")
    problem = hot_window_problem(cores, hot_set_bytes, hot_overlap)
    if problem:
        raise ValueError(f"hot_set_bytes {problem}")
    shared_base = cores * hot_set_bytes
    records: list[TraceRecord] = []
    for core in range(cores):
        rng = substream(seed, "trace", core)
        base = core * hot_set_bytes
        for i in range(length):
            if rng.random() < hot_fraction:
                if hot_overlap and rng.random() < hot_overlap:
                    addr = shared_base + rng.randrange(hot_set_bytes)
                else:
                    addr = base + rng.randrange(hot_set_bytes)
            else:
                addr = rng.randrange(ADDR_SPACE)
            addr -= addr % access_size
            op = "R" if rng.random() < read_fraction else "W"
            records.append(TraceRecord(i * tick_interval, core, op, addr, access_size))
    records.sort(key=lambda r: (r.tick, r.core))
    return records


def gen_message_traffic(clusters: ClusterCount, cycles: Count,
                        rate: Probability, payload_bytes: Size,
                        seed: int) -> list[MessageRecord]:
    """Bernoulli message injection: each cluster independently injects with
    probability `rate` per cycle to a uniformly chosen other cluster."""
    for name, problem in argument_problems(gen_message_traffic, locals()):
        raise ValueError(f"{name} {problem}")
    records: list[MessageRecord] = []
    rngs = [substream(seed, "msg", c) for c in range(clusters)]
    for tick in range(cycles):
        for c in range(clusters):
            rng = rngs[c]
            if rng.random() < rate:
                dst = rng.randrange(clusters - 1)
                if dst >= c:
                    dst += 1
                records.append(MessageRecord(tick, c, dst, payload_bytes))
    return records
