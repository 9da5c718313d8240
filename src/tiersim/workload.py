"""Trace ingestion and synthetic workload generators.

Memory traces are CSV `tick,core,op,addr,size` with a mandatory header line;
message traces are CSV `tick,src_cluster,dst_cluster,bytes`. Generators are
pure functions of their parameters and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NewType, TextIO

from .engine import substream

TRACE_HEADER = "tick,core,op,addr,size"
MESSAGE_HEADER = "tick,src_cluster,dst_cluster,bytes"

ADDR_BITS = 48
ADDR_SPACE = 1 << ADDR_BITS

# Kinds of generator parameter. The config check (`tiersim.arch`) reads
# each parameter's rule from its annotation: an `int` takes an integer, a
# `Count` an integer >= 0, a `CoreCount` an integer from 1 to the system's
# total core count, and a `Probability` a number in [0, 1].
Count = NewType("Count", int)
CoreCount = NewType("CoreCount", int)
Probability = NewType("Probability", float)


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
                        hot_fraction: Probability, hot_set_bytes: int,
                        seed: int, *,
                        read_fraction: Probability = 2.0 / 3.0,
                        access_size: int = 8,
                        tick_interval: Count = 1,
                        hot_overlap: Probability = 0.0) -> list[TraceRecord]:
    """Per-core hot-set memory trace: with probability hot_fraction an access
    falls in the core's hot window, else anywhere below ADDR_SPACE.

    Hot windows are disjoint per core by default so shared-vs-distributed L2
    comparisons stay clean; hot_overlap redirects that fraction of hot
    accesses to a window shared by every core.
    """
    for name, value in (("hot_fraction", hot_fraction),
                        ("read_fraction", read_fraction),
                        ("hot_overlap", hot_overlap)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    if hot_set_bytes <= 0:
        raise ValueError("hot_set_bytes must be > 0")
    if access_size < 1:
        raise ValueError(f"access_size must be >= 1, got {access_size}")
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


def gen_message_traffic(clusters: int, cycles: Count, rate: Probability,
                        payload_bytes: int, seed: int) -> list[MessageRecord]:
    """Bernoulli message injection: each cluster independently injects with
    probability `rate` per cycle to a uniformly chosen other cluster."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if clusters < 2 and rate > 0.0:
        raise ValueError("message traffic needs at least two clusters")
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
