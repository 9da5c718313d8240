"""Trace ingestion, synthetic workload generators, and the kinds of value
that config keys and generator parameters take, applied by `typed`.

Memory traces are CSV `tick,core,op,addr,size` with a mandatory header line;
message traces are CSV `tick,src_cluster,dst_cluster,bytes`. Generators are
pure functions of their parameters and seed.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain
from types import MappingProxyType, UnionType
from typing import (Any, Iterable, Iterator, NewType, TextIO, get_args,
                    get_origin, get_type_hints)

from .engine import substream

TRACE_HEADER = "tick,core,op,addr,size"
MESSAGE_HEADER = "tick,src_cluster,dst_cluster,bytes"

ADDR_BITS = 48
ADDR_SPACE = 1 << ADDR_BITS

# The latest time a record may start: a request that starts before it has
# as long again to complete before its end leaves a LatencyLog's int64 column.
LATEST_START_PS = 1 << 62

# Kinds of value. The annotation of a generator parameter, or of a field of
# a config dataclass, is its only rule, applied by `typed`: an `int`
# takes an integer, a `Count` an integer >= 0, a `Size` one >= 1, a
# `CoreCount` one from 1 to the system's total core count, a `ClusterCount`
# one from 2 to the system's cluster count; a `Probability` a number in
# [0, 1], a `Positive` a finite one > 0, a `NonNegative` a finite one >= 0
# and an `Endurance` one >= 1 or "unlimited"; a `bool` true or false, a `str`
# a string, a `Literal` one of its names, and `Any` anything, checked
# elsewhere.
Count = NewType("Count", int)
Size = NewType("Size", int)
CoreCount = NewType("CoreCount", int)
ClusterCount = NewType("ClusterCount", int)
Probability = NewType("Probability", float)
Positive = NewType("Positive", float)
NonNegative = NewType("NonNegative", float)
Endurance = NewType("Endurance", float)
# The integer kinds, each with its least value.
_LEAST = {int: None, Count: 0, Size: 1, CoreCount: 1, ClusterCount: 2}
# The number kinds, each with its rule as text and as a test.
NUMBER_KINDS = {Probability: ("a number in [0, 1]", lambda v: 0 <= v <= 1),
                Positive: ("a finite number > 0", lambda v: 0 < v < math.inf),
                NonNegative: ("a finite number >= 0",
                              lambda v: 0 <= v < math.inf),
                Endurance: ('a number >= 1 or "unlimited"', lambda v: v >= 1)}


class ConfigError(ValueError):
    """A config no spec can be built from (see `typed`)."""


@functools.cache
def field_kinds(owner) -> Mapping[str, object]:
    """The annotations of a dataclass's fields or of a function's
    parameters, worked out once, shared read-only."""
    kinds = get_type_hints(owner)
    kinds.pop("return", None)
    return MappingProxyType(kinds)


def typed(kind, value, path: str, problems: list[tuple[str, str]],
          cores: int = 0, clusters: int = 0):
    """`value` as a field of kind `kind` stores it, with (path, problem)
    appended to `problems` for each key `kind` does not name and each value
    that breaks its kind, in the config's order. A dataclass, or a dict of
    named kinds, takes an object, null being {}, and stores its dataclass,
    or a dict; a `dict[str, X]` takes an object of Xs; `X | None` null, as
    None, or an X, and an object without keys counts as null where X is a
    dataclass; a tuple kind a list of its length, as a tuple. Any other
    value is kept as given, except that an integer that keeps a number kind
    is stored as a float. A key is at `path.key` and an item at `path[i]`.
    A system's `cores` and `clusters`, where >= 1, bound the counts from
    above. A section that is not an object, a list of the wrong length, or
    an object without a field that has no default is a ConfigError."""
    origin = get_origin(kind)
    if origin is UnionType:
        kind = get_args(kind)[0]
        if value is None or (value == {} and is_dataclass(kind)):
            return None
        origin = get_origin(kind)
    if origin is dict or is_dataclass(kind) or isinstance(kind, Mapping):
        if not isinstance(value, dict | None):
            raise ConfigError(f"{path}: must be an object, "
                              f"got {type(value).__name__}")
        value = value or {}
        kinds = (dict.fromkeys(value, get_args(kind)[1]) if origin is dict
                 else field_kinds(kind) if is_dataclass(kind) else kind)
        at = f"{path}." if path else ""
        for f in fields(kind) if is_dataclass(kind) else ():
            if (f.default is MISSING and f.default_factory is MISSING
                    and f.name not in value):
                raise ConfigError(f"{at}{f.name}: required")
        out = {}
        for key, item in value.items():
            where = f"{at}{key}"
            if key in kinds:
                out[key] = typed(kinds[key], item, where, problems, cores,
                                 clusters)
            else:
                problems.append((where, "unknown key"))
        return kind(**out) if is_dataclass(kind) else out
    if origin is tuple:
        args = get_args(kind)
        any_length = args[-1] is Ellipsis
        if not (isinstance(value, (list, tuple))
                and (any_length or len(value) == len(args))):
            raise ConfigError(f"{path}: must be a list"
                              f"{'' if any_length else f' of {len(args)}'}, "
                              f"got {value!r}")
        return tuple(typed(args[0] if any_length else args[i], item,
                           f"{path}[{i}]", problems, cores, clusters)
                     for i, item in enumerate(value))
    problem = _scalar_problem(kind, value, cores, clusters)
    if problem:
        problems.append((path, problem))
    elif kind in NUMBER_KINDS and isinstance(value, int):
        return float(value)
    return value


def kind_problems(kind, value, path: str = "", cores: int = 0,
                  clusters: int = 0) -> list[tuple[str, str]]:
    """(path, problem) for each way `value` breaks `kind`, as `typed`
    finds them."""
    problems: list[tuple[str, str]] = []
    typed(kind, value, path, problems, cores, clusters)
    return problems


def _scalar_problem(kind, value, cores: int, clusters: int) -> str | None:
    """How `value` breaks the scalar kind `kind`, or None."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind in _LEAST:
        least = _LEAST[kind]
        most, unit = {CoreCount: (cores, "cores"),
                      ClusterCount: (clusters, "clusters")}.get(kind, (0, ""))
        if not (number and isinstance(value, int)):
            return f"must be an integer, got {value!r}"
        if most >= 1 and not least <= value <= most:
            return f"must be from {least} to the system's {most} {unit}, got {value}"
        if least is not None and value < least:
            return f"must be >= {least}, got {value}"
        return None
    if kind in NUMBER_KINDS:
        rule, test = NUMBER_KINDS[kind]
        fits = not isinstance(value, int) or abs(value) <= sys.float_info.max
        if number and fits and test(value) or kind is Endurance and value == "unlimited":
            return None
        return f"must be {rule}, got {value!r}"
    if kind in (bool, str):
        return None if isinstance(value, kind) else (
            f"must be {'true or false' if kind is bool else 'a string'}, "
            f"got {value!r}")
    if kind is Any:
        return None
    names = get_args(kind)  # the names a Literal allows
    return None if value in names else (
        f"must be one of {', '.join(map(repr, names))}, got {value!r}")


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


def start_time_problem(length: int, tick_interval: int,
                       core_ps: int) -> str | None:
    """Why the last of a core's `length` records from `gen_synthetic_trace`,
    at tick (length - 1) * tick_interval, would start at or after
    LATEST_START_PS on a core clock of `core_ps` ps, or None."""
    if length < 2:
        return None
    most = (LATEST_START_PS - 1) // ((length - 1) * core_ps)
    if tick_interval > most:
        return (f"must be at most {most}, so that each core's last record "
                f"starts before {LATEST_START_PS} ps, got {tick_interval}")
    return None


class TraceParseError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")


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


def gen_synthetic_trace(cores: CoreCount, length: Count = 1000,
                        hot_fraction: Probability = 0.9,
                        hot_set_bytes: Size = 8192, *, seed: int,
                        read_fraction: Probability = 2.0 / 3.0,
                        access_size: Size = 8,
                        tick_interval: Count = 1,
                        hot_overlap: Probability = 0.0) -> list[TraceRecord]:
    """Per-core hot-set memory trace: with probability hot_fraction an access
    falls in the core's hot window, else anywhere below ADDR_SPACE. The
    records of every core's `core_streams` stream, sorted by (tick, core).

    Hot windows are disjoint per core by default so shared-vs-distributed L2
    comparisons stay clean; hot_overlap redirects that fraction of hot
    accesses to a window shared by every core.
    """
    arguments = dict(locals())
    for name, problem in kind_problems(field_kinds(gen_synthetic_trace),
                                       arguments):
        raise ValueError(f"{name} {problem}")
    problem = hot_window_problem(cores, hot_set_bytes, hot_overlap)
    if problem:
        raise ValueError(f"hot_set_bytes {problem}")
    return sorted(chain.from_iterable(core_streams(**arguments)),
                  key=lambda r: (r.tick, r.core))


def core_streams(cores: int, length: int, hot_fraction: float,
                 hot_set_bytes: int, seed: int, read_fraction: float,
                 access_size: int, tick_interval: int,
                 hot_overlap: float) -> list[Iterator[TraceRecord]]:
    """One generator per core of the records `gen_synthetic_trace` gives
    it, in tick order, each drawing from the core's own substream only as
    it is advanced. Nothing here checks the arguments: they must keep the
    rules `gen_synthetic_trace` checks."""
    shared_base = cores * hot_set_bytes

    def records(core: int) -> Iterator[TraceRecord]:
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
            yield TraceRecord(i * tick_interval, core, op, addr, access_size)

    return [records(core) for core in range(cores)]


def gen_message_traffic(clusters: ClusterCount, cycles: Count = 1000,
                        rate: Probability = 0.002, payload_bytes: Size = 64,
                        *, seed: int) -> list[MessageRecord]:
    """Bernoulli message injection: each cluster independently injects with
    probability `rate` per cycle to a uniformly chosen other cluster."""
    for name, problem in kind_problems(field_kinds(gen_message_traffic),
                                       locals()):
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
