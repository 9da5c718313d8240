"""Latency statistics, the per-level energy roll-up, the per-tier power
density proxy, and JSON report emission.

The report is self-recomputing: it carries every counter, capacity and
technology name needed to rebuild the energy totals offline from the
published energy equation. meta.timestamp is the only nondeterministic
field a run ever writes.
"""

from __future__ import annotations

import json
import operator
import time
from array import array
from collections import Counter
from functools import reduce
from typing import Iterable, Iterator, TextIO

from .memtech import (AccessCounters, TechnologyParams, catalog_with_overrides,
                      level_energy)


class LatencyLog:
    """One latency sample per request, in the order they are appended, kept
    as two int64 columns: request i started at `starts[i]` and completed at
    `ends[i]`, in ps. A sample takes 16 bytes, where a `(start, end)` tuple
    in a list takes about 120."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")

    def append(self, start_ps: int, end_ps: int) -> None:
        self.starts.append(start_ps)
        self.ends.append(end_ps)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.starts, self.ends)


def summarize_latency(samples: Iterable[int], bucket_width: int = 1000) -> dict:
    """Count, mean, nearest-rank p95, max and a fixed-width histogram of samples.

    The statistics come from an exact count of each value, walked in
    ascending order, so no sorted copy of the samples is built; the mean is
    the exact integer sum over the count. An empty sample set reports
    absent statistics, not zeros.
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be > 0")
    counts = Counter(samples)
    n = sum(counts.values())
    rank = -(-95 * n // 100)  # ceil(0.95 n), nearest-rank percentile
    histogram: dict[str, int] = {}
    total = seen = 0
    p95 = None
    values = sorted(counts)
    for value in values:
        count = counts[value]
        total += value * count
        seen += count
        if p95 is None and seen >= rank:
            p95 = value
        key = str(value // bucket_width)
        histogram[key] = histogram.get(key, 0) + count
    return {"count": n, "mean_ps": total / n if n else None, "p95_ps": p95,
            "max_ps": values[-1] if n else None,
            "bucket_width_ps": bucket_width, "histogram": histogram}


def float_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, the same on every Python: from 3.12 on, `sum`
    compensates float rounding, which would move report bytes."""
    return reduce(operator.add, values, 0)


def tier_power_density(energy_nj: float, duration_ns: float, area_units: float) -> float:
    """Average power per unit of SRAM-equivalent area, in mW per unit."""
    if duration_ns <= 0:
        raise ValueError("duration must be > 0")
    if area_units <= 0:
        raise ValueError("area must be > 0")
    # nJ / ns = W; scale to mW.
    return 1000.0 * energy_nj / duration_ns / area_units


def regions_energy(regions: Iterable[tuple[TechnologyParams, float, int, int]],
                   idle_ns: float, write_mix: float) -> float:
    """Energy in nJ of a cache array from its technology regions, each given
    as (technology, capacity in MiB, reads, writes), summed in order; every
    region idles for idle_ns. The simulator charges each array this way,
    and the report check rebuilds each level the same way."""
    return float_sum(level_energy(AccessCounters(n_read, n_write, idle_ns), params,
                                  capacity_mib, write_mix)
                     for params, capacity_mib, n_read, n_write in regions)


def recompute_level_energy(level_report: dict,
                           catalog: dict[str, TechnologyParams],
                           write_mix: float) -> float:
    """Rebuild a level's energy from its own reported counters (the offline
    conservation check)."""
    return regions_energy(((catalog[r["tech"]], r["capacity_mib"], r["n_read"],
                            r["n_write"]) for r in level_report["regions"]),
                          level_report["idle_ns"], write_mix)


class ReportError(RuntimeError):
    pass


def _close(a: float, b: float) -> bool:
    """Equal within 1e-9 relative, for sums of floats taken in another order."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def check_report_invariants(report: dict) -> None:
    """Internal consistency: counter balance, each level's energy rebuilt
    from its own counters with the catalog and write mix the report names,
    busy plus idle time, energy conservation across levels and tiers,
    packet conservation, latency counts against what completed, and bus
    grant totals. Raises ReportError on the first failure."""
    meta = report["meta"]
    catalog = catalog_with_overrides(meta["config"].get("tech_overrides"))
    write_mix = report["energy"]["write_mix"]
    duration_ns = meta["duration_ps"] / 1000.0
    total = 0.0
    for name, level in report["levels"].items():
        if level["hits"] + level["misses"] != level["n_read"] + level["n_write"]:
            raise ReportError(f"{name}: hits+misses != n_read+n_write")
        for key in ("n_read", "n_write"):
            if sum(region[key] for region in level["regions"]) != level[key]:
                raise ReportError(f"{name}: regions' {key} do not sum to the level's")
        if not _close(level["busy_ns"] + level["idle_ns"],
                      level["instances"] * duration_ns):
            raise ReportError(f"{name}: busy_ns + idle_ns != instances * duration")
        if not _close(recompute_level_energy(level, catalog, write_mix),
                      level["energy_nj"]):
            raise ReportError(f"{name}: energy_nj does not recompute from its counters")
        total += level["energy_nj"]
    if abs(total - report["energy"]["total_nj"]) > 1e-9 * max(1.0, abs(total)):
        raise ReportError("energy total does not equal the per-level sum")
    if not _close(sum(tier["energy_nj"] for tier in report["tiers"]),
                  report["energy"]["total_nj"]):
        raise ReportError("tiers' energy_nj do not sum to the energy total")
    noc = report["interconnect"]["noc"]
    if noc["injected"] != noc["delivered"] + noc["in_flight"]:
        raise ReportError("packet conservation violated")
    latency = report["latency"]
    if latency["msg"]["count"] != noc["delivered"]:
        raise ReportError("latency.msg.count != interconnect.noc.delivered")
    if latency["mem"]["count"] > meta["trace_records"]:
        raise ReportError("latency.mem.count > meta.trace_records")
    for klass, stats in latency.items():
        if sum(stats["histogram"].values()) != stats["count"]:
            raise ReportError(f"latency.{klass}: histogram does not sum to count")
        if stats["p95_ps"] is not None and stats["p95_ps"] > stats["max_ps"]:
            raise ReportError(f"latency.{klass}: p95_ps > max_ps")
    bus = report["interconnect"]["bus"]
    if bus["total_grants"] != (bus["request_grants"] + bus["response_grants"]
                               + bus["snoop_grants"]):
        raise ReportError("bus total_grants != the sum of its channels' grants")


def emit_report(report: dict, fh: TextIO) -> None:
    """Write the report to `fh` as JSON with stable key order; only
    meta.timestamp varies between identical runs."""
    out = dict(report)
    out["meta"] = dict(report.get("meta", {}))
    out["meta"]["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    json.dump(out, fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_latency_csv(rows: Iterable[tuple[str, int, int]], fh: TextIO) -> None:
    """Per-sample dump to `fh` for external plotting:
    class,t_inject_ps,t_complete_ps."""
    fh.write("class,t_inject_ps,t_complete_ps\n")
    for klass, t0, t1 in rows:
        fh.write(f"{klass},{t0},{t1}\n")
