"""Latency statistics, the per-level energy roll-up, the per-tier power
density proxy, the report of per-cluster snapshots, and its JSON emission.

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

from .memtech import (AccessCounters, TechnologyParams, area_estimate,
                      catalog_with_overrides, level_energy)

# The counters a level's report entry sums over its arrays' snapshots; its
# n_read, n_write and misses follow from the regions' counts and the hits.
LEVEL_COUNTERS = ("hits", "fills", "evictions", "writebacks", "invalidations")


class LatencyLog:
    """One latency sample per request, kept as two int64 columns to which
    each sample's start and then its end are appended: request i started at
    `starts[i]` and completed at `ends[i]`, in ps. A sample takes 16 bytes,
    where a `(start, end)` tuple in a list takes about 120."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.starts, self.ends)


def summarize_latency(samples: Iterable[int], bucket_width: int = 1000) -> dict:
    """Count, mean, nearest-rank p95, max and a fixed-width histogram of
    samples, given as the values or as a Counter of them.

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
    region idles for idle_ns. `build_report` charges each array this way,
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


def _wear_summary(levels: list[dict], worn_key: str) -> dict:
    """Wear over several arrays' snapshots: the highest write count, the
    summed worn lines under `worn_key` and again as wear events (a line
    wears out once), and the earliest first wear (None if none)."""
    firsts = [lv["first_wear_time_ps"] for lv in levels
              if lv["first_wear_time_ps"] is not None]
    worn = sum(lv["worn_lines"] for lv in levels)
    return {"max_write_count": max((lv["max_write_count"] for lv in levels), default=0),
            worn_key: worn, "wear_events": worn,
            "first_wear_time_ps": min(firsts, default=None)}


def build_report(spec, seed: int, trace_records: int,
                 clusters: list[dict], noc: dict, mem_latencies: Counter,
                 msg_latencies: Counter) -> dict:
    """The report of a run, from plain values alone: the `SystemSpec` and
    seed it ran, the trace records it loaded, each cluster's
    `Cluster.snapshot()` in cluster order, the mesh's `now`, `injected`,
    `delivered` and `in_flight`, and a Counter each of memory and message
    latencies in ps. Arrays of one name, and each tier's energy, are summed
    in cluster order and then in `levels` order, so every float adds in
    one order."""
    duration_ps = max([noc["now"], *(c["now"] for c in clusters)])
    duration_ns = duration_ps / 1000.0
    catalog, write_mix = spec.catalog, spec.write_mix
    all_levels = [lv for c in clusters for lv in c["levels"]]
    by_name: dict[str, list[dict]] = {}
    for level in all_levels:
        by_name.setdefault(level["name"], []).append(level)

    levels: dict[str, dict] = {}
    tier_energy = dict.fromkeys(range(len(spec.tier_stack)), 0.0)
    tier_area = dict(tier_energy)
    for name, arrays in by_name.items():
        ref = arrays[0]
        area = float_sum(area_estimate(mib, catalog[tech])
                         for tech, mib, _, _ in ref["regions"])
        # Fire-and-forget write-backs may book service slightly past the last
        # dispatched event; clamp so busy + idle = duration holds exactly.
        busy = [min(lv["busy_ps"] / 1000.0, duration_ns) for lv in arrays]
        energies = [regions_energy(((catalog[tech], mib, n_read, n_write)
                                    for tech, mib, n_read, n_write in lv["regions"]),
                                   duration_ns - b, write_mix)
                    for lv, b in zip(arrays, busy)]
        for level, energy in zip(arrays, energies):
            tier_energy[level["tier"]] += energy
            tier_area[level["tier"]] += area
        regions = [{"tech": tech, "capacity_mib": mib,
                    "n_read": sum(lv["regions"][r][2] for lv in arrays),
                    "n_write": sum(lv["regions"][r][3] for lv in arrays)}
                   for r, (tech, mib, _, _) in enumerate(ref["regions"])]
        n_read = sum(region["n_read"] for region in regions)
        n_write = sum(region["n_write"] for region in regions)
        counts = {c: sum(lv[c] for lv in arrays) for c in LEVEL_COUNTERS}
        lat_n = sum(lv["hit_latency_samples"] for lv in arrays)
        levels[name] = {
            "instances": len(arrays),
            "tech": ref["tech"],
            "capacity_mib_per_instance": ref["capacity_mib"],
            "n_read": n_read, "n_write": n_write,
            "misses": n_read + n_write - counts["hits"], **counts,
            "busy_ns": float_sum(busy),
            "idle_ns": float_sum(duration_ns - b for b in busy),
            "energy_nj": float_sum(energies),
            "mean_hit_latency_ps": (
                sum(lv["hit_latency_sum_ps"] for lv in arrays) / lat_n
                if lat_n else None),
            "wear": _wear_summary(arrays, "worn_lines"),
            "regions": regions,
        }

    tiers = [{"index": tier, "kind": kind, "area_units": tier_area[tier],
              "energy_nj": tier_energy[tier],
              "power_density_mw_per_unit": (
                  tier_power_density(tier_energy[tier], duration_ns, tier_area[tier])
                  if tier_area[tier] > 0 and duration_ns > 0 else None)}
             for tier, kind in enumerate(spec.tier_stack)]

    bus = {key: sum(c["bus"][key] for c in clusters) for key in clusters[0]["bus"]}
    bus["total_grants"] = sum(bus.values())
    bucket = spec.report.histogram_bucket_ps
    return {
        "meta": {"seed": seed, "duration_ps": duration_ps, "config": spec.raw,
                 "trace_records": trace_records, "messages": noc["injected"]},
        "levels": levels,
        "energy": {"total_nj": float_sum(lv["energy_nj"] for lv in levels.values()),
                   "per_level_nj": {name: lv["energy_nj"] for name, lv in levels.items()},
                   "write_mix": write_mix, "standby_power_is_configurable": True},
        "latency": {"mem": summarize_latency(mem_latencies, bucket),
                    "msg": summarize_latency(msg_latencies, bucket)},
        "endurance": _wear_summary(all_levels, "worn_blocks"),
        "tiers": tiers,
        "interconnect": {
            "bus": bus,
            "noc": {key: noc[key] for key in ("injected", "delivered", "in_flight")},
            "memory_controllers": {key: sum(c["memory_controller"][key] for c in clusters)
                                   for key in ("reads", "writes")}},
    }


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
