"""Latency statistics, the per-level energy roll-up, the per-tier power
density proxy, and JSON report emission.

The report is self-recomputing: it carries every counter, capacity and
technology name needed to rebuild the energy totals offline from the
published energy equation. meta.timestamp is the only nondeterministic
field a run ever writes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .memtech import AccessCounters, TechnologyParams, level_energy


@dataclass
class LatencyStats:
    count: int
    mean: float | None
    p95: int | None
    max: int | None
    histogram: dict[str, int]
    bucket_width: int

    def to_dict(self) -> dict:
        return {"count": self.count, "mean_ps": self.mean, "p95_ps": self.p95,
                "max_ps": self.max, "bucket_width_ps": self.bucket_width,
                "histogram": self.histogram}


def summarize_latency(samples: list[int], bucket_width: int = 1000) -> LatencyStats:
    """Mean, nearest-rank p95, max and a fixed-width histogram of samples.

    An empty sample set reports absent statistics, not zeros.
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be > 0")
    if not samples:
        return LatencyStats(0, None, None, None, {}, bucket_width)
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-95 * n // 100)  # ceil(0.95 n), nearest-rank percentile
    histogram: dict[str, int] = {}
    for s in ordered:
        key = str(s // bucket_width)
        histogram[key] = histogram.get(key, 0) + 1
    return LatencyStats(
        count=n,
        mean=sum(ordered) / n,
        p95=ordered[rank - 1],
        max=ordered[-1],
        histogram=histogram,
        bucket_width=bucket_width,
    )


def tier_power_density(energy_nj: float, duration_ns: float, area_units: float) -> float:
    """Average power per unit of SRAM-equivalent area, in mW per unit."""
    if duration_ns <= 0:
        raise ValueError("duration must be > 0")
    if area_units <= 0:
        raise ValueError("area must be > 0")
    # nJ / ns = W; scale to mW.
    return 1000.0 * energy_nj / duration_ns / area_units


def recompute_level_energy(level_report: dict,
                           catalog: dict[str, TechnologyParams],
                           write_mix: float) -> float:
    """Rebuild a level's energy from its own reported counters (the offline
    conservation check)."""
    total = 0.0
    for region in level_report["regions"]:
        params = catalog[region["tech"]]
        counters = AccessCounters(
            n_read=region["n_read"], n_write=region["n_write"],
            idle_time=level_report["idle_ns"])
        total += level_energy(counters, params, region["capacity_mib"], write_mix)
    return total


class ReportError(RuntimeError):
    pass


def check_report_invariants(report: dict) -> None:
    """Internal consistency: energy conservation, counter balance, packet
    conservation. Raises ReportError on the first failure."""
    total = 0.0
    for name, level in report["levels"].items():
        if level["hits"] + level["misses"] != level["n_read"] + level["n_write"]:
            raise ReportError(f"{name}: hits+misses != n_read+n_write")
        total += level["energy_nj"]
    if abs(total - report["energy"]["total_nj"]) > 1e-9 * max(1.0, abs(total)):
        raise ReportError("energy total does not equal the per-level sum")
    noc = report["interconnect"]["noc"]
    if noc["injected"] != noc["delivered"] + noc["in_flight"]:
        raise ReportError("packet conservation violated")


def emit_report(report: dict, path: str) -> None:
    """Write the report as JSON with stable key order; only meta.timestamp
    varies between identical runs."""
    out = dict(report)
    out["meta"] = dict(report.get("meta", {}))
    out["meta"]["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_latency_csv(rows: list[tuple[str, int, int]], path: str) -> None:
    """Per-sample dump for external plotting: class,t_inject_ps,t_complete_ps."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("class,t_inject_ps,t_complete_ps\n")
        for klass, t0, t1 in rows:
            fh.write(f"{klass},{t0},{t1}\n")
