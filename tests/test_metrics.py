import copy
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from tiersim.arch import preset
from tiersim.cli import run_experiment
from tiersim.memtech import catalog_default
from tiersim.metrics import (LatencyLog, ReportError,
                             check_report_invariants, emit_report,
                             recompute_level_energy, summarize_latency,
                             tier_power_density, write_latency_csv)


def test_summary_mean_and_max():
    stats = summarize_latency([10, 20, 30])
    assert stats["mean_ps"] == 20
    assert stats["max_ps"] == 30
    assert stats["count"] == 3


def test_nearest_rank_p95():
    stats = summarize_latency(list(range(1, 21)))
    assert stats["p95_ps"] == 19  # ceil(0.95 * 20) = 19th order statistic
    stats = summarize_latency(list(range(1, 101)))
    assert stats["p95_ps"] == 95


def test_singleton_sample():
    stats = summarize_latency([42])
    assert stats["mean_ps"] == stats["p95_ps"] == stats["max_ps"] == 42


def test_empty_samples_reported_absent_not_zero():
    stats = summarize_latency([])
    assert stats["count"] == 0
    assert stats["mean_ps"] is None
    assert stats["p95_ps"] is None
    assert stats["max_ps"] is None
    assert stats["histogram"] == {}


def test_histogram_buckets():
    stats = summarize_latency([0, 999, 1000, 2500], bucket_width=1000)
    assert stats["histogram"] == {"0": 2, "1": 1, "2": 1}
    with pytest.raises(ValueError):
        summarize_latency([1], bucket_width=0)


def reference_summary(samples: list[int], bucket_width: int) -> dict:
    """The report's summary straight from a sorted copy of the samples: the
    mean of the list, its ceil(0.95 n)-th element and its last one."""
    if not samples:
        return {"count": 0, "mean_ps": None, "p95_ps": None, "max_ps": None,
                "bucket_width_ps": bucket_width, "histogram": {}}
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-95 * n // 100)
    histogram: dict[str, int] = {}
    for s in ordered:
        key = str(s // bucket_width)
        histogram[key] = histogram.get(key, 0) + 1
    return {"count": n, "mean_ps": sum(ordered) / n,
            "p95_ps": ordered[rank - 1], "max_ps": ordered[-1],
            "bucket_width_ps": bucket_width, "histogram": histogram}


@st.composite
def latency_samples(draw):
    """Samples with many ties (drawn from a small pool of values, so the
    p95 rank often falls inside a run of equal values), values on and
    either side of bucket edges, and values large enough that the mean
    needs the exact integer sum."""
    bucket_width = draw(st.sampled_from([1, 7, 1000]))
    edge = st.integers(0, 50).flatmap(
        lambda k: st.sampled_from([k * bucket_width + d for d in (-1, 0, 1)
                                   if k * bucket_width + d >= 0]))
    value = st.one_of(edge, st.integers(0, 10**6), st.integers(2**52, 2**62))
    pool = draw(st.lists(value, min_size=1, max_size=5))
    samples = draw(st.lists(st.one_of(st.sampled_from(pool), value), max_size=80))
    return samples, bucket_width


@settings(max_examples=300, deadline=None)
@given(case=latency_samples())
@example(case=([], 1000))
@example(case=([1000], 1000))
@example(case=([5] * 19 + [9], 1000))        # p95 is the last of a 19-way tie
@example(case=([999, 1000, 1000, 2000], 1000))
def test_summarize_latency_matches_the_sorted_list_property(case):
    samples, bucket_width = case
    got = summarize_latency(iter(samples), bucket_width)
    want = reference_summary(samples, bucket_width)
    assert list(got.items()) == list(want.items())   # in the report's order
    assert repr(got["mean_ps"]) == repr(want["mean_ps"])   # bit for bit


def test_latency_log_keeps_pairs_in_append_order():
    log = LatencyLog()
    pairs = [(5, 9), (0, 12), (5, 5), (2**62, 2**62 + 3)]
    for t0, t1 in pairs:
        log.starts.append(t0)
        log.ends.append(t1)
    assert len(log) == 4
    assert list(log) == pairs
    assert (log.starts.itemsize, log.ends.itemsize) == (8, 8)


def test_tier_power_density_example():
    assert tier_power_density(1000.0, 1e6, 2.0) == 0.5
    assert tier_power_density(0.0, 1e6, 2.0) == 0.0
    assert tier_power_density(1000.0, 1e6, 4.0) == 0.25  # doubling area halves it


def test_tier_power_density_domain_errors():
    with pytest.raises(ValueError):
        tier_power_density(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        tier_power_density(1.0, 1.0, 0.0)


def test_recompute_level_energy_matches_closed_form():
    level_report = {
        "busy_ns": 0.0,
        "idle_ns": 1e6,
        "regions": [{"tech": "SRAM", "capacity_mib": 1.0,
                     "n_read": 1000, "n_write": 500}],
    }
    got = recompute_level_energy(level_report, catalog_default(), write_mix=0.5)
    # 1000*0.45 + 500*0.75 + 1e6*1.0mW*1MiB*1e-3
    assert got == pytest.approx(450 + 375 + 1000)


def _latency_block(count, p95, max_ps, histogram):
    return {"count": count, "mean_ps": None if count == 0 else 1.0,
            "p95_ps": p95, "max_ps": max_ps, "bucket_width_ps": 1000,
            "histogram": histogram}


def _tiny_report():
    # One SRAM array busy for the whole 1 ns run: 7 reads at 0.45 nJ and 3
    # writes at 0.75 nJ, no idle standby.
    return {
        "meta": {"trace_records": 4, "duration_ps": 1000, "config": {}},
        "levels": {
            "l1d": {"hits": 6, "misses": 4, "n_read": 7, "n_write": 3,
                    "instances": 1, "busy_ns": 1.0, "idle_ns": 0.0,
                    "energy_nj": 5.4,
                    "regions": [{"tech": "SRAM", "capacity_mib": 0.03125,
                                 "n_read": 7, "n_write": 3}]},
        },
        "energy": {"total_nj": 5.4, "write_mix": 0.5},
        "tiers": [{"index": 0, "energy_nj": 5.4}],
        "latency": {"mem": _latency_block(3, 1500, 1500, {"0": 2, "1": 1}),
                    "msg": _latency_block(2, 2100, 2200, {"2": 2})},
        "interconnect": {
            "bus": {"request_grants": 3, "response_grants": 2,
                    "snoop_grants": 1, "total_grants": 6},
            "noc": {"injected": 3, "delivered": 2, "in_flight": 1}},
    }


def test_check_report_invariants_pass_and_fail():
    check_report_invariants(_tiny_report())
    bad = _tiny_report()
    bad["levels"]["l1d"]["hits"] = 5
    with pytest.raises(ReportError):
        check_report_invariants(bad)
    bad = _tiny_report()
    bad["energy"]["total_nj"] = 6.0
    with pytest.raises(ReportError):
        check_report_invariants(bad)
    bad = _tiny_report()
    bad["interconnect"]["noc"]["in_flight"] = 0
    with pytest.raises(ReportError):
        check_report_invariants(bad)


def _set(report, path, value):
    *parents, leaf = path
    for key in parents:
        report = report[key]
    report[leaf] = value


@pytest.mark.parametrize("path, value, message", [
    (("latency", "msg", "count"), 1, r"latency\.msg\.count != interconnect"),
    (("meta", "trace_records"), 2, r"latency\.mem\.count > meta\.trace_records"),
    (("latency", "mem", "histogram", "1"), 2, r"latency\.mem: histogram does not sum"),
    (("latency", "msg", "p95_ps"), 2300, r"latency\.msg: p95_ps > max_ps"),
    (("interconnect", "bus", "total_grants"), 7, "bus total_grants"),
])
def test_check_report_invariants_latency_and_bus(path, value, message):
    report = _tiny_report()
    _set(report, path, value)
    with pytest.raises(ReportError, match=message):
        check_report_invariants(report)


@pytest.fixture(scope="module")
def hybrid_report(tmp_path_factory):
    # Two clusters, a shared L2 split into SRAM and PCRAM ways, and a PCRAM
    # read energy that only the config's tech_overrides gives.
    cfg = preset("fig34")
    cfg["cluster_grid"] = [2, 1]
    cfg["cores_per_cluster"] = 2
    cfg["caches"]["l1d"]["capacity"] = 1024
    cfg["caches"]["l2"].update(capacity=16384, regions=[
        {"ways": [0, 4], "tech": "SRAM"}, {"ways": [4, 16], "tech": "PCRAM"}])
    cfg["tech_overrides"] = {"PCRAM": {"read_energy": 0.9}}
    cfg["write_mix"] = 0.3
    cfg["workload"] = {"synthetic": {"length": 300, "hot_fraction": 0.9,
                                     "hot_set_bytes": 8192, "tick_interval": 2}}
    out = tmp_path_factory.mktemp("report") / "report.json"
    return run_experiment(cfg, seed=0, out_path=str(out))


def test_real_report_passes_and_recomputes_with_its_own_catalog(hybrid_report):
    check_report_invariants(hybrid_report)
    l2 = hybrid_report["levels"]["l2"]
    assert [r["n_read"] > 0 for r in l2["regions"]] == [True, True]
    # The default catalog's PCRAM read energy does not rebuild the level.
    default = recompute_level_energy(l2, catalog_default(), 0.3)
    assert abs(default - l2["energy_nj"]) > 1e-6 * l2["energy_nj"]


@pytest.mark.parametrize("path, change, message", [
    (("levels", "l2", "energy_nj"), lambda v: v * (1 + 1e-8),
     "l2: energy_nj does not recompute"),
    (("energy", "write_mix"), lambda v: v + 0.1, "l2: energy_nj does not recompute"),
    (("levels", "l2", "regions", 1, "n_read"), lambda v: v + 1,
     "l2: regions' n_read do not sum"),
    (("levels", "l1d", "regions", 0, "n_write"), lambda v: v - 1,
     "l1d: regions' n_write do not sum"),
    (("levels", "l1d", "busy_ns"), lambda v: v + 1.0,
     r"l1d: busy_ns \+ idle_ns != instances \* duration"),
    (("levels", "l2", "idle_ns"), lambda v: v * (1 - 1e-8),
     r"l2: busy_ns \+ idle_ns"),
    (("tiers", 1, "energy_nj"), lambda v: v + 1e-3,
     "tiers' energy_nj do not sum to the energy total"),
])
def test_check_report_invariants_catch_a_corrupted_real_report(
        hybrid_report, path, change, message):
    report = copy.deepcopy(hybrid_report)
    *parents, leaf = path
    node = report
    for key in parents:
        node = node[key]
    node[leaf] = change(node[leaf])
    with pytest.raises(ReportError, match=message):
        check_report_invariants(report)


def test_check_report_invariants_accept_empty_latency_blocks():
    report = _tiny_report()
    report["meta"]["trace_records"] = 0
    report["latency"]["mem"] = _latency_block(0, None, None, {})
    report["interconnect"]["noc"].update(injected=0, delivered=0, in_flight=0)
    report["latency"]["msg"] = _latency_block(0, None, None, {})
    check_report_invariants(report)


def test_emit_report_stable_except_timestamp():
    report = _tiny_report()
    a, b = io.StringIO(), io.StringIO()
    emit_report(report, a)
    emit_report(report, b)
    da = json.loads(a.getvalue())
    db = json.loads(b.getvalue())
    da["meta"].pop("timestamp")
    db["meta"].pop("timestamp")
    assert da == db
    lines_a = [l for l in a.getvalue().splitlines() if "timestamp" not in l]
    lines_b = [l for l in b.getvalue().splitlines() if "timestamp" not in l]
    assert lines_a == lines_b


def test_latency_csv_format():
    out = io.StringIO()
    write_latency_csv([("mem", 0, 10), ("msg", 5, 25)], out)
    assert out.getvalue() == "class,t_inject_ps,t_complete_ps\nmem,0,10\nmsg,5,25\n"
