import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from oracles import check_coherence, replay_data_log

from tiersim.arch import preset, spec_from_dict, validate_spec
from tiersim.system import LEVEL_COUNTERS, System
from tiersim.workload import (MessageRecord, TraceRecord, gen_message_traffic,
                               gen_synthetic_trace)


def small_cfg(**overrides):
    cfg = {
        "cluster_grid": [1, 1],
        "cores_per_cluster": 4,
        "tier_stack": ["cores_l1", "l2_split_id"],
        "caches": {
            "l1i": {"capacity": 2048, "block_size": 64, "associativity": 2,
                    "tech": "SRAM"},
            "l1d": {"capacity": 2048, "block_size": 64, "associativity": 2,
                    "tech": "SRAM"},
            "l2": {"capacity": 16384, "block_size": 64, "associativity": 4,
                   "tech": "SRAM"},
        },
    }
    cfg.update(overrides)
    return cfg


def build(cfg, seed=0, record_log=False):
    spec = spec_from_dict(cfg)
    assert validate_spec(spec) == []
    return System(spec, seed=seed, record_log=record_log)


def shared_random_trace(cores, n, blocks, seed, write_p=0.4):
    rng = random.Random(seed)
    ticks = [0] * cores
    records = []
    for _ in range(n):
        core = rng.randrange(cores)
        ticks[core] += rng.randrange(3)
        records.append(TraceRecord(
            ticks[core], core, "W" if rng.random() < write_p else "R",
            rng.randrange(blocks) * 64 + 8 * rng.randrange(8), 8))
    records.sort(key=lambda r: (r.tick, r.core))
    return records


def test_counter_balance_every_level():
    system = build(small_cfg())
    system.load_trace(shared_random_trace(4, 5000, 64, seed=5))
    system.run()
    report = system.build_report()
    for name, level in report["levels"].items():
        assert level["hits"] + level["misses"] == level["n_read"] + level["n_write"], name


def test_busy_plus_idle_covers_simulated_time():
    system = build(small_cfg())
    system.load_trace(shared_random_trace(4, 5000, 64, seed=5))
    system.run()
    report = system.build_report()
    duration_ns = report["meta"]["duration_ps"] / 1000.0
    for name, level in report["levels"].items():
        total = level["busy_ns"] + level["idle_ns"]
        assert total == pytest.approx(duration_ns * level["instances"]), name


def test_evictions_do_not_exceed_fills():
    system = build(small_cfg())
    system.load_trace(shared_random_trace(4, 5000, 256, seed=8))
    system.run()
    report = system.build_report()
    for name, level in report["levels"].items():
        assert level["evictions"] <= level["fills"], name


def test_norma_clusters_never_share_data():
    cfg = small_cfg(cluster_grid=[2, 1], cores_per_cluster=2)
    system = build(cfg, record_log=True)
    # same physical address written in both clusters: distinct backing stores
    records = [
        TraceRecord(0, 0, "W", 0x1000, 8),   # cluster 0
        TraceRecord(1, 2, "W", 0x1000, 8),   # cluster 1
        TraceRecord(10, 0, "R", 0x1000, 8),
        TraceRecord(11, 2, "R", 0x1000, 8),
    ]
    system.load_trace(records)
    system.run()
    assert replay_data_log(system) == 2
    # the clusters wrote different values, so each read its own cluster's
    assert len({value for kind, _, _, value in system.data_log
                if kind == "w"}) == 2
    assert len({id(c.memory) for c in system.clusters}) == 2


def test_cluster_memory_isolation_by_construction():
    system = build(small_cfg(cluster_grid=[2, 2], cores_per_cluster=2))
    stores = {id(c.memory) for c in system.clusters}
    assert len(stores) == len(system.clusters)
    ctrls = {id(c.memctrl) for c in system.clusters}
    assert len(ctrls) == len(system.clusters)


def _independence_fig36() -> dict:
    cfg = preset("fig36")
    cfg["workload"]["synthetic"]["length"] = 150
    return cfg


def _independence_distributed() -> dict:
    # Two clusters whose cores send half their hot accesses to a window they
    # share and write half the time, over private L2s: snoops, supplies,
    # invalidations and spills.
    cfg = preset("fig35b")
    cfg["cluster_grid"] = [2, 1]
    cfg["cores_per_cluster"] = 4
    cfg["caches"]["l1d"]["capacity"] = 1024
    cfg["caches"]["l2"].update(capacity=4096, associativity=4,
                               topology="distributed")
    cfg["workload"] = {
        "synthetic": {"length": 300, "hot_fraction": 0.95, "hot_set_bytes": 4096,
                      "hot_overlap": 0.5, "read_fraction": 0.5, "tick_interval": 3},
        "message_synthetic": {"cycles": 2000, "rate": 0.01, "payload_bytes": 64}}
    return cfg


def _cluster_state(cluster) -> tuple:
    """Everything a cluster's part of a run leaves in its arrays, bus
    channels, memory controller and snoop filter."""
    def booked(resource):
        return resource.busy_ps, resource.grants, resource.free_at_ps

    arrays = [a for s in cluster.stacks for a in (s.l1i, s.l1d, s.l2_private)
              if a is not None]
    arrays += [*cluster.l2_homes, *cluster.l2i.values()]
    arrays += [cluster.l3] if cluster.l3 is not None else []
    bus = cluster.bus
    return ([(*(getattr(a, c) for c in LEVEL_COUNTERS), a.region_reads,
              a.region_writes, a.hit_latency_sum_ps, a.hit_latency_samples,
              a.worn_lines, a.max_write_count, booked(a.port)) for a in arrays],
            [booked(channel) for channel in (bus.request, bus.response, bus.snoop)],
            booked(cluster.memctrl.port), cluster.memctrl.writes,
            dict(cluster.holders))


@pytest.mark.parametrize("make_cfg", [_independence_fig36, _independence_distributed],
                         ids=["fig36", "distributed"])
def test_each_cluster_runs_alone_as_in_the_full_run(make_cfg):
    # Clusters share no state with each other or with the mesh, which is
    # what lets each run on its own queue: a cluster's records run alone
    # leave its state and its latency samples as the full run does, the
    # messages alone give the full run's message samples, and the full run
    # lasts as long as its longest part.
    cfg = make_cfg()
    spec = spec_from_dict(cfg)
    trace = gen_synthetic_trace(cores=spec.total_cores, seed=3,
                                **cfg["workload"]["synthetic"])
    messages = gen_message_traffic(clusters=spec.n_clusters, seed=3,
                                   **cfg["workload"]["message_synthetic"])
    full = build(cfg, seed=3)
    full.load_trace(trace)
    full.load_messages(messages)
    full.run()
    assert len(full.noc.msg_samples) == len(messages) > 0
    # System.run runs the clusters one after another, so each cluster's
    # samples are one stretch of the full run's log, in cluster order.
    full_samples = list(full.mem_samples)
    per_cluster = spec.cores_per_cluster_total
    ends = []
    for cluster in full.clusters:
        alone = build(cfg, seed=3)
        alone.load_trace([r for r in trace
                          if r.core // per_cluster == cluster.index])
        alone.run()
        assert (_cluster_state(alone.clusters[cluster.index])
                == _cluster_state(cluster)), cluster.index
        n = len(alone.mem_samples)
        assert n == len(trace) // spec.n_clusters
        assert Counter(alone.mem_samples) == Counter(full_samples[:n])
        del full_samples[:n]
        ends.append(alone.build_report()["meta"]["duration_ps"])
    assert full_samples == []
    mesh = build(cfg, seed=3)
    mesh.load_messages(messages)
    mesh.run()
    assert list(mesh.noc.msg_samples) == list(full.noc.msg_samples)
    ends.append(mesh.build_report()["meta"]["duration_ps"])
    assert full.build_report()["meta"]["duration_ps"] == max(ends)


def test_writeback_reaches_backing_store():
    cfg = small_cfg()
    cfg["caches"]["l1d"] = {"capacity": 128, "block_size": 64,
                            "associativity": 1, "tech": "SRAM"}
    cfg["caches"]["l2"] = {"capacity": 128, "block_size": 64,
                           "associativity": 1, "tech": "SRAM"}
    # the backing store holds values only while the data log is on
    system = build(cfg, record_log=True)
    # write block 0, then march over conflicting blocks to flush it out
    records = [TraceRecord(0, 0, "W", 0x0, 8)]
    for i in range(1, 6):
        records.append(TraceRecord(i, 0, "R", i * 128, 8))
    system.load_trace(records)
    system.run()
    block = system.clusters[0].memory.read_block(0x0)
    assert block[0] != 0


def test_l1_hit_is_bus_free():
    system = build(small_cfg())
    records = [TraceRecord(0, 0, "R", 0x40, 8),
               TraceRecord(100, 0, "R", 0x40, 8),
               TraceRecord(200, 0, "R", 0x40, 8)]
    system.load_trace(records)
    system.run()
    report = system.build_report()
    assert report["levels"]["l1d"]["hits"] == 2
    # one miss: request + response (+ snoop broadcast); hits add nothing
    assert report["interconnect"]["bus"]["request_grants"] == 1
    assert report["interconnect"]["bus"]["response_grants"] == 1


def test_read_and_write_hit_latencies_follow_technology():
    cfg = small_cfg()
    cfg["caches"]["l1d"]["tech"] = "PCRAM"
    system = build(cfg)
    records = [TraceRecord(0, 0, "R", 0x40, 8),
               TraceRecord(1000, 0, "R", 0x40, 8),
               TraceRecord(2000, 0, "W", 0x40, 8)]
    system.load_trace(records)
    system.run()
    samples = [t1 - t0 for t0, t1 in system.mem_samples]
    # PCRAM read 4 ns -> 4 cycles; write mix 0.5*105 + 0.5*43 = 74 ns
    assert samples[1] == 4000
    assert samples[2] == 74000


def test_tsv_distance_charged_per_tier():
    def l2_hit_latency(tsv_latency):
        cfg = small_cfg()
        cfg["noc"] = {"tsv_latency": tsv_latency}
        cfg["caches"]["l1d"] = {"capacity": 2048, "block_size": 64,
                                "associativity": 1, "tech": "SRAM"}
        system = build(cfg)
        records = [TraceRecord(0, 0, "R", 0x40, 8),       # miss, fills L1+L2
                   TraceRecord(1000, 0, "R", 0x2040, 8),  # evicts L1 copy
                   TraceRecord(2000, 0, "R", 0x40, 8)]    # L1 miss, L2 hit
        system.load_trace(records)
        system.run()
        t0, t1 = list(system.mem_samples)[2]
        return t1 - t0

    # the L2 tier is one TSV hop away; the miss path crosses down and back up
    assert l2_hit_latency(5) - l2_hit_latency(1) == 2 * 4 * 1000


def test_message_latency_reported_and_conserved():
    cfg = small_cfg(cluster_grid=[2, 2], cores_per_cluster=1)
    system = build(cfg)
    system.load_messages([MessageRecord(0, 0, 3, 64),
                          MessageRecord(5, 1, 2, 128)])
    system.run()
    report = system.build_report()
    noc = report["interconnect"]["noc"]
    assert noc["injected"] == noc["delivered"] == 2
    assert report["latency"]["msg"]["count"] == 2


def test_tied_messages_inject_in_record_order():
    """Injection order depends only on the ticks and, among equal ticks, on
    the order of the list: a shuffled list delivers exactly as the same
    list sorted stably by tick."""
    cfg = small_cfg(cluster_grid=[2, 2], cores_per_cluster=1)
    messages = gen_message_traffic(4, 40, 0.5, 64, seed=3)
    random.Random(5).shuffle(messages)
    in_tick_order = sorted(messages, key=lambda m: m.tick)
    assert in_tick_order != messages
    samples = []
    for records in (messages, in_tick_order):
        system = build(cfg)
        system.load_messages(records)
        system.run()
        samples.append(list(system.noc.msg_samples))
    assert samples[0] == samples[1]
    assert len(samples[0]) == len(messages)


def test_report_passes_schema_level_invariants():
    from tiersim.metrics import check_report_invariants
    system = build(small_cfg())
    system.load_trace(gen_synthetic_trace(4, 400, 0.9, 2048, seed=2))
    system.run()
    check_report_invariants(system.build_report())


def test_energy_recompute_roundtrip():
    from tiersim.metrics import recompute_level_energy
    system = build(small_cfg())
    system.load_trace(shared_random_trace(4, 3000, 64, seed=4))
    system.run()
    report = system.build_report()
    for name, level in report["levels"].items():
        again = recompute_level_energy(level, system.spec.catalog,
                                       report["energy"]["write_mix"])
        assert again == pytest.approx(level["energy_nj"], rel=1e-9), name


def test_trace_validation():
    system = build(small_cfg())
    with pytest.raises(Exception):
        system.load_trace([TraceRecord(0, 99, "R", 0, 8)])
    system = build(small_cfg())
    with pytest.raises(Exception):
        system.load_trace([TraceRecord(5, 0, "R", 0, 8),
                           TraceRecord(1, 0, "R", 0, 8)])
    system = build(small_cfg())
    with pytest.raises(Exception):
        system.load_trace([TraceRecord(0, 0, "R", 0, 128)])


def test_worn_l1_way_bypasses_but_stays_correct():
    cfg = small_cfg()
    cfg["caches"]["l1d"] = {"capacity": 64, "block_size": 64,
                            "associativity": 1, "tech": "PCRAM"}
    cfg["tech_overrides"] = {"PCRAM": {"endurance": 3}}
    system = build(cfg, record_log=True)
    records = [TraceRecord(i, 0, "W", 0x0, 8) for i in range(6)]
    records.append(TraceRecord(10, 0, "R", 0x0, 8))
    system.load_trace(records)
    system.run()
    assert replay_data_log(system) == 1
    report = system.build_report()
    assert report["levels"]["l1d"]["wear"]["worn_lines"] == 1


@pytest.mark.xfail(strict=True, reason="an L1d write hit that wears its line "
                   "out leaves the dirty words in the worn way, and nothing "
                   "writes them back; the fix moves report digests")
def test_write_hit_that_wears_the_line_keeps_its_data():
    # The fourth write passes the endurance of 3 on an L1d hit: the line
    # leaves the index still in M, so the read misses and fetches the stale
    # block from memory.
    cfg = small_cfg(cores_per_cluster=1)
    cfg["caches"]["l1d"] = {"capacity": 64, "block_size": 64,
                            "associativity": 1, "tech": "PCRAM"}
    cfg["tech_overrides"] = {"PCRAM": {"endurance": 3}}
    system = build(cfg, record_log=True)
    system.load_trace([TraceRecord(i, 0, "W", 0x0, 8) for i in range(4)]
                      + [TraceRecord(4, 0, "R", 0x0, 8)])
    system.run()
    assert system.data_log[-1] == ("r", 0, 0x0, 4)


def test_distributed_l2_keeps_local_hits_off_the_bus():
    shared = small_cfg()
    dist = copy.deepcopy(shared)
    dist["caches"]["l2"]["topology"] = "distributed"
    dist["caches"]["l2"]["capacity"] = 4096
    # single core re-walking a working set larger than L1, smaller than L2
    records = []
    for rep in range(6):
        for b in range(48):
            records.append(TraceRecord(rep * 48 + b, 0, "R", b * 64, 8))
    grants = {}
    for name, cfg in (("shared", shared), ("distributed", dist)):
        system = build(cfg)
        system.load_trace(records)
        system.run()
        report = system.build_report()
        grants[name] = report["interconnect"]["bus"]["total_grants"]
        assert report["levels"]["l2"]["hits"] > 0
    assert grants["distributed"] < grants["shared"]


def test_determinism_identical_reports():
    def run_once():
        system = build(small_cfg(), seed=123)
        system.load_trace(gen_synthetic_trace(4, 500, 0.85, 4096, seed=123))
        system.run()
        return system.build_report()

    assert run_once() == run_once()


def test_tier_area_conserved_across_region_refactor():
    plain = small_cfg()
    split = copy.deepcopy(plain)
    split["caches"]["l2"]["regions"] = [
        {"ways": [0, 2], "tech": "SRAM"},
        {"ways": [2, 4], "tech": "SRAM"},
    ]
    areas = {}
    for name, cfg in (("plain", plain), ("split", split)):
        system = build(cfg)
        system.load_trace([TraceRecord(0, 0, "R", 0, 8)])
        system.run()
        report = system.build_report()
        areas[name] = [t["area_units"] for t in report["tiers"]]
    assert areas["plain"] == pytest.approx(areas["split"])


def test_memory_tier_kind_allowed_and_reported():
    cfg = small_cfg()
    cfg["tier_stack"] = ["cores_l1", "l2_split_id", "memory"]
    system = build(cfg)
    system.load_trace([TraceRecord(0, 0, "R", 0, 8)])
    system.run()
    report = system.build_report()
    memory_tier = [t for t in report["tiers"] if t["kind"] == "memory"]
    assert len(memory_tier) == 1
    assert memory_tier[0]["area_units"] == 0.0
    assert memory_tier[0]["power_density_mw_per_unit"] is None


def test_partial_write_mask_propagates_through_writebacks():
    cfg = small_cfg()
    cfg["caches"]["l1d"] = {"capacity": 128, "block_size": 64,
                            "associativity": 1, "tech": "SRAM",
                            "partial_writes": True}
    cfg["caches"]["l2"] = {"capacity": 128, "block_size": 64,
                           "associativity": 1, "tech": "PCRAM",
                           "partial_writes": True}
    system = build(cfg, record_log=True)
    # dirty two words of block 0, flush it through L2 to memory, read back
    records = [
        TraceRecord(0, 0, "W", 0x00, 8),
        TraceRecord(1, 0, "W", 0x18, 8),
        TraceRecord(2, 0, "R", 0x80, 8),    # evicts block 0 from L1
        TraceRecord(3, 0, "R", 0x100, 8),   # evicts block 0 from L2
        TraceRecord(4, 0, "R", 0x00, 8),
        TraceRecord(5, 0, "R", 0x18, 8),
    ]
    system.load_trace(records)
    system.run()
    assert replay_data_log(system) == 4
    block = system.clusters[0].memory.read_block(0)
    assert block[0] != 0 and block[3] != 0
    assert block[1] == block[2] == 0  # untouched words stayed clean


def test_fig36_l2_homing_spreads_blocks_across_tiers():
    from tiersim.arch import preset
    cfg = preset("fig36")
    cfg["cluster_grid"] = [1, 1]
    del cfg["workload"]
    distributed = copy.deepcopy(cfg)
    distributed["caches"]["l2"]["topology"] = "distributed"
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = build(cfg)
        private = build(distributed)
    stack = system.clusters[0].stacks[0]
    # consecutive blocks alternate home tiers, so both l2 tiers carry traffic
    tiers = [system._path(stack, b * 64)[2].tier for b in range(8)]
    assert tiers == [1, 3, 1, 3, 1, 3, 1, 3]
    # a distributed stack has no shared home: one path through its own L2
    cluster = private.clusters[0]
    for s in cluster.stacks:
        assert s.paths == ((s.l1d, s.l2_private, None, cluster.l3),)
        assert (s.l1d.tier, s.l2_private.tier, cluster.l3.tier) == (
            s.core_tier, 1 if s.core_tier == 0 else 3, 2)
        assert {private._path(s, b * 64) for b in range(8)} == set(s.paths)


def test_distributed_l2_with_l3_passes_the_data_oracle():
    cfg = small_cfg()
    cfg["tier_stack"] = ["cores_l1", "l2_split_id", "l3_unified"]
    cfg["caches"]["l2"] = {"capacity": 2048, "block_size": 64,
                           "associativity": 2, "tech": "MRAM",
                           "topology": "distributed"}
    cfg["caches"]["l3"] = {"capacity": 16384, "block_size": 64,
                           "associativity": 4, "tech": "PCRAM",
                           "banks": 4, "nuca_base_latency": 2,
                           "nuca_per_hop": 1}
    system = build(cfg, record_log=True)
    system.load_trace(shared_random_trace(4, 8000, 64, seed=13, write_p=0.5))
    system.run()
    assert replay_data_log(system) > 1000
    check_coherence(system, [b * 64 for b in range(64)])


def test_empty_workload_run_is_well_formed():
    from tiersim.metrics import check_report_invariants
    system = build(small_cfg())
    system.run()
    report = system.build_report()
    check_report_invariants(report)
    assert report["meta"]["duration_ps"] == 0
    assert report["latency"]["mem"]["count"] == 0
    assert report["latency"]["mem"]["mean_ps"] is None
    assert report["energy"]["total_nj"] == 0.0
    for tier in report["tiers"]:
        assert tier["power_density_mw_per_unit"] is None


def test_mixed_trace_and_message_workload():
    cfg = small_cfg(cluster_grid=[2, 2], cores_per_cluster=2)
    system = build(cfg)
    system.load_trace(gen_synthetic_trace(8, 200, 0.9, 1024, seed=6))
    system.load_messages([MessageRecord(t, t % 4, (t + 1) % 4, 64)
                          for t in range(40)])
    system.run()
    report = system.build_report()
    assert report["latency"]["mem"]["count"] == 8 * 200
    assert report["latency"]["msg"]["count"] == 40
    assert report["interconnect"]["noc"]["delivered"] == 40
    # the bus and the NoC never bridge: message traffic adds no bus grants
    baseline = build(cfg)
    baseline.load_trace(gen_synthetic_trace(8, 200, 0.9, 1024, seed=6))
    baseline.run()
    assert (report["interconnect"]["bus"]["total_grants"]
            == baseline.build_report()["interconnect"]["bus"]["total_grants"])


@settings(max_examples=60, deadline=None)
@given(cores=st.integers(2, 4), endurance=st.integers(2, 12),
       l2_tech=st.sampled_from(["SRAM", "PCRAM"]),
       steps=st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                st.integers(0, 7)), min_size=1, max_size=80))
def test_snoop_filter_equals_a_probe_of_every_stack(cores, endurance, l2_tech,
                                                    steps):
    # A two-way L1d of one set in low-endurance PCRAM and a two-set private
    # L2: eight blocks give fills, evictions, write-backs, remote
    # invalidations and worn ways within a few dozen accesses.
    cfg = small_cfg(cores_per_cluster=cores)
    cfg["caches"]["l1d"] = {"capacity": 128, "block_size": 64,
                            "associativity": 2, "tech": "PCRAM"}
    cfg["caches"]["l2"] = {"capacity": 256, "block_size": 64,
                           "associativity": 2, "tech": l2_tech,
                           "topology": "distributed"}
    cfg["tech_overrides"] = {"PCRAM": {"endurance": endurance}}
    system = build(cfg)
    cluster = system.clusters[0]
    core_ps = system.spec.clocks.core_ps
    for core, write, block in steps:
        tick = cluster.engine.now // core_ps + 1
        system.load_trace([TraceRecord(tick, core % cores, "W" if write else "R",
                                       block * 64, 8)])
        system.run()
        # check_coherence compares each block's entry with a probe of every
        # stack's L1d and private L2; no other block may have an entry.
        check_coherence(system, [b * 64 for b in range(8)])
        assert set(cluster.holders) <= set(range(8))
        assert 0 not in cluster.holders.values()
