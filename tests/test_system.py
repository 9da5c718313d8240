import copy
import functools
import heapq
import itertools
import math
import os
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
import test_corpus
from oracles import check_coherence, check_norma_isolation, replay_data_log

from tiersim import cli
from tiersim.arch import (PRESET_NAMES, generator_arguments, preset, spec_from_dict,
                          validate_spec)
from tiersim.cli import run_experiment
from tiersim.engine import SchedulingError
from tiersim.metrics import LatencyLog, build_report, check_report_invariants
from tiersim.system import Cluster, System
from tiersim.workload import (MessageRecord, TraceRecord, core_streams,
                               gen_message_traffic, gen_synthetic_trace)


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


def distributed_l3_cfg(**overrides):
    """small_cfg with a distributed L2, a private L2 per stack, and a
    banked L3 on its own tier."""
    cfg = small_cfg(**overrides)
    cfg["tier_stack"] = ["cores_l1", "l2_split_id", "l3_unified"]
    cfg["caches"]["l2"] = {"capacity": 2048, "block_size": 64,
                           "associativity": 2, "tech": "MRAM",
                           "topology": "distributed"}
    cfg["caches"]["l3"] = {"capacity": 16384, "block_size": 64,
                           "associativity": 4, "tech": "PCRAM",
                           "banks": 4, "nuca_base_latency": 2,
                           "nuca_per_hop": 1}
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
    assert len({value for c in system.clusters
                for kind, _, value in c.data_log if kind == "w"}) == 2
    assert len({id(c.memory) for c in system.clusters}) == 2


def test_cluster_memory_isolation_by_construction():
    # With a shared L2 each cluster has shared homes and L2i arrays; with a
    # distributed L2 each stack has a private L2, and each cluster an L3.
    for make_cfg in (small_cfg, distributed_l3_cfg):
        system = build(make_cfg(cluster_grid=[2, 2], cores_per_cluster=2))
        assert len(system.clusters) == 4
        check_norma_isolation(system)


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
    """Everything a cluster's part of a run leaves: its snapshot, the
    bookings of its array ports, bus channels and memory controller, and
    its snoop filter."""
    def booked(resource):
        return resource.busy_ps, resource.grants, resource.free_at_ps

    bus = cluster.bus
    return (cluster.snapshot(), [booked(a.port) for a in cluster.levels],
            [booked(channel) for channel in (bus.request, bus.response, bus.snoop)],
            booked(cluster.memctrl.port), dict(cluster.holders))


INDEPENDENCE = {"fig36": _independence_fig36,
                "distributed": _independence_distributed}


@functools.cache
def _whole_run(name):
    """A config of INDEPENDENCE, its seed-3 trace and messages, and the
    system that ran them in one piece. Callers only read the system."""
    cfg = INDEPENDENCE[name]()
    spec = spec_from_dict(cfg)
    trace = gen_synthetic_trace(cores=spec.total_cores, seed=3,
                                **cfg["workload"]["synthetic"])
    messages = gen_message_traffic(clusters=spec.n_clusters, seed=3,
                                   **cfg["workload"]["message_synthetic"])
    whole = build(cfg, seed=3)
    whole.load_trace(trace)
    whole.load_messages(messages)
    whole.run()
    return cfg, trace, messages, whole


@pytest.mark.parametrize("name", INDEPENDENCE)
def test_each_cluster_runs_alone_as_in_the_full_run(name):
    # Clusters share no state with each other or with the mesh, which is
    # what lets each run its own cores: a cluster built and started on
    # its records with no System leaves its state and its latency samples
    # as its part of the full run does, the messages alone give the full
    # run's message samples, and the full run lasts as long as its longest
    # part.
    cfg, trace, messages, full = _whole_run(name)
    spec = full.spec
    assert len(full.noc.msg_samples) == len(messages) > 0
    # System.run runs the clusters one after another, so each cluster's
    # samples are one stretch of the full run's log, in cluster order.
    full_samples = list(full.mem_samples)
    per_cluster = spec.cores_per_cluster_total
    ends = []
    for cluster in full.clusters:
        samples = LatencyLog()
        alone = Cluster(spec, cluster.index, 3, samples, record_log=False)
        per_core = {}
        for rec in trace:
            if rec.core // per_cluster == cluster.index:
                per_core.setdefault(rec.core % per_cluster, []).append(rec)
        for local, recs in per_core.items():
            alone.start(local, iter(recs))
        alone.run_until(math.inf)
        assert _cluster_state(alone) == _cluster_state(cluster), cluster.index
        n = len(samples)
        assert n == len(trace) // spec.n_clusters
        assert Counter(samples) == Counter(full_samples[:n])
        del full_samples[:n]
        ends.append(alone.now)
    assert full_samples == []
    mesh = build(cfg, seed=3)
    mesh.load_messages(messages)
    mesh.run()
    assert list(mesh.noc.msg_samples) == list(full.noc.msg_samples)
    ends.append(mesh.build_report()["meta"]["duration_ps"])
    assert full.build_report()["meta"]["duration_ps"] == max(ends)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(name=st.sampled_from(list(INDEPENDENCE)), data=st.data())
def test_a_run_cut_into_slices_reports_as_the_whole_run(name, data):
    # run(t1); ...; run(tk); run() gives the whole run's report and latency
    # rows. The cuts stay below the whole run's duration: a cut past the
    # last event moves duration_ps to the cut, as --t-end does.
    cfg, trace, messages, whole = _whole_run(name)
    report = whole.build_report()
    cuts = data.draw(st.lists(st.integers(0, report["meta"]["duration_ps"] - 1),
                              min_size=1, max_size=400))
    system = build(cfg, seed=3)
    system.load_trace(trace)
    system.load_messages(messages)
    for cut in sorted(cuts):
        system.run(cut)
    system.run()
    assert system.build_report() == report
    assert list(system.latency_rows()) == list(whole.latency_rows())


CASE_RUN_SEED = 3


def _case_run(spec, record_log=False, cuts=()):
    """A system of `spec` run on its synthetic trace and messages, both
    drawn at CASE_RUN_SEED: cut at each of `cuts`, then to the end."""
    system = System(spec, seed=CASE_RUN_SEED, record_log=record_log)
    system.load_trace(gen_synthetic_trace(
        seed=CASE_RUN_SEED, **generator_arguments(spec, "synthetic")))
    if spec.workload.message_synthetic is not None:
        system.load_messages(gen_message_traffic(
            seed=CASE_RUN_SEED, **generator_arguments(spec, "message_synthetic")))
    for cut in cuts:
        system.run(cut)
    system.run()
    return system


# Tier-1 runs about 3 s of drawn cases; set TIERSIM_CASE_EXAMPLES for more.
@settings(max_examples=int(os.environ.get("TIERSIM_CASE_EXAMPLES", 10)),
          deadline=None, derandomize=True)
# The shape index is drawn on its own, not as the seed mod 8, which
# derandomized draws would hold mostly at shape 0.
@given(k=st.integers(0, len(test_corpus.SHAPES) - 1),
       j=st.integers(0, 2**32 // len(test_corpus.SHAPES) - 1), data=st.data())
def test_a_drawn_corpus_case_passes_every_oracle_property(k, j, data):
    """A corpus case drawn from its own seed, as `test_corpus` draws its 30,
    runs to a report that passes its own checks, with clusters that share
    no part; the data log moves no report byte; the MOESI invariants and
    the snoop filter hold for every block the data log names; a run cut
    at drawn times reports as the whole run; and each cluster, started
    alone on its cores' streams, leaves its state and its samples as its
    part of the whole run does. (The sequential-memory replay waits for
    ROADMAP item 8: wear-out still loses writes in some cases.)"""
    seed = len(test_corpus.SHAPES) * j + k     # a case seed of shape k
    cfg = test_corpus._case(random.Random(seed), k)
    spec = spec_from_dict(cfg)
    assert validate_spec(spec) == []
    whole = _case_run(spec)
    report = whole.build_report()
    check_report_invariants(report)
    check_norma_isolation(whole)

    logged = _case_run(spec, record_log=True)
    assert logged.build_report() == report
    check_coherence(logged, sorted({word - word % logged.block_size
                                    for c in logged.clusters
                                    for _, word, _ in c.data_log}))

    # Cuts before the end: one past the last event moves duration_ps.
    cuts = data.draw(st.lists(st.integers(0, report["meta"]["duration_ps"] - 1),
                              max_size=20))
    cut = _case_run(spec, cuts=sorted(cuts))
    assert cut.build_report() == report
    assert list(cut.latency_rows()) == list(whole.latency_rows())

    streams = core_streams(seed=CASE_RUN_SEED, **generator_arguments(spec, "synthetic"))
    samples = list(whole.mem_samples)
    per_cluster = spec.cores_per_cluster_total
    for cluster in whole.clusters:
        log = LatencyLog()
        alone = Cluster(spec, cluster.index, CASE_RUN_SEED, log, record_log=False)
        for local in range(per_cluster):
            alone.start(local, streams[cluster.index * per_cluster + local])
        alone.run_until(math.inf)
        assert _cluster_state(alone) == _cluster_state(cluster), cluster.index
        assert Counter(log) == Counter(samples[:len(log)])
        del samples[:len(log)]
    assert samples == []


def _hybrid_distributed() -> dict:
    # The distributed config with each private L2 split into an SRAM and a
    # PCRAM region, so a level has more than one region to sum over.
    cfg = _independence_distributed()
    cfg["caches"]["l2"]["regions"] = [{"ways": [0, 1], "tech": "SRAM"},
                                      {"ways": [1, 4], "tech": "PCRAM"}]
    return cfg


SHAPES = {"fig36": functools.partial(preset, "fig36"),
          "distributed": _hybrid_distributed}


@functools.cache
def _shape(name):
    """The spec of a SHAPES config and its freshly built clusters'
    snapshots: the shape a report is built from."""
    system = build(SHAPES[name]())
    return system.spec, [c.snapshot() for c in system.clusters]


LATENCIES = st.dictionaries(st.integers(0, 10**7), st.integers(1, 50),
                            max_size=20).map(Counter)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(list(SHAPES)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0, 1, 1000, 10**9]), data=st.data())
def test_build_report_sums_made_up_snapshots(name, seed, scale, data):
    # build_report reads only its arguments, so made-up counters in the
    # shape of a real system's snapshots give a report that passes its own
    # checks, with each count the sum over the snapshots. Busy times reach
    # twice the run's duration, which the report clamps to it.
    spec, shape = _shape(name)
    nows = data.draw(st.lists(st.integers(0, 10**9), min_size=len(shape) + 1,
                              max_size=len(shape) + 1))
    duration = max(nows)
    rng = random.Random(seed)

    def counts(*keys):
        return {key: rng.randint(0, scale) for key in keys}

    clusters = []
    for snap, now in zip(shape, nows):
        levels = []
        for lv in snap["levels"]:
            regions = [(tech, mib, rng.randint(0, scale), rng.randint(0, scale))
                       for tech, mib, _, _ in lv["regions"]]
            levels.append({
                **lv, "regions": regions,
                "hits": rng.randint(0, sum(r[2] + r[3] for r in regions)),
                "busy_ps": rng.randint(0, 2 * duration),
                "first_wear_time_ps": rng.choice([None, rng.randint(0, duration)]),
                **counts("fills", "evictions", "writebacks", "invalidations",
                         "hit_latency_sum_ps", "hit_latency_samples",
                         "worn_lines", "max_write_count")})
        clusters.append({"now": now, "levels": levels, "bus": counts(*snap["bus"]),
                         "memory_controller": counts("reads", "writes")})
    mem, msg = data.draw(LATENCIES), data.draw(LATENCIES)
    delivered, in_flight = msg.total(), data.draw(st.integers(0, 5))
    report = build_report(
        spec, 3, mem.total() + data.draw(st.integers(0, 5)), clusters,
        {"now": nows[-1], "injected": delivered + in_flight,
         "delivered": delivered, "in_flight": in_flight}, mem, msg)

    check_report_invariants(report)
    assert report["meta"]["duration_ps"] == duration
    arrays = [lv for c in clusters for lv in c["levels"]]
    for level_name, level in report["levels"].items():
        mine = [lv for lv in arrays if lv["name"] == level_name]
        assert level["instances"] == len(mine)
        reads = sum(r[2] for lv in mine for r in lv["regions"])
        writes = sum(r[3] for lv in mine for r in lv["regions"])
        hits = sum(lv["hits"] for lv in mine)
        assert (level["n_read"], level["n_write"], level["misses"]) == (
            reads, writes, reads + writes - hits)
        for key in ("hits", "fills", "evictions", "writebacks", "invalidations"):
            assert level[key] == sum(lv[key] for lv in mine), key
        assert level["wear"]["worn_lines"] == sum(lv["worn_lines"] for lv in mine)
        assert level["busy_ns"] >= 0 and level["idle_ns"] >= 0
    interconnect = report["interconnect"]
    for key in clusters[0]["bus"]:
        assert interconnect["bus"][key] == sum(c["bus"][key] for c in clusters)
    for key in ("reads", "writes"):
        assert interconnect["memory_controllers"][key] == sum(
            c["memory_controller"][key] for c in clusters)


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


def test_no_preset_or_corpus_run_builds_a_vertical_mesh_link(tmp_path,
                                                             monkeypatch):
    """Messages run between cluster homes (c % gx, c // gx, 0), so the mesh
    never routes along z, even where its dims give it a layer per core
    tier. Each preset and corpus case runs without its trace, which moves
    no route: the mesh carries only messages."""
    from test_corpus import corpus
    meshes = []

    def build_and_keep(spec, seed=0):
        system = System(spec, seed=seed)
        meshes.append(system.noc)
        return system

    monkeypatch.setattr(cli, "System", build_and_keep)
    runs = [(preset(name), 0) for name in PRESET_NAMES]
    runs += [(copy.deepcopy(config), seed) for config, seed in corpus().values()]
    for config, seed in runs:
        config["workload"].pop("synthetic")
        run_experiment(config, seed, str(tmp_path / "report.json"))
    ports = [port for noc in meshes for _, port in noc._steps]
    assert ports and not [port for port in ports if port.endswith("z")]
    # Some of those meshes have more than one layer and carry messages.
    assert any(noc.topo.dims[2] > 1 and noc.delivered for noc in meshes)


def test_tsv_latency_moves_no_message_latency(tmp_path):
    """`noc.tsv_latency` drives only the TSV delay between tiers inside a
    cluster: on fig36 it moves the memory latency but not the messages'."""
    reports = []
    for tsv in (1, 9):
        cfg = preset("fig36")
        cfg["noc"]["tsv_latency"] = tsv
        cfg["workload"]["synthetic"]["length"] = 100
        report = run_experiment(cfg, 0, str(tmp_path / "report.json"))
        reports.append(report["latency"])
    assert reports[0]["msg"]["count"] > 0
    assert reports[0]["msg"] == reports[1]["msg"]
    assert reports[0]["mem"]["mean_ps"] < reports[1]["mem"]["mean_ps"]


def mesh_of_one_core_clusters(grid):
    """fig33's system spread to a grid of one-core clusters, as the
    benchmark's mesh-messages workload spreads it to 8x8."""
    cfg = preset("fig33")
    del cfg["workload"]
    cfg["cluster_grid"] = [grid, grid]
    cfg["cores_per_cluster"] = 1
    return cfg


def test_reversed_messages_report_as_their_stable_sort_by_tick():
    """load_messages sorts records whose ticks are out of order stably by
    tick, so a reversed list, whose equal ticks run backwards, gives the
    report of that sort."""
    cfg = mesh_of_one_core_clusters(4)
    reversed_messages = gen_message_traffic(16, 300, 0.2, 64, seed=4)[::-1]
    in_tick_order = sorted(reversed_messages, key=lambda m: m.tick)
    assert len({m.tick for m in in_tick_order}) < len(in_tick_order)
    reports = []
    for records in (reversed_messages, in_tick_order):
        system = build(cfg)
        system.load_messages(records)
        system.run()
        reports.append(system.build_report())
    assert reports[0] == reports[1]
    assert reports[0]["interconnect"]["noc"]["delivered"] == len(in_tick_order)


def test_loaded_messages_keep_nothing_per_message():
    """Loading builds only the columns its checks read and drops them
    before anything is scheduled; the mesh's queue then reads each record
    when the one before it is sent. So loading keeps under 64 KiB, however
    many messages there are, and peaks under 48 bytes per message."""
    import tracemalloc
    system = build(mesh_of_one_core_clusters(8))
    messages = gen_message_traffic(64, 5000, 0.05, 64, seed=1)
    assert len(messages) > 15000
    tracemalloc.start()
    try:
        system.load_messages(messages)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
    assert peak < 48 * len(messages)
    assert system.noc.in_flight == len(messages)
    # The queue holds one event per message: a run dispatches those and
    # the hops it schedules itself.
    engine = system.engine
    hops = 0
    schedule = engine.schedule

    def counted(*event):
        nonlocal hops
        hops += 1
        schedule(*event)

    engine.schedule = counted
    assert system.run() - hops == len(messages)


def test_report_passes_schema_level_invariants():
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


def test_block_the_l1d_refuses_keeps_its_writes_in_the_private_l2():
    # Four writes wear out the L1d's only way. The write to 0x40 then
    # misses the private L2 and goes down as a whole-block victim, which
    # merges into the L2's clean duplicate; the write to 0x48 hits the
    # private L2, whose line serves it in place. No read of 0x0: the write
    # that wore its way out strands that block's data.
    cfg = small_cfg(cores_per_cluster=1)
    cfg["caches"]["l1d"] = {"capacity": 64, "block_size": 64,
                            "associativity": 1, "tech": "PCRAM"}
    cfg["caches"]["l2"]["topology"] = "distributed"
    cfg["tech_overrides"] = {"PCRAM": {"endurance": 3}}
    system = build(cfg, record_log=True)
    records = [TraceRecord(i, 0, "W", 0x0, 8) for i in range(4)]
    records += [TraceRecord(4, 0, "W", 0x40, 8), TraceRecord(5, 0, "W", 0x48, 8),
                TraceRecord(6, 0, "R", 0x40, 8), TraceRecord(7, 0, "R", 0x48, 8)]
    system.load_trace(records)
    system.run()
    assert replay_data_log(system) == 2
    check_coherence(system, [0x0, 0x40])
    stack = system.clusters[0].stacks[0]
    assert stack.l1d.worn_lines == 1
    assert stack.l1d.probe(0x40)[1] is None
    set_index, way = stack.l2_private.probe(0x40)
    line = stack.l2_private.lines[set_index][way]
    # The victim's merge and the write served in place each wear the line.
    assert (line.state, line.write_count) == ("M", 2)


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
    assert system.clusters[0].data_log[-1] == ("r", 0x0, 4)


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


@pytest.mark.parametrize("name, rate, events, mesh_events", [
    ("fig33", 0.05, 4728, 963),
    ("fig36", None, 7613, 39)])
def test_queues_dispatch_a_pinned_number_of_events(name, rate, events,
                                                   mesh_events):
    # A cluster that stops allowing in-place steps moves no report byte, but
    # it pops more turns: these are the counts with today's steps, the
    # clusters' turns and the mesh's events together.
    cfg = preset(name)
    cfg["workload"]["synthetic"]["length"] = 200
    if rate is not None:
        cfg["workload"]["message_synthetic"]["rate"] = rate
    spec = spec_from_dict(cfg)
    system = build(cfg, seed=5)
    system.load_trace(gen_synthetic_trace(cores=spec.total_cores, seed=5,
                                          **cfg["workload"]["synthetic"]))
    system.load_messages(gen_message_traffic(
        clusters=spec.n_clusters, seed=5, **cfg["workload"]["message_synthetic"]))
    assert (system.run(), system.engine.dispatched) == (events, mesh_events)


def stub_cluster(cores):
    """A one-cluster system's cluster of `cores` cores, whose access path is
    a stub: the access of `rec` issued at t completes `rec.addr` core
    cycles later, and appends (its core, t) to `calls`. Returns (cluster,
    calls, the core cycle in ps)."""
    system = build(small_cfg(cores_per_cluster=cores))
    cluster = system.clusters[0]
    cycle = system.spec.clocks.core_ps
    calls = []

    def access(stack, rec, t):
        calls.append((stack.index, t))
        return t + rec.addr * cycle

    cluster._do_access = access
    return cluster, calls, cycle


def steps_in_place(issues, probe, last, cuts):
    """The done times d, from the probed core's issue to `last` (in core
    cycles), at which the probed core's completion runs in place. Core c
    issues one access at issues[c]; the probed one completes at d, every
    other 100 cycles after its issue, so each other completion is a turn of
    its own. The cluster runs to each of `cuts` in turn (core cycles, None
    for no end), and a completion pushed back is one more popped turn."""
    seen = []
    for done in range(issues[probe], last + 1):
        cluster, calls, cycle = stub_cluster(len(issues))
        for core, tick in enumerate(issues):
            latency = done - tick if core == probe else 100
            cluster.start(core, iter([TraceRecord(tick, core, "R", latency, 8)]))
        popped = sum(cluster.run_until(math.inf if cut is None else cut * cycle)
                     for cut in cuts)
        assert len(calls) == len(issues) and cluster.turns == []
        assert popped in (2 * len(issues) - 1, 2 * len(issues))
        if popped == 2 * len(issues) - 1:
            seen.append(done)
    return seen


def test_a_core_steps_in_place_strictly_before_the_head_and_within_the_run():
    # Cores issue at 4, 6 and 10; a run ends at 8 (the heads are 6, then
    # 10), then a run with no end (the head is an other core's completion).
    assert [steps_in_place((4, 6, 10), probe, 12, (8, None))
            for probe in range(3)] == [[4, 5], [6, 7, 8], [10, 11, 12]]
    # `start` runs nothing; a core alone, in a run with no end, takes every
    # step in place, and the clock stops at its last step.
    cluster, calls, cycle = stub_cluster(1)
    cluster.start(0, iter([TraceRecord(t, 0, "R", 2, 8) for t in (0, 1, 5)]))
    assert calls == [] and len(cluster.turns) == 1
    assert cluster.run_until() == 1
    assert calls == [(0, 0), (0, 2 * cycle), (0, 5 * cycle)]
    assert cluster.now == 7 * cycle


@pytest.mark.parametrize("held, expected", [
    # "b" issues at 5 behind "a", so no completion of "a" runs in place ...
    (False, [[], [5, 6], [7, 8]]),
    # ... and "x", issuing at 5 behind "b", holds "b" back as well.
    (True, [[], [], [5, 6], [7, 8]])])
def test_a_core_step_waits_for_every_turn_left_at_its_time(held, expected):
    issues = (5, 5, 5, 7) if held else (5, 5, 7)
    assert [steps_in_place(issues, probe, 8, (None,))
            for probe in range(len(issues))] == expected


@settings(max_examples=200, deadline=None)
@given(cores=st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=6), min_size=1, max_size=4),
       t_mid=st.one_of(st.none(), st.integers(0, 12)))
# A completion after a run's end must wait for the next run.
@example(cores=[[(0, 1)]], t_mid=0)
def test_a_cluster_runs_in_place_as_a_queue_of_every_step_property(cores, t_mid):
    """A cluster makes the same access calls, logs the same samples and
    keeps the same steps pending at a cut, in the same order, as an event
    queue that schedules every step of its cores: a step run in place only
    saves a turn. Each core's records are (tick gap, latency) pairs in core
    cycles, so cores tie often."""
    cluster, calls, cycle = stub_cluster(len(cores))
    records = []
    for core, steps in enumerate(cores):
        tick, recs = 0, []
        for gap, latency in steps:
            tick += gap
            recs.append(TraceRecord(tick, core, "R", latency, 8))
        records.append(recs)
        cluster.start(core, iter(recs))

    # The reference queue: a heap of (time, seq, handler, payload) that
    # dispatches in (time, seq) order and moves its clock on to a finite cut.
    heap, seqs = [], itertools.count()
    q = SimpleNamespace(now=0, dispatched=0)
    ref_calls, ref_log = [], []
    pending = Counter()      # the times of the steps scheduled on `q`

    def schedule(t, handler, payload):
        pending[t] += 1
        heapq.heappush(heap, (t, next(seqs), handler, payload))

    def run_until(cut):
        while heap and heap[0][0] <= cut:
            q.now, _, handler, payload = heapq.heappop(heap)
            q.dispatched += 1
            handler(payload)
        if cut < math.inf:
            q.now = max(q.now, cut)

    def issue(payload):
        core, rec, stream = payload
        pending[q.now] -= 1
        ref_calls.append((core, q.now))
        schedule(q.now + rec.addr * cycle, complete, (core, q.now, stream))

    def complete(payload):
        core, t_issue, stream = payload
        pending[q.now] -= 1
        ref_log.append((t_issue, q.now))
        rec = next(stream, None)
        if rec is not None:
            schedule(max(q.now, rec.tick * cycle), issue, (core, rec, stream))

    for core, recs in enumerate(records):
        stream = iter(recs)
        first = next(stream)
        schedule(first.tick * cycle, issue, (core, first, stream))

    popped = 0
    for cut in ([] if t_mid is None else [t_mid * cycle]) + [math.inf]:
        popped += cluster.run_until(cut)
        run_until(cut)
        assert calls == ref_calls
        assert list(cluster.mem_samples) == ref_log
        assert cluster.now == q.now
        assert sorted(t for t, *_ in cluster.turns) == sorted(pending.elements())
    assert cluster.turns == []
    assert len(ref_log) == sum(map(len, cores))
    # every step scheduled on `q`, an issue and a completion per record, ran
    assert q.dispatched == 2 * len(ref_log)
    assert popped <= q.dispatched


def test_a_core_started_before_the_cluster_time_is_refused():
    system = build(small_cfg())
    system.load_trace([TraceRecord(10, 0, "R", 0, 8)])
    system.run(10**6)
    cluster = system.clusters[0]
    assert cluster.now == 10**6 and len(system.mem_samples) == 1
    with pytest.raises(SchedulingError, match="core 1 starts at 999000 ps, "
                       "before current time 1000000 ps"):
        cluster.start(1, iter([TraceRecord(999, 1, "R", 64, 8)]))
    assert cluster.turns == []
    cluster.start(1, iter([TraceRecord(1000, 1, "R", 64, 8)]))
    assert system.run() == 1 and len(system.mem_samples) == 2


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
    tiers = [system.clusters[0]._path(stack, b * 64)[2].tier
             for b in range(8)]
    assert tiers == [1, 3, 1, 3, 1, 3, 1, 3]
    # a distributed stack has no shared home: one path through its own L2
    cluster = private.clusters[0]
    for s in cluster.stacks:
        assert s.paths == ((s.l1d, s.l2_private, None, cluster.l3),)
        assert (s.l1d.tier, s.l2_private.tier, cluster.l3.tier) == (
            s.core_tier, 1 if s.core_tier == 0 else 3, 2)
        assert {cluster._path(s, b * 64) for b in range(8)} == set(s.paths)


def test_distributed_l2_with_l3_passes_the_data_oracle():
    system = build(distributed_l3_cfg(), record_log=True)
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
        tick = cluster.now // core_ps + 1
        system.load_trace([TraceRecord(tick, core % cores, "W" if write else "R",
                                       block * 64, 8)])
        system.run()
        # check_coherence compares each block's entry with a probe of every
        # stack's L1d and private L2; no other block may have an entry.
        check_coherence(system, [b * 64 for b in range(8)])
        assert set(cluster.holders) <= set(range(8))
        assert 0 not in cluster.holders.values()
