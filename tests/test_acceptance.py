"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers (run with -s to see them). Tolerances are fixed here,
not tuned at runtime.
"""

import copy
import json
import random
import time
from fractions import Fraction

import pytest
from oracles import check_coherence, replay_data_log

from tiersim.arch import spec_from_dict, validate_spec
from tiersim.cache import S, CacheGeometry, CacheLevel
from tiersim.cli import run_experiment
from tiersim.interconnect import mean_hop_count
from tiersim.memtech import AccessCounters, TechnologyParams, catalog_default, level_energy
from tiersim.metrics import recompute_level_energy
from tiersim.system import System
from tiersim.workload import TraceRecord, gen_message_traffic, gen_synthetic_trace


def _basic_cfg():
    return {
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


def _build(cfg, seed=0, record_log=False):
    spec = spec_from_dict(cfg)
    assert validate_spec(spec) == []
    return System(spec, seed=seed, record_log=record_log)


def test_acceptance_1_hop_count_claim():
    start = time.time()
    mean_2d = mean_hop_count((8, 8, 1))
    mean_3d = mean_hop_count((4, 4, 4))
    assert mean_2d == Fraction(21, 4)       # 5.2500 exactly
    assert mean_3d == Fraction(15, 4)       # 3.7500 exactly
    ratio = float(mean_2d / mean_3d)
    assert abs(ratio - 1.400) <= 0.001
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: mean hops 8x8x1={float(mean_2d):.4f}, "
          f"4x4x4={float(mean_3d):.4f}, ratio={ratio:.3f} ({elapsed:.2f}s)")


def test_acceptance_2_energy_equation_exact(tmp_path):
    start = time.time()
    # worked example: direct substitution into the energy equation
    params = TechnologyParams("X", 1.0, 1.0, 1.0, 0.2, 0.4, 0.4, 1.0, 10,
                              1.0, False)
    counters = AccessCounters(n_read=1000, n_write=500, idle_time=1e6)
    assert level_energy(counters, params, capacity_mib=1.0) == 1400.0

    # deterministic six-access trace with hand-derived per-level counters
    cfg = {
        "cluster_grid": [1, 1],
        "cores_per_cluster": 1,
        "tier_stack": ["cores_l1"],
        "caches": {
            "l1i": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l1d": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
        },
    }
    a, b, c = 0x000, 0x080, 0x040
    trace = [TraceRecord(t, 0, op, addr, 8) for t, (op, addr) in enumerate(
        [("R", a), ("R", a), ("W", a), ("R", c), ("R", b), ("W", b)])]
    system = _build(cfg, seed=31)
    system.load_trace(trace)
    system.run()
    report = system.build_report()
    l1d = report["levels"]["l1d"]
    assert (l1d["n_read"], l1d["n_write"]) == (4, 2)
    assert (l1d["hits"], l1d["misses"]) == (3, 3)
    # dynamic part of the energy equation, by hand: 4 reads at 0.45 nJ
    # + 2 writes at 0.75 nJ (SRAM, any mix)
    standby = l1d["idle_ns"] * 1.0 * l1d["capacity_mib_per_instance"] * 1e-3
    assert l1d["energy_nj"] == pytest.approx(4 * 0.45 + 2 * 0.75 + standby,
                                             rel=1e-12)

    # and in general: every level's reported energy recomputes offline from
    # the report's own counters to 1e-9 relative error
    system = _build(_basic_cfg(), seed=31)
    system.load_trace(gen_synthetic_trace(4, 2000, 0.9, 2048, seed=31))
    system.run()
    report = system.build_report()
    total = 0.0
    for name, level in report["levels"].items():
        closed_form = recompute_level_energy(level, system.spec.catalog,
                                             report["energy"]["write_mix"])
        assert closed_form == pytest.approx(level["energy_nj"], rel=1e-9), name
        total += closed_form
    assert total == pytest.approx(report["energy"]["total_nj"], rel=1e-9)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS: 1400 nJ example exact; known-counter trace "
          f"matches the closed form; report total "
          f"{report['energy']['total_nj']:.3f} nJ recomputed to 1e-9 "
          f"({elapsed:.2f}s)")


def test_acceptance_3_coherence_oracle():
    start = time.time()
    cfg = _basic_cfg()
    rng = random.Random(2025)
    blocks = [b * 64 for b in range(48)]
    ticks = [0, 0, 0, 0]
    records = []
    for _ in range(10**4):
        core = rng.randrange(4)
        ticks[core] += rng.randrange(3)
        records.append(TraceRecord(
            ticks[core], core, "W" if rng.random() < 0.4 else "R",
            rng.choice(blocks) + 8 * rng.randrange(8), 8))
    records.sort(key=lambda r: (r.tick, r.core))

    # MOESI invariants are asserted inside every coherence transaction;
    # a violation aborts this run.
    system = _build(cfg, seed=11, record_log=True)
    system.load_trace(records)
    system.run()

    reads = replay_data_log(system)
    check_coherence(system, blocks)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: {reads} reads match the sequential-memory "
          f"oracle; invariants held over 10^4 ops ({elapsed:.2f}s)")


class _StackLRU:
    def __init__(self, sets, ways, block):
        self.sets, self.ways, self.block = sets, ways, block
        self.stacks = [[] for _ in range(sets)]

    def access(self, addr):
        block_no = addr // self.block
        s = block_no % self.sets
        tag = block_no // self.sets
        stack = self.stacks[s]
        hit = tag in stack
        if hit:
            stack.remove(tag)
        elif len(stack) == self.ways:
            stack.pop()
        stack.insert(0, tag)
        return hit


def test_acceptance_4_lru_oracle():
    start = time.time()
    geom = CacheGeometry(capacity=32768, block_size=64, associativity=4)
    level = CacheLevel("lru", geom, [catalog_default()["SRAM"]])
    ref = _StackLRU(geom.sets, 4, 64)
    rng = random.Random(404)
    agree = 0
    n = 10**5
    for _ in range(n):
        addr = rng.randrange(4096) * 64
        # The simulator's read path: demand_read, then a fill on a miss.
        hit = level.demand_read(addr)[1] is not None
        if not hit:
            level.fill(addr, S)
        if hit == ref.access(addr):
            agree += 1
    assert agree == n
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: {agree}/{n} hit/miss decisions agree with the "
          f"stack model ({elapsed:.2f}s)")


def test_acceptance_5_congestion_property():
    start = time.time()
    cfg = {
        "cluster_grid": [8, 8],
        "cores_per_cluster": 1,
        "tier_stack": ["cores_l1"],
        "caches": {
            "l1i": {"capacity": 1024, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l1d": {"capacity": 1024, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
        },
    }
    rates = (0.001, 0.002, 0.005, 0.01, 0.02)
    payload = 496  # 32 flits: the 0.02 point saturates the mesh center
    seeds = (1, 2, 3)
    curves = []
    for seed in seeds:
        lat = []
        for rate in rates:
            msgs = gen_message_traffic(64, 2000, rate, payload, seed=seed)
            system = _build(cfg, seed=seed)
            system.load_messages(msgs)
            system.run()
            samples = [t1 - t0 for t0, t1 in system.noc.msg_samples]
            lat.append(sum(samples) / len(samples))
        curves.append(lat)
    mean_curve = [sum(c[i] for c in curves) / len(seeds)
                  for i in range(len(rates))]
    for i in range(len(rates) - 1):
        assert mean_curve[i + 1] >= mean_curve[i] * 0.95, \
            f"latency fell from {rates[i]} to {rates[i + 1]}: {mean_curve}"
    saturation_ratio = mean_curve[-1] / mean_curve[0]
    assert saturation_ratio >= 5.0
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("ACCEPTANCE 5 PASS: mean latency (cycles) "
          + ", ".join(f"{r}:{l / 1000:.0f}" for r, l in zip(rates, mean_curve))
          + f"; saturation/base={saturation_ratio:.1f}x ({elapsed:.2f}s)")


def test_acceptance_6_endurance_scaled():
    start = time.time()
    cfg = {
        "cluster_grid": [1, 1],
        "cores_per_cluster": 1,
        "tier_stack": ["cores_l1", "l2_split_id", "l3_unified"],
        "caches": {
            "l1i": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l1d": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l2": {"capacity": 128, "block_size": 64, "associativity": 1,
                   "tech": "SRAM"},
            "l3": {"capacity": 2048, "block_size": 64, "associativity": 4,
                   "tech": "PCRAM"},
        },
        "tech_overrides": {"PCRAM": {"endurance": 1000}},
    }
    # every round pushes exactly one write-back of block A onto its L3 line
    a, b, c = 0x000, 0x080, 0x100
    records = []
    tick = 0
    for _ in range(1500):
        for op, addr in (("W", a), ("R", b), ("R", c)):
            records.append(TraceRecord(tick, 0, op, addr, 8))
            tick += 1
    system = _build(cfg)
    system.load_trace(records)
    system.run()
    report = system.build_report()
    l3 = report["levels"]["l3"]
    assert l3["n_write"] == 1500
    assert l3["wear"]["wear_events"] == 1
    assert l3["wear"]["max_write_count"] == 1001  # the wear-triggering write
    assert l3["wear"]["worn_lines"] == 1
    assert report["endurance"]["worn_blocks"] == 1
    assert report["endurance"]["first_wear_time_ps"] is not None
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 6 PASS: one wear event at write #1001, worn_blocks=1 "
          f"({elapsed:.2f}s)")


def test_acceptance_7_hybrid_intra_level_cache():
    start = time.time()
    pure = {
        "cluster_grid": [1, 1],
        "cores_per_cluster": 4,
        "tier_stack": ["cores_l1", "l2_split_id"],
        "caches": {
            "l1i": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l1d": {"capacity": 128, "block_size": 64, "associativity": 1,
                    "tech": "SRAM"},
            "l2": {"capacity": 4096, "block_size": 64, "associativity": 8,
                   "tech": "PCRAM"},
        },
    }
    hybrid = copy.deepcopy(pure)
    hybrid["caches"]["l2"]["regions"] = [
        {"ways": [0, 4], "tech": "SRAM"},
        {"ways": [4, 8], "tech": "PCRAM"},
    ]
    trace = gen_synthetic_trace(cores=4, length=4000, hot_fraction=0.95,
                                hot_set_bytes=512, seed=11)
    latency = {}
    for name, cfg in (("pure", pure), ("hybrid", hybrid)):
        system = _build(cfg, seed=5)
        system.load_trace(trace)
        system.run()
        level = system.build_report()["levels"]["l2"]
        assert level["hits"] > 0
        latency[name] = level["mean_hit_latency_ps"]
    assert latency["hybrid"] <= 0.80 * latency["pure"], latency
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 7 PASS: mean L2 hit latency hybrid="
          f"{latency['hybrid']:.0f} ps vs pure PCRAM={latency['pure']:.0f} ps "
          f"({100 * (1 - latency['hybrid'] / latency['pure']):.0f}% lower) "
          f"({elapsed:.2f}s)")


def test_acceptance_8_shared_vs_distributed_l2():
    start = time.time()
    shared = _basic_cfg()
    shared["caches"]["l1d"] = {"capacity": 128, "block_size": 64,
                               "associativity": 1, "tech": "SRAM"}
    shared["caches"]["l2"] = {"capacity": 4096, "block_size": 64,
                              "associativity": 8, "tech": "SRAM",
                              "topology": "shared"}
    distributed = copy.deepcopy(shared)
    distributed["caches"]["l2"]["topology"] = "distributed"
    distributed["caches"]["l2"]["capacity"] = 1024  # per-core private
    trace = gen_synthetic_trace(cores=4, length=4000, hot_fraction=0.95,
                                hot_set_bytes=512, seed=11)
    per_miss = {}
    for name, cfg in (("shared", shared), ("distributed", distributed)):
        system = _build(cfg, seed=5)
        system.load_trace(trace)
        system.run()
        report = system.build_report()
        misses = report["levels"]["l1d"]["misses"]
        grants = report["interconnect"]["bus"]["total_grants"]
        assert misses > 0
        per_miss[name] = grants / misses
    assert per_miss["shared"] > per_miss["distributed"]
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8 PASS: interconnect transactions per L1 miss "
          f"shared={per_miss['shared']:.2f} > "
          f"distributed={per_miss['distributed']:.2f} ({elapsed:.2f}s)")


def test_acceptance_9_determinism(tmp_path):
    start = time.time()
    cfg = _basic_cfg()
    cfg["cluster_grid"] = [2, 1]
    cfg["workload"] = {
        "synthetic": {"length": 400, "hot_fraction": 0.9,
                      "hot_set_bytes": 1024},
        "message_synthetic": {"cycles": 300, "rate": 0.01,
                              "payload_bytes": 64},
    }
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        run_experiment(json.loads(json.dumps(cfg)), seed=99, out_path=str(path))
    texts = [p.read_text().splitlines() for p in paths]
    diff = [(la, lb) for la, lb in zip(texts[0], texts[1]) if la != lb]
    assert len(texts[0]) == len(texts[1])
    assert all("timestamp" in la for la, lb in diff)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 9 PASS: reports byte-identical except "
          f"{len(diff)} timestamp line(s) ({elapsed:.2f}s)")
