"""A seeded corpus of small random configurations, pinned by digest.

`corpus()` draws CASE_COUNT configs, each with its own synthetic workload,
from the one fixed seed CORPUS_SEED. Tier-stack shapes are taken in turn;
everything else is drawn: the cluster grid and core count, shared or
distributed L2, a split L2i, hybrid technology regions, LRU or
pseudo-random replacement, partial writes, NUCA banks on every level, a low
PCRAM endurance, clock periods, lockstep tick gaps, shared hot sets and
messages between clusters. Each case stays at a few hundred accesses.

`corpus_digests.json` beside this file pins the sha256 of each case's
report (serialised as `emit_report` writes it, without the timestamp). A
change that keeps behaviour must keep every digest, with the data log off
and on. A labelled behaviour change regenerates the file with

    PYTHONPATH=src python tests/test_corpus.py

and says in CHANGES.md how many digests moved. Never regenerate it to make
an unlabelled change pass.
"""

import hashlib
import json
import os
import random
import sys

from oracles import STALE_READS, count_stale_reads

from tiersim import cli
from tiersim.cli import run_experiment
from tiersim.engine import FifoResource
from tiersim.system import System

CORPUS_SEED = 14
CASE_COUNT = 30
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "corpus_digests.json")

C, L2, L3, MEM = "cores_l1", "l2_split_id", "l3_unified", "memory"
SHAPES = (
    (C,),
    (C, L2),
    (L2, C),
    (C, C, L2),
    (C, L2, C),
    (C, L2, L3),
    (C, L2, L3, MEM),
    (C, L2, L3, L2, C),
)
TECHS = ("SRAM", "DRAM", "eDRAM", "PCRAM", "MRAM", "DWM")
GRIDS = ([1, 1], [1, 2], [2, 1], [2, 2])


def _array(rng: random.Random, block: int, set_counts, ways) -> dict:
    """One cache entry: geometry, replacement, maybe NUCA banks, maybe two
    technology regions, maybe partial writes."""
    assoc = rng.choice(ways)
    sets = rng.choice(set_counts)
    entry = {"capacity": sets * assoc * block, "block_size": block,
             "associativity": assoc,
             "replacement": rng.choice(("lru", "pseudo_random")),
             "tech": rng.choice(("SRAM", "SRAM", "PCRAM", "MRAM"))}  # SRAM 1 in 2
    if rng.random() < 0.5:
        entry.update(banks=rng.choice([b for b in (1, 2, 4) if sets % b == 0]),
                     nuca_base_latency=rng.randrange(3),
                     nuca_per_hop=rng.randrange(1, 3))
    if assoc >= 2 and rng.random() < 0.4:
        split = rng.randrange(1, assoc)
        lo, hi = rng.sample(TECHS, 2)
        entry["regions"] = [{"ways": [0, split], "tech": lo},
                            {"ways": [split, assoc], "tech": hi}]
    if rng.random() < 0.5:
        entry["partial_writes"] = True
    return entry


def _case(rng: random.Random, index: int) -> dict:
    shape = SHAPES[index % len(SHAPES)]
    grid = rng.choice(GRIDS)
    cores = rng.randint(1, 4)
    block = rng.choice((32, 64))
    caches = {"l1i": _array(rng, block, (4, 8), (1, 2)),
              "l1d": _array(rng, block, (2, 4, 8, 16), (1, 2, 4))}
    if L2 in shape:
        caches["l2"] = _array(rng, block, (8, 16, 32), (2, 4, 8))
        caches["l2"]["topology"] = rng.choice(("shared", "distributed"))
        if rng.random() < 0.4:
            caches["l2i"] = _array(rng, block, (8, 16), (2, 4))
    if L3 in shape:
        caches["l3"] = _array(rng, block, (16, 32, 64), (4, 8))
    config = {
        "cluster_grid": grid,
        "cores_per_cluster": cores,
        "tier_stack": list(shape),
        "noc": {"link_latency": rng.randint(1, 2),
                "tsv_latency": rng.randint(1, 3),
                "router_delay": rng.randint(1, 3),
                "flit_width": rng.choice((8, 16, 32))},
        "bus": {"beat_width": rng.choice((8, 16, 32))},
        "clocks": {"core_ps": rng.choice((500, 1000)),
                   "bus_ps": rng.choice((500, 1000)),
                   "noc_ps": rng.choice((1000, 2000)),
                   "l2_ps": rng.choice((1000, 1500)),
                   "l3_ps": rng.choice((1000, 2000))},
        "memory_latency_ns": rng.choice((20.0, 50.0, 80.0)),
        "write_mix": round(rng.random(), 2),
        "caches": caches,
        "report": {"histogram_bucket_ps": rng.choice((500, 1000, 5000))},
    }
    if rng.random() < 0.6:
        config["tech_overrides"] = {"PCRAM": {"endurance": rng.randint(4, 16)}}
    total_cores = grid[0] * grid[1] * cores * shape.count(C)
    lockstep = rng.random() < 0.3
    config["workload"] = {"synthetic": {
        "length": max(16, rng.randint(600, 1200) // total_cores),
        "hot_fraction": round(rng.uniform(0.7, 0.98), 2),
        "hot_set_bytes": rng.choice((256, 512, 1024, 2048, 4096)),
        "hot_overlap": rng.choice((0.0, 0.2, 0.5, 0.8)),
        "read_fraction": round(rng.uniform(0.3, 0.8), 2),
        "tick_interval": rng.choice((200, 400)) if lockstep else rng.randint(1, 4),
        "access_size": rng.choice((8, 16, block)),
    }}
    if grid != [1, 1] and rng.random() < 0.7:
        config["workload"]["message_synthetic"] = {
            "cycles": rng.randint(100, 400),
            "rate": round(rng.uniform(0.01, 0.08), 3),
            "payload_bytes": rng.choice((8, 16, 64, 100))}
    return config


def corpus() -> dict[str, tuple[dict, int]]:
    """Case name -> (config, run seed), drawn from CORPUS_SEED."""
    rng = random.Random(CORPUS_SEED)
    return {f"case{i:02d}": (_case(rng, i), i) for i in range(CASE_COUNT)}


def _digest(config: dict, seed: int, out_path: str) -> str:
    report = run_experiment(config, seed=seed, out_path=out_path)
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out_path: str) -> dict[str, str]:
    return {name: _digest(config, seed, out_path)
            for name, (config, seed) in corpus().items()}


def test_corpus_covers_the_config_space():
    configs = [config for config, _ in corpus().values()]
    caches = [c["caches"] for c in configs]
    synth = [c["workload"]["synthetic"] for c in configs]
    assert {tuple(c["tier_stack"]) for c in configs} == set(SHAPES)
    assert {tuple(c["cluster_grid"]) for c in configs} == {tuple(g) for g in GRIDS}
    assert {c["cores_per_cluster"] for c in configs} == {1, 2, 3, 4}
    assert {c["l2"]["topology"] for c in caches if "l2" in c} == {"shared", "distributed"}
    assert any("l2i" in c for c in caches)
    entries = [e for c in caches for e in c.values()]
    assert {e["replacement"] for e in entries} == {"lru", "pseudo_random"}
    assert any(e.get("partial_writes") for e in entries)
    assert any(r["tech"] == "PCRAM" for e in entries for r in e.get("regions", ()))
    for name in ("l1d", "l2", "l2i", "l3"):
        assert any(c.get(name, {}).get("nuca_per_hop") and c[name]["banks"] > 1
                   for c in caches), name
    # A worn-out PCRAM L1d over a distributed L2: the private-L2 bypass.
    assert any(c["caches"]["l1d"]["tech"] == "PCRAM" and "tech_overrides" in c
               and c["caches"].get("l2", {}).get("topology") == "distributed"
               for c in configs)
    assert min(c["tech_overrides"]["PCRAM"]["endurance"]
               for c in configs if "tech_overrides" in c) <= 8
    assert any(s["tick_interval"] >= 200 for s in synth)
    assert max(s["hot_overlap"] for s in synth) == 0.8
    assert any("message_synthetic" in c["workload"] for c in configs)


def test_corpus_digests(tmp_path, monkeypatch):
    # With the data log on, each case's log is also replayed on a flat
    # memory: only the cases STALE_READS pins read stale data.
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    out = str(tmp_path / "report.json")
    for record_log in (False, True):
        built: list[System] = []

        def make(spec, seed=0):
            built.append(System(spec, seed=seed, record_log=record_log))
            return built[-1]

        monkeypatch.setattr(cli, "System", make)
        got = digests(out)
        moved = sorted(n for n in got.keys() | pinned.keys()
                       if got.get(n) != pinned.get(n))
        assert not moved, (f"record_log={record_log}: {len(moved)} corpus "
                           f"digests moved: {moved}")
    counts = dict(zip(got, map(count_stale_reads, built), strict=True))
    assert {n: c for n, c in counts.items() if c[0]} == {
        n: c for n, c in STALE_READS.items() if n in counts}


# ROADMAP item 3: bookings are made in booking order, not arrival order, so
# some arrive before one already booked on their resource (a write-back books
# the bus during the dispatch that issued the miss), and a run can end while
# a resource is still held. Per case, the count of such early bookings, and
# the cases that hold some resource past meta.duration_ps. Item 3's fix
# empties both.
EARLY_BOOKINGS = {
    "case00": 393, "case02": 311, "case03": 684, "case04": 953,
    "case05": 943, "case06": 198, "case07": 362, "case08": 130,
    "case09": 310, "case10": 92, "case11": 28, "case12": 403, "case13": 312,
    "case14": 328, "case15": 665, "case16": 592, "case19": 331,
    "case20": 639, "case21": 16, "case22": 288, "case23": 110, "case24": 23,
    "case25": 245, "case26": 354, "case27": 715, "case28": 301,
    "case29": 747,
}
HELD_PAST_THE_END = {"case02", "case03", "case04", "case05", "case08",
                     "case15", "case17", "case22", "case23", "case24",
                     "case26", "case27", "case29"}


def test_every_booking_keeps_the_fifo_rule(tmp_path, monkeypatch):
    # Each booking starts at the later of its arrival and its resource's
    # previous done, and holds the resource for its hold time.
    ledger: dict[FifoResource, list[tuple[int, int, int, int]]] = {}
    book = FifoResource.book

    def logged(resource, arrival_ps, hold_ps):
        start, done = book(resource, arrival_ps, hold_ps)
        ledger.setdefault(resource, []).append((arrival_ps, hold_ps, start, done))
        return start, done

    monkeypatch.setattr(FifoResource, "book", logged)
    out = str(tmp_path / "report.json")
    early, held = {}, set()
    for name, (config, seed) in corpus().items():
        ledger.clear()
        report = run_experiment(config, seed=seed, out_path=out)
        for bookings in ledger.values():
            free = latest = 0
            for arrival, hold, start, done in bookings:
                fifo_start = max(arrival, free)
                assert (start, done) == (fifo_start, fifo_start + hold), name
                if arrival < latest:
                    early[name] = early.get(name, 0) + 1
                latest = max(latest, arrival)
                free = done
            if free > report["meta"]["duration_ps"]:
                held.add(name)
    assert early == EARLY_BOOKINGS
    assert held == HELD_PAST_THE_END


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(os.path.join(tmp, "report.json"))
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    moved = sum(old.get(n) != d for n, d in new.items())
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2)
        fh.write("\n")
    print(f"{len(new)} digests written to {DIGESTS_PATH}; {moved} moved",
          file=sys.stderr)
