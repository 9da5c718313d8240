"""Golden report hashes.

A (config, seed) pair must give a byte-identical report, with
`meta.timestamp` the only field allowed to differ. This pins the sha256 of
each case's report, serialised as `emit_report` writes it
(`indent=2, sort_keys=True`) without the timestamp. A refactor or speed-up
must leave every digest unchanged. A change that alters behaviour on purpose
updates the digests (the failure message prints all the new ones) and says
why in CHANGES.md.
"""

import functools
import hashlib
import json

from oracles import STALE_READS, count_stale_reads

from tiersim import cli
from tiersim.arch import PRESET_NAMES, preset
from tiersim.cli import run_experiment
from tiersim.system import System


def _shared_writes() -> dict:
    # fig35b with a hot set shared between cores and half the accesses
    # writes: invalidations and cache-to-cache supply, which no preset reaches.
    cfg = preset("fig35b")
    cfg["cluster_grid"] = [1, 1]
    cfg["cores_per_cluster"] = 4
    cfg["workload"] = {"synthetic": {"length": 400, "hot_fraction": 0.95,
                                     "hot_set_bytes": 4096, "hot_overlap": 0.6,
                                     "read_fraction": 0.5, "tick_interval": 4}}
    return cfg


def _worn_l1() -> dict:
    # A tiny pseudo-random PCRAM L1 with a low endurance: ways wear out, and
    # later accesses bypass them or find no usable way at all.
    cfg = preset("fig34")
    cfg["cluster_grid"] = [1, 1]
    cfg["cores_per_cluster"] = 2
    cfg["caches"]["l1d"] = {"capacity": 512, "block_size": 64,
                            "associativity": 4, "replacement": "pseudo_random",
                            "tech": "PCRAM"}
    cfg["tech_overrides"] = {"PCRAM": {"endurance": 12}}
    cfg["workload"] = {"synthetic": {"length": 600, "hot_fraction": 0.9,
                                     "hot_set_bytes": 1024, "read_fraction": 0.4,
                                     "tick_interval": 2}}
    return cfg


def _dense_mesh() -> dict:
    # fig33 spread to a 4x4 mesh of one-core clusters, with dense message
    # traffic and no trace: links contend, which the presets' sparse traffic
    # on a 2x2 mesh barely reaches.
    cfg = preset("fig33")
    cfg["cluster_grid"] = [4, 4]
    cfg["cores_per_cluster"] = 1
    cfg["workload"] = {"message_synthetic": {"cycles": 600, "rate": 0.05,
                                             "payload_bytes": 64}}
    return cfg


def _distributed_writes() -> dict:
    # fig35b with a distributed L2: each core's private L2 is looked up after
    # an L1 miss, promotes its copy back up, and spills dirty victims below
    # the bus.
    cfg = preset("fig35b")
    cfg["cluster_grid"] = [1, 1]
    cfg["cores_per_cluster"] = 4
    cfg["caches"]["l1d"]["capacity"] = 1024
    cfg["caches"]["l2"].update(capacity=4096, associativity=4,
                               topology="distributed")
    cfg["workload"] = {"synthetic": {"length": 600, "hot_fraction": 0.95,
                                     "hot_set_bytes": 4096, "hot_overlap": 0.6,
                                     "read_fraction": 0.5, "tick_interval": 4}}
    return cfg


def _distributed_worn() -> dict:
    # The worn PCRAM L1 over a distributed LRU L2: blocks promoted from the
    # private L2 meet worn L1 ways and stay served from the L2.
    cfg = preset("fig35b")
    cfg["cluster_grid"] = [1, 1]
    cfg["cores_per_cluster"] = 2
    cfg["caches"]["l1d"] = _worn_l1()["caches"]["l1d"]
    cfg["tech_overrides"] = {"PCRAM": {"endurance": 12}}
    cfg["caches"]["l2"].update(capacity=4096, associativity=4,
                               topology="distributed", replacement="lru")
    cfg["workload"] = {"synthetic": {"length": 600, "hot_fraction": 0.9,
                                     "hot_set_bytes": 1024, "hot_overlap": 0.5,
                                     "read_fraction": 0.4, "tick_interval": 2}}
    return cfg


def _deep_writebacks() -> dict:
    # Small shared L2 and L3 under a write-heavy hot set larger than both:
    # write-backs miss one level and move on, and L2/L3 fills evict dirty
    # victims that travel on down to memory.
    cfg = preset("fig35b")
    cfg["cluster_grid"] = [1, 1]
    cfg["cores_per_cluster"] = 2
    cfg["caches"]["l1d"]["capacity"] = 1024
    cfg["caches"]["l2"].update(capacity=4096, associativity=4)
    cfg["caches"]["l3"].update(capacity=8192, associativity=4)
    cfg["workload"] = {"synthetic": {"length": 600, "hot_fraction": 0.8,
                                     "hot_set_bytes": 16384, "read_fraction": 0.3,
                                     "tick_interval": 4}}
    return cfg


def _same_tick_issues() -> dict:
    # The shared-writes cluster with 400-cycle tick gaps: most accesses
    # finish before their core's next tick, so the four cores issue on the
    # same tick and the event order among them decides who wins the bus.
    # Issuing the next access straight from the completing one, instead of
    # through a completion event, reorders those ties and moves this report.
    cfg = _shared_writes()
    cfg["workload"]["synthetic"].update(length=300, tick_interval=400)
    return cfg


CASES = {name: functools.partial(preset, name) for name in PRESET_NAMES}
CASES["shared-writes"] = _shared_writes
CASES["worn-l1"] = _worn_l1
CASES["dense-mesh"] = _dense_mesh
CASES["distributed-writes"] = _distributed_writes
CASES["distributed-worn"] = _distributed_worn
CASES["deep-writebacks"] = _deep_writebacks
CASES["same-tick-issues"] = _same_tick_issues

GOLDEN = {
    "fig32": "4d3bb3ac1833368fd16d262b296790d0fe666b07ebc5f5363b3141b62ade74fc",
    "fig33": "78c6ec28bd2e70c6a64b72227f4e4a13466653b8dc6aab6afdbb173629673143",
    "fig34": "b9f1bfe3445e64dd2e4247a1f19c8e7b105c7216aca89f197c1c329102fd65db",
    "fig35b": "b3f724e937a717e849faba85fb9b5bd3fae91c72f77a0a96a1fbe57269ae1473",
    "fig36": "70ec76c583f03b1e0436085f203892f05c3e2fa9fd277981713f6a7490af99a9",
    "shared-writes": "0633ac70a178cab80dc3d0f74449c5d42c0daf5de06ac3a892ed63fc1cd445a7",
    "worn-l1": "689830bbc2a6cf7fce619aa4fac1c847176d194586e52a09bd6201ed060894aa",
    "dense-mesh": "e101bbd984ca3d6267bdc1e825243128116b6ce00cc6d8dbcf15a4d636b18e6e",
    "distributed-writes": "ad4849eab7e1d8a95df4287a434ca3cde215ac909e0ec9be7dfe73d0fd210c45",
    "distributed-worn": "7249b0af72958f26ba039845ddf4d3f34cd881732d501125533e9e733452d5e5",
    "deep-writebacks": "68487073db392601261db24b2b9b00e65135b70b72a22bb3adccba28d3dc600d",
    "same-tick-issues": "45598ce12e8b183c4e34a2e1f66705f018fd7cdb0a0246cc985380d9c364ae17",
}


# `tiersim run --config P --seed 2 --t-end 700000 --dump-latencies CSV`: the
# sha256 of the report, less meta.timestamp, and of the CSV, for a run that
# stops while accesses are still in flight.
T_END_PS = 700_000
T_END_GOLDEN = {
    "fig33": ("49d5035977c55e4cddf476a9aacb4d43580d85a8d81be9459d0ee59ddd9ea7a6",
              "df05ddfee2d88eedad4a8ecda670bcef3fd91da3fe241aa45d067fbedabc6f44"),
    "fig35b": ("1031598ece8ccc6f6877a9208dcf241818591ad81b7bb64decaad7ad1c70b09f",
               "3e823c3a6402eecf490e3facba1145ddc7382ac28379d594bc0d841a3d3d95d5"),
    "fig36": ("87c101ad0da684b3d5106523c7b39393d0b0066266da78a5bbd14eb1576e5cd7",
              "f0e1c3fafc45007ca4190afbbb820b1dc7111cad18d635c1fd5431ba3a49bdba"),
}


def _report(name: str, tmp_path) -> dict:
    return run_experiment(CASES[name](), seed=0, out_path=str(tmp_path / f"{name}.json"))


def _digest(report: dict) -> str:
    report = dict(report)
    report["meta"] = {k: v for k, v in report["meta"].items() if k != "timestamp"}
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _t_end_digests(name: str, tmp_path) -> tuple[str, str]:
    dump = tmp_path / f"{name}-t-end.csv"
    report = run_experiment(preset(name), seed=2,
                            out_path=str(tmp_path / f"{name}-t-end.json"),
                            t_end_ps=T_END_PS, dump_latencies=str(dump))
    return _digest(report), hashlib.sha256(dump.read_bytes()).hexdigest()


def test_extra_cases_reach_what_the_presets_do_not(tmp_path):
    shared = _report("shared-writes", tmp_path)
    assert sum(lv["invalidations"] for lv in shared["levels"].values()) > 0
    worn = _report("worn-l1", tmp_path)
    assert worn["levels"]["l1d"]["wear"]["wear_events"] > 0
    # Zero-load latency of the longest route: hops * (router + link) cycles
    # plus one cycle per flit. A slower message waited for a busy link.
    cfg = _dense_mesh()
    noc = cfg["noc"]
    longest = sum(d - 1 for d in cfg["cluster_grid"])
    flits = 1 + -(-cfg["workload"]["message_synthetic"]["payload_bytes"]
                  // noc["flit_width"])
    bound_ps = (longest * (noc["router_delay"] + noc["link_latency"]) + flits) \
        * cfg["clocks"]["noc_ps"]
    dense = _report("dense-mesh", tmp_path)
    assert dense["latency"]["msg"]["max_ps"] > bound_ps
    # In distributed mode the "l2" level is the per-core private L2s.
    dist = _report("distributed-writes", tmp_path)
    assert dist["levels"]["l2"]["hits"] > 0
    dist_worn = _report("distributed-worn", tmp_path)
    assert dist_worn["levels"]["l2"]["hits"] > 0
    assert dist_worn["levels"]["l1d"]["wear"]["wear_events"] > 0
    deep = _report("deep-writebacks", tmp_path)
    assert deep["levels"]["l2"]["writebacks"] > 0
    assert deep["levels"]["l3"]["n_write"] > 0
    assert deep["interconnect"]["memory_controllers"]["writes"] > 0


def test_golden_report_hashes(tmp_path):
    digests = {name: _digest(_report(name, tmp_path)) for name in CASES}
    mismatched = sorted(n for n in CASES if digests[n] != GOLDEN[n])
    listing = "\n".join(f'    "{n}": "{d}",' for n, d in digests.items())
    assert not mismatched, (f"report digests changed for {mismatched}; "
                            f"current digests of every case:\n{listing}")


def test_t_end_report_and_latency_dump_hashes(tmp_path):
    digests = {name: _t_end_digests(name, tmp_path) for name in T_END_GOLDEN}
    listing = "\n".join(f'    "{n}": {d},' for n, d in digests.items())
    assert digests == T_END_GOLDEN, (f"--t-end digests changed; current "
                                     f"digests of every case:\n{listing}")


def test_data_log_changes_no_report_byte(tmp_path, monkeypatch):
    # Block data images exist only for the data log, so turning it on must
    # leave every digest as GOLDEN pins it for the log off, and each log,
    # replayed on a flat memory, reads stale data only where STALE_READS
    # says. With it off, no line of any array holds an image and no backing
    # store holds a block; the extra cases, built to reach what the presets
    # do not, check that.
    built: list[System] = []

    def system_with_log(record_log):
        def make(spec, seed=0):
            built.append(System(spec, seed=seed, record_log=record_log))
            return built[-1]
        return make

    monkeypatch.setattr(cli, "System", system_with_log(True))
    for name in CASES:
        assert _digest(_report(name, tmp_path)) == GOLDEN[name], name
        system = built.pop()
        logged = any(c.data_log for c in system.clusters)
        assert logged == (name != "dense-mesh"), name
        stale, reads = count_stale_reads(system)
        assert (stale, reads) == STALE_READS.get(name, (0, reads)), name
    monkeypatch.setattr(cli, "System", system_with_log(False))
    for name in set(CASES) - set(PRESET_NAMES):
        _report(name, tmp_path)
        quiet = built.pop()
        for level in (lv for c in quiet.clusters for lv in c.levels):
            assert all(line.data is None for ways in level.lines for line in ways)
        assert all(not c.memory._blocks for c in quiet.clusters), name
