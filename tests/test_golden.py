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

from tiersim.arch import PRESET_NAMES, preset
from tiersim.cli import run_experiment


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


CASES = {name: functools.partial(preset, name) for name in PRESET_NAMES}
CASES["shared-writes"] = _shared_writes
CASES["worn-l1"] = _worn_l1

GOLDEN = {
    "fig32": "4d3bb3ac1833368fd16d262b296790d0fe666b07ebc5f5363b3141b62ade74fc",
    "fig33": "78c6ec28bd2e70c6a64b72227f4e4a13466653b8dc6aab6afdbb173629673143",
    "fig34": "b9f1bfe3445e64dd2e4247a1f19c8e7b105c7216aca89f197c1c329102fd65db",
    "fig35a": "b9f1bfe3445e64dd2e4247a1f19c8e7b105c7216aca89f197c1c329102fd65db",
    "fig35b": "b3f724e937a717e849faba85fb9b5bd3fae91c72f77a0a96a1fbe57269ae1473",
    "fig36": "70ec76c583f03b1e0436085f203892f05c3e2fa9fd277981713f6a7490af99a9",
    "shared-writes": "0633ac70a178cab80dc3d0f74449c5d42c0daf5de06ac3a892ed63fc1cd445a7",
    "worn-l1": "689830bbc2a6cf7fce619aa4fac1c847176d194586e52a09bd6201ed060894aa",
}


def _report(name: str, tmp_path) -> dict:
    return run_experiment(CASES[name](), seed=0, out_path=str(tmp_path / f"{name}.json"))


def _digest(report: dict) -> str:
    report = dict(report)
    report["meta"] = {k: v for k, v in report["meta"].items() if k != "timestamp"}
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_extra_cases_reach_what_the_presets_do_not(tmp_path):
    shared = _report("shared-writes", tmp_path)
    assert sum(lv["invalidations"] for lv in shared["levels"].values()) > 0
    worn = _report("worn-l1", tmp_path)
    assert worn["levels"]["l1d"]["wear"]["wear_events"] > 0


def test_golden_report_hashes(tmp_path):
    digests = {name: _digest(_report(name, tmp_path)) for name in CASES}
    mismatched = sorted(n for n in CASES if digests[n] != GOLDEN[n])
    listing = "\n".join(f'    "{n}": "{d}",' for n, d in digests.items())
    assert not mismatched, (f"report digests changed for {mismatched}; "
                            f"current digests of every case:\n{listing}")
