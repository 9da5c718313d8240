"""The benchmark's workloads: a simulator config plus generator parameters.

Each workload holds the config handed to the simulator (with no `workload`
section, so the simulator reads no generator settings) and the parameters
of the `tiersim.workload` generators. The benchmark makes the records from
the seed and hands the simulator only the records. Why each workload exists
is in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from tiersim.arch import preset
from tiersim.workload import gen_message_traffic, gen_synthetic_trace

# Seeds: claims are developed on TUNING_SEED and confirmed on CONFIRM_SEED,
# which is kept apart from any tuning.
TUNING_SEED = 1
CONFIRM_SEED = 7919


@dataclass(frozen=True)
class Workload:
    config: dict
    trace: dict | None       # gen_synthetic_trace keyword arguments, no seed/cores
    messages: dict | None    # gen_message_traffic keyword arguments, no seed/clusters


def _simulator_config(name: str) -> dict:
    config = preset(name)
    del config["workload"]
    return config


def _stack5_private(quick: bool) -> Workload:
    # fig36 as shipped: 2x2 clusters of 16 cores on a five-tier stack, 8 KiB
    # disjoint hot sets, 2/3 reads and the preset's sparse message traffic.
    return Workload(
        config=_simulator_config("fig36"),
        trace={"length": 40 if quick else 1000, "hot_fraction": 0.9,
               "hot_set_bytes": 8192, "tick_interval": 4},
        messages={"cycles": 2000, "rate": 0.002, "payload_bytes": 64})


def _shared_reuse(quick: bool) -> Workload:
    # fig35b hierarchy; a hot set as large as the 2-way L1, 60% of it shared
    # by every core of the cluster, and half the accesses writes.
    return Workload(
        config=_simulator_config("fig35b"),
        trace={"length": 40 if quick else 1000, "hot_fraction": 0.95,
               "hot_set_bytes": 32768, "hot_overlap": 0.6,
               "read_fraction": 0.5, "tick_interval": 4},
        messages=None)


def _mesh_messages(quick: bool) -> Workload:
    # fig33 spread to an 8x8x1 mesh of one-core clusters: no trace, dense
    # message traffic with contention but no growing backlog.
    config = _simulator_config("fig33")
    config["cluster_grid"] = [8, 8]
    config["cores_per_cluster"] = 1
    return Workload(
        config=config,
        trace=None,
        messages={"cycles": 300 if quick else 20000, "rate": 0.05,
                  "payload_bytes": 64})


_BUILDERS = {"stack5-private": _stack5_private,
             "shared-reuse": _shared_reuse,
             "mesh-messages": _mesh_messages}

NAMES = tuple(_BUILDERS)


def get(name: str, quick: bool = False) -> Workload:
    """The named workload; quick shrinks its length for the self-test."""
    return _BUILDERS[name](quick)


def generate(workload: Workload, spec, seed: int) -> tuple[list, list]:
    """Trace and message records for one seed. The same seed gives the same
    records."""
    trace = []
    messages = []
    if workload.trace is not None:
        trace = gen_synthetic_trace(cores=spec.total_cores, seed=seed,
                                    **workload.trace)
    if workload.messages is not None:
        messages = gen_message_traffic(clusters=spec.n_clusters, seed=seed,
                                       **workload.messages)
    return trace, messages
