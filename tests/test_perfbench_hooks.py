"""The benchmark's tracing hooks still fit the simulator.

`perfbench/spans.py` wraps named functions of the tiersim layers for a
traced run and restores them afterwards. A refactor that renames or deletes
one of those names makes `instrument` fail here, in the test suite, and not
only in the benchmark's own self-test.
"""

import importlib.util
import sys
from pathlib import Path

from tiersim import cache, engine, interconnect, system
from tiersim.arch import preset, spec_from_dict
from tiersim.workload import gen_message_traffic

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Everything `instrument` may patch: the classes and the module it wraps.
OWNERS = (cache.CacheLevel, system.Stack, system, interconnect.BusChannel,
          interconnect.MeshNetwork, engine.EventQueue,
          system.MemoryController, system.System)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_instrument_wraps_and_restores_every_hook():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.instrument(spans.SpanRecorder()):
        wrapped = {(owner, name) for owner, old in zip(OWNERS, before)
                   for name, value in vars(owner).items()
                   if old.get(name) is not value}
    assert {name for owner, name in wrapped if owner is cache.CacheLevel} \
        == set(spans.CACHE_METHODS)
    assert (system, "coherence_step") in wrapped
    assert (system.System, "run") in wrapped
    # Functions compare by identity, so equal dicts hold the originals.
    for owner, old in zip(OWNERS, before):
        assert dict(vars(owner)) == old, f"{owner} not restored"


def test_the_mesh_hooks_count_every_hop_and_event():
    # The benchmark reads `noc.hops` from the `noc.hop` spans and
    # `engine.events` from the queue's `dispatched`. Were `schedule` or
    # `_at_router` inlined, their wrappers would read 0 and no run would
    # fail, so each count is checked here against the messages' routes.
    spans = _load_spans()
    cfg = preset("fig33")
    cfg["cluster_grid"] = [2, 1]
    messages = gen_message_traffic(2, 200, 0.05, 64, seed=1)
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        built = system.System(spec_from_dict(cfg), seed=0)
        built.load_messages(messages)
        returned = built.run()
    calls = {name: n for name, (n, _) in rec.self_times().items()}
    # Cluster c's home is (c, 0, 0), so each message crosses one link.
    hops = len(messages)
    assert built.noc.delivered == len(messages) > 10
    assert calls["engine.schedule"] == hops
    assert calls["noc.hop"] == built.engine.dispatched == len(messages) + hops
    # Nothing but the mesh runs: there is no trace.
    assert built.engine.dispatched == returned
