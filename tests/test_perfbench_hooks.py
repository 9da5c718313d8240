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
