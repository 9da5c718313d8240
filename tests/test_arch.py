import copy
import json
import re
import warnings
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from tiersim.arch import (ConfigError, PRESET_NAMES, SystemSpec, build_system,
                          preset, spec_from_dict, validate_spec)
from tiersim.memtech import TechnologyParams
from tiersim.system import WorkloadError
from tiersim.workload import (LATEST_START_PS, NUMBER_KINDS, MessageRecord,
                              TraceRecord, field_kinds, gen_message_traffic,
                              gen_synthetic_trace)

ROOT = Path(__file__).resolve().parent.parent


def test_all_presets_validate_clean():
    for name in PRESET_NAMES:
        spec = spec_from_dict(preset(name))
        assert validate_spec(spec) == [], name


def test_every_unknown_key_reported_by_its_path():
    cfg = preset("fig35b")
    cfg["seed"] = 1
    cfg["noc"]["link_latncy"] = 2
    cfg["bus"]["width"] = 8
    cfg["clocks"]["mem_ps"] = 500
    cfg["report"] = {"histogram_bucket_ps": 10, "bins": 4}
    cfg["workload"]["synthetc"] = {}
    cfg["caches"]["l4"] = {"capacity": 1024}
    cfg["caches"]["l3"]["bank"] = 2
    cfg["caches"]["l1d"]["regions"] = [{"ways": [0, 1], "tech": "SRAM"},
                                       {"ways": [1, 2], "tech": "PCRAM",
                                        "wear": 3}]
    violations = validate_spec(spec_from_dict(cfg))
    unknown = sorted(v for v in violations if v.endswith(": unknown key"))
    assert unknown == sorted(f"{path}: unknown key" for path in (
        "seed", "noc.link_latncy", "bus.width", "clocks.mem_ps",
        "report.bins", "workload.synthetc", "caches.l4", "caches.l3.bank",
        "caches.l1d.regions[1].wear"))


def test_block_size_violation_reported_with_path():
    cfg = preset("fig34")
    cfg["caches"]["l2"]["block_size"] = 48
    violations = validate_spec(spec_from_dict(cfg))
    assert any("caches.l2.block_size" in v and "power of two" in v
               for v in violations)


@pytest.mark.parametrize("preset_name, name, topology", [
    ("fig34", "l2", "shared"), ("fig34", "l2", "distributed"),
    ("fig34", "l2i", "shared"), ("fig35b", "l3", "shared")])
def test_one_block_size_per_hierarchy(preset_name, name, topology):
    # the data images, ClusterMemory and the snoop filter's key assume one
    # block size; a valid geometry with another is still refused
    cfg = preset(preset_name)
    cfg["caches"]["l2"]["topology"] = topology
    cfg["caches"].setdefault(name, dict(cfg["caches"]["l2"], topology="shared"))
    cfg["caches"][name]["block_size"] = 128
    assert validate_spec(spec_from_dict(cfg)) == [
        f"caches.{name}.block_size: must equal caches.l1d.block_size (64), got 128"]
    with pytest.raises(ConfigError):
        build_system(spec_from_dict(cfg), seed=0)


def test_l3_requires_adjacent_l2_tier():
    cfg = preset("fig35b")
    cfg["tier_stack"] = ["cores_l1", "l3_unified"]
    violations = validate_spec(spec_from_dict(cfg))
    assert any("l3_unified" in v and "adjacent" in v for v in violations)


def test_l2_tier_requires_adjacent_cores():
    cfg = preset("fig36")
    cfg["tier_stack"] = ["cores_l1", "l3_unified", "l2_split_id", "l2_split_id"]
    violations = validate_spec(spec_from_dict(cfg))
    assert violations  # multiple adjacency problems, none silently accepted


def test_unknown_technology_reported():
    cfg = preset("fig34")
    cfg["caches"]["l2"]["tech"] = "FLASH"
    violations = validate_spec(spec_from_dict(cfg))
    assert any("unknown technology" in v for v in violations)


def test_cache_config_tier_consistency():
    cfg = preset("fig33")
    cfg["caches"]["l2"] = {"capacity": 1048576, "block_size": 64,
                           "associativity": 16, "tech": "SRAM"}
    violations = validate_spec(spec_from_dict(cfg))
    assert any("no l2_split_id tier" in v for v in violations)
    cfg = preset("fig34")
    del cfg["caches"]["l2"]
    violations = validate_spec(spec_from_dict(cfg))
    assert any("caches.l2: required" in v for v in violations)


def test_bad_clock_and_write_mix():
    cfg = preset("fig33")
    cfg["clocks"] = {"core_ps": 0}
    cfg["write_mix"] = 1.5
    violations = validate_spec(spec_from_dict(cfg))
    assert any("clocks.core_ps" in v for v in violations)
    assert any("write_mix" in v for v in violations)


@pytest.mark.parametrize("tier_stack", [[], ["memory"]], ids=["empty", "memory"])
def test_a_stack_without_cores_is_reported_by_the_tier_stack_rule_only(
        tier_stack):
    # With no core tier the generator has no cores; the cause is named once.
    cfg = preset("fig32")
    cfg["tier_stack"] = tier_stack
    assert validate_spec(spec_from_dict(cfg)) == [
        "tier_stack: at least one cores_l1 tier is required"]


@pytest.mark.parametrize("key, value, line", [
    ("memory_latency_ns", 10**400,
     f"memory_latency_ns: must be a finite number >= 0, got {10**400}"),
    ("tech_overrides", {"PCRAM": {"endurance": 10**400}},
     f'tech_overrides.PCRAM.endurance: must be a number >= 1 or "unlimited", '
     f'got {10**400}')], ids=["memory_latency_ns", "endurance"])
def test_an_integer_past_the_float_range_breaks_its_number_kind(key, value,
                                                                 line):
    cfg = preset("fig32")
    cfg[key] = value
    assert validate_spec(spec_from_dict(cfg)) == [line]


def test_config_structure_error_raises():
    with pytest.raises(ConfigError):
        spec_from_dict({"cluster_grid": [2]})
    with pytest.raises(ConfigError):
        spec_from_dict({"caches": {"l1d": {"block_size": 64}}})
    # the config is walked in its own order, so the first section that is
    # not an object is named, whatever the order of the spec's fields
    with pytest.raises(ConfigError, match="^report: must be an object, got int$"):
        spec_from_dict({"report": 1, "bus": 2})
    with pytest.raises(ConfigError, match="^bus: must be an object, got int$"):
        spec_from_dict({"bus": 2, "report": 1})


@pytest.mark.parametrize("noc", [{}, {"dims": None}, None],
                         ids=["left-out", "null", "null-noc"])
def test_mesh_defaults_to_the_cluster_grid_and_core_tiers(noc):
    cfg = preset("fig36")  # a 2 x 2 grid with two core tiers
    cfg["noc"] = noc
    spec = spec_from_dict(cfg)
    assert spec.noc.dims == (2, 2, 2)
    assert validate_spec(spec) == []
    cfg["tier_stack"] = ["l2_split_id"]  # no core tier: still one layer
    assert spec_from_dict(cfg).noc.dims == (2, 2, 1)


def test_fig33_build_counts():
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    assert len(system.clusters) == 4
    assert sum(len(c.stacks) for c in system.clusters) == 32
    assert len({id(c.bus) for c in system.clusters}) == 4
    assert len({id(c.memctrl) for c in system.clusters}) == 4
    assert system.spec.noc.dims == (2, 2, 1)


def test_fig36_stack_shape_and_warning():
    spec = spec_from_dict(preset("fig36"))
    assert list(spec.tier_stack) == [
        "cores_l1", "l2_split_id", "l3_unified", "l2_split_id", "cores_l1"]
    assert spec.cores_per_cluster_total == 16
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = build_system(spec, seed=0)
    assert any("interrupt" in str(w.message) for w in caught)
    # each cluster: 16 stacks, two shared L2 arrays (one per l2 tier), one L3
    cluster = system.clusters[0]
    assert len(cluster.stacks) == 16
    assert [(t, l2.tier) for t, l2 in cluster.l2_shared.items()] == [(1, 1), (3, 3)]
    assert cluster.l3 is not None and cluster.l3.tier == 2
    assert {path[-1] for s in cluster.stacks for path in s.paths} == {
        cluster.l3}
    # stacks on the outer tiers bind to their adjacent l2 tier
    assert {s.core_tier for s in cluster.stacks} == {0, 4}
    for s in cluster.stacks:
        assert s.l1d.tier == s.l1i.tier == s.core_tier
        assert spec.l2_tier_for_core_tier(s.core_tier) == (
            1 if s.core_tier == 0 else 3)


def test_build_rejects_invalid_spec():
    cfg = preset("fig34")
    cfg["caches"]["l2"]["block_size"] = 48
    with pytest.raises(ConfigError):
        build_system(spec_from_dict(cfg), seed=0)


def test_single_cluster_rejects_messages():
    system = build_system(spec_from_dict(preset("fig32")), seed=0)
    with pytest.raises(WorkloadError):
        system.load_messages([MessageRecord(0, 0, 1, 64)])


def test_negative_ticks_rejected_at_load():
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    with pytest.raises(WorkloadError, match="negative"):
        system.load_trace([TraceRecord(-3, 0, "R", 0x40, 8)])
    with pytest.raises(WorkloadError, match="negative"):
        system.load_messages([MessageRecord(0, 0, 1, 64),
                              MessageRecord(-3, 0, 1, 64)])
    assert system.run() == 0 and system.noc.injected == 0


def test_ticks_past_the_latency_columns_rejected_at_load():
    # A request's start and end are kept as int64; the first tick whose
    # start time reaches LATEST_START_PS is refused before anything runs,
    # and the tick before it runs to a report.
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    core_tick = -(-LATEST_START_PS // system.spec.clocks.core_ps)
    noc_tick = -(-LATEST_START_PS // system.spec.clocks.noc_ps)
    with pytest.raises(WorkloadError, match=f"core 1: tick {core_tick} starts"):
        system.load_trace([TraceRecord(0, 1, "R", 0x40, 8),
                           TraceRecord(core_tick, 1, "R", 0x80, 8)])
    with pytest.raises(WorkloadError, match=f"message tick {noc_tick} starts"):
        system.load_messages([MessageRecord(0, 0, 1, 64),
                              MessageRecord(noc_tick, 0, 1, 64)])
    assert system.run() == 0 and system.noc.injected == 0
    system.load_trace([TraceRecord(core_tick - 1, 1, "R", 0x80, 8)])
    system.load_messages([MessageRecord(noc_tick - 1, 0, 1, 64)])
    system.run()
    latency = system.build_report()["latency"]
    assert latency["mem"]["count"] == latency["msg"]["count"] == 1


def test_first_bad_message_named_and_nothing_scheduled():
    # The second record names cluster 9 and the third has a negative tick:
    # the error names the first bad record, and nothing is injected.
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    with pytest.raises(WorkloadError,
                       match="^cluster 9 outside the 4-cluster system$"):
        system.load_messages([MessageRecord(0, 0, 1, 64),
                              MessageRecord(2, 1, 9, 64),
                              MessageRecord(-1, 0, 1, 64)])
    assert system.run() == 0 and system.noc.injected == 0


def test_a_message_that_breaks_every_rule_is_named_by_its_source():
    # The rules run in order: source cluster, destination cluster, tick.
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    with pytest.raises(WorkloadError,
                       match="^cluster 4 outside the 4-cluster system$"):
        system.load_messages([MessageRecord(-1, 4, -1, 64)])
    assert system.run() == 0 and system.noc.injected == 0


def test_a_second_message_load_is_refused():
    # Messages load once: a second non-empty load is refused and feeds
    # nothing, before and after a run, while an empty one changes nothing.
    system = build_system(spec_from_dict(preset("fig33")), seed=0)
    system.load_messages([MessageRecord(5, 2, 3, 64), MessageRecord(0, 0, 1, 64)])
    with pytest.raises(WorkloadError, match="^messages already loaded$"):
        system.load_messages([MessageRecord(1, 1, 2, 64)])
    system.load_messages([])
    assert system.noc.injected == 2
    system.run()
    assert system.noc.delivered == 2
    with pytest.raises(WorkloadError, match="^messages already loaded$"):
        system.load_messages([MessageRecord(10**6, 1, 2, 64)])
    assert system.run() == 0 and system.noc.injected == system.noc.delivered == 2


def test_access_size_outside_the_block_rejected_at_load():
    system = build_system(spec_from_dict(preset("fig32")), seed=0)
    for size in (0, -8, 65):
        with pytest.raises(WorkloadError, match=f"access size {size} outside 1..64"):
            system.load_trace([TraceRecord(0, 0, "R", 0x40, size)])
    assert system.run() == 0


def test_access_crossing_a_block_boundary_rejected_at_load():
    system = build_system(spec_from_dict(preset("fig32")), seed=0)
    with pytest.raises(WorkloadError, match="core 0 tick 0: access of 8 bytes "
                       "at 0x3c crosses a 64-byte block boundary"):
        system.load_trace([TraceRecord(0, 0, "W", 0x3c, 8)])
    assert system.run() == 0
    system.load_trace([TraceRecord(0, 0, "W", 0x38, 8)])  # ends on the boundary
    assert system.run() == 1


def test_unknown_preset():
    # a name is checked against PRESET_NAMES before any path is built
    for name in ("fig99", "fig32.json", "../presets/fig32", ""):
        with pytest.raises(KeyError):
            preset(name)


def test_each_preset_is_a_fresh_parse_of_its_shipped_file():
    presets = ROOT / "src" / "tiersim" / "presets"
    assert PRESET_NAMES == ("fig32", "fig33", "fig34", "fig35b", "fig36")
    assert sorted(p.name for p in presets.iterdir()) == [
        f"{name}.json" for name in PRESET_NAMES]
    for name in PRESET_NAMES:
        shipped = json.loads((presets / f"{name}.json").read_text(encoding="utf-8"))
        first = preset(name)
        assert first == shipped, name
        # a caller may change what it got: the next call parses the file again
        first["caches"]["l1d"]["capacity"] = 1
        first["workload"].clear()
        first["extra"] = True
        assert preset(name) == shipped, name


def test_custom_technology_usable_in_cache_config():
    cfg = preset("fig34")
    cfg["tech_overrides"] = {"FeRAM": {
        "read_latency": 2.0, "write_set_latency": 5.0,
        "write_reset_latency": 5.0, "read_energy": 0.2,
        "write_set_energy": 0.3, "write_reset_energy": 0.3,
        "standby_power_per_mib": 0.0, "endurance": 1e10,
        "norm_density": 3.0, "non_volatile": True}}
    cfg["caches"]["l2"]["tech"] = "FeRAM"
    spec = spec_from_dict(cfg)
    assert validate_spec(spec) == []
    build_system(spec, seed=0)


def config_leaves(node, path=()):
    """(path, value) for each value of a parsed JSON config that is neither
    an object nor a list; a path holds keys and list indices."""
    if not isinstance(node, (dict, list)):
        yield path, node
        return
    for key, item in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from config_leaves(item, (*path, key))


def spec_at(node, path):
    for key in path:
        node = node[key] if isinstance(node, (dict, tuple)) else getattr(node, key)
    return node


# Each preset, each shipped preset file parsed straight from disk, and a
# config that gives number kinds as integers.
CONFIGS = {**{name: preset(name) for name in PRESET_NAMES},
           **{path.name: json.loads(path.read_text(encoding="utf-8"))
              for path in sorted(ROOT.glob("src/tiersim/presets/*.json"))},
           "int-numbers": dict(preset("fig32"), write_mix=1, memory_latency_ns=50)}


@pytest.mark.parametrize("name", CONFIGS)
def test_the_spec_holds_each_config_value_at_its_key(name):
    # SystemSpec is laid out as the config is: each value reads back from
    # the spec at its own path, a number kind's integer as its float.
    config = CONFIGS[name]
    spec = spec_from_dict(config)
    for path, value in config_leaves(config):
        owner = spec_at(spec, path[:-1])
        got = spec_at(owner, path[-1:])
        number = (is_dataclass(owner)
                  and field_kinds(type(owner))[path[-1]] in NUMBER_KINDS)
        assert got == value and type(got) is (float if number else type(value)), path


def kind_names(kind):
    """The field names of a dataclass kind, and of each dataclass its
    fields' kinds hold, down to the last."""
    if is_dataclass(kind):
        for name, item in field_kinds(kind).items():
            yield name
            yield from kind_names(item)
    for arg in get_args(kind):
        yield from kind_names(arg)


def test_every_config_key_is_named_in_the_docs():
    doc = (ROOT / "docs" / "config-format.md").read_text(encoding="utf-8")
    names = {*kind_names(SystemSpec), *field_kinds(TechnologyParams),
             *field_kinds(gen_synthetic_trace),
             *field_kinds(gen_message_traffic)}
    assert "caches" in names and "beat_width" in names and "ways" in names
    assert sorted(name for name in names
                  if not re.search(rf"\b{name}\b", doc)) == []


def test_empty_cache_entry_counts_as_absent():
    cfg = preset("fig33")
    cfg["caches"]["l2"] = {}
    spec = spec_from_dict(cfg)
    assert spec.caches.l2 is None
    assert validate_spec(spec) == []
    cfg = preset("fig34")
    cfg["caches"]["l2"] = {}
    assert validate_spec(spec_from_dict(cfg)) == [
        "caches.l2: required when the tier stack has an l2_split_id tier"]


def config_paths(node, path=()):
    """The path of each key and list item of a parsed JSON config."""
    for key, item in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield (*path, key)
        if isinstance(item, (dict, list)):
            yield from config_paths(item, (*path, key))


def config_holds(config, dotted: str) -> bool:
    """Whether a config holds a path such as `caches.l1d.regions[0].ways`."""
    node = config
    for key in re.findall(r"[^.[\]]+|\[\d+\]", dotted):
        if isinstance(node, list) and key[0] == "[" and int(key[1:-1]) < len(node):
            node = node[int(key[1:-1])]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return False
    return True


ODD_VALUES = (None, True, False, 0, -1, 1.9, 2.5, "x", "", [], [1], [1, 2, 3],
              {}, {"a": 1}, 10**30, -0.0, [1.9, 1])


@st.composite
def mutated_presets(draw):
    """A preset with one to eight of its keys or list items set to an odd
    value, or keys renamed."""
    cfg = preset(draw(st.sampled_from(PRESET_NAMES)))
    for _ in range(draw(st.integers(1, 8))):
        *path, key = draw(st.sampled_from(list(config_paths(cfg))))
        node = cfg
        for step in path:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            node[f"{key}_x"] = node.pop(key)
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return cfg


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutated_presets())
def test_each_kind_problem_is_reported_once_at_a_path_the_config_holds(cfg):
    # The config is walked once: a value is reported where it is, and a
    # default worked out from it (the mesh's dims) is not walked again.
    try:
        spec = spec_from_dict(cfg)
    except ConfigError:
        return
    paths = [path for path, _, problem in
             (line.partition(": ") for line in validate_spec(spec))
             if problem == "unknown key" or problem.startswith("must be ")]
    assert len(set(paths)) == len(paths), paths
    # a message generator's clusters, left out, are the system's count,
    # which a one-cluster grid puts out of range
    assert [path for path in paths if not config_holds(cfg, path)
            and path != "workload.message_synthetic.clusters"] == []
