"""Architecture assembly: parse and validate system configs, ship the
paper-figure presets, and hand validated specs to the simulator builder.

A system is a 2D grid of NORMA clusters joined by a mesh NoC. Each cluster
is one coherent UMA domain: cores with private L1s on one or more core
tiers, per-tier L2 arrays (instruction/data split), an optional unified L3
tier shared by the whole cluster column, a three-channel cluster bus, and
one fixed-latency memory controller. Clusters never share addresses; the
only inter-cluster path is message packets on the NoC.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property
from typing import Any, Literal, get_args, get_origin

from .cache import LRU, PSEUDO_RANDOM, WORD_SIZE, CacheGeometry
from .interconnect import MeshTopology
from .memtech import TechnologyParams, catalog_default, catalog_with_overrides
from .workload import (NUMBER_KINDS, NonNegative, Probability, Size,
                       field_kinds, gen_message_traffic, gen_synthetic_trace,
                       generator_parameters, hot_window_problem,
                       kind_problems, start_time_problem)

CORES_L1 = "cores_l1"
L2_SPLIT_ID = "l2_split_id"
L3_UNIFIED = "l3_unified"
MEMORY = "memory"
TierKind = Literal[CORES_L1, L2_SPLIT_ID, L3_UNIFIED, MEMORY]

SHARED = "shared"
DISTRIBUTED = "distributed"

GIC_CORE_LIMIT = 8


class ConfigError(ValueError):
    """A config no spec can be built from (see `_typed`)."""


@dataclass(frozen=True)
class TierSpec:
    kind: TierKind
    index: int


@dataclass(frozen=True)
class CacheConfig(CacheGeometry):
    """A cache level: its geometry, its arrays' technology and topology."""

    tech: str = "SRAM"
    topology: Literal[SHARED, DISTRIBUTED] = SHARED  # or one array per core


@dataclass(kw_only=True)
class SystemSpec:
    """A parsed config. Each field a config sets as one value takes an
    annotation that is that value's only rule, and a default that is the
    config's; `_SCALARS` gives the key each sits at."""

    noc: MeshTopology
    caches: dict[str, CacheConfig | None]
    clocks: dict[str, Size]
    raw: dict
    cluster_grid: tuple[Size, Size] = (1, 1)
    cores_per_cluster: Size = 8
    tier_stack: tuple[TierSpec, ...] = (TierSpec(CORES_L1, 0),)
    bus_beat_width: Size = 16
    memory_latency_ns: NonNegative = 50.0
    write_mix: Probability = 0.5
    histogram_bucket_ps: Size = 1000

    @cached_property
    def catalog(self) -> dict[str, TechnologyParams]:
        """The default catalog with the config's tech_overrides applied."""
        return catalog_with_overrides(self.raw.get("tech_overrides"))

    @property
    def n_clusters(self) -> int:
        return self.cluster_grid[0] * self.cluster_grid[1]

    @property
    def core_tiers(self) -> list[int]:
        return [t.index for t in self.tier_stack if t.kind == CORES_L1]

    @property
    def cores_per_cluster_total(self) -> int:
        return self.cores_per_cluster * len(self.core_tiers)

    @property
    def total_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster_total

    def l2_tier_for_core_tier(self, core_tier: int) -> int | None:
        """Adjacent L2 tier serving a core tier; inner neighbor wins."""
        for idx in (core_tier + 1, core_tier - 1):
            if 0 <= idx < len(self.tier_stack) and self.tier_stack[idx].kind == L2_SPLIT_ID:
                return idx
        return None

    def l3_tier(self) -> int | None:
        for t in self.tier_stack:
            if t.kind == L3_UNIFIED:
                return t.index
        return None


_DEFAULT_CLOCKS = {"core_ps": 1000, "bus_ps": 1000, "noc_ps": 1000,
                   "l2_ps": 1000, "l3_ps": 1000}

CACHE_LEVELS = ("l1i", "l1d", "l2", "l2i", "l3")

# The dotted config key of each SystemSpec field that a config sets as one
# value.
_SCALARS = {"cluster_grid": "cluster_grid",
            "cores_per_cluster": "cores_per_cluster",
            "bus_beat_width": "bus.beat_width",
            "memory_latency_ns": "memory_latency_ns",
            "write_mix": "write_mix",
            "histogram_bucket_ps": "report.histogram_bucket_ps"}
# A generator section's keys are its generator's parameters, less the seed,
# which comes from the run.
_GENERATORS = {"synthetic": gen_synthetic_trace,
              "message_synthetic": gen_message_traffic}


def _config_kinds() -> dict:
    """The kind of each config key, a section's as a dict of its keys'
    kinds; `tech_overrides` and the workload's entries have checks of
    their own. validate_spec reports any other key, so a misspelt or
    misplaced setting never falls back to its default unnoticed."""
    spec = field_kinds(SystemSpec)
    kinds = {"tier_stack": tuple[TierKind, ...],
             "noc": field_kinds(MeshTopology), "bus": {}, "report": {},
             "clocks": dict.fromkeys(_DEFAULT_CLOCKS, get_args(spec["clocks"])[1]),
             "caches": dict.fromkeys(CACHE_LEVELS, field_kinds(CacheConfig)),
             "tech_overrides": Any,
             "workload": dict.fromkeys(("trace", "messages", *_GENERATORS), Any)}
    for name, path in _SCALARS.items():
        section, _, key = path.rpartition(".")
        (kinds[section] if section else kinds)[key] = spec[name]
    return kinds


_CONFIG_KINDS = _config_kinds()
_OVERRIDE_KINDS = {name: kind for name, kind
                   in field_kinds(TechnologyParams).items() if name != "name"}


def _section(node: dict, key: str, path: str) -> dict:
    """`node[key]` as an object, {} when absent or null; anything else is a
    ConfigError naming its dotted path and the type it got."""
    value = node.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object, got {type(value).__name__}")
    return value


def _typed(kind, value, path: str):
    """`value` as a field of kind `kind` stores it: an object under a
    dataclass kind as that dataclass, less the keys it has no field for, a
    list under a tuple kind as a tuple, each item typed in turn, and an
    integer that keeps its number kind as a float. Any other value is kept
    as given for validate_spec to check; an object or a list of the wrong
    shape, or without a field that has no default, is a ConfigError."""
    if is_dataclass(kind):
        node = _section({path: value}, path, path)
        for f in fields(kind):
            if f.default is MISSING and f.name not in node:
                raise ConfigError(f"{path}.{f.name}: required")
        kinds = field_kinds(kind)
        return kind(**{key: _typed(kinds[key], item, f"{path}.{key}")
                       for key, item in node.items() if key in kinds})
    if get_origin(kind) is tuple:
        args = get_args(kind)
        any_length = args[-1] is Ellipsis
        if not (isinstance(value, (list, tuple))
                and (any_length or len(value) == len(args))):
            raise ConfigError(f"{path}: must be a list"
                              f"{'' if any_length else f' of {len(args)}'}, "
                              f"got {value!r}")
        return tuple(_typed(args[0] if any_length else args[i], item,
                            f"{path}[{i}]") for i, item in enumerate(value))
    if (kind in NUMBER_KINDS and isinstance(value, int)
            and not kind_problems(kind, value)):
        return float(value)
    return value


def spec_from_dict(config: dict) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON config dict.

    A config no spec can be built from raises ConfigError. Every value is
    stored as `_typed` keeps it, nothing cast or truncated, so that
    validate_spec can report each value that breaks its kind by its path
    before it applies any rule across fields.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = copy.deepcopy(config)
    kinds = field_kinds(SystemSpec)
    given = {}
    for name, path in _SCALARS.items():
        section, _, key = path.rpartition(".")
        node = _section(cfg, section, section) if section else cfg
        if key in node:
            given[name] = _typed(kinds[name], node[key], path)
    if "tier_stack" in cfg:
        given["tier_stack"] = tuple(TierSpec(kind, i) for i, kind in enumerate(
            _typed(_CONFIG_KINDS["tier_stack"], cfg["tier_stack"], "tier_stack")))
    # The mesh defaults to the cluster grid, one layer per core tier.
    tiers = [t.kind for t in given.get("tier_stack", SystemSpec.tier_stack)]
    dims = [*given.get("cluster_grid", SystemSpec.cluster_grid),
            tiers.count(CORES_L1) or 1]
    noc = _typed(MeshTopology, {"dims": dims, **_section(cfg, "noc", "noc")},
                 "noc")
    clocks = _section(cfg, "clocks", "clocks")
    cache_cfg = _section(cfg, "caches", "caches")
    caches = {}
    for name in CACHE_LEVELS:
        entry = _section(cache_cfg, name, f"caches.{name}")
        caches[name] = _typed(CacheConfig, entry, f"caches.{name}") if entry else None
    overrides = _section(cfg, "tech_overrides", "tech_overrides")
    for name in overrides:
        _section(overrides, name, f"tech_overrides.{name}")
    # The CLI reads the workload from the raw config; only the types of
    # its sections are checked here, with the other sections.
    workload = _section(cfg, "workload", "workload")
    for section in _GENERATORS:
        _section(workload, section, f"workload.{section}")
    return SystemSpec(noc=noc, caches=caches, raw=cfg, clocks={
        name: clocks.get(name, period) for name, period in _DEFAULT_CLOCKS.items()},
        **given)


def _config_violations(raw: dict) -> list[str]:
    """One violation per key that no section of the config defines, per
    value that breaks its kind, and per field a new technology leaves out,
    each by its dotted path."""
    found = kind_problems(_CONFIG_KINDS, raw)
    for name, entry in (raw.get("tech_overrides") or {}).items():
        found += kind_problems(_OVERRIDE_KINDS, entry, f"tech_overrides.{name}")
        if name not in catalog_default():
            found += [(f"tech_overrides.{name}.{key}", "required")
                      for key in _OVERRIDE_KINDS if key not in (entry or {})]
    return [f"{path}: {problem}" for path, problem in found]


def generator_arguments(spec: SystemSpec, section: str) -> dict:
    """The arguments, less the seed, of a workload generator section: its
    keys over the defaults, where `cores` and `clusters` are the system's."""
    if section == "synthetic":
        defaults = {"cores": spec.total_cores, "length": 1000,
                    "hot_fraction": 0.9, "hot_set_bytes": 8192}
    else:
        defaults = {"clusters": spec.n_clusters, "cycles": 1000,
                    "rate": 0.002, "payload_bytes": 64}
    return defaults | spec.raw["workload"][section]


def _workload_violations(spec: SystemSpec) -> list[str]:
    """One violation per record file that is not a path or sits beside its
    generator section, per generator key that is unknown or breaks its
    rule, for hot windows past the address space or a last record that
    starts too late, and for an `access_size` that does not divide the L1d
    block (accesses aligned to it cross blocks). A key that is present and
    not null counts, whatever its value, so an empty generator section
    generates with its defaults."""
    out: list[str] = []
    workload = spec.raw.get("workload") or {}
    for records, section in (("trace", "synthetic"),
                             ("messages", "message_synthetic")):
        path = workload.get(records)
        if path is not None and not (isinstance(path, str) and path):
            out.append(f"workload.{records}: must be a file path, got {path!r}")
        if workload.get(section) is None:
            continue
        if path is not None:
            out.append(f"workload: choose either {records} or {section}, not both")
        args = generator_arguments(spec, section)
        rules = generator_parameters(_GENERATORS[section])
        del rules["seed"]
        problems = kind_problems(rules, args, f"workload.{section}",
                                 spec.total_cores, spec.n_clusters)
        if section == "synthetic" and not problems:
            problems = [(f"workload.synthetic.{key}", problem) for key, problem in (
                ("hot_set_bytes", hot_window_problem(
                    args["cores"], args["hot_set_bytes"],
                    args.get("hot_overlap", 0.0))),
                ("tick_interval", start_time_problem(
                    args["length"], args.get("tick_interval", 1),
                    spec.clocks["core_ps"]))) if problem]
        out.extend(f"{key}: {problem}" for key, problem in problems)
    size = (workload.get("synthetic") or {}).get("access_size")
    block = spec.caches["l1d"].block_size if spec.caches.get("l1d") else 0
    if isinstance(size, int) and size >= 1 and block % size:
        out.append(f"workload.synthetic.access_size: {size} does not divide "
                   f"the {block}-byte block; an access aligned to it crosses "
                   f"a {block}-byte block boundary")
    return out


def validate_spec(spec: SystemSpec) -> list[str]:
    """Every constraint violation in the spec, with a location path each:
    each key no section defines and each value that breaks its kind, or,
    when there is none, each rule across fields that the spec breaks.

    Violations are data, not exceptions; an empty list means buildable.
    """
    out = _config_violations(spec.raw)
    if out:
        return out
    try:  # built only now, once every override keeps its kind
        catalog = spec.catalog
    except ValueError as exc:  # a non-volatile technology with standby power
        return [f"tech_overrides.{exc}"]
    out = _workload_violations(spec)

    kinds = [t.kind for t in spec.tier_stack]
    if CORES_L1 not in kinds:
        out.append("tier_stack: at least one cores_l1 tier is required")
    for i, kind in enumerate(kinds):
        neighbors = {kinds[j] for j in (i - 1, i + 1) if 0 <= j < len(kinds)}
        if kind == L2_SPLIT_ID and CORES_L1 not in neighbors:
            out.append(f"tier_stack[{i}]: l2_split_id tier not adjacent to a cores_l1 tier")
        if kind == L3_UNIFIED and L2_SPLIT_ID not in neighbors:
            out.append(f"tier_stack[{i}]: l3_unified tier not adjacent to an l2_split_id tier")
    if kinds.count(L3_UNIFIED) > 1:
        out.append("tier_stack: at most one l3_unified tier is supported")

    has_l2_tier = L2_SPLIT_ID in kinds
    has_l3_tier = L3_UNIFIED in kinds
    if spec.caches.get("l1i") is None:
        out.append("caches.l1i: required")
    if spec.caches.get("l1d") is None:
        out.append("caches.l1d: required")
    if has_l2_tier and spec.caches.get("l2") is None:
        out.append("caches.l2: required when the tier stack has an l2_split_id tier")
    if not has_l2_tier and spec.caches.get("l2") is not None:
        out.append("caches.l2: configured but no l2_split_id tier in the stack")
    if has_l3_tier and spec.caches.get("l3") is None:
        out.append("caches.l3: required when the tier stack has an l3_unified tier")
    if not has_l3_tier and spec.caches.get("l3") is not None:
        out.append("caches.l3: configured but no l3_unified tier in the stack")

    for name, cfg in spec.caches.items():
        if cfg is None:
            continue
        out.extend(cfg.violations(f"caches.{name}"))
        if cfg.tech not in catalog:
            out.append(f"caches.{name}.tech: unknown technology {cfg.tech!r}")
        for r in cfg.regions:
            if r.tech not in catalog:
                out.append(f"caches.{name}.regions: unknown technology {r.tech!r}")
        if name != "l2" and cfg.topology != SHARED:
            out.append(f"caches.{name}.topology: only the l2 level may be distributed")

    # The data images, ClusterMemory and the snoop filter's key all assume
    # one block size per hierarchy: the L1d's, which holds at least one
    # 8-byte word.
    l1d = spec.caches.get("l1d")
    if l1d is not None:
        block = l1d.block_size
        if block < WORD_SIZE:
            out.append(f"caches.l1d.block_size: must be >= {WORD_SIZE} ({block})")
        for name in ("l2", "l2i", "l3"):
            cfg = spec.caches.get(name)
            if cfg is not None and cfg.block_size != block:
                out.append(f"caches.{name}.block_size: must equal caches.l1d."
                           f"block_size ({block}), got {cfg.block_size}")

    if spec.noc.dims[0] < spec.cluster_grid[0] or spec.noc.dims[1] < spec.cluster_grid[1]:
        out.append(f"noc.dims: mesh {spec.noc.dims} smaller than cluster grid "
                   f"{spec.cluster_grid}")
    return out


def warn_on_build(spec: SystemSpec) -> None:
    total = spec.cores_per_cluster_total
    if total > GIC_CORE_LIMIT:
        warnings.warn(
            f"cluster size {total} exceeds the {GIC_CORE_LIMIT}-core interrupt "
            f"controller limit of the reference platform", stacklevel=2)


def build_system(spec: SystemSpec, seed: int = 0):
    """Instantiate a simulatable system from a validated spec."""
    violations = validate_spec(spec)
    if violations:
        raise ConfigError(f"invalid system spec: {violations[0]}")
    warn_on_build(spec)
    from .system import System
    return System(spec, seed=seed)


# --- presets mirroring the reference figures ----------------------------------


def _base_preset() -> dict:
    return {
        "cluster_grid": [2, 2],
        "cores_per_cluster": 8,
        "tier_stack": [CORES_L1],
        "noc": {"link_latency": 1, "tsv_latency": 1, "router_delay": 1,
                "flit_width": 16},
        "bus": {"beat_width": 16},
        "clocks": dict(_DEFAULT_CLOCKS),
        "memory_latency_ns": 50.0,
        "write_mix": 0.5,
        "caches": {
            "l1i": {"capacity": 32768, "block_size": 64, "associativity": 2,
                    "replacement": LRU, "tech": "SRAM"},
            "l1d": {"capacity": 32768, "block_size": 64, "associativity": 2,
                    "replacement": LRU, "tech": "SRAM"},
        },
        "workload": {
            "synthetic": {"length": 2000, "hot_fraction": 0.9,
                          "hot_set_bytes": 8192, "tick_interval": 4},
            "message_synthetic": {"cycles": 2000, "rate": 0.002,
                                  "payload_bytes": 64},
        },
    }


_L2_BLOCK = {"capacity": 1048576, "block_size": 64, "associativity": 16,
             "replacement": PSEUDO_RANDOM, "tech": "SRAM", "topology": SHARED}
_L3_BLOCK = {"capacity": 4194304, "block_size": 64, "associativity": 16,
             "replacement": PSEUDO_RANDOM, "tech": "SRAM",
             "banks": 4, "nuca_base_latency": 2, "nuca_per_hop": 1}


def preset(name: str) -> dict:
    """Config dict for one of the shipped figure presets."""
    cfg = _base_preset()
    if name == "fig32":
        cfg["cluster_grid"] = [1, 1]
        del cfg["workload"]["message_synthetic"]
    elif name == "fig33":
        pass
    elif name == "fig34":
        cfg["tier_stack"] = [CORES_L1, L2_SPLIT_ID]
        cfg["caches"]["l2"] = dict(_L2_BLOCK)
    elif name == "fig35b":
        cfg["tier_stack"] = [CORES_L1, L2_SPLIT_ID, L3_UNIFIED]
        cfg["caches"]["l2"] = dict(_L2_BLOCK)
        cfg["caches"]["l3"] = dict(_L3_BLOCK)
    elif name == "fig36":
        cfg["tier_stack"] = [CORES_L1, L2_SPLIT_ID, L3_UNIFIED,
                             L2_SPLIT_ID, CORES_L1]
        cfg["caches"]["l2"] = dict(_L2_BLOCK)
        cfg["caches"]["l3"] = dict(_L3_BLOCK)
    else:
        raise KeyError(f"unknown preset {name!r}")
    return cfg


PRESET_NAMES = ("fig32", "fig33", "fig34", "fig35b", "fig36")
