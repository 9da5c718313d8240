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
from dataclasses import dataclass

from .cache import LRU, PSEUDO_RANDOM, WORD_SIZE, CacheGeometry, Region
from .interconnect import MeshTopology
from .memtech import TechnologyParams, catalog_with_overrides
from .workload import (argument_problems, gen_message_traffic,
                       gen_synthetic_trace, generator_parameters,
                       hot_window_problem)

CORES_L1 = "cores_l1"
L2_SPLIT_ID = "l2_split_id"
L3_UNIFIED = "l3_unified"
MEMORY = "memory"
TIER_KINDS = (CORES_L1, L2_SPLIT_ID, L3_UNIFIED, MEMORY)

SHARED = "shared"
DISTRIBUTED = "distributed"

GIC_CORE_LIMIT = 8


class ConfigError(ValueError):
    """Malformed configuration structure (wrong types, unknown fields)."""


@dataclass(frozen=True)
class TierSpec:
    kind: str
    index: int


@dataclass(frozen=True)
class CacheConfig:
    geometry: CacheGeometry
    tech: str
    topology: str = SHARED   # shared per cluster, or distributed per core


@dataclass
class SystemSpec:
    """A parsed config, every field filled by `spec_from_dict`."""

    cluster_grid: tuple[int, int]
    cores_per_cluster: int
    tier_stack: tuple[TierSpec, ...]
    noc: MeshTopology
    bus_beat_width: int
    clocks: dict[str, int]
    memory_latency_ns: float
    write_mix: float
    caches: dict[str, CacheConfig | None]
    catalog: dict[str, TechnologyParams]
    histogram_bucket_ps: int
    raw: dict

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

# The keys the config and each of its sections may carry. validate_spec
# reports any other key, so a misspelt or misplaced setting never falls back
# to its default unnoticed.
_TOP_KEYS = ("cluster_grid", "cores_per_cluster", "tier_stack", "noc", "bus",
             "clocks", "memory_latency_ns", "write_mix", "caches",
             "tech_overrides", "workload", "report")
_SECTION_KEYS = {
    "noc": ("dims", "link_latency", "tsv_latency", "router_delay",
            "flit_width"),
    "bus": ("beat_width",),
    "clocks": tuple(_DEFAULT_CLOCKS),
    "report": ("histogram_bucket_ps",),
    "workload": ("trace", "synthetic", "messages", "message_synthetic"),
    "caches": CACHE_LEVELS,
}
_CACHE_KEYS = ("capacity", "block_size", "associativity", "banks",
               "replacement", "nuca_base_latency", "nuca_per_hop", "regions",
               "partial_writes", "tech", "topology")
_REGION_KEYS = ("ways", "tech")
# A generator section's keys are its generator's parameters, less the seed,
# which comes from the run.
_GENERATORS = {"synthetic": gen_synthetic_trace,
              "message_synthetic": gen_message_traffic}


def _cache_config_from_dict(d: dict, default_tech: str = "SRAM") -> CacheConfig:
    try:
        regions = tuple(
            Region(int(r["ways"][0]), int(r["ways"][1]), str(r["tech"]))
            for r in d.get("regions", []))
        geom = CacheGeometry(
            capacity=int(d["capacity"]),
            block_size=int(d.get("block_size", 64)),
            associativity=int(d.get("associativity", 2)),
            banks=int(d.get("banks", 1)),
            replacement=str(d.get("replacement", LRU)),
            nuca_base_latency=int(d.get("nuca_base_latency", 0)),
            nuca_per_hop=int(d.get("nuca_per_hop", 0)),
            regions=regions,
            partial_writes=bool(d.get("partial_writes", False)),
        )
        topology = str(d.get("topology", SHARED))
        return CacheConfig(geometry=geom, tech=str(d.get("tech", default_tech)),
                           topology=topology)
    except (KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"bad cache config {d!r}: {exc}") from None


def _section(node: dict, key: str, path: str) -> dict:
    """`node[key]` as an object, {} when absent or null; anything else is a
    ConfigError naming its dotted path and the type it got."""
    value = node.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object, got {type(value).__name__}")
    return value


def spec_from_dict(config: dict) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON config dict.

    Structural problems raise ConfigError; semantic constraints are left
    to validate_spec so every violation can be reported at once.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = copy.deepcopy(config)
    try:
        grid = tuple(int(v) for v in cfg.get("cluster_grid", [1, 1]))
        if len(grid) != 2:
            raise ConfigError("cluster_grid must be [X, Y]")
        tiers = tuple(TierSpec(str(k), i)
                      for i, k in enumerate(cfg.get("tier_stack", [CORES_L1])))
        clocks = dict(_DEFAULT_CLOCKS)
        clocks.update({str(k): int(v)
                       for k, v in _section(cfg, "clocks", "clocks").items()})
        noc_cfg = _section(cfg, "noc", "noc")
        n_core_tiers = sum(1 for t in tiers if t.kind == CORES_L1) or 1
        dims = tuple(int(v) for v in noc_cfg.get(
            "dims", [grid[0], grid[1], n_core_tiers]))
        if len(dims) != 3:
            raise ConfigError("noc.dims must be [X, Y, Z]")
        noc = MeshTopology(
            dims=dims,
            link_latency=int(noc_cfg.get("link_latency", 1)),
            tsv_latency=int(noc_cfg.get("tsv_latency", 1)),
            router_delay=int(noc_cfg.get("router_delay", 1)),
            flit_width=int(noc_cfg.get("flit_width", 16)),
        )
        caches: dict[str, CacheConfig | None] = {}
        cache_cfg = _section(cfg, "caches", "caches")
        for name in CACHE_LEVELS:
            entry = _section(cache_cfg, name, f"caches.{name}")
            caches[name] = _cache_config_from_dict(entry) if entry else None
        catalog = catalog_with_overrides(
            _section(cfg, "tech_overrides", "tech_overrides"))
        # The CLI reads the workload from the raw config; only the types of
        # its sections are checked here, with the other sections.
        workload = _section(cfg, "workload", "workload")
        for section in _GENERATORS:
            _section(workload, section, f"workload.{section}")
        return SystemSpec(
            cluster_grid=grid,
            cores_per_cluster=int(cfg.get("cores_per_cluster", 8)),
            tier_stack=tiers,
            noc=noc,
            bus_beat_width=int(_section(cfg, "bus", "bus").get("beat_width", 16)),
            clocks=clocks,
            memory_latency_ns=float(cfg.get("memory_latency_ns", 50.0)),
            write_mix=float(cfg.get("write_mix", 0.5)),
            caches=caches,
            catalog=catalog,
            histogram_bucket_ps=int(_section(cfg, "report", "report").get(
                "histogram_bucket_ps", 1000)),
            raw=cfg,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _unknown_keys(raw: dict) -> list[str]:
    """One violation per config key that no section defines, by its dotted
    path: the top level, noc, bus, clocks, report, workload and its
    generator sections, caches, each cache entry and each of its regions."""
    out: list[str] = []

    def check(node, prefix: str, allowed: tuple[str, ...]) -> None:
        if isinstance(node, dict):
            out.extend(f"{prefix}{key}: unknown key" for key in node
                       if key not in allowed)

    check(raw, "", _TOP_KEYS)
    for section, allowed in _SECTION_KEYS.items():
        check(raw.get(section), f"{section}.", allowed)
    workload = raw.get("workload")
    for section, gen in _GENERATORS.items() if isinstance(workload, dict) else ():
        check(workload.get(section), f"workload.{section}.",
              tuple(generator_parameters(gen)))
    caches = raw.get("caches")
    for name in CACHE_LEVELS if isinstance(caches, dict) else ():
        entry = caches.get(name)
        if not isinstance(entry, dict):
            continue
        check(entry, f"caches.{name}.", _CACHE_KEYS)
        regions = entry.get("regions")
        for i, region in enumerate(regions if isinstance(regions, list) else ()):
            check(region, f"caches.{name}.regions[{i}].", _REGION_KEYS)
    return out


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
    generator section, per generator argument that breaks its rule, for hot
    windows past the address space, and for an `access_size` that does not
    divide the L1d block (accesses aligned to it cross blocks). A key that
    is present and not null counts, whatever its value, so an empty
    generator section generates with its defaults."""
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
        problems = argument_problems(_GENERATORS[section], args,
                                     spec.total_cores, spec.n_clusters)
        if section == "synthetic" and not problems:
            window = hot_window_problem(args["cores"], args["hot_set_bytes"],
                                        args.get("hot_overlap", 0.0))
            problems = [("hot_set_bytes", window)] if window else []
        out.extend(f"workload.{section}.{name}: {problem}"
                   for name, problem in problems)
    size = (workload.get("synthetic") or {}).get("access_size")
    block = spec.caches["l1d"].geometry.block_size if spec.caches.get("l1d") else 0
    if isinstance(size, int) and size >= 1 and block % size:
        out.append(f"workload.synthetic.access_size: {size} does not divide "
                   f"the {block}-byte block; an access aligned to it crosses "
                   f"a {block}-byte block boundary")
    return out


def validate_spec(spec: SystemSpec) -> list[str]:
    """Every constraint violation in the spec, with a location path each.

    Violations are data, not exceptions; an empty list means buildable.
    """
    out: list[str] = _unknown_keys(spec.raw) + _workload_violations(spec)
    gx, gy = spec.cluster_grid
    if gx < 1 or gy < 1:
        out.append(f"cluster_grid: dimensions must be >= 1 ({spec.cluster_grid})")
    if spec.cores_per_cluster < 1:
        out.append(f"cores_per_cluster: must be >= 1 ({spec.cores_per_cluster})")

    kinds = [t.kind for t in spec.tier_stack]
    for i, kind in enumerate(kinds):
        if kind not in TIER_KINDS:
            out.append(f"tier_stack[{i}]: unknown tier kind {kind!r}")
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
        out.extend(cfg.geometry.violations(f"caches.{name}"))
        if cfg.tech not in spec.catalog:
            out.append(f"caches.{name}.tech: unknown technology {cfg.tech!r}")
        for r in cfg.geometry.regions:
            if r.tech not in spec.catalog:
                out.append(f"caches.{name}.regions: unknown technology {r.tech!r}")
        if cfg.topology not in (SHARED, DISTRIBUTED):
            out.append(f"caches.{name}.topology: must be shared or distributed")
        if name != "l2" and cfg.topology != SHARED:
            out.append(f"caches.{name}.topology: only the l2 level may be distributed")

    # The data images, ClusterMemory and the snoop filter's key all assume
    # one block size per hierarchy: the L1d's, which holds at least one
    # 8-byte word.
    l1d = spec.caches.get("l1d")
    if l1d is not None:
        block = l1d.geometry.block_size
        if block < WORD_SIZE:
            out.append(f"caches.l1d.block_size: must be >= {WORD_SIZE} ({block})")
        for name in ("l2", "l2i", "l3"):
            cfg = spec.caches.get(name)
            if cfg is not None and cfg.geometry.block_size != block:
                out.append(f"caches.{name}.block_size: must equal caches.l1d."
                           f"block_size ({block}), got {cfg.geometry.block_size}")

    out.extend(spec.noc.violations())
    if spec.noc.dims[0] < spec.cluster_grid[0] or spec.noc.dims[1] < spec.cluster_grid[1]:
        out.append(f"noc.dims: mesh {spec.noc.dims} smaller than cluster grid "
                   f"{spec.cluster_grid}")
    for name, period in spec.clocks.items():
        if period <= 0:
            out.append(f"clocks.{name}: period must be > 0 ps ({period})")
    if spec.bus_beat_width < 1:
        out.append(f"bus.beat_width: must be >= 1 ({spec.bus_beat_width})")
    if spec.memory_latency_ns < 0:
        out.append(f"memory_latency_ns: must be >= 0 ({spec.memory_latency_ns})")
    if not 0.0 <= spec.write_mix <= 1.0:
        out.append(f"write_mix: must be in [0, 1] ({spec.write_mix})")
    if spec.histogram_bucket_ps < 1:
        out.append(f"report.histogram_bucket_ps: must be >= 1 "
                   f"({spec.histogram_bucket_ps})")
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
