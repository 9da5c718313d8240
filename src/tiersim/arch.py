"""Architecture assembly: parse and validate system configs, read the
paper-figure presets, and hand validated specs to the simulator builder.
The presets are the JSON files shipped in the package's `presets`
directory, one per figure, in the config format any file uses.

A system is a 2D grid of NORMA clusters joined by a mesh NoC. Each cluster
is one coherent UMA domain: cores with private L1s on one or more core
tiers, per-tier L2 arrays (instruction/data split), an optional unified L3
tier shared by the whole cluster column, a three-channel cluster bus, and
one fixed-latency memory controller. Clusters never share addresses; the
only inter-cluster path is message packets on the NoC.
"""

from __future__ import annotations

import copy
import json
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from inspect import signature
from typing import Any, Literal

from .cache import WORD_SIZE, CacheGeometry
from .interconnect import MeshTopology
from .memtech import TechnologyParams, catalog_default, catalog_with_overrides
from .workload import (ConfigError, NonNegative, Probability, Size,
                       field_kinds, gen_message_traffic, gen_synthetic_trace,
                       hot_window_problem, kind_problems, start_time_problem,
                       typed)

CORES_L1 = "cores_l1"
L2_SPLIT_ID = "l2_split_id"
L3_UNIFIED = "l3_unified"
MEMORY = "memory"
TierKind = Literal[CORES_L1, L2_SPLIT_ID, L3_UNIFIED, MEMORY]

SHARED = "shared"
DISTRIBUTED = "distributed"

GIC_CORE_LIMIT = 8


@dataclass(frozen=True)
class CacheConfig(CacheGeometry):
    """A cache level: its geometry, its arrays' technology and topology."""

    tech: str = "SRAM"
    topology: Literal[SHARED, DISTRIBUTED] = SHARED  # or one array per core


@dataclass(frozen=True)
class BusConfig:
    beat_width: Size = 16  # bytes per beat on all three channels


@dataclass(frozen=True)
class ClocksConfig:
    """Each clock domain's period, in ps."""

    core_ps: Size = 1000
    bus_ps: Size = 1000
    noc_ps: Size = 1000
    l2_ps: Size = 1000
    l3_ps: Size = 1000


@dataclass(frozen=True)
class CachesConfig:
    """Each cache level, None where the config leaves it out."""

    l1i: CacheConfig | None = None
    l1d: CacheConfig | None = None
    l2: CacheConfig | None = None
    l2i: CacheConfig | None = None
    l3: CacheConfig | None = None


@dataclass(frozen=True)
class ReportConfig:
    histogram_bucket_ps: Size = 1000


@dataclass(frozen=True)
class WorkloadConfig:
    """A record file or a generator section each for the memory accesses
    and the messages. validate_spec checks that a file is a path, and a
    section's keys against its generator's parameters."""

    trace: Any = None
    synthetic: dict[str, Any] | None = None
    messages: Any = None
    message_synthetic: dict[str, Any] | None = None


@dataclass(kw_only=True)
class SystemSpec:
    """A parsed config, laid out as the config is: each field holds the key
    of its name and each section is a dataclass of its own, whose fields
    hold the section's keys. Each annotation is its key's only rule, and
    each default the key's default. `raw` is the config as given, and
    `problems` the (path, problem) pairs its kinds found in it."""

    cluster_grid: tuple[Size, Size] = (1, 1)
    cores_per_cluster: Size = 8
    tier_stack: tuple[TierKind, ...] = (CORES_L1,)
    noc: MeshTopology = MeshTopology()
    bus: BusConfig = BusConfig()
    clocks: ClocksConfig = ClocksConfig()
    memory_latency_ns: NonNegative = 50.0
    write_mix: Probability = 0.5
    caches: CachesConfig = CachesConfig()
    tech_overrides: dict[str, dict[str, Any] | None] = field(default_factory=dict)
    report: ReportConfig = ReportConfig()
    workload: WorkloadConfig = WorkloadConfig()
    raw, problems = None, ()  # not fields, so not keys

    def __post_init__(self) -> None:
        # The mesh defaults to the cluster grid, one layer per core tier.
        if self.noc.dims is None:
            self.noc = replace(self.noc, dims=(*self.cluster_grid,
                                               len(self.core_tiers) or 1))

    @cached_property
    def catalog(self) -> dict[str, TechnologyParams]:
        """The default catalog with the config's tech_overrides applied."""
        return catalog_with_overrides(self.tech_overrides)

    @property
    def n_clusters(self) -> int:
        return self.cluster_grid[0] * self.cluster_grid[1]

    @property
    def core_tiers(self) -> list[int]:
        return [i for i, kind in enumerate(self.tier_stack) if kind == CORES_L1]

    @property
    def cores_per_cluster_total(self) -> int:
        return self.cores_per_cluster * len(self.core_tiers)

    @property
    def total_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster_total

    def l2_tier_for_core_tier(self, core_tier: int) -> int | None:
        """Adjacent L2 tier serving a core tier; inner neighbor wins."""
        for idx in (core_tier + 1, core_tier - 1):
            if 0 <= idx < len(self.tier_stack) and self.tier_stack[idx] == L2_SPLIT_ID:
                return idx
        return None

    def l3_tier(self) -> int | None:
        stack = self.tier_stack
        return stack.index(L3_UNIFIED) if L3_UNIFIED in stack else None


# A generator section's keys are its generator's parameters, less the seed,
# which comes from the run.
_GENERATORS = {"synthetic": gen_synthetic_trace,
              "message_synthetic": gen_message_traffic}
_OVERRIDE_KINDS = {name: kind for name, kind
                   in field_kinds(TechnologyParams).items() if name != "name"}


def spec_from_dict(config: dict) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON config dict.

    A config no spec can be built from raises ConfigError. Every value is
    stored as `typed` keeps it, nothing cast or truncated, and each value
    that breaks its kind is kept in `problems` by its path, so that
    validate_spec reports them before it applies any rule across fields.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = copy.deepcopy(config)
    problems: list[tuple[str, str]] = []
    spec = typed(SystemSpec, cfg, "", problems)
    spec.raw, spec.problems = cfg, problems
    return spec


def _config_violations(spec: SystemSpec) -> list[str]:
    """One violation per key that no section of the config defines, per
    value that breaks its kind, and per field a new technology leaves out,
    each by its dotted path."""
    found = list(spec.problems)
    for name, entry in spec.tech_overrides.items():
        found += kind_problems(_OVERRIDE_KINDS, entry, f"tech_overrides.{name}")
        if name not in catalog_default():
            found += [(f"tech_overrides.{name}.{key}", "required")
                      for key in _OVERRIDE_KINDS if key not in (entry or {})]
    return [f"{path}: {problem}" for path, problem in found]


def generator_arguments(spec: SystemSpec, section: str) -> dict:
    """The arguments, less the seed, that a workload generator section
    calls its generator with: the section's keys over the generator's
    defaults, where `cores` and `clusters` default to the system's."""
    params = signature(_GENERATORS[section]).parameters.values()
    system = ({"cores": spec.total_cores} if section == "synthetic"
              else {"clusters": spec.n_clusters})
    return ({p.name: p.default for p in params if p.default is not p.empty}
            | system | getattr(spec.workload, section))


def _workload_violations(spec: SystemSpec) -> list[str]:
    """One violation per record file that is not a path or sits beside its
    generator section, per generator key that is unknown or breaks its
    rule, for hot windows past the address space or a last record that
    starts too late, and for an `access_size` that does not divide the L1d
    block (accesses aligned to it cross blocks). A key that is present and
    not null counts, whatever its value, so an empty generator section
    generates with its defaults. Without a core tier the synthetic rules
    are not applied: the tier-stack rule names the cause."""
    out: list[str] = []
    workload = spec.workload
    for records, section in (("trace", "synthetic"),
                             ("messages", "message_synthetic")):
        path = getattr(workload, records)
        if path is not None and not (isinstance(path, str) and path):
            out.append(f"workload.{records}: must be a file path, got {path!r}")
        if getattr(workload, section) is None:
            continue
        if path is not None:
            out.append(f"workload: choose either {records} or {section}, not both")
        if section == "synthetic" and not spec.core_tiers:
            continue
        args = generator_arguments(spec, section)
        rules = dict(field_kinds(_GENERATORS[section]))
        del rules["seed"]
        problems = kind_problems(rules, args, f"workload.{section}",
                                 spec.total_cores, spec.n_clusters)
        if section == "synthetic" and not problems:
            problems = [(f"workload.synthetic.{key}", problem) for key, problem in (
                ("hot_set_bytes", hot_window_problem(
                    args["cores"], args["hot_set_bytes"], args["hot_overlap"])),
                ("tick_interval", start_time_problem(
                    args["length"], args["tick_interval"],
                    spec.clocks.core_ps))) if problem]
        out.extend(f"{key}: {problem}" for key, problem in problems)
    size = (workload.synthetic or {}).get("access_size")
    block = spec.caches.l1d.block_size if spec.caches.l1d else 0
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
    out = _config_violations(spec)
    if out:
        return out
    try:  # built only now, once every override keeps its kind
        catalog = spec.catalog
    except ValueError as exc:  # a non-volatile technology with standby power
        return [f"tech_overrides.{exc}"]
    out = _workload_violations(spec)

    kinds = spec.tier_stack
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
    if spec.caches.l1i is None:
        out.append("caches.l1i: required")
    if spec.caches.l1d is None:
        out.append("caches.l1d: required")
    if has_l2_tier and spec.caches.l2 is None:
        out.append("caches.l2: required when the tier stack has an l2_split_id tier")
    if not has_l2_tier and spec.caches.l2 is not None:
        out.append("caches.l2: configured but no l2_split_id tier in the stack")
    if has_l3_tier and spec.caches.l3 is None:
        out.append("caches.l3: required when the tier stack has an l3_unified tier")
    if not has_l3_tier and spec.caches.l3 is not None:
        out.append("caches.l3: configured but no l3_unified tier in the stack")

    for name, cfg in vars(spec.caches).items():
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
    l1d = spec.caches.l1d
    if l1d is not None:
        block = l1d.block_size
        if block < WORD_SIZE:
            out.append(f"caches.l1d.block_size: must be >= {WORD_SIZE} ({block})")
        for name in ("l2", "l2i", "l3"):
            cfg = getattr(spec.caches, name)
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

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")
PRESET_NAMES = tuple(sorted(name.removesuffix(".json")
                            for name in os.listdir(_PRESET_DIR)
                            if name.endswith(".json")))


def preset(name: str) -> dict:
    """Config dict for one of the shipped figure presets: the file
    presets/<name>.json, parsed afresh on every call."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}")
    with open(os.path.join(_PRESET_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# A preset checked at import works out the kinds its keys and generator
# sections take, so that the first config a process reads costs no more.
validate_spec(spec_from_dict(preset("fig36")))
