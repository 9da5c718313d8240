"""Memory technology catalog, per-access cost model, level energy model and
the per-level technology scoring advisor.

All dynamic numbers are nanoseconds / nanojoules; standby power is mW per MiB
of capacity. Endurance is writes-per-line; technologies whose endurance is
large enough to never matter at cache scale carry the UNLIMITED sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# Sentinel for write endurance that can never be exhausted (1e16+ class parts).
UNLIMITED = math.inf

READ = "read"
WRITE_SET = "write_set"
WRITE_RESET = "write_reset"

# mW * ns -> nJ  (1 mW = 1e-3 J/s, 1 ns = 1e-9 s, product = 1e-12 J = 1e-3 nJ)
_MW_NS_TO_NJ = 1e-3


@dataclass(frozen=True)
class TechnologyParams:
    """One memory technology's latency/energy/standby/endurance/density record."""

    name: str
    read_latency: float          # ns
    write_set_latency: float     # ns
    write_reset_latency: float   # ns
    read_energy: float           # nJ per access
    write_set_energy: float      # nJ per access
    write_reset_energy: float    # nJ per access
    standby_power_per_mib: float  # mW per MiB of capacity
    endurance: float             # max writes per line; UNLIMITED for 1e16+ parts
    norm_density: float          # relative to SRAM = 1
    non_volatile: bool

    def validate(self) -> None:
        if not (self.read_latency > 0 and self.write_set_latency > 0
                and self.write_reset_latency > 0):
            raise ValueError(f"{self.name}: latencies must be > 0")
        if min(self.read_energy, self.write_set_energy, self.write_reset_energy) < 0:
            raise ValueError(f"{self.name}: energies must be >= 0")
        if self.standby_power_per_mib < 0:
            raise ValueError(f"{self.name}: standby power must be >= 0")
        if self.non_volatile and self.standby_power_per_mib != 0:
            raise ValueError(f"{self.name}: non-volatile implies zero standby power")
        if not self.endurance >= 1:
            raise ValueError(f"{self.name}: endurance must be >= 1")
        if not self.norm_density > 0:
            raise ValueError(f"{self.name}: norm_density must be > 0")


@dataclass
class AccessCounters:
    """Read/write access counts plus busy/idle time split for one component."""

    n_read: int = 0
    n_write: int = 0
    busy_time: float = 0.0  # ns
    idle_time: float = 0.0  # ns


# Defaults are arithmetic midpoints of the published per-technology ranges at
# 32nm (45nm for density). Standby power of the volatile parts is a knob with
# no published number; reports flag it as configurable.
_DEFAULTS = (
    TechnologyParams("SRAM", 3.0, 3.0, 3.0, 0.45, 0.75, 0.75, 1.0, UNLIMITED, 1.0, False),
    TechnologyParams("DRAM", 4.0, 4.0, 4.0, 0.70, 0.70, 0.70, 1.5, UNLIMITED, 4.0, False),
    TechnologyParams("eDRAM", 4.0, 4.0, 4.0, 0.60, 0.60, 0.60, 1.5, UNLIMITED, 4.0, False),
    TechnologyParams("PCRAM", 4.0, 105.0, 43.0, 0.40, 4.0, 9.5, 0.0, 1e8, 16.0, True),
    TechnologyParams("MRAM", 1.5, 3.5, 3.5, 0.13, 0.35, 0.35, 0.0, 1e12, 4.0, True),
    TechnologyParams("DWM", 2.0, 3.5, 3.5, 0.34, 0.45, 0.45, 0.0, UNLIMITED, 6.0, True),
)


def catalog_default() -> dict[str, TechnologyParams]:
    """Return the six default technologies keyed by name."""
    return {t.name: t for t in _DEFAULTS}


def catalog_with_overrides(overrides: dict[str, dict] | None) -> dict[str, TechnologyParams]:
    """Build a catalog applying per-technology field overrides from a config.

    Override keys mirror TechnologyParams field names. endurance accepts the
    string "unlimited". Unknown technology names define new entries, which
    must then supply every field.
    """
    cat = catalog_default()
    for name, fields in (overrides or {}).items():
        fields = dict(fields)
        if isinstance(fields.get("endurance"), str):
            if fields["endurance"] != "unlimited":
                raise ValueError(f"{name}: bad endurance literal {fields['endurance']!r}")
            fields["endurance"] = UNLIMITED
        if name in cat:
            params = replace(cat[name], **fields)
        else:
            params = TechnologyParams(name=name, **fields)
        params.validate()
        cat[name] = params
    return cat


def access_cost(params: TechnologyParams, kind: str) -> tuple[float, float]:
    """(latency ns, energy nJ) for one access of the given kind."""
    if kind == READ:
        return params.read_latency, params.read_energy
    if kind == WRITE_SET:
        return params.write_set_latency, params.write_set_energy
    if kind == WRITE_RESET:
        return params.write_reset_latency, params.write_reset_energy
    raise ValueError(f"unknown access kind {kind!r}")


def level_energy(counters: AccessCounters, params: TechnologyParams,
                 capacity_mib: float, write_mix: float = 0.5) -> float:
    """Total energy in nJ consumed by one cache level.

    n_read*E_read + n_write*(mix*E_set + (1-mix)*E_reset)
    + idle_time * standby_power * capacity, with mW*ns converted to nJ.
    write_mix is the fraction of writes performed as set operations.
    """
    if not 0.0 <= write_mix <= 1.0:
        raise ValueError(f"write_mix must be in [0, 1], got {write_mix}")
    write_energy = (write_mix * params.write_set_energy
                    + (1.0 - write_mix) * params.write_reset_energy)
    dynamic = counters.n_read * params.read_energy + counters.n_write * write_energy
    standby = counters.idle_time * params.standby_power_per_mib * capacity_mib * _MW_NS_TO_NJ
    return dynamic + standby


def area_estimate(capacity_mib: float, params: TechnologyParams) -> float:
    """Relative silicon area: SRAM-equivalent MiB at the technology's density."""
    if capacity_mib <= 0:
        raise ValueError("capacity must be > 0")
    return capacity_mib / params.norm_density


# --- technology scoring advisor -------------------------------------------
#
# Weights encode how severely each requirement bears on a cache level
# (3 severe, 2 moderate, 1 low); ratings are a coarse 0..2 discretization of
# how well a technology meets the requirement. The in-use/standby heat
# criteria reuse the dynamic-energy and standby ratings respectively.
# Informational only: nothing in the simulation depends on scores.


@dataclass(frozen=True)
class ScoringMatrix:
    """Per-level criterion weights (1..3), in the order dynamic energy,
    standby, heat in use, heat in standby, latency, endurance; and
    per-technology ratings (0..2) of dynamic energy, standby, latency and
    endurance."""

    weights: dict[str, tuple[int, int, int, int, int, int]]
    ratings: dict[str, tuple[int, int, int, int]]

    def validate(self) -> None:
        for level, w in self.weights.items():
            if len(w) != 6 or any(x not in (1, 2, 3) for x in w):
                raise ValueError(f"{level}: weights must be six values in 1..3")
        for tech, r in self.ratings.items():
            if len(r) != 4 or any(x not in (0, 1, 2) for x in r):
                raise ValueError(f"{tech}: ratings must be four values in 0..2")


def default_scoring_matrix() -> ScoringMatrix:
    return ScoringMatrix(
        weights={
            "L1": (3, 2, 3, 2, 3, 3),
            "L2": (2, 2, 2, 1, 2, 2),
            "L3": (1, 3, 1, 1, 1, 2),
        },
        ratings={
            "SRAM": (1, 0, 2, 2),
            "DRAM": (1, 0, 1, 2),
            "eDRAM": (1, 0, 1, 2),
            "PCRAM": (0, 2, 0, 0),
            "MRAM": (1, 2, 1, 1),
            "DWM": (2, 2, 1, 2),
        },
    )


def score_technology(tech: str, level: str, matrix: ScoringMatrix | None = None) -> int:
    """Weighted suitability score of a technology for a cache level."""
    matrix = matrix or default_scoring_matrix()
    if tech not in matrix.ratings:
        raise KeyError(f"unknown technology {tech!r}")
    if level not in matrix.weights:
        raise KeyError(f"unknown level {level!r}")
    w = matrix.weights[level]
    dyn, standby, latency, endurance = matrix.ratings[tech]
    per_criterion = (dyn, standby, dyn, standby, latency, endurance)
    return sum(wi * ri for wi, ri in zip(w, per_criterion))
