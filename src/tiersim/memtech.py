"""Memory technology catalog, level energy model and area estimate.

All dynamic numbers are nanoseconds / nanojoules; standby power is mW per MiB
of capacity. Endurance is writes-per-line; technologies whose endurance is
large enough to never matter at cache scale carry the UNLIMITED sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .workload import Endurance, NonNegative, Positive

# Sentinel for write endurance that can never be exhausted (1e16+ class parts).
UNLIMITED = math.inf

READ = "read"
WRITE = "write"

# mW * ns -> nJ  (1 mW = 1e-3 J/s, 1 ns = 1e-9 s, product = 1e-12 J = 1e-3 nJ)
_MW_NS_TO_NJ = 1e-3


@dataclass(frozen=True)
class TechnologyParams:
    """One memory technology's latency/energy/standby/endurance/density
    record. Each field's annotation is its only rule as a config value."""

    name: str
    read_latency: Positive          # ns
    write_set_latency: Positive     # ns
    write_reset_latency: Positive   # ns
    read_energy: NonNegative        # nJ per access
    write_set_energy: NonNegative   # nJ per access
    write_reset_energy: NonNegative  # nJ per access
    standby_power_per_mib: NonNegative  # mW per MiB of capacity
    endurance: Endurance            # max writes per line; UNLIMITED for 1e16+ parts
    norm_density: Positive          # relative to SRAM = 1
    non_volatile: bool

    def validate(self) -> None:
        if self.non_volatile and self.standby_power_per_mib != 0:
            raise ValueError(f"{self.name}: non-volatile implies zero standby power")


@dataclass
class AccessCounters:
    """Read/write access counts plus idle time for one component."""

    n_read: int = 0
    n_write: int = 0
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
    must then supply every field. A non-volatile entry with standby power
    raises ValueError; the fields' own rules are applied by validate_spec.
    """
    cat = catalog_default()
    for name, fields in (overrides or {}).items():
        fields = dict(fields or {})
        if fields.get("endurance") == "unlimited":
            fields["endurance"] = UNLIMITED
        if name in cat:
            params = replace(cat[name], **fields)
        else:
            params = TechnologyParams(name=name, **fields)
        params.validate()
        cat[name] = params
    return cat


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

