"""tiersim: deterministic discrete-event simulation of 3D MPSoC memory
hierarchies - coherent UMA clusters on a NORMA mesh NoC, stacked cache
tiers, and pluggable memory-technology cost models."""

__version__ = "0.1.0"

from .arch import SystemSpec, build_system, preset, spec_from_dict, validate_spec
from .memtech import TechnologyParams, area_estimate, catalog_default, level_energy

__all__ = [
    "SystemSpec", "TechnologyParams", "area_estimate", "build_system",
    "catalog_default", "level_energy", "preset", "spec_from_dict",
    "validate_spec", "__version__",
]
