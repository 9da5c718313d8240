import math

import pytest
from hypothesis import given, strategies as st

from tiersim.arch import preset, spec_from_dict, validate_spec
from tiersim.memtech import (UNLIMITED, AccessCounters, TechnologyParams,
                             area_estimate, catalog_default,
                             catalog_with_overrides, level_energy)
from tiersim.workload import kind_problems


def test_catalog_has_six_entries():
    cat = catalog_default()
    assert sorted(cat) == ["DRAM", "DWM", "MRAM", "PCRAM", "SRAM", "eDRAM"]
    for params in cat.values():
        params.validate()
        assert kind_problems(TechnologyParams, vars(params)) == []


def test_catalog_midpoints():
    cat = catalog_default()
    assert cat["PCRAM"].write_reset_latency == 43.0
    assert cat["PCRAM"].write_set_latency == 105.0
    assert cat["MRAM"].standby_power_per_mib == 0.0
    assert cat["PCRAM"].endurance == 1e8
    assert cat["SRAM"].read_latency == 3.0
    assert cat["MRAM"].read_latency == 1.5
    assert cat["DWM"].norm_density == 6.0


def test_nonvolatile_members_have_zero_standby():
    for params in catalog_default().values():
        if params.non_volatile:
            assert params.standby_power_per_mib == 0.0


def test_unlimited_endurance_sentinel():
    cat = catalog_default()
    assert cat["SRAM"].endurance == UNLIMITED
    assert cat["DWM"].endurance == UNLIMITED
    assert cat["MRAM"].endurance == 1e12


def test_access_cost_set_reset_differ_only_for_pcram():
    for name, p in catalog_default().items():
        same = (p.write_set_latency == p.write_reset_latency
                and p.write_set_energy == p.write_reset_energy)
        assert same == (name != "PCRAM")


def test_level_energy_worked_example():
    # 1000 reads at 0.2 nJ + 500 writes at 0.4 nJ + 1e6 ns idle at
    # 1 mW/MiB over 1 MiB -> 200 + 200 + 1000 nJ
    p = TechnologyParams("X", 1.0, 1.0, 1.0, 0.2, 0.4, 0.4, 1.0, 10, 1.0, False)
    counters = AccessCounters(n_read=1000, n_write=500, idle_time=1e6)
    assert level_energy(counters, p, capacity_mib=1.0) == 1400.0


def test_level_energy_zero_case():
    p = catalog_default()["SRAM"]
    assert level_energy(AccessCounters(), p, 1.0) == 0.0


def test_level_energy_nonvolatile_idle_free():
    p = catalog_default()["MRAM"]
    counters = AccessCounters(idle_time=1e9)
    assert level_energy(counters, p, 64.0) == 0.0


def test_level_energy_rejects_bad_mix():
    p = catalog_default()["SRAM"]
    with pytest.raises(ValueError):
        level_energy(AccessCounters(), p, 1.0, write_mix=1.5)


@given(n_read=st.integers(0, 10**6), n_write=st.integers(0, 10**6))
def test_level_energy_linear_in_counters(n_read, n_write):
    p = catalog_default()["PCRAM"]
    single = level_energy(AccessCounters(n_read=n_read, n_write=n_write), p, 2.0)
    double = level_energy(AccessCounters(n_read=2 * n_read, n_write=2 * n_write), p, 2.0)
    assert double == pytest.approx(2 * single)


def test_area_estimate_examples():
    cat = catalog_default()
    assert area_estimate(1.0, cat["SRAM"]) == 1.0
    assert area_estimate(2.0, cat["MRAM"]) == 0.5
    assert area_estimate(1.0, cat["PCRAM"]) == 0.0625


def test_area_estimate_monotone_in_density():
    areas = [area_estimate(4.0, p) for p in
             sorted(catalog_default().values(), key=lambda p: p.norm_density)]
    assert areas == sorted(areas, reverse=True)


def test_area_estimate_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        area_estimate(0.0, catalog_default()["SRAM"])


def test_catalog_overrides():
    cat = catalog_with_overrides({"PCRAM": {"endurance": 1000}})
    assert cat["PCRAM"].endurance == 1000
    assert cat["PCRAM"].write_set_latency == 105.0
    cat = catalog_with_overrides({"SRAM": {"endurance": "unlimited"}})
    assert cat["SRAM"].endurance == math.inf


def test_catalog_override_rejects_volatile_with_zero_claim():
    with pytest.raises(ValueError):
        catalog_with_overrides({"MRAM": {"standby_power_per_mib": 2.0}})


def test_catalog_accepts_fully_specified_new_technology():
    cat = catalog_with_overrides({"FeRAM": {
        "read_latency": 2.0, "write_set_latency": 5.0,
        "write_reset_latency": 5.0, "read_energy": 0.2,
        "write_set_energy": 0.3, "write_reset_energy": 0.3,
        "standby_power_per_mib": 0.0, "endurance": 1e10,
        "norm_density": 3.0, "non_volatile": True}})
    assert cat["FeRAM"].norm_density == 3.0
    assert len(cat) == 7
    with pytest.raises(TypeError):
        catalog_with_overrides({"HALF": {"read_latency": 1.0}})


def test_params_validation():
    # Each field of a technology keeps its kind, or validate_spec reports it
    # at its path under tech_overrides.
    cfg = preset("fig32")
    cfg["tech_overrides"] = {"B": {
        "read_latency": 0.0, "write_set_latency": 1, "write_reset_latency": 1,
        "read_energy": 0.1, "write_set_energy": 0.1, "write_reset_energy": 0.1,
        "standby_power_per_mib": 0.0, "endurance": 0, "norm_density": 1.0,
        "non_volatile": True}}
    assert validate_spec(spec_from_dict(cfg)) == [
        "tech_overrides.B.read_latency: must be a finite number > 0, got 0.0",
        'tech_overrides.B.endurance: must be a number >= 1 or "unlimited", '
        'got 0']
