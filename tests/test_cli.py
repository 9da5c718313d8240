import io
import json
import os

import pytest

from tiersim import cli
from tiersim.arch import preset
from tiersim.cli import main, sweep_seed
from tiersim.workload import (gen_message_traffic, gen_synthetic_trace,
                              write_messages, write_trace)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def quick_cfg():
    cfg = preset("fig33")
    cfg["cluster_grid"] = [2, 1]
    cfg["cores_per_cluster"] = 2
    cfg["workload"]["synthetic"] = {"length": 150, "hot_fraction": 0.9,
                                    "hot_set_bytes": 1024}
    cfg["workload"]["message_synthetic"] = {"cycles": 200, "rate": 0.01,
                                            "payload_bytes": 64}
    return cfg


def test_run_success_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, quick_cfg())
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--seed", "7",
                 "--out", str(out)]) == 0
    assert out.exists()
    report = json.loads(out.read_text())
    assert report["meta"]["seed"] == 7


def test_run_accepts_preset_names(tmp_path):
    out = tmp_path / "r.json"
    cfg = quick_cfg()
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0


def test_invalid_geometry_exits_2(tmp_path, capsys):
    cfg = quick_cfg()
    cfg["caches"]["l1d"]["block_size"] = 48
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", cfg_path,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "block_size" in capsys.readouterr().err


def test_missing_trace_file_exits_2(tmp_path, capsys):
    cfg = quick_cfg()
    cfg["workload"] = {"trace": str(tmp_path / "missing.csv")}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", cfg_path,
                 "--out", str(tmp_path / "r.json")]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_trace_file_exits_2(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("tick,core,op,addr,size\n1,0,X,0x40,8\n")
    cfg = quick_cfg()
    cfg["workload"] = {"trace": str(trace)}
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "op must be R or W" in capsys.readouterr().err


@pytest.mark.parametrize("workload, header, good, bad", [
    ("trace", "tick,core,op,addr,size", "0,0,R,0x0,8", "-3,0,R,0x40,8"),
    ("messages", "tick,src_cluster,dst_cluster,bytes", "0,0,1,8", "-3,0,1,64")])
def test_negative_tick_exits_2_with_its_line(tmp_path, capsys, workload,
                                              header, good, bad):
    records = tmp_path / "records.csv"
    records.write_text(f"{header}\n{good}\n{bad}\n")
    cfg = quick_cfg()
    cfg["workload"] = {workload: str(records)}
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "line 3: tick must be >= 0, got -3" in capsys.readouterr().err


def test_message_workload_on_single_cluster_exits_2(tmp_path, capsys):
    cfg = quick_cfg()
    cfg["cluster_grid"] = [1, 1]
    cfg["workload"].pop("synthetic")
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_t_end_caps_the_run(tmp_path):
    cfg = quick_cfg()
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--t-end", "5000",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["duration_ps"] == 5000
    noc = report["interconnect"]["noc"]
    assert noc["injected"] == noc["delivered"] + noc["in_flight"]


def test_t_end_counts_only_completed_accesses(tmp_path):
    # A memory access is logged when it completes, so a run stopped early
    # reports no access that would have finished after the stop.
    t_end = 200_000
    out, dump = tmp_path / "r.json", tmp_path / "lat.csv"
    assert main(["run", "--config", write_config(tmp_path, quick_cfg()),
                 "--t-end", str(t_end), "--out", str(out),
                 "--dump-latencies", str(dump)]) == 0
    report = json.loads(out.read_text())
    ends = [int(line.split(",")[2]) for line in dump.read_text().splitlines()
            if line.startswith("mem,")]
    assert len(ends) == report["latency"]["mem"]["count"] > 0
    assert max(ends) <= t_end == report["meta"]["duration_ps"]


def test_negative_t_end_exits_2_before_the_run(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig33", "--t-end", "-5",
                 "--out", str(out)]) == 2
    assert "--t-end: must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_set_override_equals_config_edit(tmp_path):
    base = quick_cfg()
    edited = json.loads(json.dumps(base))
    edited["caches"]["l1d"]["associativity"] = 4
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--config", write_config(tmp_path, base, "base.json"),
                 "--set", "caches.l1d.associativity=4",
                 "--out", str(a)]) == 0
    assert main(["run", "--config", write_config(tmp_path, edited, "edit.json"),
                 "--out", str(b)]) == 0
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    ra["meta"].pop("timestamp")
    rb["meta"].pop("timestamp")
    assert ra == rb


def test_set_with_unresolvable_path_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, quick_cfg())
    assert main(["run", "--config", cfg_path,
                 "--set", "caches.l9.size=1", "--out",
                 str(tmp_path / "r.json")]) == 2


def test_validate_subcommand(tmp_path, capsys):
    good = write_config(tmp_path, quick_cfg(), "good.json")
    assert main(["validate", "--config", good]) == 0
    cfg = quick_cfg()
    cfg["caches"]["l1d"]["block_size"] = 48
    bad = write_config(tmp_path, cfg, "bad.json")
    assert main(["validate", "--config", bad]) == 2
    assert "block_size" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["caches.l1d.associativity",
                                 "caches.l1d.block_size", "bus.beat_width"])
def test_zero_divisor_exits_2_with_its_path(tmp_path, capsys, key):
    # each of these divides a size; a zero is a located violation, not a fault
    cfg_path = write_config(tmp_path, quick_cfg())
    assert main(["run", "--config", cfg_path, "--set", f"{key}=0",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert f"{key}: " in capsys.readouterr().err
    cfg = quick_cfg()
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = 0
    assert main(["validate", "--config", write_config(tmp_path, cfg, "bad.json")]) == 2
    assert f"{key}: " in capsys.readouterr().err


def test_zero_histogram_bucket_exits_2_before_the_run(tmp_path, capsys):
    # no preset has a report section, so only a config file reaches the key
    cfg = preset("fig32")
    cfg["report"] = {"histogram_bucket_ps": 0}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert "report.histogram_bucket_ps: " in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", cfg_path]) == 2
    assert "report.histogram_bucket_ps: " in capsys.readouterr().err


def test_unknown_key_in_config_file_exits_2_with_its_path(tmp_path, capsys):
    cfg = preset("fig32")
    cfg["histogram_bucket_psx"] = 5
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert "histogram_bucket_psx: unknown key" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", cfg_path]) == 2
    assert "histogram_bucket_psx: unknown key" in capsys.readouterr().err


def test_unknown_key_from_set_exits_2_with_its_path(tmp_path, capsys):
    # the real key lives under report; at the top level it would do nothing
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set", "histogram_bucket_ps=0",
                 "--out", str(out)]) == 2
    assert "histogram_bucket_ps: unknown key" in capsys.readouterr().err
    assert not out.exists()
    # so are generator parameters, by the generator section's path
    assert main(["run", "--config", "fig33", "--set",
                 "workload.message_synthetic.payload=32",
                 "--out", str(out)]) == 2
    assert ("workload.message_synthetic.payload: unknown key"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key, value, kind", [
    ("noc", "5", "int"), ("bus", "3", "int"), ("caches.l1d", "5", "int"),
    ("clocks", "[1]", "list"), ("report", "1", "int"),
    ("workload", '"x"', "str"), ("caches", "true", "bool")])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, key, value,
                                               kind):
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set", f"{key}={value}",
                 "--out", str(out)]) == 2
    assert f"{key}: must be an object, got {kind}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("workload.synthetic.access_size", 0,
     "workload.synthetic.access_size: must be >= 1, got 0"),
    ("workload.synthetic.access_size", -8,
     "workload.synthetic.access_size: must be >= 1, got -8"),
    ("workload.message_synthetic.payload_bytes", -5,
     "workload.message_synthetic.payload_bytes: must be >= 1, got -5"),
    # The generator draws from the 48-bit space that parse_trace accepts.
    ("workload.synthetic.addr_bits", 60,
     "workload.synthetic.addr_bits: unknown key"),
    ("workload.message_synthetic.burst", 4,
     "workload.message_synthetic.burst: unknown key")],
    ids=["access_size=0", "access_size=-8", "payload_bytes=-5", "addr_bits=60",
         "burst=4"])
def test_bad_generator_parameter_exits_2_with_its_key(tmp_path, capsys, key,
                                                      value, message):
    out = tmp_path / "r.json"
    assert main(["run", "--config", write_config(tmp_path, quick_cfg()),
                 "--set", f"{key}={value}", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [("synthetic", "addr_bits"),
                                          ("message_synthetic", "seed")])
def test_validate_reports_an_unknown_generator_key(tmp_path, capsys, section,
                                                   key):
    # A generator section takes its generator's parameters, but not the seed,
    # which comes from the run.
    cfg = quick_cfg()
    cfg["workload"][section][key] = 1
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"workload.{section}.{key}: unknown key"]


@pytest.mark.parametrize("key, value, rule", [
    ("synthetic.access_size", "8.0", "must be an integer, got 8.0"),
    ("synthetic.tick_interval", "1.5", "must be an integer, got 1.5"),
    ("synthetic.length", "true", "must be an integer, got True"),
    ("message_synthetic.cycles", "10.5", "must be an integer, got 10.5"),
    ("synthetic.read_fraction", "2", "must be a number in [0, 1], got 2"),
    ("message_synthetic.rate", '"0.1"', "must be a number in [0, 1], got '0.1'")],
    ids=["access_size", "tick_interval", "length", "cycles", "read_fraction",
         "rate"])
def test_generator_value_of_the_wrong_type_or_range_exits_2(tmp_path, capsys,
                                                            key, value, rule):
    # Each generator parameter's annotation states its rule: an int takes an
    # integer, a Probability a number in [0, 1]. Both run and validate
    # refuse a value that breaks it, by its dotted path, before any run.
    message = f"workload.{key}: {rule}"
    out = tmp_path / "r.json"
    assert main(["run", "--config", write_config(tmp_path, quick_cfg()),
                 "--set", f"workload.{key}={value}", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    cfg = quick_cfg()
    section, name = key.split(".")
    cfg["workload"][section][name] = json.loads(value)
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("key, value, rule", [
    ("synthetic.length", -5, "must be >= 0, got -5"),
    ("synthetic.tick_interval", -1, "must be >= 0, got -1"),
    ("message_synthetic.cycles", -3, "must be >= 0, got -3"),
    ("synthetic.cores", -1, "must be from 1 to the system's 4 cores, got -1"),
    ("synthetic.cores", 0, "must be from 1 to the system's 4 cores, got 0"),
    ("synthetic.cores", 5, "must be from 1 to the system's 4 cores, got 5")],
    ids=["length", "tick_interval", "cycles", "cores=-1", "cores=0",
         "cores=5"])
def test_generator_value_out_of_range_exits_2_before_generating(
        tmp_path, capsys, monkeypatch, key, value, rule):
    # A Count takes an integer >= 0, a CoreCount one from 1 to the system's
    # cores (quick_cfg has 4). Both run and validate refuse a value out of
    # range by its dotted path, and run refuses it before it generates.
    def generate(*args, **kwargs):
        raise AssertionError("a workload was generated")

    monkeypatch.setattr(cli, "gen_synthetic_trace", generate)
    monkeypatch.setattr(cli, "gen_message_traffic", generate)
    message = f"workload.{key}: {rule}"
    out = tmp_path / "r.json"
    assert main(["run", "--config", write_config(tmp_path, quick_cfg()),
                 "--set", f"workload.{key}={value}", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    cfg = quick_cfg()
    section, name = key.split(".")
    cfg["workload"][section][name] = value
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_generator_values_at_the_ends_of_their_ranges_are_valid(tmp_path,
                                                                capsys):
    cfg = quick_cfg()
    cfg["workload"]["synthetic"].update(cores=4, length=0, tick_interval=0,
                                        hot_set_bytes=1, access_size=1)
    cfg["workload"]["message_synthetic"].update(cycles=0, payload_bytes=1,
                                                clusters=2)
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    cfg["workload"]["synthetic"]["cores"] = 1
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    # quick_cfg has 2 clusters; on a 2x2 grid, 2 and 4 are both ends
    cfg["cluster_grid"] = [2, 2]
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    cfg["workload"]["message_synthetic"]["clusters"] = 4
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("config, key, value, line", [
    ("fig32", "workload.synthetic.access_size", 24,
     "workload.synthetic.access_size: 24 does not divide the 64-byte block; "
     "an access aligned to it crosses a 64-byte block boundary"),
    ("fig32", "workload.trace", "trace.csv",
     "workload: choose either trace or synthetic, not both"),
    ("fig32", "workload.message_synthetic",
     {"cycles": 200, "rate": 0.002, "payload_bytes": 64},
     "workload.message_synthetic.clusters: must be from 2 to the system's 1 "
     "clusters, got 1"),
    ("fig33", "workload.message_synthetic.clusters", 99,
     "workload.message_synthetic.clusters: must be from 2 to the system's 4 "
     "clusters, got 99"),
    ("fig33", "workload.synthetic.hot_set_bytes", 0,
     "workload.synthetic.hot_set_bytes: must be >= 1, got 0"),
    ("fig33", "workload.message_synthetic.payload_bytes", -5,
     "workload.message_synthetic.payload_bytes: must be >= 1, got -5"),
    ("fig33", "workload.synthetic.access_size", 0,
     "workload.synthetic.access_size: must be >= 1, got 0"),
    ("fig33", "workload.message_synthetic.clusters", 1,
     "workload.message_synthetic.clusters: must be from 2 to the system's 4 "
     "clusters, got 1"),
    ("fig32", "workload", {"trace": 7},
     "workload.trace: must be a file path, got 7"),
    ("fig33", "workload", {"messages": ["m.csv"]},
     "workload.messages: must be a file path, got ['m.csv']"),
    ("fig32", "workload", {"trace": "trace.csv", "synthetic": {}},
     "workload: choose either trace or synthetic, not both"),
    ("fig32", "workload.message_synthetic", {},
     "workload.message_synthetic.clusters: must be from 2 to the system's 1 "
     "clusters, got 1"),
    ("fig32", "workload.synthetic.hot_set_bytes", 10**15,
     "workload.synthetic.hot_set_bytes: must be at most 35184372088832, so "
     "that 8 hot windows fit in the 48-bit address space, got "
     "1000000000000000"),
    ("fig32", "workload.synthetic",
     {"hot_set_bytes": 35184372088832, "hot_overlap": 0.5},
     "workload.synthetic.hot_set_bytes: must be at most 31274997412295, so "
     "that 9 hot windows fit in the 48-bit address space, got "
     "35184372088832"),
    ("fig32", "workload.synthetic", {"length": 3, "tick_interval": 10**18},
     "workload.synthetic.tick_interval: must be at most 2305843009213693, so "
     "that each core's last record starts before 4611686018427387904 ps, got "
     "1000000000000000000")],
    ids=["access_size=24", "trace-and-synthetic", "messages-on-one-cluster",
         "clusters=99", "hot_set_bytes=0", "payload_bytes=-5", "access_size=0",
         "clusters=1", "trace=7", "messages=list", "trace-and-empty-synthetic",
         "empty-messages-on-one-cluster", "hot-windows-past-48-bits",
         "shared-hot-window-past-48-bits", "last-record-starts-too-late"])
def test_workload_setting_is_refused_by_validate_and_before_run_generates(
        tmp_path, capsys, monkeypatch, config, key, value, line):
    # validate and run apply one rule per workload setting: each exits 2 with
    # the same line, by its dotted path, and run refuses before it generates.
    def generate(*args, **kwargs):
        raise AssertionError("a workload was generated")

    monkeypatch.setattr(cli, "gen_synthetic_trace", generate)
    monkeypatch.setattr(cli, "gen_message_traffic", generate)
    cfg = preset(config)
    cli.apply_override(cfg, key, value)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    out = tmp_path / "r.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration:", f"  {line}"]
    assert not out.exists()


@pytest.mark.parametrize("key, value, line", [
    ("cores_per_cluster", 2.5, "cores_per_cluster: must be an integer, got 2.5"),
    ("cores_per_cluster", "abc",
     "cores_per_cluster: must be an integer, got 'abc'"),
    ("cluster_grid", [1.9, 1], "cluster_grid[0]: must be an integer, got 1.9"),
    ("noc.link_latency", 1.5, "noc.link_latency: must be an integer, got 1.5"),
    ("clocks.core_ps", 1000.7,
     "clocks.core_ps: must be an integer, got 1000.7"),
    ("caches.l1d.associativity", True,
     "caches.l1d.associativity: must be an integer, got True"),
    ("caches.l1d.capacity", "32768",
     "caches.l1d.capacity: must be an integer, got '32768'"),
    ("caches.l1d.partial_writes", "no",
     "caches.l1d.partial_writes: must be true or false, got 'no'"),
    ("caches.l1d.regions", [{"ways": [0, 1.5], "tech": "SRAM"}],
     "caches.l1d.regions[0].ways[1]: must be an integer, got 1.5"),
    ("write_mix", True, "write_mix: must be a number in [0, 1], got True"),
    ("tech_overrides", {"SRAM": {"endurance": True}},
     'tech_overrides.SRAM.endurance: must be a number >= 1 or "unlimited", '
     'got True'),
    ("tech_overrides", {"SRAM": {"non_volatile": "no"}},
     "tech_overrides.SRAM.non_volatile: must be true or false, got 'no'"),
    ("tech_overrides", {"SRAM": {"read_latency": "3"}},
     "tech_overrides.SRAM.read_latency: must be a finite number > 0, got '3'"),
    ("memory_latency_ns", float("inf"),
     "memory_latency_ns: must be a finite number >= 0, got inf")],
    ids=["cores_per_cluster=2.5", "cores_per_cluster=abc", "cluster_grid",
         "link_latency", "core_ps", "associativity", "capacity",
         "partial_writes", "region-ways", "write_mix", "endurance",
         "non_volatile", "read_latency", "memory_latency_ns=inf"])
def test_system_setting_that_breaks_its_kind_is_refused_before_anything_is_built(
        tmp_path, capsys, monkeypatch, key, value, line):
    # Each system key's annotation is its only rule: validate and run refuse
    # a value that breaks it with the same line, by its dotted path, and run
    # builds nothing; no value is cast or truncated into another.
    def build(*args, **kwargs):
        raise AssertionError("something was built")

    for name in ("System", "gen_synthetic_trace", "gen_message_traffic"):
        monkeypatch.setattr(cli, name, build)
    cfg = preset("fig32")
    cli.apply_override(cfg, key, value)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    out = tmp_path / "r.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration:", f"  {line}"]
    assert not out.exists()


def test_int_and_float_spellings_give_the_same_report(tmp_path):
    # A number field stores its value as a float once its rule passes, so
    # energy.write_mix reads the same however the config spells it; only
    # the echoed config differs.
    reports = []
    for write_mix, latency in ((1, 50), (1.0, 50.0)):
        cfg = preset("fig32")
        cfg.update(write_mix=write_mix, memory_latency_ns=latency)
        cfg["workload"]["synthetic"]["length"] = 50
        out = tmp_path / "r.json"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["meta"]["timestamp"], report["meta"]["config"]
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["energy"]["write_mix"] == 1.0


@pytest.mark.parametrize("section, defaults, count", [
    ("synthetic",
     {"cores": 4, "length": 1000, "hot_fraction": 0.9, "hot_set_bytes": 8192},
     lambda report: report["meta"]["trace_records"]),
    ("message_synthetic",
     {"clusters": 2, "cycles": 1000, "rate": 0.002, "payload_bytes": 64},
     lambda report: report["interconnect"]["noc"]["injected"])],
    ids=["synthetic", "message_synthetic"])
def test_empty_generator_section_runs_with_its_defaults(tmp_path, section,
                                                        defaults, count):
    # docs/config-format.md gives every generator field a default, so an
    # empty section generates records with them, exactly as the section
    # that spells the defaults out does; only the echoed config differs.
    path = write_config(tmp_path, quick_cfg())
    reports = []
    for value in ({}, defaults):
        out = tmp_path / "r.json"
        assert main(["run", "--config", path, "--set",
                     f"workload.{section}={json.dumps(value)}",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["meta"]["timestamp"], report["meta"]["config"]
        reports.append(report)
    assert count(reports[0]) > 0
    assert reports[0] == reports[1]


def test_access_size_that_crosses_blocks_exits_2(tmp_path, capsys):
    # 24-byte accesses aligned to 24 bytes: one at 0x30 would run past 0x40
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set",
                 "workload.synthetic.access_size=24", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "crosses a 64-byte block boundary" in err
    assert "workload.synthetic.access_size: 24 does not divide" in err
    assert not out.exists()


def test_gen_trace_bad_parameter_exits_2(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["gen-trace", "--kind", "msg", "--payload", "-5",
                 "--out", str(out)]) == 2
    assert "payload_bytes must be >= 1, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, flag, value, message", [
    ("msg", "--payload", "0", "payload_bytes must be >= 1, got 0"),
    ("msg", "--clusters", "1", "clusters must be >= 2, got 1"),
    ("mem", "--cores", "0", "cores must be >= 1, got 0"),
    ("mem", "--hot-set-bytes", "1000000000000000",
     "hot_set_bytes must be at most 35184372088832, so that 8 hot windows "
     "fit in the 48-bit address space, got 1000000000000000")],
    ids=["payload=0", "clusters=1", "cores=0", "hot-windows-past-48-bits"])
def test_gen_trace_writes_only_what_run_can_read(tmp_path, capsys, kind, flag,
                                                 value, message):
    # gen-trace hands its flags to the generator, which applies each
    # parameter's rule, so it writes no file that run would refuse.
    out = tmp_path / "records.csv"
    assert main(["gen-trace", "--kind", kind, flag, value,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, flags, line", [
    ("msg", ["--length", "5", "--hot-fraction", "7"],
     "error: --length: not a parameter of --kind msg"),
    ("mem", ["--rate", "7", "--cycles", "3"],
     "error: --cycles: not a parameter of --kind mem")],
    ids=["mem-flags-with-msg", "msg-flags-with-mem"])
def test_gen_trace_flag_of_the_other_kind_exits_2(tmp_path, capsys, kind,
                                                  flags, line):
    # a flag the --kind's generator has no parameter for would be ignored
    out = tmp_path / "records.csv"
    assert main(["gen-trace", "--kind", kind, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def test_block_smaller_than_a_word_exits_2(tmp_path, capsys):
    # a 4-byte block holds no 8-byte word, so writes would mark nothing dirty
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set",
                 "caches.l1d.block_size=4", "--out", str(out)]) == 2
    assert "caches.l1d.block_size: must be >= 8 (4)" in capsys.readouterr().err
    assert not out.exists()
    cfg = preset("fig32")
    cfg["caches"]["l1d"]["block_size"] = 4
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "caches.l1d.block_size: must be >= 8 (4)"]


def test_block_size_other_than_the_l1d_exits_2(tmp_path, capsys):
    assert main(["run", "--config", "fig34", "--set",
                 "caches.l2.block_size=128", "--out", str(tmp_path / "r.json")]) == 2
    assert "caches.l2.block_size: must equal caches.l1d.block_size (64), got 128" \
        in capsys.readouterr().err


def test_hops_output(capsys):
    assert main(["hops", "--dims", "8x8x1"]) == 0
    assert capsys.readouterr().out.strip() == "5.2500"
    assert main(["hops", "--dims", "4x4x4"]) == 0
    assert capsys.readouterr().out.strip() == "3.7500"
    assert main(["hops", "--dims", "1x1x1"]) == 0
    assert capsys.readouterr().out.strip() == "0.0000"


def test_hops_malformed_dims(capsys):
    assert main(["hops", "--dims", "8x8"]) == 2
    assert main(["hops", "--dims", "axbxc"]) == 2
    assert main(["hops", "--dims", "0x4x4"]) == 2


def test_gen_trace_roundtrips_through_run(tmp_path):
    trace_path = tmp_path / "t.csv"
    assert main(["gen-trace", "--kind", "mem", "--cores", "4",
                 "--length", "100", "--seed", "3",
                 "--out", str(trace_path)]) == 0
    cfg = quick_cfg()
    cfg["workload"] = {"trace": str(trace_path)}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["trace_records"] == 400


def test_gen_trace_messages(tmp_path):
    msg_path = tmp_path / "m.csv"
    assert main(["gen-trace", "--kind", "msg", "--clusters", "4",
                 "--cycles", "500", "--rate", "0.05",
                 "--out", str(msg_path)]) == 0
    lines = msg_path.read_text().splitlines()
    assert lines[0] == "tick,src_cluster,dst_cluster,bytes"
    assert len(lines) > 1


@pytest.mark.parametrize("kind, gen, write, system", [
    ("mem", gen_synthetic_trace, write_trace, {"cores": 8}),
    ("msg", gen_message_traffic, write_messages, {"clusters": 4})],
    ids=["mem", "msg"])
def test_gen_trace_flag_left_out_takes_its_generators_default(
        tmp_path, capsys, kind, gen, write, system):
    # Only --cores 8, --clusters 4 and --seed 0 are gen-trace's own; every
    # other flag left out is left to the generator's signature.
    out = tmp_path / "records.csv"
    assert main(["gen-trace", "--kind", kind, "--out", str(out)]) == 0
    records = gen(seed=0, **system)
    assert capsys.readouterr().out == f"{len(records)} records written to {out}\n"
    want = io.StringIO()
    write(records, want)
    assert out.read_text() == want.getvalue()
    assert kind == "msg" or len(records) == 8 * 1000


@pytest.mark.parametrize("latency", ["1e15", "1e300"])
def test_latency_past_the_int64_time_limit_exits_2(tmp_path, capsys, latency):
    # 1e15 ns is 1e18 ps, below LATEST_START_PS, but the misses queue at the
    # memory controller until a request would end past the int64 limit.
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set",
                 "workload.synthetic.length=3", "--set",
                 f"memory_latency_ns={latency}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: a request ends past {2**63 - 1} ps, the int64 time limit; "
        f"lower memory_latency_ns, a clock period or the ticks"]
    assert not out.exists()
    assert main(["run", "--config", "fig32", "--set",
                 "workload.synthetic.length=3", "--set",
                 "memory_latency_ns=1e12", "--out", str(out)]) == 0


def test_integer_past_the_float_range_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--config", "fig32", "--set",
                 "workload.synthetic.length=3", "--set",
                 f"memory_latency_ns={10**400}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration:",
        f"  memory_latency_ns: must be a finite number >= 0, got {10**400}"]
    assert not out.exists()


def test_dump_latencies(tmp_path):
    """The dump has one row per completed request, the memory accesses and
    then the messages, and each class's statistics recomputed from it are
    the report's. A memory access is logged when it completes, so its
    rows' end times never decrease; a message is logged when its head flit
    arrives, so with one payload size its rows' end times never decrease."""
    cfg = quick_cfg()
    cfg["workload"]["message_synthetic"]["rate"] = 0.1
    out = tmp_path / "r.json"
    dump = tmp_path / "lat.csv"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--dump-latencies", str(dump)]) == 0
    report = json.loads(out.read_text())
    header, *lines = dump.read_text().splitlines()
    assert header == "class,t_inject_ps,t_complete_ps"
    rows = [(klass, int(t0), int(t1))
            for klass, t0, t1 in (line.split(",") for line in lines)]
    classes = [klass for klass, _, _ in rows]
    n_mem = report["latency"]["mem"]["count"]
    n_msg = report["latency"]["msg"]["count"]
    assert n_mem == report["meta"]["trace_records"] > 0
    assert n_msg == report["interconnect"]["noc"]["delivered"] > 20
    assert classes == ["mem"] * n_mem + ["msg"] * n_msg
    mem, msg = rows[:n_mem], rows[n_mem:]
    assert [t1 for _, _, t1 in mem] == sorted(t1 for _, _, t1 in mem)
    assert [t1 for _, _, t1 in msg] == sorted(t1 for _, _, t1 in msg)
    for klass, part in (("mem", mem), ("msg", msg)):
        latencies = sorted(t1 - t0 for _, t0, t1 in part)
        stats = report["latency"][klass]
        assert stats["mean_ps"] == sum(latencies) / len(latencies)
        assert stats["p95_ps"] == latencies[-(-95 * len(latencies) // 100) - 1]
        assert stats["max_ps"] == latencies[-1]


def test_sweep_writes_reports_and_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("TIERSIM_THREADS", "1")
    cfg_path = write_config(tmp_path, quick_cfg())
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path,
                 "--param", "caches.l1d.tech",
                 "--values", "SRAM,MRAM,DWM",
                 "--out-dir", str(out_dir), "--seed", "5"]) == 0
    for value in ("SRAM", "MRAM", "DWM"):
        assert (out_dir / value / "report.json").exists()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("caches.l1d.tech,")
    assert len(summary) == 4


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, quick_cfg())
    assert main(["sweep", "--config", cfg_path, "--param", "caches.l1d.tech",
                 "--values", "", "--out-dir", str(tmp_path / "s")]) == 2


def test_sweep_unresolvable_param_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, quick_cfg())
    assert main(["sweep", "--config", cfg_path, "--param", "nowhere.at.all",
                 "--values", "1,2", "--out-dir", str(tmp_path / "s")]) == 2


def test_sweep_parallel_matches_sequential(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, quick_cfg())

    def collect(out_dir):
        reports = {}
        for value in ("SRAM", "MRAM"):
            data = json.loads((out_dir / value / "report.json").read_text())
            data["meta"].pop("timestamp")
            reports[value] = data
        return reports

    monkeypatch.setenv("TIERSIM_THREADS", "1")
    seq_dir = tmp_path / "seq"
    assert main(["sweep", "--config", cfg_path, "--param", "caches.l1d.tech",
                 "--values", "SRAM,MRAM", "--out-dir", str(seq_dir),
                 "--seed", "9"]) == 0
    monkeypatch.setenv("TIERSIM_THREADS", "2")
    par_dir = tmp_path / "par"
    assert main(["sweep", "--config", cfg_path, "--param", "caches.l1d.tech",
                 "--values", "SRAM,MRAM", "--out-dir", str(par_dir),
                 "--seed", "9"]) == 0
    assert collect(seq_dir) == collect(par_dir)


def test_sweep_seed_derivation_deterministic():
    assert sweep_seed(10, 0) == sweep_seed(10, 0)
    assert sweep_seed(10, 0) != sweep_seed(10, 1)
    assert sweep_seed(10, 1) != sweep_seed(11, 1)


def test_report_validates_against_published_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    cfg_path = write_config(tmp_path, quick_cfg())
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    schema_path = os.path.join(os.path.dirname(__file__), "..", "docs",
                               "report-schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads(out.read_text()), schema)
