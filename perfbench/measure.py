"""Host-time cost of simulating each workload, and where it goes.

Every repetition is a fresh process, as every `tiersim run` is. It makes the
records from the seed with the `tiersim.workload` generators, then drives
the simulator's public API step for step as `tiersim.cli.run_experiment`
does: spec_from_dict and validate_spec, System, load_trace and
load_messages, System.run, build_report, check_report_invariants and JSON
serialisation (to a string, the way emit_report writes it, without
meta.timestamp). Only those steps are timed; every cache starts empty.

The parent process starts repetitions one after another for --seconds (at
least MIN_REPS) and reports the medians. --trace 1 then runs one more
repetition with every layer wrapped (spans.py) and reports the per-layer
metrics. No wrapper is installed in a timed repetition. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tiersim.arch import spec_from_dict, validate_spec, warn_on_build
from tiersim.metrics import check_report_invariants
from tiersim.system import System

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

MIN_REPS = 3
REP_TIMEOUT_S = 150

# (name, unit) of each metric --trace 0 reports; failed_frac is printed
# with them but is carried by the result's attempted/failed counts.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("requests_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))

# (name, unit) of each metric --trace 1 reports. Names ending in _s are self
# times of the traced repetition; counts and simulated ratios are exact.
PER_LAYER = (
    ("setup.spec_s", "s"), ("setup.build_s", "s"), ("setup.load_s", "s"),
    ("cache.lines_allocated", "count"), ("cache.lines_touched", "count"),
    ("cache.lines_touched_ratio", "ratio"),
    ("engine.events", "count"), ("engine.events_per_request", "events/req"),
    ("engine.schedule_self_s", "s"), ("system.run_self_s", "s"),
    ("cache.probe_calls", "count"), ("cache.probe_self_s", "s"),
    ("cache.fill_calls", "count"), ("cache.fill_self_s", "s"),
    ("cache.select_victim_self_s", "s"), ("cache.evict_self_s", "s"),
    ("cache.service_self_s", "s"), ("cache.demand_read_self_s", "s"),
    ("cache.writeback_write_calls", "count"),
    ("cache.writeback_write_self_s", "s"),
    ("cache.touch_self_s", "s"), ("cache.write_touch_self_s", "s"),
    ("cache.invalidate_self_s", "s"),
    ("cache.l1d.hit_ratio", "ratio"), ("cache.l2.hit_ratio", "ratio"),
    ("cache.l3.hit_ratio", "ratio"),
    ("coherence.step_calls", "count"), ("coherence.step_self_s", "s"),
    ("coherence.snoop_lookups", "count"), ("coherence.snoop_self_s", "s"),
    ("coherence.snoop_useful_ratio", "ratio"),
    ("coherence.c2c_supplies", "count"),
    ("coherence.c2c_per_access", "ratio"),
    ("coherence.invalidations", "count"),
    ("bus.grants", "count"), ("bus.request_self_s", "s"),
    ("noc.packets", "count"), ("noc.hops", "count"),
    ("noc.hop_self_s", "s"), ("noc.event_share", "ratio"),
    ("noc.msg_mean_latency_ps", "ps"),
    ("memctrl.serves", "count"), ("memctrl.serve_self_s", "s"),
    ("report.build_s", "s"), ("report.check_s", "s"),
    ("report.serialize_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Simulated shares printed beside every result, named as in PER_LAYER.
SHARES = ("cache.l1d.hit_ratio", "cache.l2.hit_ratio", "cache.l3.hit_ratio",
          "coherence.c2c_per_access", "coherence.snoop_useful_ratio",
          "noc.event_share")


# -- one repetition (runs in its own process) ---------------------------------

def run_once(wl: workloads.Workload, trace: list, messages: list, seed: int,
             rec: spans.SpanRecorder | None = None):
    """One pass through the simulator pipeline, timed, then checked.

    Returns (result, system, report); system and report are None when the
    pass raised.
    """
    span = rec.span if rec is not None else (lambda name: nullcontext())
    config = copy.deepcopy(wl.config)
    attempted = len(trace) + len(messages)
    clock = time.perf_counter
    try:
        t0 = clock()
        with span("setup.spec"):
            spec = spec_from_dict(config)
            violations = validate_spec(spec)
        if violations:
            raise ValueError("invalid configuration: " + "; ".join(violations))
        with span("setup.build"):
            warn_on_build(spec)
            system = System(spec, seed=seed)
        with span("setup.load"):
            system.load_trace(trace)
            system.load_messages(messages)
        t1 = clock()
        system.run()
        t2 = clock()
        report = system.build_report()
        with span("report.check"):
            check_report_invariants(report)
        with span("report.serialize"):
            text = json.dumps(report, indent=2, sort_keys=True)
        t3 = clock()
    except Exception as exc:  # a fault in the program fails the whole repetition
        traceback.print_exc()
        return ({"attempted": attempted, "failed": attempted,
                 "problems": [f"raised {type(exc).__name__}: {exc}"]}, None, None)
    problems = output_problems(report, trace, messages)
    completed = len(system.mem_samples) + system.noc.delivered
    failed = attempted if problems else (
        len(trace) - len(system.mem_samples) + system.noc.in_flight)
    result = {"attempted": attempted, "failed": failed, "completed": completed,
              "setup_s": t1 - t0, "run_s": t2 - t1, "wall_s": t3 - t0,
              "digest": hashlib.sha256(text.encode()).hexdigest(),
              "problems": problems}
    return result, system, report


def output_problems(report: dict, trace: list, messages: list) -> list[str]:
    """Every way the report disagrees with the records it was given."""
    problems = []
    mem_count = report["latency"]["mem"]["count"]
    if mem_count != len(trace):
        problems.append(f"{mem_count} memory latency samples for "
                        f"{len(trace)} trace records")
    noc = report["interconnect"]["noc"]
    if not (noc["injected"] == noc["delivered"] == len(messages)
            and noc["in_flight"] == 0):
        problems.append(f"NoC injected {noc['injected']}, delivered "
                        f"{noc['delivered']}, in flight {noc['in_flight']} "
                        f"for {len(messages)} messages")
    meta = report["meta"]
    if (meta["trace_records"], meta["messages"]) != (len(trace), len(messages)):
        problems.append("report meta counts differ from the records loaded")
    return problems


def _cache_levels(system: System):
    for cluster in system.clusters:
        for stack in cluster.stacks:
            yield stack.l1i
            yield stack.l1d
            if stack.l2_private is not None:
                yield stack.l2_private
        yield from cluster.l2_shared.values()
        yield from cluster.l2i.values()
        if cluster.l3 is not None:
            yield cluster.l3


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when the base is empty (the base is printed too)."""
    return part / whole if whole else 0.0


def _hit_ratio(report: dict, level: str) -> float:
    stats = report["levels"].get(level)
    if stats is None:
        return 0.0
    return _ratio(stats["hits"], stats["hits"] + stats["misses"])


def layer_metrics(rec: spans.SpanRecorder, system: System, report: dict,
                  completed: int, n_trace: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced repetition, except the tracing
    overhead, and any disagreement between the wrappers' counts and the
    report's."""
    times = rec.self_times()

    def calls(name: str) -> int:
        return times.get(name, (0, 0))[0]

    def self_s(*names: str) -> float:
        return sum(times.get(n, (0, 0))[1] for n in names) / 1e9

    counts = rec.counts
    levels = list(_cache_levels(system))
    allocated = sum(len(ways) for level in levels for ways in level.lines)
    touched = sum(1 for level in levels for ways in level.lines
                  for line in ways if line.lru_stamp)
    events = system.engine.dispatched
    lookups = calls("coherence.snoop_state")
    delivered = system.noc.delivered
    msg_mean = report["latency"]["msg"]["mean_ps"]
    metrics = {
        "setup.spec_s": self_s("setup.spec"),
        "setup.build_s": self_s("setup.build"),
        "setup.load_s": self_s("setup.load"),
        "cache.lines_allocated": allocated,
        "cache.lines_touched": touched,
        "cache.lines_touched_ratio": _ratio(touched, allocated),
        "engine.events": events,
        "engine.events_per_request": _ratio(events, completed),
        "engine.schedule_self_s": self_s("engine.schedule"),
        "system.run_self_s": self_s("system.run"),
        "cache.probe_calls": calls("cache.probe"),
        "cache.probe_self_s": self_s("cache.probe"),
        "cache.fill_calls": calls("cache.fill"),
        "cache.fill_self_s": self_s("cache.fill"),
        "cache.select_victim_self_s": self_s("cache.select_victim"),
        "cache.evict_self_s": self_s("cache.evict"),
        "cache.service_self_s": self_s("cache.service"),
        "cache.demand_read_self_s": self_s("cache.demand_read"),
        "cache.writeback_write_calls": calls("cache.writeback_write"),
        "cache.writeback_write_self_s": self_s("cache.writeback_write"),
        "cache.touch_self_s": self_s("cache.touch"),
        "cache.write_touch_self_s": self_s("cache.write_touch"),
        "cache.invalidate_self_s": self_s("cache.invalidate"),
        "cache.l1d.hit_ratio": _hit_ratio(report, "l1d"),
        "cache.l2.hit_ratio": _hit_ratio(report, "l2"),
        "cache.l3.hit_ratio": _hit_ratio(report, "l3"),
        "coherence.step_calls": calls("coherence.step"),
        "coherence.step_self_s": self_s("coherence.step"),
        "coherence.snoop_lookups": lookups,
        "coherence.snoop_self_s": self_s("coherence.snoop_state",
                                         "coherence.snoop_authoritative"),
        "coherence.snoop_useful_ratio": _ratio(counts["snoop_useful"], lookups),
        "coherence.c2c_supplies": counts["c2c_supplies"],
        "coherence.c2c_per_access": _ratio(counts["c2c_supplies"], n_trace),
        "coherence.invalidations": counts["invalidations"],
        "bus.grants": calls("bus.request"),
        "bus.request_self_s": self_s("bus.request"),
        "noc.packets": delivered,
        # every delivered packet visits its destination router once more
        "noc.hops": calls("noc.hop") - delivered,
        "noc.hop_self_s": self_s("noc.hop"),
        "noc.event_share": _ratio(calls("noc.hop"), events),
        "noc.msg_mean_latency_ps": msg_mean if msg_mean is not None else 0.0,
        "memctrl.serves": calls("memctrl.serve"),
        "memctrl.serve_self_s": self_s("memctrl.serve"),
        "report.build_s": self_s("report.build"),
        "report.check_s": self_s("report.check"),
        "report.serialize_s": self_s("report.serialize"),
    }
    problems = []
    bus = report["interconnect"]["bus"]["total_grants"]
    if metrics["bus.grants"] != bus:
        problems.append(f"{metrics['bus.grants']} traced bus grants, report has {bus}")
    ctrl = report["interconnect"]["memory_controllers"]
    if metrics["memctrl.serves"] != ctrl["reads"] + ctrl["writes"]:
        problems.append("traced memory-controller serves differ from the report")
    return metrics, problems


def rep_main(name: str, seed: int, quick: bool, traced: bool) -> int:
    """Body of one repetition's process: print its result as one JSON line."""
    wl = workloads.get(name, quick)
    trace, messages = workloads.generate(wl, spec_from_dict(wl.config), seed)
    gc.collect()
    rec = spans.SpanRecorder() if traced else None
    with spans.instrument(rec) if traced else nullcontext():
        result, system, report = run_once(wl, trace, messages, seed, rec)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if report is not None:
        result["hit_ratios"] = {f"cache.{level}.hit_ratio": _hit_ratio(report, level)
                                for level in ("l1d", "l2", "l3")}
    if traced:
        if system is not None:
            result["per_layer"], extra = layer_metrics(
                rec, system, report, result["completed"], len(trace))
            result["problems"] += extra
        RESULTS_DIR.mkdir(exist_ok=True)
        rec.write(str(RESULTS_DIR / f"{name}-seed{seed}{'-quick' if quick else ''}.spans"))
    print(json.dumps(result))
    return 0


# -- the parent: repetitions, medians and output -------------------------------

def spawn_rep(name: str, seed: int, quick: bool, traced: bool) -> dict:
    """Run one repetition in a fresh process and return its result.

    The parent never builds a System, so it stays far smaller than a
    repetition: Linux carries ru_maxrss across exec, and a large parent
    would raise each child's reading to its own.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--rep", "traced" if traced else "timed"]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"repetition exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def machine(seed: int) -> dict:
    """Where and on what the result was measured."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "seed": seed,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from its .git directory (no git process);
    "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace_on: bool,
            quick: bool) -> dict:
    """Run one workload and return its result (see module docstring)."""
    timed: list[dict] = []
    clock = time.perf_counter
    start = clock()
    while len(timed) < MIN_REPS or clock() - start < seconds:
        timed.append(spawn_rep(name, seed, quick, traced=False))
    reps = list(timed)
    ok = [r for r in timed if r.get("digest") is not None]
    samples = {
        "setup_s": [r["setup_s"] for r in ok],
        "wall_s": [r["wall_s"] for r in ok],
        "requests_per_s": [_ratio(r["completed"], r["run_s"]) for r in ok],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in ok],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}

    layers = None
    if trace_on:
        traced = spawn_rep(name, seed, quick, traced=True)
        reps.append(traced)
        if "per_layer" in traced and ok:
            layers = dict(traced["per_layer"])
            layers["trace.overhead_frac"] = traced["wall_s"] / metrics["wall_s"] - 1.0

    problems = [p for r in reps for p in r.get("problems", [])]
    digests = [r.get("digest") for r in reps]
    if len(set(digests)) != 1 or digests[0] is None:
        problems.append("report digests differ between repetitions")
    attempted = sum(r.get("attempted", 0) for r in reps)
    failed = attempted if problems else sum(r.get("failed", 0) for r in reps)
    if layers is not None:
        shares = {k: layers[k] for k in SHARES}
    else:
        shares = next((r["hit_ratios"] for r in reps if "hit_ratios" in r), {})
    return {
        "workload": name, "seed": seed, "trace": int(trace_on),
        "seconds": seconds, "quick": quick, "machine": machine(seed),
        "reps": len(ok), "samples": samples, "metrics": metrics,
        "per_layer": layers, "shares": shares, "digest": digests[0],
        "digest_runs": len(digests), "attempted": attempted, "failed": failed,
        "failed_frac": _ratio(failed, attempted),
        "correct": not problems, "problems": problems,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _print_result(res: dict) -> None:
    name = res["workload"]
    print(f"perfbench {name} seed={res['seed']} trace={res['trace']} "
          f"seconds={res['seconds']} repetitions={res['reps']}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    for metric, unit in END_TO_END:
        if metric not in res["metrics"]:
            continue
        q1, _, q3 = _quartiles(res["samples"][metric])
        print(f"  {name:15s} {metric:16s} {res['metrics'][metric]:14.6g} {unit:5s} "
              f"median of {len(res['samples'][metric])}, quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  {name:15s} {'failed_frac':16s} {res['failed_frac']:14.6g} {'ratio':5s} "
          f"{res['failed']} of {res['attempted']} requests")
    if res["per_layer"] is not None:
        for metric, unit in PER_LAYER:
            print(f"  {name:15s} {metric:30s} {res['per_layer'][metric]:14.6g} {unit}")
    print("shares " + json.dumps(res["shares"], sort_keys=True))
    print(f"digest {name} seed={res['seed']} sha256={res['digest']} "
          f"({res['digest_runs']} repetitions)")
    for problem in res["problems"]:
        print(f"PROBLEM {name}: {problem}")


def _metric_entries(res: dict, prefix: str = "") -> dict:
    if res["trace"]:
        table, values = PER_LAYER, res["per_layer"] or {}
    else:
        table, values = END_TO_END, res["metrics"]
    return {prefix + m: {"value": values.get(m), "unit": unit} for m, unit in table}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced repetition and prints per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload lengths, for the self-test")
    parser.add_argument("--rep", choices=("timed", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rep:
        if args.workload == "all":
            parser.error("--rep runs a single workload")
        return rep_main(args.workload, args.seed, args.quick, args.rep == "traced")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), args.quick)
        _print_result(res)
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / (f"{name}-seed{args.seed}-trace{args.trace}"
                             f"{'-quick' if args.quick else ''}.json")
        out.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
        results.append(res)
    multi = len(results) > 1
    metrics: dict = {}
    for res in results:
        metrics.update(_metric_entries(res, res["workload"] + "." if multi else ""))
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1
