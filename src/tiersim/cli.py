"""Command-line front end.

Subcommands: run (one experiment), sweep (one report per value of a config
parameter), validate (spec check only), gen-trace (synthetic workloads),
hops (mesh analytics). Exit codes: 0 success, 1 runtime fault, 2 user or
configuration error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .arch import (PRESET_NAMES, ConfigError, generator_arguments, preset,
                   spec_from_dict, validate_spec, warn_on_build)
from .interconnect import mean_hop_count
from .metrics import check_report_invariants, emit_report, write_latency_csv
from .system import System, WorkloadError
from .workload import (field_kinds, gen_message_traffic, gen_synthetic_trace,
                       parse_messages, parse_trace, write_messages,
                       write_trace)

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USER = 2


class UserError(Exception):
    """Anything the user can fix: bad flags, bad config, missing files."""


def _load_config(path: str) -> dict:
    if path in PRESET_NAMES:
        return preset(path)
    if not os.path.exists(path):
        raise UserError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UserError(f"config is not valid JSON: {exc}") from None


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(config: dict, dotted: str, value) -> None:
    """Set a dotted-path key; every intermediate must already be an object."""
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise UserError(f"override path {dotted!r} does not resolve in the config")
        node = node[part]
    if not isinstance(node, dict):
        raise UserError(f"override path {dotted!r} does not resolve in the config")
    node[parts[-1]] = value


def _read_records(key: str, path: str, parse) -> list:
    """The records of the file at `path`, set by `workload.key`; a file
    that cannot be read or holds a bad record is a UserError naming both."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:
        raise UserError(f"workload.{key}: {path}: "
                        f"{getattr(exc, 'strerror', exc)}") from None


def _resolve_workload(spec, seed: int):
    """Trace and message record lists from the config's workload section,
    which `validate_spec` has checked, generator arguments included: only
    reading a record file can fail here, as a UserError. A key that is
    present and not null counts, as in `validate_spec`, so an empty
    generator section generates with its defaults."""
    wl = spec.workload
    trace, messages = [], []
    if wl.trace is not None:
        trace = _read_records("trace", wl.trace, parse_trace)
    elif wl.synthetic is not None:
        trace = gen_synthetic_trace(
            seed=seed, **generator_arguments(spec, "synthetic"))
    if wl.messages is not None:
        messages = _read_records("messages", wl.messages, parse_messages)
    elif wl.message_synthetic is not None:
        messages = gen_message_traffic(
            seed=seed, **generator_arguments(spec, "message_synthetic"))
    return trace, messages


def run_experiment(config: dict, seed: int, out_path: str,
                   t_end_ps: int | None = None,
                   dump_latencies: str | None = None) -> dict:
    """Validate, build, simulate and write one report. Raises UserError or
    ConfigError for anything exit-2-worthy."""
    spec = spec_from_dict(config)
    violations = validate_spec(spec)
    if violations:
        raise UserError("invalid configuration:\n  " + "\n  ".join(violations))
    trace, messages = _resolve_workload(spec, seed)
    warn_on_build(spec)
    try:
        system = System(spec, seed=seed)
        system.load_trace(trace)
        system.load_messages(messages)
        system.run(t_end_ps if t_end_ps is not None else float("inf"))
    except WorkloadError as exc:
        raise UserError(str(exc)) from None
    except OverflowError:  # a time that an int64 latency column cannot hold
        raise UserError(f"a request ends past {(1 << 63) - 1} ps, the int64 "
                        f"time limit; lower memory_latency_ns, a clock "
                        f"period or the ticks") from None
    report = system.build_report()
    check_report_invariants(report)
    emit_report(report, out_path)
    if dump_latencies:
        write_latency_csv(system.latency_rows(), dump_latencies)
    return report


def _cmd_run(args) -> int:
    if args.t_end is not None and args.t_end < 0:
        raise UserError(f"--t-end: must be >= 0, got {args.t_end}")
    config = _load_config(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise UserError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_override(config, key, _parse_value(value))
    run_experiment(config, seed=args.seed, out_path=args.out,
                   t_end_ps=args.t_end, dump_latencies=args.dump_latencies)
    print(f"report written to {args.out}")
    return EXIT_OK


def sweep_seed(base_seed: int, index: int) -> int:
    return (base_seed * 1_000_003 + index) % (1 << 31)


def _sweep_one(payload) -> dict:
    """Top-level worker so sweeps can fan out across processes."""
    config, seed, out_path = payload
    report = run_experiment(config, seed=seed, out_path=out_path)
    mem = report["latency"]["mem"]
    msg = report["latency"]["msg"]
    return {
        "seed": seed,
        "duration_ps": report["meta"]["duration_ps"],
        "energy_total_nj": report["energy"]["total_nj"],
        "mem_mean_latency_ps": mem["mean_ps"],
        "msg_mean_latency_ps": msg["mean_ps"],
        "worn_blocks": report["endurance"]["worn_blocks"],
        "bus_grants": report["interconnect"]["bus"]["total_grants"],
    }


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise UserError("sweep needs at least one value")
    jobs = []
    for index, value in enumerate(values):
        config = copy.deepcopy(base)
        apply_override(config, args.param, value)
        subdir = os.path.join(args.out_dir, str(value).replace(os.sep, "_"))
        os.makedirs(subdir, exist_ok=True)
        jobs.append((config, sweep_seed(args.seed, index),
                     os.path.join(subdir, "report.json")))
    workers = int(os.environ.get("TIERSIM_THREADS", "0")) or min(
        len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(job) for job in jobs]
    summary = os.path.join(args.out_dir, "summary.csv")
    headline = ["value", "seed", "duration_ps", "energy_total_nj",
                "mem_mean_latency_ps", "msg_mean_latency_ps",
                "worn_blocks", "bus_grants"]
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(args.param + "," + ",".join(headline[1:]) + "\n")
        for value, row in zip(values, rows):
            fh.write(",".join(str(x) for x in
                              [value] + [row[k] for k in headline[1:]]) + "\n")
    print(f"{len(values)} reports under {args.out_dir}, summary in {summary}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    violations = validate_spec(spec_from_dict(_load_config(args.config)))
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_USER
    print("configuration valid")
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    gen, write = ((gen_synthetic_trace, write_trace) if args.kind == "mem"
                  else (gen_message_traffic, write_messages))
    params = field_kinds(gen)
    for name, flag in args.flags.items():
        if name in vars(args) and name not in params:
            raise UserError(f"{flag}: not a parameter of --kind {args.kind}")
    try:
        records = gen(**{name: value for name, value in vars(args).items()
                         if name in params})
    except ValueError as exc:
        raise UserError(str(exc)) from None
    with open(args.out, "w", encoding="utf-8") as fh:
        write(records, fh)
    print(f"{len(records)} records written to {args.out}")
    return EXIT_OK


def _cmd_hops(args) -> int:
    try:
        dims = tuple(int(p) for p in args.dims.lower().split("x"))
    except ValueError:
        raise UserError(f"--dims expects XxYxZ, got {args.dims!r}") from None
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise UserError(f"--dims expects three positive extents, got {args.dims!r}")
    print(f"{float(mean_hop_count(dims)):.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiersim",
        description="3D MPSoC memory-hierarchy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--config", required=True,
                   help="config JSON path or a preset name "
                        f"({', '.join(PRESET_NAMES)})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-end", type=int, default=None, dest="t_end",
                   help="stop after this many simulated picoseconds (>= 0)")
    p.add_argument("--out", default="report.json")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry (dotted path)")
    p.add_argument("--dump-latencies", default=None, metavar="CSV",
                   help="write per-sample latencies for plotting")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run one experiment per parameter value")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, help="dotted config path to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="check a config without simulating")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    # A generator flag left out takes its generator's default, and one
    # given that is not a parameter of the --kind's generator is refused.
    p = sub.add_parser("gen-trace", help="generate synthetic workloads",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", choices=("mem", "msg"), default="mem")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=8)
    flags = [p.add_argument("--length", type=int),
             p.add_argument("--hot-fraction", type=float),
             p.add_argument("--hot-set-bytes", type=int),
             p.add_argument("--read-fraction", type=float),
             p.add_argument("--tick-interval", type=int),
             p.add_argument("--hot-overlap", type=float)]
    p.add_argument("--clusters", type=int, default=4)
    flags += [p.add_argument("--cycles", type=int),
              p.add_argument("--rate", type=float),
              p.add_argument("--payload", type=int, dest="payload_bytes")]
    p.set_defaults(func=_cmd_gen_trace, flags={
        flag.dest: flag.option_strings[0] for flag in flags})

    p = sub.add_parser("hops", help="print the mean hop count of a mesh")
    p.add_argument("--dims", required=True, help="mesh extents as XxYxZ")
    p.set_defaults(func=_cmd_hops)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # runtime fault
        print(f"fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
