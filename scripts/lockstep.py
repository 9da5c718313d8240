"""Lockstep CPU timing of two commits, slice by slice of simulated time.

    python3 scripts/lockstep.py BASE HEAD --workload W [--seed S]
        [--rounds 1] [--quick]

Extracts both commits with `git archive` into a temporary directory, as
`bench_pairs.py` does, and starts one long-lived worker process per tree.
Each worker builds the perfbench workload W from its own tree's `src/` and
`perfbench/workloads.py`, runs it once whole to learn its simulated
duration and report digest, then builds it again and waits for commands.

The run is cut into SLICES (60) slices of equal simulated time: slice k runs
`System.run(t_k)`, and the last runs `System.run()`. For each slice both
workers run it back to back, BASE first on even slices and HEAD first on
odd ones, and each times its slice with `time.thread_time()`, the CPU time
of its own thread, which the other worker's run and the wait for the next
command do not count in. The statistic is the median over slices of
log(HEAD CPU / BASE CPU), printed as a relative change with a bootstrap
95% interval; slices under 2 ms on either side are left out. A negative
change means HEAD spent less CPU.

Each round compares BASE with HEAD on a fresh worker pair, then BASE with
BASE on another (the A/A round), so a claimed change is read against the
floor measured in the same invocation. Exits 1 when the two sides of a
comparison dispatch a different number of events in any slice, or end on
different report digests, or a worker's sliced report differs from its
whole run's; else 0, whatever the timing. It writes nothing under the
repository.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from bench_pairs import extract

SLICES = 60
MIN_SLICE_S = 0.002
BOOTSTRAP = 2000


# -- the worker (one process per tree) -----------------------------------------

def worker(tree: str, workload: str, seed: int, quick: bool) -> int:
    """Serve `run T` (T in ps, or `inf`) and `digest` commands on stdin,
    answering each with one JSON line on stdout."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
    warnings.simplefilter("ignore")
    import tiersim
    import workloads
    from tiersim.arch import spec_from_dict
    from tiersim.system import System
    if not tiersim.__file__.startswith(tree):
        raise RuntimeError(f"tiersim imported from {tiersim.__file__}, not {tree}")

    wl = workloads.get(workload, quick)
    spec = spec_from_dict(copy.deepcopy(wl.config))
    trace, messages = workloads.generate(wl, spec, seed)

    def build() -> System:
        system = System(spec, seed=seed)
        system.load_trace(trace)
        system.load_messages(messages)
        return system

    def digest(system: System) -> str:
        text = json.dumps(system.build_report(), indent=2, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    whole = build()
    whole.run()
    duration = max([c.snapshot()["now"] for c in whole.clusters]
                   + [whole.engine.now])
    whole_digest = digest(whole)
    del whole
    system = build()
    gc.collect()
    print(json.dumps({"duration": duration}), flush=True)
    for line in sys.stdin:
        cmd, *arg = line.split()
        if cmd == "run":
            t_end = math.inf if arg[0] == "inf" else int(arg[0])
            t0 = time.thread_time()
            events = system.run(t_end)
            cpu = time.thread_time() - t0
            print(json.dumps({"cpu_s": cpu, "events": events}), flush=True)
        elif cmd == "digest":
            sliced = digest(system)
            print(json.dumps({"digest": sliced,
                              "whole_digest": whole_digest}), flush=True)
            return 0
    return 1


class Worker:
    """The coordinator's handle on one worker process."""

    def __init__(self, tree: Path, args: argparse.Namespace):
        cmd = [sys.executable, __file__, "--worker", str(tree),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.quick:
            cmd.append("--quick")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.duration = self._reply()["duration"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the worker has already gone
            pass
        self.proc.wait()


# -- the coordinator -----------------------------------------------------------

def interval(ratios: list[float]) -> tuple[float, float, float]:
    """(median, 2.5th, 97.5th percentile of a bootstrap of the median) of
    the log ratios; the bootstrap's draws are seeded, so the same ratios
    give the same interval."""
    rng = random.Random(0)
    boots = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                   for _ in range(BOOTSTRAP))
    return (statistics.median(ratios), boots[int(0.025 * BOOTSTRAP)],
            boots[int(0.975 * BOOTSTRAP) - 1])


def compare(label: str, trees: tuple[Path, Path],
            args: argparse.Namespace) -> list[str]:
    """One comparison on a fresh worker pair: prints its statistic and
    returns every disagreement between the two sides."""
    pair: list[Worker] = []
    problems = []
    try:
        pair += (Worker(tree, args) for tree in trees)
        duration = pair[0].duration
        if pair[1].duration != duration:
            problems.append(f"simulated durations differ: "
                            f"{pair[0].duration} and {pair[1].duration}")
        cuts = [str(duration * k // SLICES) for k in range(1, SLICES)]
        ratios = []
        for k, cut in enumerate(cuts + ["inf"]):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            replies = {}
            for side in order:
                replies[side] = pair[side].ask(f"run {cut}")
            a, b = replies[0], replies[1]
            if a["events"] != b["events"]:
                problems.append(f"slice {k + 1}: {a['events']} events against "
                                f"{b['events']}")
            if min(a["cpu_s"], b["cpu_s"]) >= MIN_SLICE_S:
                ratios.append(math.log(b["cpu_s"] / a["cpu_s"]))
        ends = [w.ask("digest") for w in pair]
        for side, end in zip(trees, ends):
            if end["digest"] != end["whole_digest"]:
                problems.append(f"{side.name}: the sliced report differs from "
                                f"the whole run's")
        if ends[0]["digest"] != ends[1]["digest"]:
            problems.append("report digests differ")
    finally:
        for w in pair:
            w.close()
    if ratios:
        med, lo, hi = (100.0 * math.expm1(x) for x in interval(ratios))
        timing = (f"{med:+.1f}% [{lo:+.1f}, {hi:+.1f}] over {len(ratios)} "
                  f"of {SLICES} slices")
    else:
        timing = f"no slice of the {SLICES} took {MIN_SLICE_S * 1e3:g} ms"
    print(f"{label:10s} {timing}; digest {ends[0]['digest'][:16]}", flush=True)
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="the parent commit")
    parser.add_argument("head", nargs="?", help="the changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="the perfbench self-test's short workload")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload, args.seed, args.quick)
    if args.base is None or args.head is None:
        parser.error("BASE and HEAD are required")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    problems = []
    with tempfile.TemporaryDirectory(prefix="lockstep-") as tmp:
        try:
            base, head = Path(tmp) / "base", Path(tmp) / "head"
            print(f"base {extract(args.base, base)}")
            print(f"head {extract(args.head, head)}")
            print(f"workload {args.workload} seed {args.seed} slices "
                  f"{SLICES}; HEAD CPU against BASE, median [95% interval]")
            for r in range(args.rounds):
                problems += compare(f"round {r + 1}", (base, head), args)
                problems += compare("  A/A", (base, base), args)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            problems.append(str(exc))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
