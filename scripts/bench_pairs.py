"""Paired benchmark runs of two commits, in alternating order.

    python3 scripts/bench_pairs.py BASE HEAD --workload W --seed S --pairs N

Extracts both commits with `git archive` into a temporary directory, then
runs the whole benchmark, `perfbench/run.py --workload W --seed S --seconds
T` with T the `run_seconds` of `BENCHMARK.json`, from each tree in a fresh
process, N times per side. Pair i runs BASE first when i is even and HEAD
first when it is odd, so neither side always runs on a machine the other
has just warmed or loaded. Each run's figures are what it writes to its
tree's `perfbench/results/W-seedS-trace0.json`: the medians of the four
end-to-end metrics (`setup_s`, `wall_s`, `requests_per_s`, `peak_rss_mb`)
over its repetitions, its report digest, and whether it was correct and
how many requests failed. So a pair compares two runs as the benchmark
makes them, and only `perfbench/measure.py` computes a metric.

Prints each pair, then for each metric each side's median and quartiles
over the runs, the relative change of the medians and the pairs each side
won (ties count for neither). Last come both sides' report digests. Exits
1 when the digests differ or a run is not correct or fails a request,
else 0. It writes nothing under the repository: the trees and everything
they write live in the temporary directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (metric, unit, True when higher is better)
METRICS = (("setup_s", "s", False), ("wall_s", "s", False),
           ("requests_per_s", "1/s", True), ("peak_rss_mb", "MiB", False))


def extract(commit: str, dest: Path) -> str:
    """Write the tree of `commit` to `dest`; returns its full hash."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           f"{commit}^{{commit}}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", full],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {full} failed")
    return full


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One whole benchmark run in a fresh process: the metrics and digest
    of the result file it writes."""
    result = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if not result.is_file():
        raise RuntimeError(f"{tree.name}: benchmark exited with code "
                           f"{proc.returncode} and wrote no result\n{proc.stderr}")
    res = json.loads(result.read_text())
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{tree.name}: {res['failed']} requests failed: "
                           f"{res['problems']}")
    return {**{m: res["metrics"][m] for m, _, _ in METRICS},
            "digest": res["digest"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), as perfbench prints them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]]) -> None:
    """Each metric's medians, quartiles, change and pairs won per side."""
    print(f"{'metric':15s} {'base median':>12s} {'base quartiles':>23s} "
          f"{'head median':>12s} {'head quartiles':>23s} {'change':>8s} "
          f"{'won base/head':>13s}")
    for metric, unit, higher in METRICS:
        base = [b[metric] for b, _ in pairs]
        head = [h[metric] for _, h in pairs]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        head_won = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        base_won = sum((b > h) if higher else (b < h) for b, h in zip(base, head))
        change = (hmed / bmed - 1.0) * 100.0 if bmed else float("nan")
        print(f"{metric:15s} {bmed:12.6g} {bq1:11.6g}..{bq3:<11.6g} "
              f"{hmed:12.6g} {hq1:11.6g}..{hq3:<11.6g} {change:+7.1f}% "
              f"{base_won:6d}/{head_won:<6d} {unit}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pairs: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        try:
            trees = {}
            for side, commit in (("base", args.base), ("head", args.head)):
                trees[side] = Path(tmp) / side
                print(f"{side} {extract(commit, trees[side])}")
            print(f"workload {args.workload} seed {args.seed} "
                  f"seconds {seconds} pairs {args.pairs}")
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                reps = {side: run_bench(trees[side], args.workload,
                                        args.seed, seconds)
                        for side in order}
                pairs.append((reps["base"], reps["head"]))
                print(f"pair {i + 1:2d} ({order[0]} first): " + "  ".join(
                    f"{m} {reps['base'][m]:.6g} -> {reps['head'][m]:.6g}"
                    for m, _, _ in METRICS), flush=True)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    summarize(pairs)
    digests = {side: sorted({p[k]["digest"] for p in pairs})
               for k, side in enumerate(("base", "head"))}
    for side, values in digests.items():
        print(f"digest {side} {' '.join(values)}")
    if digests["base"] != digests["head"] or len(digests["base"]) != 1:
        print("digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
