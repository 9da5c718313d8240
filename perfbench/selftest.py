"""Quick self-test of the benchmark. Run it from the repository root:

    python3 perfbench/selftest.py

It runs every workload at a tiny length (--quick) on both seeds, untraced
and traced, as separate processes the way the benchmark is driven, and
checks that each run prints every metric BENCHMARK.json names with no
failed request, that both seeds print the same names, that repeats give the
same report digest, and that the written spans reproduce the per-layer self
times. It takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (workloads.TUNING_SEED, workloads.CONFIRM_SEED)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}
        for name in workloads.NAMES:
            for seed in SEEDS:
                for trace in (0, 1):
                    cls.runs[name, seed, trace] = run_bench(
                        ROOT, "--workload", name, "--seed", str(seed),
                        "--seconds", "0.2", "--trace", str(trace), "--quick")

    def _result(self, key) -> dict:
        proc = self.runs[key]
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        return result

    def _saved(self, name: str, seed: int, trace: int) -> dict:
        path = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}-quick.json"
        return json.loads(path.read_text())

    def test_every_declared_metric_is_printed_with_no_failure(self):
        for (name, seed, trace), proc in self.runs.items():
            with self.subTest(workload=name, seed=seed, trace=trace):
                result = self._result((name, seed, trace))
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                table = self.declared["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {m: v["unit"] for m, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in table})
                for metric, entry in result["metrics"].items():
                    self.assertIsInstance(entry["value"], (int, float), metric)
                for line in ("failed_frac", "setup_s", "wall_s",
                             "requests_per_s", "shares ", "machine "):
                    self.assertIn(line, proc.stdout)

    def test_end_to_end_metrics_are_never_zero(self):
        for name in workloads.NAMES:
            for seed in SEEDS:
                result = self._result((name, seed, 0))
                for metric, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, (name, seed, metric))

    def test_both_seeds_print_the_same_names(self):
        for name in workloads.NAMES:
            for trace in (0, 1):
                names = [set(self._result((name, seed, trace))["metrics"])
                         for seed in SEEDS]
                self.assertEqual(names[0], names[1])

    def test_digest_repeats_across_processes_and_tracing(self):
        for name in workloads.NAMES:
            digests = {}
            for seed in SEEDS:
                untraced = self._saved(name, seed, 0)
                traced = self._saved(name, seed, 1)
                self.assertEqual(untraced["digest"], traced["digest"])
                self.assertGreater(untraced["digest_runs"], 2)
                digests[seed] = untraced["digest"]
            self.assertNotEqual(digests[SEEDS[0]], digests[SEEDS[1]])

    def test_spans_file_reproduces_self_times(self):
        for name in workloads.NAMES:
            seed = SEEDS[0]
            loaded = spans.read_spans(
                str(RESULTS_DIR / f"{name}-seed{seed}-quick.spans"))
            times = spans.self_times(loaded["names"], loaded["name"],
                                     loaded["parent"], loaded["start_ns"],
                                     loaded["end_ns"])
            layers = self._saved(name, seed, 1)["per_layer"]
            self.assertEqual(layers["cache.probe_calls"],
                             times.get("cache.probe", (0, 0))[0])
            self.assertAlmostEqual(layers["system.run_self_s"],
                                   times["system.run"][1] / 1e9)
            self.assertEqual(layers["coherence.snoop_lookups"],
                             times.get("coherence.snoop_state", (0, 0))[0])

    def test_fails_without_the_simulator_source(self):
        RESULTS_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = run_bench(bare, "--workload", workloads.NAMES[0],
                             "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
