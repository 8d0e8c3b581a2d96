#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the repository root:

    python3 simbench/selftest.py

They run the benchmark's Rust unit tests (tail rule, metric-name
grammar, span bookkeeping), then drive the built benchmark through
`run.py` with short runs and check that

- the last output line parses as JSON with exactly the keys and metrics
  `BENCHMARK.json` promises, untraced and traced;
- every exact metric (`sim_*` and the counts marked exact in the
  `# exact:` header line) repeats across two runs of one seed, for every
  workload;
- the `serve` workload's exact metrics change under another seed;
- a bad invocation, and a checkout holding nothing but the benchmark,
  exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["figures", "tune", "serve"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def bench(workload, seed, trace, seconds="0.5"):
    """Runs the benchmark once (memoized); returns (header lines, result)."""
    key = (workload, seed, trace, seconds)
    if key not in _cache:
        out = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        _cache[key] = (lines[:-1], json.loads(lines[-1]))
    return _cache[key]


def exact_names(header):
    line = next(l for l in header if l.startswith("# exact: "))
    return line[len("# exact: "):].split()


class RustUnitTests(unittest.TestCase):
    def test_cargo_test(self):
        sys.path.insert(0, HERE)
        import run
        run.ensure_repo_link()
        subprocess.run(
            ["cargo", "test", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, check=True,
        )


class ResultLine(unittest.TestCase):
    def check(self, result, catalogue):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in catalogue})
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], float, name)

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = bench(w, 1, 0)
                self.check(result, SPEC["end_to_end"])
                for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                             "peak_rss_mb", "sim_speedup_x"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = bench(w, 1, 1)
                self.check(result, SPEC["per_layer"])

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], WORKLOADS)


class Exactness(unittest.TestCase):
    def test_exact_metrics_repeat_for_a_seed(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    header, first = bench(w, 1, trace)
                    # A longer second run: exact values must not depend
                    # on how many passes a run fits in.
                    _, second = bench(w, 1, trace, seconds="1.5")
                    names = [n for n in exact_names(header) if n in first["metrics"]]
                    self.assertTrue(names)
                    for n in names:
                        self.assertEqual(first["metrics"][n], second["metrics"][n], n)

    def test_serve_exact_metrics_change_with_the_seed(self):
        for trace, names in ((0, ["sim_speedup_x"]),
                             (1, ["serve.requests", "serve.rejected_shed",
                                  "serve.sim_goodput_rps", "serve.tokens_goodput_per_s"])):
            _, a = bench("serve", 1, trace)
            _, b = bench("serve", 2, trace)
            for n in names:
                self.assertNotEqual(a["metrics"][n]["value"], b["metrics"][n]["value"], n)


class Failures(unittest.TestCase):
    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope"], ["--workload", "serve", "--trace", "2"], []):
            out = subprocess.run([sys.executable, RUN, *args, "--seed", "1"], cwd=ROOT,
                                 capture_output=True, text=True)
            self.assertNotEqual(out.returncode, 0, args)
            self.assertNotIn('"correct"', out.stdout)

    def test_a_checkout_of_only_the_benchmark_fails(self):
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
        alone = os.path.join(os.path.abspath(target), "selftest-alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "simbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__", ".repo"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        out = subprocess.run(
            [sys.executable, "simbench/run.py", "--workload", "serve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
