#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload briefly through perfbench/run.py, once untraced and
once traced under another seed, and checks that:
  - both runs pass every correctness check and print exactly the
    metrics BENCHMARK.json declares (run.py refuses otherwise);
  - every counter the driver declares deterministic repeats exactly
    within a run, across the two runs and across the two seeds, and the
    declared sets are the ones listed below (placement-dependent
    counters are listed as varying, so a later change may cite a count
    only when it is exact);
  - serve_open's offered rate in BENCHMARK.json is the driver's;
  - the benchmark refuses to run from a directory holding only
    BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

EXACT = {
    "kernel.app_threads", "kernel.threads_executed",
    "emulator.updates_processed", "emulator.dispatches",
    "emulator.blocks_loaded", "dataplane.forwards",
    "dataplane.bytes_forwarded",
}
VARYING = {
    "kernel.mailbox_backlog_peak", "emulator.home_dispatches",
    "emulator.steal_dispatches", "emulator.drain_sweeps",
    "emulator.prefetch_hits", "emulator.prefetch_misses",
    "emulator.deferred_replays", "tub.publishes", "tub.entries_published",
    "tub.full_skips", "tub.trylock_failures", "dataplane.affinity_hits",
    "dataplane.affinity_misses", "dataplane.affinity_cold",
    "dataplane.cross_shard_bytes", "guard.checks", "guard.violations",
}
SECONDS = "1"


def run_workload(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    path = os.path.join(run.build_dir(), "results", tag + ".json")
    return proc, path


class BenchmarkSelfTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOADS:
            for seed, trace in ((1, 0), (2, 1)):
                proc, path = run_workload(workload, seed, trace)
                cls.results[(workload, trace)] = (proc, path)

    def load(self, workload, trace):
        proc, path = self.results[(workload, trace)]
        self.assertEqual(proc.returncode, 0, "%s trace %d" % (workload, trace))
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        with open(path) as f:
            return json.load(f)

    def test_declared_counter_sets(self):
        for workload in run.WORKLOADS:
            counters = self.load(workload, 0)["counters"]
            for name, c in counters.items():
                base = name.split(":")[-1]
                self.assertIn(base, EXACT | VARYING, name)
                self.assertEqual(c["declared"],
                                 "exact" if base in EXACT else "varies", name)

    def test_exact_counters_repeat_across_runs_and_seeds(self):
        for workload in run.WORKLOADS:
            untraced = self.load(workload, 0)["counters"]
            traced = self.load(workload, 1)["counters"]
            for name, c in untraced.items():
                if c["declared"] != "exact":
                    continue
                self.assertEqual(c["min"], c["max"], "%s %s" % (workload, name))
                self.assertEqual((c["min"], c["max"]),
                                 (traced[name]["min"], traced[name]["max"]),
                                 "%s %s across seeds" % (workload, name))

    def test_provenance_block(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                p = self.load(workload, trace)["provenance"]
                for key in ("nproc", "cxx_flags", "compiler", "git_commit",
                            "source_digest", "seed", "loadavg_before",
                            "loadavg_after", "foreign_cpu", "steal_cpu",
                            "chunks", "loaded_chunks", "host_loaded", "runs",
                            "timed_runs", "timed_load_cutoff",
                            "warmup_ops", "warmup_s",
                            "busy_threads"):
                    self.assertIn(key, p, "%s trace %d" % (workload, trace))
                self.assertIn("-O2 -g", p["cxx_flags"])
                self.assertLessEqual(p["busy_threads"], p["nproc"])

    def test_traced_run_writes_spans_for_every_timed_layer(self):
        expected = {
            "coarse_dataflow": {"bench", "apps", "runtime", "core.reference"},
            "checked_fine": {"bench", "apps", "runtime", "core.reference",
                             "core.check"},
            "serve_open": {"bench", "apps", "runtime", "core.reference",
                           "runtime.executor"},
        }
        for workload, layers in expected.items():
            result = self.load(workload, 1)
            with open(os.path.join(ROOT,
                                   result["provenance"]["spans_file"])) as f:
                events = json.load(f)["traceEvents"]
            self.assertEqual({e["cat"] for e in events}, layers, workload)
            for e in events:
                self.assertIn("parent", e["args"])
                self.assertIn("id", e["args"])
            for layer in layers:
                name = "span.%s.self_ms" % layer
                self.assertGreater(result["metrics"][name]["value"], 0.0,
                                   "%s %s" % (workload, name))

    def test_serve_rate_matches_benchmark_json(self):
        with open(os.path.join(HERE, "driver.cpp")) as f:
            rate = re.search(r"kServeRate = ([0-9.]+);", f.read()).group(1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        why = [w["why"] for w in spec["workloads"]
               if w["name"] == "serve_open"][0]
        self.assertIn("%d req/s" % float(rate), why)

    def test_refuses_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "checked_fine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
