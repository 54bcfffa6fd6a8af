#!/usr/bin/env python3
"""Tests for the benchmark's own checks: each one must be able to fail.

    python3 perfbench/test_perfbench.py        # from the repo root

Builds perfbench like run.py does, then runs the binary with short
--seconds (one pass per run, about two minutes in all):

- a checkpoint chain run on another seed's trace is reported as a
  digest mismatch;
- one failed operation makes the exit code non-zero and shows in the
  failed count;
- every metric BENCHMARK.json declares is printed with its unit on
  every workload, traced and untraced, and so is every end-to-end
  metric the benchmark prints for that workload;
- a checkout holding only BENCHMARK.json and perfbench/ is refused
  without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helper next to this file)

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"s", "ms", "us", "ns"}
# End-to-end metrics printed for each workload beyond the JSON line.
PRINTED = {
    "sweep16": ["sim_accesses_per_s", "sim_cycles", "net_bytes",
                "flit_hops"],
    "mesh64": ["sim_accesses_per_s", "sim_cycles", "net_bytes",
               "flit_hops"],
    "checkpoint": ["sim_accesses_per_s", "sim_cycles", "net_bytes",
                   "flit_hops", "checkpoint_s", "snapshot_mb"],
    "protocheck": [],
}


BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def perfbench(*args):
    """Run the binary; @return (exit code, stdout lines, parsed JSON)."""
    proc = subprocess.run(
        [str(BINARY), *args, "--scratch", str(run.build_dir())],
        capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, result


def printed_metrics(lines):
    """name -> unit from the indented 'name value unit' report lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


class ChecksCanFail(unittest.TestCase):
    def test_chain_on_another_seed_is_a_digest_mismatch(self):
        rc, lines, res = perfbench("--workload", "checkpoint", "--seed", "7",
                                   "--seconds", "1", "--trace", "0",
                                   "--inject", "chain-seed")
        self.assertEqual(rc, 1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertTrue(any("chained-restore digest != uninterrupted digest"
                            in line for line in lines), lines)

    def test_one_failed_operation_fails_the_run(self):
        rc, lines, res = perfbench("--workload", "checkpoint", "--seed", "7",
                                   "--seconds", "1", "--trace", "0",
                                   "--inject", "fail-op")
        self.assertEqual(rc, 1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertGreater(res["attempted"], 1)
        share = f"failed 1 ({100 / res['attempted']:.2f}%)"
        self.assertTrue(any(share in line for line in lines), lines)

    def test_clean_run_passes(self):
        rc, _, res = perfbench("--workload", "checkpoint", "--seed", "7",
                               "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


class EveryMetricIsPrinted(unittest.TestCase):
    def check(self, workload, trace):
        rc, lines, res = perfbench("--workload", workload, "--seed", "11",
                                   "--seconds", "1", "--trace", str(trace))
        self.assertEqual(rc, 0, lines)
        self.assertTrue(res["correct"])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if m["unit"] in TIME_UNITS or not trace:
                self.assertGreater(got["value"], 0, m["name"])
        printed = printed_metrics(lines)
        for m in declared:
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        for name in PRINTED[workload]:
            self.assertIn(name, printed)
        self.assertTrue(any(line.startswith("host: nproc=")
                            for line in lines))
        self.assertTrue(any(line.startswith("canary: ") for line in lines))
        self.assertTrue(any(line.startswith("digest: 0x") for line in lines))

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_checkout_is_refused(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items()
               if k != "CARGO_TARGET_DIR"}
        try:
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload",
                 "sweep16", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=170, check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
