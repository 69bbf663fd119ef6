"""Tests for the campaign benchmark itself, at tiny scales.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs end to end through run.py (traced and untraced) at a
scale small enough that a campaign takes a few tens of milliseconds.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SCALE = {
    "campaign-2018": 16384,
    "campaign-2013-t4": 16384,
    "dense-2018": 8192,
    "dense-2018-dotcp": 8192,
}
TEST_DIR = run.BUILD_DIR / "tests"


def invoke(workload, *extra):
    """run.py at the workload's tiny scale; returns (result, manifest)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--scale", str(TINY_SCALE[workload]),
         *extra],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


class BenchmarkSpec(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual(set(TINY_SCALE), set(run.WORKLOADS))

    def test_end_to_end_units_match_spec(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)


class EveryWorkload(unittest.TestCase):
    """One case per workload: every metric is printed with its unit, every
    campaign passes its checks, tracing leaves digest and tables alone."""

    def check_workload(self, workload):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        result, manifest = invoke(workload, "--trace", "0")
        self.assertTrue(result["correct"], manifest["problems"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_SAMPLES)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)
        self.assertEqual(result["metrics"]["r2_capture_ratio"]["value"], 1.0)
        self.assertEqual(manifest["r2_miss_ratio"], 0.0)
        for key in ("seed", "scale", "year", "threads", "raw_steps_override",
                    "hardware_concurrency", "git_rev", "src_sha256"):
            self.assertIn(key, manifest)
        self.assertEqual(set(manifest["wall"]),
                         {"campaign_s", "probes_per_s", "responses_per_s", "setup_s"})
        self.assertEqual(len(manifest["yardstick_s_each"]), manifest["campaigns"]["untraced"])

        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        result, manifest = invoke(workload, "--trace", "1")
        # Traced campaigns are checked against the untraced ones (digest and
        # Tables III-X), so a correct traced run proves tracing is passive.
        self.assertTrue(result["correct"], manifest["problems"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        trace = json.loads((run.BUILD_DIR / f"trace-{workload}-seed3.json").read_text())
        names = {sp["name"] for sp in trace["spans"]}
        self.assertTrue({"campaign", "population", "plan", "shards", "merge",
                         "finalize", "shard0.construct", "shard0.run",
                         "shard0.teardown"} <= names)
        return result["metrics"]

    def test_campaign_2018(self):
        m = self.check_workload("campaign-2018")
        self.assertEqual(m["prober.tcp_retries"]["value"], 0)

    def test_campaign_2013_t4(self):
        m = self.check_workload("campaign-2013-t4")
        self.assertGreaterEqual(m["core.shard_skew"]["value"], 1.0)

    def test_dense_2018(self):
        m = self.check_workload("dense-2018")
        self.assertEqual(m["resolver.truncated"]["value"], 0)

    def test_dense_2018_dotcp(self):
        m = self.check_workload("dense-2018-dotcp")
        self.assertGreater(m["prober.tcp_retries"]["value"], 0)
        self.assertGreater(m["resolver.truncated"]["value"], 0)


class CounterIdentities(unittest.TestCase):
    def test_identities_hold_on_every_workload(self):
        run.build()
        for name, w in run.WORKLOADS.items():
            with self.subTest(workload=name):
                out = run.run_campaign(run.campaign_args(w, 3, TINY_SCALE[name]) + ["--trace"])
                s = out["scan"]
                self.assertEqual(s["r2_matched"] + s["r2_unmatched"] + s["r2_empty_question"],
                                 s["r2_received"])
                self.assertEqual(out["layer"]["r2_classified"], s["r2_received"])
                self.assertEqual(out["layer"]["on_r2_calls"], s["r2_received"])
                self.assertEqual(s["r2_received"], out["planted"])
                self.assertEqual(out["metrics"]["orp_scan_q1_sent"], s["q1_sent"])

    def test_check_reports_broken_identities(self):
        run.build()
        w = run.WORKLOADS["dense-2018"]
        good = run.run_campaign(run.campaign_args(w, 3, TINY_SCALE["dense-2018"]))
        self.assertEqual(run.check(good, good, None), [])
        bad = copy.deepcopy(good)
        bad["scan"]["r2_unmatched"] += 1
        self.assertTrue(any("matched+unmatched" in p for p in run.check(bad, good, None)))
        bad = copy.deepcopy(good)
        bad["layer"]["r2_classified"] -= 1
        self.assertTrue(any("r2_classified" in p for p in run.check(bad, good, None)))
        self.assertEqual(["campaign crashed or timed out"], run.check(None, good, None))


class PinnedReference(unittest.TestCase):
    def test_tampered_reference_fails_the_run(self):
        TEST_DIR.mkdir(parents=True, exist_ok=True)
        ref = TEST_DIR / "reference.json"
        ref.unlink(missing_ok=True)
        result, _ = invoke("dense-2018", "--pin", "--reference", str(ref))
        self.assertTrue(result["correct"])
        pinned = json.loads(ref.read_text())
        self.assertEqual(len(pinned), 1)

        result, manifest = invoke("dense-2018", "--reference", str(ref))
        self.assertTrue(result["correct"])
        self.assertEqual(manifest["pinned_reference"], "checked")

        entry = next(iter(pinned.values()))
        entry["tables_sha256"] = "0" * 64
        ref.write_text(json.dumps(pinned))
        result, manifest = invoke("dense-2018", "--reference", str(ref))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["r2_capture_ratio"]["value"], 0.0)
        self.assertTrue(any("pinned reference" in p for p in manifest["problems"]))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = TEST_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-2018",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
