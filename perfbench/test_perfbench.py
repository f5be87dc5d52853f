"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

The first group feeds every output check a doctored result and shows
that it fails (and that the undoctored result passes). The second checks
the host-speed scaling. The third builds the benchmark and shows that a
shortened run's digest repeats exactly, that the traced rebuild
reproduces it, and that its rounds report.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYER_NAMES = [x["name"] for x in SPEC["per_layer"]]
MUST_BE_ZERO = ["txns_in_flight_end", "rows_lost", "fenced_commits",
                "corrupt_records_served", "net_double_applies",
                "planner_replay_plan_diff", "planner_replay_cell_diff"]


def engine_doc():
    rep = {"digest": "00aa", "submitted": 100, "committed": 95,
           "aborted": 5, "avg_machines": 10.0}
    traced = {"digest": "00aa", "run_s": 1.0,
              "must_be_zero": {name: 0 for name in MUST_BE_ZERO},
              "layers": {n: 0.0 for n in LAYER_NAMES
                         if n != "trace.overhead_frac"}}
    return {"workload": "ksafe_static", "reps": [rep, dict(rep)],
            "traced": traced}


class DoctoredResultsFail(unittest.TestCase):
    def assert_fails(self, doc, expect_failed=1):
        attempted, failed, messages = checks.run_checks(doc, LAYER_NAMES)
        self.assertEqual(failed, expect_failed, messages)
        self.assertTrue(messages)
        return attempted

    def test_clean_results_pass(self):
        doc = engine_doc()
        attempted, failed, messages = checks.run_checks(doc, LAYER_NAMES)
        self.assertEqual((failed, messages), (0, []))
        self.assertEqual(attempted, len(doc["reps"]) + 1)

    def test_lost_transaction_fails_conservation(self):
        doc = engine_doc()
        doc["reps"][1]["committed"] -= 1  # one txn neither done nor aborted
        self.assertEqual(self.assert_fails(doc), 3)

    def test_empty_run_fails_conservation(self):
        doc = engine_doc()
        for rep in doc["reps"]:
            rep.update(submitted=0, committed=0, aborted=0)
        self.assert_fails(doc, expect_failed=2)

    def test_unrepeatable_digest_fails(self):
        doc = engine_doc()
        doc["reps"][1]["digest"] = "00ab"
        self.assert_fails(doc)

    def test_traced_digest_mismatch_fails(self):
        doc = engine_doc()
        doc["traced"]["digest"] = "00ab"
        self.assert_fails(doc)

    def test_each_must_be_zero_counter_fails(self):
        for name in MUST_BE_ZERO:
            with self.subTest(counter=name):
                doc = engine_doc()
                doc["traced"]["must_be_zero"][name] = 1
                self.assert_fails(doc)

    def test_missing_layer_metric_fails(self):
        doc = engine_doc()
        del doc["traced"]["layers"]["sim.events"]
        self.assert_fails(doc)

    def test_no_runs_fails(self):
        doc = engine_doc()
        doc["reps"] = []
        self.assert_fails(doc)


class HostSpeedScaling(unittest.TestCase):
    def test_times_scale_by_the_adjacent_calibrations(self):
        ref = run.REFERENCE_CALIBRATION_S
        doc = {"reps": [{"setup_s": 0.1, "run_s": 10.0}],
               "rounds": [{"calibration_s": ref, "setups": [0.2]},
                          {"calibration_s": 3 * ref, "setups": [0.3]}]}
        setups, runs = run.scaled_times(doc)
        # Round 0 runs at reference speed, round 1 three times slower;
        # the repetition between them is scaled by their mean, 2x.
        for got, want in zip(sorted(setups), [0.1, 0.1, 0.2]):
            self.assertAlmostEqual(got, want)
        self.assertEqual(len(setups), 3)
        self.assertAlmostEqual(runs[0], 5.0)
        self.assertEqual(len(runs), 1)


class ShortenedRunsRepeat(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def raw(self, workload, trace):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", "3",
             "--seconds", "0.01", "--trace", str(trace), "--short"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        return json.loads(out.stdout)

    def test_digest_repeats_and_traced_run_reproduces_it(self):
        for workload in ("elastic_spike", "ksafe_static"):
            with self.subTest(workload=workload):
                first = self.raw(workload, 0)
                second = self.raw(workload, 1)
                # One repetition, with a round (a calibration and 5
                # set-up-only runs) before it and one after it.
                self.assertEqual(len(first["reps"]), 1)
                self.assertEqual(len(first["rounds"]), 2)
                for rnd in first["rounds"]:
                    self.assertGreater(rnd["calibration_s"], 0)
                    self.assertEqual(len(rnd["setups"]), 5)
                    self.assertTrue(all(s > 0 for s in rnd["setups"]))
                digest = first["reps"][0]["digest"]
                self.assertEqual(second["reps"][0]["digest"], digest)
                self.assertEqual(second["traced"]["digest"], digest)
                attempted, failed, messages = checks.run_checks(
                    second, LAYER_NAMES)
                self.assertEqual((attempted, failed, messages), (2, 0, []))

    def test_doctored_copy_of_a_real_run_fails(self):
        doc = self.raw("ksafe_static", 1)
        doctored = copy.deepcopy(doc)
        doctored["traced"]["must_be_zero"]["rows_lost"] = 2
        _, failed, _ = checks.run_checks(doctored, LAYER_NAMES)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
