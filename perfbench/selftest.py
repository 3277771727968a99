"""Self-tests of the benchmark itself: its output check and its spans.

Run from the repository root (about a minute on two cores):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from synchrolens import cli  # noqa: E402

from tracer import SPANS_ALL, SPANS_RUN, SPANS_SWEEP, Tracer  # noqa: E402
from worker import Run  # noqa: E402
from workloads import WORKLOADS, RunWorkload  # noqa: E402

# smib is the cheapest run that has a closed-form cross-check
SMIB = RunWorkload("smib", scenario="smib", from_file=False, t_end=12.0,
                   dt=1e-3, expect_als_pass=("G1",))


class Scratch(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        self.out = tempfile.mkdtemp(prefix="selftest-",
                                    dir=os.path.join(ROOT, ".perfbench_out"))
        self.addCleanup(shutil.rmtree, self.out, ignore_errors=True)


class OutputCheck(Scratch):
    """The check passes real outputs and rejects altered ones."""

    def checked_run(self, workload, seed=0):
        run = Run(cli, workload, seed, self.out)
        rc, _, stdout = run.call("run", workload.argv(seed, self.out))
        self.assertEqual(rc, 0)
        run.verify("reference", stdout)
        self.assertEqual(run.problems, [])
        return run, stdout

    def rewrite(self, name, old, new):
        path = os.path.join(self.out, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        self.assertIn(old, text)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(old, new, 1))

    def test_tampered_csv_is_rejected(self):
        run, stdout = self.checked_run(SMIB)
        path = os.path.join(self.out, "smib_traj.csv")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        row = lines[5000].split(",")
        row[1] = repr(float(row[1]) + 1e-12)
        lines[5000] = ",".join(row)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        run.verify("tampered", stdout)
        self.assertIn(("tampered", "output digests differ from the first invocation"),
                      run.problems)

    def test_flipped_verdict_is_rejected(self):
        run, stdout = self.checked_run(SMIB)
        path = os.path.join(self.out, "smib_report.json")
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        g1 = next(v for v in report["verdicts"] if v["device"] == "G1")
        g1["als"]["passed"] = False
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        run.verify("flipped", stdout)
        self.assertIn(("flipped", "G1: ALS should pass"), run.problems)

    def test_flipped_sweep_verdict_is_rejected(self):
        sweep = WORKLOADS["sweep_smib"]
        run, stdout = self.checked_run(sweep)
        self.rewrite("smib_sweep.csv", ",fail", ",pass")
        run.verify("flipped", stdout)
        self.assertTrue(any("not monotone" in p for _, p in run.problems),
                        run.problems)


class Spans(Scratch):
    """Every named span fires on each workload it applies to (warm-up size)."""

    def fired(self, workload):
        self.assertTrue(workload.prepare(self.out))
        tracer = Tracer(os.path.join(self.out, "spans.jsonl"))
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(workload.warmup_argv(0, self.out, self.out))
        finally:
            tracer.uninstall()
        tracer.merge_exports()
        self.assertEqual(rc, 0)
        return {name for name, rec in tracer.spans.items() if rec[0]}

    def test_run_workloads(self):
        for name in ("run_kundur", "run_gfl"):
            with self.subTest(workload=name):
                missing = set(SPANS_ALL + SPANS_RUN) - self.fired(WORKLOADS[name])
                self.assertEqual(missing, set())

    def test_sweep_workload(self):
        missing = set(SPANS_ALL + SPANS_SWEEP) - self.fired(WORKLOADS["sweep_smib"])
        self.assertEqual(missing, set())

    def test_uninstall_restores_bindings(self):
        from synchrolens import sim
        before = (cli.main, cli.run_simulation, sim.PowerSystemDae.fg)
        tracer = Tracer(os.path.join(self.out, "spans.jsonl"))
        tracer.install()
        self.assertIsNot(cli.run_simulation, before[1])
        tracer.uninstall()
        self.assertEqual((cli.main, cli.run_simulation, sim.PowerSystemDae.fg),
                         before)


if __name__ == "__main__":
    unittest.main()
