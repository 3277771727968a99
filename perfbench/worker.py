"""One benchmark run inside a fresh interpreter: warm up, invoke, check.

Invocations are closed-loop: each `synchrolens.cli.main` call starts only
after the previous one returned and its outputs were checked.  Started by
run.py, which sets PYTHONPATH to the checkout's src/ and pins BLAS threads;
the result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from speed import SpeedProbe
from workloads import WORKLOADS


def invoke(cli, argv, probe):
    """(exit code, wall s, wall in refs, stdout, error text) of one in-process
    CLI call; the wall time excludes the probe's chunks in this process."""
    out, err = io.StringIO(), io.StringIO()
    with probe:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:   # a crash is a failed invocation, not a benchmark error
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0 - sum(probe.chunks)
    return rc, wall, wall / probe.reference_s(), out.getvalue(), err.getvalue()


class Run:
    """Checked invocations of one workload and what they produced."""

    def __init__(self, cli, workload, seed, out):
        self.cli = cli
        self.probe = SpeedProbe()
        self.wl = workload
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.problems = []       # (invocation label, problem)
        self.digests = None
        self.output_bytes = None
        self.oracle = (float("nan"), float("nan"))

    def fail(self, label, problem):
        self.problems.append((label, problem))

    def call(self, label, argv):
        self.attempted += 1
        rc, wall, in_refs, stdout, err = invoke(self.cli, argv, self.probe)
        if rc != 0:
            self.fail(label, f"exit code {rc}: {err.strip()[-2000:]}")
        return rc, (wall, in_refs), stdout

    def measured(self, label):
        """One timed invocation of the workload, then its output check;
        returns its (seconds, reference units)."""
        for name in self.wl.output_names():     # stale files must not pass
            path = os.path.join(self.out, name)
            if os.path.exists(path):
                os.unlink(path)
        rc, timing, stdout = self.call(label, self.wl.argv(self.seed, self.out))
        if rc == 0:
            self.verify(label, stdout)
        return timing

    def verify(self, label, stdout):
        """Check the outputs on disk; the first verified set is the reference
        every later invocation must reproduce byte for byte."""
        outcome = self.wl.check(self.seed, self.out, stdout)
        for problem in outcome.problems:
            self.fail(label, problem)
        if self.digests is None:
            self.digests, self.output_bytes = outcome.digests, outcome.output_bytes
            self.oracle = (outcome.oracle_rms, outcome.oracle_sup)
        elif outcome.digests != self.digests:
            self.fail(label, "output digests differ from the first invocation")

    def check_oracle(self):
        """An extra run whose report carries the cross-check (sweep only)."""
        out = os.path.join(self.out, "oracle")
        argv = self.wl.oracle_argv(self.seed, out)
        if argv is None or self.call("oracle", argv)[0] != 0:
            return
        problems, rms, sup = self.wl.check_oracle(self.seed, out)
        for problem in problems:
            self.fail("oracle", problem)
        self.oracle = (rms, sup)


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from synchrolens import cli

    wl = WORKLOADS[args.workload]
    run = Run(cli, wl, args.seed, args.out)
    run.call("warm-up", wl.warmup_argv(args.seed, args.out,
                                       os.path.join(args.out, "warmup")))
    samples = {"walls": [], "wall_refs": [],
               "traced_walls": [], "traced_wall_refs": []}
    layers, counters = [], []

    def measure(label, prefix):
        wall, in_refs = run.measured(label)
        samples[prefix + "walls"].append(wall)
        samples[prefix + "wall_refs"].append(in_refs)

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        measure(f"#{len(samples['walls']) + 1}", "")
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(os.path.join(args.out, "spans.jsonl"))
            tracer.install()
            try:
                measure(f"traced #{len(layers) + 1}", "traced_")
            finally:
                tracer.uninstall()
            tracer.merge_exports()
            layers.append(tracer.layer_metrics(wl.workers))
            counters.append(tracer.exact_counters())
            if counters[-1] != counters[0]:
                run.fail("traced", f"counters {counters[-1]} != {counters[0]}")
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    rss = peak_rss_mb()
    run.check_oracle()

    result = {
        "attempted": run.attempted,
        "problems": run.problems,
        **samples,
        "layers": layers,
        "counters": counters[0] if counters else {},
        "digests": run.digests,
        "output_bytes": run.output_bytes,
        "oracle_rms": run.oracle[0],
        "oracle_sup": run.oracle[1],
        "peak_rss_mb": rss,
        "numpy": np.__version__,
        "synchrolens_file": cli.__file__,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
