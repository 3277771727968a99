"""synchrolens benchmark: end-to-end and per-layer cost of `run` and `sweep`.

Run from the repository root:

    python3 perfbench/run.py --workload run_kundur --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json; the invocations and
output checks are in workloads.py.  One run:

1. writes what the workload reads (the serialized gfl scenario) and times the
   set-up (synchrolens import, scenario build or parse, `sim.initialize`) in
   SETUP_PROBES fresh interpreters, half before and half after step 2,
   reporting the median;
2. starts one fresh worker process (worker.py) that makes a shortened
   warm-up invocation, then closed-loop `synchrolens.cli.main` calls until
   the next one would end after --seconds (always at least one), while a
   speed probe times a reference loop alongside each of them;
3. checks every invocation's outputs, and that their digests and exact
   counters repeat across invocations and across runs of the same source
   tree (state kept in .perfbench_out/state.json);
4. prints, as its last stdout line, a JSON object with `correct`,
   `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, timed untraced and
expressed in units of the reference loop (see README.md).  With
--trace 1 each measured invocation is paired with one traced by tracer.py,
and the metrics are the per-layer ones from the traced invocations.
Children run with BLAS/OpenMP pinned to one thread, so the two-process
sweep pool never exceeds two busy cores.  Details of each run (samples,
counters, environment, problems) go to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline):
    """(exit code, stdout) of a child run in its own process group.

    Past the deadline (a perf_counter value) the whole group, sweep pool
    workers included, is killed and reaped, and the exit code is None.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray grandchildren
        except ProcessLookupError:
            pass
    return proc.returncode, stdout


def src_tree():
    """(line count of src/*.py, sha256 of every source file)."""
    digest, lines = hashlib.sha256(), 0
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as handle:
                    data = handle.read()
                digest.update(os.path.relpath(os.path.join(base, name), SRC).encode())
                digest.update(data)
                if name.endswith(".py"):
                    lines += data.count(b"\n")
    return lines, digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compare_with_earlier_runs(key, record):
    """Problems where this run's exact values differ from an earlier run's.

    Runs are keyed by the source tree and the workload's argument list, so a
    changed program or input starts a fresh entry.
    """
    path = os.path.join(OUT, "state.json")
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, ValueError):
        state = {}
    earlier = state.setdefault(key, {})
    problems = [f"{field} differs from an earlier run: {earlier[field]} != {value}"
                for field, value in record.items()
                if field in earlier and earlier[field] != value]
    earlier.update(record)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def medians(wl, seed, times):
    """Median time per invocation, simulated seconds and points per unit."""
    return (median(times), median(wl.simulated_s(seed) / t for t in times),
            median(wl.points / t for t in times))


def end_to_end_metrics(wl, seed, res, setup):
    wall, sim_rate, point_rate = medians(wl, seed, res["wall_refs"])
    return {
        "wall_ref": wall,
        "sim_s_per_ref": sim_rate,
        "sweep_points_per_ref": point_rate,
        "setup_s": median(p["setup_s"] for p in setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "output_mb": (res["output_bytes"] or 0) / 1e6,
        "oracle_rms_pu": res["oracle_rms"],
        "oracle_sup_pu": res["oracle_sup"],
    }


def per_layer_metrics(res, failed, attempted):
    layers = res["layers"]
    metrics = {name: median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (median(res["traced_wall_refs"])
                                      / median(res["wall_refs"]) - 1.0)
    metrics["failed_frac"] = failed / attempted
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "synchrolens", "__init__.py")):
        print(f"error: no synchrolens sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    wl = WORKLOADS[args.workload]
    out = os.path.join(OUT, wl.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    common = ["--workload", wl.name, "--seed", str(args.seed), "--out", out]
    rc, _ = spawn([os.path.join(HERE, "probe.py"), *common, "--prepare"], deadline)
    if rc != 0:
        print("error: workload preparation failed", file=sys.stderr)
        return 1
    setup = []

    def probe_setup():
        for _ in range(SETUP_PROBES // 2):
            rc, stdout = spawn([os.path.join(HERE, "probe.py"), *common,
                                "--probe", str(len(setup))], deadline)
            if rc != 0:
                return False
            setup.append(json.loads(stdout.strip().splitlines()[-1]))
        return True

    # half the set-up probes before the worker and half after it, so the
    # median spans the run rather than one moment of the host's drift
    if not probe_setup():
        print("error: set-up probe failed", file=sys.stderr)
        return 1
    result_path = os.path.join(out, "worker.json")
    rc, _ = spawn([os.path.join(HERE, "worker.py"), *common,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", result_path], deadline)
    if rc != 0:
        print(f"error: worker exited with {rc}", file=sys.stderr)
        return 1
    if not probe_setup():
        print("error: set-up probe failed", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as handle:
        res = json.load(handle)

    problems = [f"{label}: {problem}" for label, problem in res["problems"]]
    failed_labels = {label for label, _ in res["problems"]}
    if not os.path.abspath(res["synchrolens_file"]).startswith(SRC + os.sep):
        problems.append(f"imported synchrolens from {res['synchrolens_file']}")
    src_lines, src_sha = src_tree()
    record = {"digests": res["digests"], "output_bytes": res["output_bytes"]}
    if args.trace:
        record["counters"] = res["counters"]
    run_level = compare_with_earlier_runs(
        json.dumps([src_sha, wl.argv(args.seed, out)]), record)
    problems += run_level
    failed = len(failed_labels) + (1 if run_level else 0)
    attempted = max(res["attempted"], failed, 1)

    if args.trace:
        metrics = per_layer_metrics(res, failed, attempted)
        units = layer_units
    else:
        metrics = end_to_end_metrics(wl, args.seed, res, setup)
        units = e2e_units
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} "
                        "do not match BENCHMARK.json")
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            metrics[name] = 0.0
    correct = not problems

    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "raw_seconds": dict(zip(("wall_s", "sim_s_per_wall_s", "sweep_points_per_s"),
                                medians(wl, args.seed, res["walls"]))),
        "samples": {key: res[key] for key in ("walls", "wall_refs",
                                              "traced_walls", "traced_wall_refs")},
        "setup": setup,
        "counters": res["counters"], "digests": res["digests"],
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "src_lines": src_lines,
            "src_sha256": src_sha,
        },
    }
    detail_path = os.path.join(
        OUT, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{wl.name}: {len(res['walls'])} timed invocation(s), median "
          f"{details['raw_seconds']['wall_s']:.3f} s; src {src_lines} lines; "
          f"details in {os.path.relpath(detail_path, ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
