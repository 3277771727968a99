"""Set-up time of one workload in a fresh interpreter.

Times what a CLI invocation does before its first integration step: the
synchrolens import, building or parsing the scenario, and `sim.initialize`.
Then it times the reference loop, and prints one JSON object: `setup_s` is
the set-up time scaled to the host's nominal speed (speed.NOMINAL_REF_S),
`raw_s` the seconds as they passed.  With --prepare it instead writes the
scenario file a --file workload reads, and fails unless that file
round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--probe", type=int, default=0,
                        help="probe number; picks the CPU the probe stays on")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    if args.prepare:
        os.makedirs(args.out, exist_ok=True)
        if not wl.prepare(args.out):
            print(f"{wl.name}: scenario file does not round-trip", file=sys.stderr)
            return 1
        return 0

    # one CPU for the set-up and the reference loop alike: the two vCPUs of
    # the host can run at different speeds at the same moment
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[args.probe % len(cpus)]})
    t0 = time.perf_counter()
    import synchrolens.cli  # noqa: F401  (the import a CLI invocation pays)
    from synchrolens.sim import SimConfig, initialize
    t1 = time.perf_counter()
    scenario = wl.build_scenario(args.seed, args.out)
    t2 = time.perf_counter()
    initialize(scenario, SimConfig.from_scenario(scenario))
    t3 = time.perf_counter()
    # imported only now: its numpy import belongs to the set-up timed above
    from speed import NOMINAL_REF_S, REFERENCE_ITERS, reference_loop
    ref_s = 2 * reference_loop(REFERENCE_ITERS // 2)
    print(json.dumps({"setup_s": (t3 - t0) * NOMINAL_REF_S / ref_s,
                      "raw_s": t3 - t0, "ref_s": ref_s, "import_s": t1 - t0,
                      "build_s": t2 - t1, "initialize_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
