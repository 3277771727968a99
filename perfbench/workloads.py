"""Benchmark workloads: the CLI invocation each one makes and its output check.

Standard library only: the set-up probe imports this module before it times
the synchrolens import.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

# seed -> whole-millisecond shift of the sweep grid (smib runs at dt = 1 ms).
# The smib clearing-time boundary lies between 1.127 s and 1.128 s, so every
# shift keeps three passing and three failing points around it.
SWEEP_SHIFTS_MS = (-1, 0, 1, 2, 3)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_report(path, problems):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"report unreadable: {exc}")
        return None


def check_report(report, expect_als_pass=(), expect_als_fail=(),
                 expect_separation=None):
    """Problems with one run report, plus its worst cross-check (rms, sup)."""
    problems = []
    crosschecks = report.get("crosschecks") or []
    if not crosschecks:
        problems.append("report has no cross-checks")
    for cc in crosschecks:
        if cc.get("passed") is not True:
            problems.append(f"cross-check failed for {cc.get('device')}")
    verdicts = {v["device"]: v for v in report.get("verdicts", [])}
    for dev, want in [(d, True) for d in expect_als_pass] + \
                     [(d, False) for d in expect_als_fail]:
        als = (verdicts.get(dev) or {}).get("als")
        if als is None or als.get("passed") is not want:
            problems.append(f"{dev}: ALS should {'pass' if want else 'fail'}")
    if expect_separation is not None:
        flag = (report.get("system") or {}).get("instability_angle_separation")
        if flag is not expect_separation:
            problems.append(f"angle-separation flag should be {expect_separation}")
    rms = max((cc.get("rms", float("nan")) for cc in crosschecks), default=float("nan"))
    sup = max((cc.get("max", float("nan")) for cc in crosschecks), default=float("nan"))
    return problems, rms, sup


def _count_lines(path):
    with open(path, "rb") as handle:
        return sum(block.count(b"\n")
                   for block in iter(lambda: handle.read(1 << 20), b""))


@dataclass(frozen=True)
class Outcome:
    """What one checked invocation produced."""

    problems: tuple
    digests: dict          # output file name -> sha256
    output_bytes: int
    oracle_rms: float = float("nan")
    oracle_sup: float = float("nan")


@dataclass(frozen=True)
class RunWorkload:
    """`synchrolens run` on one scenario, checked against its known verdicts."""

    name: str
    scenario: str                 # scenario name, also the output file prefix
    from_file: bool               # pass a serialized scenario via --file
    t_end: float
    dt: float
    expect_als_pass: tuple
    expect_separation: bool | None = None
    warmup_t_end = 1.5            # covers the fault and its clearing

    points = 1
    workers = 1

    def ini_path(self, out):
        return os.path.join(out, f"{self.scenario}.ini")

    def prepare(self, out):
        """Write the scenario file a --file workload reads; True if it
        round-trips to the built-in exactly."""
        if not self.from_file:
            return True
        from synchrolens.scenarios import (build_builtin, load_scenario,
                                           serialize_scenario)
        builtin = build_builtin(self.scenario)
        text = serialize_scenario(builtin)
        with open(self.ini_path(out), "w", encoding="utf-8") as handle:
            handle.write(text)
        return load_scenario(text) == builtin

    def build_scenario(self, seed, out):
        from synchrolens.scenarios import build_builtin, load_scenario
        if self.from_file:
            with open(self.ini_path(out), encoding="utf-8") as handle:
                return load_scenario(handle.read())
        return build_builtin(self.scenario)

    def argv(self, seed, out):
        if self.from_file:
            source = ["--file", self.ini_path(out)]
        else:
            source = ["--builtin", self.scenario]
        return ["run", *source, "--out", out]

    def warmup_argv(self, seed, out, warm_out):
        return self.argv(seed, out)[:-1] + [warm_out, "--t-end",
                                             repr(self.warmup_t_end)]

    def oracle_argv(self, seed, out):
        return None

    def simulated_s(self, seed):
        return self.t_end

    def output_names(self):
        return [f"{self.scenario}_traj.csv", f"{self.scenario}_chi.csv",
                f"{self.scenario}_report.json"]

    def check(self, seed, out, stdout):
        problems = []
        paths = [os.path.join(out, n) for n in self.output_names()]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            return Outcome((f"missing outputs: {missing}",), {}, 0)
        n_rows = int(round(self.t_end / self.dt)) + 2     # header + samples
        for path in paths[:2]:
            if _count_lines(path) != n_rows:
                problems.append(f"{os.path.basename(path)}: expected {n_rows} lines")
        rms = sup = float("nan")
        report = _read_report(paths[2], problems)
        if report is not None:
            found, rms, sup = check_report(report, self.expect_als_pass,
                                           expect_separation=self.expect_separation)
            problems += found
        return Outcome(tuple(problems),
                       {os.path.basename(p): sha256_file(p) for p in paths},
                       sum(os.path.getsize(p) for p in paths), rms, sup)


_BOUNDARY_RE = re.compile(r"boundary: last passing (\S+), first failing (\S+)")


@dataclass(frozen=True)
class SweepWorkload:
    """`synchrolens sweep` of smib clearing times across the stability boundary."""

    name: str
    workers: int = 2
    points = 6
    step = 0.01
    t_end = 12.0                  # smib span per sweep point

    def shift(self, seed):
        return SWEEP_SHIFTS_MS[seed % len(SWEEP_SHIFTS_MS)] * 1e-3

    def grid(self, seed):
        return [round(1.10 + self.shift(seed) + self.step * k, 6)
                for k in range(self.points)]

    def boundary(self, seed):
        """Expected (last passing, first failing) clearing times."""
        grid = self.grid(seed)
        return grid[2], grid[3]

    def prepare(self, out):
        return True

    def build_scenario(self, seed, out):
        from synchrolens.scenarios import build_builtin, with_clearing_time
        return with_clearing_time(build_builtin("smib"), self.grid(seed)[0])

    def argv(self, seed, out):
        grid = self.grid(seed)
        return ["sweep", "--builtin", "smib", "--from", repr(grid[0]),
                "--to", repr(grid[-1]), "--step", repr(self.step),
                "--workers", str(self.workers), "--out", out]

    def warmup_argv(self, seed, out, warm_out):
        last, first = self.boundary(seed)
        return ["sweep", "--builtin", "smib", "--from", repr(last),
                "--to", repr(first), "--step", repr(self.step),
                "--workers", str(self.workers), "--out", warm_out]

    def oracle_argv(self, seed, out):
        """The built-in smib run (cleared at 1.12 s, stable): its report
        carries the closed-form cross-check the sweep does not make.  Past
        the boundary the machine slips poles and no cross-check is expected
        to hold, so only the stable side is checked."""
        return ["run", "--builtin", "smib", "--out", out]

    def simulated_s(self, seed):
        return self.points * self.t_end

    def output_names(self):
        return ["smib_sweep.csv"]

    def check(self, seed, out, stdout):
        path = os.path.join(out, "smib_sweep.csv")
        if not os.path.exists(path):
            return Outcome(("missing outputs: smib_sweep.csv",), {}, 0)
        problems = []
        with open(path, encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()]
        if rows[:1] != [["t_cl", "max_delta_swing", "als_pass"]]:
            problems.append("sweep CSV header changed")
        rows = rows[1:]
        times = [float(r[0]) for r in rows]
        flags = [r[2] for r in rows]
        grid = self.grid(seed)
        if len(times) != len(grid) or any(abs(a - b) > 1e-9
                                          for a, b in zip(times, grid)):
            problems.append(f"sweep grid {times} != {grid}")
        if flags != ["pass"] * 3 + ["fail"] * 3:
            problems.append(f"sweep verdicts {flags} not monotone 3 pass / 3 fail")
        want = self.boundary(seed)
        match = _BOUNDARY_RE.search(stdout)
        if match is None:
            problems.append("sweep summary has no boundary line")
        elif any(abs(float(got) - w) > 1e-9
                 for got, w in zip(match.groups(), want)):
            problems.append(f"boundary {match.groups()} != {want}")
        if "(monotone)" not in stdout:
            problems.append("sweep not reported monotone")
        return Outcome(tuple(problems), {"smib_sweep.csv": sha256_file(path)},
                       os.path.getsize(path))

    def check_oracle(self, seed, out):
        problems = []
        report = _read_report(os.path.join(out, "smib_report.json"), problems)
        if report is None:
            return problems, float("nan"), float("nan")
        found, rms, sup = check_report(report, expect_als_pass=("G1",))
        return problems + found, rms, sup


WORKLOADS = {w.name: w for w in (
    RunWorkload(
        "run_kundur", scenario="kundur", from_file=False, t_end=20.0, dt=1e-3,
        expect_als_pass=("G1", "G2", "G3", "G4"), expect_separation=True),
    RunWorkload(
        "run_gfl", scenario="gfl_seriescomp", from_file=True, t_end=15.0, dt=2e-4,
        expect_als_pass=("C1",)),
    SweepWorkload("sweep_smib"),
)}
