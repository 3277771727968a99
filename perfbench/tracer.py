"""Layer spans recorded from outside the program.

Each span wraps the name binding its caller actually uses: `cli` calls
`run_simulation` and `numeric_chi` through names it imported, `sim` calls
`solve_power_flow` and `interface_solve` the same way, so wrapping the
defining module alone would miss those calls.  Spans nest on a stack, which
gives every span its self time (its duration minus that of its child spans).

Sweep points run in forked pool workers.  They inherit the wrappers; each
point appends what it recorded to a JSON-lines file that the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from statistics import median
from time import perf_counter

# (module, class or None, attribute, span name); None splits solve_algebraic
# into sim.init_resolve and sim.event_resolve.
BINDINGS = (
    ("synchrolens.cli", None, "main", "cli.main"),
    ("synchrolens.cli", None, "build_builtin", "scenarios.build"),
    ("synchrolens.cli", None, "load_scenario", "scenarios.build"),
    ("synchrolens.cli", None, "cct_sweep", "scenarios.sweep"),
    ("synchrolens.scenarios.sweep", None, "_run_point", "scenarios.sweep.point"),
    ("synchrolens.cli", None, "run_simulation", "sim.run"),
    ("synchrolens.scenarios.sweep", None, "run_simulation", "sim.run"),
    ("synchrolens.sim", None, "initialize", "sim.initialize"),
    ("synchrolens.sim", None, "solve_power_flow", "network.power_flow"),
    ("synchrolens.sim", None, "interface_solve", "network.interface_solve"),
    ("synchrolens.sim", "TrapezoidalStepper", "step", "sim.step"),
    ("synchrolens.sim", "TrapezoidalStepper", "_build_jacobian", "sim.jacobian_build"),
    ("synchrolens.sim", "PowerSystemDae", "fg", "sim.fg"),
    ("synchrolens.sim", "PowerSystemDae", "solve_algebraic", None),
    ("synchrolens.cli", None, "numeric_chi", "synccheck.numeric_chi"),
    ("synchrolens.synccheck", None, "numeric_chi", "synccheck.numeric_chi"),
    ("synchrolens.cli", None, "analytic_chi_all", "synccheck.analytic_chi"),
    ("synchrolens.cli", None, "evaluate_device", "synccheck.verdict"),
    ("synchrolens.scenarios.sweep", None, "evaluate_device", "synccheck.verdict"),
    ("synchrolens.cli", None, "crosscheck_chi", "synccheck.crosscheck"),
    ("synchrolens.cli", None, "build_report", "cli.report"),
    ("synchrolens.cli", None, "_traj_csv", "cli.traj_csv"),
    ("synchrolens.cli", None, "_chi_csv", "cli.chi_csv"),
    ("synchrolens.cli", None, "_atomic_write", "cli.write"),
)

# spans every workload fires; the rest fire only on the kind named
SPANS_ALL = ("cli.main", "scenarios.build", "sim.run", "sim.initialize",
             "network.power_flow", "network.interface_solve", "sim.step",
             "sim.jacobian_build", "sim.fg", "sim.event_resolve",
             "synccheck.numeric_chi", "synccheck.verdict", "cli.write")
SPANS_RUN = ("cli.report", "synccheck.analytic_chi", "synccheck.crosscheck",
             "cli.traj_csv", "cli.chi_csv")
SPANS_SWEEP = ("scenarios.sweep", "scenarios.sweep.point")


def _in_initialize(stack):
    # solve_algebraic is both the initial algebraic solve and the re-solve
    # after each event; only the latter is an event cost
    return any(frame[1] == "sim.initialize" for frame in stack)


class Tracer:
    """Aggregated spans and counters of the calls made while installed."""

    def __init__(self, export_path):
        self.export_path = export_path
        self.owner_pid = os.getpid()
        self._patches = []
        self.stack = []        # open spans: [time covered by children, name]
        self.spans = {}        # name -> [calls, total s, self s]
        self.reset()

    def reset(self):
        # in place: the installed wrappers hold these objects
        del self.stack[:]
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        self.counters = {"steps": 0, "newton_iterations": 0,
                         "jacobian_builds": 0, "worst_residual": 0.0,
                         "output_bytes": 0, "csv_bytes": 0,
                         "numeric_chi_pairs": 0}
        self.points = []       # (t_clear, stable, seconds) per sweep point
        self._chi_pairs = set()

    def _record(self, name):
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    # --- recording -------------------------------------------------------

    def _wrap(self, original, name, observe=None):
        stack = self.stack
        rec = self._record(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _wrap_resolve(self, original):
        """solve_algebraic, split into initialization and event re-solves."""
        init = self._wrap(original, "sim.init_resolve")
        event = self._wrap(original, "sim.event_resolve")
        stack = self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return (init if _in_initialize(stack) else event)(*args, **kwargs)
        return wrapper

    def _observe_run(self, args, result):
        c, diag = self.counters, result.diagnostics
        for key in ("steps", "newton_iterations", "jacobian_builds"):
            c[key] += diag[key]
        c["worst_residual"] = max(c["worst_residual"], diag["worst_residual"])

    def _observe_chi(self, args, result):
        pair = (id(args[0]), args[1])
        if pair not in self._chi_pairs:
            self._chi_pairs.add(pair)
            self.counters["numeric_chi_pairs"] += 1

    def _observe_csv(self, args, result):
        self.counters["csv_bytes"] += len(result.encode())

    def _observe_write(self, args, result):
        self.counters["output_bytes"] += len(args[1].encode())

    def _wrap_point(self, original):
        """A sweep point; in a pool worker it also exports what it recorded."""
        traced = self._wrap(original, "scenarios.sweep.point")
        tracer = self

        @functools.wraps(original)
        def wrapper(job):
            in_worker = os.getpid() != tracer.owner_pid
            if in_worker:
                tracer.reset()     # drop the state inherited at fork
            t0 = perf_counter()
            point = traced(job)
            tracer.points.append((point.t_clear, point.stable,
                                  perf_counter() - t0))
            if in_worker:
                tracer._export()
            return point
        return wrapper

    def _export(self):
        spans = {name: rec for name, rec in self.spans.items() if rec[0]}
        line = json.dumps({"spans": spans, "counters": self.counters,
                           "points": self.points}) + "\n"
        fd = os.open(self.export_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def merge_exports(self):
        """Fold in what pool workers recorded, then remove their file."""
        if not os.path.exists(self.export_path):
            return
        with open(self.export_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        os.unlink(self.export_path)
        for line in lines:
            part = json.loads(line)
            for name, (calls, total, self_s) in part["spans"].items():
                rec = self._record(name)
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for key, value in part["counters"].items():
                if key == "worst_residual":
                    self.counters[key] = max(self.counters[key], value)
                else:
                    self.counters[key] += value
            self.points += [tuple(p) for p in part["points"]]

    # --- installing ------------------------------------------------------

    def install(self):
        for module_name, cls_name, attr, name in BINDINGS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if attr == "_run_point":
                wrapper = self._wrap_point(original)
            elif name is None:
                wrapper = self._wrap_resolve(original)
            else:
                wrapper = self._wrap(original, name, {
                    "sim.run": self._observe_run,
                    "synccheck.numeric_chi": self._observe_chi,
                    "cli.traj_csv": self._observe_csv,
                    "cli.chi_csv": self._observe_csv,
                    "cli.write": self._observe_write,
                }.get(name))
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reading ---------------------------------------------------------

    def total(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def exact_counters(self):
        """Counts that must repeat exactly from one invocation to the next."""
        c = self.counters
        return {"steps": c["steps"], "newton_iterations": c["newton_iterations"],
                "jacobian_builds": c["jacobian_builds"],
                "worst_residual": c["worst_residual"],
                "fg_calls": self.calls("sim.fg"),
                "numeric_chi_calls": self.calls("synccheck.numeric_chi"),
                "output_bytes": c["output_bytes"]}

    def layer_metrics(self, workers):
        """Per-layer figures of one traced invocation."""
        c = self.counters
        steps = max(c["steps"], 1)
        fg_calls = self.calls("sim.fg")
        csv_s = self.total("cli.traj_csv") + self.total("cli.chi_csv")
        stable = [s for _, ok, s in self.points if ok]
        unstable = [s for _, ok, s in self.points if ok is False]
        sweep_s = self.total("scenarios.sweep")
        return {
            "scenarios.build_s": self.total("scenarios.build"),
            "scenarios.sweep.point_s.stable": median(stable) if stable else 0.0,
            "scenarios.sweep.point_s.unstable": median(unstable) if unstable else 0.0,
            "scenarios.sweep.pool_busy_frac":
                sum(s for _, _, s in self.points) / (workers * sweep_s)
                if sweep_s else 0.0,
            "network.power_flow_s": self.total("network.power_flow"),
            "network.interface_solve_calls": self.calls("network.interface_solve"),
            "network.interface_solve_s": self.total("network.interface_solve"),
            "sim.initialize_s": self.total("sim.initialize"),
            "sim.steps": c["steps"],
            "sim.step_s": self.total("sim.step"),
            "sim.step_us": 1e6 * self.total("sim.step") / steps,
            "sim.newton_iters": c["newton_iterations"],
            "sim.newton_iters_per_step": c["newton_iterations"] / steps,
            "sim.jacobian_builds": c["jacobian_builds"],
            "sim.jacobian_build_s": self.total("sim.jacobian_build"),
            "sim.fg_calls": fg_calls,
            "sim.fg_calls_per_step": fg_calls / steps,
            "sim.fg_us": 1e6 * self.total("sim.fg") / max(fg_calls, 1),
            "sim.fg_s": self.total("sim.fg"),
            "sim.event_resolves": self.calls("sim.event_resolve"),
            "sim.event_resolve_s": self.total("sim.event_resolve"),
            "sim.record_s": self.self_time("sim.run"),
            "sim.worst_residual": c["worst_residual"],
            "synccheck.numeric_chi_s": self.total("synccheck.numeric_chi"),
            "synccheck.numeric_chi_calls_per_device":
                self.calls("synccheck.numeric_chi") / max(c["numeric_chi_pairs"], 1),
            "synccheck.analytic_chi_s": self.total("synccheck.analytic_chi"),
            "synccheck.verdict_s": self.self_time("synccheck.verdict"),
            "synccheck.crosscheck_s": self.total("synccheck.crosscheck"),
            "cli.report_s": self.total("cli.report"),
            "cli.traj_csv_s": self.total("cli.traj_csv"),
            "cli.chi_csv_s": self.total("cli.chi_csv"),
            "cli.csv_mb_per_s": c["csv_bytes"] / 1e6 / csv_s if csv_s else 0.0,
            "cli.write_s": self.total("cli.write"),
            "cli.output_bytes": c["output_bytes"],
        }
