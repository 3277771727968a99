"""Command-line front end: run scenarios, sweep clearing times, list built-ins.

Exit codes: 0 completed (verdict failures do not change it), 2 usage or
scenario errors, 3 solver failures, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import (SOLVER_ERRORS, USAGE_ERRORS, AxisMismatch, SchemaError,
                     WindowTooShort)
from .scenarios import (build_builtin, builtin_description, builtin_names,
                        cct_sweep, load_scenario)
from .scenarios.model import check_positive
from .sim import SimConfig, run_simulation
from .synccheck import (DEFAULT_EPSILON, DEFAULT_SETTLE, DEFAULT_TAIL_TOL,
                        DEFAULT_TAIL_WINDOW, analytic_chi_all, angle_spread,
                        crosscheck_chi, evaluate_device, numeric_chi,
                        system_unstable)

# rows per .tolist() call; larger blocks measurably raise peak memory
_CSV_BLOCK = 256
# characters encoded per write, so a file's bytes never exist whole
_WRITE_CHUNK = 1 << 20


def _json(value):
    """Strict JSON (RFC 8259 has no NaN or Infinity), indented, keys sorted."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _hidden_name(directory):
    """A new hidden path in directory, for a file not yet in place."""
    return os.path.join(directory, f".synchrolens-{os.urandom(8).hex()}")


def _atomic_write(path, data):
    """Write the str data to path through a new file beside it, so a reader
    sees the old file or the whole new one.  The file is created like a
    plain open() (O_CREAT | O_EXCL, 0o666 under the umask), and data is
    encoded one slice at a time, never as a whole."""
    tmp = _hidden_name(os.path.dirname(path))
    handle = open(tmp, "x")
    try:
        with handle:
            for start in range(0, len(data), _WRITE_CHUNK):
                handle.write(data[start:start + _WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load(args):
    if args.builtin:
        scenario = build_builtin(args.builtin)
    else:
        with open(args.file, encoding="utf-8") as handle:
            scenario = load_scenario(handle.read())
    if getattr(args, "clear_time", None) is not None:
        from .scenarios import with_clearing_time
        scenario = with_clearing_time(scenario, args.clear_time)
    return scenario


def _check_tolerances(args):
    """Reject a non-finite or non-positive --epsilon/--tail-tol up front."""
    for name in ("epsilon", "tail_tol"):
        if hasattr(args, name):
            check_positive("--" + name.replace("_", "-"), getattr(args, name))


def _out_dir(args):
    out = args.out or os.environ.get("SYNCHROLENS_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cells(col):
    """Cell strings of one block of a column: the repr of each value.  A float
    block where at most half the cells differ in bits from the one above
    (a held equilibrium, a constant closed form) calls repr once per run."""
    if col.dtype.kind == "f":
        bits = col.view(np.int64)
        new_run = np.empty(len(col), dtype=bool)
        new_run[0] = True
        np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        if 2 * (len(starts) - 1) <= len(col):
            runs = np.array(list(map(repr, col[starts].tolist())), dtype=object)
            return runs[np.cumsum(new_run) - 1].tolist()
    return map(repr, col.tolist())


def _csv(header, columns):
    """CSV text of equal-length columns, one row per sample, each cell the
    repr of a Python number (an int column prints 1/0)."""
    # CPython grows a str in place on `text += ...` while this local holds
    # its only reference, so the text is held once, not next to its rows
    text = ",".join(header)
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        cells = [_cells(col[start:start + _CSV_BLOCK]) for col in columns]
        text += "\n"
        text += "\n".join(map(",".join, zip(*cells)))
    text += "\n"
    return text


def _traj_csv(result):
    header, columns = ["t"], [result.t]
    for part, series in (("v", result.voltages), ("i", result.currents)):
        header += [f"{part}_d:{k}" for k in series]
        header += [f"{part}_q:{k}" for k in series]
        columns += [s.real for s in series.values()]
        columns += [s.imag for s in series.values()]
    for dev, names in result.state_names.items():
        header += [f"state:{dev}:{name}" for name in names]
        columns += list(result.states[dev].T)
    return _csv(header, columns)


def _chi_csv(result, numeric, analytic):
    header, columns = ["t"], [result.t]
    for dev, ch in numeric.items():
        header += [f"chi_rho_numeric:{dev}", f"chi_omega_numeric:{dev}"]
        columns += [ch.values.real, ch.values.imag]
        if dev in analytic:
            header += [f"chi_rho_analytic:{dev}", f"chi_omega_analytic:{dev}"]
            columns += [analytic[dev].values.real, analytic[dev].values.imag]
        header.append(f"mask:{dev}")
        columns.append(ch.mask.astype(int))
    return _csv(header, columns)


# the stepper's and the event re-solves' deterministic counters, null for a
# closed-form scenario
_SOLVER_KEYS = ("steps", "newton_iterations", "max_step_iterations",
                "max_step_time", "jacobian_builds", "residual_evaluations",
                "worst_residual", "predictor_points", "event_resolves",
                "event_resolve_iterations")


def build_report(scenario, result, config, epsilon=DEFAULT_EPSILON,
                 tail_tol=DEFAULT_TAIL_TOL, paths=None):
    """Report dict plus the chi series a run command writes out."""
    numeric = {dev: numeric_chi(result, dev) for dev in result.currents}
    analytic = analytic_chi_all(result, scenario)
    verdicts, crosschecks = [], []
    for dev, chi in numeric.items():
        try:
            verdicts.append(asdict(evaluate_device(
                result, dev, chi, epsilon=epsilon, tail_tol=tail_tol)))
        except WindowTooShort as exc:
            verdicts.append({"device": dev, "bls": None, "als": None,
                             "chi_at_t0": None,
                             "notes": f"not evaluable: {exc}"})
        if dev in analytic:
            try:
                crosschecks.append(asdict(crosscheck_chi(analytic[dev], chi,
                                                         dev)))
            except AxisMismatch:
                continue   # no sample valid in both (a device carrying no current)
    report = {
        "scenario": scenario.name,
        "config": {"dt": config.dt, "t_end": config.t_end,
                   "epsilon": epsilon, "tail_tol": tail_tol,
                   "settle": DEFAULT_SETTLE, "tail_window": DEFAULT_TAIL_WINDOW},
        "verdicts": verdicts,
        "crosschecks": crosschecks,
        "system": {"instability_angle_separation": system_unstable(result),
                   "angle_spread_rad": angle_spread(result)},
        "solver": {key: result.diagnostics.get(key) for key in _SOLVER_KEYS},
        "outputs": paths or {"trajectories": "", "chi": "", "report": ""},
        "exit_status": 0,
    }
    return report, numeric, analytic


def cmd_run(args):
    _check_tolerances(args)
    scenario = _load(args)
    config = SimConfig.from_scenario(scenario, dt=args.dt, t_end=args.t_end)
    result = run_simulation(scenario, config)
    out = _out_dir(args)

    paths = {
        "trajectories": os.path.join(out, f"{scenario.name}_traj.csv"),
        "chi": os.path.join(out, f"{scenario.name}_chi.csv"),
        "report": os.path.join(out, f"{scenario.name}_report.json"),
    }
    # each output is staged under a hidden name and renamed onto its own only
    # once all three exist, so a failed run leaves no output and an earlier
    # run's files as they were
    staged = {}

    def stage(key, data):
        staged[key] = _hidden_name(out)
        _atomic_write(staged[key], data)

    try:
        # the trajectory text is written and freed before the chi series
        # exist, so a run's two largest buffers never coexist
        stage("trajectories", _traj_csv(result))
        report, numeric, analytic = build_report(scenario, result, config,
                                                 args.epsilon, args.tail_tol,
                                                 paths)
        stage("chi", _chi_csv(result, numeric, analytic))
        text = _json(report)
        stage("report", text + "\n")
        for key, path in staged.items():
            os.replace(path, paths[key])
    except BaseException:
        for path in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    verdicts = report["verdicts"]
    if args.json:
        print(text)
    else:
        print(f"{scenario.name}: simulated {config.t_end} s "
              f"({len(result.t)} samples)")
        for v in verdicts:
            if v["bls"] is None:
                print(f"  {v['device']}: {v['notes']}")
                continue
            print(f"  {v['device']}: BLS {'pass' if v['bls']['passed'] else 'fail'} "
                  f"(sup {v['bls']['sup_norm']:.3e}) / "
                  f"ALS {'pass' if v['als']['passed'] else 'fail'} "
                  f"(tail {v['als']['tail_max']:.3e})")
        if report["system"]["instability_angle_separation"]:
            print("  system: angle separation beyond 180 degrees")
        print(f"  wrote {paths['trajectories']}, {paths['chi']}, {paths['report']}")
    return 0


def cmd_sweep(args):
    _check_tolerances(args)
    scenario = _load(args)
    if args.t_from is None or args.t_to is None or args.step is None:
        raise SchemaError("sweep needs --from, --to and --step")
    result = cct_sweep(scenario, args.t_from, args.t_to, args.step,
                       tail_tol=args.tail_tol, workers=args.workers)
    out = _out_dir(args)
    device = scenario.monitored[0]
    lines = ["t_cl,max_delta_swing,als_pass"]
    for p in result.points:
        if p.error:
            lines.append(f"{p.t_clear!r},,error")
            continue
        swing = "" if p.max_swing is None else repr(p.max_swing)
        lines.append(f"{p.t_clear!r},{swing},"
                     f"{'pass' if p.als_pass else 'fail'}")
    path = os.path.join(out, f"{scenario.name}_sweep.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    summary = {
        "scenario": scenario.name,
        "device": device,
        "boundary": {"last_passing": result.last_passing,
                     "first_failing": result.first_failing},
        "monotone": result.monotone,
        "output": path,
    }
    if args.json:
        print(_json(summary))
    else:
        print(f"{scenario.name}: sweep of {len(result.points)} points "
              f"({'monotone' if result.monotone else 'NOT monotone'})")
        print(f"  boundary: last passing {result.last_passing}, "
              f"first failing {result.first_failing}")
        print(f"  wrote {path}")
    return 0


def cmd_list(args):
    names = builtin_names()
    if args.json:
        catalogue = [{"name": n, "description": builtin_description(n)}
                     for n in names]
        print(_json(catalogue))
    else:
        for n in names:
            print(f"{n}: {builtin_description(n)}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="synchrolens",
        description="Phasor-domain transient simulation with complex-"
                    "frequency local-synchronization analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="built-in scenario name")
        group.add_argument("--file", help="scenario file path")
        p.add_argument("--out", help="output directory "
                                     "(default $SYNCHROLENS_OUT or .)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    run_p = sub.add_parser("run", help="simulate and analyse one scenario")
    add_scenario_args(run_p)
    run_p.add_argument("--dt", type=float, help="integration step override, s")
    run_p.add_argument("--t-end", type=float, help="simulated span override, s")
    run_p.add_argument("--clear-time", type=float,
                       help="move the fault-clearing event to this time, s")
    run_p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="bounded-synchronization tolerance")
    run_p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                       help="asymptotic-synchronization tail tolerance")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="clearing-time sweep")
    add_scenario_args(sweep_p)
    sweep_p.add_argument("--from", dest="t_from", type=float,
                         help="first clearing time, s")
    sweep_p.add_argument("--to", dest="t_to", type=float,
                         help="last clearing time, s")
    sweep_p.add_argument("--step", type=float, help="clearing-time step, s")
    sweep_p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel sweep workers")
    sweep_p.set_defaults(fn=cmd_sweep)

    list_p = sub.add_parser("list", help="catalogue of built-in scenarios")
    list_p.add_argument("--json", action="store_true")
    list_p.set_defaults(fn=cmd_list)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
