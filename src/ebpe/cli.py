"""Command-line surface.

Subcommands: run-det, run-stoch, run-direct-em, spectrum, mms,
check <snapshot>.  Exit codes: 0 success, 1 validation error, 2 blow-up
abort, 3 monitor or verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import diagnostics, monitors, snapshots, stochastic, timestep
from .config import SCHEME_ORDERS, ConfigError, RunConfig, parse_config
from .grid import make_grid
from .linops import SolveError, spectrum_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BLOWUP = 2
EXIT_MONITOR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage errors to exit code 1
        raise _UsageError(message)


@cache  # parse_args leaves the parser as it is: one per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="ebpe")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to an INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override ic and noise seeds")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--cadence", type=int, default=None, help="diagnostics row cadence")
        return p

    add_run("run-det", "deterministic run")
    add_run("run-stoch", "split boundary-noise run (convolution + remainder)")
    add_run("run-direct-em", "direct semi-implicit Euler-Maruyama run")

    p = sub.add_parser("spectrum", help="per-mode eigenvalue report")
    p.add_argument("--config", required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--scheme", default="imex_euler")
    p.add_argument("--quick", action="store_true", help="smaller ladders")

    p = sub.add_parser("check", help="constraint residuals of a snapshot")
    p.add_argument("snapshot")
    return parser


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    if getattr(args, "cadence", None) is not None:
        cfg.cadence = args.cadence
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    return cfg  # each driver checks the overrides with the rest (validate_config)


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created on first use: a run the driver rejects
    leaves no directory behind."""
    out = Path(cfg.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    driver = {
        "run-det": timestep.run_deterministic,
        "run-stoch": stochastic.run_split_stochastic,
        "run-direct-em": stochastic.run_direct_em,
    }[args.command]
    cfg = _load_config(args)
    try:
        result = driver(cfg)
    except timestep.BlowUpError as exc:
        snapshots.write_snapshot(exc.last_state, _out_dir(cfg) / "state_blowup.bin")
        print(f"blow-up abort: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    if result.warnings:  # the warn-only maximum-principle check: one line
        flagged = [r for r in result.ledger if r.flags & monitors.FLAG_MAX_PRINCIPLE]
        worst = max(flagged, key=lambda r: r.sup_T)
        print(f"warning: {len(flagged)} steps violate the maximum principle, the first: "
              f"{result.warnings[0]}; worst sup|T| = {worst.sup_T:.6e} at step {worst.step}",
              file=sys.stderr)
    footer = "status=ok"
    if result.monitor_failure:
        footer = f"status=monitor_failure detail={result.monitor_failure!r}"
    out = _out_dir(cfg)
    diagnostics.write_csv(result.csv_records, out / "diagnostics.csv", footer=footer)
    snapshots.write_snapshot(result.final_state, out / "state_final.bin",
                             z_rho=result.z_rho_final)
    if result.monitor_failure:
        print(f"monitor failure: {result.monitor_failure}", file=sys.stderr)
        return EXIT_MONITOR
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    grid = make_grid(cfg.nx, cfg.ny, cfg.nz)
    report = spectrum_report(grid, omega=args.omega)
    out = _out_dir(cfg)
    lines = ["# ebpe spectrum v1", "k1,k2,re,im"]
    for k1, k2, re, im in report.rows():
        lines.append(f"{k1},{k2},{re:.17g},{im:.17g}")
    lines.append(f"# footer: omega={report.omega:.17g} phi_hat={report.phi_hat:.17g} "
                 f"min_re={report.min_real_part():.17g}")
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    print(f"phi_hat = {report.phi_hat:.6f} (pi/2 = {np.pi / 2:.6f}), "
          f"min Re = {report.min_real_part():.3e}")
    return EXIT_OK


def _cmd_mms(args) -> int:
    study = monitors.mms_convergence_study(args.scheme, quick=args.quick)
    print("spatial ladder:  h      error")
    for h, e in zip(study.spatial.scales, study.spatial.errors):
        print(f"  {h:10.5f} {e:14.6e}")
    print(f"  measured spatial order:  {study.spatial.order:.3f}")
    print("temporal ladder: dt     error")
    for dt, e in zip(study.temporal.scales, study.temporal.errors):
        print(f"  {dt:10.5f} {e:14.6e}")
    print(f"  measured temporal order: {study.temporal.order:.3f}")
    ok = (study.spatial.order >= 1.9
          and study.temporal.order >= SCHEME_ORDERS[args.scheme] - 0.1)
    return EXIT_OK if ok else EXIT_MONITOR


def _cmd_check(args) -> int:
    state, z_rho = snapshots.read_snapshot(args.snapshot)
    nx, ny, nlev = state.T.shape
    grid = make_grid(nx, ny, nlev - 1)
    res = monitors.constraint_check(grid, state)
    sup_v = float(np.max(np.abs(state.v)))
    sup_T = float(np.max(np.abs(state.T)))
    tol = {
        "bottom_neumann": 50.0 * grid.dz**2 * (1.0 + sup_T),
        "solenoidal": 1e-10 * (1.0 + sup_v),
        "w_top": 1e-10 * (1.0 + sup_v),
    }
    ok = True
    for name, value in dataclasses.asdict(res).items():
        status = "ok" if value <= tol[name] else "FAIL"
        ok &= value <= tol[name]
        print(f"{name:16s} {value:12.5e}  (tol {tol[name]:.3e})  {status}")
    return EXIT_OK if ok else EXIT_MONITOR


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command.startswith("run-"):
            return _cmd_run(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "mms":
            return _cmd_mms(args)
        if args.command == "check":
            return _cmd_check(args)
    except (ConfigError, snapshots.SnapshotError, SolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
