"""Digests of the reference runs, for a bit-for-bit comparison of two trees.

For the ``ebpe`` package on ``PYTHONPATH`` and the ``configs/*.ini`` of the
checkout this script sits in, it makes 14 runs:

- `run_deterministic` on the four configs, ``accept_stoch`` at sigma = 0;
- CNAB2 (`run_deterministic` with scheme = cnab2) on ``accept_det`` and
  ``accept_restart``;
- `run_split_stochastic` and `run_direct_em` on ``accept_stoch`` at noise
  seeds 7, 11 and 23;
- the call pattern of the stoch-8 benchmark workload: ``accept_stoch`` with
  both seeds 3, one bundle drawn with the config's `NoiseSpec` by
  `wiener_increments`, and that spec and bundle passed to
  `run_split_stochastic` and then `run_direct_em`;

and captures the stdout of ``ebpe mms`` for both schemes, quick and full.
For each run it prints a sha256 of the final fields, the final t and step, a
sha256 of every ledger record (floats as ``float.hex``), of the CSV text
(`diagnostics.format_csv` of the CSV records), of ``z_rho_final`` and of
the warnings, and the monitor failure.  A run that raises prints its
exception instead.  It calls only long-standing entry points
(`parse_config`, the three drivers, `make_grid`, `NoiseSpec`,
`wiener_increments`, `diagnostics.format_csv` and `cli.main`), so the outputs of an older and a newer tree compare with
``diff``:

    PYTHONPATH=../parent/src python tools/run_digests.py > parent.txt
    PYTHONPATH=src python tools/run_digests.py > change.txt
    diff parent.txt change.txt

The output starts with the settings the bits depend on beyond the code
(`settings`): the BLAS thread variables, the CPUs the process may use
(OpenBLAS's thread count when its variable is unset), and numpy's version
and BLAS library and version.  Two captures compare only under the same
settings, so a ``diff`` that shows these lines differing explains itself.

Where the digests differ, ``--save FILE.npz`` also stores each run's final
fields, ``z_rho_final`` and every column of its ledger (one array per
`LedgerRecord` field over the records), and ``--compare A.npz B.npz``
prints, per run, the max|B - A| of the fields and ``z_rho_final`` and,
per ledger column, the max relative |B - A|, max|B - A| / max|A| over the
records, of each array that both files hold (it runs nothing).  The
saved file holds the settings too, and ``--compare`` first prints one
line naming each setting that differs between the two captures.  It ends
with one summary line: how many runs have bitwise final fields and
``z_rho_final`` (and saved arrays of the same shapes), and each ledger
column's max relative |B - A| over all runs:

    PYTHONPATH=../parent/src python tools/run_digests.py --save parent.npz
    PYTHONPATH=src python tools/run_digests.py --save change.npz
    PYTHONPATH=src python tools/run_digests.py --compare parent.npz change.npz
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from ebpe import cli, diagnostics, make_grid, monitors, stochastic, timestep
from ebpe.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NOISE_SEEDS = (7, 11, 23)
STOCH8_SEED = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETTINGS_KEY = "settings"  # the saved settings; no run's key, which holds ": "


def settings() -> dict[str, str]:
    """The settings a run's bits depend on beyond the code: the BLAS thread
    variables, the CPUs this process may use, numpy's version, and the
    BLAS library numpy was built with and its version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = {var: os.environ.get(var, "(unset)") for var in THREAD_VARS}
    found["cpus"] = str(len(os.sched_getaffinity(0)))
    found["numpy"] = np.__version__
    found["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return found


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _record_text(record) -> str:
    return ",".join(float(v).hex() if isinstance(v, (float, np.floating)) else repr(v)
                    for v in dataclasses.astuple(record))


def _runs():
    """(label, driver, config) for each of the 14 runs; driver(config) runs it."""
    cfg = {path.stem: parse_config(path.read_text()) for path in sorted(CONFIGS.glob("*.ini"))}
    for name, c in cfg.items():
        yield (f"deterministic {name}", timestep.run_deterministic,
               dataclasses.replace(c, noise_sigma=0.0) if name == "accept_stoch" else c)
    for name in ("accept_det", "accept_restart"):
        yield (f"cnab2 {name}", timestep.run_deterministic,
               dataclasses.replace(cfg[name], scheme="cnab2"))
    for seed in NOISE_SEEDS:
        c = dataclasses.replace(cfg["accept_stoch"], noise_seed=seed)
        yield f"split accept_stoch noise_seed={seed}", stochastic.run_split_stochastic, c
        yield f"direct_em accept_stoch noise_seed={seed}", stochastic.run_direct_em, c
    c = cfg["accept_stoch"].with_seed(STOCH8_SEED)
    spec = stochastic.NoiseSpec(sigma=c.noise_sigma, decay=c.noise_decay, seed=c.noise_seed)
    bundle = stochastic.wiener_increments(make_grid(c.nx, c.ny, c.nz), spec, c.dt, c.n_steps())
    for name, driver in (("split", stochastic.run_split_stochastic),
                         ("direct_em", stochastic.run_direct_em)):
        yield (f"stoch-8 pattern {name} accept_stoch seed={STOCH8_SEED}",
               functools.partial(driver, spec=spec, bundle=bundle), c)


def _digest(result) -> list[str]:
    state = result.final_state
    z_rho = result.z_rho_final
    return [
        f"  fields   {_sha(np.ascontiguousarray(state.fields).tobytes())}",
        f"  t, step  {float(state.t).hex()} {state.step}",
        f"  ledger   {_sha(chr(10).join(map(_record_text, result.ledger)))} "
        f"({len(result.ledger)} records)",
        f"  csv      {_sha(diagnostics.format_csv(result.csv_records))} "
        f"({len(result.csv_records)} rows)",
        f"  z_rho    {'-' if z_rho is None else _sha(np.ascontiguousarray(z_rho).tobytes())}",
        f"  failure  {result.monitor_failure!r}",
        f"  warnings {_sha(chr(10).join(result.warnings))} ({len(result.warnings)})",
    ]


def _compare(path_a: str, path_b: str) -> int:
    """Print the settings that differ, then max|b - a| for every array of
    the two saved sets, relative to max|a| for a ledger column, then the
    summary line."""
    runs, differ, columns = set(), set(), {}
    with np.load(path_a) as a, np.load(path_b) as b:
        found = [json.loads(str(f[SETTINGS_KEY])) if SETTINGS_KEY in f.files else None
                 for f in (a, b)]
        if None in found:
            print("settings: not recorded in " + " and ".join(
                path for path, f in zip((path_a, path_b), found) if f is None))
        else:
            changed = [f"{k} {found[0].get(k, '(none)')} against {found[1].get(k, '(none)')}"
                       for k in sorted(set(found[0]) | set(found[1]))
                       if found[0].get(k) != found[1].get(k)]
            print("settings that differ: " + ("; ".join(changed) if changed else "none"))
        for key in sorted((set(a.files) | set(b.files)) - {SETTINGS_KEY}):
            run, name = key.split(": ", 1)
            runs.add(run)
            if key not in a.files or key not in b.files:
                print(f"{key}: only in {path_a if key in a.files else path_b}")
                differ.add(run)
            elif a[key].shape != b[key].shape:
                print(f"{key}: shape {a[key].shape} against {b[key].shape}")
                differ.add(run)
            elif name.startswith("ledger "):
                d = np.max(np.abs(b[key] - a[key]), initial=0.0)
                scale = np.max(np.abs(a[key]), initial=0.0)
                rel = d / scale if scale > 0.0 else d
                columns[name[7:]] = max(columns.get(name[7:], 0.0), rel)
                print(f"{key}: max rel|d| = {rel:.3e}")
            else:
                print(f"{key}: max|d| = {np.max(np.abs(b[key] - a[key]), initial=0.0):.3e}")
                if not np.array_equal(a[key], b[key]):
                    differ.add(run)
    print(f"summary: {len(runs - differ)}/{len(runs)} runs with bitwise fields and z_rho; "
          "ledger max rel|d|: " + ", ".join(f"{c} {v:.1e}" for c, v in columns.items()))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--save", metavar="FILE.npz",
                   help="also store each run's final fields, z_rho_final and ledger columns")
    p.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                   help="print max|B - A| per saved array (relative for the ledger) "
                        "and run nothing")
    args = p.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    found = settings()
    for name, value in found.items():
        print(f"# setting {name}={value}")
    saved = {SETTINGS_KEY: np.array(json.dumps(found))}
    for label, driver, cfg in _runs():
        print(label)
        try:
            result = driver(cfg)
            lines = _digest(result)
        except Exception as exc:  # a run that raises is an outcome to compare
            lines = [f"  raised   {type(exc).__name__}: {exc}"]
        else:
            saved[f"{label}: fields"] = result.final_state.fields
            if result.z_rho_final is not None:
                saved[f"{label}: z_rho"] = result.z_rho_final
            for column in dataclasses.fields(monitors.LedgerRecord):
                saved[f"{label}: ledger {column.name}"] = np.array(
                    [getattr(record, column.name) for record in result.ledger], dtype=float)
        print("\n".join(lines), flush=True)
    for scheme in ("imex_euler", "cnab2"):
        for quick in (["--quick"], []):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["mms", "--scheme", scheme, *quick])
            print(f"mms {scheme} {'quick' if quick else 'full'}: exit {code}, "
                  f"stdout {_sha(out.getvalue())}")
            print(out.getvalue(), end="", flush=True)
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
