"""Seeded workloads of the ebpe benchmark.

Each workload turns the benchmark seed into generated INI inputs (the same
keys as ``configs/accept_*.ini``) and drives the ``ebpe`` package only
through its public entry points: ``ebpe.cli.main``, the ``run_*`` drivers
and ``monitors.mms_convergence_study`` (reached through ``ebpe mms``).

A workload offers three calls to the worker:

* ``run()``: one whole operation, the thing ``wall_s`` times;
* ``setup()``: the cost paid before the first step, the thing ``setup_s``
  times; it returns ``(ok, detail)``;
* ``check(out)``: the per-operation correctness check of a ``run()``
  result, outside the timed region; it returns ``(ok, detail, info)``,
  where ``info`` holds accuracy figures worth printing.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from ebpe import cli, config, stochastic
from ebpe.grid import make_grid
from ebpe.manufactured import ManufacturedSolution
from ebpe.timestep import Stepper

# Traced functions are called through their module (`config.parse_config`,
# not a name imported from it) so that the tracer's wrappers see the calls.

# accept_det.ini physics: surface-trace transport, radiation on, peak
# insolation at most one, random_smooth data at the beta2^(1/4) ceiling
DET_INI = """\
# generated by perfbench/workloads.py from seed {seed}; accept_det.ini physics
[grid]
nx = {nx}
ny = {ny}
nz = {nz}

[physics]
beta1 = 0.38
beta2 = 0.68
rho_ref = 0.0
q0 = 0.9
q1 = 0.1
transport = surface_trace

[time]
dt = {dt!r}
t_end = {t_end!r}

[init]
kind = random_smooth
amplitude = 0.9080865185231703
seed = {seed}
decay = 3.0

[output]
cadence = 10
monitors = on
"""

# accept_stoch.ini: vertical-average transport, sigma = 0.1, decay 2
STOCH_INI = """\
# generated by perfbench/workloads.py from seed {seed}; accept_stoch.ini physics
[grid]
nx = {nx}
ny = {ny}
nz = {nz}

[physics]
transport = vertical_average

[time]
dt = {dt!r}
t_end = {t_end!r}

[init]
kind = random_smooth
amplitude = 0.5
seed = {seed}
decay = 3.0

[noise]
sigma = 0.1
decay = 2.0
seed = {seed}
"""

# RMS(rho_split - rho_EM) after 100 steps of dt = 1e-3 on one shared path.
# Over seeds 0..199 the seed code gives at most 2.7e-4 (median 7.1e-5,
# `sweep.py stoch-8 0 200`); the bound sits a factor 1.85 above that.
STOCH_COUPLING_BOUND = 5e-4

# `ebpe mms --quick` ladders (src/ebpe/cli.py): steps of every rung,
# including the fine temporal reference at dt_min / 8.
MMS_SPATIAL_STEPS = 2 * round(0.005 / 1e-4)            # nz = 8, 16
MMS_TEMPORAL_STEPS = round(0.25 * 40) + round(0.25 * 80) + round(0.25 * 80 * 8)
MMS_MIN_TEMPORAL_ORDER = 1.9


def _quiet(call, *args):
    """Run call(*args) with the program's stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call(*args)
    return result, out.getvalue() + err.getvalue()


class DetWorkload:
    """`ebpe run-det` with monitors on, writing CSV and snapshot."""

    def __init__(self, name: str, nx: int, ny: int, nz: int, steps: int,
                 setup_reps: int, calibration):
        self.name = name
        self.calibration = calibration
        self.nx, self.ny, self.nz = nx, ny, nz
        self.n_steps = steps
        self.setup_reps = setup_reps
        self.dt = 1e-3

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        for tag, steps in (("run", self.n_steps), ("setup", 0)):
            text = DET_INI.format(seed=seed, nx=self.nx, ny=self.ny, nz=self.nz,
                                  dt=self.dt, t_end=round(steps * self.dt, 12))
            (workdir / f"{tag}.ini").write_text(text)

    def _argv(self, tag: str) -> list[str]:
        return ["run-det", "--config", str(self.workdir / f"{tag}.ini"),
                "--out", str(self.workdir / f"out_{tag}")]

    def run(self):
        return _quiet(cli.main, self._argv("run"))

    def setup(self):
        rc, text = _quiet(cli.main, self._argv("setup"))
        return rc == 0, f"setup exit {rc}: {text.strip()}"

    def check(self, out):
        rc, text = out
        if rc != 0:
            return False, f"run-det exit {rc}: {text.strip()}", {}
        out_dir = self.workdir / "out_run"
        rc, text = _quiet(cli.main, ["check", str(out_dir / "state_final.bin")])
        if rc != 0:
            return False, f"check exit {rc}: {text.strip()}", {}
        rows = [line for line in (out_dir / "diagnostics.csv").read_text().splitlines()
                if line and line[0].isdigit()]
        last_step = int(rows[-1].split(",", 1)[0])
        if last_step != self.n_steps:
            return False, f"diagnostics end at step {last_step}, expected {self.n_steps}", {}
        return True, "", {}


class StochWorkload:
    """`run_split_stochastic` then `run_direct_em` on one shared increment bundle."""

    def __init__(self, name: str, n: int, steps: int, setup_reps: int, calibration):
        self.name = name
        self.calibration = calibration
        self.nx = self.ny = self.nz = n
        self.n_steps = 2 * steps     # both drivers' steps
        self._steps = steps
        self.setup_reps = setup_reps
        self.dt = 1e-3

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        for tag, steps in (("run", self._steps), ("setup", 0)):
            text = STOCH_INI.format(seed=seed, nx=self.nx, ny=self.ny, nz=self.nz,
                                    dt=self.dt, t_end=round(steps * self.dt, 12))
            (workdir / f"{tag}.ini").write_text(text)

    def _drive(self, tag: str):
        cfg = config.parse_config((self.workdir / f"{tag}.ini").read_text())
        grid = make_grid(cfg.nx, cfg.ny, cfg.nz)
        spec = stochastic.NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay,
                                    seed=cfg.noise_seed)
        bundle = stochastic.wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        split = stochastic.run_split_stochastic(cfg, spec=spec, bundle=bundle)
        em = stochastic.run_direct_em(cfg, spec=spec, bundle=bundle)
        return split, em

    def run(self):
        return self._drive("run")

    def setup(self):
        self._drive("setup")
        return True, ""

    def check(self, out):
        split, em = out
        for label, res in (("split", split), ("em", em)):
            s = res.final_state
            if s.step != self._steps:
                return False, f"{label} driver stopped at step {s.step}", {}
            if not all(np.all(np.isfinite(f)) for f in (s.v, s.T, s.rho)):
                return False, f"{label} driver final fields are not finite", {}
        rms = float(np.sqrt(np.mean((split.final_state.rho - em.final_state.rho) ** 2)))
        info = {"rms_split_em": rms}
        if not rms < STOCH_COUPLING_BOUND:
            return False, f"RMS(rho_split - rho_EM) = {rms:.3e} >= {STOCH_COUPLING_BOUND:.1e}", info
        return True, "", info


class MmsWorkload:
    """`ebpe mms --scheme cnab2 --quick`: closed-form solution, seed unused."""

    def __init__(self, name: str, setup_reps: int, calibration):
        self.name = name
        self.calibration = calibration
        self.n_steps = MMS_SPATIAL_STEPS + MMS_TEMPORAL_STEPS
        self.setup_reps = setup_reps

    def prepare(self, seed: int, workdir: Path) -> None:
        self.grid = make_grid(16, 16, 16)
        self.exact = ManufacturedSolution()
        self.params = self.exact.params(self.grid)

    def run(self):
        return _quiet(cli.main, ["mms", "--scheme", "cnab2", "--quick"])

    def setup(self):
        Stepper(self.grid, self.params, 1.0 / 40, scheme="cnab2",
                forcing=self.exact.forcing)
        return True, ""

    def check(self, out):
        rc, text = out
        if rc != 0:
            return False, f"mms exit {rc}: {text.strip()}", {}
        order = float(re.search(r"measured temporal order:\s*(\S+)", text).group(1))
        errors = [float(m) for m in re.findall(r"^\s+\S+\s+(\S+e[-+]\d+)$", text, re.M)]
        info = {"err_l2": max(errors), "temporal_order": order}
        if not order >= MMS_MIN_TEMPORAL_ORDER:
            return False, f"temporal order {order:.3f} < {MMS_MIN_TEMPORAL_ORDER}", info
        return True, "", info


# Why each workload exists is recorded in BENCHMARK.json.  `calibration`
# is the speed-clock kernel of worker.py: (grid shape, FFT round trips per
# timing, nominal seconds); the nominal time is about the kernel's fastest
# timing on a 2-vCPU Xeon (2 MiB L2, 105 MiB L3), numpy 2.4.6, one BLAS
# thread.
WORKLOADS = {
    w.name: w for w in (
        DetWorkload("det-16", 16, 16, 16, steps=100, setup_reps=5,
                    calibration=((16, 16, 17), 320, 0.039)),
        StochWorkload("stoch-8", 8, steps=100, setup_reps=5,
                      calibration=((8, 8, 9), 400, 0.039)),
        MmsWorkload("mms-cnab2", setup_reps=10,
                    calibration=((16, 16, 17), 320, 0.039)),
    )
}
