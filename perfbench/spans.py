"""Span tracing of the ebpe layers from outside the program.

``Tracer.install()`` replaces the traced functions, methods and
constructors with wrappers that record one span per call: name, start,
end, parent span and operation id (plus, for some calls, the bytes they
computed on).  Modules import functions by name (``from .grid import
to_spectral``), so every ``ebpe`` module attribute bound to a traced
function is replaced, not only the defining one.  ``uninstall()`` puts
the originals back, so traced and untraced operations (and the untraced
correctness checks) can alternate in one process.

Spans stay in memory and are written out once, by ``dump``.  A span's
self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

STEP = "timestep.Stepper.step"
MEASURE = "monitors.measure"
TRANSFORMS = ("grid.to_spectral", "grid.to_physical")
SELF_TIME_LAYERS = ("timestep", "linops", "hydrostatic", "monitors", "stochastic")


def _transform_bytes(args, kwargs, result):
    return args[1].nbytes + result.nbytes


def _solver_bytes(args, kwargs, result):
    return sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))


def _bundle_bytes(args, kwargs, result):
    return result.increments.nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _targets():
    """(span name, owner, attribute, bytes hook) for every traced call."""
    import scipy.linalg
    from ebpe import (cli, config, diagnostics, ebm, grid, hydrostatic, linops,
                      manufactured, monitors, snapshots, stochastic, timestep)

    coupled, velocity = linops.CoupledImplicitSolver, linops.VelocityImplicitSolver
    propagator = stochastic.ConvolutionPropagator
    return [
        ("grid.to_spectral", grid, "to_spectral", _transform_bytes),
        ("grid.to_physical", grid, "to_physical", _transform_bytes),
        ("timestep.run_deterministic", timestep, "run_deterministic", None),
        ("timestep.initial_state", timestep, "initial_state", None),
        ("timestep.nonlinear_tendencies", timestep, "nonlinear_tendencies", None),
        ("timestep.Stepper.init", timestep.Stepper, "__init__", None),
        (STEP, timestep.Stepper, "step", None),
        ("linops.solver_init", coupled, "__init__", _solver_bytes),
        ("linops.solver_init", velocity, "__init__", _solver_bytes),
        ("linops.coupled_solve", coupled, "solve_hat", None),
        ("linops.velocity_solve", velocity, "solve_hat", None),
        ("linops.generator_apply", coupled, "apply_generator_hat", None),
        ("linops.generator_apply", velocity, "apply_generator_hat", None),
        ("hydrostatic.project_barotropic", hydrostatic, "project_barotropic", None),
        ("hydrostatic.diagnose_w", hydrostatic, "diagnose_w", None),
        ("hydrostatic.baroclinic_grad", hydrostatic, "baroclinic_grad", None),
        ("ebm.radiation", ebm, "radiation", None),
        (MEASURE, monitors, "measure", None),
        ("monitors.max_principle_check", monitors, "max_principle_check", None),
        ("monitors.mms_convergence_study", monitors, "mms_convergence_study", None),
        ("stochastic.run_split_stochastic", stochastic, "run_split_stochastic", None),
        ("stochastic.run_direct_em", stochastic, "run_direct_em", None),
        ("stochastic.wiener_increments", stochastic, "wiener_increments", _bundle_bytes),
        ("stochastic.ConvolutionPropagator.init", propagator, "__init__", None),
        ("stochastic.expm", scipy.linalg, "expm", None),
        ("stochastic.propagator_step", propagator, "step_hat", None),
        ("manufactured.forcing", manufactured.ManufacturedSolution, "forcing", None),
        ("snapshots.write_snapshot", snapshots, "write_snapshot", _file_bytes),
        ("diagnostics.write_csv", diagnostics, "write_csv", _file_bytes),
        ("config.parse_config", config, "parse_config", None),
        ("cli.main", cli, "main", None),
    ]


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the running operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, bytes]
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, nbytes):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if nbytes is not None:
                span[5] = nbytes(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "ebpe" or key.startswith("ebpe.")]
        for name, owner, attr, nbytes in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, nbytes)
            holders = [(owner, attr)] + [(m, key) for m in modules if m is not owner
                                         for key, value in vars(m).items() if value is original]
            for holder, key in holders:
                self._undo.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "bytes"],
                       "spans": self.spans}, fh)


class OpStats:
    """Totals of one traced operation."""

    def __init__(self, spans: list[list], indices: list[int]):
        self.count = defaultdict(int)
        self.total = defaultdict(float)      # inclusive seconds
        self.nbytes = defaultdict(int)
        self.durations = defaultdict(list)
        self.self_time = defaultdict(float)  # seconds, by layer and by span name
        child = defaultdict(float)
        for i in indices:
            name, start, end, parent = spans[i][:4]
            if parent >= 0:
                child[parent] += end - start
        for i in indices:
            name, start, end, parent, _, nbytes = spans[i]
            dur = end - start
            self.count[name] += 1
            self.total[name] += dur
            self.nbytes[name] += nbytes
            self.durations[name].append(dur)
            own = dur - child[i]
            self.self_time[name.split(".", 1)[0]] += own
            self.self_time[name] += own
        self.steps = self.durations[STEP] or self._measure_intervals(spans, indices)
        per_stepper = defaultdict(int)
        for i in indices:
            if spans[i][0] == "linops.solver_init":
                per_stepper[spans[i][3]] += spans[i][5]
        self.solver_bytes = max(per_stepper.values(), default=0)

    @staticmethod
    def _measure_intervals(spans, indices):
        """Step spans of drivers that never call Stepper.step: the time
        between consecutive per-step measure calls of one driver run."""
        by_driver = defaultdict(list)
        for i in indices:
            if spans[i][0] == MEASURE:
                by_driver[spans[i][3]].append(spans[i])
        steps = []
        for calls in by_driver.values():
            calls.sort(key=lambda s: s[1])
            steps.extend(b[1] - a[2] for a, b in zip(calls, calls[1:]))
        return steps


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def op_stats(spans, ops) -> list[OpStats]:
    """OpStats of each listed operation id."""
    by_op = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span[4]].append(i)
    return [OpStats(spans, by_op[op]) for op in ops]


def layer_metrics(runs: list[OpStats], setups: list[OpStats],
                  n_steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced run operations and traced set-up operations.

    ``*_per_step`` figures are (run op total - set-up op total) / steps, so
    work done once per operation drops out and counts come out exact.
    ``*.ms_p50`` figures pool every call of the traced run operations.
    """

    def per_step(get, scale=1.0):
        return _median([(get(r) - get(s)) / n_steps * scale for r, s in zip(runs, setups)])

    def per_op(get, scale=1.0):
        return _median([get(r) * scale for r in runs])

    def p50_ms(name):
        return 1e3 * _median([d for r in runs for d in r.durations[name]])

    steps = [d for r in runs for d in r.steps]
    m = {
        "grid.to_spectral.calls_per_step": (per_step(lambda o: o.count["grid.to_spectral"]), "count"),
        "grid.to_physical.calls_per_step": (per_step(lambda o: o.count["grid.to_physical"]), "count"),
        "grid.transform.ms_per_step": (
            per_step(lambda o: sum(o.total[t] for t in TRANSFORMS), 1e3), "ms"),
        "grid.transform.computed_mb_per_step": (
            per_step(lambda o: sum(o.nbytes[t] for t in TRANSFORMS), 1e-6), "MB"),
        "timestep.step.ms_p50": (1e3 * _median(steps), "ms"),
        "timestep.step.ms_p90": (
            1e3 * float(np.percentile(steps, 90)) if steps else 0.0, "ms"),
        "timestep.step.samples": (len(steps), "count"),
        "timestep.nonlinear_tendencies.ms_p50": (p50_ms("timestep.nonlinear_tendencies"), "ms"),
        "timestep.Stepper.init_s": (per_op(lambda o: o.total["timestep.Stepper.init"]), "s"),
        "timestep.initial_state.s": (per_op(lambda o: o.total["timestep.initial_state"]), "s"),
        "linops.velocity_solve.ms_p50": (p50_ms("linops.velocity_solve"), "ms"),
        "linops.coupled_solve.ms_p50": (p50_ms("linops.coupled_solve"), "ms"),
        "linops.generator_apply.ms_p50": (p50_ms("linops.generator_apply"), "ms"),
        "linops.solver_init.s": (per_op(lambda o: o.total["linops.solver_init"]), "s"),
        "linops.solver.computed_mb": (per_op(lambda o: o.solver_bytes, 1e-6), "MB"),
        "hydrostatic.project_barotropic.ms_p50": (p50_ms("hydrostatic.project_barotropic"), "ms"),
        "hydrostatic.diagnose_w.ms_p50": (p50_ms("hydrostatic.diagnose_w"), "ms"),
        "hydrostatic.baroclinic_grad.ms_p50": (p50_ms("hydrostatic.baroclinic_grad"), "ms"),
        "ebm.radiation.ms_p50": (p50_ms("ebm.radiation"), "ms"),
        "monitors.measure.ms_p50": (p50_ms(MEASURE), "ms"),
        "monitors.measure.calls_per_step": (per_step(lambda o: o.count[MEASURE]), "count"),
        "monitors.max_principle_check.ms_p50": (p50_ms("monitors.max_principle_check"), "ms"),
        "stochastic.ConvolutionPropagator.init_s": (
            per_op(lambda o: o.total["stochastic.ConvolutionPropagator.init"]), "s"),
        "stochastic.expm.calls": (per_op(lambda o: o.count["stochastic.expm"]), "count"),
        "stochastic.propagator_step.ms_p50": (p50_ms("stochastic.propagator_step"), "ms"),
        "stochastic.wiener_increments.s": (
            per_op(lambda o: o.total["stochastic.wiener_increments"]), "s"),
        "stochastic.bundle.computed_mb": (
            per_op(lambda o: o.nbytes["stochastic.wiener_increments"], 1e-6), "MB"),
        "manufactured.forcing.ms_p50": (p50_ms("manufactured.forcing"), "ms"),
        "snapshots.write_snapshot.ms": (per_op(lambda o: o.total["snapshots.write_snapshot"], 1e3), "ms"),
        "snapshots.bytes": (per_op(lambda o: o.nbytes["snapshots.write_snapshot"]), "B"),
        "diagnostics.write_csv.ms": (per_op(lambda o: o.total["diagnostics.write_csv"], 1e3), "ms"),
        "diagnostics.bytes": (per_op(lambda o: o.nbytes["diagnostics.write_csv"]), "B"),
        "config.parse_config.ms": (per_op(lambda o: o.total["config.parse_config"], 1e3), "ms"),
        "cli.main.self_ms": (per_op(lambda o: o.self_time["cli.main"], 1e3), "ms"),
    }
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_ms_per_step"] = (per_step(lambda o: o.self_time[layer], 1e3), "ms")
    return m
