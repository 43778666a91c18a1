"""Grid ladder of the step kernel: set-up, per-call times and page faults.

For each grid of the ladder (8^3, 16^3, 32^3, 64^2 x 32, 64^3) this
times, on the `random_smooth` state (amplitude 0.5, seed 1) with
surface-trace transport, IMEX Euler and dt = 1e-3:

- `setup_s`: `Stepper` construction from cold set-up caches (the
  per-process caches of `make_grid` and `linops.vertical_operator` are
  emptied before each repeat, in a tree that has them), and
  `setup_warm_s` with them warm: a second `Stepper` of the grid;
- `state_terms_ms`, `measure_ms`, `tendencies_ms`, `step_ms`: min and
  median of one call each, the calls taking the same state (the step of
  a given state is a pure function of it); `tendencies_ms` times
  `Stepper.tendencies` given the state's terms.  The state terms and the
  ledger are taken as the driver loop takes them: in the stepper's
  workspace in a tree that has one (one record, `Stepper.workspace`, or
  a record per phase, `Stepper.state_terms` and `ledger_work`), and
  otherwise by the allocating calls;
- `<figure>_faults_per_call` and `<figure>_stime_ms_per_call` for each
  figure above (`setup`, `state_terms`, ...): `getrusage` minor page
  faults and system CPU time per call over that figure's samples, so a
  worker whose times sit apart can be told by the faults it made;
- `loop_step_ms` and `minor_faults_per_step`: the wall time of each
  step of a driver-like loop (state terms, measure, step, the state
  evolving, LOOP_STEPS steps after one untimed), and its `getrusage`
  minor page faults per step, printed as the median over the workers.
  The per-call figures take one fixed state, so the allocator's state
  between calls is not the loop's: this is the figure of the kernel as
  a run drives it.  The faults report allocation churn; they gate
  nothing;
- `em_loop_step_ms`, at 8^3 only: the same loop in the shape of the
  stoch-8 benchmark, the one place the ladder runs the vertical average
  and a kick: `accept_stoch` physics (vertical-average transport,
  `random_smooth` amplitude 0.5, seed 1) and the direct Euler-Maruyama
  kick q dW at sigma = 0.1, the increments drawn by `wiener_increments`;
  and `em_loop_calls_per_step`, the Python-level call events
  (`sys.setprofile` "call" and "c_call": Python functions and builtins,
  not ufuncs) of one more step of that loop, with its terms and ledger,
  a count that repeats exactly on any machine for one numpy version.

Every figure keeps, beside its pooled min and median, each worker's own
minimum (`worker_min`, one per round) and their median
(`median_worker_min`), which is printed beside the pooled minimum: one
worker that drew a quiet machine sets the pooled minimum, while the
median of the per-worker minima does not follow any one worker.

Beside them it records `src_lines`, the line count of each tree's
``ebpe/*.py`` (as ``wc -l`` counts), so size is tracked next to speed.

Each source tree named by ``--tree NAME=SRC`` (a directory holding the
``ebpe`` package; at least one) is measured in fresh worker processes
with one BLAS thread.  Trees alternate within every one of ROUNDS rounds,
and each figure keeps the min and median over all rounds, so two trees on
one machine are compared side by side.  The result goes to
``BENCH_<label>.json``:

    python tools/kernel_ladder.py --label NAME \\
        --tree parent=../parent/src --tree change=src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

LADDER = {"8^3": (8, 8, 8), "16^3": (16, 16, 16), "32^3": (32, 32, 32),
          "64^2x32": (64, 64, 32), "64^3": (64, 64, 64)}
ROUNDS = 3
# seconds of samples per timed call and grid in one round, and the floor
# on the sample count
SAMPLE_SECONDS = 0.6
MIN_SAMPLES = 3
LOOP_STEPS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _samples(call) -> tuple[list[float], float, float]:
    """Wall times (s) of call() until SAMPLE_SECONDS have passed, after one
    warm-up call, with at least MIN_SAMPLES of them, and the minor page
    faults and the system CPU seconds per call over those samples."""
    call()
    times: list[float] = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    while len(times) < MIN_SAMPLES or time.perf_counter() - start < SAMPLE_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (times, (after.ru_minflt - before.ru_minflt) / len(times),
            (after.ru_stime - before.ru_stime) / len(times))


def _clear_caches() -> None:
    """Empty the tree's per-process set-up caches; a tree without them
    has nothing to empty."""
    from ebpe import grid, linops

    for fn in (grid.make_grid, getattr(linops, "vertical_operator", None)):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def worker(shape: tuple[int, int, int]) -> dict:
    """One round of every figure on one grid, for the ebpe on sys.path."""
    from ebpe.ebm import PhysParams, default_insolation
    from ebpe.grid import make_grid
    from ebpe.monitors import measure, state_terms
    from ebpe.timestep import Stepper, initial_state

    grid = make_grid(*shape)
    params = PhysParams(Q=default_insolation(grid, 1.0, 0.3))
    dt = 1e-3
    stepper = Stepper(grid, params, dt)
    state = initial_state(grid, "random_smooth", amplitude=0.5, seed=1)
    # the driver loop's calls: in the stepper's workspace where it has one
    if hasattr(type(stepper), "workspace"):
        terms_of, ledger = stepper.state_terms, {"work": stepper.workspace}
    elif hasattr(stepper, "ledger_work"):
        terms_of, ledger = stepper.state_terms, {"work": stepper.ledger_work()}
    else:
        terms_of, ledger = (lambda s: state_terms(grid, s)), {}
    terms = terms_of(state)

    def cold_setup():
        _clear_caches()
        return Stepper(grid, params, dt)

    calls = {"setup_s": cold_setup,
             "setup_warm_s": lambda: Stepper(grid, params, dt),
             "state_terms_ms": lambda: terms_of(state),
             "measure_ms": lambda: measure(grid, state, terms, **ledger),
             "tendencies_ms": lambda: stepper.tendencies(state, terms),
             "step_ms": lambda: stepper.step(state, terms=terms)}
    out = {}
    for key, call in calls.items():
        times, faults, stime = _samples(call)
        name, unit = key.rsplit("_", 1)
        out[key] = [t * (1e3 if unit == "ms" else 1.0) for t in times]
        out[f"{name}_faults_per_call"] = [faults]
        out[f"{name}_stime_ms_per_call"] = [1e3 * stime]
    def loop_step():
        nonlocal state
        terms = terms_of(state)
        measure(grid, state, terms, **ledger)
        state = stepper.step(state, terms=terms)

    loop_step()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(LOOP_STEPS):
        t0 = time.perf_counter()
        loop_step()
        times.append(time.perf_counter() - t0)
    out["minor_faults_per_step"] = [
        (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / LOOP_STEPS]
    out["loop_step_ms"] = [1e3 * t for t in times]
    if shape == LADDER["8^3"]:
        out["em_loop_step_ms"], calls = _em_loop(shape, dt)
        out["em_loop_calls_per_step"] = [calls]
    return out


def _call_events(call) -> int:
    """The "call" and "c_call" events (`sys.setprofile`) of one call(), not
    counting call's own and the profiler's switch-off."""
    events = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            events.append(event)

    sys.setprofile(profile)
    call()
    sys.setprofile(None)
    return len(events) - 2


def _em_loop(shape: tuple[int, int, int], dt: float) -> tuple[list[float], int]:
    """Wall times (ms) of LOOP_STEPS steps, after one untimed, of the
    driver-like loop with stoch-8 physics and the direct-EM kick, and the
    call events of one more step (`_call_events`)."""
    import numpy as np
    from ebpe.config import RunConfig
    from ebpe.monitors import measure
    from ebpe.stochastic import NoiseSpec, wiener_increments
    from ebpe.timestep import start_run

    nx, ny, nz = shape
    cfg = RunConfig(nx=nx, ny=ny, nz=nz, dt=dt, t_end=(LOOP_STEPS + 2) * dt,
                    transport="vertical_average", ic_kind="random_smooth",
                    ic_amplitude=0.5, ic_seed=1, noise_sigma=0.1)
    stepper, state = start_run(cfg)
    grid, work = stepper.grid, stepper.workspace
    spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
    q = np.repeat(spec.q_table(grid)[:, None], 2, axis=1)  # as the driver's kick takes it
    increments = wiener_increments(grid, spec, dt, LOOP_STEPS + 2).increments
    kick_hat = np.zeros(increments.shape[1:] + (grid.nlev,))
    surface = kick_hat[..., -1]
    step = iter(increments)

    def loop_step():
        nonlocal state
        terms = stepper.state_terms(state)
        measure(grid, state, terms, work=work)
        np.multiply(q, next(step), out=surface)
        state = stepper.step(state, kick_hat=kick_hat, terms=terms)

    times = []
    for _ in range(LOOP_STEPS + 1):
        t0 = time.perf_counter()
        loop_step()
        times.append(time.perf_counter() - t0)
    return [1e3 * t for t in times[1:]], _call_events(loop_step)


def _run_worker(src: Path, label: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    done = subprocess.run([sys.executable, __file__, "--worker", label], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _src_lines(src: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (src / "ebpe").glob("*.py"))


def _median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]


def _summary(workers: list[list[float]]) -> dict:
    """One figure over its workers: pooled min, median and sample count,
    each worker's minimum and the median of those minima."""
    pooled = [v for values in workers for v in values]
    worker_min = [min(values) for values in workers]
    return {"min": min(pooled), "median": _median(pooled), "samples": len(pooled),
            "worker_min": worker_min, "median_worker_min": _median(worker_min)}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                        help="a source tree to measure (repeatable)")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--worker", choices=list(LADDER), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(LADDER[args.worker])))
        return 0
    if not args.label or not args.tree:
        parser.error("--label and at least one --tree are required")
    trees = {name: Path(src).resolve() for name, src in (t.split("=", 1) for t in args.tree)}

    raw = {name: {grid: {} for grid in LADDER} for name in trees}
    for rnd in range(ROUNDS):
        order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
        for grid in LADDER:
            for name in order:
                for key, values in _run_worker(trees[name], grid).items():
                    raw[name][grid].setdefault(key, []).append(values)
                print(f"round {rnd + 1}/{ROUNDS} {grid} {name}", file=sys.stderr)

    import numpy

    result = {
        "label": args.label,
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "blas_threads": 1},
        "state": "random_smooth, amplitude 0.5, seed 1; surface trace; imex_euler; dt 1e-3",
        "rounds": ROUNDS,
        "trees": list(trees),
        "src_lines": {name: _src_lines(src) for name, src in trees.items()},
        "results": {name: {grid: {key: _summary(values) for key, values in figures.items()}
                           for grid, figures in grids.items()}
                    for name, grids in raw.items()},
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for grid in LADDER:
        figures = {name: result["results"][name][grid] for name in trees}
        row = "  ".join(f"{name}: setup {1e3 * f['setup_s']['min']:.3f} "
                        f"(warm {1e3 * f['setup_warm_s']['min']:.3f}) ms, "
                        f"step {f['step_ms']['min']:.3f} "
                        f"({f['step_ms']['median_worker_min']:.3f}) ms, tendencies "
                        f"{f['tendencies_ms']['min']:.3f} "
                        f"({f['tendencies_ms']['median_worker_min']:.3f}) ms, "
                        f"loop step {f['loop_step_ms']['min']:.3f} "
                        f"({f['loop_step_ms']['median_worker_min']:.3f}) ms, "
                        f"faults/step {f['minor_faults_per_step']['median_worker_min']:.1f}"
                        + (f", EM loop step {f['em_loop_step_ms']['min']:.3f} "
                           f"({f['em_loop_step_ms']['median_worker_min']:.3f}) ms, "
                           f"{f['em_loop_calls_per_step']['min']:.0f} calls"
                           if "em_loop_step_ms" in f else "")
                        for name, f in figures.items())
        print(f"{grid:8s} {row}")
        for name, f in figures.items():
            per_call = ", ".join(
                f"{fig} " + "/".join(f"{v:.0f}" for v in f[f"{fig}_faults_per_call"]["worker_min"])
                for fig in ("state_terms", "measure", "tendencies", "step"))
            print(f"{'':8s} {name} faults/call by worker: {per_call}")
    print("(pooled min, and in brackets the median of the per-worker minima; "
          "faults/step: the median over workers)")
    print("src lines  " + "  ".join(f"{name}: {n}" for name, n in result["src_lines"].items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
