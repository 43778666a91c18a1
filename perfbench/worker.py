"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``
and the BLAS/OpenMP thread counts pinned.  Writes its result as JSON to
``--result``; ``run.py`` prints it.

Untraced run (``--trace 0``): one warm-up operation and set-up, then until
``--seconds`` have passed, one operation followed by ``setup_reps`` set-up
operations; the medians of their calibrated times (``SpeedClock``) give
``wall_s`` and ``setup_s``.  The process ran nothing but this workload,
so its ``ru_maxrss`` is ``peak_rss_mb``.

Traced run (``--trace 1``): the same warm-up, then alternating untraced
operations with traced operations and traced set-up operations.  The
traced ones give the per-layer metrics; the calibrated traced/untraced
operation times give the tracing overhead.

Every operation's output is checked outside its timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

MIN_OPS = 3


class SpeedClock:
    """Calibration of the machine's momentary speed.

    On a shared machine the same operation can take twice as long for tens
    of seconds while neighbours load it, so raw wall times of separate runs
    are not comparable.  A fixed NumPy kernel shaped like the workload's
    numerics is timed between operations: allocate one dense (n, n) matrix
    per horizontal mode of the workload's grid (as a solver set-up does),
    apply them three times (as per-mode solves do), then make ``reps`` 2-D
    FFT round trips on a field of the grid.  An operation's time is scaled
    by ``nominal / kernel time``, the kernel time being the mean of the
    timings just before and just after it.  The kernel does not call ebpe,
    so a change to the program moves the scaled time as it moves the raw
    time.
    """

    def __init__(self, shape, reps: int, nominal_s: float):
        self.x = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
        self.reps = reps
        self.nominal_s = nominal_s
        self.kernel_s = []
        self.last = self._kernel()

    def _kernel(self) -> float:
        nx, ny, n = self.x.shape
        t0 = perf_counter()
        mats = np.full((nx, ny, n, n), 1.0 / n)
        z = np.fft.fft2(self.x, axes=(0, 1))
        for _ in range(3):
            z = np.einsum("xyij,xyj->xyi", mats, z)
        del mats
        for _ in range(self.reps):
            np.fft.ifft2(np.fft.fft2(self.x, axes=(0, 1)), axes=(0, 1))
        seconds = perf_counter() - t0
        self.kernel_s.append(seconds)
        return seconds

    def scale(self) -> float:
        """nominal / kernel time, the kernel timed at the last call and now."""
        now = self._kernel()
        factor = self.nominal_s / (0.5 * (self.last + now))
        self.last = now
        return factor


class Counter:
    """Operations attempted and failed; the first failure is kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.info = {}

    def record(self, ok: bool, detail: str, new_operation: bool = True) -> None:
        self.attempted += new_operation
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or detail


def timed(call):
    """(seconds, result or None, error text or None) of one call."""
    t0 = perf_counter()
    try:
        result = call()
    except Exception:
        return perf_counter() - t0, None, traceback.format_exc(limit=3)
    return perf_counter() - t0, result, None


def run_op(wl, counter: Counter, tracing=contextlib.nullcontext()) -> float:
    with tracing:
        seconds, out, error = timed(wl.run)
    if error is not None:
        counter.record(False, error)
        return seconds
    try:
        ok, detail, info = wl.check(out)
    except Exception:
        ok, detail, info = False, traceback.format_exc(limit=3), {}
    counter.info.update(info)
    counter.record(ok, detail)
    return seconds


def run_setup(wl, counter: Counter, tracing=contextlib.nullcontext()) -> float:
    with tracing:
        seconds, out, error = timed(wl.setup)
    counter.record(*(out if error is None else (False, error)))
    return seconds


def environment(root: Path) -> dict:
    import scipy

    def cache_size(level: int):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level) and \
                        (index / "type").read_text().strip() in ("Unified", "Data"):
                    return (index / "size").read_text().strip()
            except OSError:
                return None
        return None

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ebpe").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2": cache_size(2),
        "l3": cache_size(3),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def git_commit(root: Path):
    """HEAD of a git checkout, read from .git without running git; None otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    import ebpe
    if Path(ebpe.__file__).resolve().parent != root / "src" / "ebpe":
        print(f"error: imported ebpe from {ebpe.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2

    from spans import Tracer, layer_metrics, op_stats
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    wl.prepare(args.seed, workdir)
    counter = Counter()

    run_op(wl, counter)      # warm-up: imports, FFT plans, page faults
    run_setup(wl, counter)

    clock = SpeedClock(*wl.calibration)
    walls, setups, traced_walls = [], [], []   # scaled seconds
    raw_walls, raw_setups = [], []
    tracer = Tracer() if args.trace else None
    run_ops, setup_ops = [], []
    t0 = perf_counter()
    while len(walls) < MIN_OPS or perf_counter() - t0 < args.seconds:
        raw_walls.append(run_op(wl, counter))
        walls.append(raw_walls[-1] * clock.scale())
        if tracer is None:
            group = [run_setup(wl, counter) for _ in range(wl.setup_reps)]
            factor = clock.scale()
            raw_setups.extend(group)
            setups.extend(s * factor for s in group)
            continue
        run_ops.append(2 * len(run_ops))
        traced = run_op(wl, counter, tracer.tracing(run_ops[-1]))
        setup_ops.append(run_ops[-1] + 1)
        run_setup(wl, counter, tracer.tracing(setup_ops[-1]))
        traced_walls.append(traced * clock.scale())

    if tracer is None:
        wall, setup = statistics.median(walls), statistics.median(setups)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "steps_per_s": (wl.n_steps / (wall - setup), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {
            "wall_s": len(walls), "setup_s": len(setups),
            "raw_wall_s": statistics.median(raw_walls),
            "raw_setup_s": statistics.median(raw_setups),
            "kernel_s": statistics.median(clock.kernel_s),
            "nominal_kernel_s": clock.nominal_s,
        }
    else:
        run_stats = op_stats(tracer.spans, run_ops)
        for op in run_stats:   # traced operations, already counted
            counter.record(len(op.steps) == wl.n_steps, f"a traced operation made "
                           f"{len(op.steps)} steps, expected {wl.n_steps}", new_operation=False)
        metrics = layer_metrics(run_stats, op_stats(tracer.spans, setup_ops), wl.n_steps)
        untraced = statistics.median(walls)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced_walls) - untraced) / untraced, "%")
        metrics["monitors.mms_convergence_study.err_l2"] = (
            counter.info.get("err_l2", 0.0), "1")
        samples = {"untraced": len(walls), "traced": len(traced_walls),
                   "spans": len(tracer.spans)}
        tracer.dump(workdir / "spans.json")

    result = {"attempted": counter.attempted, "failed": counter.failed,
              "first_failure": counter.first_failure, "info": counter.info,
              "env": environment(root), "samples": samples, "metrics": metrics}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
