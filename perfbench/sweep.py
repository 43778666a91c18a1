"""Seed sweep: does the program complete every operation for many seeds?

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/sweep.py det-16 0 100

Runs one operation of the workload per seed, untimed, with its correctness
check, and prints each failure and a summary of the check figures (for
``stoch-8`` the RMS split-vs-EM distance that ``STOCH_COUPLING_BOUND``
bounds).  The benchmark only uses workloads on which this sweep reports no
failure.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    name, first, count = (argv or sys.argv[1:])[:3]
    wl = WORKLOADS[name]
    failures, figures = 0, {}
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench_sweep_") as tmp:
        for seed in range(int(first), int(first) + int(count)):
            wl.prepare(seed, Path(tmp))
            try:
                ok, detail, info = wl.check(wl.run())
            except Exception as exc:  # a crash is a failed operation
                ok, detail, info = False, repr(exc), {}
            for key, value in info.items():
                figures.setdefault(key, []).append(value)
            if not ok:
                failures += 1
                print(f"seed {seed}: FAIL {detail}", flush=True)
    print(f"{name}: {failures} of {count} seeds failed")
    for key, values in figures.items():
        print(f"  {key}: min {min(values):.4g} median {statistics.median(values):.4g} "
              f"max {max(values):.4g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
