"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload det-16 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child
process (``worker.py``) that imports ``ebpe`` from the checkout's ``src``
with the BLAS/OpenMP thread counts pinned to one.  Inputs and outputs go
to ``.perfbench_out/<workload>/`` in the checkout.  The last line of
standard output is the result object; the lines before it record the
environment and the accuracy figures of the correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not (ROOT / "src" / "ebpe" / "__init__.py").is_file():
        print(f"error: no ebpe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / f"result-trace{args.trace}.json"

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode

    res = json.loads(result_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(res["metrics"]):
        print(f"error: worker metrics {sorted(res['metrics'])} differ from "
              f"BENCHMARK.json {sorted(wanted)}", file=sys.stderr)
        return 4

    print("# env: " + json.dumps(res["env"], sort_keys=True))
    print("# samples: " + json.dumps(res["samples"]))
    print("# checks: " + json.dumps({
        **res["info"],
        "fail_frac": res["failed"] / res["attempted"],
        "first_failure": res["first_failure"],
    }))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name][0], "unit": res["metrics"][name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
