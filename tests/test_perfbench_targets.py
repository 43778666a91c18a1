"""The benchmark tracer's targets still exist in the package.

`perfbench/spans.py` wraps functions and methods looked up as
`vars(owner)[attr]`; a refactor that moves a traced method into a base
class, or aliases two traced names to one object, breaks traced
benchmark runs without failing any other test.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from ebpe import PhysParams, Stepper, make_grid, stochastic, timestep
from ebpe.config import RunConfig
from ebpe.ebm import default_insolation
from ebpe.manufactured import ManufacturedSolution

from conftest import rough_state

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_distinct_object():
    targets = _load_spans()._targets()
    assert targets
    missing = [(name, owner, attr) for name, owner, attr, _ in targets
               if attr not in vars(owner)]
    assert not missing
    resolved = [vars(owner)[attr] for _, owner, attr, _ in targets]
    assert len({id(obj) for obj in resolved}) == len(resolved)


def test_every_step_calls_the_traced_tendencies_once(monkeypatch):
    """`timestep.nonlinear_tendencies` is the kernel's tendencies: each step
    of both schemes and of every driver calls it once, through the module
    attribute that the tracer replaces, so its traced time is the explicit
    work of the step, not a path that no step takes."""
    original, calls = timestep.nonlinear_tendencies, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # as the tracer does: every ebpe module attribute bound to the function
    for key, module in list(sys.modules.items()):
        if key == "ebpe" or key.startswith("ebpe."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)

    grid = make_grid(8, 8, 8)
    exact = ManufacturedSolution()
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)

    def two_steps(scheme, state, forcing=None):
        stepper = Stepper(grid, params, 1e-3, scheme=scheme, forcing=forcing)
        for _ in range(2):  # cnab2: the first step (E = F), then the AB2 step
            state = stepper.step(state)
        return state

    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-3, transport="vertical_average",
                    noise_sigma=0.1, ic_kind="random_smooth", ic_seed=5)
    runs = {
        "imex_euler": lambda: two_steps("imex_euler", rough_state(grid, seed=3)),
        "cnab2": lambda: two_steps("cnab2", exact.initial_state(grid),
                                   exact.spectral_forcing(grid)),
        "direct_em": lambda: stochastic.run_direct_em(cfg).final_state,
        "split": lambda: stochastic.run_split_stochastic(cfg).final_state,
        "deterministic": lambda: timestep.run_deterministic(
            dataclasses.replace(cfg, t_end=3e-3, noise_sigma=0.0)).final_state,
    }
    steps, counts = {}, {}
    for name, run in runs.items():
        before = len(calls)
        steps[name] = run().step
        counts[name] = len(calls) - before
    assert steps == {"imex_euler": 2, "cnab2": 2, "direct_em": 1, "split": 1,
                     "deterministic": 3}
    assert counts == steps
