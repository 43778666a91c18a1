"""The step's elementwise passes and vertical reductions, each one
contiguous numpy call, against their earlier forms (`tests/oracles.py`):
bit for bit (`same_bits`, which tells -0.0 from 0.0 where == does not)
on the arrays a step computes, at 8^3, 16^3 and 32^3."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ebpe import hydrostatic, linops, stochastic
from ebpe.config import RunConfig
from ebpe.ebm import VERTICAL_AVERAGE, PhysParams, default_insolation
from ebpe.grid import make_grid
from ebpe.monitors import measure
from ebpe.timestep import BLOWUP_SUP, BlowUpError, RunResult, Stepper, _check_finite, initial_state

from conftest import rough_state
from oracles import (
    apply_diagonal_broadcast,
    baroclinic_grad_broadcast,
    check_finite_max_min,
    implicit_factors_half,
    numpy_measure,
    vertical_average_stacked,
)

SIZES = [8, 16, 32]


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (a ledger record as the
    tuple of its values)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=SIZES, ids=[f"{n}^3" for n in SIZES])
def setting(request):
    """A stepper of the n^3 grid (vertical-average transport), a rough
    state and its terms in the stepper's workspace."""
    n = request.param
    grid = make_grid(n, n, n)
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True,
                        transport_variant=VERTICAL_AVERAGE)
    stepper = Stepper(grid, params, 1e-3)
    state = rough_state(grid, seed=n)
    return grid, stepper, state, stepper.state_terms(state)


def test_implicit_factors_in_pair_layout(setting):
    grid, stepper, state, terms = setting
    rhs = terms.U.copy()
    half = np.stack([implicit_factors_half(grid, s.lam, stepper.dt)
                     for s in (stepper.velocity, stepper.velocity, stepper.coupled)])
    assert same_bits(stepper._d, np.repeat(half[:, :, None], 2, axis=2))
    # the solvers' tables are the stepper's rows, as implicit_factors builds them
    for solver, row in ((stepper.velocity, 0), (stepper.coupled, 2)):
        assert np.shares_memory(solver.d, stepper._d)
        assert same_bits(linops.implicit_factors(grid, solver.lam, stepper.dt), stepper._d[row])
    want = apply_diagonal_broadcast(stepper._basis, half, rhs)
    assert same_bits(linops.apply_diagonal(stepper._basis, stepper._d, rhs), want)
    assert same_bits(stepper.coupled.solve_hat(rhs[2]),
                          apply_diagonal_broadcast(stepper.coupled.basis, half[2], rhs[2]))


def test_baroclinic_term_over_the_levels(setting):
    grid, stepper, state, terms = setting
    want = baroclinic_grad_broadcast(grid, terms.U[2])
    assert same_bits(hydrostatic.baroclinic_grad(grid, terms.U[2]), want)
    work = stepper.workspace
    assert same_bits(hydrostatic.baroclinic_grad(grid, terms.U[2], work=work), want)


def test_vertical_averages_in_one_product(setting):
    grid, stepper, state, terms = setting
    v_hat = terms.U[:2]
    for f in (v_hat, state.v):  # the projection's average, the transport's
        want = vertical_average_stacked(grid, f)
        assert same_bits(hydrostatic.vertical_average(grid, f), want)
        out = np.empty(want.shape)
        assert hydrostatic.vertical_average(grid, f, out=out) is out
        assert same_bits(out, want)
    projected, phi = hydrostatic.project_barotropic(grid, v_hat)
    average = vertical_average_stacked(grid, v_hat)
    d = grid.ixi_pair * average[..., ::-1, :]
    want_phi = (d[0] + d[1]) * grid.inv_lap_half[:, None]
    assert same_bits(phi, want_phi)
    assert same_bits(projected, v_hat - (grid.ixi_pair * want_phi[:, ::-1])[..., None])


def test_ledger_record_on_python_floats(setting):
    grid, stepper, state, terms = setting
    new = stepper.step(state, terms=terms)
    for s in (state, new):
        terms = stepper.state_terms(s)
        want = dataclasses.astuple(numpy_measure(grid, s, terms))
        assert same_bits(dataclasses.astuple(measure(grid, s, terms, work=stepper.workspace)), want)
        assert same_bits(dataclasses.astuple(measure(grid, s)), want)


class TestBlowUpFallback:
    """The dot product passes a state only when it proves the bound; every
    other state gets the per-field test and the messages of the former
    max/min check."""

    @staticmethod
    def corrupt(*entries):
        grid = make_grid(8, 8, 8)
        previous = initial_state(grid, "random_smooth", amplitude=0.5, seed=4)
        new = dataclasses.replace(previous, fields=previous.fields.copy(), t=0.25, step=7)
        for index, value in entries:
            new.fields[index] = value
        return previous, new

    def raised(self, check, *entries):
        previous, new = self.corrupt(*entries)
        with pytest.raises(BlowUpError) as err:
            check(new, previous)
        assert err.value.last_state is previous
        return str(err.value)

    def test_one_large_entry_names_its_field(self):
        entry = ((2, 1, 2, 3), 1.5e8)
        message = self.raised(_check_finite, entry)
        assert message == "sup|T| = 1.500e+08 exceeds the blow-up threshold at t=0.25 (step 7)"
        assert message == self.raised(check_finite_max_min, entry)

    def test_large_sum_below_the_bound_passes(self):
        entries = [((0, 1, 2, 3), 9e7), ((1, 4, 5, 6), -9e7)]
        previous, new = self.corrupt(*entries)
        fields = new.fields.reshape(-1)
        assert np.dot(fields, fields) > BLOWUP_SUP ** 2
        _check_finite(new, previous)

    def test_nan_raises_the_non_finite_message(self):
        entry = ((0, 1, 2, 3), np.nan)
        message = self.raised(_check_finite, entry)
        assert message == "non-finite values in v at t=0.25 (step 7)"
        assert message == self.raised(check_finite_max_min, entry)

    def test_overflowing_dot_product_raises_the_sup_message(self):
        entry = ((2, 1, 2, -1), 1e200)
        fields = self.corrupt(entry)[1].fields.reshape(-1)
        with np.errstate(over="ignore"):  # numpy warns of the overflow
            assert np.dot(fields, fields) == np.inf
            message = self.raised(_check_finite, entry)
        assert message == "sup|T| = 1.000e+200 exceeds the blow-up threshold at t=0.25 (step 7)"
        assert message == self.raised(check_finite_max_min, entry)


def test_split_kick_makes_no_stack_sized_temporary(monkeypatch):
    # the kick writes d zeta_n, the next zeta and the kick into buffers
    # of the run, so its peak allocation inside one call is below one
    # zeta stack (8 x 2 x 5 x 9 doubles at 8^3)
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.005, transport=VERTICAL_AVERAGE,
                    noise_sigma=0.1, noise_seed=5)
    peaks = []

    def one_kick(cfg, stepper, state, kick):
        kick(state)  # the first call of any lazy set-up, untraced
        for step in (1, 2):
            tracemalloc.start()
            kick(dataclasses.replace(state, step=step))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return RunResult(final_state=state, ledger=[], csv_records=[])

    monkeypatch.setattr(stochastic, "integrate", one_kick)
    stochastic.run_split_stochastic(cfg)
    stack = 8 * 2 * 5 * 9 * 8
    assert len(peaks) == 2 and max(peaks) < stack, peaks
