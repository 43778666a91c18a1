"""The step's elementwise passes and vertical reductions, each one
contiguous numpy call, against their earlier forms (`tests/oracles.py`),
and each entry point's workspace call, which reads only the views its
`Workspace` binds, against its allocating call: bit for bit (`same_bits`,
which tells -0.0 from 0.0 where == does not) on the arrays a step
computes, at 8^3, 16^3 and 32^3."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ebpe import ebm, grid as grid_mod, hydrostatic, linops, monitors, stochastic, timestep
from ebpe.config import RunConfig, parse_config
from ebpe.ebm import SURFACE_TRACE, VERTICAL_AVERAGE, PhysParams, default_insolation
from ebpe.grid import make_grid
from ebpe.manufactured import ManufacturedSolution
from ebpe.monitors import measure
from ebpe.timestep import (BLOWUP_SUP, BlowUpError, RunResult, Stepper, _check_finite,
                           initial_state, start_run)

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
    assert same_bits(hydrostatic.baroclinic_grad(grid, work.T_rows, work=work), want)


def test_vertical_averages_in_one_product(setting):
    grid, stepper, state, terms = setting
    v_hat = terms.U[:2]
    for f in (v_hat, state.v):  # the projection's average, the transport's
        want = vertical_average_stacked(grid, f)
        assert same_bits(hydrostatic.vertical_average(grid, f), want)
        out = np.empty(want.size)
        assert hydrostatic.vertical_average(grid, f.reshape(-1, grid.nlev), out=out) is out
        assert same_bits(out, want.reshape(-1))
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


def test_workspace_calls_are_their_allocating_calls(setting):
    # each entry point of the step path, given the workspace and the views
    # it binds, against the same call without them
    grid, stepper, state, terms = setting
    work, k = stepper.workspace, grid.nlev
    alloc = monitors.state_terms(grid, state)
    for name in ("U", "dx", "dy", "w", "dz", "div"):
        assert same_bits(getattr(terms, name), getattr(alloc, name)), name
    assert same_bits(grid_mod.rfft_h(grid, state.fields, work=work.forward), alloc.U)
    assert same_bits(monitors.solenoidal_residual(grid, terms, work),
                     monitors.solenoidal_residual(grid, alloc))
    for transport in (SURFACE_TRACE, VERTICAL_AVERAGE):
        for radiation_on in (False, True):
            params = dataclasses.replace(stepper.params, transport_variant=transport,
                                         radiation_on=radiation_on)
            want = timestep.nonlinear_tendencies(grid, state, params)
            got = timestep.nonlinear_tendencies(grid, state, params, terms, work)
            assert got is work.tendencies[0].out and same_bits(got, want)
    assert same_bits(hydrostatic.baroclinic_grad(grid, work.T_rows, work=work),
                     hydrostatic.baroclinic_grad(grid, alloc.U[2]))
    rho = state.rho
    ebm.radiation(rho, stepper.params, out=work.balance, work=work.emission)
    assert same_bits(work.balance, ebm.radiation(rho.copy(), stepper.params))
    want = grid_mod.rfft_h(grid, work.balance.copy())  # the spectrum overwrites the balance
    assert same_bits(grid_mod.rfft_h(grid, work.balance_lines, work=work.radiation), want)
    work.adv[...] = terms.dx
    assert same_bits(grid_mod.neg_dealiased_rfft_h(grid, work.adv, work=work.tendencies[0].passes),
                     grid_mod.neg_dealiased_rfft_h(grid, terms.dx))
    # the stage, on the state's spectra
    U = terms.U.copy()
    want = linops.apply_diagonal(stepper._basis, stepper._d, U)
    work.rhs[...] = U
    linops.apply_diagonal(stepper._basis, work.d_rows, work.rhs_rows, out=work.out_rows,
                          work=work.coords_rows)
    assert same_bits(work.out, want)
    projected, phi = hydrostatic.project_barotropic(grid, want[:2])
    _, got_phi = hydrostatic.project_barotropic(grid, work.v_rows, out=work.v_rows, work=work)
    assert same_bits(work.out[:2], projected) and same_bits(got_phi, phi)
    fields = np.empty(state.fields.shape)
    grid_mod.irfft_h(grid, work.out, out=fields, work=work.inverse)
    assert same_bits(fields, grid_mod.irfft_h(grid, work.out.copy()))
    # the helpers, on rows
    rows = U.reshape(-1, k)
    for helper, shape in ((hydrostatic.vertical_average, (len(rows),)),
                          (hydrostatic.cumulative_integral, rows.shape)):
        out = np.empty(shape)
        assert helper(grid, rows, out=out) is out
        assert same_bits(out, helper(grid, U).reshape(out.shape)), helper.__name__
    coords = linops.to_eigen(stepper._basis, U)
    out = np.empty(U.shape)
    linops.to_eigen(stepper._basis, U.reshape(3, -1, k), out=out.reshape(3, -1, k))
    assert same_bits(out, coords)
    linops.from_eigen(stepper._basis, coords.reshape(3, -1, k), out=out.reshape(3, -1, k))
    assert same_bits(out, linops.from_eigen(stepper._basis, coords))


def allocating_step(stepper, state, kick_hat=None, F_old=None):
    """`Stepper.step` of `state` from the allocating form of every entry
    point it calls; F_old, the tendencies that a cnab2 stepper keeps with
    the state.  Returns the new fields and the tendencies."""
    grid, dt, first = stepper.grid, stepper.dt, 3 - len(stepper._d)
    cnab2 = stepper.scheme == "cnab2"
    F = timestep.nonlinear_tendencies(grid, state, stepper.params)
    if stepper.forcing is not None:
        F += stepper.forcing(grid, state.t)
    U = monitors.state_terms(grid, state).U[first:]
    if F_old is None:
        rhs = np.multiply(F[first:], dt)
    else:
        rhs = np.multiply(F[first:], 1.5)
        rhs -= np.multiply(F_old[first:], 0.5)
        rhs *= dt
    rhs += np.multiply(U, 2.0) if cnab2 else U
    x_hat = linops.apply_diagonal(stepper._basis, stepper._d, rhs)
    if cnab2:
        x_hat -= U
    if kick_hat is not None:
        x_hat[-1] += kick_hat
    if stepper.velocity is None:
        return np.concatenate((state.v, grid_mod.irfft_h(grid, x_hat))), F
    x_hat[:2] = hydrostatic.project_barotropic(grid, x_hat[:2])[0]
    return grid_mod.irfft_h(grid, x_hat), F


STEP_CASES = {
    "imex_euler": dict(),
    "imex_euler_vertical_average": dict(transport=VERTICAL_AVERAGE),
    "frozen_velocity": dict(freeze_velocity=True),
    "cnab2_forced": dict(scheme="cnab2", forced=True),
    "cnab2_frozen_vertical_average": dict(scheme="cnab2", transport=VERTICAL_AVERAGE,
                                          freeze_velocity=True),
    "em_kick": dict(transport=VERTICAL_AVERAGE, kick=True),
}


@pytest.mark.parametrize("n", SIZES, ids=[f"{n}^3" for n in SIZES])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_steps_are_their_allocating_steps(case, n):
    # three steps of each scheme and transport, frozen velocity and a kick
    # in the workspace, against the allocating calls; cnab2's second and
    # third steps combine the tendencies kept with their states
    options = dict(STEP_CASES[case])
    grid = make_grid(n, n, n)
    transport = options.pop("transport", SURFACE_TRACE)
    exact = ManufacturedSolution()
    forced, kick = options.pop("forced", False), options.pop("kick", False)
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), transport_variant=transport)
    stepper = Stepper(grid, exact.params(grid) if forced else params, 1e-3,
                      forcing=exact.spectral_forcing(grid) if forced else None, **options)
    state = exact.initial_state(grid) if forced else rough_state(grid, seed=n)
    kick_hat, F_old = None, None
    if kick:
        kick_hat = np.zeros((n, 2, n // 2 + 1, grid.nlev))
        kick_hat[..., -1] = 1e-2 * np.random.default_rng(n).standard_normal((n, 2, n // 2 + 1))
    for _ in range(3):
        want, F = allocating_step(stepper, state, kick_hat, F_old)
        state = stepper.step(state, kick_hat=kick_hat, terms=stepper.state_terms(state))
        assert same_bits(state.fields, want)
        F_old = F if stepper.scheme == "cnab2" else None


@pytest.mark.parametrize("n", SIZES, ids=[f"{n}^3" for n in SIZES])
def test_kicks_are_their_allocating_forms(n, monkeypatch):
    # the drivers' kicks, which write bound buffers, against q dW and the
    # split kick V (zeta_{n+1} - d zeta_n) from allocating calls
    cfg = RunConfig(nx=n, ny=n, nz=n, dt=1e-3, t_end=3e-3, transport=VERTICAL_AVERAGE,
                    noise_sigma=0.1, noise_seed=5)
    seen = {}

    def recording(cfg, stepper, state, kick):
        seen["coupled"] = stepper.coupled
        seen["kicks"] = [kick(dataclasses.replace(state, step=k)).copy() for k in range(3)]
        return RunResult(final_state=state, ledger=[], csv_records=[])

    monkeypatch.setattr(stochastic, "integrate", recording)
    grid = make_grid(n, n, n)
    spec = stochastic.NoiseSpec(sigma=0.1, decay=cfg.noise_decay, seed=5)
    increments = stochastic.wiener_increments(grid, spec, cfg.dt, 3).increments
    q = spec.q_table(grid)[:, None]
    stochastic.run_direct_em(cfg)
    for k, kick in enumerate(seen["kicks"]):
        assert same_bits(kick[..., -1], q * increments[k]) and not kick[..., :-1].any()
    stochastic.run_split_stochastic(cfg)
    coupled = seen["coupled"]
    propagator = stochastic.ConvolutionPropagator(coupled, cfg.dt)
    zeta = np.zeros(seen["kicks"][0].shape)
    for k, kick in enumerate(seen["kicks"]):
        zeta_n, zeta = zeta, propagator.step_hat(zeta, increments[k], q)
        assert same_bits(kick, linops.from_eigen(propagator.basis, zeta - coupled.d * zeta_n))


ACCEPT_DET = Path(__file__).resolve().parent.parent / "configs" / "accept_det.ini"


def _warm_stepper(case):
    """A stepper and state of each benchmarked step shape, and its kick."""
    if case == "imex_euler_kick_8":
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.01, transport=VERTICAL_AVERAGE,
                        ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=1)
        stepper, state = start_run(cfg)
        kick_hat = np.zeros((8, 2, 5, 9))
        kick_hat[..., -1] = 1e-3
        return stepper, state, kick_hat
    if case == "accept_det_16":
        return (*start_run(parse_config(ACCEPT_DET.read_text())), None)
    grid, exact = make_grid(16, 16, 16), ManufacturedSolution()
    stepper = Stepper(grid, exact.params(grid), 1e-3, scheme="cnab2",
                      forcing=exact.spectral_forcing(grid))
    return stepper, exact.initial_state(grid), None


@pytest.mark.parametrize("case", ["imex_euler_kick_8", "accept_det_16", "cnab2_mms_16"])
def test_a_step_allocates_little_but_its_new_fields(case):
    # a warmed step peaks below 1.25 times the bytes of the new state's
    # fields, its one volume (the forcing's own spectrum included): no
    # volume-sized temporary, such as a broadcast that numpy buffers
    stepper, state, kick_hat = _warm_stepper(case)
    for _ in range(3):
        state = stepper.step(state, kick_hat=kick_hat, terms=stepper.state_terms(state))
    terms = stepper.state_terms(state)
    tracemalloc.start()
    new = stepper.step(state, kick_hat=kick_hat, terms=terms)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.25 * new.fields.nbytes, (peak, new.fields.nbytes)
