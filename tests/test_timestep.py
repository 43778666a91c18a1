"""Time integration: equilibria, oracle comparisons, invariants, aborts."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from ebpe import (
    PhysParams,
    Stepper,
    make_grid,
    project_barotropic,
    stochastic,
)
from ebpe import grid as grid_mod
from ebpe import hydrostatic, linops, timestep
from ebpe.config import ConfigError, RunConfig
from ebpe.ebm import coalbedo, default_insolation
from ebpe.grid import irfft_h, rfft_h
from ebpe.linops import CoupledImplicitSolver, VelocityImplicitSolver
from ebpe.manufactured import ManufacturedSolution
from ebpe.monitors import measure, state_terms
from ebpe.snapshots import read_snapshot, write_snapshot
from ebpe.timestep import (
    BLOWUP_SUP,
    BlowUpError,
    State,
    _check_finite,
    initial_state,
    run_deterministic,
    start_run,
)

from conftest import record_w_top, rough_state
from oracles import (as_complex, as_pairs, crank_nicolson_stage, l2sq_surface, l2sq_volume,
                     physical_tendencies, random_smooth_per_plane, solve_coupled_implicit,
                     solve_velocity_implicit)


def max_rel_err(ours, oracle):
    return float(np.max(np.abs(ours - oracle)) / np.max(np.abs(oracle)))


def quiet_params(grid, **kwargs):
    defaults = dict(Q=np.ones((grid.nx, grid.ny)), radiation_on=False)
    defaults.update(kwargs)
    return PhysParams(**defaults)


def kernel_tendencies(grid, state, params):
    """(F_v, F_T, F_rho) of timestep.nonlinear_tendencies on the grid;
    F_T's top level is F_rho."""
    F = irfft_h(grid, timestep.nonlinear_tendencies(grid, state, params))
    return F[:2], F[2], F[2, ..., -1]


class TestTendencies:
    def test_zero_state_no_radiation(self, grid8):
        params = quiet_params(grid8)
        state = initial_state(grid8, "zero")
        F_v, F_T, F_rho = kernel_tendencies(grid8, state, params)
        assert np.max(np.abs(F_v)) == 0.0
        assert np.max(np.abs(F_T)) == 0.0
        assert np.max(np.abs(F_rho)) == 0.0

    def test_uniform_advection_of_single_mode(self, grid8):
        # v = (c, 0) uniform, T = sin(2 pi x) * profile, w = 0:
        # F_T = -c * 2 pi cos(2 pi x) * profile
        params = quiet_params(grid8)
        c = 0.7
        profile = 1.0 + 0.5 * grid8.z
        state = initial_state(grid8, "zero")
        state.v[0][:] = c
        state.T[:] = np.sin(2 * np.pi * grid8.x)[:, :, None] * profile
        _, F_T, _ = kernel_tendencies(grid8, state, params)
        expected = -c * 2 * np.pi * np.cos(2 * np.pi * grid8.x)[:, :, None] * profile
        assert np.max(np.abs(F_T - expected)) < 1e-11

    def test_horizontally_constant_temperature_no_baroclinic(self, grid8):
        params = quiet_params(grid8)
        state = initial_state(grid8, "zero")
        state.T[:] = (1.0 + grid8.z**2)[None, None, :]
        F_v, _, _ = kernel_tendencies(grid8, state, params)
        assert np.max(np.abs(F_v)) < 1e-13

    def test_transport_variant_switches_advecting_velocity(self, grid8):
        state = initial_state(grid8, "zero")
        state.v[0] = np.cos(np.pi * grid8.z)[None, None, :]  # vanishing average
        state.rho[:] = np.sin(2 * np.pi * grid8.x)
        trace = quiet_params(grid8, transport_variant="surface_trace")
        avg = quiet_params(grid8, transport_variant="vertical_average")
        _, _, F_trace = kernel_tendencies(grid8, state, trace)
        _, _, F_avg = kernel_tendencies(grid8, state, avg)
        # surface trace of cos(pi z) is -1, the vertical average is 0
        assert np.max(np.abs(F_avg)) < 1e-12
        expected = 2 * np.pi * np.cos(2 * np.pi * grid8.x)
        assert np.max(np.abs(F_trace - expected)) < 1e-11


class TestSpectralKernelOracles:
    """The half-spectrum kernel against its physical-space references."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("transport", ["surface_trace", "vertical_average"])
    @pytest.mark.parametrize("forced", [False, True], ids=["radiation", "mms_forcing"])
    def test_tendencies_match_physical_oracle(self, n, transport, forced):
        grid = make_grid(n, n, n)
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1),
                            transport_variant=transport, radiation_on=True)
        exact = ManufacturedSolution()
        state = rough_state(grid, seed=n)
        stepper = Stepper(grid, params, 1e-3,
                          forcing=exact.spectral_forcing(grid) if forced else None)
        F = irfft_h(grid, stepper.tendencies(state))
        F_v, F_T = F[:2], F[2]
        oracle = physical_tendencies(grid, state, params)
        if forced:
            oracle = [F + f for F, f in zip(oracle, exact.forcing(grid, state.t))]
        # T's top level is rho: it carries the surface tendency
        ours = (F_v, F_T[..., :-1], F_T[..., -1])
        for F, F_ref in zip(ours, (oracle[0], oracle[1][..., :-1], oracle[2])):
            assert max_rel_err(F, F_ref) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_step_matches_composed_physical_step(self, n):
        grid = make_grid(n, n, n)
        dt = 1e-3
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
        state = rough_state(grid, seed=n + 1)
        new = Stepper(grid, params, dt).step(state)

        F_v, F_T, F_rho = physical_tendencies(grid, state, params)
        v_star = solve_velocity_implicit(grid, state.v + dt * F_v, dt)
        v_hat = project_barotropic(grid, np.stack([rfft_h(grid, c) for c in v_star]))[0]
        v = np.stack([irfft_h(grid, c) for c in v_hat])
        T, rho = solve_coupled_implicit(grid, state.T + dt * F_T, state.rho + dt * F_rho, dt)
        for ours, oracle in ((new.v, v), (new.T, T), (new.rho, rho)):
            assert max_rel_err(ours, oracle) <= 1e-12


def test_hot_path_makes_no_numpy_fft_call(monkeypatch):
    """The step kernel, state_terms, measure and the manufactured forcing
    transform with the grid's DFT matrices: with every transform of
    numpy.fft patched to raise, both schemes (cnab2 forced) and one step
    of each stochastic driver still run.  Set-up (initial states, the
    increment bundle, the forcing tables) is done before the patch."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    grid = make_grid(8, 8, 8)
    exact = ManufacturedSolution()
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
    states = {"imex_euler": rough_state(grid, seed=3),
              "cnab2": exact.initial_state(grid)}
    forcings = {"imex_euler": None, "cnab2": exact.spectral_forcing(grid)}
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-3, transport="vertical_average",
                    noise_sigma=0.1, noise_seed=2, ic_kind="random_smooth", ic_seed=5)
    bundle = stochastic.wiener_increments(grid, stochastic.NoiseSpec(sigma=0.1, seed=2),
                                          cfg.dt, 1)
    initial = start_run(cfg)[1]
    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, forbidden)
    with pytest.raises(AssertionError, match="numpy.fft called"):
        np.fft.rfft2(np.zeros((8, 8)))
    for scheme, state in states.items():
        measure(grid, state, state_terms(grid, state))
        stepper = Stepper(grid, params, 1e-3, scheme=scheme, forcing=forcings[scheme])
        for _ in range(2):  # cnab2: the first step (E = F), then the AB2 step
            state = stepper.step(state)
    for driver in (stochastic.run_direct_em, stochastic.run_split_stochastic):
        result = driver(cfg, bundle=bundle, initial=initial)
        assert result.final_state.step == 1


def test_physical_forcing_rejected_with_contract_message():
    exact = ManufacturedSolution()
    grid = make_grid(8, 8, 8)
    stepper = Stepper(grid, exact.params(grid), 1e-3, forcing=exact.forcing)
    with pytest.raises(ValueError, match="spectral_forcing"):
        stepper.step(exact.initial_state(grid))


class TestImexStep:
    def test_zero_equilibrium(self, grid8):
        params = quiet_params(grid8)
        stepper = Stepper(grid8, params, dt=1e-2)
        state = stepper.step(initial_state(grid8, "zero"))
        assert np.max(np.abs(state.T)) == 0.0
        assert np.max(np.abs(state.v)) == 0.0
        assert state.step == 1

    def test_uniform_state_matches_scalar_ode(self, grid8):
        # frozen velocity, uniform fields, uniform insolation: one IMEX step
        # equals one explicit-Euler step of d(rho)/dt = Q0 beta(rho) - rho^4
        # up to the O(dt^2) intra-step surface-interior exchange
        params = PhysParams(Q=np.ones((8, 8)), radiation_on=True)
        dt = 1e-7
        stepper = Stepper(grid8, params, dt=dt, freeze_velocity=True)
        c = 0.5
        state = initial_state(grid8, "uniform", value=c)
        out = stepper.step(state)
        reaction = 1.0 * coalbedo(c, params) - c**4
        scalar = c + dt * reaction
        assert np.max(np.abs(out.rho - scalar)) < 1e-12
        # the interior only feels the surface heating through diffusion
        assert np.max(np.abs(out.T - c)) <= dt * abs(reaction) * (1 + 1e-6)

    def test_trace_and_divergence_invariants(self, monkeypatch):
        grid = make_grid(8, 8, 8)
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.02,
                        ic_kind="random_smooth", ic_amplitude=0.6, ic_seed=1)
        w_top = record_w_top(monkeypatch)
        res = run_deterministic(cfg)
        # the trace condition is structural: rho is T's top level
        assert np.shares_memory(res.final_state.rho, res.final_state.T)
        assert len(w_top) == len(res.ledger)
        for rec, w in zip(res.ledger, w_top):
            assert rec.div_res <= 1e-10
            assert w <= 1e-10

    def test_local_error_second_order(self):
        # one step against the manufactured solution on a fine vertical grid
        exact = ManufacturedSolution()
        grid = make_grid(8, 8, 48)
        params = exact.params(grid)
        errs = []
        dts = [0.004, 0.002, 0.001, 0.0005]
        for dt in dts:
            stepper = Stepper(grid, params, dt, forcing=exact.spectral_forcing(grid))
            state = stepper.step(exact.initial_state(grid))
            T_ex = exact.temperature(grid, dt)
            v_ex = exact.velocity(grid, dt)
            rho_ex = exact.surface_temperature(grid, dt)
            err2 = (
                l2sq_volume(grid, state.T - T_ex)
                + l2sq_volume(grid, state.v[0] - v_ex[0])
                + l2sq_volume(grid, state.v[1] - v_ex[1])
                + l2sq_surface(grid, state.rho - rho_ex)
            )
            errs.append(np.sqrt(err2))
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order >= 1.85

    def test_blowup_detected_with_diagnostic(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)), radiation_on=True)
        stepper = Stepper(grid8, params, dt=10.0, freeze_velocity=True)
        state = initial_state(grid8, "uniform", value=3.0)
        with pytest.raises(BlowUpError) as err:
            for _ in range(5):
                state = stepper.step(state)
        assert np.all(np.isfinite(err.value.last_state.rho))

    def test_pure_diffusion_energy_decay(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.05,
                        ic_kind="random_smooth", ic_amplitude=1.0, ic_seed=3,
                        radiation_on=False, freeze_velocity=True)
        res = run_deterministic(cfg)
        E = np.array([r.energy for r in res.ledger])
        assert np.all(E[1:] <= E[:-1] * (1 + 1e-14))


def two_solve_step(stepper, state, kick_hat=None):
    """The implicit stage as separate calls: the coupled and the velocity
    solver's `solve_hat`, the projection, the kick and a concatenation of
    the new spectra (the first step of a Stepper: for cnab2, E = F)."""
    grid, dt = stepper.grid, stepper.dt
    U = state_terms(grid, state).U
    F = stepper.tendencies(state)
    cnab2 = stepper.scheme == "cnab2"
    if cnab2:
        rhs = 2.0 * U + dt * F
    else:
        rhs = dt * F
        rhs += U
    x_hat = stepper.coupled.solve_hat(rhs[2])
    if cnab2:
        x_hat -= U[2]
    if kick_hat is not None:
        x_hat += kick_hat
    if stepper.velocity is None:
        return np.concatenate((state.v, irfft_h(grid, x_hat)[None]))
    v_star = stepper.velocity.solve_hat(rhs[:2])
    if cnab2:
        v_star -= U[:2]
    v_new_hat = project_barotropic(grid, v_star)[0]
    return irfft_h(grid, np.concatenate((v_new_hat, x_hat[None])))


class TestImplicitStage:
    """`Stepper.step` solves all its fields in one stacked product through
    the eigen coordinates, into a buffer of the Stepper."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("scheme, kick", [("imex_euler", False), ("imex_euler", True),
                                              ("cnab2", False)])
    def test_matches_the_two_solves_bitwise(self, n, freeze, scheme, kick):
        grid = make_grid(n, n, n)
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
        state = rough_state(grid, seed=n + freeze)
        kick_hat = None
        if kick:
            rng = np.random.default_rng(n)
            shape = (grid.nx, grid.ny // 2 + 1, grid.nlev)
            kick_hat = as_pairs(1e-2 * (rng.standard_normal(shape)
                                        + 1j * rng.standard_normal(shape)))
        stepper = Stepper(grid, params, 2e-3, scheme=scheme, freeze_velocity=freeze)
        want = two_solve_step(stepper, state, kick_hat)
        got = stepper.step(state, kick_hat=kick_hat).fields
        assert np.array_equal(got, want)
        if freeze:
            assert np.array_equal(got[:2], state.v)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_states_own_their_fields(self, grid8, freeze):
        params = PhysParams(Q=default_insolation(grid8, 0.9, 0.1), radiation_on=True)
        stepper = Stepper(grid8, params, 1e-3, freeze_velocity=freeze)
        first = stepper.step(rough_state(grid8, seed=2))
        second = stepper.step(first)
        kept = first.fields.copy(), second.fields.copy()
        third = stepper.step(second)
        buffers = workspace_arrays(stepper)
        assert any(np.shares_memory(a, stepper.workspace.out) for a in buffers)
        for state in (first, second, third):
            assert not any(np.shares_memory(state.fields, a) for a in buffers)
        assert not np.shares_memory(first.fields, second.fields)
        assert np.array_equal(first.fields, kept[0])
        assert np.array_equal(second.fields, kept[1])


def workspace_arrays(stepper):
    """Every array a Stepper's workspace holds: its scratch, its state terms
    and tendencies, the stage's buffers and the views of them all."""
    found = []

    def walk(x):
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (tuple, list)):
            for item in x:
                walk(item)
        elif hasattr(x, "__dict__"):
            for item in vars(x).values():
                walk(item)

    walk(stepper.workspace)
    return found


WORKSPACE_DRIVERS = {
    "imex_euler": run_deterministic,
    "cnab2": run_deterministic,
    "split": stochastic.run_split_stochastic,
    "direct_em": stochastic.run_direct_em,
}


@pytest.mark.parametrize("driver", sorted(WORKSPACE_DRIVERS))
def test_run_results_share_no_memory_with_the_workspace(driver, monkeypatch):
    # the final state, z_rho_final and the ledger are the run's own; the
    # cnab2 history is a tendencies buffer the next step does not write
    steppers, init = [], Stepper.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        steppers.append(self)

    monkeypatch.setattr(Stepper, "__init__", recording_init)
    noise = driver in ("split", "direct_em")
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=4e-3, transport="vertical_average",
                    scheme="cnab2" if driver == "cnab2" else "imex_euler",
                    noise_sigma=0.1 if noise else 0.0,
                    ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5)
    result = WORKSPACE_DRIVERS[driver](cfg)
    (stepper,) = steppers
    buffers = workspace_arrays(stepper)
    owned = [result.final_state.fields] + ([result.z_rho_final] if driver == "split" else [])
    assert result.final_state.step == 4 and all(a is not None for a in owned)
    for array in owned:
        assert not any(np.shares_memory(array, a) for a in buffers)
    if driver == "cnab2":
        history = stepper._history[1]
        assert any(history is p.out for p in stepper.workspace.tendencies)
        assert not np.shares_memory(history, stepper.workspace.tendencies[0].out)


@pytest.mark.parametrize("case", ["imex_euler", "cnab2_forced", "frozen_velocity"])
def test_steppers_of_one_grid_step_alternately_to_their_solo_bits(case):
    # each Stepper owns its workspace: two of one grid, each handed the
    # terms of its own workspace, interleave every call and still give
    # the bits each gives alone
    grid = make_grid(8, 8, 8)
    exact = ManufacturedSolution()
    forced = case == "cnab2_forced"
    params = exact.params(grid) if forced else PhysParams(
        Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
    kwargs = dict(scheme="cnab2" if forced else "imex_euler",
                  forcing=exact.spectral_forcing(grid) if forced else None,
                  freeze_velocity=case == "frozen_velocity")
    starts = [exact.initial_state(grid) if forced else rough_state(grid, seed=3),
              State(rough_state(grid, seed=4).fields * (0.3 if forced else 1.0))]

    def solo(state):
        stepper = Stepper(grid, params, 1e-3, **kwargs)
        for _ in range(4):
            state = stepper.step(state, terms=stepper.state_terms(state))
        return state.fields

    steppers = [Stepper(grid, params, 1e-3, **kwargs) for _ in starts]
    states = list(starts)
    for _ in range(4):
        terms = [s.state_terms(state) for s, state in zip(steppers, states)]
        states = [s.step(state, terms=t) for s, state, t in zip(steppers, states, terms)]
    for state, start in zip(states, starts):
        assert np.array_equal(state.fields, solo(start))


@pytest.mark.parametrize("scheme", ["imex_euler", "cnab2"])
def test_the_workspace_is_built_by_the_first_use_and_only_then(scheme):
    # a Stepper that never steps holds no buffer but its solver tables (the
    # mms-cnab2 set-up times bare Steppers, the others runs of no step);
    # its first use builds the workspace, and no later call another buffer
    grid = make_grid(8, 8, 8)
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
    stepper = Stepper(grid, params, 1e-3, scheme=scheme)
    assert "workspace" not in vars(stepper)
    assert {name for name, a in vars(stepper).items() if isinstance(a, np.ndarray)} == {
        "_basis", "_d"}
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.0, scheme=scheme)
    unstepped, initial = start_run(cfg)
    assert len(timestep.integrate(cfg, unstepped, initial).ledger) == 1
    assert "workspace" not in vars(unstepped)
    state, built = rough_state(grid, seed=3), None
    for _ in range(4):
        terms = stepper.state_terms(state)
        measure(grid, state, terms, work=stepper.workspace)
        state = stepper.step(state, terms=terms)
        arrays = workspace_arrays(stepper)  # held, so no id is reused
        built = built or arrays
        assert {id(a) for a in arrays} == {id(a) for a in built}


class TestOutForms:
    """Each kernel entry point given its buffers (`work`: a stepper's
    `Workspace`, or a transform's `grid.passes`; and out= where the
    destination changes from call to call) is its allocating form: the
    same bits, for operands of any memory layout, call after call."""

    @staticmethod
    def layouts(a):
        strided = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        strided[..., ::2] = a
        return a, strided[..., ::2], np.asfortranarray(a)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (10, 14, 5)])
    def test_transforms(self, shape, rng):
        grid = make_grid(*shape)
        scratch = np.empty(3 * grid.nx * 2 * (grid.ny // 2 + 1) * grid.nlev)
        fields = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
        for operand in (*self.layouts(fields), *self.layouts(fields[2, ..., -1].copy())):
            for kind, transform in (("forward", rfft_h),
                                    ("dealiased", grid_mod.neg_dealiased_rfft_h)):
                want = transform(grid, operand)
                work = grid_mod.passes(grid, operand.shape, kind, scratch,
                                       out=np.full(want.shape, np.nan))
                for _ in range(2):
                    assert transform(grid, operand, work=work) is work.out
                    assert np.array_equal(work.out, want)
        spectra = rfft_h(grid, fields)
        for operand in (*self.layouts(spectra), *self.layouts(spectra[1, ..., 0].copy())):
            want = irfft_h(grid, operand)
            assert np.array_equal(irfft_h(grid, operand, out=np.full(want.shape, 7.0)), want)
            if not operand.flags.c_contiguous:  # the inverse binds its operand's rows
                with pytest.raises(ValueError, match="C-contiguous"):
                    grid_mod.passes(grid, operand.shape, "inverse", scratch, operand=operand)
                continue
            work = grid_mod.passes(grid, operand.shape, "inverse", scratch, operand=operand)
            for _ in range(2):
                out = np.full(want.shape, np.nan)
                assert irfft_h(grid, operand, out=out, work=work) is out
                assert np.array_equal(out, want)
            with pytest.raises(ValueError, match="operand"):
                irfft_h(grid, operand.copy(), out=out, work=work)

    def test_buffers_are_checked(self, grid8):
        with pytest.raises(ValueError, match="C-contiguous"):
            irfft_h(grid8, np.zeros((3, 8, 2, 5, 9)), out=np.empty((3, 8, 8, 18))[..., ::2])

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("transport", ["surface_trace", "vertical_average"])
    def test_state_terms_and_tendencies(self, n, transport):
        grid = make_grid(n, n, n)
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True,
                            transport_variant=transport)
        work = Stepper(grid, params, 1e-3).workspace
        for seed in (n, n + 1):  # a second state through the same buffers
            state = rough_state(grid, seed=seed)
            want = state_terms(grid, state)
            got = state_terms(grid, state, work=work)
            assert got is work.terms
            for name in ("U", "dx", "dy", "w", "dz"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert measure(grid, state, got, work=work) == measure(grid, state, want)
            tendencies = timestep.nonlinear_tendencies(grid, state, params, want)
            F = timestep.nonlinear_tendencies(grid, state, params, got, work)
            assert F is work.tendencies[0].out and np.array_equal(F, tendencies)

    def test_stage_operators(self, rng):
        # the stage's entry points take the rows (-1, Nz+1) that a workspace
        # binds, and write its buffers
        grid = make_grid(8, 8, 8)
        v_hat = rfft_h(grid, rng.standard_normal((2, 8, 8, 9)))
        stepper = Stepper(grid, PhysParams(Q=default_insolation(grid, 0.9, 0.1)), 1e-3)
        work = stepper.workspace
        want_v, want_phi = project_barotropic(grid, v_hat)
        work.out[:2] = v_hat
        got_v, got_phi = project_barotropic(grid, work.v_rows, out=work.v_rows, work=work)
        assert got_v is work.v_rows and np.shares_memory(got_phi, work.vbar)
        assert np.array_equal(work.out[:2], want_v) and np.array_equal(got_phi, want_phi)
        T_hat = v_hat[0]
        work.terms.U[2] = T_hat
        assert hydrostatic.baroclinic_grad(grid, work.T_rows, work=work) is work.baroclinic
        assert np.array_equal(work.baroclinic, hydrostatic.baroclinic_grad(grid, T_hat))
        x = np.concatenate((v_hat, v_hat[:1]))
        want = linops.apply_diagonal(stepper._basis, stepper._d, x)
        work.rhs[...] = x
        assert linops.apply_diagonal(stepper._basis, work.d_rows, work.rhs_rows,
                                     out=work.rhs_rows, work=work.coords_rows) is work.rhs_rows
        assert np.array_equal(work.rhs, want)


@pytest.mark.parametrize("driver", ["imex_euler", "cnab2", "split", "direct_em"])
def test_every_spectral_array_of_a_step_is_a_pair_spectrum(driver, monkeypatch):
    # the state's spectra U, the tendencies F, the stage's buffer _out, the
    # kicks of both noise drivers and the forcing: float64 with the re/im
    # axis before ky, (..., Nx, 2, Ny//2+1, Nz+1)
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=2e-3, transport="vertical_average",
                    scheme="cnab2" if driver == "cnab2" else "imex_euler",
                    noise_sigma=0.1 if driver in ("split", "direct_em") else 0.0,
                    ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5)
    seen = {}
    step, tendencies = Stepper.step, Stepper.tendencies

    def recording_step(self, state, kick_hat=None, terms=None):
        new = step(self, state, kick_hat=kick_hat, terms=terms)
        seen.setdefault("U", []).append(terms.U)
        seen.setdefault("_out", []).append(self.workspace.out)
        if kick_hat is not None:
            seen.setdefault("kick", []).append(kick_hat)
        return new

    def recording_tendencies(self, state, terms=None):
        seen.setdefault("F", []).append(tendencies(self, state, terms))
        return seen["F"][-1]

    monkeypatch.setattr(Stepper, "step", recording_step)
    monkeypatch.setattr(Stepper, "tendencies", recording_tendencies)
    if driver in ("split", "direct_em"):
        run = {"split": stochastic.run_split_stochastic, "direct_em": stochastic.run_direct_em}
        run[driver](cfg)
    elif driver == "cnab2":
        forcing_hat = ManufacturedSolution().spectral_forcing(make_grid(8, 8, 8))

        def forcing(grid, t):
            seen.setdefault("forcing", []).append(forcing_hat(grid, t))
            return seen["forcing"][-1]

        run_deterministic(cfg, forcing=forcing)
    else:
        run_deterministic(cfg)
    want = {"U", "F", "_out"} | {"split": {"kick"}, "direct_em": {"kick"},
                                  "cnab2": {"forcing"}}.get(driver, set())
    assert set(seen) == want
    for name, arrays in seen.items():
        assert len(arrays) == 2, name
        for a in arrays:
            assert a.dtype == np.float64 and a.shape[-4:] == (8, 2, 5, 9), name


class TestBlowUpMessages:
    """The post-step check tells a non-finite field from a runaway one and
    hands back the state the step started from.  The rho cases corrupt T's
    top level through the view, so the message names T."""

    @staticmethod
    def corrupt(grid, name, value):
        previous = initial_state(grid, "random_smooth", amplitude=0.5, seed=4)
        new = dataclasses.replace(previous, fields=previous.fields.copy(), t=0.25, step=7)
        getattr(new, name)[(1, 2) + (0,) * (getattr(new, name).ndim - 2)] = value
        return previous, new

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v", "T", "rho"])
    def test_non_finite(self, grid8, name, value):
        previous, new = self.corrupt(grid8, name, value)
        field = "T" if name == "rho" else name
        with pytest.raises(BlowUpError,
                           match=rf"^non-finite values in {field} at t=0\.25 \(step 7\)$") as err:
            _check_finite(new, previous)
        assert err.value.last_state is previous

    @pytest.mark.parametrize("name", ["v", "T", "rho"])
    def test_runaway(self, grid8, name):
        previous, new = self.corrupt(grid8, name, -2 * BLOWUP_SUP)
        field = "T" if name == "rho" else name
        with pytest.raises(BlowUpError) as err:
            _check_finite(new, previous)
        assert str(err.value) == (f"sup|{field}| = 2.000e+08 exceeds the blow-up "
                                  f"threshold at t=0.25 (step 7)")
        assert err.value.last_state is previous

    @pytest.mark.parametrize("name", ["v", "T", "rho"])
    def test_at_threshold_passes(self, grid8, name):
        previous, new = self.corrupt(grid8, name, BLOWUP_SUP)
        _check_finite(new, previous)


class TestRunDeterministic:
    def test_zero_t_end_echoes_initial(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, t_end=0.0, ic_kind="single_mode",
                        ic_amplitude=0.3)
        res = run_deterministic(cfg)
        assert res.final_state.step == 0
        assert res.final_state.t == 0.0
        assert len(res.csv_records) == 1

    def test_deterministic_repeatability(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.01,
                        ic_kind="random_smooth", ic_seed=11)
        a = run_deterministic(cfg)
        b = run_deterministic(cfg)
        assert np.array_equal(a.final_state.T, b.final_state.T)
        assert np.array_equal(a.final_state.v, b.final_state.v)
        assert [r.energy for r in a.ledger] == [r.energy for r in b.ledger]

    def test_cadence_controls_rows(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.02, cadence=5)
        res = run_deterministic(cfg)
        steps = [r.step for r in res.csv_records]
        assert steps == [0, 5, 10, 15, 20]

    def test_initial_state_kinds(self, grid8):
        zero = initial_state(grid8, "zero")
        assert np.all(zero.T == 0.0)
        uni = initial_state(grid8, "uniform", value=1.5)
        assert np.all(uni.T == 1.5) and np.all(uni.rho == 1.5)
        single = initial_state(grid8, "single_mode", amplitude=0.4)
        assert np.max(np.abs(single.rho + 0.4 * np.cos(2 * np.pi * grid8.x[:, :]))) < 1e-14
        rs = initial_state(grid8, "random_smooth", amplitude=0.8, seed=5)
        assert np.max(np.abs(rs.T)) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            initial_state(grid8, "bogus")

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16), (64, 64, 32)])
    @pytest.mark.parametrize("decay", [2.0, 3.0])
    @pytest.mark.parametrize("seed", [1, 12])
    def test_random_smooth_batch_matches_per_plane_draws(self, shape, decay, seed):
        # one draw, filter and inverse FFT for all nine planes, bit for bit
        grid = make_grid(*shape)
        state = initial_state(grid, "random_smooth", amplitude=0.7, seed=seed, decay=decay)
        oracle = random_smooth_per_plane(grid, seed, decay, amplitude=0.7)
        assert np.array_equal(state.fields, oracle)


_DRIVERS = {"run_deterministic": run_deterministic,
            "run_split_stochastic": stochastic.run_split_stochastic,
            "run_direct_em": stochastic.run_direct_em}


def _built_state(source, tmp_path):
    """A state as one constructor of the program builds it."""
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=2e-3, transport="vertical_average",
                    noise_sigma=0.0 if source == "run_deterministic" else 0.1,
                    ic_kind="random_smooth", ic_seed=5)
    if source in _DRIVERS:
        return _DRIVERS[source](cfg).final_state
    stepper, state = start_run(cfg)
    if source == "manufactured":
        return ManufacturedSolution().initial_state(stepper.grid)
    if source == "stepper_step":
        return stepper.step(state)
    if source == "read_snapshot":
        write_snapshot(state, tmp_path / "s.bin")
        return read_snapshot(tmp_path / "s.bin")[0]
    return state


@pytest.mark.parametrize("source", ["initial_state", "stepper_step", "read_snapshot",
                                    "manufactured", *_DRIVERS])
def test_rho_is_a_view_of_T(source, tmp_path):
    # rho is T's top level, not a copy that could drift from it
    state = _built_state(source, tmp_path)
    assert np.shares_memory(state.rho, state.T)
    assert np.array_equal(state.rho, state.T[..., -1])
    state.rho[3, 4] += 0.25
    assert state.T[3, 4, -1] == state.rho[3, 4]


@pytest.mark.parametrize("source", ["initial_state", "stepper_step", "read_snapshot",
                                    "manufactured", *_DRIVERS])
def test_v_and_T_share_one_array(source, tmp_path):
    # one contiguous (3, Nx, Ny, Nz+1) storage per state, v and T its views
    state = _built_state(source, tmp_path)
    assert state.fields.shape == (3,) + state.T.shape and state.fields.flags.c_contiguous
    for view in (state.v, state.T, state.rho):
        assert view.base is state.fields or view.base is state.fields.base
        assert np.shares_memory(view, state.fields)
    state.v[1, 2, 3, 4] = 7.0
    state.T[2, 3, 4] = -7.0
    assert state.fields[1, 2, 3, 4] == 7.0 and state.fields[2, 2, 3, 4] == -7.0


def test_step_does_not_depend_on_memory_layout():
    # a state built from Fortran-ordered or strided v and T, or around a
    # non-contiguous fields array, steps to the bits of a contiguous one
    grid = make_grid(8, 8, 8)
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
    base = rough_state(grid, seed=11)
    strided = np.zeros((3, 8, 8, 2 * grid.nlev))
    strided[..., ::2] = base.fields
    others = [State.pack(np.asfortranarray(base.v), np.asfortranarray(base.T), t=base.t),
              State.pack(strided[:2, ..., ::2], strided[2, ..., ::2], t=base.t),
              State(np.asfortranarray(base.fields), t=base.t),
              State(strided[..., ::2], t=base.t)]
    for other in others:
        assert np.array_equal(other.fields, base.fields) and other.fields.flags.c_contiguous
    stepper = Stepper(grid, params, 1e-3)

    def two_steps(state):
        return stepper.step(stepper.step(state))

    reference = two_steps(base)
    for other in others:
        new = two_steps(other)
        assert np.array_equal(new.fields, reference.fields)


class TestCnab2:
    """CNAB2 is the theta = 1/2 implicit stage with AB2 tendencies,
    E = F on the first step and 1.5 F - 0.5 F_old after it."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "mms_forcing"])
    @pytest.mark.parametrize("second", [False, True], ids=["first_step", "second_step"])
    def test_step_matches_dense_crank_nicolson_oracle(self, n, forced, second):
        grid = make_grid(n, n, n)
        dt = 1e-3
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
        exact = ManufacturedSolution()
        stepper = Stepper(grid, params, dt, scheme="cnab2",
                          forcing=exact.spectral_forcing(grid) if forced else None)

        def tendencies(state):
            F = physical_tendencies(grid, state, params)
            if forced:
                F = [F_i + f for F_i, f in zip(F, exact.forcing(grid, state.t))]
            return F

        state = rough_state(grid, seed=n + 2)
        e = tendencies(state)
        if second:
            state = stepper.step(state)
            e = [1.5 * F - 0.5 * F_old for F, F_old in zip(tendencies(state), e)]
        new = stepper.step(state)

        v_star, T, rho = crank_nicolson_stage(grid, (state.v, state.T, state.rho), e, dt)
        v_hat = project_barotropic(grid, np.stack([rfft_h(grid, c) for c in v_star]))[0]
        v = np.stack([irfft_h(grid, c) for c in v_hat])
        for ours, oracle in ((new.v, v), (new.T, T), (new.rho, rho)):
            assert max_rel_err(ours, oracle) <= 1e-12

    @pytest.mark.parametrize("scheme", ["imex_euler", "cnab2"])
    def test_two_eig_calls_and_two_solvers(self, scheme, monkeypatch, cold_caches):
        grid = make_grid(16, 16, 16)
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        stepper = Stepper(grid, quiet_params(grid), 1e-3, scheme=scheme)
        assert calls == [(grid.nlev, grid.nlev)] * 2
        solvers = [value for value in vars(stepper).values()
                   if isinstance(value, (CoupledImplicitSolver, VelocityImplicitSolver))]
        assert len(solvers) == 2
        theta = 0.5 if scheme == "cnab2" else 1.0
        assert [solver.dt for solver in solvers] == [theta * 1e-3] * 2
        # a frozen velocity builds no velocity solver: one eig, the coupled one
        calls.clear()
        cold_caches()
        frozen = Stepper(grid, quiet_params(grid), 1e-3, scheme=scheme, freeze_velocity=True)
        assert calls == [(grid.nlev, grid.nlev)]
        assert frozen.velocity is None
        assert frozen.coupled.dt == theta * 1e-3

    def test_second_stepper_on_an_equal_grid_makes_no_eig(self, monkeypatch):
        # the eigenbases are built once per grid and shared: another dt,
        # scheme or Grid object of the same sizes reads the same record
        grid = make_grid(8, 8, 8)
        first = Stepper(grid, quiet_params(grid), 1e-3)

        def forbidden(a):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", forbidden)
        other = grid_mod.Grid(8, 8, 8)
        second = Stepper(other, quiet_params(other), 2e-3, scheme="cnab2")
        assert second.coupled.basis is first.coupled.basis
        assert second.velocity.V is first.velocity.V
        assert np.array_equal(second._basis, first._basis)

    def test_forced_steps_never_apply_the_generator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("apply_generator_hat called")

        exact = ManufacturedSolution()
        grid = make_grid(8, 8, 8)
        stepper = Stepper(grid, exact.params(grid), 1e-3, scheme="cnab2",
                          forcing=exact.spectral_forcing(grid))
        for solver in (CoupledImplicitSolver, VelocityImplicitSolver):
            monkeypatch.setattr(solver, "apply_generator_hat", forbidden)
        state = exact.initial_state(grid)
        for _ in range(3):
            state = stepper.step(state)
        assert state.step == 3

    def test_rejects_kick(self, grid8):
        c = Stepper(grid8, quiet_params(grid8), dt=1e-3, scheme="cnab2")
        kick = np.zeros((8, 2, 5, grid8.nlev))
        with pytest.raises(ValueError, match="kick_hat"):
            c.step(initial_state(grid8, "zero"), kick_hat=kick)

    def test_unknown_scheme_rejected(self, grid8):
        with pytest.raises(ValueError, match="unknown scheme 'cn'"):
            Stepper(grid8, quiet_params(grid8), dt=1e-3, scheme="cn")

    def test_second_order_self_convergence(self):
        from ebpe.monitors import mms_temporal_study
        study = mms_temporal_study(
            scheme="cnab2", dt_ladder=(1 / 20, 1 / 40), nx=8, ny=8, nz=8, t_end=0.25,
        )
        assert study.order >= 1.9


def assert_states_equal(a, b):
    for name in ("v", "T", "rho"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.t, a.step) == (b.t, b.step)


def assert_records_equal(a, b):
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestSharedStateTerms:
    """The driver loop computes monitors.state_terms once per state and
    hands it to the ledger and the step; both must be bit for bit what
    they compute on their own."""

    @staticmethod
    def make(n, scheme="imex_euler"):
        grid = make_grid(n, n, n)
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
        return grid, Stepper(grid, params, 1e-3, scheme=scheme), rough_state(grid, seed=n)

    @pytest.mark.parametrize("n", [8, 16])
    def test_measure_given_terms(self, n):
        grid, _, state = self.make(n)
        assert_records_equal(measure(grid, state, state_terms(grid, state)),
                             measure(grid, state))

    @pytest.mark.parametrize("n", [8, 16])
    def test_imex_euler_step_given_terms(self, n):
        grid, stepper, state = self.make(n)
        assert_states_equal(stepper.step(state, terms=state_terms(grid, state)),
                            stepper.step(state))

    @pytest.mark.parametrize("n", [8, 16])
    def test_kicked_step_given_terms(self, n):
        grid, stepper, state = self.make(n)
        rng = np.random.default_rng(n)
        shape = (grid.nx, grid.ny // 2 + 1, grid.nlev)
        kick = as_pairs(1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        assert_states_equal(
            stepper.step(state, kick_hat=kick, terms=state_terms(grid, state)),
            stepper.step(state, kick_hat=kick))

    @pytest.mark.parametrize("n", [8, 16])
    def test_cnab2_second_step_given_terms(self, n):
        grid, shared, state = self.make(n, scheme="cnab2")
        _, alone, _ = self.make(n, scheme="cnab2")
        first, first_alone = shared.step(state, terms=state_terms(grid, state)), alone.step(state)
        assert_states_equal(first, first_alone)
        # each second step combines its tendencies with those its stepper
        # stored with its own output
        assert shared._history is not None and shared._history[0] is first
        assert_states_equal(shared.step(first, terms=state_terms(grid, first)),
                            alone.step(first_alone))

    @pytest.mark.parametrize("n", [8, 16])
    def test_cnab2_history_belongs_to_its_trajectory(self, n):
        # one stepper steps two trajectories in turn, both at step 1 after
        # their first steps: the first trajectory's second step must not
        # take the other's stored tendencies, and is the restart step a
        # fresh stepper takes from the same state
        grid, stepper, a0 = self.make(n, scheme="cnab2")
        b0 = rough_state(grid, seed=n + 1)
        a1 = stepper.step(a0)
        stepper.step(b0)
        _, fresh, _ = self.make(n, scheme="cnab2")
        assert_states_equal(stepper.step(a1), fresh.step(a1))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("driver", ["imex_euler", "cnab2", "direct_em"])
    def test_driver_matches_loop_without_terms(self, n, driver):
        # the deterministic drivers take no noise
        cfg = RunConfig(nx=n, ny=n, nz=n, dt=1e-3, t_end=6e-3,
                        scheme="cnab2" if driver == "cnab2" else "imex_euler",
                        transport="vertical_average",
                        noise_sigma=0.1 if driver == "direct_em" else 0.0,
                        ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5)
        if driver == "direct_em":
            res = stochastic.run_direct_em(cfg)
        else:
            res = run_deterministic(cfg)
        stepper, state = start_run(cfg)
        grid = stepper.grid
        spec = stochastic.NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay,
                                    seed=cfg.noise_seed)
        q = spec.q_table(grid)
        # the driver's bundle, drawn again: a pure function of the seed
        bundle = stochastic.wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        records = [measure(grid, state)]
        for _ in range(cfg.n_steps()):
            kick = None
            if driver == "direct_em":
                kick = np.zeros(q.shape + (grid.nlev,), dtype=complex)
                kick[..., -1] = q * as_complex(bundle.increments[state.step])
                kick = as_pairs(kick)
            state = stepper.step(state, kick_hat=kick)
            records.append(measure(grid, state))
        assert_states_equal(res.final_state, state)
        assert len(res.ledger) == len(records) == cfg.n_steps() + 1
        for ours, ref in zip(res.ledger, records):
            assert_records_equal(ours, ref)


# Horizontal transforms per step of each driver at 8^3, measure included,
# counted over every transform entry point: forward (to_spectral, rfft_h,
# neg_dealiased_rfft_h) and inverse (to_physical, irfft_h), as calls and
# as 2-D planes (the number of 2-D transforms, which does not depend on
# how they are batched).  monitors.state_terms transforms each state
# forward (v[0], v[1], T: 3*9 = 27 planes) and takes its derivatives and
# w on the grid; the ledger and the step share it, and measure makes no
# transform.  The step adds the products forward (27 planes, counted on
# the operand, of which the transform computes only the 2/3-rule modes)
# and the radiation plane (1), and brings the new state (27) back; the
# state carries no surface pressure, so nothing else goes back.  The
# radiation plane is a call of its own: in the field-major layout a
# batched call can only add a whole level to every field.  Upper bounds:
# a change may lower them, never raise them.  The forward call bound was
# raised once, from 2 to 3, when the state became field-major: the
# radiation transform measured faster as a call of its own than as a
# padded level of the batched one, and the plane bound kept the work at
# its level from before.  The inverse call bound, raised with it for the
# surface pressure, is back at 1.
TRANSFORM_BUDGET = {"calls": {"forward": 3, "inverse": 1},
                    "planes": {"forward": 55, "inverse": 27}}
TRANSFORM_DRIVERS = {
    "deterministic": run_deterministic,
    "split": stochastic.run_split_stochastic,
    "direct_em": stochastic.run_direct_em,
}
TRANSFORM_DIRECTION = {
    "to_spectral": "forward", "rfft_h": "forward", "neg_dealiased_rfft_h": "forward",
    "to_physical": "inverse", "irfft_h": "inverse",
}


def planes(fields):
    """The number of 2-D planes in a transform's operand: (Nx, Ny) or
    (..., Nx, Ny, K), and pair spectra (Nx, 2, Ny//2+1) or
    (..., Nx, 2, Ny//2+1, K), whose re/im axis, of length 2 where a
    physical operand has Nx or Ny >= 4, holds the two parts of one plane."""
    if fields.ndim == 2 or (fields.ndim == 3 and fields.shape[-2] == 2):
        return 1
    plane = fields.shape[-4:-1] if fields.shape[-3] == 2 else fields.shape[-3:-1]
    return fields.size // math.prod(plane)


def count_transforms(monkeypatch, weight):
    """Counts {"forward": .., "inverse": ..} of every transform entry point
    of the package from now on; each call adds weight(fields)."""
    counts = {"forward": 0, "inverse": 0}

    def counting(key, fn):
        def wrapped(grid, fields, *args, **kwargs):
            counts[key] += weight(fields)
            return fn(grid, fields, *args, **kwargs)
        return wrapped

    for entry, direction in TRANSFORM_DIRECTION.items():
        original = getattr(grid_mod, entry)
        wrapper = counting(direction, original)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("ebpe."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize("name", sorted(TRANSFORM_DRIVERS))
@pytest.mark.parametrize("shape", [(16, 16, 16), (8, 8, 4)], ids=["horizontal", "vertical"])
def test_state_on_another_grid_rejected_before_the_first_step(name, shape, monkeypatch):
    # resumed on an 8^3 config, a state of another grid names both shapes;
    # no step is taken
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda *args, **kwargs: steps.append(1))
    state = initial_state(make_grid(*shape), "random_smooth", seed=3)
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=2e-3, transport="vertical_average",
                    noise_sigma=0.0 if name == "deterministic" else 0.1)
    theirs = re.escape(str(state.fields.shape))
    with pytest.raises(ValueError, match=rf"{theirs}.*\(3, 8, 8, 9\)"):
        TRANSFORM_DRIVERS[name](cfg, initial=state)
    assert steps == []


@pytest.mark.parametrize("name", sorted(TRANSFORM_DRIVERS))
def test_state_past_the_last_step_rejected_before_the_first_step(name, monkeypatch):
    # a state past the run's end is rejected, naming both steps, and a
    # state at the end is a run with nothing left to do
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-2, transport="vertical_average",
                    noise_sigma=0.0 if name == "deterministic" else 0.1)
    state = initial_state(make_grid(8, 8, 8), "random_smooth", seed=3)
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda *args, **kwargs: steps.append(1))
    state.step = 50
    with pytest.raises(ValueError, match=r"step 50.*last step 10"):
        TRANSFORM_DRIVERS[name](cfg, initial=state)
    state.step, state.t = 10, 10 * cfg.dt
    result = TRANSFORM_DRIVERS[name](cfg, initial=state)
    assert result.final_state is state and len(result.ledger) == 1
    assert steps == []


@pytest.mark.parametrize("name", sorted(TRANSFORM_DRIVERS))
def test_state_off_its_clock_rejected_before_the_first_step(name, monkeypatch):
    # t must be step * dt: a state at step 4 with t = 0 would run its six
    # steps to t = 0.006, the ledger rows carrying the offset.  A t summed
    # step by step is within the tolerance.
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-2, transport="vertical_average",
                    noise_sigma=0.0 if name == "deterministic" else 0.1)
    state = initial_state(make_grid(8, 8, 8), "random_smooth", seed=3)
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda *args, **kwargs: steps.append(1))
    for step, t, t_step in [(0, 0.3, "0.0"), (4, 0.0, "0.004")]:
        state.step, state.t = step, t
        with pytest.raises(ValueError, match=re.escape(
                f"the state is at t = {t!r}, but its step {step} of dt = 0.001 "
                f"is at t = {t_step}")):
            TRANSFORM_DRIVERS[name](cfg, initial=state)
    state.step, state.t = 10, sum([cfg.dt] * 10)
    assert state.t != 10 * cfg.dt
    result = TRANSFORM_DRIVERS[name](cfg, initial=state)
    assert result.final_state is state
    assert steps == []


_BUNDLE_MISMATCH = "path bundle does not match the run (steps, dt, grid or seed)"
_REJECTIONS = {
    "another_grid": "the state's fields have shape (3, 16, 16, 17); "
                    "the run's grid takes (3, 8, 8, 9)",
    # a state at step -3 took 3 steps too many (8 on a 5-step run, to
    # t = 0.008), and direct EM read increments[-3] to [-1] of its path twice
    "before_the_start": "the state is at step -3, before the run's first step 0",
    "past_the_end": "the state is at step 50, past the run's last step 10",
    "off_the_clock": "the state is at t = 0.004, but its step 0 of dt = 0.001 is at t = 0.0",
    "bundle_dt": _BUNDLE_MISMATCH,
    "bundle_steps": _BUNDLE_MISMATCH,
    "bundle_grid": _BUNDLE_MISMATCH,
    "bundle_seed": _BUNDLE_MISMATCH,
    "bundle_seed_coarsened": _BUNDLE_MISMATCH,
    **{f"spec_{key}": f"the noise NoiseSpec({spec}) is not the run's [noise] keys, "
                      f"NoiseSpec(sigma=0.1, decay=2.0, seed=0)"
       for key, spec in (("sigma", "sigma=0.2, decay=2.0, seed=0"),
                         ("decay", "sigma=0.1, decay=3.0, seed=0"),
                         ("seed", "sigma=0.1, decay=2.0, seed=1"))},
    # configs that parse_config rejects, built in code
    "t_end_off_the_steps": "t_end=0.01 must be a whole number of steps of dt=0.003",
    "cadence_0": "cadence must be >= 1, got 0",
    "amplitude_negative": "initial-condition amplitude must be >= 0, got -1.0",
    "h1_margin_negative": "h1_margin must be > 0, got -1.0",
    "dt_0": "dt must be positive, got 0.0",
}
# the fields each rejected config changes
_REJECTED_CONFIGS = {
    "t_end_off_the_steps": {"dt": 3e-3},  # 3 steps silently ended at t = 0.009
    "cadence_0": {"cadence": 0},  # a ZeroDivisionError after one step
    "amplitude_negative": {"ic_kind": "random_smooth", "ic_amplitude": -1.0},  # zero fields
    "h1_margin_negative": {"h1_margin": -1.0},
    "dt_0": {"dt": 0.0},
}


@pytest.mark.parametrize("name, case", [
    *((name, case) for name in sorted(TRANSFORM_DRIVERS)
      for case in ("another_grid", "before_the_start", "past_the_end", "off_the_clock",
                   *_REJECTED_CONFIGS)),
    *((name, case) for name in ("split", "direct_em")
      for case in ("bundle_dt", "bundle_steps", "bundle_grid", "bundle_seed",
                   "bundle_seed_coarsened", "spec_sigma", "spec_decay", "spec_seed")),
])
def test_rejected_run_builds_nothing(name, case, monkeypatch, cold_caches):
    # each input is checked against the config, and the config against its
    # rules, before the Stepper (its eigenbases, which cold caches would
    # build), the increment bundle or the initial fields are built
    cfg = dataclasses.replace(
        RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-2, transport="vertical_average",
                  noise_sigma=0.0 if name == "deterministic" else 0.1),
        **_REJECTED_CONFIGS.get(case, {}))
    spec = stochastic.NoiseSpec(sigma=0.1)  # the config's noise
    if case.startswith("bundle"):
        shape, dt, n_steps = {"bundle_dt": ((8, 8, 8), 2e-3, 10),
                              "bundle_steps": ((8, 8, 8), 1e-3, 3),
                              "bundle_grid": ((8, 16, 8), 1e-3, 10),
                              "bundle_seed": ((8, 8, 8), 1e-3, 10),
                              "bundle_seed_coarsened": ((8, 8, 8), 5e-4, 20)}[case]
        if case.startswith("bundle_seed"):
            spec = dataclasses.replace(spec, seed=1)
        bundle = stochastic.wiener_increments(make_grid(*shape), spec, dt, n_steps)
        kwargs = {"bundle": bundle.coarsen(2) if case.endswith("coarsened") else bundle}
    elif case.startswith("spec"):
        kwargs = {"spec": {"spec_sigma": dataclasses.replace(spec, sigma=0.2),
                           "spec_decay": dataclasses.replace(spec, decay=3.0),
                           "spec_seed": dataclasses.replace(spec, seed=1)}[case]}
    elif case in _REJECTED_CONFIGS:
        kwargs = {}
    else:
        n = 16 if case == "another_grid" else 8
        state = initial_state(make_grid(n, n, n), "random_smooth", seed=3)
        state.step = {"another_grid": 0, "before_the_start": -3, "past_the_end": 50,
                      "off_the_clock": 0}[case]
        state.t = 0.004 if case == "off_the_clock" else 0.0
        kwargs = {"initial": state}

    def forbidden(*args, **kwargs):
        raise AssertionError("a rejected run built its set-up")

    for module, attr in ((linops, "eigenbasis"), (stochastic, "wiener_increments"),
                         (timestep, "initial_state")):
        monkeypatch.setattr(module, attr, forbidden)
    with pytest.raises(ConfigError if case in _REJECTED_CONFIGS else ValueError,
                       match=re.escape(_REJECTIONS[case])):
        TRANSFORM_DRIVERS[name](cfg, **kwargs)


@pytest.mark.parametrize("name", sorted(TRANSFORM_DRIVERS))
def test_transforms_per_step_within_budget(name, monkeypatch):
    counters = {"calls": count_transforms(monkeypatch, lambda fields: 1),
                "planes": count_transforms(monkeypatch, planes)}

    def run(n_steps):
        for counts in counters.values():
            counts.update(forward=0, inverse=0)
        # the deterministic driver takes no noise
        TRANSFORM_DRIVERS[name](RunConfig(
            nx=8, ny=8, nz=8, dt=1e-3, t_end=n_steps * 1e-3, transport="vertical_average",
            noise_sigma=0.0 if name == "deterministic" else 0.1,
            ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5))
        return {unit: dict(counts) for unit, counts in counters.items()}

    short, long = run(2), run(4)  # the difference cancels set-up transforms
    for unit, budget in TRANSFORM_BUDGET.items():
        per_step = {key: (long[unit][key] - short[unit][key]) / 2 for key in budget}
        for key, bound in budget.items():
            assert per_step[key] <= bound, (unit, per_step)


@pytest.mark.parametrize("n", [8, 16])
def test_state_terms_makes_one_forward_transform(n, monkeypatch):
    grid = make_grid(n, n, n)
    state = rough_state(grid, seed=n)
    counts = count_transforms(monkeypatch, lambda fields: 1)
    plane_counts = count_transforms(monkeypatch, planes)
    state_terms(grid, state)
    assert counts == {"forward": 1, "inverse": 0}
    assert plane_counts == {"forward": 3 * grid.nlev, "inverse": 0}  # v[0], v[1], T


@pytest.mark.parametrize("n", [8, 16])
def test_measure_given_terms_makes_no_transform(n, monkeypatch):
    grid = make_grid(n, n, n)
    state = rough_state(grid, seed=n)
    terms = state_terms(grid, state)
    counts = count_transforms(monkeypatch, lambda fields: 1)
    measure(grid, state, terms)
    assert counts == {"forward": 0, "inverse": 0}


# Transform planes (`planes`) per forced CNAB2 step at 8^3, the
# manufactured-solution step of `ebpe mms`.  Forward: the state (v[0],
# v[1], T with rho as its top level: 3*9 = 27 planes, in
# monitors.state_terms), the products (27) and the radiation plane (1); the
# forcing is a half spectrum built once per grid, whose radiation part is a
# 1-D transform of one row.  Inverse: the new (v, T) (27) only; the
# derivatives and w are products on the grid, and the state carries no
# surface pressure.  Upper bounds: a change may lower them, never raise
# them.
FORCED_PLANE_BUDGET = {"forward": 55, "inverse": 27}


def test_forced_cnab2_transform_planes_within_budget(monkeypatch):
    exact = ManufacturedSolution()
    grid = make_grid(8, 8, 8)
    counts = count_transforms(monkeypatch, planes)
    stepper = Stepper(grid, exact.params(grid), 1e-3, scheme="cnab2",
                      forcing=exact.spectral_forcing(grid))
    state = stepper.step(exact.initial_state(grid))  # the first step, without history
    counts.update(forward=0, inverse=0)
    for _ in range(2):
        state = stepper.step(state)
    per_step = {key: c / 2 for key, c in counts.items()}
    for key, budget in FORCED_PLANE_BUDGET.items():
        assert per_step[key] <= budget, per_step
