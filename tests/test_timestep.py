"""Time integration: equilibria, oracle comparisons, invariants, aborts."""

import dataclasses
import math
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
from ebpe.config import RunConfig
from ebpe.ebm import coalbedo, default_insolation
from ebpe.grid import irfft_h, rfft_h, unpack_fields
from ebpe.manufactured import ManufacturedSolution
from ebpe.monitors import l2sq_surface, l2sq_volume, measure, state_terms
from ebpe.timestep import (
    BLOWUP_SUP,
    BlowUpError,
    _check_finite,
    grid_from_config,
    initial_state,
    initial_state_from_config,
    nonlinear_tendencies,
    params_from_config,
    run_deterministic,
)

from conftest import rough_state
from oracles import solve_coupled_implicit, solve_velocity_implicit


def max_rel_err(ours, oracle):
    return float(np.max(np.abs(ours - oracle)) / np.max(np.abs(oracle)))


def quiet_params(grid, **kwargs):
    defaults = dict(Q=np.ones((grid.nx, grid.ny)), radiation_on=False)
    defaults.update(kwargs)
    return PhysParams(**defaults)


class TestTendencies:
    def test_zero_state_no_radiation(self, grid8):
        params = quiet_params(grid8)
        state = initial_state(grid8, "zero")
        F_v, F_T, F_rho = nonlinear_tendencies(grid8, state, params)
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
        state.rho[:] = state.T[..., -1]
        _, F_T, _ = nonlinear_tendencies(grid8, state, params)
        expected = -c * 2 * np.pi * np.cos(2 * np.pi * grid8.x)[:, :, None] * profile
        assert np.max(np.abs(F_T - expected)) < 1e-11

    def test_horizontally_constant_temperature_no_baroclinic(self, grid8):
        params = quiet_params(grid8)
        state = initial_state(grid8, "zero")
        state.T[:] = (1.0 + grid8.z**2)[None, None, :]
        state.rho[:] = state.T[..., -1]
        F_v, _, _ = nonlinear_tendencies(grid8, state, params)
        assert np.max(np.abs(F_v)) < 1e-13

    def test_transport_variant_switches_advecting_velocity(self, grid8):
        state = initial_state(grid8, "zero")
        state.v[0] = np.cos(np.pi * grid8.z)[None, None, :]  # vanishing average
        state.rho[:] = np.sin(2 * np.pi * grid8.x)
        state.T[..., -1] = state.rho
        trace = quiet_params(grid8, transport_variant="surface_trace")
        avg = quiet_params(grid8, transport_variant="vertical_average")
        _, _, F_trace = nonlinear_tendencies(grid8, state, trace)
        _, _, F_avg = nonlinear_tendencies(grid8, state, avg)
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
        ours = unpack_fields(grid, irfft_h(grid, stepper.tendencies(state)))
        oracle = nonlinear_tendencies(grid, state, params)
        if forced:
            oracle = [F + f for F, f in zip(oracle, exact.forcing(grid, state.t))]
        for F, F_ref in zip(ours, oracle):
            assert max_rel_err(F, F_ref) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_step_matches_composed_physical_step(self, n):
        grid = make_grid(n, n, n)
        dt = 1e-3
        params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
        state = rough_state(grid, seed=n + 1)
        new = Stepper(grid, params, dt).step(state)

        F_v, F_T, F_rho = nonlinear_tendencies(grid, state, params)
        v_star = solve_velocity_implicit(grid, state.v + dt * F_v, dt)
        v_hat, phi_hat = project_barotropic(
            grid, np.stack([rfft_h(grid, c) for c in v_star]))
        v = np.stack([irfft_h(grid, c) for c in v_hat])
        T, rho = solve_coupled_implicit(grid, state.T + dt * F_T, state.rho + dt * F_rho, dt)
        p_s = irfft_h(grid, phi_hat) / dt
        for ours, oracle in ((new.v, v), (new.T, T), (new.rho, rho), (new.p_s, p_s)):
            assert max_rel_err(ours, oracle) <= 1e-12
        assert np.array_equal(new.T[..., -1], new.rho)


def test_kernel_never_reaches_match_columns(monkeypatch):
    """The step kernel, state_terms and measure differentiate with the
    grid's symbol tables: only the full-spectrum reference path and the
    tests go through match_columns (deriv_x, deriv_y, dealias)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("match_columns called")

    grid = make_grid(8, 8, 8)
    exact = ManufacturedSolution()
    params = PhysParams(Q=default_insolation(grid, 0.9, 0.1), radiation_on=True)
    states = {"imex_euler": rough_state(grid, seed=3),
              "cnab2": exact.initial_state(grid)}
    forcings = {"imex_euler": None, "cnab2": exact.spectral_forcing(grid)}
    monkeypatch.setattr(grid_mod, "match_columns", forbidden)
    for scheme, state in states.items():
        measure(grid, state, state_terms(grid, state))
        stepper = Stepper(grid, params, 1e-3, scheme=scheme, forcing=forcings[scheme])
        for _ in range(2):  # cnab2: the Euler start, then the AB2 step
            state = stepper.step(state)
    cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=1e-3, transport="vertical_average",
                    noise_sigma=0.1, ic_kind="random_smooth", ic_seed=5)
    for driver in (stochastic.run_direct_em, stochastic.run_split_stochastic):
        assert driver(cfg).final_state.step == 1


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
                    noise_sigma=0.1, ic_kind="random_smooth", ic_seed=5)
    bundle = stochastic.wiener_increments(grid, stochastic.NoiseSpec(sigma=0.1, seed=2),
                                          cfg.dt, 1)
    initial = initial_state_from_config(grid, cfg)
    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, forbidden)
    with pytest.raises(AssertionError, match="numpy.fft called"):
        np.fft.rfft2(np.zeros((8, 8)))
    for scheme, state in states.items():
        measure(grid, state, state_terms(grid, state))
        stepper = Stepper(grid, params, 1e-3, scheme=scheme, forcing=forcings[scheme])
        for _ in range(2):  # cnab2: the Euler start, then the AB2 step
            state = stepper.step(state)
    for driver in (stochastic.run_direct_em, stochastic.run_split_stochastic):
        result = driver(cfg, bundle=bundle, initial=initial)
        assert result.final_state.step == 1
        assert result.bundle is bundle


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
        assert np.array_equal(out.T[..., -1], out.rho)
        assert np.max(np.abs(out.T - c)) <= dt * abs(reaction) * (1 + 1e-6)

    def test_trace_and_divergence_invariants(self):
        grid = make_grid(8, 8, 8)
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.02,
                        ic_kind="random_smooth", ic_amplitude=0.6, ic_seed=1)
        res = run_deterministic(cfg)
        for rec in res.ledger.records:
            assert rec.trace_res <= 1e-12 * (1.0 + rec.sup_rho)
            assert rec.div_res <= 1e-10
            assert rec.w_top_res <= 1e-10

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
        E = res.ledger.series("energy")
        assert np.all(E[1:] <= E[:-1] * (1 + 1e-14))


class TestBlowUpMessages:
    """The post-step check tells a non-finite field from a runaway one and
    hands back the state the step started from."""

    @staticmethod
    def corrupt(grid, name, value):
        previous = initial_state(grid, "random_smooth", amplitude=0.5, seed=4)
        new = dataclasses.replace(previous.copy(), t=0.25, step=7)
        getattr(new, name)[(1, 2) + (0,) * (getattr(new, name).ndim - 2)] = value
        return previous, new

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v", "T", "rho"])
    def test_non_finite(self, grid8, name, value):
        previous, new = self.corrupt(grid8, name, value)
        with pytest.raises(BlowUpError,
                           match=rf"^non-finite values in {name} at t=0\.25 \(step 7\)$") as err:
            _check_finite(new, previous)
        assert err.value.last_state is previous

    @pytest.mark.parametrize("name", ["v", "T", "rho"])
    def test_runaway(self, grid8, name):
        previous, new = self.corrupt(grid8, name, -2 * BLOWUP_SUP)
        with pytest.raises(BlowUpError) as err:
            _check_finite(new, previous)
        assert str(err.value) == (f"sup|{name}| = 2.000e+08 exceeds the blow-up "
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
        assert a.ledger.series("energy").tolist() == b.ledger.series("energy").tolist()

    def test_cadence_controls_rows(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.02, cadence=5)
        res = run_deterministic(cfg)
        steps = [s for s, _, _ in res.csv_records]
        assert steps == [0, 5, 10, 15, 20]

    def test_initial_state_kinds(self, grid8):
        zero = initial_state(grid8, "zero")
        assert np.all(zero.T == 0.0)
        uni = initial_state(grid8, "uniform", value=1.5)
        assert np.all(uni.T == 1.5) and np.all(uni.rho == 1.5)
        single = initial_state(grid8, "single_mode", amplitude=0.4)
        assert np.max(np.abs(single.rho + 0.4 * np.cos(2 * np.pi * grid8.x[:, :]))) < 1e-14
        rs = initial_state(grid8, "random_smooth", amplitude=0.8, seed=5)
        assert np.array_equal(rs.T[..., -1], rs.rho)
        assert max(np.max(np.abs(rs.T)), np.max(np.abs(rs.rho))) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            initial_state(grid8, "bogus")


class TestCnab2:
    def test_runs_and_matches_euler_at_first_step(self, grid8):
        params = quiet_params(grid8)
        e = Stepper(grid8, params, dt=1e-3, scheme="imex_euler")
        c = Stepper(grid8, params, dt=1e-3, scheme="cnab2")
        state = initial_state(grid8, "random_smooth", amplitude=0.5, seed=7)
        s_e = e.step(state.copy())
        s_c = c.step(state.copy())
        assert np.allclose(s_e.T, s_c.T, atol=1e-15)

    def test_rejects_kick(self, grid8):
        c = Stepper(grid8, quiet_params(grid8), dt=1e-3, scheme="cnab2")
        kick = np.zeros((8, 5, grid8.nlev), dtype=complex)
        with pytest.raises(ValueError, match="kick_hat"):
            c.step(initial_state(grid8, "zero"), kick_hat=kick)

    def test_second_order_self_convergence(self):
        from ebpe.monitors import mms_temporal_study
        study = mms_temporal_study(
            scheme="cnab2", dt_ladder=(1 / 20, 1 / 40), nx=8, ny=8, nz=8,
            t_end=0.25, ref_refine=8,
        )
        assert study.order >= 1.7


def assert_states_equal(a, b):
    for name in ("v", "T", "rho", "p_s"):
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
        kick = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert_states_equal(
            stepper.step(state, kick_hat=kick, terms=state_terms(grid, state)),
            stepper.step(state, kick_hat=kick))

    @pytest.mark.parametrize("n", [8, 16])
    def test_cnab2_second_step_given_terms(self, n):
        grid, shared, state = self.make(n, scheme="cnab2")
        _, alone, _ = self.make(n, scheme="cnab2")
        first = shared.step(state, terms=state_terms(grid, state))
        assert_states_equal(first, alone.step(state))
        # the second step combines its tendencies with the stored ones
        assert shared._history is not None and shared._history[0] == first.step
        assert_states_equal(shared.step(first, terms=state_terms(grid, first)),
                            alone.step(first))

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
        grid = grid_from_config(cfg)
        stepper = Stepper(grid, params_from_config(grid, cfg), cfg.dt, scheme=cfg.scheme)
        q = stochastic.noise_spec_from_config(cfg).q_table(grid)
        state = initial_state_from_config(grid, cfg)
        records = [measure(grid, state)]
        for _ in range(cfg.n_steps()):
            kick = None
            if driver == "direct_em":
                kick = np.zeros(q.shape + (grid.nlev,), dtype=complex)
                kick[..., -1] = q * res.bundle.increments[state.step]
            state = stepper.step(state, kick_hat=kick)
            records.append(measure(grid, state))
        assert_states_equal(res.final_state, state)
        assert len(res.ledger) == len(records) == cfg.n_steps() + 1
        for ours, ref in zip(res.ledger.records, records):
            assert_records_equal(ours, ref)


# Horizontal transforms per step of each driver at 8^3, measure included,
# counted over every transform entry point: forward (to_spectral, rfft_h)
# and inverse (to_physical, irfft_h).  monitors.state_terms transforms each
# state forward and takes its derivatives and w on the grid; the ledger
# and the step share it, and measure makes no transform.  The step adds
# the products forward and the new state back: two forward and one
# inverse per step.  Upper bounds: a change may lower them, never raise
# them.
TRANSFORM_BUDGET = {
    "deterministic": (run_deterministic, 2, 1),
    "split": (stochastic.run_split_stochastic, 2, 1),
    "direct_em": (stochastic.run_direct_em, 2, 1),
}
TRANSFORM_DIRECTION = {
    "to_spectral": "forward", "rfft_h": "forward",
    "to_physical": "inverse", "irfft_h": "inverse",
}


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


@pytest.mark.parametrize("name", sorted(TRANSFORM_BUDGET))
def test_transforms_per_step_within_budget(name, monkeypatch):
    driver, max_forward, max_inverse = TRANSFORM_BUDGET[name]
    counts = count_transforms(monkeypatch, lambda fields: 1)

    def run(n_steps):
        counts.update(forward=0, inverse=0)
        # the deterministic driver takes no noise
        driver(RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=n_steps * 1e-3,
                         transport="vertical_average",
                         noise_sigma=0.0 if name == "deterministic" else 0.1,
                         ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5))
        return dict(counts)

    short, long = run(2), run(4)  # the difference cancels set-up transforms
    per_step = {key: (long[key] - short[key]) / 2 for key in counts}
    assert per_step["forward"] <= max_forward, per_step
    assert per_step["inverse"] <= max_inverse, per_step


@pytest.mark.parametrize("n", [8, 16])
def test_state_terms_makes_one_forward_transform(n, monkeypatch):
    grid = make_grid(n, n, n)
    state = rough_state(grid, seed=n)
    counts = count_transforms(monkeypatch, lambda fields: 1)
    state_terms(grid, state)
    assert counts == {"forward": 1, "inverse": 0}


@pytest.mark.parametrize("n", [8, 16])
def test_measure_given_terms_makes_no_transform(n, monkeypatch):
    grid = make_grid(n, n, n)
    state = rough_state(grid, seed=n)
    terms = state_terms(grid, state)
    counts = count_transforms(monkeypatch, lambda fields: 1)
    measure(grid, state, terms)
    assert counts == {"forward": 0, "inverse": 0}


# Transform planes (each call adds its trailing size) per forced CNAB2 step
# at 8^3, the manufactured-solution step of `ebpe mms`.  Forward: the state
# (3*9+1 = 28 planes, in monitors.state_terms) and the products with the
# radiation plane (29); the forcing is a half spectrum built once per grid,
# whose radiation part is a 1-D transform of one row.  Inverse: the new
# (v, T, p_s) (28); the derivatives and w are products on the grid.  Upper
# bounds: a change may lower them, never raise them.
FORCED_PLANE_BUDGET = {"forward": 57, "inverse": 28}


def test_forced_cnab2_transform_planes_within_budget(monkeypatch):
    exact = ManufacturedSolution()
    grid = make_grid(8, 8, 8)
    counts = count_transforms(monkeypatch, lambda fields: math.prod(fields.shape[2:]))
    stepper = Stepper(grid, exact.params(grid), 1e-3, scheme="cnab2",
                      forcing=exact.spectral_forcing(grid))
    state = stepper.step(exact.initial_state(grid))  # the Euler start step
    counts.update(forward=0, inverse=0)
    for _ in range(2):
        state = stepper.step(state)
    per_step = {key: c / 2 for key, c in counts.items()}
    for key, budget in FORCED_PLANE_BUDGET.items():
        assert per_step[key] <= budget, per_step
