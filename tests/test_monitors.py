"""Monitors: constraint residuals, confinement, energy ledger, envelopes."""

import dataclasses

import numpy as np
import pytest

from ebpe import PhysParams, make_grid
from ebpe.config import RunConfig
from ebpe.ebm import coalbedo
from ebpe.grid import deriv_x, deriv_y, deriv_z, pack_fields, to_physical, to_spectral
from ebpe.hydrostatic import cumulative_integral, vertical_average
from ebpe.monitors import (
    Ledger,
    LedgerRecord,
    constraint_check,
    l2sq_surface,
    l2sq_volume,
    max_principle_bound,
    max_principle_check,
    measure,
    mms_spatial_study,
    mms_temporal_study,
    state_terms,
)
from ebpe.timestep import initial_state, run_deterministic

from conftest import project_barotropic_physical, rough_state, smooth_field_3d
from oracles import diagnose_w, energy_ledger_check, h1_ledger_check


def _record(t, energy, h1=0.0):
    return LedgerRecord(
        t=t, energy=energy, dissipation=0.0, rho_l5=0.0, sup_T=0.0, sup_rho=0.0,
        grad_v_sq=h1, grad_T_sq=0.0, grad_rho_sq=0.0,
        trace_res=0.0, div_res=0.0, w_top_res=0.0,
    )


class TestConstraintCheck:
    def test_post_step_state_within_tolerances(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=5e-3,
                        ic_kind="random_smooth", ic_amplitude=0.5)
        res = run_deterministic(cfg)
        grid = make_grid(8, 8, 8)
        r = constraint_check(grid, res.final_state)
        assert r.trace == 0.0
        assert r.solenoidal <= 1e-12
        assert r.w_top <= 1e-12
        assert r.bottom_neumann <= 50 * grid.dz**2 * (1 + np.max(np.abs(res.final_state.T)))

    def test_corrupted_trace_reported(self, grid8):
        state = initial_state(grid8, "random_smooth", amplitude=0.5, seed=2)
        state.rho[3, 4] += 1.0
        r = constraint_check(grid8, state)
        assert r.trace == pytest.approx(1.0, abs=1e-12)

    def test_random_projected_velocity_solenoidal(self, grid8, rng):
        state = initial_state(grid8, "zero")
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        state.v, _ = project_barotropic_physical(grid8, v)
        r = constraint_check(grid8, state)
        assert r.solenoidal <= 1e-10


class TestMaxPrinciple:
    def test_zero_state_trivially_inside(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "zero")
        res = max_principle_check(state, params, (0.0, 0.0), dt=1e-3)
        assert res.ok
        assert res.bound == pytest.approx(0.68**0.25)

    def test_bound_constant(self):
        params = PhysParams(Q=np.ones((2, 2)))
        assert max_principle_bound(params, 0.1, 0.2) == pytest.approx(0.68**0.25)
        assert max_principle_bound(params, 2.0, 0.2) == 2.0

    def test_violation_reports_location(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "zero")
        state.rho[2, 5] = 5.0
        state.T[..., -1] = state.rho
        res = max_principle_check(state, params, (0.0, 0.0), dt=1e-3)
        assert not res.ok
        assert res.location == (2, 5)

    @pytest.mark.parametrize("hot", [None, (2, 5), (3, 1, 4)])
    def test_record_sups_give_the_same_result(self, grid8, hot):
        # the driver loop hands over the step's ledger record; its sup|T| and
        # sup|rho| are the reductions the check would make itself
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "random_smooth", amplitude=0.5, seed=4)
        if hot is not None:
            field = state.rho if len(hot) == 2 else state.T
            field[hot] = -5.0
        record = measure(grid8, state)
        assert (max_principle_check(state, params, (0.5, 0.5), 1e-3, record)
                == max_principle_check(state, params, (0.5, 0.5), 1e-3))

    def test_hot_start_relaxes_to_radiative_bound(self):
        # uniform start at twice the radiative ceiling: the surface cools by
        # emission while stored interior heat feeds back through the flux
        # coupling, so the decay is slower than the bare surface recursion
        # but stays monotone and passes under beta2^(1/4) + tol
        beta2_root = 0.68**0.25
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=4.0,
                        ic_kind="uniform", ic_value=2 * beta2_root,
                        q0=1.0, q1=0.0)
        res = run_deterministic(cfg)
        sup_rho = res.ledger.series("sup_rho")
        sup_T = res.ledger.series("sup_T")
        assert np.all(np.diff(sup_rho) <= 1e-12)
        assert np.all(np.diff(sup_T) <= 1e-12)
        assert sup_rho[-1] <= beta2_root + 1e-6 + 10 * cfg.dt * (1 + beta2_root**3)
        # the initial sup is the confinement constant for the whole run
        assert np.max(sup_T) <= 2 * beta2_root * (1 + 1e-12)
        # scalar surface recursion reaches its equilibrium below the bound
        params = PhysParams(Q=np.ones((8, 8)))
        scalar = 2 * beta2_root
        for _ in range(cfg.n_steps()):
            scalar = scalar + cfg.dt * (coalbedo(scalar, params) - scalar**4)
        assert scalar <= beta2_root
        assert sup_rho[-1] <= scalar + 0.01  # interior feedback nearly drained


class TestEnergyLedger:
    def test_zero_state_constant(self):
        ledger = Ledger()
        for n in range(5):
            ledger.append(_record(n * 0.1, 0.0))
        assert energy_ledger_check(ledger).ok
        assert energy_ledger_check(ledger, strict=True).ok

    def test_pure_diffusion_strict_decrease(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.05,
                        ic_kind="random_smooth", ic_amplitude=1.0, ic_seed=4,
                        radiation_on=False, freeze_velocity=True)
        res = run_deterministic(cfg)
        assert energy_ledger_check(res.ledger, strict=True).ok

    def test_free_velocity_small_data_decay(self):
        # with radiation off, the baroclinic exchange is dominated by the
        # dissipation: energy decays even with the velocity evolving
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.1, radiation_on=False,
                        ic_kind="random_smooth", ic_amplitude=0.1, ic_seed=2)
        res = run_deterministic(cfg)
        assert energy_ledger_check(res.ledger, strict=True).ok

    def test_monitors_do_not_mutate_state(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "random_smooth", amplitude=0.5, seed=9)
        before = (state.v.copy(), state.T.copy(), state.rho.copy())
        measure(grid8, state)
        constraint_check(grid8, state)
        max_principle_check(state, params, (1.0, 1.0), dt=1e-3)
        assert np.array_equal(state.v, before[0])
        assert np.array_equal(state.T, before[1])
        assert np.array_equal(state.rho, before[2])

    def test_full_run_gronwall_bound(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.1,
                        ic_kind="random_smooth", ic_amplitude=0.8, ic_seed=5)
        res = run_deterministic(cfg)
        assert energy_ledger_check(res.ledger, c_led=50.0).ok

    def test_violation_detected(self):
        ledger = Ledger()
        ledger.append(_record(0.0, 1.0))
        ledger.append(_record(1e-3, 2.0))  # jump far beyond dt*c_led*(1+E)
        out = energy_ledger_check(ledger, c_led=50.0)
        assert not out.ok
        assert out.first_bad_step == 1


class TestH1Ledger:
    def test_zero_state_passes(self):
        ledger = Ledger()
        for n in range(5):
            ledger.append(_record(n * 0.1, 0.0, h1=0.0))
        assert h1_ledger_check(ledger).ok

    def test_envelope_breach_detected(self):
        ledger = Ledger()
        ledger.append(_record(0.0, 0.0, h1=1.0))
        ledger.append(_record(1e-3, 0.0, h1=1e6))
        out = h1_ledger_check(ledger, growth_rate=50.0, margin=100.0)
        assert not out.ok
        assert out.first_bad_step == 1

    def test_unstable_step_caught_before_blowup(self):
        # dt far beyond the explicit-radiation limit with O(1) data: the
        # monitors stop the run while every recorded value is still finite
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=10.0, t_end=50.0,
                        ic_kind="random_smooth", ic_amplitude=3.0, ic_seed=6,
                        monitors_on=True)
        res = run_deterministic(cfg)
        assert res.monitor_failure is not None
        assert all(np.isfinite(r.h1_seminorm_sq) for r in res.ledger.records)

    def test_mms_run_passes_with_margin(self):
        from ebpe.manufactured import ManufacturedSolution
        exact = ManufacturedSolution()
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.05)
        grid = make_grid(8, 8, 8)
        res = run_deterministic(cfg, initial=exact.initial_state(grid),
                                forcing=exact.spectral_forcing(grid))
        assert h1_ledger_check(res.ledger, growth_rate=50.0, margin=100.0).ok


def quadrature_record(grid, state) -> LedgerRecord:
    """The ledger record by physical quadrature: full-spectrum derivatives
    brought back to the grid, then l2sq_volume / l2sq_surface."""
    def grad_h(f):
        c = to_spectral(grid, f)
        return to_physical(grid, deriv_x(grid, c)), to_physical(grid, deriv_y(grid, c))

    def grad_sq_volume(f):
        gx, gy = grad_h(f)
        return (l2sq_volume(grid, gx) + l2sq_volume(grid, gy)
                + l2sq_volume(grid, deriv_z(grid, f)))

    gv = grad_sq_volume(state.v[0]) + grad_sq_volume(state.v[1])
    gT = grad_sq_volume(state.T)
    gr = sum(l2sq_surface(grid, g) for g in grad_h(state.rho))
    vbar = vertical_average(grid, state.v)
    div_bar = grad_h(vbar[0])[0] + grad_h(vbar[1])[1]
    div = grad_h(state.v[0])[0] + grad_h(state.v[1])[1]
    w_top = -cumulative_integral(grid, div)[..., -1]
    return LedgerRecord(
        t=state.t,
        energy=0.5 * (l2sq_volume(grid, state.v[0]) + l2sq_volume(grid, state.v[1])
                      + l2sq_volume(grid, state.T) + l2sq_surface(grid, state.rho)),
        dissipation=gv + gT + gr,
        rho_l5=float(np.mean(np.abs(state.rho) ** 5)),
        sup_T=float(np.max(np.abs(state.T))),
        sup_rho=float(np.max(np.abs(state.rho))),
        grad_v_sq=gv,
        grad_T_sq=gT,
        grad_rho_sq=gr,
        trace_res=float(np.max(np.abs(state.T[..., -1] - state.rho))),
        div_res=float(np.max(np.abs(div_bar))),
        w_top_res=float(np.max(np.abs(w_top))),
    )


class TestMeasure:
    @pytest.mark.parametrize("n", [8, 16])
    def test_parseval_record_matches_quadrature(self, n):
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=3 * n)
        ours = measure(grid, state)
        oracle = quadrature_record(grid, state)
        for f in dataclasses.fields(LedgerRecord):
            a, b = getattr(ours, f.name), getattr(oracle, f.name)
            assert b != 0.0 and abs(a - b) <= 1e-12 * abs(b), f.name
        res = constraint_check(grid, state)
        assert res.solenoidal == ours.div_res and res.w_top == ours.w_top_res

    def test_energy_of_uniform_state(self, grid8):
        state = initial_state(grid8, "uniform", value=2.0)
        rec = measure(grid8, state)
        # E0 = (|T|^2 + |rho|^2)/2 = (4 + 4)/2
        assert rec.energy == pytest.approx(4.0, rel=1e-13)
        assert rec.dissipation == pytest.approx(0.0, abs=1e-10)
        assert rec.rho_l5 == pytest.approx(32.0, rel=1e-13)

    def test_dissipation_of_single_mode(self, grid8):
        state = initial_state(grid8, "zero")
        state.rho[:] = np.cos(2 * np.pi * grid8.x)
        state.T[..., -1] = state.rho
        rec = measure(grid8, state)
        # |grad_H rho|^2 = (2 pi)^2 * 1/2; T contributes its own trace row
        assert rec.grad_rho_sq == pytest.approx((2 * np.pi) ** 2 / 2, rel=1e-12)


class TestStateTerms:
    """The physical terms that the ledger and the step share, against the
    full-spectrum reference transforms."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_horizontal_derivatives_and_w_match_full_spectrum(self, n):
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=5 * n)
        terms = state_terms(grid, state)
        fields = (state.v[0], state.v[1], state.T, state.rho)
        spectra = [to_spectral(grid, f) for f in fields]
        for ours, deriv in ((terms.dx, deriv_x), (terms.dy, deriv_y)):
            dv0, dv1, dT, drho = [to_physical(grid, deriv(grid, c)) for c in spectra]
            oracle = pack_fields(np.stack((dv0, dv1)), dT, drho)
            assert np.max(np.abs(ours - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        w = to_physical(grid, diagnose_w(grid, np.stack(spectra[:2])))
        assert np.max(np.abs(terms.w - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [8, 16])
    def test_vertical_derivatives_match_deriv_z(self, n):
        # one product with grid.diff_z, which rounds apart from deriv_z's
        # quotient form
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=5 * n)
        terms = state_terms(grid, state)
        for ours, field in ((terms.dz_v, state.v), (terms.dz_T, state.T)):
            oracle = deriv_z(grid, field)
            assert np.max(np.abs(ours - oracle)) <= 2e-15 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [8, 16])
    def test_parseval_energy_matches_quadrature(self, n):
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=5 * n)
        energy = 0.5 * (l2sq_volume(grid, state.v[0]) + l2sq_volume(grid, state.v[1])
                        + l2sq_volume(grid, state.T) + l2sq_surface(grid, state.rho))
        assert abs(measure(grid, state).energy - energy) <= 1e-14 * energy


class TestMmsStudies:
    def test_quick_spatial_order(self):
        study = mms_spatial_study(nz_ladder=(8, 16), dt=1e-4, t_end=0.005)
        assert study.order >= 1.8

    def test_quick_temporal_order(self):
        study = mms_temporal_study(dt_ladder=(1 / 40, 1 / 80), nx=8, ny=8, nz=8,
                                   t_end=0.25, ref_refine=8)
        assert study.order >= 0.9
