"""Monitors: constraint residuals, confinement, energy ledger, envelopes."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ebpe import PhysParams, Stepper, cli, diagnostics, make_grid, monitors, stochastic
from ebpe.config import RunConfig
from ebpe.ebm import coalbedo
from ebpe.grid import rfft_h, to_physical, to_spectral
from ebpe.hydrostatic import cumulative_integral, vertical_average
from ebpe.monitors import (
    FLAG_MAX_PRINCIPLE,
    LedgerRecord,
    constraint_check,
    max_principle_bound,
    max_principle_check,
    measure,
    mms_spatial_study,
    mms_temporal_study,
    state_terms,
)
from ebpe.timestep import initial_state, run_deterministic

from conftest import project_barotropic_physical, rough_state, smooth_field_3d
from oracles import (deriv_x, deriv_y, deriv_z, diagnose_w, einsum_measure,
                     energy_ledger_check, h1_ledger_check, l2sq_surface, l2sq_volume,
                     norm_weights_half)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _record(t, energy, h1=0.0, step=0):
    return LedgerRecord(
        step=step, t=t, energy=energy, dissipation=h1, rho_l5=0.0, sup_T=0.0, sup_rho=0.0,
        grad_v_sq=h1, grad_T_sq=0.0, grad_rho_sq=0.0, div_res=0.0,
    )


class TestConstraintCheck:
    def test_post_step_state_within_tolerances(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=5e-3,
                        ic_kind="random_smooth", ic_amplitude=0.5)
        res = run_deterministic(cfg)
        grid = make_grid(8, 8, 8)
        r = constraint_check(grid, res.final_state)
        assert r.solenoidal <= 1e-12
        assert r.w_top <= 1e-12
        assert r.bottom_neumann <= 50 * grid.dz**2 * (1 + np.max(np.abs(res.final_state.T)))

    def test_random_projected_velocity_solenoidal(self, grid8, rng):
        state = initial_state(grid8, "zero")
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        state.v[...] = project_barotropic_physical(grid8, v)[0]
        r = constraint_check(grid8, state)
        assert r.solenoidal <= 1e-10


class TestMaxPrinciple:
    def test_zero_state_trivially_inside(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "zero")
        assert max_principle_check(state, measure(grid8, state), params, 0.0, dt=1e-3) is None
        assert max_principle_bound(params, 0.0) == pytest.approx(0.68**0.25)

    def test_bound_constant(self):
        params = PhysParams(Q=np.ones((2, 2)))
        assert max_principle_bound(params, 0.1) == pytest.approx(0.68**0.25)
        assert max_principle_bound(params, 2.0) == 2.0

    def test_violation_reports_location(self, grid8):
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "zero")
        state.rho[2, 5] = 5.0  # rho is T's top level
        msg = max_principle_check(state, measure(grid8, state), params, 0.0, dt=1e-3)
        assert msg.startswith("maximum principle violated at step 0: sup=5.000000e+00 > ")
        assert msg.endswith(" at (2, 5, 8)")

    @pytest.mark.parametrize("hot", [None, (2, 5), (3, 1, 4)])
    def test_record_sups_give_the_same_result(self, grid8, hot):
        # the check tests the ledger record's sup|T|, rho's included, and
        # names the location of max|T| in the state
        params = PhysParams(Q=np.ones((8, 8)))
        state = initial_state(grid8, "random_smooth", amplitude=0.5, seed=4)
        if hot is not None:
            field = state.rho if len(hot) == 2 else state.T
            field[hot] = -5.0
        msg = max_principle_check(state, measure(grid8, state), params, 0.5, 1e-3)
        sup = float(np.abs(state.T).max())
        C = max_principle_bound(params, 0.5)
        tol = 1e-6 + 10.0 * 1e-3 * (1.0 + C**3)
        if hot is None:
            assert sup <= C + tol
            assert msg is None
        else:
            location = hot + (8,) if len(hot) == 2 else hot
            assert msg == (f"maximum principle violated at step 0: "
                           f"sup={sup:.6e} > {C:.6e}+{tol:.2e} at {location}")

    @staticmethod
    def heated_run(transport):
        # a point heat source on the surface at (2, 5) lifts sup|T| past the
        # bound on every step; c_led and h1_margin are so large that the
        # energy and H1 checks cannot fire
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=3e-3, transport=transport,
                        ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=4,
                        monitors_on=True, c_led=1e12, h1_margin=1e12, cadence=100)
        grid = make_grid(8, 8, 8)
        source = np.zeros((3, 8, 8, 9))
        source[2, 2, 5, -1] = 5e3
        heat = rfft_h(grid, source)
        return run_deterministic(cfg, forcing=lambda grid, t: heat)

    def test_violation_warns_under_vertical_average(self):
        res = self.heated_run("vertical_average")
        assert res.monitor_failure is None
        assert res.final_state.step == 3
        assert len(res.warnings) == 3
        for step, msg in enumerate(res.warnings, start=1):
            assert msg.startswith(f"maximum principle violated at step {step}: ")
            assert msg.endswith(" at (2, 5, 8)")
        assert [r.flags for r in res.ledger] == [0] + 3 * [FLAG_MAX_PRINCIPLE]
        rows = [line.split(",") for line in diagnostics.format_csv(res.csv_records).splitlines()
                if not line.startswith("#")][1:]
        assert [(int(r[0]), int(r[-1])) for r in rows] == [
            (0, 0), (1, FLAG_MAX_PRINCIPLE), (2, FLAG_MAX_PRINCIPLE), (3, FLAG_MAX_PRINCIPLE)]

    def test_violation_halts_under_surface_trace(self):
        res = self.heated_run("surface_trace")
        assert res.warnings == []
        assert res.final_state.step == 1
        assert res.monitor_failure.startswith("maximum principle violated at step 1: ")
        assert res.monitor_failure.endswith(" at (2, 5, 8)")
        assert [r.flags for r in res.ledger] == [0, FLAG_MAX_PRINCIPLE]

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
        sup_rho = np.array([r.sup_rho for r in res.ledger])
        sup_T = np.array([r.sup_T for r in res.ledger])
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
        ledger = [_record(n * 0.1, 0.0) for n in range(5)]
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
        max_principle_check(state, measure(grid8, state), params, 1.0, dt=1e-3)
        assert np.array_equal(state.v, before[0])
        assert np.array_equal(state.T, before[1])
        assert np.array_equal(state.rho, before[2])

    def test_full_run_gronwall_bound(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.1,
                        ic_kind="random_smooth", ic_amplitude=0.8, ic_seed=5)
        res = run_deterministic(cfg)
        assert energy_ledger_check(res.ledger, c_led=50.0).ok

    def test_violation_detected(self):
        # a jump far beyond dt*c_led*(1+E)
        ledger = [_record(0.0, 1.0), _record(1e-3, 2.0, step=7)]
        out = energy_ledger_check(ledger, c_led=50.0)
        assert not out.ok
        assert out.first_bad_step == 1
        assert out.message.startswith("energy ledger violated at step 7: ")


class TestH1Ledger:
    def test_zero_state_passes(self):
        ledger = [_record(n * 0.1, 0.0, h1=0.0) for n in range(5)]
        assert h1_ledger_check(ledger).ok

    def test_envelope_breach_detected(self):
        ledger = [_record(0.0, 0.0, h1=1.0), _record(1e-3, 0.0, h1=1e6, step=7)]
        out = h1_ledger_check(ledger, growth_rate=50.0, margin=100.0)
        assert not out.ok
        assert out.first_bad_step == 1
        assert out.message.startswith("H1 envelope breached at step 7: ")

    def test_unstable_step_caught_before_blowup(self):
        # dt far beyond the explicit-radiation limit with O(1) data: the
        # monitors stop the run while every recorded value is still finite
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=10.0, t_end=50.0,
                        ic_kind="random_smooth", ic_amplitude=3.0, ic_seed=6,
                        monitors_on=True)
        res = run_deterministic(cfg)
        assert res.monitor_failure is not None
        assert all(np.isfinite(r.dissipation) for r in res.ledger)

    def test_flagged_step_recorded_in_ledger_and_csv(self):
        # the run of test_unstable_step_caught_before_blowup: only the step
        # that halts it carries flags, in the ledger and in its CSV row
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=10.0, t_end=50.0,
                        ic_kind="random_smooth", ic_amplitude=3.0, ic_seed=6,
                        monitors_on=True)
        res = run_deterministic(cfg)
        *earlier, last = res.ledger
        assert last.flags != 0
        assert all(r.flags == 0 for r in earlier)
        rows = [line for line in diagnostics.format_csv(res.csv_records).splitlines()
                if not line.startswith("#")]
        assert rows[0] == diagnostics.HEADER
        assert int(rows[-1].split(",")[-1]) == last.flags

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
    brought back to the grid, then l2sq_volume / l2sq_surface; rho is
    T's top level."""
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
    return LedgerRecord(
        step=state.step,
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
        div_res=float(np.max(np.abs(div_bar))),
    )


def quadrature_w_top(grid, state) -> float:
    """max |w(., 1)| by physical quadrature of the full-spectrum divergence."""
    div = sum(to_physical(grid, d(grid, to_spectral(grid, c)))
              for d, c in ((deriv_x, state.v[0]), (deriv_y, state.v[1])))
    return float(np.max(np.abs(cumulative_integral(grid, div)[..., -1])))


class TestMeasure:
    @pytest.mark.parametrize("n", [8, 16])
    def test_parseval_record_matches_quadrature(self, n):
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=3 * n)
        ours = measure(grid, state)
        oracle = quadrature_record(grid, state)
        assert (ours.step, ours.flags) == (oracle.step, oracle.flags)
        for f in dataclasses.fields(LedgerRecord):
            if f.name in ("step", "flags"):
                continue
            a, b = getattr(ours, f.name), getattr(oracle, f.name)
            assert b != 0.0 and abs(a - b) <= 1e-12 * abs(b), f.name
        res = constraint_check(grid, state)
        assert res.solenoidal == ours.div_res
        w_top = quadrature_w_top(grid, state)
        assert w_top != 0.0 and abs(res.w_top - w_top) <= 1e-12 * w_top

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_the_einsum_form(self, n):
        # the products sum in another order; the sup norms and |rho|^5 are
        # the same reductions
        grid = make_grid(n, n, n)
        state = rough_state(grid, seed=3 * n)
        ours, oracle = measure(grid, state), einsum_measure(grid, state)
        for f in dataclasses.fields(LedgerRecord):
            a, b = getattr(ours, f.name), getattr(oracle, f.name)
            if f.name in ("sup_T", "sup_rho", "rho_l5", "step", "flags"):
                assert a == b, f.name
            else:
                assert b != 0.0 and abs(a - b) <= 1e-14 * abs(b), f.name

    @pytest.mark.parametrize("n", [8, 16])
    def test_mms_distance_matches_quadrature(self, n):
        # the studies' L2 distance is sqrt(2 E) of the difference state:
        # the quadrature norms of v, T and rho on the grid
        grid = make_grid(n, n, n)
        a, b = rough_state(grid, seed=n), rough_state(grid, seed=n + 1)
        d = a.fields - b.fields
        oracle = np.sqrt(l2sq_volume(grid, d[0]) + l2sq_volume(grid, d[1])
                         + l2sq_volume(grid, d[2]) + l2sq_surface(grid, d[2, ..., -1]))
        assert abs(monitors._l2_distance(grid, a, b.fields) - oracle) <= 1e-13 * oracle

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 8, 4), (8, 16, 4)])
    def test_pair_weights_repeat_the_half_weights_over_re_im(self, shape):
        grid = make_grid(*shape)
        half = norm_weights_half(grid)
        assert np.array_equal(grid.norm_weights_pair,
                              np.stack((half, half), axis=2).reshape(2, -1))

    @pytest.mark.parametrize("driver, scheme, sigma", [
        (run_deterministic, "imex_euler", 0.0), (run_deterministic, "cnab2", 0.0),
        (stochastic.run_split_stochastic, "imex_euler", 0.2),
        (stochastic.run_direct_em, "imex_euler", 0.2)])
    def test_runs_without_einsum(self, driver, scheme, sigma, monkeypatch):
        def raising(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", raising)
        cfg = RunConfig(nx=8, ny=8, nz=8, transport="vertical_average", scheme=scheme,
                        ic_kind="random_smooth", ic_seed=5, dt=1e-3, t_end=5e-3,
                        noise_sigma=sigma)
        res = driver(cfg)
        assert res.final_state.step == 5 and len(res.ledger) == 6

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
        fields = (state.v[0], state.v[1], state.T)
        spectra = [to_spectral(grid, f) for f in fields]
        for ours, deriv in ((terms.dx, deriv_x), (terms.dy, deriv_y)):
            oracle = np.stack([to_physical(grid, deriv(grid, c)) for c in spectra])
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
        for ours, field in ((terms.dz[:2], state.v), (terms.dz[2], state.T)):
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
        study = mms_temporal_study(dt_ladder=(1 / 40, 1 / 80), nx=8, ny=8, nz=8, t_end=0.25)
        assert study.order >= 0.9

    def test_quick_cli_makes_the_steps_the_benchmark_counts(self, monkeypatch):
        # the mms-cnab2 workload records a failed operation when `ebpe mms
        # --quick` makes another number of steps than it counts
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        original, calls = Stepper.step, []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(Stepper, "step", counting)
        assert cli.main(["mms", "--scheme", "cnab2", "--quick"]) == 0
        assert len(calls) == workloads.MMS_SPATIAL_STEPS + workloads.MMS_TEMPORAL_STEPS == 290

    @staticmethod
    def forbid_runs(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a ladder rung was run")

        monkeypatch.setattr(monitors, "_mms_run", forbidden)

    @pytest.mark.parametrize("study, name, ladder", [
        (mms_spatial_study, "nz_ladder", (8,)),
        (mms_spatial_study, "nz_ladder", (16, 16)),
        (mms_temporal_study, "dt_ladder", (1 / 40,)),
        (mms_temporal_study, "dt_ladder", ()),
    ])
    def test_ladder_of_fewer_than_two_rungs_rejected(self, monkeypatch, study, name, ladder):
        # np.polyfit fitted an "order" to one point with only a RankWarning
        self.forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=f"{name} needs two distinct rungs"):
            study(**{name: ladder})

    def test_spatial_dt_that_does_not_divide_t_end_rejected(self, monkeypatch):
        # 3 steps of 3e-3 stopped every rung at t = 0.009, short of t_end
        self.forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=r"t_end=0.01 must be a whole number of steps of dt=0.003"):
            mms_spatial_study(dt=3e-3, t_end=0.01)

    def test_temporal_rung_that_does_not_divide_t_end_rejected(self, monkeypatch):
        # 17 steps of 0.03 end at t = 0.51, the reference's 267 at 0.500625:
        # the errors compared fields at different times
        self.forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=r"t_end=0.5 must .* reference dt=0.001875; dt=0.03 is"):
            mms_temporal_study(dt_ladder=(0.03, 0.015), t_end=0.5, nx=8, ny=8, nz=8)
