"""Boundary noise: increments, exponential convolution, drivers."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ebpe import diagnostics, make_grid, project_barotropic
from ebpe.config import RunConfig
from ebpe.grid import irfft_h, rfft_h, to_spectral
from ebpe.linops import coupled_vertical_matrix
from ebpe.stochastic import (
    ConvolutionPropagator,
    NoiseSpec,
    PathBundle,
    noise_spec_from_config,
    run_direct_em,
    run_split_stochastic,
    wiener_increments,
)
from ebpe.snapshots import read_snapshot, write_snapshot
from ebpe.timestep import (
    BlowUpError,
    State,
    initial_state_from_config,
    nonlinear_tendencies,
    params_from_config,
    run_deterministic,
)

from oracles import assemble_mode_operator, solve_coupled_implicit, solve_velocity_implicit

BASE = dict(nx=8, ny=8, nz=8, transport="vertical_average",
            ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5)


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, decay=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["sigma", "decay"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**{field: value})

    def test_amplitude_table(self, grid8):
        spec = NoiseSpec(sigma=0.2, decay=2.0)
        q = spec.q_table(grid8)
        assert q[0, 0] == pytest.approx(0.2)
        assert q[1, 0] == pytest.approx(0.2 / (1 + (2 * np.pi) ** 2))
        assert np.all(q > 0)


class TestWienerIncrements:
    def test_same_seed_identical(self, grid8):
        spec = NoiseSpec(sigma=1.0, seed=99)
        a = wiener_increments(grid8, spec, 0.01, 50)
        b = wiener_increments(grid8, spec, 0.01, 50)
        assert np.array_equal(a.increments, b.increments)

    def test_variances_within_three_sigma(self, grid8):
        n, dt = 100_000, 0.02
        bundle = wiener_increments(grid8, NoiseSpec(sigma=1.0, seed=12), dt, n)
        w = bundle.increments
        se_half = (dt / 2) * np.sqrt(2.0 / n)  # standard error of a variance estimate
        se_full = dt * np.sqrt(2.0 / n)
        # paired mode: real and imaginary parts each carry dt/2
        assert abs(w[:, 1, 0].real.var() - dt / 2) < 3 * se_half
        assert abs(w[:, 1, 0].imag.var() - dt / 2) < 3 * se_half
        assert abs(np.var(np.abs(w[:, 2, 1])) + np.mean(np.abs(w[:, 2, 1])) ** 2 - dt) < 3 * se_full
        # mean mode is real with the full variance
        assert abs(w[:, 0, 0].real.var() - dt) < 3 * se_full
        assert np.max(np.abs(w[:, 0, 0].imag)) < 1e-13
        # conjugate pairing is exact
        assert np.array_equal(w[:, 1, 0], np.conj(w[:, -1, 0]))

    def test_conjugate_symmetry_gives_real_fields(self, grid8):
        # the half bundle loses nothing: each slice transforms back to the
        # white-noise draw of its seed
        dt = 0.01
        bundle = wiener_increments(grid8, NoiseSpec(sigma=1.0, seed=3), dt, 4)
        assert bundle.increments.shape == (4, 8, 5)
        white = np.random.default_rng(3).standard_normal((4, 8, 8)) * np.sqrt(dt)
        for k in range(4):
            back = irfft_h(grid8, bundle.increments[k]) / np.sqrt(grid8.nx * grid8.ny)
            assert np.max(np.abs(back - white[k])) <= 1e-15

    def test_coarsen_sums_increments(self, grid8):
        bundle = wiener_increments(grid8, NoiseSpec(sigma=1.0, seed=4), 0.01, 8)
        c = bundle.coarsen(4)
        assert c.n_steps == 2
        assert c.dt == pytest.approx(0.04)
        manual = bundle.increments[:4].sum(axis=0)
        assert np.array_equal(c.increments[0], manual)
        with pytest.raises(ValueError):
            bundle.coarsen(3)
        for factor in (0, -2):
            with pytest.raises(ValueError, match=f"got {factor}"):
                bundle.coarsen(factor)


class TestConvolutionPropagator:
    def test_step_matches_per_mode_expm(self, grid8, rng):
        dt = 0.05
        prop = ConvolutionPropagator(grid8, dt)
        n = grid8.nlev
        base = coupled_vertical_matrix(grid8)
        Z = rng.standard_normal((8, 5, n)) + 1j * rng.standard_normal((8, 5, n))
        dW = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        q = NoiseSpec().q_table(grid8)
        # the exponential and the injected phi1 column, each on its own;
        # relative to the whole array, since on strongly damped modes
        # (|E Z| ~ 1e-22) expm's own per-mode error reaches 1e-12
        propagated = prop.step_hat(Z, np.zeros_like(dW), q)
        injected = prop.step_hat(np.zeros_like(Z), dW, q)
        oracle_propagated, oracle_injected = np.empty_like(Z), np.empty_like(Z)
        for i in range(grid8.nx):
            for j in range(5):
                aug = np.zeros((n + 1, n + 1))
                aug[:n, :n] = dt * (base - grid8.xi2[i, j] * np.eye(n))
                aug[n - 1, n] = 1.0
                ex = scipy.linalg.expm(aug)
                oracle_propagated[i, j] = ex[:n, :n] @ Z[i, j]
                oracle_injected[i, j] = ex[:n, n] * (q[i, j] * dW[i, j])
        for ours, oracle in ((propagated, oracle_propagated), (injected, oracle_injected)):
            assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        # the maps are half-spectrum only: a full-width stack is rejected
        full = rng.standard_normal((8, 8, n)) + 0j
        with pytest.raises(ValueError):
            prop.step_hat(full, np.zeros((8, 8), complex), np.zeros((8, 8)))

    def test_kernel_mode_invariant_without_noise(self, grid8):
        prop = ConvolutionPropagator(grid8, dt=0.05)
        Z = np.zeros((8, 5, grid8.nlev), dtype=complex)
        Z[0, 0, :] = 2.0  # constant stack on the mean mode: kernel of the operator
        out = prop.step_hat(Z, np.zeros((8, 5), complex), np.zeros((8, 5)))
        assert np.max(np.abs(out - Z)) < 1e-13

    def test_deterministic_decay_without_noise(self, grid8):
        prop = ConvolutionPropagator(grid8, dt=0.05)
        Z = np.zeros((8, 5, grid8.nlev), dtype=complex)
        Z[1, 0, :] = 1.0
        out = prop.step_hat(Z, np.zeros((8, 5), complex), np.zeros((8, 5)))
        assert np.max(np.abs(out[1, 0])) < np.max(np.abs(Z[1, 0]))

    def test_scalar_surrogate_stationary_variance(self):
        # generator -lam: update z <- e^(-lam dt) z + phi1(-lam dt) q dW
        lam, q, dt, n = 2.0, 0.8, 0.05, 100_000
        a = np.exp(-lam * dt)
        c = (1.0 - a) / (lam * dt)
        rng = np.random.default_rng(42)
        noise = rng.standard_normal(n) * np.sqrt(dt)
        z = np.empty(n)
        cur = 0.0
        for i in range(n):
            cur = a * cur + c * q * noise[i]
            z[i] = cur
        sample = z[2000:]
        target = q * q / (2.0 * lam)
        # variance-of-variance for an AR(1) chain
        se = target * np.sqrt(2.0 * (1 + a * a) / (len(sample) * (1 - a * a)))
        assert abs(sample.var() - target) < 3 * se

    def test_covariance_matches_quadrature_oracle(self, grid8):
        # distributional check at fixed t for one mode: the discrete update
        # covariance against fine Gauss-Legendre quadrature of the continuum
        # integral of exp(s M) v v^T exp(s M^T)
        M = assemble_mode_operator((2 * np.pi, 0.0), grid8)
        n = grid8.nlev
        dt, steps, qk = 1e-4, 100, 0.5
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = dt * M
        aug[n - 1, n] = 1.0
        ex = scipy.linalg.expm(aug)
        E, w = ex[:n, :n], ex[:n, n]
        C = np.zeros((n, n))
        for _ in range(steps):
            C = E @ C @ E.T + np.outer(w, w) * qk * qk * dt
        t_end = dt * steps
        nodes, wts = np.polynomial.legendre.leggauss(120)
        v = np.zeros(n)
        v[-1] = qk
        Cq = np.zeros((n, n))
        for s, wt in zip(0.5 * t_end * (nodes + 1), 0.5 * t_end * wts):
            x = scipy.linalg.expm(s * M) @ v
            Cq += wt * np.outer(x, x)
        assert np.max(np.abs(C - Cq)) < 1e-6


class TestDrivers:
    def test_zero_noise_degeneration_bitwise(self):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02)
        det = run_deterministic(cfg)
        spec = NoiseSpec(sigma=0.0, seed=1)
        split = run_split_stochastic(cfg, spec=spec)
        em = run_direct_em(cfg, spec=spec)
        for driver in (split, em):
            assert np.array_equal(driver.final_state.T, det.final_state.T)
            assert np.array_equal(driver.final_state.rho, det.final_state.rho)
            assert np.array_equal(driver.final_state.v, det.final_state.v)

    def test_pathwise_determinism(self):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.2, noise_seed=9)
        a = run_split_stochastic(cfg)
        b = run_split_stochastic(cfg)
        assert np.array_equal(a.final_state.rho, b.final_state.rho)
        assert np.array_equal(a.z_rho_final, b.z_rho_final)
        c = run_direct_em(cfg)
        d = run_direct_em(cfg)
        assert np.array_equal(c.final_state.rho, d.final_state.rho)

    def test_split_final_state_carries_trace(self):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.3, noise_seed=2)
        res = run_split_stochastic(cfg)
        assert np.array_equal(res.final_state.T[..., -1], res.final_state.rho)

    def test_split_matches_remainder_recurrence_oracle(self):
        # the paper's splitting, built from the physical-space helpers: the
        # remainder takes the deterministic step with the tendencies at the
        # full state, Z its exact convolution step, full = remainder + Z
        cfg = RunConfig(**BASE, dt=1e-3, t_end=5e-3, noise_sigma=0.2, noise_seed=9)
        grid = make_grid(8, 8, 8)
        params = params_from_config(grid, cfg)
        spec = noise_spec_from_config(cfg)
        bundle = wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        q = spec.q_table(grid)
        prop = ConvolutionPropagator(grid, cfg.dt)
        dt = cfg.dt

        full = initial_state_from_config(grid, cfg)
        rem_T, rem_rho = full.T, full.rho
        Z = np.zeros((8, 5, grid.nlev), dtype=complex)
        for k in range(cfg.n_steps()):
            F_v, F_T, F_rho = nonlinear_tendencies(grid, full, params)
            v_star = solve_velocity_implicit(grid, full.v + dt * F_v, dt)
            v_hat, _ = project_barotropic(grid, np.stack([rfft_h(grid, c) for c in v_star]))
            v = np.stack([irfft_h(grid, c) for c in v_hat])
            rem_T, rem_rho = solve_coupled_implicit(grid, rem_T + dt * F_T,
                                                    rem_rho + dt * F_rho, dt)
            Z = prop.step_hat(Z, bundle.increments[k], q)
            T = rem_T + irfft_h(grid, Z)
            full = State(v=v, T=T, rho=T[..., -1].copy(), t=(k + 1) * dt, step=k + 1)

        res = run_split_stochastic(cfg, spec=spec, bundle=bundle)
        for name in ("v", "T", "rho"):
            got, want = getattr(res.final_state, name), getattr(full, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_surface_trace_transport_rejected(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.01,
                        transport="surface_trace")
        with pytest.raises(ValueError, match="vertical_average"):
            run_split_stochastic(cfg, spec=NoiseSpec(sigma=0.1))
        with pytest.raises(ValueError, match="vertical_average"):
            run_direct_em(cfg, spec=NoiseSpec(sigma=0.1))

    def test_bundle_mismatch_rejected(self, grid8):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.01)
        spec = NoiseSpec(sigma=0.1, seed=1)
        short = wiener_increments(grid8, spec, 1e-3, 3)
        with pytest.raises(ValueError, match="bundle"):
            run_split_stochastic(cfg, spec=spec, bundle=short)
        wrong_dt = wiener_increments(grid8, spec, 2e-3, 10)
        with pytest.raises(ValueError, match="bundle"):
            run_direct_em(cfg, spec=spec, bundle=wrong_dt)
        # increments drawn on another grid, or 8x8 increments at full width
        for bundle in (wiener_increments(make_grid(8, 16, 8), spec, 1e-3, 10),
                       wiener_increments(make_grid(16, 8, 8), spec, 1e-3, 10),
                       PathBundle(increments=np.zeros((10, 8, 8), complex), dt=1e-3, seed=1)):
            for driver in (run_split_stochastic, run_direct_em):
                with pytest.raises(ValueError, match="path bundle does not match the run"):
                    driver(cfg, spec=spec, bundle=bundle)

    def test_direct_em_restart_splice_bitwise(self, tmp_path):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, cadence=5,
                        noise_sigma=0.2, noise_seed=9)
        full = run_direct_em(cfg)
        first = run_direct_em(dataclasses.replace(cfg, t_end=0.01))
        snap = tmp_path / "mid.bin"
        write_snapshot(first.final_state, snap)
        resumed, _ = read_snapshot(snap)
        resumed.step = int(round(resumed.t / cfg.dt))
        second = run_direct_em(cfg, initial=resumed)
        assert second.final_state.step == cfg.n_steps()
        for name in ("v", "T", "rho"):
            assert np.array_equal(getattr(full.final_state, name),
                                  getattr(second.final_state, name))
        rows_full = [r.format() for r in diagnostics.rows_from_records(full.csv_records)]
        rows_spliced = [r.format() for r in diagnostics.rows_from_records(
            first.csv_records + second.csv_records)]
        assert rows_full == rows_spliced

    def test_split_resume_rejected(self):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.2)
        resumed = run_split_stochastic(dataclasses.replace(cfg, t_end=0.01)).final_state
        with pytest.raises(ValueError, match="resume"):
            run_split_stochastic(cfg, initial=resumed)

    def test_split_blowup_carries_reassembled_state(self):
        # radiation far beyond its explicit step limit: blow-up after a few steps
        cfg = RunConfig(nx=8, ny=8, nz=8, transport="vertical_average", dt=1.0,
                        t_end=20.0, ic_kind="random_smooth", ic_amplitude=3.0,
                        ic_seed=6, noise_sigma=0.1, noise_seed=3)
        with pytest.raises(BlowUpError) as err:
            run_split_stochastic(cfg)
        last = err.value.last_state
        assert last.step >= 2
        rerun = run_split_stochastic(dataclasses.replace(cfg, t_end=last.step * cfg.dt))
        for name in ("v", "T", "rho"):
            assert np.array_equal(getattr(rerun.final_state, name), getattr(last, name))

    def test_split_convolution_matches_direct_sum_oracle(self):
        # Z after n steps must equal the explicit sum
        # sum_k exp((n-1-k) dt M) phi1(dt M) q dW_k e_rho, with the
        # exponentials and phi1 computed independently per term
        cfg = RunConfig(**BASE, dt=5e-3, t_end=0.05)
        spec = NoiseSpec(sigma=0.4, decay=2.0, seed=31)
        grid = make_grid(8, 8, 8)
        bundle = wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        res = run_split_stochastic(cfg, spec=spec, bundle=bundle)

        i, j = 1, 2  # a mode with invertible generator
        M = assemble_mode_operator(
            (2 * np.pi * grid.kx[i], 2 * np.pi * grid.ky[j]), grid
        )
        n = grid.nlev
        phi1 = np.linalg.solve(cfg.dt * M, scipy.linalg.expm(cfg.dt * M) - np.eye(n))
        q = spec.q_table(grid)[i, j]
        e_rho = np.zeros(n)
        e_rho[-1] = 1.0
        steps = cfg.n_steps()
        Z = np.zeros(n, dtype=complex)
        for k in range(steps):
            propagate = scipy.linalg.expm((steps - 1 - k) * cfg.dt * M)
            Z += propagate @ (phi1 @ e_rho) * q * bundle.increments[k, i, j]
        z_rho_hat = to_spectral(grid, res.z_rho_final)[i, j]
        assert abs(z_rho_hat - Z[-1]) <= 1e-12 * (1 + abs(Z[-1]))

    def test_convolution_mean_unbiased(self):
        # mean of Z_rho over independent seeds stays within sampling error
        grid = make_grid(8, 8, 4)
        prop = ConvolutionPropagator(grid, dt=0.01)
        n_seeds, steps = 200, 20
        finals = np.empty((n_seeds, 8, 8))
        for s in range(n_seeds):
            spec = NoiseSpec(sigma=0.5, decay=2.0, seed=1000 + s)
            bundle = wiener_increments(grid, spec, 0.01, steps)
            q = spec.q_table(grid)
            Z = np.zeros((8, 5, grid.nlev), dtype=complex)
            for k in range(steps):
                Z = prop.step_hat(Z, bundle.increments[k], q)
            finals[s] = irfft_h(grid, Z[..., -1])
        mean = finals.mean(axis=0)
        se = finals.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        assert np.all(np.abs(mean) <= 3.0 * se)
