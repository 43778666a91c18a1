"""Boundary noise: increments, exponential convolution, drivers."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from ebpe import diagnostics, make_grid, project_barotropic, stochastic
from ebpe import grid as grid_mod
from ebpe.config import ConfigError, RunConfig, noise_errors, validate_config
from ebpe.grid import irfft_h, rfft_h, to_spectral
from ebpe.linops import CoupledImplicitSolver, coupled_vertical_matrix, from_eigen, to_eigen
from ebpe.stochastic import (
    ConvolutionPropagator,
    NoiseSpec,
    PathBundle,
    run_direct_em,
    run_split_stochastic,
    wiener_increments,
)
from ebpe.snapshots import read_snapshot, write_snapshot
from ebpe.timestep import (
    BlowUpError,
    RunResult,
    State,
    Stepper,
    run_deterministic,
    start_run,
)

from oracles import (
    as_complex,
    as_pairs,
    assemble_mode_operator,
    physical_tendencies,
    solve_coupled_implicit,
    solve_velocity_implicit,
    wiener_increments_one_shot,
)

BASE = dict(nx=8, ny=8, nz=8, transport="vertical_average",
            ic_kind="random_smooth", ic_amplitude=0.5, ic_seed=5)


def propagator(grid, dt):
    """The noise propagator of a run at step dt, built as the split
    driver builds it, from the step's coupled solver."""
    return ConvolutionPropagator(CoupledImplicitSolver(grid, dt), dt)


def level_step(prop, Z, dW, q):
    """One propagator step of a complex stack Z in level coordinates, taken
    in the eigen coordinates of the coupled basis on its pair spectrum;
    dW is a pair spectrum, as a bundle holds it, and q a `q_table`."""
    zeta = to_eigen(prop.basis, as_pairs(Z))
    return as_complex(from_eigen(prop.basis, prop.step_hat(zeta, dW, q[:, None])))


def dense_convolution_maps(grid, dt):
    """Per-mode (E, w, R) for the half spectrum: E = expm(dt M), w the
    phi1 column expm's augmented matrix gives for e_rho, R = (I - dt M)^-1."""
    n, half = grid.nlev, grid.ny // 2 + 1
    base, eye = coupled_vertical_matrix(grid), np.eye(grid.nlev)
    E, R = np.empty((grid.nx, half, n, n)), np.empty((grid.nx, half, n, n))
    w = np.empty((grid.nx, half, n))
    for i in range(grid.nx):
        for j in range(half):
            M = base - grid.xi2[i, j] * eye
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = dt * M
            aug[n - 1, n] = 1.0
            ex = scipy.linalg.expm(aug)
            E[i, j], w[i, j] = ex[:n, :n], ex[:n, n]
            R[i, j] = np.linalg.inv(eye - dt * M)
    return E, w, R


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, decay=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["sigma", "decay"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"noise {field} must be finite"):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("sigma, decay", [(-0.1, 2.0), (0.1, 1.5), (-1.0, 1.0),
                                              (np.nan, 2.0), (0.1, np.inf), (-np.inf, 0.5)])
    def test_rules_and_messages_are_the_configs(self, sigma, decay):
        # NoiseSpec and validate_config state the noise rules once, in
        # config.noise_errors: the same messages for the same values
        cfg = RunConfig(transport="vertical_average", noise_sigma=sigma, noise_decay=decay)
        with pytest.raises(ConfigError) as parsed:
            validate_config(cfg)
        with pytest.raises(ValueError) as spec:
            NoiseSpec(sigma=sigma, decay=decay)
        want = noise_errors(sigma, decay)
        assert want and str(spec.value) == "\n".join(want)
        assert [m for m in parsed.value.messages if m.startswith("noise")] == want

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

    @pytest.mark.parametrize("shape, n_steps", [
        ((8, 8, 4), 5000), ((8, 16, 4), 1025), ((64, 64, 4), 33), ((64, 64, 4), 1)])
    def test_chunked_draws_equal_one_shot(self, shape, n_steps):
        # sequential draws from one generator and per-plane transforms: the
        # chunks (2048 steps at 8x8, 32 at 64x64) change no bit
        grid = make_grid(*shape)
        spec = NoiseSpec(sigma=1.0, seed=17)
        bundle = wiener_increments(grid, spec, 1e-3, n_steps)
        assert np.array_equal(bundle.increments,
                              as_pairs(wiener_increments_one_shot(grid, spec, 1e-3, n_steps),
                                       plane=True))

    def test_peak_memory_near_the_stored_bundle(self):
        # 64^2 x 200 steps stores 6.8 MB; the one-shot form peaks at 32.8 MB
        grid = make_grid(64, 64, 4)
        tracemalloc.start()
        try:
            bundle = wiener_increments(grid, NoiseSpec(seed=1), 1e-3, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bundle.increments.nbytes + 10 * 2**20

    def test_variances_within_three_sigma(self, grid8):
        n, dt = 100_000, 0.02
        bundle = wiener_increments(grid8, NoiseSpec(sigma=1.0, seed=12), dt, n)
        w = as_complex(bundle.increments, plane=True)
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
        assert bundle.increments.shape == (4, 8, 2, 5) and bundle.increments.dtype == float
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
        # the solver's dt differs from the noise step: the propagator reads
        # only the solver's dt-free eigenbasis
        prop = ConvolutionPropagator(CoupledImplicitSolver(grid8, 1e-3), dt)
        n = grid8.nlev
        base = coupled_vertical_matrix(grid8)
        Z = rng.standard_normal((8, 5, n)) + 1j * rng.standard_normal((8, 5, n))
        dW = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        q = NoiseSpec().q_table(grid8)
        # the exponential and the injected phi1 column, each on its own;
        # relative to the whole array, since on strongly damped modes
        # (|E Z| ~ 1e-22) expm's own per-mode error reaches 1e-12
        propagated = level_step(prop, Z, np.zeros((8, 2, 5)), q)
        injected = level_step(prop, np.zeros_like(Z), as_pairs(dW), q)
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
            level_step(prop, full, np.zeros((8, 2, 8)), np.zeros((8, 8)))

    def test_reads_the_coupled_solvers_eigenbasis(self, grid8, monkeypatch):
        coupled = CoupledImplicitSolver(grid8, 1e-3)

        def forbidden(a):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", forbidden)
        prop = ConvolutionPropagator(coupled, 0.05)
        assert prop.basis is coupled.basis

    def test_kernel_mode_invariant_without_noise(self, grid8):
        prop = propagator(grid8, dt=0.05)
        Z = np.zeros((8, 5, grid8.nlev), dtype=complex)
        Z[0, 0, :] = 2.0  # constant stack on the mean mode: kernel of the operator
        out = level_step(prop, Z, np.zeros((8, 2, 5)), np.zeros((8, 5)))
        assert np.max(np.abs(out - Z)) < 1e-13

    def test_deterministic_decay_without_noise(self, grid8):
        prop = propagator(grid8, dt=0.05)
        Z = np.zeros((8, 5, grid8.nlev), dtype=complex)
        Z[1, 0, :] = 1.0
        out = level_step(prop, Z, np.zeros((8, 2, 5)), np.zeros((8, 5)))
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
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.0, noise_seed=1)
        det = run_deterministic(cfg)
        split = run_split_stochastic(cfg)
        em = run_direct_em(cfg)
        for driver in (split, em):
            assert np.array_equal(driver.final_state.T, det.final_state.T)
            assert np.array_equal(driver.final_state.rho, det.final_state.rho)
            assert np.array_equal(driver.final_state.v, det.final_state.v)

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("driver", [run_deterministic, run_split_stochastic, run_direct_em])
    def test_one_eig_call_per_vertical_matrix(self, driver, freeze, monkeypatch, cold_caches):
        # the coupled and the Neumann matrix, or the coupled one alone under a
        # frozen velocity; the split driver's propagator reads the step's
        cfg = RunConfig(**BASE, dt=1e-3, t_end=2e-3, freeze_velocity=freeze,
                        noise_sigma=0.0 if driver is run_deterministic else 0.2)
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        assert driver(cfg).final_state.step == 2
        assert calls == [(9, 9)] * (1 if freeze else 2)

    def test_shared_path_pair_builds_one_grid_and_two_eigenbases(self, monkeypatch,
                                                                  cold_caches):
        # the shape of criterion 10: a bundle drawn on the grid, then both
        # drivers on it; from cold caches one grid and one eig per vertical
        # matrix, and none of either for a second pair
        cfg = RunConfig(**BASE, dt=1e-3, t_end=2e-3, noise_sigma=0.2)
        calls, grids = [], []
        eig, post_init = np.linalg.eig, grid_mod.Grid.__post_init__

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        def counting_grid(self):
            grids.append((self.nx, self.ny, self.nz))
            post_init(self)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        monkeypatch.setattr(grid_mod.Grid, "__post_init__", counting_grid)
        for expected_calls, expected_grids in (([(9, 9)] * 2, [(8, 8, 8)]), ([], [])):
            calls.clear()
            grids.clear()
            grid = make_grid(cfg.nx, cfg.ny, cfg.nz)
            bundle = wiener_increments(grid, NoiseSpec(sigma=0.2), cfg.dt, cfg.n_steps())
            assert run_split_stochastic(cfg, bundle=bundle).final_state.step == 2
            assert run_direct_em(cfg, bundle=bundle).final_state.step == 2
            assert calls == expected_calls and grids == expected_grids

    def test_kicks_equal_the_stacked_form(self, monkeypatch):
        # both kicks build q dW's pairs in one multiply; over 20 steps they
        # equal q times dW's parts stacked on the re/im axis, bit for bit
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.2, noise_seed=6)
        seen = {}

        def recording_integrate(cfg, stepper, state, kick):
            seen["stepper"] = stepper
            seen["kicks"] = [kick(dataclasses.replace(state, step=k)).copy() for k in range(20)]
            return RunResult(final_state=state, ledger=[], csv_records=[])

        monkeypatch.setattr(stochastic, "integrate", recording_integrate)
        grid = make_grid(8, 8, 8)
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        increments = as_complex(wiener_increments(grid, spec, cfg.dt, cfg.n_steps()).increments,
                                plane=True)
        q = spec.q_table(grid)
        stacked = [np.stack((q * dW.real, q * dW.imag), axis=1) for dW in increments]
        run_direct_em(cfg)
        for k, kick in enumerate(seen["kicks"]):
            assert np.array_equal(kick[..., -1], stacked[k]) and not kick[..., :-1].any(), k
        run_split_stochastic(cfg)
        prop = ConvolutionPropagator(seen["stepper"].coupled, cfg.dt)
        d = seen["stepper"].coupled.d
        zeta = np.zeros((8, 2, 5, grid.nlev))
        for k, kick in enumerate(seen["kicks"]):
            zeta_n, zeta = zeta, prop.decay * zeta + prop.phi1_rho * stacked[k][..., None]
            assert np.array_equal(kick, from_eigen(prop.basis, zeta - d * zeta_n)), k

    def test_pathwise_determinism(self):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.2, noise_seed=9)
        a = run_split_stochastic(cfg)
        b = run_split_stochastic(cfg)
        assert np.array_equal(a.final_state.rho, b.final_state.rho)
        assert np.array_equal(a.z_rho_final, b.z_rho_final)
        c = run_direct_em(cfg)
        d = run_direct_em(cfg)
        assert np.array_equal(c.final_state.rho, d.final_state.rho)

    @pytest.mark.parametrize("driver", [run_split_stochastic, run_direct_em])
    def test_given_spec_and_bundle_change_no_bit(self, driver):
        # the stoch-8 call pattern: the config's spec and a bundle drawn with
        # it give the run that draws its own, bit for bit
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, noise_sigma=0.2, noise_seed=9)
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        bundle = wiener_increments(make_grid(8, 8, 8), spec, cfg.dt, cfg.n_steps())
        alone, given = driver(cfg), driver(cfg, spec=spec, bundle=bundle)
        assert np.array_equal(alone.final_state.fields, given.final_state.fields)
        assert alone.ledger == given.ledger
        assert np.array_equal(alone.z_rho_final, given.z_rho_final)

    def test_split_matches_remainder_recurrence_oracle(self):
        # the paper's splitting, built from the physical-space helpers: the
        # remainder takes the deterministic step with the tendencies at the
        # full state, Z its exact convolution step, full = remainder + Z
        cfg = RunConfig(**BASE, dt=1e-3, t_end=5e-3, noise_sigma=0.2, noise_seed=9)
        grid = make_grid(8, 8, 8)
        stepper, full = start_run(cfg)
        params = stepper.params
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        bundle = wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        q = spec.q_table(grid)
        prop = propagator(grid, cfg.dt)
        dt = cfg.dt

        rem_T, rem_rho = full.T, full.rho
        Z = np.zeros((8, 5, grid.nlev), dtype=complex)
        for k in range(cfg.n_steps()):
            F_v, F_T, F_rho = physical_tendencies(grid, full, params)
            v_star = solve_velocity_implicit(grid, full.v + dt * F_v, dt)
            v_hat, _ = project_barotropic(grid, np.stack([rfft_h(grid, c) for c in v_star]))
            v = np.stack([irfft_h(grid, c) for c in v_hat])
            rem_T, rem_rho = solve_coupled_implicit(grid, rem_T + dt * F_T,
                                                    rem_rho + dt * F_rho, dt)
            Z = level_step(prop, Z, bundle.increments[k], q)
            T = rem_T + irfft_h(grid, as_pairs(Z))
            full = State.pack(v, T, t=(k + 1) * dt, step=k + 1)

        res = run_split_stochastic(cfg, spec=spec, bundle=bundle)
        for name in ("v", "T", "rho"):
            got, want = getattr(res.final_state, name), getattr(full, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_surface_trace_transport_rejected(self):
        cfg = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.01,
                        transport="surface_trace")
        with pytest.raises(ValueError, match="vertical_average"):
            run_split_stochastic(cfg)
        with pytest.raises(ValueError, match="vertical_average"):
            run_direct_em(cfg)

    def test_bundle_mismatch_rejected(self, grid8):
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.01, noise_sigma=0.1, noise_seed=1)
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        short = wiener_increments(grid8, spec, 1e-3, 3)
        with pytest.raises(ValueError, match="bundle"):
            run_split_stochastic(cfg, spec=spec, bundle=short)
        wrong_dt = wiener_increments(grid8, spec, 2e-3, 10)
        with pytest.raises(ValueError, match="bundle"):
            run_direct_em(cfg, spec=spec, bundle=wrong_dt)
        # increments drawn on another grid, 8x8 increments at full width,
        # complex half spectra, or complex values in the pair layout
        for bundle in (wiener_increments(make_grid(8, 16, 8), spec, 1e-3, 10),
                       wiener_increments(make_grid(16, 8, 8), spec, 1e-3, 10),
                       PathBundle(increments=np.zeros((10, 8, 2, 8)), dt=1e-3, seed=1),
                       PathBundle(increments=np.zeros((10, 8, 5), complex), dt=1e-3, seed=1),
                       PathBundle(increments=np.zeros((10, 8, 2, 5), complex), dt=1e-3, seed=1)):
            for driver in (run_split_stochastic, run_direct_em):
                with pytest.raises(ValueError, match="path bundle does not match the run"):
                    driver(cfg, spec=spec, bundle=bundle)

    @staticmethod
    def restart_splice(driver, tmp_path):
        """A 20-step run, and the same run as 10 steps, a snapshot of the
        last state, read back with its step set from t/dt, and 10 more
        steps (cadence 5, so the split is on a CSV row); the splice's
        fields and CSV rows are the whole run's, bit for bit."""
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.02, cadence=5,
                        noise_sigma=0.2, noise_seed=9)
        full = driver(cfg)
        first = driver(dataclasses.replace(cfg, t_end=0.01))
        snap = tmp_path / "mid.bin"
        write_snapshot(first.final_state, snap)
        resumed, _ = read_snapshot(snap)
        resumed.step = int(round(resumed.t / cfg.dt))
        second = driver(cfg, initial=resumed)
        assert second.final_state.step == cfg.n_steps()
        for name in ("v", "T", "rho"):
            assert np.array_equal(getattr(full.final_state, name),
                                  getattr(second.final_state, name))
        assert (diagnostics.format_csv(full.csv_records)
                == diagnostics.format_csv(first.csv_records + second.csv_records))
        return full, second

    def test_direct_em_restart_splice_bitwise(self, tmp_path):
        self.restart_splice(run_direct_em, tmp_path)

    def test_split_restart_splice_bitwise(self, tmp_path):
        # the resumed run replays the convolution over the first 10 steps
        full, second = self.restart_splice(run_split_stochastic, tmp_path)
        assert np.array_equal(full.z_rho_final, second.z_rho_final)

    @pytest.mark.parametrize("driver", [run_split_stochastic, run_direct_em])
    def test_kick_writes_one_stack_per_run(self, driver, monkeypatch):
        # every step's kick is the run's one stack, rewritten
        cfg = RunConfig(**BASE, dt=1e-3, t_end=5e-3, noise_sigma=0.2, noise_seed=6)
        kicks, step = [], Stepper.step

        def recording_step(self, state, kick_hat=None, terms=None):
            kicks.append(kick_hat)
            return step(self, state, kick_hat=kick_hat, terms=terms)

        monkeypatch.setattr(Stepper, "step", recording_step)
        driver(cfg)
        assert len(kicks) == 5 and all(kick is kicks[0] for kick in kicks)

    @pytest.mark.parametrize("driver", [run_deterministic, run_split_stochastic, run_direct_em])
    def test_blowup_carries_last_measured_state(self, driver):
        # radiation far beyond its explicit step limit: blow-up after a few
        # steps; the error carries the state the failing step was given
        cfg = RunConfig(nx=8, ny=8, nz=8, transport="vertical_average", dt=1.0,
                        t_end=20.0, ic_kind="random_smooth", ic_amplitude=3.0,
                        ic_seed=6, noise_sigma=0.1, noise_seed=3)
        if driver is run_deterministic:
            cfg = dataclasses.replace(cfg, noise_sigma=0.0)
        with pytest.raises(BlowUpError) as err:
            driver(cfg)
        last = err.value.last_state
        assert last.step >= 2
        rerun = driver(dataclasses.replace(cfg, t_end=last.step * cfg.dt))
        for name in ("v", "T", "rho"):
            assert np.array_equal(getattr(rerun.final_state, name), getattr(last, name))

    def test_split_convolution_matches_direct_sum_oracle(self):
        # Z after n steps must equal the explicit sum
        # sum_k exp((n-1-k) dt M) phi1(dt M) q dW_k e_rho, with the
        # exponentials and phi1 computed independently per term
        cfg = RunConfig(**BASE, dt=5e-3, t_end=0.05, noise_sigma=0.4, noise_decay=2.0,
                        noise_seed=31)
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        grid = make_grid(8, 8, 8)
        bundle = wiener_increments(grid, spec, cfg.dt, cfg.n_steps())
        res = run_split_stochastic(cfg, spec=spec, bundle=bundle)
        increments = as_complex(bundle.increments, plane=True)

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
            Z += propagate @ (phi1 @ e_rho) * q * increments[k, i, j]
        z_rho_hat = to_spectral(grid, res.z_rho_final)[i, j]
        assert abs(z_rho_hat - Z[-1]) <= 1e-12 * (1 + abs(Z[-1]))

    def test_split_kicks_match_dense_level_recurrence(self, monkeypatch):
        # the driver carries Z in eigen coordinates, zeta = V^-1 Z; its kicks
        # V(zeta_{n+1} - d zeta_n) over 100 steps against the level-coordinate
        # Z_{n+1} = E Z_n + w q dW_n and Z_{n+1} - R Z_n of dense matrices
        cfg = RunConfig(**BASE, dt=1e-3, t_end=0.1, noise_sigma=0.2, noise_seed=4)
        kicks = []

        def recording_integrate(cfg, stepper, state, kick):
            kicks.extend(kick(dataclasses.replace(state, step=k)).copy()
                         for k in range(cfg.n_steps()))
            return RunResult(final_state=state, ledger=[], csv_records=[])

        monkeypatch.setattr(stochastic, "integrate", recording_integrate)
        res = run_split_stochastic(cfg)
        assert len(kicks) == 100
        grid = make_grid(8, 8, 8)
        spec = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
        increments = as_complex(wiener_increments(grid, spec, cfg.dt, cfg.n_steps()).increments,
                                plane=True)
        q = spec.q_table(grid)
        E, w, R = dense_convolution_maps(grid, cfg.dt)
        Z = np.zeros((8, 5, grid.nlev), dtype=complex)
        for k, kick in enumerate(kicks):
            Z_next = (np.einsum("ijab,ijb->ija", E, Z)
                      + w * (q * increments[k])[:, :, None])
            want = Z_next - np.einsum("ijab,ijb->ija", R, Z)
            # relative to the terms of the difference, which cancel
            assert np.max(np.abs(as_complex(kick) - want)) <= 1e-13 * np.max(np.abs(Z_next)), k
            Z = Z_next
        z_rho = irfft_h(grid, as_pairs(Z[..., -1]))
        assert np.max(np.abs(res.z_rho_final - z_rho)) <= 1e-13 * np.max(np.abs(z_rho))

    def test_convolution_mean_unbiased(self):
        # mean of Z_rho over independent seeds stays within sampling error
        grid = make_grid(8, 8, 4)
        prop = propagator(grid, dt=0.01)
        n_seeds, steps = 200, 20
        finals = np.empty((n_seeds, 8, 8))
        for s in range(n_seeds):
            spec = NoiseSpec(sigma=0.5, decay=2.0, seed=1000 + s)
            bundle = wiener_increments(grid, spec, 0.01, steps)
            q = spec.q_table(grid)
            Z = np.zeros((8, 5, grid.nlev), dtype=complex)
            for k in range(steps):
                Z = level_step(prop, Z, bundle.increments[k], q)
            finals[s] = irfft_h(grid, as_pairs(Z[..., -1]))
        mean = finals.mean(axis=0)
        se = finals.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        assert np.all(np.abs(mean) <= 3.0 * se)
