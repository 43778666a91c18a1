"""Acceptance suite.

One test per criterion, each printing a PASS line with its measured
quantities (visible under pytest -s or in the captured output).  Every
run is reproducible from a committed configuration file in configs/.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ebpe import cli, diagnostics, make_grid
from ebpe.config import parse_config
from ebpe.linops import (
    CoupledImplicitSolver,
    VelocityImplicitSolver,
    neumann_vertical_matrix,
    spectrum_report,
)
from ebpe.monitors import mms_spatial_study, mms_temporal_study
from ebpe.snapshots import read_snapshot, write_snapshot
from ebpe.stochastic import (
    NoiseSpec,
    run_direct_em,
    run_split_stochastic,
    wiener_increments,
)
from ebpe.timestep import run_deterministic

from conftest import record_w_top, solve_one_mode
from oracles import assemble_mode_operator, dtn_symbols

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load(name):
    return parse_config((CONFIGS / name).read_text())


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def ls_order(scales, errors):
    return float(np.polyfit(np.log(scales), np.log(errors), 1)[0])


def test_criterion_01_dtn_symbol_convergence():
    t0 = time.perf_counter()
    ladder = (8, 16, 32, 64)
    modes = [(1, 0), (2, 1), (3, 3)]
    orders = {}
    err_at_64 = {}
    for k1, k2 in modes:
        xi = 2 * np.pi * np.hypot(k1, k2)
        exact = xi * np.tanh(xi)
        errs = []
        for nz in ladder:
            grid = make_grid(8, 8, nz)
            idx = (list(grid.kx).index(k1), list(grid.ky).index(k2))
            errs.append(abs(dtn_symbols(grid)[idx] - exact))
        assert all(errs[i] > errs[i + 1] for i in range(3)), \
            f"errors not monotone at k={(k1, k2)}: {errs}"
        # the coarsest rung under-resolves the |xi| = 26.7 boundary layer
        # (3+ spacings per layer width), so the rate is fit on the
        # asymptotic rungs; the full ladder enters the monotonicity check
        order = ls_order([1 / n for n in ladder[1:]], errs[1:])
        assert order >= 1.9, f"order {order:.3f} at k={(k1, k2)}"
        orders[(k1, k2)] = order
        err_at_64[(k1, k2)] = errs[-1]
    assert err_at_64[(1, 0)] <= 5e-3
    report(1, f"orders={ {k: round(v, 2) for k, v in orders.items()} }, "
              f"|err|@Nz=64,k=(1,0)={err_at_64[(1, 0)]:.2e} <= 5e-3, "
              f"runtime={time.perf_counter() - t0:.2f}s")


def test_criterion_02_sectoriality():
    t0 = time.perf_counter()
    grid = make_grid(16, 16, 16)
    rep = spectrum_report(grid, omega=1.0)
    min_re = rep.min_real_part()
    assert min_re >= -1e-10
    assert rep.phi_hat < np.pi / 2
    report(2, f"{len(rep.modes)} modes, min Re={min_re:.3e} >= -1e-10, "
              f"phi_hat={rep.phi_hat:.4f} < pi/2={np.pi / 2:.4f}, "
              f"runtime={time.perf_counter() - t0:.2f}s")


def test_criterion_03_solver_oracles():
    t0 = time.perf_counter()
    grid = make_grid(8, 8, 8)
    rng = np.random.default_rng(2024)
    base_n = neumann_vertical_matrix(grid)
    worst_c = worst_v = 0.0
    for _ in range(50):
        i, j = rng.integers(0, 8, 2)
        dt = 10.0 ** rng.uniform(-4, 0)
        rhs = rng.standard_normal(grid.nlev) + 1j * rng.standard_normal(grid.nlev)

        xi = (2 * np.pi * grid.kx[i], 2 * np.pi * grid.ky[j])
        A = np.eye(grid.nlev) - dt * assemble_mode_operator(xi, grid)
        oracle = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
        ours = solve_one_mode(CoupledImplicitSolver(grid, dt), i, j, rhs)
        worst_c = max(worst_c, np.linalg.norm(ours - oracle) / np.linalg.norm(oracle))

        Av = np.eye(grid.nlev) - dt * (base_n - grid.xi2[i, j] * np.eye(grid.nlev))
        oracle_v = scipy.linalg.lu_solve(scipy.linalg.lu_factor(Av), rhs)
        ours_v = solve_one_mode(VelocityImplicitSolver(grid, dt), i, j, rhs)
        worst_v = max(worst_v, np.linalg.norm(ours_v - oracle_v) / np.linalg.norm(oracle_v))
    assert worst_c <= 1e-12
    assert worst_v <= 1e-12
    report(3, f"50 triples each: coupled rel err {worst_c:.2e}, "
              f"velocity rel err {worst_v:.2e} <= 1e-12, "
              f"runtime={time.perf_counter() - t0:.2f}s")


def test_criterion_04_constraint_suite(monkeypatch):
    t0 = time.perf_counter()
    cfg = load("accept_det.ini")
    assert cfg.n_steps() == 500
    w_top = record_w_top(monkeypatch)  # constraint_check's w(., 1) of every state
    res = run_deterministic(cfg)
    assert len(w_top) == len(res.ledger)
    final = res.final_state
    # the trace condition holds by construction: rho is T's top level
    assert np.shares_memory(final.rho, final.T)
    assert np.array_equal(final.rho, final.T[..., -1])
    worst = {"div": max(rec.div_res for rec in res.ledger), "w_top": max(w_top)}
    sup_v = float(np.max(np.abs(final.v)))
    assert worst["div"] <= 1e-10 * (1 + sup_v)
    assert worst["w_top"] <= 1e-10 * (1 + sup_v)
    report(4, f"500 steps at (16,16,16): trace exact (rho is a view of T's top level), "
              f"div {worst['div']:.2e}, w(1) {worst['w_top']:.2e} "
              f"<= 1e-10*(1+|v|), runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_05_maximum_principle():
    t0 = time.perf_counter()
    base = load("accept_det.ini")
    bound = base.beta2 ** 0.25
    tol = 1e-6 + 10 * base.dt * (1 + base.beta2 ** 0.75)
    worst = 0.0
    for seed in range(1, 6):
        cfg = base.with_seed(seed)
        res = run_deterministic(cfg)
        rec0 = res.ledger[0]
        assert max(rec0.sup_T, rec0.sup_rho) <= bound * (1 + 1e-12)
        run_sup = max(max(r.sup_T, r.sup_rho) for r in res.ledger)
        worst = max(worst, run_sup)
        assert run_sup <= bound + tol, f"seed {seed}: {run_sup} > {bound}+{tol}"
    report(5, f"5 seeds, 500 steps: max sup {worst:.6f} <= "
              f"beta2^(1/4)+tol = {bound + tol:.6f}, "
              f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_06_pure_diffusion_decay():
    t0 = time.perf_counter()
    cfg = load("accept_diffusion.ini")
    assert cfg.n_steps() == 200
    res = run_deterministic(cfg)
    E = np.array([r.energy for r in res.ledger])
    ratios = E[1:] / E[:-1]
    assert np.all(ratios <= 1 + 1e-14)
    report(6, f"200 steps: E0 nonincreasing, max step ratio "
              f"{ratios.max():.15f} <= 1+1e-14, "
              f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_07_mms_convergence():
    t0 = time.perf_counter()
    spatial = mms_spatial_study(nz_ladder=(8, 16, 32), dt=1e-5, t_end=0.01)
    assert spatial.order >= 1.9
    temporal = mms_temporal_study(dt_ladder=(1 / 40, 1 / 80, 1 / 160),
                                  nx=16, ny=16, nz=16, t_end=0.5)
    assert temporal.order >= 0.9
    report(7, f"spatial order {spatial.order:.3f} >= 1.9 "
              f"(errors {['%.2e' % e for e in spatial.errors]}), "
              f"temporal order {temporal.order:.3f} >= 0.9 "
              f"(errors {['%.2e' % e for e in temporal.errors]}), "
              f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_08_zero_noise_degeneration():
    t0 = time.perf_counter()
    cfg = dataclasses.replace(load("accept_stoch.ini"), noise_sigma=0.0)
    assert cfg.t_end == pytest.approx(0.1)
    det = run_deterministic(cfg)
    spec = NoiseSpec(sigma=0.0, seed=cfg.noise_seed)
    worst = 0.0
    for driver in (run_split_stochastic, run_direct_em):
        out = driver(cfg, spec=spec)
        for a, b in ((out.final_state.T, det.final_state.T),
                     (out.final_state.rho, det.final_state.rho),
                     (out.final_state.v, det.final_state.v)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12
    report(8, f"split and direct at sigma=0 reproduce the deterministic "
              f"driver to {worst:.1e} <= 1e-12 at t=0.1, "
              f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_09_ornstein_uhlenbeck_law():
    t0 = time.perf_counter()
    # scalar surrogate: stationary variance of the exponential update
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
    target = q * q / (2 * lam)
    se = target * np.sqrt(2 * (1 + a * a) / (len(sample) * (1 - a * a)))
    dev = abs(sample.var() - target)
    assert dev < 3 * se

    # full-mode covariance against the quadrature oracle
    grid = make_grid(8, 8, 8)
    M = assemble_mode_operator((2 * np.pi, 0.0), grid)
    nlev = grid.nlev
    dtc, steps, qk = 1e-4, 100, 0.5
    aug = np.zeros((nlev + 1, nlev + 1))
    aug[:nlev, :nlev] = dtc * M
    aug[nlev - 1, nlev] = 1.0
    ex = scipy.linalg.expm(aug)
    E, w = ex[:nlev, :nlev], ex[:nlev, nlev]
    C = np.zeros((nlev, nlev))
    for _ in range(steps):
        C = E @ C @ E.T + np.outer(w, w) * qk * qk * dtc
    t_end = dtc * steps
    nodes, wts = np.polynomial.legendre.leggauss(120)
    v = np.zeros(nlev)
    v[-1] = qk
    Cq = np.zeros((nlev, nlev))
    for s, wt in zip(0.5 * t_end * (nodes + 1), 0.5 * t_end * wts):
        x = scipy.linalg.expm(s * M) @ v
        Cq += wt * np.outer(x, x)
    cov_err = float(np.max(np.abs(C - Cq)))
    assert cov_err <= 1e-6
    report(9, f"stationary variance dev {dev:.2e} < 3se={3 * se:.2e}; "
              f"covariance vs quadrature {cov_err:.2e} <= 1e-6, "
              f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_10_split_vs_direct_coupling():
    t0 = time.perf_counter()
    base = load("accept_stoch.ini")
    t_end = 0.5
    dts = (1 / 100, 1 / 200, 1 / 400)
    grid = make_grid(base.nx, base.ny, base.nz)
    seeds = (7, 11, 23)
    coupling = np.zeros((len(seeds), len(dts)))
    self_conv = np.zeros((len(seeds), len(dts)))
    for si, seed in enumerate(seeds):
        spec = NoiseSpec(sigma=0.1, decay=2.0, seed=seed)
        master = wiener_increments(grid, spec, 1 / 6400, int(round(t_end * 6400)))
        for di, dt in enumerate(dts):
            cfg = dataclasses.replace(base, dt=dt, t_end=t_end, noise_seed=seed)
            bundle = master.coarsen(int(round(dt * 6400)))
            split = run_split_stochastic(cfg, spec=spec, bundle=bundle)
            em = run_direct_em(cfg, spec=spec, bundle=bundle)
            coupling[si, di] = np.sqrt(np.mean(
                (split.final_state.rho - em.final_state.rho) ** 2))
            cfg_ref = dataclasses.replace(cfg, dt=dt / 16)
            ref = run_split_stochastic(
                cfg_ref, spec=spec, bundle=master.coarsen(int(round(dt / 16 * 6400))))
            self_conv[si, di] = np.sqrt(np.mean(
                (split.final_state.rho - ref.final_state.rho) ** 2))
    mean_coupling = coupling.mean(axis=0)
    mean_self = self_conv.mean(axis=0)
    assert all(mean_coupling[i] > mean_coupling[i + 1] for i in range(len(dts) - 1))
    order_coupling = ls_order(dts, mean_coupling)
    order_self = ls_order(dts, mean_self)
    assert order_coupling >= 0.4
    assert order_self >= 0.9
    report(10, f"shared-path dt ladder {[f'1/{int(1/d)}' for d in dts]}: "
               f"|rho_split-rho_EM| {['%.2e' % e for e in mean_coupling]} "
               f"monotone, order {order_coupling:.2f} >= 0.4; "
               f"split self-convergence order {order_self:.2f} >= 0.9, "
               f"runtime={time.perf_counter() - t0:.1f}s")


def test_criterion_11_determinism_and_restart(tmp_path):
    t0 = time.perf_counter()
    cfgp = CONFIGS / "accept_restart.ini"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out2)]) == 0
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    assert csv1 == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "state_final.bin").read_bytes() == (out2 / "state_final.bin").read_bytes()

    cfg = load("accept_restart.ini")
    full = run_deterministic(cfg)
    first = run_deterministic(dataclasses.replace(cfg, t_end=0.05))
    snap = tmp_path / "mid.bin"
    write_snapshot(first.final_state, snap)
    resumed, _ = read_snapshot(snap)
    resumed.step = int(round(resumed.t / cfg.dt))
    second = run_deterministic(cfg, initial=resumed)
    assert (diagnostics.format_csv(full.csv_records)
            == diagnostics.format_csv(first.csv_records + second.csv_records))
    assert np.array_equal(full.final_state.T, second.final_state.T)
    assert np.array_equal(full.final_state.v, second.final_state.v)
    assert np.array_equal(full.final_state.rho, second.final_state.rho)
    report(11, f"repeated runs byte-identical; restart splicing reproduces "
               f"all {len(full.csv_records)} diagnostics rows bit for bit, "
               f"runtime={time.perf_counter() - t0:.1f}s")
