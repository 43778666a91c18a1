"""Per-mode operators: harmonic extension, boundary flux symbol, implicit
solves against dense LU oracles, similarity transform, spectrum."""

import numpy as np
import pytest
import scipy.linalg

from ebpe import make_grid, spectrum_report
from ebpe.grid import irfft_h, rfft_h
from ebpe.hydrostatic import trapz_weights
from ebpe.stochastic import ConvolutionPropagator
from ebpe.linops import (
    TOP_FLUX_STENCIL,
    CoupledImplicitSolver,
    SolveError,
    VelocityImplicitSolver,
    coupled_vertical_matrix,
    eigenbasis,
    neumann_vertical_matrix,
    retained_modes,
    stack_fields_hat,
)

from conftest import smooth_field_2d, solve_one_mode
from oracles import (
    assemble_mode_operator,
    dirichlet_inverse_column,
    dirichlet_map,
    dtn_apply,
    dtn_symbols,
    similarity_split,
    similarity_unsplit,
)


class TestModeOperator:
    def test_constants_in_kernel_at_mean_mode(self, grid8):
        op = assemble_mode_operator((0.0, 0.0), grid8)
        x = np.full(grid8.nlev, 2.5)
        assert np.max(np.abs(op @ x)) < 1e-11

    def test_interior_rows_match_laplacian_of_cos(self):
        grid = make_grid(8, 8, 16)
        op = assemble_mode_operator((0.0, 0.0), grid)
        stack = np.cos(np.pi * grid.z)  # d/dz vanishes at z=0; trace at top
        out = op @ stack
        exact = -np.pi**2 * np.cos(np.pi * grid.z)
        # rows 0..Nz-1 discretize the vertical Laplacian (bottom row via ghost)
        err = np.max(np.abs(out[: grid.nz] - exact[: grid.nz]))
        assert err < np.pi**4 / 12 * grid.dz**2 * 1.5

    def test_dissipative_spectrum_dense_oracle(self):
        grid = make_grid(8, 8, 16)
        op = assemble_mode_operator((2 * np.pi, 0.0), grid)
        ev = np.linalg.eigvals(-op)
        assert ev.real.min() >= -1e-10


class TestDirichletMap:
    def test_mean_mode_constant_extension(self, grid8):
        theta = dirichlet_map(grid8, np.full((8, 8), 1.75))
        assert np.max(np.abs(theta - 1.75)) < 1e-12

    def test_top_row_reproduces_data(self, grid8, rng):
        phi = smooth_field_2d(grid8, rng)
        theta = dirichlet_map(grid8, phi)
        assert np.max(np.abs(theta[..., -1] - phi)) <= 1e-13 * (1 + np.max(np.abs(phi)))

    def test_cosh_profile_second_order(self):
        # continuum ratio at the bottom: 1/cosh(2 pi) = 3.7348e-3
        exact = 1.0 / np.cosh(2 * np.pi)
        errs = []
        for nz in (8, 16):
            grid = make_grid(8, 8, nz)
            theta = dirichlet_map(grid, np.cos(2 * np.pi * grid.x))
            ratio = theta[0, 0, 0] / np.cos(0.0)
            errs.append(abs(ratio - exact))
        assert errs[0] < 2e-3
        assert errs[1] < errs[0] / 3.0  # at least second order


class TestDtN:
    def test_mean_mode_zero(self, grid8):
        sym = dtn_symbols(grid8)
        assert sym[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("nz", [8, 16, 32, 64, 128])
    def test_mean_mode_exactly_zero(self, nz):
        grid = make_grid(8, 8, nz)
        sym = dtn_symbols(grid)
        assert sym[0, 0] == 0.0
        # every other mode is the contraction with the stored stencil
        stored = dirichlet_inverse_column(grid)[..., -5:] @ TOP_FLUX_STENCIL[::-1] / grid.dz
        others = np.ones(sym.shape, dtype=bool)
        others[0, 0] = False
        assert np.all(np.abs(sym - stored)[others] <= 1e-12 * np.abs(stored[others]))

    def test_first_mode_symbol(self, grid8):
        exact = 2 * np.pi * np.tanh(2 * np.pi)
        assert exact == pytest.approx(6.283141484095905, rel=1e-12)
        assert abs(dtn_symbols(grid8)[1, 0] - exact) < 0.3  # Nz=8 resolution

    def test_second_order_convergence_first_mode(self):
        exact = 2 * np.pi * np.tanh(2 * np.pi)
        errs = []
        for nz in (8, 16, 32):
            grid = make_grid(8, 8, nz)
            errs.append(abs(dtn_symbols(grid)[1, 0] - exact))
        order = np.log2(errs[1] / errs[2])
        assert order >= 1.9

    def test_linearity(self, grid8, rng):
        phi = smooth_field_2d(grid8, rng)
        psi = smooth_field_2d(grid8, rng)
        lhs = dtn_apply(grid8, 2.0 * phi - 3.0 * psi)
        rhs = 2.0 * dtn_apply(grid8, phi) - 3.0 * dtn_apply(grid8, psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1 + np.max(np.abs(rhs)))

    @pytest.mark.parametrize("nz", [8, 16, 32])
    def test_matches_closed_form_discrete_dispersion(self, nz):
        # the interior recursion has exact solutions cosh(mu z_j) with
        # cosh(mu h) = 1 + |xi|^2 h^2 / 2 (the bottom ghost row holds by
        # evenness), so the whole discrete symbol has a closed form:
        # sum_i c_i cosh(mu (1 - i h)) / (h cosh mu)
        grid = make_grid(8, 8, nz)
        sym = dtn_symbols(grid)
        h = grid.dz
        stencil = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / 12.0
        for i, j in [(1, 0), (2, 1), (0, 2), (3, 3)]:
            xi2 = grid.xi2[i, j]
            mu = np.arccosh(1.0 + 0.5 * xi2 * h * h) / h
            closed = sum(
                c * np.cosh(mu * (1.0 - k * h)) for k, c in enumerate(stencil)
            ) / (h * np.cosh(mu))
            assert sym[i, j] == pytest.approx(closed, rel=1e-11)


def bordered_dirichlet_column(grid):
    """Dense oracle of the harmonic-extension column: per mode, the interior
    rows of the mode operator bordered by the identity row on the surface
    unknown, solved for unit surface data."""
    n = grid.nlev
    mats = coupled_vertical_matrix(grid) - grid.xi2[..., None, None] * np.eye(n)
    mats[..., n - 1, :] = 0.0
    mats[..., n - 1, n - 1] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    return np.linalg.solve(mats, rhs)


def count_eig_forbid_solve(monkeypatch):
    """Shapes passed to np.linalg.eig; np.linalg.solve fails the test."""
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    return calls


class TestDirichletColumn:
    @pytest.mark.parametrize("n, nz", [(8, 8), (16, 16), (8, 64)])
    def test_matches_bordered_dense_solve(self, n, nz):
        grid = make_grid(n, n, nz)
        theta = dirichlet_inverse_column(grid)
        oracle = bordered_dirichlet_column(grid)[:, : n // 2 + 1]
        assert theta.shape == (n, n // 2 + 1, grid.nlev)
        assert np.max(np.abs(theta - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("nz", [8, 16, 32, 64, 128])
    def test_constant_mode_exactly_one(self, nz):
        theta = dirichlet_inverse_column(make_grid(4, 4, nz))
        assert np.array_equal(theta[0, 0], np.ones(nz + 1))

    def test_dtn_one_eig_and_no_solve(self, grid8, monkeypatch):
        calls = count_eig_forbid_solve(monkeypatch)
        dtn_symbols(grid8)
        assert calls == [(grid8.nz, grid8.nz)]


class TestSimilaritySplit:
    def test_extension_of_rho_maps_to_zero(self, grid8, rng):
        rho = smooth_field_2d(grid8, rng)
        T = dirichlet_map(grid8, rho)
        shifted, rho_out = similarity_split(grid8, T, rho)
        assert np.max(np.abs(shifted)) <= 1e-12 * (1 + np.max(np.abs(T)))
        assert np.array_equal(rho_out, rho)

    def test_zero_boundary_data_is_identity(self, grid8, rng):
        T = np.random.default_rng(3).standard_normal((8, 8, 9))
        shifted, _ = similarity_split(grid8, T, np.zeros((8, 8)))
        assert np.max(np.abs(shifted - T)) < 1e-13

    def test_trace_of_split_vanishes_for_compatible_pair(self, grid8, rng):
        rho = smooth_field_2d(grid8, rng)
        T = dirichlet_map(grid8, rho) + np.sin(np.pi * grid8.z) * smooth_field_2d(grid8, rng)[:, :, None]
        # T|top = rho by construction (sin(pi) = 0)
        shifted, _ = similarity_split(grid8, T, rho)
        assert np.max(np.abs(shifted[..., -1])) <= 1e-12 * (1 + np.max(np.abs(rho)))

    def test_round_trip(self, grid8, rng):
        rho = smooth_field_2d(grid8, rng)
        T = np.random.default_rng(4).standard_normal((8, 8, 9))
        back = similarity_unsplit(grid8, *similarity_split(grid8, T, rho))
        assert np.max(np.abs(back[0] - T)) <= 1e-13 * (1 + np.max(np.abs(T)))


def solve_coupled_physical(grid, rhs_T, rhs_rho, dt):
    """The kernel's coupled solve of physical right-hand sides, through the
    batched real transforms; the top level of rhs_T is ignored."""
    stack = stack_fields_hat(grid, rfft_h(grid, rhs_T), rfft_h(grid, rhs_rho))
    T = irfft_h(grid, CoupledImplicitSolver(grid, dt).solve_hat(stack))
    return T, T[..., -1].copy()


def solve_velocity_physical(grid, rhs_v, dt):
    """The kernel's velocity solve of a physical (2, Nx, Ny, Nz+1) array."""
    v_hat = VelocityImplicitSolver(grid, dt).solve_hat(np.stack([rfft_h(grid, c) for c in rhs_v]))
    return np.stack([irfft_h(grid, c) for c in v_hat])


class TestCoupledSolve:
    def test_dt_to_zero_limit(self, grid8, rng):
        rhs_T = smooth_field_2d(grid8, rng)[:, :, None] * np.cos(np.pi * grid8.z)
        rhs_rho = rhs_T[..., -1].copy()
        T, rho = solve_coupled_physical(grid8, rhs_T, rhs_rho, dt=1e-12)
        assert np.max(np.abs(T - rhs_T)) < 1e-9
        assert np.max(np.abs(rho - rhs_rho)) < 1e-9

    def test_constants_preserved(self, grid8):
        T, rho = solve_coupled_physical(
            grid8, np.full((8, 8, 9), 4.0), np.full((8, 8), 4.0), dt=0.7
        )
        assert np.max(np.abs(T - 4.0)) < 1e-12
        assert np.max(np.abs(rho - 4.0)) < 1e-12

    def test_trace_identity_exact(self, grid8, rng):
        rhs_T = np.random.default_rng(5).standard_normal((8, 8, 9))
        rhs_rho = np.random.default_rng(6).standard_normal((8, 8))
        T, rho = solve_coupled_physical(grid8, rhs_T, rhs_rho, dt=0.01)
        assert np.array_equal(T[..., -1], rho)

    def test_matches_dense_lu_oracle(self, grid8):
        rng = np.random.default_rng(7)
        solver_cache = {}
        for _ in range(10):
            i = rng.integers(0, 8)
            j = rng.integers(0, 8)
            dt = 10.0 ** rng.uniform(-4, 0)
            xi = (2 * np.pi * grid8.kx[i], 2 * np.pi * grid8.ky[j])
            M = assemble_mode_operator(xi, grid8)
            A = np.eye(grid8.nlev) - dt * M
            rhs = rng.standard_normal(grid8.nlev) + 1j * rng.standard_normal(grid8.nlev)
            oracle = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
            if dt not in solver_cache:
                solver_cache[dt] = CoupledImplicitSolver(grid8, dt)
            ours = solve_one_mode(solver_cache[dt], i, j, rhs)
            assert np.linalg.norm(ours - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_linearity(self, grid8):
        rng = np.random.default_rng(10)
        solver = CoupledImplicitSolver(grid8, 0.05)
        x = rng.standard_normal((8, 5, grid8.nlev)) + 0j
        y = rng.standard_normal((8, 5, grid8.nlev)) + 0j
        combined = solver.solve_hat(2.0 * x - 0.5 * y)
        separate = 2.0 * solver.solve_hat(x) - 0.5 * solver.solve_hat(y)
        assert np.max(np.abs(combined - separate)) <= 1e-13 * np.max(np.abs(separate))

    def test_contractive_on_smooth_stacks(self, grid8):
        # energy-weighted norm: trapezoid weights on T plus unit weight on rho
        w = trapz_weights(grid8).copy()
        w[-1] += 1.0
        rng = np.random.default_rng(8)
        for dt in (1e-3, 1e-1, 1.0):
            solver = CoupledImplicitSolver(grid8, dt)
            for _ in range(20):
                coef = rng.standard_normal(3) * (1.0 + np.arange(3)) ** -2.0
                x = sum(c * np.cos(m * np.pi * grid8.z) for m, c in enumerate(coef))
                i, j = rng.integers(0, 8, 2)
                y = solve_one_mode(solver, i, j, x).real
                assert np.sqrt((w * y * y).sum()) <= np.sqrt((w * x * x).sum()) * (1 + 1e-12)


class TestVelocitySolve:
    def test_constant_preserved_at_mean_mode(self, grid8):
        rhs = np.full((2, 8, 8, 9), 1.5)
        out = solve_velocity_physical(grid8, rhs, dt=0.3)
        assert np.max(np.abs(out[..., 0, 0, :] - 1.5)) < 1e-12  # mean column

    def test_neumann_eigenfunction(self):
        # cos(pi z) is an eigenfunction: (1 - dt d^2_z)^(-1) cos = cos/(1+pi^2)
        grid = make_grid(8, 8, 16)
        rhs = np.zeros((2, 8, 8, grid.nlev))
        rhs[0] = np.cos(np.pi * grid.z)[None, None, :]
        out = solve_velocity_physical(grid, rhs, dt=1.0)
        expected = np.cos(np.pi * grid.z) / (1 + np.pi**2)
        err = np.max(np.abs(out[0, 0, 0] - expected))
        assert err < 5e-4  # O(h^2)

    def test_matches_dense_lu_oracle(self, grid8):
        rng = np.random.default_rng(9)
        base = neumann_vertical_matrix(grid8)
        for _ in range(10):
            i, j = rng.integers(0, 8, 2)
            dt = 10.0 ** rng.uniform(-4, 0)
            xi2 = grid8.xi2[i, j]
            A = np.eye(grid8.nlev) - dt * (base - xi2 * np.eye(grid8.nlev))
            rhs = rng.standard_normal(grid8.nlev) + 1j * rng.standard_normal(grid8.nlev)
            oracle = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
            ours = solve_one_mode(VelocityImplicitSolver(grid8, dt), i, j, rhs)
            assert np.linalg.norm(ours - oracle) <= 1e-12 * np.linalg.norm(oracle)


def _mode_xi(grid, width):
    """(i, j, xi) of every mode in the first `width` columns."""
    for i in range(grid.nx):
        for j in range(width):
            yield i, j, (2 * np.pi * grid.kx[i], 2 * np.pi * grid.ky[j])


class TestPerModeTables:
    """The tables are half-spectrum only: a full-width input (half=False)
    fails in numpy broadcasting."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("half", [False, True])
    def test_coupled_generator_matches_dense_oracle(self, n, half):
        grid = make_grid(n, n, n)
        width = n // 2 + 1 if half else n
        rng = np.random.default_rng(n + 2 * half)
        shape = (n, width, grid.nlev)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        solver = CoupledImplicitSolver(grid, 1e-2)
        if not half:
            with pytest.raises(ValueError):
                solver.apply_generator_hat(x)
            return
        ours = solver.apply_generator_hat(x)
        oracle = np.empty_like(x)
        for i, j, xi in _mode_xi(grid, width):
            oracle[i, j] = assemble_mode_operator(xi, grid) @ x[i, j]
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("half", [False, True])
    def test_velocity_generator_matches_dense_oracle(self, n, half):
        grid = make_grid(n, n, n)
        width = n // 2 + 1 if half else n
        rng = np.random.default_rng(n + 2 * half + 1)
        shape = (2, n, width, grid.nlev)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        solver = VelocityImplicitSolver(grid, 1e-2)
        if not half:
            with pytest.raises(ValueError):
                solver.apply_generator_hat(x)
            return
        ours = solver.apply_generator_hat(x)
        base, eye = neumann_vertical_matrix(grid), np.eye(grid.nlev)
        oracle = np.empty_like(x)
        for i, j, _ in _mode_xi(grid, width):
            oracle[:, i, j] = x[:, i, j] @ (base - grid.xi2[i, j] * eye).T
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("half", [False, True])
    def test_solve_matches_per_mode_inv(self, n, half):
        grid = make_grid(n, n, n)
        width = n // 2 + 1 if half else n
        dt = 3e-3
        eye = np.eye(grid.nlev)
        rng = np.random.default_rng(n + 2 * half)
        shape = (n, width, grid.nlev)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        solvers = CoupledImplicitSolver(grid, dt), VelocityImplicitSolver(grid, dt)
        if not half:
            for solver in solvers:
                with pytest.raises(ValueError):
                    solver.solve_hat(x)
                with pytest.raises(ValueError):
                    solver.solve_hat(x[None])  # a velocity pair
            return
        coupled, velocity = (solver.solve_hat(x) for solver in solvers)
        base = neumann_vertical_matrix(grid)
        for i, j, xi in _mode_xi(grid, width):
            M = assemble_mode_operator(xi, grid)
            oracle = np.linalg.inv(eye - dt * M) @ x[i, j]
            assert np.linalg.norm(coupled[i, j] - oracle) <= 1e-12 * np.linalg.norm(oracle)
            M = base - grid.xi2[i, j] * eye
            oracle = np.linalg.inv(eye - dt * M) @ x[i, j]
            assert np.linalg.norm(velocity[i, j] - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("solver", [CoupledImplicitSolver, VelocityImplicitSolver])
    def test_one_eig_and_no_dense_table(self, n, solver, monkeypatch):
        grid = make_grid(n, n, 8)
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        built = solver(grid, 1e-3)
        assert calls == [(grid.nlev, grid.nlev)]
        # per-mode tables hold one diagonal per mode of the half spectrum;
        # the other arrays are vertical or basis matrices, whose size does
        # not depend on Nx, Ny
        half = (grid.nx, grid.ny // 2 + 1)
        for value in vars(built).values():
            if not isinstance(value, np.ndarray):
                continue
            if value.shape[:2] == half:
                assert value.size <= half[0] * half[1] * grid.nlev
            else:
                assert value.size <= 2 * (2 * grid.nlev) ** 2


class TestEigenbasis:
    @pytest.mark.parametrize("nz", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("matrix", [coupled_vertical_matrix, neumann_vertical_matrix])
    def test_real_spectrum_and_bounded_condition(self, nz, matrix):
        vertical = matrix(make_grid(4, 4, nz))
        lam, V, V_inv = eigenbasis(vertical)
        assert lam.dtype == V.dtype == V_inv.dtype == np.float64
        # twice the measured worst case (12.8, coupled matrix at nz = 128)
        assert np.linalg.cond(V) <= 30.0
        assert np.max(np.abs(V * lam @ V_inv - vertical)) <= 1e-12 * np.max(np.abs(vertical))

    @pytest.mark.parametrize("nz", [4, 16, 128])
    @pytest.mark.parametrize("matrix", [coupled_vertical_matrix, neumann_vertical_matrix])
    def test_constant_column_deflated_exactly(self, nz, matrix):
        lam, V, _ = eigenbasis(matrix(make_grid(4, 4, nz)))
        kernel = np.flatnonzero(lam == 0.0)
        assert kernel.size == 1
        assert np.all(V[:, kernel[0]] == V[0, kernel[0]])

    @pytest.mark.parametrize("build", [CoupledImplicitSolver, VelocityImplicitSolver])
    def test_constant_mode_solve_matches_40_digit_solve(self, build):
        # eig alone gives the kernel eigenvalue as about 1e-13 at nz = 16,
        # an error of dt |lam_0| relative in this mode
        mpmath = pytest.importorskip("mpmath")
        grid = make_grid(16, 16, 16)
        solver = build(grid, 1.0)
        b = np.random.default_rng(3).standard_normal(grid.nlev)
        rhs = np.zeros((grid.nx, grid.ny // 2 + 1, grid.nlev), dtype=complex)
        rhs[0, 0] = b
        x = solver.solve_hat(rhs)[0, 0]
        with mpmath.workdps(40):
            exact = mpmath.lu_solve(mpmath.matrix(np.eye(grid.nlev) - solver.vertical),
                                    mpmath.matrix(b))
            exact = np.array([float(value) for value in exact])
        assert np.max(np.abs(x - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_complex_spectrum_rejected(self):
        with pytest.raises(SolveError):
            eigenbasis(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    @pytest.mark.parametrize("build", [CoupledImplicitSolver, VelocityImplicitSolver,
                                       ConvolutionPropagator])
    def test_nonpositive_dt_rejected(self, grid8, build, dt):
        with pytest.raises(ValueError):
            build(grid8, dt)


class TestSpectrumReport:
    def test_shifted_kernel_present(self, grid_small):
        report = spectrum_report(grid_small, omega=1.0)
        mean_idx = report.modes.index((0, 0))
        ev = report.eigenvalues[mean_idx]
        assert np.min(np.abs(ev - 1.0)) < 1e-9

    def test_angle_below_half_pi(self, grid_small):
        report = spectrum_report(grid_small, omega=1.0)
        assert report.phi_hat < np.pi / 2
        assert report.min_real_part() >= -1e-10

    def test_eigenvalues_match_dense_oracle(self):
        # every retained mode, against eigvals of its dense mode operator
        omega = 1.0
        for n in (8, 16):
            grid = make_grid(n, n, n)
            report = spectrum_report(grid, omega=omega)
            assert report.modes == retained_modes(grid)
            eye = np.eye(grid.nlev)
            for (k1, k2), ev in zip(report.modes, report.eigenvalues):
                M = assemble_mode_operator((2 * np.pi * k1, 2 * np.pi * k2), grid)
                oracle = np.linalg.eigvals(omega * eye - M)
                oracle = oracle[np.argsort(oracle.real)]
                ours = np.sort(ev)
                assert np.all(np.abs(ours - oracle) <= 1e-9 * (1.0 + np.abs(oracle)))

    def test_one_eig_and_no_solve(self, grid8, monkeypatch):
        calls = count_eig_forbid_solve(monkeypatch)
        spectrum_report(grid8, omega=1.0)
        assert calls == [(grid8.nlev, grid8.nlev)]

    def test_max_modes_caps_report(self, grid8):
        report = spectrum_report(grid8, omega=1.0, max_modes=3)
        assert len(report.modes) == 3
        assert report.modes[0] == (0, 0)

    @pytest.mark.parametrize("max_modes", [0, -1])
    def test_rejects_max_modes_below_one(self, grid8, max_modes):
        with pytest.raises(ValueError, match="max_modes"):
            spectrum_report(grid8, omega=1.0, max_modes=max_modes)

    def test_rejects_nonpositive_omega(self, grid8):
        with pytest.raises(ValueError):
            spectrum_report(grid8, omega=0.0)

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_rejects_non_finite_omega(self, grid8, omega):
        with pytest.raises(ValueError, match="omega"):
            spectrum_report(grid8, omega=omega)

    def test_retained_modes_respect_mask(self, grid8):
        modes = retained_modes(grid8)
        assert all(abs(k1) <= 2 and abs(k2) <= 2 for k1, k2 in modes)
        assert len(modes) == 25
