"""Vertical reconstructions and the barotropic projector."""

import numpy as np
import pytest

from ebpe import baroclinic_grad, make_grid, project_barotropic, vertical_average
from ebpe.grid import irfft_h, rfft_h
from ebpe.hydrostatic import cumulative_integral, diagnose_w

from conftest import (
    baroclinic_grad_physical,
    diagnose_w_physical,
    project_barotropic_physical,
    rough_state,
    smooth_field_3d,
)
import oracles
from oracles import as_complex, as_pairs, div_h, grad_h, l2sq_volume


class TestVerticalAverage:
    def test_z_independent(self, grid8, rng):
        f2d = rng.standard_normal((8, 8))
        f = np.repeat(f2d[:, :, None], grid8.nlev, axis=2)
        assert np.allclose(vertical_average(grid8, f), f2d, atol=1e-15)

    def test_affine_exact(self, grid8):
        f = np.broadcast_to(grid8.z, (8, 8, grid8.nlev)).copy()
        assert np.allclose(vertical_average(grid8, f), 0.5, atol=1e-15)

    def test_quadratic_trapezoid_value(self, grid8):
        # trapezoid of z^2 on Nz=8: exact 1/3 plus the h^2/6 quadrature error
        f = np.broadcast_to(grid8.z**2, (8, 8, grid8.nlev)).copy()
        assert np.allclose(vertical_average(grid8, f), 0.3359375, atol=1e-15)

    def test_weights_sum_to_one(self, grid8):
        assert grid8.trapz_w.sum() == pytest.approx(1.0, abs=1e-15)


class TestDiagnoseW:
    def test_divergence_free_gives_zero(self, grid8):
        v = np.zeros((2, 8, 8, 9))
        v[0] = np.sin(2 * np.pi * grid8.y)[:, :, None]  # x-independent shear
        assert np.max(np.abs(diagnose_w_physical(grid8, v))) < 1e-13

    def test_analytic_column_integral(self, grid8):
        v = np.zeros((2, 8, 8, 9))
        v[0] = np.sin(2 * np.pi * grid8.x)[:, :, None]
        w = diagnose_w_physical(grid8, v)
        expected = -2 * np.pi * grid8.z[None, None, :] * np.cos(2 * np.pi * grid8.x)[:, :, None]
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_w_bottom_exact_zero(self, grid8, rng):
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        assert np.all(diagnose_w_physical(grid8, v)[..., 0] == 0.0)

    def test_w_top_small_after_projection(self, grid8, rng):
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        v_proj, _ = project_barotropic_physical(grid8, v)
        w = diagnose_w_physical(grid8, v_proj)
        assert np.max(np.abs(w[..., -1])) <= 1e-10 * (1 + np.max(np.abs(v_proj)))


class TestBaroclinicGrad:
    def test_horizontally_constant(self, grid8):
        T = np.broadcast_to(grid8.z**2, (8, 8, 9)).copy()
        assert np.max(np.abs(baroclinic_grad_physical(grid8, T))) < 1e-14

    def test_single_mode_analytic(self, grid8):
        T = np.repeat(np.cos(2 * np.pi * grid8.x)[:, :, None], 9, axis=2)
        g = baroclinic_grad_physical(grid8, T)
        expected = -2 * np.pi * grid8.z[None, None, :] * np.sin(2 * np.pi * grid8.x)[:, :, None]
        assert np.max(np.abs(g[0] - expected)) < 1e-12
        assert np.max(np.abs(g[1])) < 1e-13

    def test_bottom_row_zero(self, grid8, rng):
        g = baroclinic_grad_physical(grid8, smooth_field_3d(grid8, rng))
        assert np.all(g[..., 0] == 0.0)


class TestProjector:
    def test_solenoidal_input_unchanged(self, grid8):
        v = np.zeros((2, 8, 8, 9))
        v[0] = np.sin(2 * np.pi * grid8.y)[:, :, None]
        v_proj, grad = project_barotropic_physical(grid8, v)
        assert np.max(np.abs(v_proj - v)) < 1e-13
        assert np.max(np.abs(grad)) < 1e-13

    def test_pure_gradient_annihilated(self, grid8):
        # v = grad(cos 2pi x), z-independent
        v = np.zeros((2, 8, 8, 9))
        v[0] = (-2 * np.pi * np.sin(2 * np.pi * grid8.x))[:, :, None]
        v_proj, grad = project_barotropic_physical(grid8, v)
        assert np.max(np.abs(v_proj)) < 1e-12
        assert np.max(np.abs(grad[0] - v[0][..., 0])) < 1e-12

    def test_idempotent(self, grid8, rng):
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        once, _ = project_barotropic_physical(grid8, v)
        twice, _ = project_barotropic_physical(grid8, once)
        assert np.max(np.abs(twice - once)) <= 1e-13 * (1 + np.max(np.abs(once)))

    def test_projected_average_solenoidal(self, grid8, rng):
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        v_proj, _ = project_barotropic_physical(grid8, v)
        vbar = vertical_average(grid8, v_proj)
        assert np.max(np.abs(div_h(grid8, vbar))) <= 1e-12 * (1 + np.max(np.abs(v)))

    def test_symmetric_in_volume_inner_product(self, grid8, rng):
        def inner(a, b):
            w = grid8.trapz_w
            return float(np.sum((a * b) @ w) / (grid8.nx * grid8.ny))

        for _ in range(5):
            u = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
            v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
            Pu, _ = project_barotropic_physical(grid8, u)
            Pv, _ = project_barotropic_physical(grid8, v)
            lhs = inner(Pu[0], v[0]) + inner(Pu[1], v[1])
            rhs = inner(u[0], Pv[0]) + inner(u[1], Pv[1])
            scale = np.sqrt(max(l2sq_volume(grid8, u[0]), 1.0) * max(l2sq_volume(grid8, v[0]), 1.0))
            assert abs(lhs - rhs) <= 1e-11 * (1 + scale)

    def test_potential_recovers_gradient(self, grid8, rng):
        # the returned potential is the removed gradient: grad_H phi = v - P v
        # at every level, with phi of zero mean
        v = np.stack([smooth_field_3d(grid8, rng), smooth_field_3d(grid8, rng)])
        v_proj_hat, phi_hat = project_barotropic(grid8, np.stack([rfft_h(grid8, c) for c in v]))
        removed = v - np.stack([irfft_h(grid8, c) for c in v_proj_hat])
        phi = irfft_h(grid8, phi_hat)
        gx, gy = grad_h(grid8, phi)
        tol = 1e-12 * (1 + np.max(np.abs(v)))
        for level in range(grid8.nlev):
            assert np.max(np.abs(gx - removed[0, ..., level])) < tol
            assert np.max(np.abs(gy - removed[1, ..., level])) < tol
        assert abs(np.mean(phi)) < 1e-13


class TestCumulativeIntegral:
    def test_starts_at_zero(self, grid8, rng):
        c = cumulative_integral(grid8, smooth_field_3d(grid8, rng))
        assert np.all(c[..., 0] == 0.0)

    def test_affine_exact(self, grid8):
        f = np.broadcast_to(2.0 * grid8.z + 1.0, (8, 8, 9)).copy()
        c = cumulative_integral(grid8, f)
        exact = grid8.z**2 + grid8.z
        assert np.max(np.abs(c - exact[None, None, :])) < 1e-14

    @pytest.mark.parametrize("nz", [4, 8, 16, 64])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_product_matches_accumulate_oracle(self, nz, dtype, rng):
        # complex spectra are integrated as their pair spectra
        grid = make_grid(8, 8, nz)
        f = rng.standard_normal((2, 8, 5, grid.nlev))
        ours = cumulative_integral(grid, f)
        if dtype is complex:
            f = f + 1j * rng.standard_normal(f.shape)
            ours = as_complex(cumulative_integral(grid, as_pairs(f)))
        ref = oracles.cumulative_integral_accumulate(grid, f)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert np.all(ours[..., 0] == 0.0)
        assert np.abs(ours - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_result_does_not_depend_on_memory_layout(self, dtype, rng):
        # numpy's matmul leaves BLAS for operands it cannot hand over, with
        # another summation order (seen at 16 levels for a Fortran-ordered f);
        # complex spectra as their pair spectra
        grid = make_grid(16, 16, 16)
        f = rng.standard_normal((16, 9, grid.nlev))
        if dtype is complex:
            f = as_pairs(f + 1j * rng.standard_normal(f.shape))
        ref = cumulative_integral(grid, f)
        for view in (np.asfortranarray(f), np.swapaxes(np.swapaxes(f, 0, 1).copy(), 0, 1)):
            assert np.array_equal(cumulative_integral(grid, view), ref)

    @pytest.mark.parametrize("nz", [4, 8, 16, 64])
    def test_running_matrix_ends_in_trapz_weights(self, nz):
        grid = make_grid(8, 8, nz)
        assert grid.running_trapz.shape == (grid.nlev, grid.nlev)
        assert np.all(grid.running_trapz[:, 0] == 0.0)
        assert np.array_equal(grid.running_trapz[:, -1], grid.trapz_w)


class TestSymbolTables:
    """The kernel's per-grid tables reproduce the deriv_x/deriv_y forms of
    the hydrostatic operators (`tests/oracles.py`) bit for bit."""

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8)])
    def test_table_forms_match_deriv_forms_bitwise(self, shape):
        grid = make_grid(*shape)
        state = rough_state(grid, seed=shape[1])
        v_hat = np.stack([rfft_h(grid, c) for c in state.v])
        T_hat = rfft_h(grid, state.T)
        v_c, T_c = as_complex(v_hat), as_complex(T_hat)
        assert np.array_equal(as_complex(diagnose_w(grid, v_hat)), oracles.diagnose_w(grid, v_c))
        assert np.array_equal(as_complex(baroclinic_grad(grid, T_hat)),
                              oracles.baroclinic_grad(grid, T_c))
        ours, ref = project_barotropic(grid, v_hat), oracles.project_barotropic(grid, v_c)
        assert np.array_equal(as_complex(ours[0]), ref[0])
        assert np.array_equal(as_complex(ours[1]), ref[1])

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8)])
    def test_tables(self, shape):
        grid = make_grid(*shape)
        half = grid.ny // 2 + 1
        # (-xi, xi) on the re/im axis: i xi takes (a, b) to (-xi b, xi a)
        assert grid.ixi_pair.shape == (2, grid.nx, 2, half)
        for d, xi in enumerate((grid.xi_x, grid.xi_y_half)):
            xi = np.broadcast_to(xi, (grid.nx, half))
            assert np.array_equal(grid.ixi_pair[d, :, 0], -xi)
            assert np.array_equal(grid.ixi_pair[d, :, 1], xi)
        xi2 = grid.xi2_deriv_half
        assert np.all(grid.inv_lap_half[xi2 == 0.0] == 0.0)
        assert np.array_equal(grid.inv_lap_half[xi2 > 0.0], -1.0 / xi2[xi2 > 0.0])
