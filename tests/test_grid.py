"""Grid construction, transforms, dealiasing."""

import numpy as np
import pytest

from ebpe import dealias, make_grid, to_physical, to_spectral
from ebpe.grid import GridSizeError, SymmetryError, deriv_x, deriv_y, deriv_z, irfft_h, rfft_h

from conftest import smooth_field_2d


class TestMakeGrid:
    def test_basic_sizes(self):
        grid = make_grid(8, 8, 8)
        assert grid.nlev == 9
        assert grid.dz == 0.125
        assert grid.z[0] == 0.0 and grid.z[-1] == 1.0

    def test_dealias_cutoffs(self):
        grid = make_grid(6, 8, 4)
        for i, k1 in enumerate(grid.kx):
            for j, k2 in enumerate(grid.ky):
                expected = abs(k1) <= 2 and abs(k2) <= 2
                assert grid.dealias_mask[i, j] == expected

    @pytest.mark.parametrize("bad", [(7, 8, 8), (8, 7, 8), (2, 8, 8), (8, 8, 3)])
    def test_sizing_errors(self, bad):
        with pytest.raises(GridSizeError):
            make_grid(*bad)

    def test_wavenumbers_conjugate_partners(self, grid8):
        # mode -k sits at the index-negated position for every k
        for i in range(grid8.nx):
            assert grid8.kx[i] == -grid8.kx[-i] or abs(grid8.kx[i]) == grid8.nx // 2

    def test_deterministic_construction(self):
        a, b = make_grid(8, 8, 8), make_grid(8, 8, 8)
        assert np.array_equal(a.xi2, b.xi2)
        assert np.array_equal(a.dealias_mask, b.dealias_mask)

    def test_grid_immutable(self, grid8):
        with pytest.raises(Exception):
            grid8.nx = 16


class TestTransforms:
    def test_constant_field(self, grid8):
        c = to_spectral(grid8, np.full((8, 8), 3.25))
        assert c[0, 0] == pytest.approx(3.25, abs=1e-14)
        czero = c.copy()
        czero[0, 0] = 0.0
        assert np.max(np.abs(czero)) < 1e-14

    def test_pure_cosine_coefficients(self, grid8):
        c = to_spectral(grid8, np.cos(2 * np.pi * grid8.x))
        assert c[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-1, 0] == pytest.approx(0.5, abs=1e-14)

    def test_parseval_direct_summation(self, grid8, rng):
        f = rng.standard_normal((8, 8))
        physical = np.sum(f * f) / (8 * 8)  # direct summation oracle
        c = to_spectral(grid8, f)
        spectral = np.sum(np.abs(c) ** 2)
        assert abs(physical - spectral) <= 1e-12 * physical

    def test_round_trip(self, grid8, rng):
        f = rng.standard_normal((8, 8, grid8.nlev))
        g = to_physical(grid8, to_spectral(grid8, f))
        assert np.max(np.abs(f - g)) <= 1e-13 * np.max(np.abs(f))

    def test_zero_coefficients(self, grid8):
        assert np.all(to_physical(grid8, np.zeros((8, 8), complex)) == 0.0)

    def test_single_mode_synthesis(self, grid8):
        c = np.zeros((8, 8), complex)
        c[1, 0] = 0.5
        c[-1, 0] = 0.5
        f = to_physical(grid8, c)
        assert np.allclose(f, np.cos(2 * np.pi * grid8.x), atol=1e-14)

    def test_symmetry_violation_rejected(self, grid8):
        c = np.zeros((8, 8), complex)
        c[1, 0] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            to_physical(grid8, c)

    def test_dimension_mismatch(self, grid8):
        with pytest.raises(ValueError):
            to_spectral(grid8, np.zeros((4, 8)))
        with pytest.raises(ValueError):
            to_spectral(grid8, np.zeros((8, 8, 3)))

    def test_spectral_derivative(self, grid8):
        f = np.sin(2 * np.pi * grid8.x)
        df = to_physical(grid8, deriv_x(grid8, to_spectral(grid8, f)))
        assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * grid8.x))) < 1e-12
        g = np.sin(2 * np.pi * grid8.y)
        dg = to_physical(grid8, deriv_y(grid8, to_spectral(grid8, g)))
        assert np.max(np.abs(dg - 2 * np.pi * np.cos(2 * np.pi * grid8.y))) < 1e-12


class TestKernelTransformsBitwise:
    """The kernel's transforms and vertical derivative are the library
    calls and formulas they replace, bit for bit."""

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16), (8, 16, 8)])
    def test_rfft_h_and_irfft_h_match_rfft2(self, shape, rng):
        grid = make_grid(*shape)
        fields = rng.standard_normal((grid.nx, grid.ny, 3 * grid.nlev + 1))
        spectra = rfft_h(grid, fields)
        assert np.array_equal(spectra, np.fft.rfft2(fields, axes=(0, 1), norm="forward"))
        assert np.array_equal(
            irfft_h(grid, spectra),
            np.fft.irfft2(spectra, s=(grid.nx, grid.ny), axes=(0, 1), norm="forward"))

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16)])
    def test_deriv_z_matches_quotient_form(self, shape, rng):
        grid = make_grid(*shape)
        f = rng.standard_normal((grid.nx, grid.ny, 3, grid.nlev))
        h = grid.dz
        ref = np.empty_like(f)
        ref[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
        ref[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
        ref[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
        assert np.array_equal(deriv_z(grid, f), ref)


def brute_force_truncated_convolution(grid, f, g):
    """Exact dealiased product by direct mode-sum convolution.

    Computes the full linear convolution of the integer-mode coefficient
    tables of f and g, then keeps only the dealias-retained modes of the
    grid.  Independent of the collocation product path.
    """
    cf = to_spectral(grid, f)
    cg = to_spectral(grid, g)
    out = np.zeros_like(cf)
    keep_x = grid.nx // 3
    keep_y = grid.ny // 3
    kx, ky = grid.kx, grid.ky

    def coef(c, k1, k2):
        return c[int(k1) % grid.nx, int(k2) % grid.ny]

    for k1 in range(-keep_x, keep_x + 1):
        for k2 in range(-keep_y, keep_y + 1):
            s = 0.0 + 0.0j
            for p1 in kx:
                for p2 in ky:
                    q1, q2 = k1 - p1, k2 - p2
                    if q1 in kx and q2 in ky:
                        s += coef(cf, p1, p2) * coef(cg, q1, q2)
            out[int(k1) % grid.nx, int(k2) % grid.ny] = s
    return out


class TestDealias:
    def test_retained_input_unchanged(self, grid8, rng):
        c = to_spectral(grid8, smooth_field_2d(grid8, rng))
        c = np.where(grid8.dealias_mask, c, 0.0)  # exact zeros outside the mask
        assert np.array_equal(dealias(grid8, c), c)

    def test_retained_modes_bit_identical(self, grid8, rng):
        c = to_spectral(grid8, rng.standard_normal((8, 8)))
        out = dealias(grid8, c)
        assert np.array_equal(out[grid8.dealias_mask], c[grid8.dealias_mask])

    def test_masked_mode_zeroed(self, grid8):
        c = np.zeros((8, 8), complex)
        c[3, 0] = 1.0
        c[-3, 0] = 1.0
        assert np.all(dealias(grid8, c) == 0.0)

    def test_product_matches_convolution_oracle(self, grid8):
        # maximal retained modes: |k| = Nx//3 = 2
        f = np.cos(2 * np.pi * 2 * grid8.x)
        g = np.cos(2 * np.pi * 2 * grid8.x) + 0.5 * np.sin(2 * np.pi * 2 * grid8.y)
        product = dealias(grid8, to_spectral(grid8, f * g))
        oracle = brute_force_truncated_convolution(grid8, f, g)
        assert np.max(np.abs(product - oracle)) < 1e-13
