"""Grid construction, transforms, dealiasing."""

import numpy as np
import pytest

from ebpe import dealias, make_grid, to_physical, to_spectral
from ebpe.grid import GridSizeError, SymmetryError, deriv_x, deriv_y, deriv_z, irfft_h, rfft_h

import oracles
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


class TestKernelTransforms:
    """rfft_h/irfft_h, the DFT matrix products of the kernel, against
    numpy's FFT and an exact long-double DFT."""

    @staticmethod
    def max_rel_err(ours, ref):
        return np.abs(ours - ref).max() / np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16), (8, 16, 8), (64, 64, 8)])
    def test_rfft_h_and_irfft_h_match_numpy_oracle(self, shape, rng):
        # numpy's rfft2/irfft2 are within about 3e-16 of exact, the products
        # within 7e-16 (see the next test); 2e-15 leaves room for both
        grid = make_grid(*shape)
        fields = rng.standard_normal((grid.nx, grid.ny, 3 * grid.nlev + 1))
        spectra = rfft_h(grid, fields)
        ref = np.fft.rfft2(fields, axes=(0, 1), norm="forward")
        assert self.max_rel_err(spectra, ref) <= 2e-15
        ref_inv = np.fft.irfft2(ref, s=(grid.nx, grid.ny), axes=(0, 1), norm="forward")
        assert self.max_rel_err(irfft_h(grid, ref), ref_inv) <= 2e-15

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the exact oracle needs an 80-bit long double")
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_rfft_h_matches_exact_dft(self, n, rng):
        grid = make_grid(n, n, 4)
        fields = rng.standard_normal((n, n, 4))
        re, im = oracles.exact_rfft2(fields)
        spectra = rfft_h(grid, fields)
        err = np.hypot((spectra.real - re).astype(float), (spectra.imag - im).astype(float))
        assert err.max() <= 1e-15 * np.hypot(re, im).max().astype(float)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the exact oracle needs an 80-bit long double")
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_differentiation_matrices_match_exact(self, n):
        # the largest exact entry is pi cot(pi / n), just under n, so the
        # bound is about 5e-16 n relative to it; the closed cot form of the
        # matrix fails it from 16 points on (2.9e-14 at 16, 7.5e-14 at 64)
        grid = make_grid(n, n, 4)
        exact = oracles.exact_fourier_derivative(n)
        for table in (grid.diff_x, grid.diff_y):
            assert np.abs(table - exact).max().astype(float) <= 5e-16 * n

    def test_two_dimensional_and_multi_axis_trailing_shapes(self, grid8, rng):
        f = rng.standard_normal((8, 8))
        c = rfft_h(grid8, f)
        assert c.shape == (8, 5)
        assert self.max_rel_err(c, np.fft.rfft2(f, norm="forward")) <= 2e-15
        assert self.max_rel_err(irfft_h(grid8, c), f) <= 2e-15
        stack = rng.standard_normal((8, 8, 2, 3, grid8.nlev))
        c = rfft_h(grid8, stack)
        assert c.shape == (8, 5, 2, 3, grid8.nlev)
        assert np.array_equal(c, rfft_h(grid8, stack.reshape(8, 8, -1)).reshape(c.shape))
        back = irfft_h(grid8, c)
        assert back.shape == stack.shape
        assert np.array_equal(back, irfft_h(grid8, c.reshape(8, 5, -1)).reshape(stack.shape))

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8)])
    def test_self_conjugate_imaginary_parts_dropped_bitwise(self, shape, rng):
        # a real field has no imaginary part at the four self-conjugate modes,
        # kx in {0, Nx/2} on the ky = 0 and ky = Ny/2 columns; what is put
        # there meets exact zeros of the tables and changes no bit
        grid = make_grid(*shape)
        c = rfft_h(grid, rng.standard_normal((grid.nx, grid.ny, 5)))
        noisy = c.copy()
        for i in (0, grid.nx // 2):
            for j in (0, -1):
                noisy[i, j] += 1j * rng.standard_normal(5)
        assert not np.array_equal(noisy, c)
        assert np.array_equal(irfft_h(grid, noisy), irfft_h(grid, c))

    def test_self_conjugate_columns_keep_their_real_projection(self, rng):
        # imaginary parts along the whole ky = 0 and ky = Ny/2 columns whose
        # x inverse is purely imaginary are dropped up to roundoff, as by irfft2
        grid = make_grid(8, 16, 8)
        c = rfft_h(grid, rng.standard_normal((8, 16, 3)))
        noisy = c.copy()
        for j in (0, -1):
            noisy[:, j] += 1j * np.fft.fft(rng.standard_normal((8, 3)), axis=0, norm="forward")
        ref = np.fft.irfft2(noisy, s=(8, 16), axes=(0, 1), norm="forward")
        assert self.max_rel_err(ref, irfft_h(grid, c)) <= 2e-15
        assert self.max_rel_err(irfft_h(grid, noisy), irfft_h(grid, c)) <= 2e-15

    @staticmethod
    def other_layouts(a):
        """The values of `a` as an offset contiguous array (not aligned
        beyond its item size), an offset strided view, a Fortran-ordered
        array and one stored with its axes reversed."""
        flat = np.empty(a.size + 1, dtype=a.dtype)
        offset = flat[1:].reshape(a.shape)
        offset[...] = a
        big = np.zeros((a.shape[0] + 1,) + a.shape[1:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        big[1:, ..., ::2] = a
        return offset, big[1:, ..., ::2], np.asfortranarray(a), a.T.copy().T

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16)])
    def test_result_does_not_depend_on_memory_layout(self, shape, rng):
        # numpy's matmul leaves BLAS for operands it cannot hand over, with
        # another summation order; the next step must not depend on layout
        grid = make_grid(*shape)
        fields = rng.standard_normal((grid.nx, grid.ny, 3 * grid.nlev + 1))
        spectra = rfft_h(grid, fields)
        for view in self.other_layouts(fields):
            assert np.array_equal(rfft_h(grid, view), spectra)
        back = irfft_h(grid, spectra)
        for view in self.other_layouts(spectra):
            assert np.array_equal(irfft_h(grid, view), back)

    def test_dft_tables_exact_at_quarter_turns(self):
        grid = make_grid(16, 64, 4)
        # y pass row ky = Ny/4: angles 2 pi j / 4
        cos_row, sin_row = grid.dft_y[16] * 64, -grid.dft_y[16 + 33] * 64
        assert np.array_equal(cos_row[:4], [1.0, 0.0, -1.0, 0.0])
        assert np.array_equal(sin_row[:4], [0.0, 1.0, 0.0, -1.0])
        assert np.array_equal(grid.idft_x[8], np.cos(np.pi * np.arange(16)).round())
        assert np.all(grid.idft_y[:, 33] == 0.0) and np.all(grid.idft_y[:, -1] == 0.0)

    def test_grid_tables_read_only(self, grid8):
        tables = {name: value for name, value in vars(grid8).items()
                  if isinstance(value, np.ndarray)}
        for name in ("ixi_half", "inv_lap_half", "norm_weights_half", "xi2_half",
                     "xi2_deriv_half", "xi_y_half", "dealias_half", "trapz_w",
                     "dft_y", "dft_x", "idft_x", "idft_y"):
            assert name in tables
        for name, table in tables.items():
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]


class TestKernelTransformsBitwise:
    """deriv_z, the vertical derivative of the reference path and the
    oracle of the kernel's `grid.diff_z`, is the quotient form bit for
    bit."""

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
