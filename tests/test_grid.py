"""Grid construction, transforms, dealiasing."""

import numpy as np
import pytest

from ebpe import make_grid
from ebpe.monitors import state_terms
from ebpe.timestep import State
from ebpe.grid import (Grid, GridSizeError, SymmetryError, irfft_h, neg_dealiased_rfft_h,
                       rfft_h, to_physical, to_spectral)

import oracles
from oracles import as_complex, as_pairs, deriv_z
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
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(GridSizeError):
                make_grid(*bad)

    def test_one_grid_per_size(self):
        grid = make_grid(8, 8, 8)
        assert make_grid(8, 8, 8) is grid
        assert make_grid(8, 8, 16) is not grid
        # equality and hash are the sizes
        assert Grid(8, 8, 8) == grid and hash(Grid(8, 8, 8)) == hash(grid)

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
        # the kernel's symbols: a pair plane, its re/im axis reversed, times
        # row 0 (row 1) of grid.ixi_pair is d/dx (d/dy)
        f = np.sin(2 * np.pi * grid8.x)
        df = irfft_h(grid8, grid8.ixi_pair[0] * rfft_h(grid8, f)[:, ::-1])
        assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * grid8.x))) < 1e-12
        g = np.sin(2 * np.pi * grid8.y)
        dg = irfft_h(grid8, grid8.ixi_pair[1] * rfft_h(grid8, g)[:, ::-1])
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
        spectra = as_complex(rfft_h(grid, fields))
        ref = np.fft.rfft2(fields, axes=(0, 1), norm="forward")
        assert self.max_rel_err(spectra, ref) <= 2e-15
        ref_inv = np.fft.irfft2(ref, s=(grid.nx, grid.ny), axes=(0, 1), norm="forward")
        assert self.max_rel_err(irfft_h(grid, as_pairs(ref)), ref_inv) <= 2e-15

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8)])
    def test_leading_field_axis_matches_numpy_oracle(self, shape, rng):
        # the state's layout (3, Nx, Ny, Nz+1), the field axis first
        grid = make_grid(*shape)
        fields = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
        spectra = as_complex(rfft_h(grid, fields))
        ref = np.fft.rfft2(fields, axes=(1, 2), norm="forward")
        assert spectra.shape == ref.shape
        assert self.max_rel_err(spectra, ref) <= 1e-15
        ref_inv = np.fft.irfft2(ref, s=(grid.nx, grid.ny), axes=(1, 2), norm="forward")
        back = irfft_h(grid, as_pairs(ref))
        assert back.shape == fields.shape and back.flags.c_contiguous
        assert self.max_rel_err(back, ref_inv) <= 1e-15

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the exact oracle needs an 80-bit long double")
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_rfft_h_matches_exact_dft(self, n, rng):
        grid = make_grid(n, n, 4)
        fields = rng.standard_normal((n, n, 4))
        re, im = oracles.exact_rfft2(fields)
        spectra = as_complex(rfft_h(grid, fields))
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

    def test_two_dimensional_and_leading_axes(self, grid8, rng):
        f = rng.standard_normal((8, 8))
        c = rfft_h(grid8, f)
        assert c.shape == (8, 2, 5)
        assert self.max_rel_err(as_complex(c), np.fft.rfft2(f, norm="forward")) <= 2e-15
        assert self.max_rel_err(irfft_h(grid8, c), f) <= 2e-15
        # leading axes batch whole fields: each comes out as if alone
        stack = rng.standard_normal((2, 3, 8, 8, grid8.nlev))
        c = rfft_h(grid8, stack)
        assert c.shape == (2, 3, 8, 2, 5, grid8.nlev)
        assert np.array_equal(c, np.stack([[rfft_h(grid8, f) for f in row] for row in stack]))
        back = irfft_h(grid8, c)
        assert back.shape == stack.shape
        assert np.array_equal(back, np.stack([[irfft_h(grid8, f) for f in row] for row in c]))
        with pytest.raises(ValueError, match="does not match grid"):
            rfft_h(grid8, stack[..., None])  # a stack of (Ny, K) is no field

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
                noisy[i, 1, j] += rng.standard_normal(5)  # the imaginary part
        assert not np.array_equal(noisy, c)
        assert np.array_equal(irfft_h(grid, noisy), irfft_h(grid, c))

    def test_self_conjugate_columns_keep_their_real_projection(self, rng):
        # imaginary parts along the whole ky = 0 and ky = Ny/2 columns whose
        # x inverse is purely imaginary are dropped up to roundoff, as by irfft2
        grid = make_grid(8, 16, 8)
        c = as_complex(rfft_h(grid, rng.standard_normal((8, 16, 3))))
        noisy = c.copy()
        for j in (0, -1):
            noisy[:, j] += 1j * np.fft.fft(rng.standard_normal((8, 3)), axis=0, norm="forward")
        ref = np.fft.irfft2(noisy, s=(8, 16), axes=(0, 1), norm="forward")
        c, noisy = as_pairs(c), as_pairs(noisy)
        assert self.max_rel_err(ref, irfft_h(grid, c)) <= 2e-15
        assert self.max_rel_err(irfft_h(grid, noisy), irfft_h(grid, c)) <= 2e-15

    @pytest.mark.parametrize("shape", [(8, 12, 4), (10, 14, 5), (16, 16, 16), (32, 16, 8)])
    def test_dealiased_transform_matches_masked_rfft_h(self, shape, rng):
        # N // 3 rounds down on every axis but 12, and Nx != Ny
        grid = make_grid(*shape)
        for fields in (rng.standard_normal((3, grid.nx, grid.ny, grid.nlev)),
                       rng.standard_normal((grid.nx, grid.ny, grid.nlev)),
                       rng.standard_normal((grid.nx, grid.ny))):
            ours = neg_dealiased_rfft_h(grid, fields)
            full = rfft_h(grid, fields)
            # the mask broadcast over the re/im axis (and the levels)
            mask = grid.dealias_half[:, None]
            mask = mask if fields.ndim == 2 else mask[..., None]
            ref = np.where(mask, full, 0.0)
            assert ours.shape == full.shape
            assert np.abs(-ours - ref).max() <= 1e-15 * np.abs(ref).max()
            assert np.all(np.broadcast_to(mask, ours.shape) | (ours == 0.0))

    def test_dealias_tables_are_rows_of_the_dft_tables(self):
        grid = make_grid(10, 14, 5)
        half = grid.ny // 2 + 1
        ky = np.arange(grid.ny // 3 + 1)  # 0 .. 4
        assert np.array_equal(grid.dft_y_dealias, grid.dft_y[np.concatenate((ky, half + ky))])
        kx = np.array([0, 1, 2, 3, -3, -2, -1])
        rows = grid.dft_x.reshape(grid.nx, 2, 2 * grid.nx)  # (kx, re/im) row pairs
        assert np.array_equal(grid.dft_x_dealias, rows[kx].reshape(-1, 2 * grid.nx))

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
        fields = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
        spectra = rfft_h(grid, fields)
        dealiased = neg_dealiased_rfft_h(grid, fields)
        for view in self.other_layouts(fields):
            assert np.array_equal(rfft_h(grid, view), spectra)
            assert np.array_equal(neg_dealiased_rfft_h(grid, view), dealiased)
        back = irfft_h(grid, spectra)
        for view in self.other_layouts(spectra):
            assert np.array_equal(irfft_h(grid, view), back)

    def test_dft_tables_exact_at_quarter_turns(self):
        grid = make_grid(16, 64, 4)
        # y pass row ky = Ny/4: angles 2 pi j / 4
        cos_row, sin_row = grid.dft_y[16] * 64, -grid.dft_y[16 + 33] * 64
        assert np.array_equal(cos_row[:4], [1.0, 0.0, -1.0, 0.0])
        assert np.array_equal(sin_row[:4], [0.0, 1.0, 0.0, -1.0])
        # pair form: row (x = 8, re) holds (cos, -sin)(pi kx) for each kx
        assert np.array_equal(grid.idft_x[16, ::2], np.cos(np.pi * np.arange(16)).round())
        assert np.all(grid.idft_x[16, 1::2] == 0.0)
        assert np.all(grid.idft_y[:, 33] == 0.0) and np.all(grid.idft_y[:, -1] == 0.0)

    def test_grid_tables_read_only(self, grid8):
        tables = {name: value for name, value in vars(grid8).items()
                  if isinstance(value, np.ndarray)}
        for name in ("ixi_pair", "inv_lap_half", "norm_weights_pair", "xi2_half",
                     "xi2_deriv_half", "xi_y_half", "dealias_half", "trapz_w",
                     "dft_y", "dft_x", "idft_x", "idft_y", "dft_y_dealias", "dft_x_dealias",
                     "running_trapz"):
            assert name in tables
        for name, table in tables.items():
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]


class TestPairSpectra:
    """Half spectra are real pair spectra: float64 (..., Nx, 2, Ny//2+1, K),
    or (Nx, 2, Ny//2+1) for a plane, whose axis of length 2 holds the real
    parts, then the imaginary parts; `oracles.as_complex`/`as_pairs`
    convert them."""

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8), "plane"])
    def test_pair_layout_matches_numpy_oracle(self, shape, rng):
        grid = make_grid(8, 8, 8) if shape == "plane" else make_grid(*shape)
        half = grid.ny // 2 + 1
        if shape == "plane":
            fields, axes, want = rng.standard_normal((8, 8)), (0, 1), (8, 2, half)
        else:
            fields = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
            axes, want = (1, 2), (3, grid.nx, 2, half, grid.nlev)
        spectra = rfft_h(grid, fields)
        assert spectra.dtype == np.float64 and spectra.shape == want
        ref = np.fft.rfft2(fields, axes=axes, norm="forward")
        err = np.abs(as_complex(spectra) - ref).max() / np.abs(ref).max()
        assert err <= 1e-15
        back = irfft_h(grid, as_pairs(ref))
        ref_inv = np.fft.irfft2(ref, s=(grid.nx, grid.ny), axes=axes, norm="forward")
        assert back.dtype == np.float64 and back.shape == fields.shape
        assert np.abs(back - ref_inv).max() <= 1e-15 * np.abs(ref_inv).max()

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16)])
    def test_pair_spectra_do_not_depend_on_memory_layout(self, shape, rng):
        # pair spectra stored with the re/im axis outermost, as a reversed
        # view and with every axis reversed in memory invert bit for bit
        grid = make_grid(*shape)
        spectra = rfft_h(grid, rng.standard_normal((3, grid.nx, grid.ny, grid.nlev)))
        plane = spectra[2, ..., -1]
        back, back_plane = irfft_h(grid, spectra), irfft_h(grid, plane)
        outer = np.moveaxis(np.moveaxis(spectra, -3, 0).copy(), 0, -3)
        flipped = np.ascontiguousarray(spectra[:, :, ::-1])[:, :, ::-1]
        for view in (outer, flipped, spectra.T.copy().T):
            assert not view.flags.c_contiguous
            assert np.array_equal(irfft_h(grid, view), back)
        assert np.array_equal(irfft_h(grid, plane.T.copy().T), back_plane)
        assert np.array_equal(irfft_h(grid, np.ascontiguousarray(plane)), back_plane)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (10, 14, 5)])
    def test_dealiased_pairs_are_minus_the_masked_rfft_h(self, shape, rng):
        grid = make_grid(*shape)
        fields = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
        ours, full = neg_dealiased_rfft_h(grid, fields), rfft_h(grid, fields)
        assert ours.dtype == np.float64 and ours.shape == full.shape
        ref = as_complex(full) * grid.dealias_half[..., None]  # the mask on complex modes
        assert np.abs(-as_complex(ours) - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(8, 8, 8), (8, 16, 8)])
    def test_ixi_pair_multiply_is_the_complex_multiply(self, shape, rng):
        # a pair spectrum with its re/im axis reversed, times ixi_pair, is
        # 1j * xi times the complex spectrum, bit for bit
        grid = make_grid(*shape)
        spectra = rfft_h(grid, rng.standard_normal((2, grid.nx, grid.ny, grid.nlev)))
        ours = grid.ixi_pair[..., None] * spectra[..., ::-1, :, :]
        assert ours.dtype == np.float64 and ours.shape == spectra.shape
        c = as_complex(spectra)
        xi = (grid.xi_x, grid.xi_y_half)
        for d in range(2):
            assert np.array_equal(as_complex(ours[d]), 1j * xi[d][..., None] * c[d])


class TestKernelTransformsBitwise:
    """The kernel's `grid.diff_z`, built from its stencil, is the matrix of
    deriv_z (the quotient form of the reference path) bit for bit, and its
    product, the kernel's d/dz, rounds within 2e-15 of that form."""

    @pytest.mark.parametrize("nz", [4, 8, 16, 64])
    def test_diff_z_is_the_matrix_of_deriv_z(self, nz):
        grid = make_grid(8, 8, nz)
        assert np.array_equal(grid.diff_z, deriv_z(grid, np.eye(grid.nlev)).T)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16)])
    def test_deriv_z_matches_quotient_form(self, shape, rng):
        # the d/dz of monitors.state_terms, which the step reads
        grid = make_grid(*shape)
        f = rng.standard_normal((3, grid.nx, grid.ny, grid.nlev))
        h = grid.dz
        ref = np.empty_like(f)
        ref[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
        ref[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
        ref[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
        ours = state_terms(grid, State(f)).dz
        assert np.abs(ours - ref).max() <= 2e-15 * np.abs(ref).max()


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
    """The kernel's dealiased transform, `neg_dealiased_rfft_h`: minus the
    2/3-rule modes of rfft_h (within the 1e-15 relative bound of
    `test_dealiased_transform_matches_masked_rfft_h`), exact zeros on the
    others."""

    def test_retained_input_unchanged(self, grid8, rng):
        f = smooth_field_2d(grid8, rng)  # confined to the retained modes
        full = rfft_h(grid8, f)
        assert np.abs(-neg_dealiased_rfft_h(grid8, f) - full).max() <= 1e-15 * np.abs(full).max()

    def test_retained_modes_bit_identical(self, grid8, rng):
        # the retained modes are the products with the dealias tables, as
        # rfft_h's passes run them, placed at their modes and negated
        f = rng.standard_normal((8, 8, 3))
        m = grid8.ny // 3 + 1
        y = (grid8.dft_y_dealias @ f).reshape(1, 2 * grid8.nx, m * 3)
        kept = (grid8.dft_x_dealias @ y).reshape(-1, 2, m, 3)
        kx = np.flatnonzero(np.abs(grid8.kx) <= grid8.nx // 3)  # the order of kept
        assert np.array_equal(-neg_dealiased_rfft_h(grid8, f)[kx, :, :m], kept)

    def test_masked_mode_zeroed(self, grid8):
        f = np.cos(2 * np.pi * 3 * grid8.x)  # |kx| = 3 > Nx // 3 only
        full, ours = rfft_h(grid8, f), neg_dealiased_rfft_h(grid8, f)
        assert np.abs(full).max() == pytest.approx(0.5, abs=1e-15)
        masked = np.broadcast_to(~grid8.dealias_half[:, None], ours.shape)
        assert np.all(ours[masked] == 0.0)
        assert np.abs(ours).max() <= 1e-15 * np.abs(full).max()

    def test_product_matches_convolution_oracle(self, grid8):
        # maximal retained modes: |k| = Nx//3 = 2
        f = np.cos(2 * np.pi * 2 * grid8.x)
        g = np.cos(2 * np.pi * 2 * grid8.x) + 0.5 * np.sin(2 * np.pi * 2 * grid8.y)
        product = -as_complex(neg_dealiased_rfft_h(grid8, f * g))
        oracle = brute_force_truncated_convolution(grid8, f, g)[:, : grid8.ny // 2 + 1]
        assert np.max(np.abs(product - oracle)) < 1e-13
