"""Discrete periodic cylinder (0,1)^2 x (0,1).

Horizontal directions are Fourier collocation on an Nx x Ny periodic grid;
the vertical is a uniform grid of Nz intervals (Nz+1 levels, z_0 = 0 at the
bottom, z_Nz = 1 at the surface).  Fields are real arrays of shape
(Nx, Ny) or (Nx, Ny, Nz+1); their spectral form carries complex per-mode
coefficients over the same leading axes.

The package works on half spectra.  `rfft_h`/`irfft_h` are the batched
real transforms of the step kernel and the monitors: one call moves any
stack of fields (horizontal axes first, any trailing axes) to or from its
half spectrum of shape (Nx, Ny//2+1, ...), whose columns are ky = 0 ..
Ny/2, and every per-mode table of the kernel has that width.  They are
dense DFT matrix products on BLAS, not FFTs: at the 8 to 64 points a side
of the grid ladder a length-N line costs less as N multiply-adds per
output than as pocketfft's per-line call (Van Loan, Computational
Frameworks for the Fast Fourier Transform, SIAM 1992, sections 1.1-1.4).
Each transform is one batched real product over x for the y pass, one
complex product for the x pass and one copy between the real and the
complex layout, with matrices the grid builds once (`dft_y`, `dft_x`,
`idft_x`, `idft_y`).  Their angles are reduced mod N before the cosine
and sine are taken, and the entries at multiples of pi/2 are exact, so
the transforms stay within 1e-15 of an exact DFT (relative to its
largest coefficient) up to 64 points a side.  The products are
deterministic, so a restart still reproduces a run bit for bit; they
differ from numpy's FFT by roundoff.

The step kernel differentiates the spectra of its solves and inverts
on half spectra by one multiply with a table built once per grid:
`ixi_half`, the stacked symbols (i xi_x, i xi_y), and `inv_lap_half`,
the inverse of the discrete div(grad .) symbol.  A state is
differentiated on the grid, one real product per direction with the
Fourier differentiation matrices `diff_x`, `diff_y` (Trefethen, Spectral
Methods in MATLAB, SIAM 2000, ch. 3) and `diff_z`.
`to_spectral`/`to_physical` give the full (Nx, Ny) spectrum of one
field and check conjugate symmetry on the way back.  They, the full
tables below, `match_columns` and the functions that call it
(`dealias`, `deriv_x`, `deriv_y`) remain only for the physical-space
reference path, `timestep.nonlinear_tendencies`, which the benchmark
traces, and for the tests; the other full-spectrum references live
with the tests (`tests/oracles.py`).  numpy's FFT is left only there
and in set-up code: the random initial fields (`timestep.initial_state`)
and the Wiener increments (`stochastic.wiener_increments`).

DFT normalization: the forward transform divides by Nx*Ny, so the k = (0,0)
coefficient of a field is its horizontal mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridSizeError(ValueError):
    """Raised for horizontal sizes that are odd or below the minimum."""


class SymmetryError(ValueError):
    """Raised when coefficients handed to to_physical are not conjugate symmetric."""


@dataclass(frozen=True)
class Grid:
    """DFT matrices and wavenumber tables for the periodic cylinder.

    Attributes filled at construction:

    kx, ky : integer mode numbers along each horizontal axis (FFT order).
    xi_x, xi_y : angular wavenumbers 2*pi*k, broadcastable to (Nx, Ny);
        the Nyquist entry is zeroed so first derivatives of real fields
        stay real.
    xi2 : |xi|^2 table of shape (Nx, Ny), Nyquist included (safe for
        Laplacian-type symbols).
    dealias_mask : boolean (Nx, Ny) table implementing the 2/3 rule,
        True on retained modes.
    xi_y_half, xi2_half, xi2_deriv_half, dealias_half : the same tables
        over the Ny//2+1 columns of a half spectrum.  They are the first
        columns of the full tables: FFT order stores ky = Ny/2 as -Ny/2,
        and every table is even in ky or zero there.
    ixi_half : complex (2, Nx, Ny//2+1) derivative symbols (1j * xi_x,
        1j * xi_y_half): multiplying a half spectrum by row 0 (row 1) is
        deriv_x (deriv_y), bit for bit.
    inv_lap_half : (Nx, Ny//2+1) inverse -1 / xi2_deriv_half of the discrete
        div(grad .) symbol, 0 where that symbol vanishes.
    norm_weights_half : (2, Nx, Ny//2+1) Parseval weights that contract
        the power of a half spectrum into the squared L2 norm over the unit
        section (row 0) and that of the horizontal gradient (row 1, times
        xi2_deriv_half).  Row 0 is 1 on the ky = 0 and ky = Ny/2 columns,
        which have no conjugate partner in the half spectrum, 2 elsewhere.
    dft_y : (2(Ny//2+1), Ny) forward y pass of rfft_h: the rows
        cos(2 pi ky j / Ny) / Ny for ky = 0 .. Ny/2, then the rows
        -sin(2 pi ky j / Ny) / Ny, so its product with a real line gives the
        real parts of the line's half spectrum, then its imaginary parts.
    dft_x : complex (Nx, Nx) forward x pass, exp(-2 pi i kx x / Nx) / Nx.
    idft_x : complex (Nx, Nx) inverse x pass, exp(+2 pi i kx x / Nx).
    idft_y : (Ny, 2(Ny//2+1)) inverse y pass of irfft_h: the columns
        w cos(2 pi ky j / Ny), then -w sin(2 pi ky j / Ny), with the
        conjugate-pair weights w = 1, 2, ..., 2, 1.  Its sine columns are
        exactly 0 at ky = 0 and ky = Ny/2 (angles at multiples of pi), so
        the imaginary parts of those columns after the x pass are dropped,
        as numpy's irfft2 drops them.
    diff_x, diff_y : real circulant (Nx, Nx) and (Ny, Ny) Fourier
        differentiation matrices, idft . diag(i xi) . dft without Nyquist,
        built from their first columns; diff_x @ f.reshape(Nx, -1) is
        d/dx of fields f (Nx, ...), diff_y @ f is d/dy of f (..., Ny, K).
    diff_z : the (Nz+1, Nz+1) matrix of deriv_z.
    x, y : collocation coordinates, shape (Nx, Ny).
    nlev : number of vertical levels, Nz + 1.
    z : vertical levels, shape (Nz+1,). dz = 1/Nz.
    trapz_w : trapezoid weights over z in [0, 1], shape (Nz+1,).

    Every table is read-only: the steppers and solvers of a grid share
    them.
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name, n in (("Nx", self.nx), ("Ny", self.ny)):
            if n < 4 or n % 2 != 0:
                raise GridSizeError(f"{name} must be even and >= 4, got {n}")
        if self.nz < 4:
            raise GridSizeError(f"Nz must be >= 4, got {self.nz}")

        object.__setattr__(self, "nlev", self.nz + 1)
        kx = np.fft.fftfreq(self.nx, 1.0 / self.nx).astype(np.int64)
        ky = np.fft.fftfreq(self.ny, 1.0 / self.ny).astype(np.int64)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)

        two_pi = 2.0 * np.pi
        xi_x = two_pi * kx.astype(np.float64)
        xi_y = two_pi * ky.astype(np.float64)
        # Nyquist has no conjugate partner; its odd-order derivative of a real
        # field would be imaginary, so the derivative tables zero it.
        dx = xi_x.copy()
        dy = xi_y.copy()
        dx[self.nx // 2] = 0.0
        dy[self.ny // 2] = 0.0
        object.__setattr__(self, "xi_x", dx[:, None])
        object.__setattr__(self, "xi_y", dy[None, :])
        object.__setattr__(self, "xi2", (xi_x**2)[:, None] + (xi_y**2)[None, :])
        # symbol of the discrete div(grad .) pair; differs from xi2 only on
        # Nyquist lines, where first derivatives are defined as zero
        xi2_deriv = (dx**2)[:, None] + (dy**2)[None, :]

        keep_x = np.abs(kx) <= self.nx // 3
        keep_y = np.abs(ky) <= self.ny // 3
        object.__setattr__(self, "dealias_mask", keep_x[:, None] & keep_y[None, :])

        half = self.ny // 2 + 1
        object.__setattr__(self, "xi_y_half", self.xi_y[:, :half].copy())
        object.__setattr__(self, "xi2_half", self.xi2[:, :half].copy())
        object.__setattr__(self, "xi2_deriv_half", xi2_deriv[:, :half].copy())
        object.__setattr__(self, "dealias_half", self.dealias_mask[:, :half].copy())
        object.__setattr__(self, "ixi_half",
                           np.stack(np.broadcast_arrays(1j * self.xi_x, 1j * self.xi_y_half)))
        xi2_half = self.xi2_deriv_half
        object.__setattr__(self, "inv_lap_half",
                           np.divide(-1.0, xi2_half, out=np.zeros_like(xi2_half),
                                     where=xi2_half > 0.0))
        weights = np.full((self.nx, half), 2.0)
        weights[:, 0] = weights[:, -1] = 1.0
        object.__setattr__(self, "norm_weights_half",
                           np.stack((weights, weights * self.xi2_deriv_half)))

        xs = np.arange(self.nx) / self.nx
        ys = np.arange(self.ny) / self.ny
        x, y = np.meshgrid(xs, ys, indexing="ij")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", np.arange(self.nz + 1) / self.nz)
        object.__setattr__(self, "dz", 1.0 / self.nz)
        trapz_w = np.full(self.nlev, self.dz)
        trapz_w[0] *= 0.5
        trapz_w[-1] *= 0.5
        object.__setattr__(self, "trapz_w", trapz_w)

        cos_y, sin_y = _unit_circle(self.ny, half)
        object.__setattr__(self, "dft_y", np.concatenate((cos_y, -sin_y)) / self.ny)
        pair_weights = weights[0, :, None]  # 1, 2, ..., 2, 1 over ky
        object.__setattr__(self, "idft_y", np.concatenate((pair_weights * cos_y,
                                                            -pair_weights * sin_y)).T.copy())
        cos_x, sin_x = _unit_circle(self.nx, self.nx)
        object.__setattr__(self, "dft_x", (cos_x - 1j * sin_x) / self.nx)
        object.__setattr__(self, "idft_x", cos_x + 1j * sin_x)
        # first columns: the derivatives of a unit impulse (spectrum 1/N)
        object.__setattr__(self, "diff_x", _circulant((self.idft_x @ (1j * dx / self.nx)).real))
        object.__setattr__(self, "diff_y",
                           _circulant(self.idft_y[:, half:] @ (self.xi_y_half[0] / self.ny)))
        object.__setattr__(self, "diff_z", deriv_z(self, np.eye(self.nlev)).T.copy())

        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def zeros2d(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny))

    def zeros3d(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny, self.nlev))

    def zeros_velocity(self) -> np.ndarray:
        return np.zeros((2, self.nx, self.ny, self.nlev))


def _unit_circle(n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi m j / n for m < rows, j < n, shape (rows, n).

    The angle is reduced mod n before it is scaled, so no entry is taken
    at more than 2 pi, and the entries at multiples of pi/2 are exact.
    """
    a = np.outer(np.arange(rows), np.arange(n)) % n
    theta = (2.0 * np.pi / n) * a
    cos, sin = np.cos(theta), np.sin(theta)
    quarter, rem = np.divmod(4 * a, n)
    exact = rem == 0
    cos[exact] = np.array([1.0, 0.0, -1.0, 0.0])[quarter[exact]]
    sin[exact] = np.array([0.0, 1.0, 0.0, -1.0])[quarter[exact]]
    return cos, sin


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant matrix whose entry (j, l) is column[(j - l) mod n]."""
    n = len(column)
    return column[np.subtract.outer(np.arange(n), np.arange(n)) % n]


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """Build a grid; rejects odd or too-small sizes with GridSizeError."""
    return Grid(nx, ny, nz)


def _check_shape(grid: Grid, f: np.ndarray) -> None:
    if f.shape[:2] != (grid.nx, grid.ny):
        raise ValueError(
            f"field shape {f.shape} does not match grid ({grid.nx}, {grid.ny})"
        )
    if f.ndim == 3 and f.shape[2] != grid.nlev:
        raise ValueError(
            f"3D field has {f.shape[2]} levels, grid has {grid.nlev}"
        )
    if f.ndim not in (2, 3):
        raise ValueError(f"expected a 2D or 3D field, got ndim={f.ndim}")


def to_spectral(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Horizontal DFT of a real field; vertical axis (if any) untouched."""
    _check_shape(grid, field)
    return np.fft.fft2(field, axes=(0, 1), norm="forward")


def to_physical(grid: Grid, coeffs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Inverse horizontal DFT; requires conjugate-symmetric coefficients."""
    _check_shape(grid, coeffs)
    f = np.fft.ifft2(coeffs, axes=(0, 1), norm="forward")
    scale = np.max(np.abs(f.real))
    imag = np.max(np.abs(f.imag))
    if imag > tol * (1.0 + scale):
        raise SymmetryError(
            f"coefficients are not conjugate symmetric (imag residual {imag:.3e})"
        )
    return np.ascontiguousarray(f.real)


def rfft_h(grid: Grid, fields: np.ndarray) -> np.ndarray:
    """Batched horizontal real transform: half spectra of shape
    (Nx, Ny//2+1, ...) of real fields shaped (Nx, Ny, ...).

    The y pass is `dft_y` times every x line of every trailing plane (one
    batched product over x); a copy pairs the real and imaginary parts it
    leaves into complex lines, and the x pass is `dft_x` times those (one
    product).
    """
    if fields.shape[:2] != (grid.nx, grid.ny):
        raise ValueError(
            f"field shape {fields.shape} does not match grid ({grid.nx}, {grid.ny})"
        )
    nx, half, rest = grid.nx, grid.ny // 2 + 1, fields.shape[2:]
    # contiguous operands keep every product on BLAS, so the result does
    # not depend on the memory layout of `fields`
    lines = np.ascontiguousarray(fields, dtype=np.float64).reshape(nx, grid.ny, -1)
    y = (grid.dft_y @ lines).reshape((nx, 2, half) + rest)  # real parts, then imaginary
    y_hat = np.empty((nx, half) + rest, dtype=complex)
    y_hat.real = y[:, 0]
    y_hat.imag = y[:, 1]
    del y  # one intermediate at a time keeps the peak memory of a step down
    return (grid.dft_x @ y_hat.reshape(nx, -1)).reshape(y_hat.shape)


def irfft_h(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of rfft_h: real fields (Nx, Ny, ...) from half spectra.

    The x pass is `idft_x` times the coefficients (one product); a copy
    splits the result into real and imaginary parts, and the y pass is
    `idft_y` times every x line (one batched product over x).  The
    imaginary parts of the ky = 0 and ky = Ny/2 columns after the x pass
    meet zero entries of `idft_y` and are dropped, which is the real
    projection of the full inverse.
    """
    nx, half, rest = grid.nx, grid.ny // 2 + 1, coeffs.shape[2:]
    if coeffs.shape[:2] != (nx, half):
        raise ValueError(
            f"half-spectrum shape {coeffs.shape} does not match grid ({nx}, {half})"
        )
    x_hat = grid.idft_x @ np.ascontiguousarray(coeffs, dtype=complex).reshape(nx, -1)
    x = np.empty((nx, 2, x_hat.shape[1]))
    x[:, 0] = x_hat.real
    x[:, 1] = x_hat.imag
    del x_hat
    return (grid.idft_y @ x.reshape(nx, 2 * half, -1)).reshape((nx, grid.ny) + rest)


def pack_fields(v: np.ndarray, T: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """One array for a batched transform: the planes v[0], v[1], T (Nz+1
    each) and the surface field (1) along a new last axis."""
    return np.concatenate((v[0], v[1], T, surface[..., None]), axis=-1)


def unpack_fields(grid: Grid, packed: np.ndarray):
    """Views (v, T, surface) into an (Nx, W, 3(Nz+1)+1) pack_fields array,
    physical or spectral; v has its component axis first, as in the state."""
    n = grid.nlev
    v = packed[..., : 2 * n].reshape(packed.shape[:2] + (2, n)).transpose(2, 0, 1, 3)
    return v, packed[..., 2 * n : 3 * n], packed[..., 3 * n]


def volume_fields(grid: Grid, packed: np.ndarray) -> np.ndarray:
    """View (Nx, W, 3, Nz+1) of the planes v[0], v[1], T of a pack_fields
    array, for operations that treat the three volume fields alike."""
    n = grid.nlev
    return packed[..., : 3 * n].reshape(packed.shape[:2] + (3, n))


def match_columns(
    grid: Grid, full: np.ndarray, half: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """The (Nx, Ny) table `full` or its half-spectrum form `half`, whichever
    matches the columns of coeffs, shaped to broadcast over its trailing axes."""
    table = full if coeffs.shape[1] == grid.ny else half
    return table.reshape(table.shape + (1,) * (coeffs.ndim - 2))


def dealias(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3 rule; retained modes are untouched."""
    mask = match_columns(grid, grid.dealias_mask, grid.dealias_half, coeffs)
    return np.where(mask, coeffs, 0.0)


def deriv_x(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """d/dx in spectral space (Nyquist zeroed)."""
    return 1j * match_columns(grid, grid.xi_x, grid.xi_x, coeffs) * coeffs


def deriv_y(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """d/dy in spectral space (Nyquist zeroed)."""
    return 1j * match_columns(grid, grid.xi_y, grid.xi_y_half, coeffs) * coeffs


def deriv_z(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Vertical derivative of a 3D field: centered interior, one-sided ends."""
    h = grid.dz
    out = np.empty_like(f)
    interior = out[..., 1:-1]
    np.subtract(f[..., 2:], f[..., :-2], out=interior)
    interior /= 2.0 * h
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return out
