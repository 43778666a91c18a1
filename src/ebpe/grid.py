"""Discrete periodic cylinder (0,1)^2 x (0,1).

Horizontal directions are Fourier collocation on an Nx x Ny periodic grid;
the vertical is a uniform grid of Nz intervals (Nz+1 levels, z_0 = 0 at the
bottom, z_Nz = 1 at the surface).  Fields are real arrays of shape
(Nx, Ny) or (Nx, Ny, Nz+1), and the state stacks its three volume fields
field-major, (3, Nx, Ny, Nz+1); their spectral form carries complex
per-mode coefficients over the same axes.

The package works on half spectra held as real "pair spectra": float64
(..., Nx, 2, Ny//2+1, K) for fields (..., Nx, Ny, K), (Nx, 2, Ny//2+1)
for one (Nx, Ny) field, the axis of length 2 holding the real parts of
the columns ky = 0 .. Ny/2, then their imaginary parts.  Every per-mode
table of the kernel has that width.  `rfft_h`/`irfft_h`, the batched
transforms of the step kernel and the monitors, are dense DFT matrix
products on BLAS, not FFTs: at the 8 to 64 points a side of the grid
ladder a length-N line costs less as N multiply-adds per output than as
pocketfft's per-line call (Van Loan, Computational Frameworks for the
Fast Fourier Transform, SIAM 1992, sections 1.1-1.4).  A transform is
one batched real product for the y pass and one real product per
leading index for the x pass, with matrices the grid builds once
(`dft_y`, `idft_y`, and `dft_x`, `idft_x`, the real pair forms of the
complex x pass); the y pass leaves (x, re/im, ky, K), the x pass's
operand as it lies, so nothing is copied.  Angles are reduced mod N
before the cosine and sine are taken and the entries at multiples of
pi/2 are exact, so the transforms stay within 1e-15 of an exact DFT
(relative to its largest coefficient) up to 64 points a side.  The
products are deterministic, so a restart still reproduces a run bit for
bit; they differ from numpy's FFT by roundoff.  The step's quadratic
products keep only the modes of the 2/3 rule: `neg_dealiased_rfft_h`
runs the same passes with the rows on those modes (`dft_y_dealias`,
`dft_x_dealias`, about 4/9 of the x pass and 2/3 of the y pass) and
writes them, negated, into a zero-filled pair spectrum.  A transform
writes its products into the buffers of `work`, the `Passes` that a
`timestep.Workspace` lays out for its operand, with every view the
products take bound there once (for the inverse, the rows of its
operand too), or lets numpy allocate them when work is None; the bits
are the same.

The step kernel differentiates and inverts on pair spectra by one
multiply with a table built once per grid: `ixi_pair`, i xi_x and
i xi_y in pair form (i xi takes (a, b) to (-xi b, xi a), so the table
holds (-xi, xi) and multiplies the spectrum with its re/im axis
reversed), and `inv_lap_half`, the inverse of the discrete div(grad .)
symbol.  A state is differentiated on the grid, one real product per
direction with the Fourier differentiation matrices `diff_x`, `diff_y`
(Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3) and the
finite-difference matrix `diff_z`.  `to_spectral`/`to_physical` give
the full complex (Nx, Ny) spectrum of one field and check conjugate
symmetry on the way back; no step calls them.  They serve the tests'
references (`tests/oracles.py`, with the physical-space tendencies and
their derivatives), which read the full tables below, as set-up does.
numpy's FFT is left only there and in set-up code: the random initial
fields (`timestep.initial_state`) and the Wiener increments
(`stochastic.wiener_increments`).

DFT normalization: the forward transform divides by Nx*Ny, so the k = (0,0)
coefficient of a field is its horizontal mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-10


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
    ixi_pair : (2, Nx, 2, Ny//2+1) derivative symbols 1j * xi_x and
        1j * xi_y_half in pair form, (-xi, xi) on the re/im axis:
        multiplying a pair spectrum with its re/im axis reversed by row 0
        (row 1) is d/dx (d/dy), Nyquist zeroed.
    ixi_pair_levels : (2, Nx, 2, Ny//2+1, Nz+1) ixi_pair repeated over
        the levels, so that it multiplies pair spectra (Nx, 2, Ny//2+1,
        Nz+1), their re/im axis reversed, with no broadcast over the
        innermost axis (the baroclinic term).
    inv_lap_half : (Nx, Ny//2+1) inverse -1 / xi2_deriv_half of the discrete
        div(grad .) symbol, 0 where that symbol vanishes.
    norm_weights_pair : (2, Nx*2*(Ny//2+1)) Parseval weights in pair layout,
        one weight for both parts of a mode, that contract a squared pair
        spectrum, as rows (Nx*2*(Ny//2+1), K), into the squared L2 norm over
        the unit section (row 0) and that of the horizontal gradient (row 1,
        times xi2_deriv_half).  Row 0 is 1 on the ky = 0 and ky = Ny/2
        columns, which have no conjugate partner in the half spectrum, 2 elsewhere.
    dft_y : (2(Ny//2+1), Ny) forward y pass of rfft_h: the rows
        cos(2 pi ky j / Ny) / Ny for ky = 0 .. Ny/2, then the rows
        -sin(2 pi ky j / Ny) / Ny, so its product with a real line gives the
        real parts of the line's half spectrum, then its imaginary parts.
    dft_x : (2Nx, 2Nx) forward x pass, the pair form (`_pair_form`) of
        exp(-2 pi i kx x / Nx) / Nx: rows (kx, re/im), columns (x, re/im).
    dft_y_dealias, dft_x_dealias : the rows of dft_y with ky <= Ny/3 (the
        cosine rows, then the sine rows) and the row pairs of dft_x with
        |kx| <= Nx/3 (kx = 0 .. Nx//3, then -(Nx//3) .. -1), copied: the
        passes of neg_dealiased_rfft_h, over the modes of dealias_half.
    idft_x : (2Nx, 2Nx) inverse x pass, the pair form of exp(+2 pi i kx x / Nx).
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
    diff_z : (Nz+1, Nz+1) second-order d/dz of fields f (..., Nz+1) as
        f @ diff_z.T: centered inside, one-sided at both ends.
    x, y : collocation coordinates, shape (Nx, Ny).
    nlev : number of vertical levels, Nz + 1.
    z : vertical levels, shape (Nz+1,). dz = 1/Nz.
    trapz_w : trapezoid weights over z in [0, 1], shape (Nz+1,).
    running_trapz : (Nz+1, Nz+1) running trapezoid matrix: column j holds
        the weights of int_0^{z_j}, so f @ running_trapz integrates fields
        f (..., Nz+1) from z = 0.  Column 0 is zero and the last column is
        trapz_w, bit for bit.

    Every table is read-only: `make_grid` builds one grid per size in a
    process, and every stepper, solver and monitor of that size shares it.
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
        xi_half = np.stack(np.broadcast_arrays(self.xi_x, self.xi_y_half))
        object.__setattr__(self, "ixi_pair", np.stack((-xi_half, xi_half), axis=2))
        object.__setattr__(self, "ixi_pair_levels",
                           np.repeat(self.ixi_pair[..., None], self.nlev, axis=-1))
        xi2_half = self.xi2_deriv_half
        object.__setattr__(self, "inv_lap_half",
                           np.divide(-1.0, xi2_half, out=np.zeros_like(xi2_half),
                                     where=xi2_half > 0.0))
        weights = np.full((self.nx, half), 2.0)
        weights[:, 0] = weights[:, -1] = 1.0
        norm = np.stack((weights, weights * self.xi2_deriv_half))[:, :, None]
        object.__setattr__(self, "norm_weights_pair", np.repeat(norm, 2, axis=2).reshape(2, -1))

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
        lev = np.arange(self.nlev)
        running = trapz_w[:, None] * (lev[:, None] < lev)  # column j: trapz_w[:j]
        running[lev[1:], lev[1:]] = trapz_w[0]  # and the half weight of z_j
        object.__setattr__(self, "running_trapz", running)

        cos_y, sin_y = _unit_circle(self.ny, half)
        object.__setattr__(self, "dft_y", np.concatenate((cos_y, -sin_y)) / self.ny)
        pair_weights = weights[0, :, None]  # 1, 2, ..., 2, 1 over ky
        object.__setattr__(self, "idft_y", np.concatenate((pair_weights * cos_y,
                                                            -pair_weights * sin_y)).T.copy())
        cos_x, sin_x = _unit_circle(self.nx, self.nx)
        object.__setattr__(self, "dft_x", _pair_form(cos_x, -sin_x) / self.nx)
        keep_y_half = np.flatnonzero(keep_y[:half])  # ky = 0 .. Ny//3
        object.__setattr__(self, "dft_y_dealias",
                           self.dft_y[np.concatenate((keep_y_half, half + keep_y_half))])
        object.__setattr__(self, "dft_x_dealias",
                           _pair_form(cos_x[keep_x], -sin_x[keep_x]) / self.nx)
        object.__setattr__(self, "idft_x", _pair_form(cos_x, sin_x))
        # first columns: the derivatives of a unit impulse (spectrum 1/N)
        object.__setattr__(self, "diff_x",
                           _circulant(((cos_x + 1j * sin_x) @ (1j * dx / self.nx)).real))
        object.__setattr__(self, "diff_y",
                           _circulant(self.idft_y[:, half:] @ (self.xi_y_half[0] / self.ny)))
        h2 = 2.0 * self.dz
        diff_z = (np.eye(self.nlev, k=1) - np.eye(self.nlev, k=-1)) / h2
        diff_z[0, :3] = np.array([-3.0, 4.0, -1.0]) / h2
        diff_z[-1, -3:] = np.array([1.0, -4.0, 3.0]) / h2
        object.__setattr__(self, "diff_z", diff_z)

        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


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


def _pair_form(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real (2r, 2n) form of the complex (r, n) matrix re + i im: row
    (k, 0) (k, 1) of its product with rows (x, re/im) is the real (the
    imaginary) part of row k of the complex product."""
    r, n = re.shape
    pair = np.empty((r, 2, n, 2))
    pair[:, 0, :, 0] = pair[:, 1, :, 1] = re
    pair[:, 0, :, 1] = -im
    pair[:, 1, :, 0] = im
    return pair.reshape(2 * r, 2 * n)


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant matrix whose entry (j, l) is column[(j - l) mod n]."""
    n = len(column)
    return column[np.subtract.outer(np.arange(n), np.arange(n)) % n]


@cache
def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """The grid of these sizes, built on the first call and shared after
    it: every table is read-only, and a grid equals and hashes as its
    sizes.  Odd or too-small sizes raise GridSizeError on every call (a
    failed build is not cached)."""
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


def to_physical(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse horizontal DFT; requires conjugate-symmetric coefficients:
    an imaginary part above SYMMETRY_TOL * (1 + max |real part|) raises."""
    _check_shape(grid, coeffs)
    f = np.fft.ifft2(coeffs, axes=(0, 1), norm="forward")
    scale = np.max(np.abs(f.real))
    imag = np.max(np.abs(f.imag))
    if imag > SYMMETRY_TOL * (1.0 + scale):
        raise SymmetryError(
            f"coefficients are not conjugate symmetric (imag residual {imag:.3e})"
        )
    return np.ascontiguousarray(f.real)


class Passes(NamedTuple):
    """The buffers of one transform's two products in a workspace, and the
    views of them that the products take (`passes`), all bound once.

    The first product writes `mid`, the second reads it as `mid_rows`; a
    forward transform's second product writes its result `out` as `rows`
    (for `neg_dealiased_rfft_h`, the retained modes' own buffer, which
    `scatter` copies into out, negated, as (source, destination) blocks).
    An inverse transform's first product reads `rows`, the pair rows of
    its bound `operand`.
    """

    mid: np.ndarray
    mid_rows: np.ndarray
    out: np.ndarray | None = None
    rows: np.ndarray | None = None
    scatter: tuple = ()
    operand: np.ndarray | None = None


def passes(grid: Grid, shape: tuple[int, ...], kind: str, scratch: np.ndarray,
           out: np.ndarray | None = None, operand: np.ndarray | None = None) -> Passes:
    """The Passes of `rfft_h` (kind "forward"), `neg_dealiased_rfft_h`
    ("dealiased") or `irfft_h` ("inverse") for an operand of `shape`: real
    fields (..., Nx, Ny, K) or one (Nx, Ny) field, or their pair spectra
    for the inverse.  out is the result of a forward kind, a C-contiguous
    array of its shape; `scratch` holds the first product, or, for the
    dealiased kind, whose first product lies in out's storage, the
    second.  The inverse kind binds `operand`, the C-contiguous pair
    spectra that it transforms."""
    nx, half = grid.nx, grid.ny // 2 + 1
    if kind == "inverse":
        plane = len(shape) == 3
        lead, k = shape[: -3 - (not plane)], 1 if plane else shape[-1]
        mid = carve(scratch, math.prod(lead), 2 * nx, half * k)
        if operand is None or not (operand.shape == shape and operand.flags.c_contiguous):
            raise ValueError(f"the operand must be a C-contiguous array of shape {shape}")
        return Passes(mid, mid.reshape(lead + (nx, 2 * half, k)), rows=carve(operand, *mid.shape),
                      operand=operand)
    plane = len(shape) == 2
    lead, k = shape[: -2 - (not plane)], 1 if plane else shape[-1]
    b = math.prod(lead)
    if kind == "forward":
        mid = carve(scratch, *lead, nx, 2 * half, k)
        return Passes(mid, mid.reshape(b, 2 * nx, half * k), out, carve(out, b, 2 * nx, half * k))
    m = len(grid.dft_y_dealias) // 2  # the retained ky
    mid = carve(out, *lead, nx, 2 * m, k)
    kept = carve(scratch, b, len(grid.dft_x_dealias), m * k)
    return Passes(mid, mid.reshape(b, 2 * nx, m * k), out, kept, _scatter(grid, kept, out))


def _scatter(grid: Grid, kept: np.ndarray, out: np.ndarray) -> tuple:
    """The (source, destination) blocks that put the retained modes, the
    x pass rows (B, len(dft_x_dealias), m*K) of `neg_dealiased_rfft_h`,
    in their places in out, its C-contiguous pair spectra."""
    c = grid.nx // 3 + 1  # the retained kx = 0 .. Nx//3 come first, then kx < 0
    m = len(grid.dft_y_dealias) // 2
    kept = kept.reshape(len(kept), 2 * c - 1, 2, m, -1)
    spectra = out.reshape(len(kept), grid.nx, 2, grid.ny // 2 + 1, -1)
    return ((kept[:, :c], spectra[:, :c, :, :m]),
            (kept[:, c:], spectra[:, grid.nx - c + 1 :, :, :m]))


def carve(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """An array of `shape` in the leading elements of the C-contiguous
    `buffer`: how a workspace lays out its arrays, so that phases that do
    not overlap share one scratch array."""
    return buffer.reshape(-1)[: math.prod(shape)].reshape(shape)


def _lines(grid: Grid, fields: np.ndarray) -> np.ndarray:
    """Real fields (..., Nx, Ny, K), or one (Nx, Ny) field, checked against
    the grid, as the lines (..., Nx, Ny, K) of the y pass (K = 1 for one
    field), C-contiguous: contiguous operands keep every product on BLAS,
    so the result does not depend on the memory layout of `fields`, and a
    C-contiguous operand of three or more axes is used as it is."""
    shape = fields.shape
    plane = fields.ndim == 2
    if (shape if plane else shape[-3:-1]) != (grid.nx, grid.ny):
        raise ValueError(f"field shape {shape} does not match grid ({grid.nx}, {grid.ny})")
    if not fields.flags.c_contiguous:
        fields = np.ascontiguousarray(fields, dtype=np.float64)
    return fields.reshape(shape + (1,)) if plane else fields


def _forward(grid: Grid, fields: np.ndarray, dft_y: np.ndarray,
             dft_x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The y pass with `dft_y` (the cosine rows of m columns, then their
    sine rows) and the x pass with `dft_x` (a pair form) of real fields
    (..., Nx, Ny, K) or one (Nx, Ny) field, each product allocated.
    Returns the x pass rows (B, rows of dft_x, m*K), B the product of the
    leading axes, and the shape of the full pair spectrum of `fields`."""
    lines = _lines(grid, np.asarray(fields, dtype=np.float64))
    mid = np.matmul(dft_y, lines)  # per x: re, then im
    rows = mid.reshape(-1, 2 * grid.nx, len(dft_y) // 2 * lines.shape[-1])
    shape, half = fields.shape, grid.ny // 2 + 1
    pair = (grid.nx, 2, half) if len(shape) == 2 else shape[:-2] + (2, half, shape[-1])
    return np.matmul(dft_x, rows), pair


def rfft_h(grid: Grid, fields: np.ndarray, work: Passes | None = None) -> np.ndarray:
    """Batched horizontal real transform: pair spectra (..., Nx, 2, Ny//2+1, K)
    of real fields (..., Nx, Ny, K), or (Nx, 2, Ny//2+1) of one (Nx, Ny) field.

    Any leading axes (the field axis of the state) are batched; K is the
    level axis.  The y pass is `dft_y` times every (Ny, K) line block (one
    batched product over the leading axes and x), which leaves the real
    and imaginary parts of each line on an axis of their own; the x pass
    is `dft_x` times those pairs (one real product per leading index).

    work, when given, is the `passes` (kind "forward") of the operand's
    shape, and the result is its out; otherwise numpy allocates each
    product.  The bits do not depend on which buffers the products fill.
    """
    if work is None:
        rows, pair = _forward(grid, fields, grid.dft_y, grid.dft_x)
        return rows.reshape(pair)
    np.matmul(grid.dft_y, _lines(grid, fields), out=work.mid)
    np.matmul(grid.dft_x, work.mid_rows, out=work.rows)
    return work.out


def neg_dealiased_rfft_h(grid: Grid, fields: np.ndarray, work: Passes | None = None) -> np.ndarray:
    """Minus the 2/3-rule part of rfft_h(grid, fields): the pair spectra
    -where(dealias_half, rfft_h(grid, fields), 0) (the mask broadcast over
    the re/im axis), with exact zeros off the retained modes, for the same
    operands.

    The passes of rfft_h run with `dft_y_dealias` and `dft_x_dealias`, so
    only the retained modes are computed, and a negated copy scatters them
    into the zero-filled result (the step's tendencies are minus the
    advection).  work is as for rfft_h, of kind "dealiased": its y pass
    lies in the storage of the result.
    """
    if work is None:
        kept, pair = _forward(grid, fields, grid.dft_y_dealias, grid.dft_x_dealias)
        out = np.zeros(pair)
        scatter = _scatter(grid, kept, out)
    else:
        np.matmul(grid.dft_y_dealias, _lines(grid, fields), out=work.mid)
        np.matmul(grid.dft_x_dealias, work.mid_rows, out=work.rows)
        out, scatter = work.out, work.scatter
        out.fill(0.0)
    for source, retained in scatter:
        np.negative(source, out=retained)
    return out


def irfft_h(grid: Grid, coeffs: np.ndarray, out: np.ndarray | None = None,
            work: Passes | None = None) -> np.ndarray:
    """Inverse of rfft_h: real fields (..., Nx, Ny, K) from pair spectra
    (..., Nx, 2, Ny//2+1, K), or one (Nx, Ny) field from (Nx, 2, Ny//2+1).

    The x pass is `idft_x` times the pairs (one real product per leading
    index); it leaves (x, re/im, ky, K), and the y pass is `idft_y` times
    every such line block (one batched product).  The imaginary parts of
    the ky = 0 and ky = Ny/2 columns after the x pass meet zero entries of
    `idft_y` and are dropped, which is the real projection of the full
    inverse.  out, when given, receives the result and is returned (a
    C-contiguous array of its shape; the step passes the new state's own
    storage).  work, when given with out, is the `passes` (kind "inverse")
    that bind coeffs as their operand, and holds the x pass.
    """
    nx, half = grid.nx, grid.ny // 2 + 1
    plane = coeffs.ndim == 3
    if out is not None and not out.flags.c_contiguous:  # numpy's product would leave BLAS
        raise ValueError("an out buffer must be C-contiguous")
    if work is not None:
        if coeffs is not work.operand or out is None:
            raise ValueError("work takes out and the operand its passes bind")
        np.matmul(grid.idft_x, work.rows, out=work.mid)
        np.matmul(grid.idft_y, work.mid_rows, out=out[..., None] if plane else out)
        return out
    if coeffs.shape[-3 - (not plane) :][:3] != (nx, 2, half):
        raise ValueError(
            f"pair-spectrum shape {coeffs.shape} does not match grid ({nx}, 2, {half})"
        )
    k = 1 if plane else coeffs.shape[-1]
    pairs = np.ascontiguousarray(coeffs, dtype=np.float64).reshape(-1, 2 * nx, half * k)
    mid = np.matmul(grid.idft_x, pairs)
    if out is None:
        out = np.empty((nx, grid.ny) if plane else coeffs.shape[:-3] + (grid.ny, k))
    lines = out[..., None] if plane else out
    np.matmul(grid.idft_y, mid.reshape(lines.shape[:-2] + (2 * half, k)), out=lines)
    return out
