"""Per-mode vertical operators for the coupled temperature system.

For each horizontal mode xi the temperature and its surface trace form one
stacked unknown (T(z_0), ..., T(z_{Nz-1}), rho) with the identification
T(z_Nz) = rho, so the trace condition is exact by construction.  That
stack is field 2, the spectral T, of the step kernel's field-major
pair-spectrum layout (3, Nx, 2, Ny//2+1, Nz+1) (`ebpe.grid`), whose top
level is rho; the velocity solve acts on fields 0 and 1.  Rows:

* bottom: vertical Laplacian with the no-flux condition folded in by
  ghost elimination (second order),
* interior: centered second differences minus |xi|^2,
* top: the surface equation -|xi|^2 rho - dT/dz|_top, the flux taken with
  a one-sided stencil.

The boundary-flux stencil uses five points (fourth order).  The nominally
sufficient three-point stencil carries an O(h^2) constant ~ 0.35 |xi|^3
that dominates the discrete Dirichlet-to-Neumann symbol; the wider stencil
leaves the symbol error at the level of the interior dispersion,
|xi|^3 h^2 / 24, while the scheme stays globally second order.

A companion Neumann-Neumann operator serves the velocity solves.

Every mode operator is vertical - |xi|^2 I, so one real eigendecomposition
vertical = V diag(lam) V^-1 (`eigenbasis`) serves all modes (the fast
diagonalisation method of Lynch, Rice & Thomas).  `vertical_operator`
makes it once per grid and matrix in a process and keeps the record,
read-only: one `eig` per vertical matrix per grid per process.  Both
solvers read it, so the steppers of one grid share it, and so do the
noise propagator (`ebpe.stochastic`), through the coupled solver, and
the spectrum report; a solver builds only its dt-dependent table d.
The implicit inverse is V diag(d) V^-1 with a real table d
(`implicit_factors`) in the pair layout (Nx, 2, Ny//2+1, n), the factor
of a mode stored for both its parts: on the rows (..., n) of real pair
spectra, `apply_diagonal` is the product with V^-T (`to_eigen`), one
contiguous multiply by d and the product with V^T (`from_eigen`), for
one field or all the step's fields at once, with the `transposed_bases`
(V^-T, V^T).  A generator is applied, never tabulated, as the one
vertical matrix product minus |xi|^2 times the column.  No step applies
it: both time schemes need only the inverse (`ebpe.timestep`); the
tests check it against the dense mode operators.
The spectrum report lists omega + |xi|^2 - lam over every retained mode,
omega given by its caller (`ebpe spectrum`).

Every per-mode table here is built over the (Nx, Ny//2+1) half spectrum
of the step kernel (`grid.xi2_half`), d in pair layout and the
generator's |xi|^2 broadcast over the re/im axis of a pair spectrum; a
full-width spectrum fails in numpy broadcasting with a ValueError.  The
dense per-mode matrices, the physical-space solves that check these
tables, and the harmonic extension and Dirichlet-to-Neumann symbol of
the similarity transform live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .grid import Grid

# one-sided d/dz at the top boundary, taken downward; divide by 12 dz
# (TOP_FLUX_STENCIL: by dz) at use.  The integer entries sum to exactly 0.
TOP_FLUX_INTEGERS = np.array([25.0, -48.0, 36.0, -16.0, 3.0])
TOP_FLUX_STENCIL = TOP_FLUX_INTEGERS / 12.0


class SolveError(RuntimeError):
    """Raised when a vertical operator has no real eigenbasis or its
    eigensolver fails."""


@dataclass(frozen=True)
class SectorReport:
    """Eigenvalues of (omega*I - generator) per retained mode, one row of
    the (n_modes, Nz+1) array `eigenvalues` per entry of `modes`.

    phi_hat is the largest |arg| over all reported eigenvalues; the
    discretization is considered sectorial when phi_hat < pi/2 and no
    eigenvalue has a real part below -tol.
    """

    omega: float
    modes: list[tuple[int, int]]
    eigenvalues: np.ndarray
    phi_hat: float

    def min_real_part(self) -> float:
        return float(self.eigenvalues.real.min())

    def rows(self):
        """Flat (k1, k2, Re, Im) tuples for CSV emission."""
        for (k1, k2), ev in zip(self.modes, self.eigenvalues):
            for lam in ev:
                yield k1, k2, lam.real, lam.imag


def _vertical_laplacian(grid: Grid) -> np.ndarray:
    """Bottom (no-flux by ghost elimination) and interior rows of the
    vertical Laplacian, shape (Nz+1, Nz+1); the top row is left zero."""
    nz, h = grid.nz, grid.dz
    L = np.zeros((nz + 1, nz + 1))
    L[0, 0] = -2.0 / h**2
    L[0, 1] = 2.0 / h**2
    j = np.arange(1, nz)
    L[j, j - 1] = L[j, j + 1] = 1.0 / h**2
    L[j, j] = -2.0 / h**2
    return L


def coupled_vertical_matrix(grid: Grid) -> np.ndarray:
    """xi-independent part of the coupled generator, shape (Nz+1, Nz+1)."""
    L = _vertical_laplacian(grid)
    nz = grid.nz
    L[nz, nz - 4 : nz + 1] = -TOP_FLUX_STENCIL[::-1] / grid.dz
    return L


def neumann_vertical_matrix(grid: Grid) -> np.ndarray:
    """Vertical Laplacian with no-flux rows at both ends (velocity solves)."""
    L = _vertical_laplacian(grid)
    L[grid.nz] = L[0, ::-1]  # the top no-flux row mirrors the bottom one
    return L


def eigenbasis(vertical: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (lam, V, V^-1) with vertical = V diag(lam) V^-1.  If its rows
    sum to zero (to roundoff), the constant column, a null vector, and the
    eigenvalue 0 replace eig's pair nearest 0 (1e-15..1e-11 there)."""
    try:
        lam, V = np.linalg.eig(vertical)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"eigensolver failed: {exc}") from exc
    if np.iscomplexobj(lam):
        raise SolveError("vertical operator has a complex spectrum: no real eigenbasis")
    if np.abs(vertical.sum(axis=1)).max() <= 1e-13 * np.abs(vertical).max():
        kernel = np.argmin(np.abs(lam))
        lam[kernel], V[:, kernel] = 0.0, 1.0 / np.sqrt(len(lam))
    return lam, V, np.linalg.inv(V)


def transposed_bases(V: np.ndarray, V_inv: np.ndarray) -> np.ndarray:
    """V^-T and V^T, stacked (2, n, n): the right factors of the two basis
    changes of pair-spectrum columns, which are rows.  Bases stacked
    (..., n, n) give (2, ..., n, n), one per field."""
    return np.swapaxes(np.stack((V_inv, V)), -1, -2).copy()


@cache
def vertical_operator(grid: Grid, coupled: bool) -> tuple[np.ndarray, ...]:
    """(vertical, lam, V, V_inv, basis) of the coupled generator's vertical
    matrix (coupled) or the Neumann one: the matrix, its `eigenbasis` and
    their `transposed_bases`.  Built on the first call for a grid and
    matrix and shared after it; every array is read-only."""
    vertical = (coupled_vertical_matrix if coupled else neumann_vertical_matrix)(grid)
    lam, V, V_inv = eigenbasis(vertical)
    record = (vertical, lam, V, V_inv, transposed_bases(V, V_inv))
    for array in record:
        array.flags.writeable = False
    return record


def to_eigen(basis: np.ndarray, x_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Eigen coordinates V^-1 x, of the shape of x, of pair-spectrum
    columns x (..., Nx, 2, Ny//2+1, n), for `transposed_bases`; into out
    (C-contiguous) when it is given."""
    x = np.ascontiguousarray(x_hat, dtype=np.float64)
    rows = x.reshape(x.shape[: basis.ndim - 3] + (-1, x.shape[-1]))  # one product per basis
    out = np.empty(x.shape) if out is None else out
    np.matmul(rows, basis[0], out=out.reshape(rows.shape))
    return out


def from_eigen(basis: np.ndarray, coords: np.ndarray, out=None) -> np.ndarray:
    """The pair-spectrum columns V c of eigen coordinates c (`to_eigen`),
    written into out (C-contiguous) when it is given."""
    rows = coords.reshape(coords.shape[: basis.ndim - 3] + (-1, coords.shape[-1]))
    out = np.empty(coords.shape) if out is None else out
    np.matmul(rows, basis[1], out=out.reshape(rows.shape))
    return out


def apply_diagonal(basis: np.ndarray, diag: np.ndarray, x_hat: np.ndarray,
                   out=None, work=None) -> np.ndarray:
    """V (diag * (V^-1 x)) per mode, for the `transposed_bases` of V, a real
    (Nx, 2, Ny//2+1, n) diagonal table in pair layout (`implicit_factors`)
    and pair-spectrum columns (..., Nx, 2, Ny//2+1, n), or per field for
    stacked bases and tables; into out when it is given (it may be x_hat
    itself).  work, when given, receives the eigen coordinates: a
    C-contiguous array of the shape of x_hat."""
    coords = to_eigen(basis, x_hat, out=work)
    coords *= diag
    return from_eigen(basis, coords, out)


def apply_generator(grid: Grid, vertical: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """(vertical - |xi|^2 I) x per mode, for pair-spectrum columns
    (..., Nx, 2, Ny//2+1, n)."""
    return x_hat @ vertical.T - grid.xi2_half[:, None, :, None] * x_hat


def implicit_factors(grid: Grid, lam: np.ndarray, dt: float, out=None) -> np.ndarray:
    """d = 1 / (1 - dt (lam - |xi|^2)), the table of (I - dt (vertical -
    |xi|^2 I))^-1 in the eigenbasis of vertical, in the pair layout of
    the columns it multiplies: real (Nx, 2, Ny//2+1, n), the same factor
    stored for both parts of a mode, so `apply_diagonal` multiplies with
    no broadcast; into out when it is given."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = lam - grid.xi2_half[..., None]
    x *= dt
    np.divide(1.0, np.subtract(1.0, x, out=x), out=x)
    d = np.empty((x.shape[0], 2, *x.shape[1:])) if out is None else out
    d[:, 0] = x
    d[:, 1] = x
    return d


class CoupledImplicitSolver:
    """Per-mode (I - dt * generator)^-1, by eigenbasis; its dt-free (lam, V,
    V_inv, basis), the grid's `vertical_operator` record, also serve the
    noise propagator (`ebpe.stochastic`).  out, when given, receives the
    factor table d (a `Stepper` passes its stacked table)."""

    def __init__(self, grid: Grid, dt: float, out=None):
        self.grid = grid
        self.dt = dt
        self.vertical, self.lam, self.V, self.V_inv, self.basis = vertical_operator(grid, True)
        self.d = implicit_factors(grid, self.lam, dt, out)

    def solve_hat(self, stack_hat: np.ndarray) -> np.ndarray:
        """Apply the inverse to a pair-spectrum stack (Nx, 2, Ny//2+1, Nz+1)."""
        return apply_diagonal(self.basis, self.d, stack_hat)

    def apply_generator_hat(self, stack_hat: np.ndarray) -> np.ndarray:
        return apply_generator(self.grid, self.vertical, stack_hat)


class VelocityImplicitSolver:
    """Per-mode (I - dt * (d^2_z - |xi|^2))^-1, Neumann ends, by eigenbasis;
    out, when given, receives the factor table d."""

    def __init__(self, grid: Grid, dt: float, out=None):
        self.grid = grid
        self.dt = dt
        self.vertical, self.lam, self.V, self.V_inv, self.basis = vertical_operator(grid, False)
        self.d = implicit_factors(grid, self.lam, dt, out)

    def solve_hat(self, v_hat: np.ndarray) -> np.ndarray:
        """Apply to pair-spectrum velocity components (..., Nx, 2, Ny//2+1, Nz+1)."""
        return apply_diagonal(self.basis, self.d, v_hat)

    def apply_generator_hat(self, v_hat: np.ndarray) -> np.ndarray:
        return apply_generator(self.grid, self.vertical, v_hat)


def retained_modes(grid: Grid) -> list[tuple[int, int]]:
    """Dealias-retained (k1, k2) pairs ordered by |xi|^2 then index."""
    pairs = []
    for i in range(grid.nx):
        for j in range(grid.ny):
            if grid.dealias_mask[i, j]:
                k1, k2 = int(grid.kx[i]), int(grid.ky[j])
                pairs.append((k1 * k1 + k2 * k2, k1, k2))
    pairs.sort()
    return [(k1, k2) for _, k1, k2 in pairs]


def spectrum_report(grid: Grid, omega: float) -> SectorReport:
    """Eigenvalues of omega*I - A per retained mode, with the empirical angle.

    omega > 0 shifts the kernel (constants at xi = 0) away from the origin
    so the angle is well defined.  Every mode operator is vertical - |xi|^2 I,
    so its eigenvalues are omega + |xi|^2 - lam for the eigenvalues lam of
    the one vertical matrix, listed in ascending order per mode.
    """
    if not (np.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    modes = retained_modes(grid)
    lam = np.sort(vertical_operator(grid, True)[1])[::-1]
    xi2 = ((2.0 * np.pi * np.array(modes)) ** 2).sum(axis=1)
    eigenvalues = omega + xi2[:, None] - lam
    phi_hat = float(np.max(np.abs(np.angle(eigenvalues))))
    return SectorReport(omega=omega, modes=modes, eigenvalues=eigenvalues, phi_hat=phi_hat)
