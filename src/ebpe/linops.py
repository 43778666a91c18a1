"""Per-mode vertical operators for the coupled temperature system.

For each horizontal mode xi the temperature and its surface trace form one
stacked unknown (T(z_0), ..., T(z_{Nz-1}), rho) with the identification
T(z_Nz) = rho, so the trace condition is exact by construction.  Rows:

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
diagonalisation method of Lynch, Rice & Thomas): the implicit inverse is
V diag(d) V^-1 with a real (Nx, Ny//2+1, n) table d (`apply_diagonal`),
and a generator is applied, never tabulated, as the one vertical matrix
product minus |xi|^2 times the column.  The spectrum report takes every mode's
eigenvalues as omega + |xi|^2 - lam from the same eigenvalues.

Every per-mode table here is built over the (Nx, Ny//2+1) half spectrum
of the step kernel (`grid.xi2_half`); a full-width spectrum fails in
numpy broadcasting with a ValueError.  The dense per-mode matrices, the
physical-space solves that check these tables, and the harmonic
extension and Dirichlet-to-Neumann symbol of the similarity transform
live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def interleaved_basis(V: np.ndarray, V_inv: np.ndarray) -> np.ndarray:
    """V^-1 and V as real (2n, 2n) matrices, stacked, acting on rows of the
    interleaved (re, im) float64 view of complex columns; the eigen
    coordinates in between are blocked (re..., im...).  Each basis change
    is one real matmul over all modes, with no copy of the spectra."""
    n = V.shape[0]
    blocked = np.arange(2 * n).reshape(n, 2).T.ravel()
    eye = np.eye(2)
    return np.stack((np.kron(V_inv.T, eye)[:, blocked], np.kron(V.T, eye)[blocked]))


def apply_diagonal(basis: np.ndarray, diag: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """V (diag * (V^-1 x)) per mode, for the `interleaved_basis` of V, a real
    (Nx, Ny//2+1, n) diagonal table and half-spectrum columns
    (..., Nx, Ny//2+1, n)."""
    x = np.ascontiguousarray(x_hat, dtype=np.complex128)
    n = diag.shape[-1]
    y = x.view(np.float64).reshape(-1, 2 * n) @ basis[0]
    coords = y.reshape(x.shape[:-1] + (2, n))  # a view of y
    coords *= diag[:, :, None, :]
    return (y @ basis[1]).view(np.complex128).reshape(x.shape)


def apply_generator(grid: Grid, vertical: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """(vertical - |xi|^2 I) x per mode, for half-spectrum columns
    (..., Nx, Ny//2+1, n)."""
    return x_hat @ vertical.T - grid.xi2_half[..., None] * x_hat


def implicit_factors(grid: Grid, vertical: np.ndarray, dt: float):
    """(interleaved basis, d) of (I - dt (vertical - |xi|^2 I))^-1 per mode,
    with d = 1 / (1 - dt (lam - |xi|^2)) a real (Nx, Ny//2+1, n) table."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    lam, V, V_inv = eigenbasis(vertical)
    return interleaved_basis(V, V_inv), 1.0 / (1.0 - dt * (lam - grid.xi2_half[..., None]))


class CoupledImplicitSolver:
    """Per-mode (I - dt * generator)^-1, by eigenbasis."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.vertical = coupled_vertical_matrix(grid)
        self.basis, self.d = implicit_factors(grid, self.vertical, dt)

    def solve_hat(self, stack_hat: np.ndarray) -> np.ndarray:
        """Apply the inverse to a half-spectrum stack (Nx, Ny//2+1, Nz+1)."""
        return apply_diagonal(self.basis, self.d, stack_hat)

    def apply_generator_hat(self, stack_hat: np.ndarray) -> np.ndarray:
        return apply_generator(self.grid, self.vertical, stack_hat)


class VelocityImplicitSolver:
    """Per-mode (I - dt * (d^2_z - |xi|^2))^-1, Neumann ends, by eigenbasis."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.vertical = neumann_vertical_matrix(grid)
        self.basis, self.d = implicit_factors(grid, self.vertical, dt)

    def solve_hat(self, v_hat: np.ndarray) -> np.ndarray:
        """Apply to half-spectrum velocity components (..., Nx, Ny//2+1, Nz+1)."""
        return apply_diagonal(self.basis, self.d, v_hat)

    def apply_generator_hat(self, v_hat: np.ndarray) -> np.ndarray:
        return apply_generator(self.grid, self.vertical, v_hat)


def stack_fields_hat(grid: Grid, T_hat: np.ndarray, rho_hat: np.ndarray) -> np.ndarray:
    """Stack spectral (T, rho) into the shared-unknown layout.

    The top temperature level of T_hat is dropped: the surface unknown is
    rho_hat, which doubles as T at z = 1, so a stack (and a solution of
    the coupled system) is the spectral T whose top level is rho.
    """
    stack = np.empty(T_hat.shape, dtype=complex)
    stack[..., : grid.nz] = T_hat[..., : grid.nz]
    stack[..., grid.nz] = rho_hat
    return stack


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


def spectrum_report(
    grid: Grid, omega: float = 1.0, max_modes: int | None = None
) -> SectorReport:
    """Eigenvalues of omega*I - A per retained mode, with the empirical angle.

    omega > 0 shifts the kernel (constants at xi = 0) away from the origin
    so the angle is well defined.  Every mode operator is vertical - |xi|^2 I,
    so its eigenvalues are omega + |xi|^2 - lam for the eigenvalues lam of
    the one vertical matrix, listed in ascending order per mode.
    """
    if not (np.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    if max_modes is not None and max_modes < 1:
        raise ValueError(f"max_modes must be at least 1, got {max_modes}")
    modes = retained_modes(grid)[:max_modes]
    lam = np.sort(eigenbasis(coupled_vertical_matrix(grid))[0])[::-1]
    xi2 = ((2.0 * np.pi * np.array(modes)) ** 2).sum(axis=1)
    eigenvalues = omega + xi2[:, None] - lam
    phi_hat = float(np.max(np.abs(np.angle(eigenvalues))))
    return SectorReport(omega=omega, modes=modes, eigenvalues=eigenvalues, phi_hat=phi_hat)
