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
V diag(d) V^-1 with a real (Nx, Ny, n) table d (`apply_diagonal`), and a
generator is applied, never tabulated, as the one vertical matrix product
minus |xi|^2 times the column.  The spectrum report takes every mode's
eigenvalues as omega + |xi|^2 - lam from the same eigenvalues, and the
harmonic extension behind the Dirichlet-to-Neumann symbol is diagonal in
the eigenbasis of the Dirichlet block vertical[:Nz, :Nz].

The diagonal tables apply to full (Nx, Ny) spectra and to the
(Nx, Ny//2+1) half spectra of the step kernel alike: a half spectrum
uses the column view [:, :Ny//2+1] of a table, whose modes are exactly
its ky = 0 .. Ny/2 columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, to_physical, to_spectral

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


def assemble_mode_operator(xi: tuple[float, float], grid: Grid) -> np.ndarray:
    """Dense coupled generator at one mode: vertical part minus |xi|^2 * I."""
    xi2 = xi[0] ** 2 + xi[1] ** 2
    return coupled_vertical_matrix(grid) - xi2 * np.eye(grid.nlev)


def eigenbasis(vertical: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (lam, V, V^-1) with vertical = V diag(lam) V^-1."""
    try:
        lam, V = np.linalg.eig(vertical)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"eigensolver failed: {exc}") from exc
    if np.iscomplexobj(lam):
        raise SolveError("vertical operator has a complex spectrum: no real eigenbasis")
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
    (Nx, Ny, n) diagonal table and spectral columns (..., Nx, W, n), W = Ny
    or Ny//2+1, through the column view diag[:, :W]."""
    x = np.ascontiguousarray(x_hat, dtype=np.complex128)
    n = diag.shape[-1]
    y = (x.view(np.float64).reshape(-1, 2 * n) @ basis[0]).reshape(x.shape[:-1] + (2, n))
    y *= diag[:, : x.shape[-2], None, :]
    return (y.reshape(-1, 2 * n) @ basis[1]).view(np.complex128).reshape(x.shape)


def apply_generator(grid: Grid, vertical: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """(vertical - |xi|^2 I) x per mode, for spectral columns (..., Nx, W, n)
    with W = Ny or Ny//2+1."""
    return x_hat @ vertical.T - grid.xi2[:, : x_hat.shape[-2], None] * x_hat


def implicit_factors(grid: Grid, vertical: np.ndarray, dt: float):
    """(interleaved basis, d) of (I - dt (vertical - |xi|^2 I))^-1 per mode,
    with d = 1 / (1 - dt (lam - |xi|^2)) a real (Nx, Ny, n) table."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    lam, V, V_inv = eigenbasis(vertical)
    return interleaved_basis(V, V_inv), 1.0 / (1.0 - dt * (lam - grid.xi2[..., None]))


class CoupledImplicitSolver:
    """Per-mode (I - dt * generator)^-1, by eigenbasis."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.vertical = coupled_vertical_matrix(grid)
        self.basis, self.d = implicit_factors(grid, self.vertical, dt)

    def solve_hat(self, stack_hat: np.ndarray) -> np.ndarray:
        """Apply the inverse to a spectral stack shaped (Nx, W, Nz+1), W = Ny
        or Ny//2+1."""
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
        """Apply to spectral velocity components, (..., Nx, W, Nz+1) with
        W = Ny or Ny//2+1."""
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


def solve_coupled_implicit(
    grid: Grid, rhs_T: np.ndarray, rhs_rho: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (I - dt*A)(T, rho) = (rhs_T, rhs_rho) in physical space.

    The top level of rhs_T is ignored (the surface row is driven by
    rhs_rho); the output satisfies T(., 1) = rho identically and the
    discrete bottom no-flux condition.
    """
    stack = stack_fields_hat(grid, to_spectral(grid, rhs_T), to_spectral(grid, rhs_rho))
    T = to_physical(grid, CoupledImplicitSolver(grid, dt).solve_hat(stack))
    rho = T[..., -1].copy()
    return T, rho


def solve_velocity_implicit(grid: Grid, rhs_v: np.ndarray, dt: float) -> np.ndarray:
    """Per-component solve of (I - dt*(d^2_z - |xi|^2)) v = rhs with no-flux ends."""
    solver = VelocityImplicitSolver(grid, dt)
    return np.stack([to_physical(grid, solver.solve_hat(to_spectral(grid, c))) for c in rhs_v])


def _dirichlet_inverse_column(grid: Grid) -> np.ndarray:
    """Per-mode solution column of the harmonic-extension problem.

    Solves (interior rows of the mode operator, top value = Dirichlet data
    1) for all modes at once; returns theta over levels, shape
    (Nx, Ny, Nz+1), real.  The extension for mode xi of unit boundary data
    approximates cosh(|xi| z) / cosh(|xi|).

    The rows of the vertical matrix sum to zero, so with the Dirichlet
    block D = V diag(lam) V^-1 the interior is
    (D - |xi|^2)^-1 D 1 = 1 + V diag(|xi|^2 / (lam - |xi|^2)) V^-1 1,
    which is exactly 1 at the mean mode.
    """
    nz = grid.nz
    lam, V, V_inv = eigenbasis(coupled_vertical_matrix(grid)[:nz, :nz])
    xi2 = grid.xi2[..., None]
    theta = np.ones(grid.xi2.shape + (grid.nlev,))
    theta[..., :nz] += (xi2 / (lam - xi2) * V_inv.sum(axis=1)) @ V.T
    return theta


def dirichlet_map(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Extension of surface data phi: vertical diffusion balance with no
    flux through the bottom and phi on the surface."""
    theta = _dirichlet_inverse_column(grid)
    phi_hat = to_spectral(grid, phi)
    return to_physical(grid, theta * phi_hat[:, :, None])


def dtn_symbols(grid: Grid) -> np.ndarray:
    """Discrete Dirichlet-to-Neumann multiplier per mode, shape (Nx, Ny).

    Continuum symbol: |xi| tanh(|xi|); exactly zero at the mean mode,
    where theta is exactly 1 and the integer stencil sums to 0.
    """
    theta = _dirichlet_inverse_column(grid)
    return theta[..., -5:] @ TOP_FLUX_INTEGERS[::-1] / (12.0 * grid.dz)


def dtn_apply(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Normal derivative at the surface of the Dirichlet extension of phi."""
    phi_hat = to_spectral(grid, phi)
    return to_physical(grid, dtn_symbols(grid) * phi_hat)


def similarity_split(
    grid: Grid, T: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the Dirichlet extension of rho from T.

    When T carries rho as its surface trace, the first output has zero
    trace, which diagonalizes the coupled domain.
    """
    return T - dirichlet_map(grid, rho), rho


def similarity_unsplit(
    grid: Grid, T_shifted: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of similarity_split."""
    return T_shifted + dirichlet_map(grid, rho), rho


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
