"""Slow full-spectrum references the tests check the package against.

Nothing in the package calls these.  The implicit solves here are dense:
every mode of the full (Nx, Ny) spectrum gets its own matrix and
`np.linalg.solve`, through the full-spectrum transforms
`to_spectral`/`to_physical`, so they share no eigenbasis, table or
half-spectrum transform with the kernel they check.  The Dirichlet
extension and the Dirichlet-to-Neumann map apply the package's
half-spectrum column (`linops._dirichlet_inverse_column`) to physical
data; the ledger checks run the driver loop's per-step checks over a
whole ledger.
"""

from dataclasses import dataclass

import numpy as np

from ebpe.grid import deriv_x, deriv_y, irfft_h, rfft_h, to_physical, to_spectral
from ebpe.linops import (
    _dirichlet_inverse_column,
    coupled_vertical_matrix,
    dtn_symbols,
    neumann_vertical_matrix,
    stack_fields_hat,
)
from ebpe.monitors import energy_step_check, h1_step_check


def assemble_mode_operator(xi: tuple[float, float], grid) -> np.ndarray:
    """Dense coupled generator at one mode: vertical part minus |xi|^2 * I."""
    xi2 = xi[0] ** 2 + xi[1] ** 2
    return coupled_vertical_matrix(grid) - xi2 * np.eye(grid.nlev)


def _dense_solve(grid, vertical: np.ndarray, coeffs: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt (vertical - |xi|^2 I))^-1 on every mode of a full spectrum
    (Nx, Ny, Nz+1), one dense solve per mode."""
    eye = np.eye(grid.nlev)
    mats = eye - dt * (vertical - grid.xi2[..., None, None] * eye)
    return np.linalg.solve(mats, coeffs[..., None])[..., 0]


def solve_coupled_implicit(grid, rhs_T: np.ndarray, rhs_rho: np.ndarray, dt: float):
    """Solve (I - dt*A)(T, rho) = (rhs_T, rhs_rho) in physical space.

    The top level of rhs_T is ignored (the surface row is driven by
    rhs_rho); the output satisfies T(., 1) = rho identically.
    """
    stack = stack_fields_hat(grid, to_spectral(grid, rhs_T), to_spectral(grid, rhs_rho))
    T = to_physical(grid, _dense_solve(grid, coupled_vertical_matrix(grid), stack, dt))
    return T, T[..., -1].copy()


def solve_velocity_implicit(grid, rhs_v: np.ndarray, dt: float) -> np.ndarray:
    """Per-component solve of (I - dt*(d^2_z - |xi|^2)) v = rhs with no-flux ends."""
    vertical = neumann_vertical_matrix(grid)
    return np.stack([to_physical(grid, _dense_solve(grid, vertical, to_spectral(grid, c), dt))
                     for c in rhs_v])


def dirichlet_map(grid, phi: np.ndarray) -> np.ndarray:
    """Extension of surface data phi: vertical diffusion balance with no
    flux through the bottom and phi on the surface."""
    return irfft_h(grid, _dirichlet_inverse_column(grid) * rfft_h(grid, phi)[:, :, None])


def dtn_apply(grid, phi: np.ndarray) -> np.ndarray:
    """Normal derivative at the surface of the Dirichlet extension of phi."""
    return irfft_h(grid, dtn_symbols(grid) * rfft_h(grid, phi))


def similarity_split(grid, T: np.ndarray, rho: np.ndarray):
    """Subtract the Dirichlet extension of rho from T.

    When T carries rho as its surface trace, the first output has zero
    trace, which diagonalizes the coupled domain.
    """
    return T - dirichlet_map(grid, rho), rho


def similarity_unsplit(grid, T_shifted: np.ndarray, rho: np.ndarray):
    """Inverse of similarity_split."""
    return T_shifted + dirichlet_map(grid, rho), rho


def grad_h(grid, field: np.ndarray):
    """Horizontal gradient of a physical field, computed spectrally."""
    c = to_spectral(grid, field)
    return to_physical(grid, deriv_x(grid, c)), to_physical(grid, deriv_y(grid, c))


def div_h(grid, v: np.ndarray) -> np.ndarray:
    """Horizontal divergence of a velocity array shaped (2, Nx, Ny[, Nz+1])."""
    return to_physical(grid, deriv_x(grid, to_spectral(grid, v[0]))
                       + deriv_y(grid, to_spectral(grid, v[1])))


@dataclass(frozen=True)
class LedgerCheckResult:
    ok: bool
    first_bad_step: int | None = None
    message: str = ""


def energy_ledger_check(ledger, c_led: float = 50.0, tol_e: float = 1e-10,
                        strict: bool = False) -> LedgerCheckResult:
    """`energy_step_check` over every consecutive pair of ledger records."""
    for n in range(1, len(ledger)):
        dt = ledger[n].t - ledger[n - 1].t
        message = energy_step_check(ledger[n - 1], ledger[n], n, dt, c_led, tol_e, strict)
        if message is not None:
            return LedgerCheckResult(ok=False, first_bad_step=n, message=message)
    return LedgerCheckResult(ok=True)


def h1_ledger_check(ledger, growth_rate: float = 50.0, margin: float = 100.0,
                    floor: float = 1e-8) -> LedgerCheckResult:
    """`h1_step_check` of every ledger record against the first."""
    for n in range(len(ledger)):
        message = h1_step_check(ledger[0], ledger[n], n, growth_rate, margin, floor)
        if message is not None:
            return LedgerCheckResult(ok=False, first_bad_step=n, message=message)
    return LedgerCheckResult(ok=True)
