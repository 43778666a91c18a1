"""Slow full-spectrum references the tests check the package against.

Nothing in the package calls these.  The implicit solves here are dense:
every mode of the full (Nx, Ny) spectrum gets its own matrix and
`np.linalg.solve`, through the full-spectrum transforms
`to_spectral`/`to_physical`, so they share no eigenbasis, table or
half-spectrum transform with the kernel they check.  The hydrostatic
operators are spelled with `grid.deriv_x`/`deriv_y` (either spectral
width), the forms that the package's symbol tables (`grid.ixi_half`,
`grid.inv_lap_half`) must reproduce bit for bit.  The Dirichlet
extension and the Dirichlet-to-Neumann map apply a half-spectrum column,
diagonal in the eigenbasis of the Dirichlet block, to physical data; the
ledger checks run the driver loop's per-step checks over a whole ledger.
The half spectrum of `exact_rfft2` is a direct long-double DFT, the
matrix of `exact_fourier_derivative` a direct long-double sum, and
`wiener_increments_one_shot` draws and transforms all steps at once.
"""

from dataclasses import dataclass

import numpy as np

from ebpe.grid import deriv_x, deriv_y, irfft_h, rfft_h, to_physical, to_spectral
from ebpe.hydrostatic import cumulative_integral, vertical_average
from ebpe.linops import (
    TOP_FLUX_INTEGERS,
    coupled_vertical_matrix,
    eigenbasis,
    neumann_vertical_matrix,
    stack_fields_hat,
)
from ebpe.monitors import energy_step_check, h1_step_check


def exact_rfft2(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the half spectrum (Nx, Ny//2+1, K) of
    real fields (Nx, Ny, K), normalized like `rfft_h`, by direct summation
    in long double.  The angles are reduced mod N in integers and scaled
    by a long-double 2 pi, so with an 80-bit long double the result is
    exact to about 1e-18 relative."""
    nx, ny = fields.shape[:2]
    two_pi = 8 * np.arctan(np.longdouble(1))

    def angles(rows: int, n: int) -> np.ndarray:
        return (np.outer(np.arange(rows), np.arange(n)) % n).astype(np.longdouble) * (two_pi / n)

    ay, ax = angles(ny // 2 + 1, ny), angles(nx, nx)
    f = fields.astype(np.longdouble)
    y_re = np.einsum("mj,xjk->xmk", np.cos(ay), f) / ny
    y_im = -np.einsum("mj,xjk->xmk", np.sin(ay), f) / ny
    cx, sx = np.cos(ax), np.sin(ax)
    re = (np.einsum("ax,xmk->amk", cx, y_re) + np.einsum("ax,xmk->amk", sx, y_im)) / nx
    im = (np.einsum("ax,xmk->amk", cx, y_im) - np.einsum("ax,xmk->amk", sx, y_re)) / nx
    return re, im


def exact_fourier_derivative(n: int) -> np.ndarray:
    """The (n, n) Fourier differentiation matrix on n points of the unit
    period, Nyquist mode dropped, by direct summation in long double:
    entry (j, l) is -(2/n) sum over 0 < k < n/2 of 2 pi k sin(2 pi k (j - l) / n),
    the angles reduced mod n in integers as in `exact_rfft2`."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    k = np.arange(1, n // 2)
    a = (np.subtract.outer(np.arange(n), np.arange(n))[..., None] * k) % n
    terms = np.sin(a.astype(np.longdouble) * (two_pi / n)) * (two_pi * k)
    return -(2 / np.longdouble(n)) * terms.sum(axis=-1)


def wiener_increments_one_shot(grid, spec, dt: float, n_steps: int) -> np.ndarray:
    """The increments of `stochastic.wiener_increments`, with the white
    noise of every step drawn and transformed at once."""
    rng = np.random.default_rng(spec.seed)
    white = rng.standard_normal((n_steps, grid.nx, grid.ny)) * np.sqrt(dt)
    hat = np.fft.fft2(white, axes=(1, 2), norm="forward")[..., : grid.ny // 2 + 1]
    return hat * np.sqrt(grid.nx * grid.ny)


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


def diagnose_w(grid, v_hat: np.ndarray) -> np.ndarray:
    """`hydrostatic.diagnose_w` through deriv_x/deriv_y, for full or half
    spectra."""
    return -cumulative_integral(grid, deriv_x(grid, v_hat[0]) + deriv_y(grid, v_hat[1]))


def baroclinic_grad(grid, T_hat: np.ndarray) -> np.ndarray:
    """`hydrostatic.baroclinic_grad` through deriv_x/deriv_y, for full or
    half spectra."""
    c = cumulative_integral(grid, T_hat)
    return np.stack((deriv_x(grid, c), deriv_y(grid, c)))


def project_barotropic(grid, v_hat: np.ndarray):
    """`hydrostatic.project_barotropic` through deriv_x/deriv_y and a
    guarded division by the discrete div(grad .) symbol; half spectra."""
    vbar = vertical_average(grid, v_hat)
    div_hat = deriv_x(grid, vbar[0]) + deriv_y(grid, vbar[1])
    xi2 = grid.xi2_deriv_half
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(xi2 > 0.0, div_hat / (-xi2), 0.0)
    grad = np.stack((deriv_x(grid, phi_hat), deriv_y(grid, phi_hat)))
    return v_hat - grad[..., None], phi_hat


def dirichlet_inverse_column(grid) -> np.ndarray:
    """Per-mode solution column of the harmonic-extension problem.

    Solves (interior rows of the mode operator, top value = Dirichlet data
    1) for all modes of the half spectrum at once; returns theta over
    levels, shape (Nx, Ny//2+1, Nz+1), real.  The extension for mode xi
    of unit boundary data approximates cosh(|xi| z) / cosh(|xi|).

    The rows of the vertical matrix sum to zero, so with the Dirichlet
    block D = V diag(lam) V^-1 the interior is
    (D - |xi|^2)^-1 D 1 = 1 + V diag(|xi|^2 / (lam - |xi|^2)) V^-1 1,
    which is exactly 1 at the mean mode.
    """
    nz = grid.nz
    lam, V, V_inv = eigenbasis(coupled_vertical_matrix(grid)[:nz, :nz])
    xi2 = grid.xi2_half[..., None]
    theta = np.ones(grid.xi2_half.shape + (grid.nlev,))
    theta[..., :nz] += (xi2 / (lam - xi2) * V_inv.sum(axis=1)) @ V.T
    return theta


def dtn_symbols(grid) -> np.ndarray:
    """Discrete Dirichlet-to-Neumann multiplier per mode of the half
    spectrum, shape (Nx, Ny//2+1).

    Continuum symbol: |xi| tanh(|xi|); exactly zero at the mean mode,
    where theta is exactly 1 and the integer stencil sums to 0.
    """
    theta = dirichlet_inverse_column(grid)
    return theta[..., -5:] @ TOP_FLUX_INTEGERS[::-1] / (12.0 * grid.dz)


def dirichlet_map(grid, phi: np.ndarray) -> np.ndarray:
    """Extension of surface data phi: vertical diffusion balance with no
    flux through the bottom and phi on the surface."""
    return irfft_h(grid, dirichlet_inverse_column(grid) * rfft_h(grid, phi)[:, :, None])


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
    """`energy_step_check` over every consecutive pair of ledger records.

    With strict=True (pure diffusion: velocity frozen, no insolation, no
    radiation) the energy must not increase at all beyond roundoff.
    """
    for n in range(1, len(ledger)):
        prev, record = ledger[n - 1], ledger[n]
        if strict:
            allowed = prev.energy * (1.0 + 1e-14)
            message = None if record.energy <= allowed else (
                f"energy ledger violated at step {n}: "
                f"E={record.energy:.6e} > allowed {allowed:.6e}")
        else:
            message = energy_step_check(prev, record, n, record.t - prev.t, c_led, tol_e)
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
