"""Hydrostatic reconstructions and the solenoidal constraint.

Vertical quadrature is the trapezoid rule throughout, matching the
second-order vertical finite differences; exact on z-affine integrands.
The surface pressure is never prognostic: each step removes the gradient
part of the vertically averaged velocity (pressure projection) and the
potential of the removed gradient identifies the surface-pressure
contribution.

The horizontal operators (`diagnose_w`, `baroclinic_grad`,
`project_barotropic`) act on spectral coefficients: the half spectra of
the step kernel, or full spectra (see `ebpe.grid`).  Callers holding
physical fields transform at the call site.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, deriv_x, deriv_y, match_columns


def trapz_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights over z in [0,1]; shape (Nz+1,), read-only,
    built once per grid."""
    return grid.trapz_w


def vertical_average(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Trapezoidal average of a 3D field over the unit vertical extent."""
    return f @ grid.trapz_w


def cumulative_integral(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Running trapezoid integral from z=0; output level j holds int_0^{z_j} f."""
    out = np.zeros_like(f)
    increments = 0.5 * grid.dz * (f[..., 1:] + f[..., :-1])
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def diagnose_w(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility, w = -int_0^z div_H v, from
    the spectral velocity (2, Nx, W, Nz+1); spectral output (Nx, W, Nz+1)."""
    return -cumulative_integral(grid, deriv_x(grid, v_hat[0]) + deriv_y(grid, v_hat[1]))


def pressure_field(grid: Grid, T: np.ndarray, p_s: np.ndarray) -> np.ndarray:
    """Hydrostatic pressure p(z) = p_s - int_0^z T; p(0) = p_s exactly."""
    return p_s[..., None] - cumulative_integral(grid, T)


def baroclinic_grad(grid: Grid, T_hat: np.ndarray) -> np.ndarray:
    """grad_H of the running temperature integral, zero at z=0 by
    construction; spectral T (Nx, W, Nz+1) to spectral (2, Nx, W, Nz+1)."""
    c = cumulative_integral(grid, T_hat)
    return np.stack((deriv_x(grid, c), deriv_y(grid, c)))


def project_barotropic(grid: Grid, v_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove the gradient part of the vertical average of a spectral velocity.

    Solves lap_H phi = div_H vbar per mode and subtracts grad_H phi from
    every level, so div_H of the average of the result vanishes (to
    roundoff).  Returns (projected v_hat, phi_hat): the spectral velocity
    (2, Nx, W, Nz+1) and the mean-zero potential (Nx, W) of the removed
    gradient, which is dt times the surface pressure of one step.
    """
    vbar = vertical_average(grid, v_hat)
    div_hat = deriv_x(grid, vbar[0]) + deriv_y(grid, vbar[1])
    # invert the same discrete div(grad .) symbol that the residual sees,
    # so the projected average is solenoidal to roundoff on every mode
    xi2 = match_columns(grid, grid.xi2_deriv, grid.xi2_deriv_half, div_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(xi2 > 0.0, div_hat / (-xi2), 0.0)
    grad = np.stack((deriv_x(grid, phi_hat), deriv_y(grid, phi_hat)))
    return v_hat - grad[..., None], phi_hat

