"""Hydrostatic reconstructions and the solenoidal constraint.

Vertical quadrature is the trapezoid rule throughout, matching the
second-order vertical finite differences; exact on z-affine integrands.
The surface pressure is never prognostic: each step removes the gradient
part of the vertically averaged velocity (pressure projection) and the
potential of the removed gradient identifies the surface-pressure
contribution.

The horizontal operators act on the (Nx, Ny//2+1) half spectra of the
step kernel; callers holding physical fields transform at the call site.
They differentiate by one multiply with the grid's stacked symbol table
`ixi_half` and invert the horizontal Laplacian with `inv_lap_half`, so
none of them goes through `grid.deriv_x`/`deriv_y`; the physical-space
reference path (`timestep.nonlinear_tendencies`) spells out its own
full-spectrum forms.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def trapz_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights over z in [0,1]; shape (Nz+1,), read-only,
    built once per grid."""
    return grid.trapz_w


def vertical_average(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Trapezoidal average of a 3D field over the unit vertical extent."""
    return f @ grid.trapz_w


def cumulative_integral(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Running trapezoid integral from z=0; output level j holds int_0^{z_j} f."""
    out = np.empty_like(f)
    out[..., 0] = 0.0
    increments = 0.5 * grid.dz * (f[..., 1:] + f[..., :-1])
    np.add.accumulate(increments, axis=-1, out=out[..., 1:])
    return out


def diagnose_w(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility, w = -int_0^z div_H v, from
    the half-spectrum velocity (2, Nx, Ny//2+1, Nz+1); half-spectrum output
    (Nx, Ny//2+1, Nz+1)."""
    d = grid.ixi_half[..., None] * v_hat
    return -cumulative_integral(grid, d[0] + d[1])


def pressure_field(grid: Grid, T: np.ndarray, p_s: np.ndarray) -> np.ndarray:
    """Hydrostatic pressure p(z) = p_s - int_0^z T; p(0) = p_s exactly."""
    return p_s[..., None] - cumulative_integral(grid, T)


def baroclinic_grad(grid: Grid, T_hat: np.ndarray) -> np.ndarray:
    """grad_H of the running temperature integral, zero at z=0 by
    construction; half-spectrum T (Nx, Ny//2+1, Nz+1) to half spectra
    (2, Nx, Ny//2+1, Nz+1)."""
    return grid.ixi_half[..., None] * cumulative_integral(grid, T_hat)


def project_barotropic(grid: Grid, v_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove the gradient part of the vertical average of a half-spectrum
    velocity.

    Solves lap_H phi = div_H vbar per mode and subtracts grad_H phi from
    every level, so div_H of the average of the result vanishes (to
    roundoff).  Returns (projected v_hat, phi_hat): the velocity
    (2, Nx, Ny//2+1, Nz+1) and the mean-zero potential (Nx, Ny//2+1) of
    the removed gradient, which is dt times the surface pressure of one
    step.
    """
    d = grid.ixi_half * vertical_average(grid, v_hat)
    # invert the same discrete div(grad .) symbol that the residual sees,
    # so the projected average is solenoidal to roundoff on every mode
    phi_hat = (d[0] + d[1]) * grid.inv_lap_half
    return v_hat - (grid.ixi_half * phi_hat)[..., None], phi_hat
