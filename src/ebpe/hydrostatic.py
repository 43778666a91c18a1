"""Hydrostatic reconstructions and the solenoidal constraint.

Vertical quadrature is the trapezoid rule throughout, matching the
second-order vertical finite differences; exact on z-affine integrands.
The running integral from z = 0 (w, the baroclinic term) is one real
product with the grid's running trapezoid matrix `running_trapz`, for
physical fields and pair spectra alike, and a vertical average one
product of the rows (-1, Nz+1) with `trapz_w`.
The surface pressure is never prognostic and no state carries it: each
step removes the gradient part of the vertically averaged velocity
(pressure projection), and the potential phi of the removed gradient is
dt times that step's surface pressure, irfft_h(phi_hat) / dt.

The horizontal operators act on the pair spectra (..., Nx, 2, Ny//2+1, K)
of the step kernel (`ebpe.grid`); callers holding physical fields
transform at the call site.  They differentiate by one multiply of the
spectra, their re/im axis reversed, with the grid's stacked symbol table
`ixi_pair`, and invert the horizontal Laplacian with `inv_lap_half`;
their full-spectrum forms live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def vertical_average(grid: Grid, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trapezoidal average over the unit vertical extent of fields or pair
    spectra (..., Nz+1); into out (C-contiguous) when it is given.  One
    product of the rows (-1, Nz+1) with `trapz_w`, a single BLAS call
    where a stacked matvec would make one per leading index."""
    rows = f.reshape(-1, grid.nlev)
    if out is None:
        return np.matmul(rows, grid.trapz_w).reshape(f.shape[:-1])
    np.matmul(rows, grid.trapz_w, out=out.reshape(-1))
    return out


def cumulative_integral(grid: Grid, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Running trapezoid integral from z=0 of real fields or pair spectra
    (..., Nz+1); output level j holds int_0^{z_j} f.  out, when given,
    receives it (C-contiguous, of the shape of f)."""
    # one contiguous operand keeps the product on BLAS, so the result does
    # not depend on the memory layout of f
    f = np.ascontiguousarray(f, dtype=np.float64)
    out = np.empty(f.shape) if out is None else out
    np.matmul(f.reshape(-1, grid.nlev), grid.running_trapz, out=out.reshape(-1, grid.nlev))
    return out


def diagnose_w(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility, w = -int_0^z div_H v, from
    the pair-spectrum velocity (2, Nx, 2, Ny//2+1, Nz+1); pair-spectrum
    output (Nx, 2, Ny//2+1, Nz+1)."""
    d = grid.ixi_pair[..., None] * v_hat[..., ::-1, :, :]
    return -cumulative_integral(grid, d[0] + d[1])


def baroclinic_grad(grid: Grid, T_hat: np.ndarray, work=None) -> np.ndarray:
    """grad_H of the running temperature integral, zero at z=0 by
    construction; pair-spectrum T (Nx, 2, Ny//2+1, Nz+1) to pair spectra
    (2, Nx, 2, Ny//2+1, Nz+1).  The integral is copied with its re/im
    axis reversed, so that its multiply with `grid.ixi_pair_levels` runs
    over contiguous rows.  work, when given, is a stepper's
    `timestep.Workspace`, whose `integral`, `swapped` and `baroclinic`
    receive the integral, its copy and the result."""
    integral = cumulative_integral(grid, T_hat, out=None if work is None else work.integral)
    swapped = np.empty(integral.shape) if work is None else work.swapped
    swapped[...] = integral[..., ::-1, :, :]
    return np.multiply(grid.ixi_pair_levels, swapped,
                       out=None if work is None else work.baroclinic)


def project_barotropic(grid: Grid, v_hat: np.ndarray, out: np.ndarray | None = None,
                       work=None) -> tuple[np.ndarray, np.ndarray]:
    """Remove the gradient part of the vertical average of a pair-spectrum
    velocity.

    Solves lap_H phi = div_H vbar per mode and subtracts grad_H phi from
    every level, so div_H of the average of the result vanishes (to
    roundoff).  Returns (projected v_hat, phi_hat): the velocity
    (2, Nx, 2, Ny//2+1, Nz+1) and the mean-zero potential (Nx, 2, Ny//2+1)
    of the removed gradient, which is dt times the surface pressure of one
    step.  out, when given, receives the velocity (it may be v_hat
    itself); work, when given, is a stepper's `timestep.Workspace`: the
    average and phi_hat go into its `vbar` planes, the gradients into
    `vbar_parts`.
    """
    average = vertical_average(grid, v_hat, out=None if work is None else work.vbar)
    d = np.multiply(grid.ixi_pair, average[..., ::-1, :],
                    out=None if work is None else work.vbar_parts)
    # invert the same discrete div(grad .) symbol that the residual sees,
    # so the projected average is solenoidal to roundoff on every mode
    phi = np.add(d[0], d[1], out=average[0])
    phi *= grid.inv_lap_half[:, None]
    gradient = np.multiply(grid.ixi_pair, phi[:, ::-1], out=d)
    return np.subtract(v_hat, gradient[..., None], out=out), phi
