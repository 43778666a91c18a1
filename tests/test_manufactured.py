"""Validation of the manufactured solution and its hand-derived forcing.

The forcing algebra is checked against an independent numerical residual:
spectral horizontal derivatives (exact for these band-limited fields),
high-order finite differences in z and t, and fine quadrature for the
running integral.  Any sign or coefficient mistake in the closed-form
derivatives would show up far above the assertion thresholds.
"""

import numpy as np
import pytest

from ebpe import make_grid
from ebpe.ebm import radiation
from ebpe.grid import deriv_x, deriv_y, pack_fields, rfft_h, to_physical, to_spectral
from ebpe.manufactured import ManufacturedSolution

EX = ManufacturedSolution()


def spectral_dx(grid, f):
    return to_physical(grid, deriv_x(grid, to_spectral(grid, f)))


def spectral_dy(grid, f):
    return to_physical(grid, deriv_y(grid, to_spectral(grid, f)))


def fd_dz(grid, sample, order=4):
    """4th-order centered z-derivative of a callable z -> field(z)."""
    h = grid.dz / 7.0  # off-grid step, independent of the solver stencils
    def d(z):
        return (sample(z - 2 * h) - 8 * sample(z - h) + 8 * sample(z + h) - sample(z + 2 * h)) / (12 * h)
    return d


class _FieldSampler:
    """Evaluate the exact fields at arbitrary z by rebuilding the closed forms."""

    def __init__(self, grid, t):
        self.grid, self.t = grid, t
        self.cx = np.cos(2 * np.pi * grid.x)
        self.sx = np.sin(2 * np.pi * grid.x)
        self.cy = np.cos(2 * np.pi * grid.y)
        self.sy = np.sin(2 * np.pi * grid.y)
        self.gv = EX._gv(t)
        self.gT = EX._gT(t)

    def v1(self, z):
        return self.gv * (EX.amp_v * self.cx * np.cos(np.pi * z) + EX.amp_baro * self.sy)

    def v2(self, z):
        return self.gv * EX.amp_v * self.sy * np.cos(np.pi * z)

    def w(self, z):
        return 2.0 * EX.amp_v * self.gv * (self.sx - self.cy) * np.sin(np.pi * z)

    def T(self, z):
        return self.gT * (
            EX.amp_flux * self.cx * np.cos(0.5 * np.pi * z)
            + (EX.amp_trace * self.cy + EX.amp_mean) * np.cos(np.pi * z)
        )


def test_boundary_conditions_of_exact_fields():
    grid = make_grid(8, 8, 8)
    s = _FieldSampler(grid, 0.37)
    for z_end in (0.0, 1.0):
        dv1 = fd_dz(grid, s.v1)(z_end)
        dv2 = fd_dz(grid, s.v2)(z_end)
        assert np.max(np.abs(dv1)) < 1e-9
        assert np.max(np.abs(dv2)) < 1e-9
        assert np.max(np.abs(s.w(z_end))) < 1e-13
    assert np.max(np.abs(fd_dz(grid, s.T)(0.0))) < 1e-9  # bottom no-flux
    # trace compatibility
    rho = EX.surface_temperature(grid, 0.37)
    assert np.max(np.abs(s.T(1.0) - rho)) < 1e-14


def test_vertical_average_solenoidal():
    grid = make_grid(8, 8, 16)
    v = EX.velocity(grid, 0.81)
    from ebpe.hydrostatic import vertical_average
    from oracles import div_h
    vbar = vertical_average(grid, v)
    assert np.max(np.abs(div_h(grid, vbar))) < 1e-12


def test_w_consistent_with_divergence():
    grid = make_grid(8, 8, 64)
    from conftest import diagnose_w_physical
    w_num = diagnose_w_physical(grid, EX.velocity(grid, 0.2))
    w_ex = EX.vertical_velocity(grid, 0.2)
    assert np.max(np.abs(w_num - w_ex)) < 5e-4  # trapezoid O(h^2)


def test_forcing_matches_numerical_residual():
    grid = make_grid(8, 8, 8)
    t0 = 0.53
    dt_fd = 1e-5

    def all_fields(t):
        s = _FieldSampler(grid, t)
        return s

    z_probe = [0.0, 0.31, 0.5, 0.77, 1.0]
    f_v, f_T, f_rho = EX.forcing(grid, t0)
    s = all_fields(t0)
    params = EX.params(grid)

    for z in z_probe:
        lev = None  # evaluate everything off-grid in z, on-grid in x, y
        s_p = all_fields(t0 + dt_fd)
        s_m = all_fields(t0 - dt_fd)

        def time_d(attr):
            return (getattr(s_p, attr)(z) - getattr(s_m, attr)(z)) / (2 * dt_fd)

        v1, v2, w, T = s.v1(z), s.v2(z), s.w(z), s.T(z)
        dz = fd_dz(grid, s.v1)(z), fd_dz(grid, s.v2)(z), fd_dz(grid, s.T)(z)
        d2 = {}
        hh = grid.dz / 7.0
        for name, fn in (("v1", s.v1), ("v2", s.v2), ("T", s.T)):
            d2[name] = (
                -fn(z - 2 * hh) + 16 * fn(z - hh) - 30 * fn(z)
                + 16 * fn(z + hh) - fn(z + 2 * hh)
            ) / (12 * hh**2)

        # running integral of T by fine quadrature
        zs = np.linspace(0.0, z, 801)
        Ts = np.stack([s.T(zz) for zz in zs], axis=-1)
        IT = np.trapezoid(Ts, zs, axis=-1) if z > 0 else np.zeros_like(v1)

        lap = lambda name, f: spectral_dx(grid, spectral_dx(grid, f)) + spectral_dy(grid, spectral_dy(grid, f)) + d2[name]

        res_v1 = (
            time_d("v1") + v1 * spectral_dx(grid, v1) + v2 * spectral_dy(grid, v1)
            + w * dz[0] - lap("v1", v1) - spectral_dx(grid, IT)
        )
        res_v2 = (
            time_d("v2") + v1 * spectral_dx(grid, v2) + v2 * spectral_dy(grid, v2)
            + w * dz[1] - lap("v2", v2) - spectral_dy(grid, IT)
        )
        res_T = (
            time_d("T") + v1 * spectral_dx(grid, T) + v2 * spectral_dy(grid, T)
            + w * dz[2] - lap("T", T)
        )

        # compare against the analytic forcing interpolated to this z by
        # re-evaluating the closed forms (forcing fields are per-level)
        fv1, fv2, fT, _ = _forcing_at_z(grid, t0, z, params)
        assert np.max(np.abs(res_v1 - fv1)) < 2e-6
        assert np.max(np.abs(res_v2 - fv2)) < 2e-6
        assert np.max(np.abs(res_T - fT)) < 2e-6

    # surface equation residual
    s_p = all_fields(t0 + dt_fd)
    s_m = all_fields(t0 - dt_fd)
    rho = EX.surface_temperature(grid, t0)
    d_rho = (EX.surface_temperature(grid, t0 + dt_fd) - EX.surface_temperature(grid, t0 - dt_fd)) / (2 * dt_fd)
    vs1, vs2 = s.v1(1.0), s.v2(1.0)
    lap_rho = spectral_dx(grid, spectral_dx(grid, rho)) + spectral_dy(grid, spectral_dy(grid, rho))
    flux = fd_dz(grid, s.T)(1.0)
    res_rho = (
        d_rho + vs1 * spectral_dx(grid, rho) + vs2 * spectral_dy(grid, rho)
        - lap_rho + flux - radiation(rho, params)
    )
    assert np.max(np.abs(res_rho - f_rho)) < 2e-6


def _forcing_at_z(grid, t, z, params):
    """Closed-form forcing re-evaluated at one continuous z level."""
    fake = make_grid(grid.nx, grid.ny, 4)
    # build a one-off grid-like evaluation by monkey-free recomputation:
    # reuse the package forcing at the nearest representation by calling
    # the closed forms directly
    a, c = EX.amp_v, EX.amp_baro
    b, e, d = EX.amp_flux, EX.amp_trace, EX.amp_mean
    two_pi = 2 * np.pi
    cx = np.cos(two_pi * grid.x)
    sx = np.sin(two_pi * grid.x)
    cy = np.cos(two_pi * grid.y)
    sy = np.sin(two_pi * grid.y)
    P, dP = np.cos(np.pi * z), -np.pi * np.sin(np.pi * z)
    H, dH = np.cos(0.5 * np.pi * z), -0.5 * np.pi * np.sin(0.5 * np.pi * z)
    sinz = np.sin(np.pi * z)
    gv, dgv = EX._gv(t), EX._dgv(t)
    gT, dgT = EX._gT(t), EX._dgT(t)

    v1 = gv * (a * cx * P + c * sy)
    v2 = gv * (a * sy * P)
    w = 2 * a * gv * (sx - cy) * sinz
    dt_v1 = dgv * (a * cx * P + c * sy)
    dt_v2 = dgv * (a * sy * P)
    dx_v1 = gv * (-two_pi * a * sx * P)
    dy_v1 = gv * (two_pi * c * cy)
    dz_v1 = gv * (a * cx * dP)
    dy_v2 = gv * (two_pi * a * cy * P)
    dz_v2 = gv * (a * sy * dP)
    lap_v1 = gv * (-5 * np.pi**2 * a * cx * P - 4 * np.pi**2 * c * sy)
    lap_v2 = gv * (-5 * np.pi**2 * a * sy * P)
    dxIT = -4 * b * gT * sx * np.sin(0.5 * np.pi * z)
    dyIT = -2 * e * gT * sy * sinz
    fv1 = dt_v1 + v1 * dx_v1 + v2 * dy_v1 + w * dz_v1 - lap_v1 - dxIT
    fv2 = dt_v2 + v1 * 0.0 + v2 * dy_v2 + w * dz_v2 - lap_v2 - dyIT

    T = gT * (b * cx * H + (e * cy + d) * P)
    dt_T = dgT * (b * cx * H + (e * cy + d) * P)
    dx_T = gT * (-two_pi * b * sx * H)
    dy_T = gT * (-two_pi * e * sy * P)
    dz_T = gT * (b * cx * dH + (e * cy + d) * dP)
    lap_T = gT * (
        -b * cx * (0.25 * np.pi**2 + 4 * np.pi**2) * H
        - e * cy * (np.pi**2 + 4 * np.pi**2) * P
        - d * np.pi**2 * P
    )
    fT = dt_T + v1 * dx_T + v2 * dy_T + w * dz_T - lap_T
    return fv1, fv2, fT, None


def test_forcing_grid_levels_match_closed_form():
    grid = make_grid(8, 8, 8)
    params = EX.params(grid)
    f_v, f_T, f_rho = EX.forcing(grid, 0.53)
    for j, z in enumerate(grid.z):
        fv1, fv2, fT, _ = _forcing_at_z(grid, 0.53, float(z), params)
        assert np.max(np.abs(f_v[0][..., j] - fv1)) < 1e-13
        assert np.max(np.abs(f_v[1][..., j] - fv2)) < 1e-13
        assert np.max(np.abs(f_T[..., j] - fT)) < 1e-13


@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 8, 16), (16, 16, 16)])
def test_spectral_forcing_matches_transformed_forcing(shape):
    # the half-spectrum tables against the transform of the physical
    # forcing, at times where all six envelopes differ
    grid = make_grid(*shape)
    forcing_hat = EX.spectral_forcing(grid)
    for t in (0.0, 0.3, 0.77, 5.1):
        oracle = rfft_h(grid, pack_fields(*EX.forcing(grid, t)))
        ours = forcing_hat(grid, t)
        assert ours.shape == oracle.shape
        assert np.max(np.abs(ours - oracle)) <= 1e-13 * np.max(np.abs(oracle))
