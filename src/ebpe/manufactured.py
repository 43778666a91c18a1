"""Exact solution with analytic forcing for convergence verification.

The fields are low-mode trigonometric products chosen to satisfy every
boundary condition of the model exactly:

* both velocity components carry the vertical profile cos(pi z), whose
  slope vanishes at top and bottom, plus a barotropic divergence-free
  part, so the vertical average stays solenoidal;
* the temperature combines cos(pi z / 2) (zero bottom slope, zero trace,
  nonzero surface flux) and cos(pi z) (zero slope at both ends, carrying
  the surface trace), so the trace and bottom no-flux conditions hold.

Horizontal structure uses only first modes; quadratic products then live
entirely inside the 2/3 dealias range of any grid with Nx, Ny >= 8, so
the injected forcing balances the discrete tendencies without aliasing
error.  The radiation term is evaluated pointwise on the collocation
grid by both the scheme and the forcing, cancelling identically as the
numerical solution approaches the exact one.

The forcing is separable: apart from that radiation term, it is a sum of
six fixed spatial fields (`forcing_terms`, in the state's field-major
layout), each times one time envelope.  `spectral_forcing` transforms
the fields once per grid, so a forced step adds a six-term contraction
of pair spectra (`ebpe.grid`); `forcing` is the physical form that the
tests use as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ebm import PhysParams, SURFACE_TRACE, default_insolation, radiation
from .grid import Grid, rfft_h
from .timestep import State

_PI = np.pi


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form fields and the forcing that makes them exact solutions."""

    amp_v: float = 0.15       # baroclinic velocity amplitude
    amp_baro: float = 0.10    # barotropic velocity amplitude
    amp_flux: float = 0.20    # temperature component with surface flux
    amp_trace: float = 0.15   # temperature component carrying the trace
    amp_mean: float = 0.10    # horizontally uniform temperature component
    q0: float = 1.0
    q1: float = 0.3

    # time envelopes
    @staticmethod
    def _gv(t):
        return 1.0 + 0.5 * np.sin(t)

    @staticmethod
    def _dgv(t):
        return 0.5 * np.cos(t)

    @staticmethod
    def _gT(t):
        return 1.0 + 0.5 * np.cos(t)

    @staticmethod
    def _dgT(t):
        return -0.5 * np.sin(t)

    def params(self, grid: Grid) -> PhysParams:
        return PhysParams(
            Q=default_insolation(grid, self.q0, self.q1),
            transport_variant=SURFACE_TRACE,
            radiation_on=True,
        )

    # -- geometry helpers -------------------------------------------------

    @staticmethod
    def _trig(grid: Grid):
        two_pi = 2.0 * _PI
        cx = np.cos(two_pi * grid.x)[:, :, None]
        sx = np.sin(two_pi * grid.x)[:, :, None]
        cy = np.cos(two_pi * grid.y)[:, :, None]
        sy = np.sin(two_pi * grid.y)[:, :, None]
        z = grid.z[None, None, :]
        return cx, sx, cy, sy, z

    # -- exact fields ------------------------------------------------------

    def velocity(self, grid: Grid, t: float) -> np.ndarray:
        cx, sx, cy, sy, z = self._trig(grid)
        P = np.cos(_PI * z)
        gv = self._gv(t)
        v = np.empty((2, grid.nx, grid.ny, grid.nlev))
        v[0] = gv * (self.amp_v * cx * P + self.amp_baro * sy * np.ones_like(z))
        v[1] = gv * (self.amp_v * sy * P)
        return v

    def temperature(self, grid: Grid, t: float) -> np.ndarray:
        cx, sx, cy, sy, z = self._trig(grid)
        H = np.cos(0.5 * _PI * z)
        P = np.cos(_PI * z)
        gT = self._gT(t)
        return gT * (self.amp_flux * cx * H + (self.amp_trace * cy + self.amp_mean) * P)

    def surface_temperature(self, grid: Grid, t: float) -> np.ndarray:
        return self._surface(np.cos(2.0 * _PI * grid.y), t)

    def _surface(self, cy: np.ndarray, t: float) -> np.ndarray:
        """The exact rho at t where cos(2 pi y) is cy."""
        return -self._gT(t) * (self.amp_trace * cy + self.amp_mean)

    def initial_state(self, grid: Grid) -> State:
        return State.pack(self.velocity(grid, 0.0), self.temperature(grid, 0.0))

    # -- forcing -----------------------------------------------------------

    @classmethod
    def _envelopes(cls, t) -> np.ndarray:
        """The time envelopes of `forcing_terms`, in its order:
        (dgv, gv, gv^2, gT, dgT, gv gT)."""
        gv, gT = cls._gv(t), cls._gT(t)
        return np.array([cls._dgv(t), gv, gv * gv, gT, cls._dgT(t), gv * gT])

    def _terms(self, grid: Grid):
        """The forcing less radiation as six (f_v, f_T, f_rho) terms in the
        order of `_envelopes`, from closed-form derivatives; f_T is the
        interior equation's at every level, z = 1 included.  The exact
        surface pressure is identically zero."""
        a, c = self.amp_v, self.amp_baro
        b, e, d = self.amp_flux, self.amp_trace, self.amp_mean
        two_pi = 2.0 * _PI
        cx, sx, cy, sy, z = self._trig(grid)
        P = np.cos(_PI * z)
        dP = -_PI * np.sin(_PI * z)
        H = np.cos(0.5 * _PI * z)
        dH = -0.5 * _PI * np.sin(0.5 * _PI * z)
        sinz = np.sin(_PI * z)
        ones_z = np.ones_like(z)

        # spatial parts: v = gv (v1, v2), w = gv w, T = gT T, rho = gT rho
        v1 = a * cx * P + c * sy * ones_z
        v2 = a * sy * P
        w = 2.0 * a * (sx - cy) * sinz
        T = b * cx * H + (e * cy + d) * P

        adv_v1 = (v1 * (-two_pi * a * sx * P) + v2 * (two_pi * c * cy * ones_z)
                  + w * (a * cx * dP))
        adv_v2 = v2 * (two_pi * a * cy * P) + w * (a * sy * dP)  # d/dx v2 = 0
        lap_v1 = -5.0 * _PI**2 * a * cx * P - 4.0 * _PI**2 * c * sy * ones_z
        lap_v2 = -5.0 * _PI**2 * a * sy * P
        # grad of the running integral of T: int cos(pi z/2) = (2/pi) sin(pi z/2)
        dxIT = -4.0 * b * sx * np.sin(0.5 * _PI * z)
        dyIT = -2.0 * e * sy * sinz

        adv_T = (v1 * (-two_pi * b * sx * H) + v2 * (-two_pi * e * sy * P)
                 + w * (b * cx * dH + (e * cy + d) * dP))
        lap_T = (-b * cx * (0.25 * _PI**2 + 4.0 * _PI**2) * H
                 - e * cy * (_PI**2 + 4.0 * _PI**2) * P
                 - d * _PI**2 * P)

        # surface equation; transport by the velocity trace at z = 1, where
        # only v2 = -a sy moves rho(y)
        cx2, cy2, sy2 = cx[..., 0], cy[..., 0], sy[..., 0]
        rho = -(e * cy2 + d)
        adv_rho = (-a * sy2) * (two_pi * e * sy2)
        lap_rho = 4.0 * _PI**2 * e * cy2
        flux_top = -0.5 * _PI * b * cx2           # dT/dz at z = 1

        zero, zero2 = np.zeros_like(T), np.zeros_like(rho)
        return (
            ((v1, v2), zero, zero2),                         # dgv
            ((-lap_v1, -lap_v2), zero, zero2),               # gv
            ((adv_v1, adv_v2), zero, zero2),                 # gv^2
            ((-dxIT, -dyIT), -lap_T, flux_top - lap_rho),    # gT
            ((zero, zero), T, rho),                          # dgT
            ((zero, zero), adv_T, adv_rho),                  # gv gT
        )

    def forcing_terms(self, grid: Grid) -> np.ndarray:
        """The six terms, shape (6, 3, Nx, Ny, Nz+1), in the state's layout
        (f_v[0], f_v[1], f_T) with f_rho on T's top level, which is rho: the
        forcing at t is the sum over i of `_envelopes(t)[i]` times term i,
        minus the radiation of the exact rho on that level."""
        return np.stack([np.concatenate((f_v, np.dstack((f_T[..., :-1], f_rho))[None]))
                         for f_v, f_T, f_rho in self._terms(grid)])

    def forcing(self, grid: Grid, t: float):
        """Residual forcing (f_v, f_T, f_rho) making the fields exact.

        The physical form of `spectral_forcing`, rebuilt from the terms at
        every call; the tests use it as the oracle.
        """
        f_v, f_T, f_rho = (np.tensordot(self._envelopes(t), np.asarray(fields), axes=1)
                           for fields in zip(*self._terms(grid)))
        return f_v, f_T, f_rho - radiation(self.surface_temperature(grid, t), self.params(grid))

    def spectral_forcing(self, grid: Grid):
        """The forcing as `Stepper` takes it: a callable (grid, t) -> pair
        spectrum (3, Nx, 2, Ny//2+1, Nz+1) in the state's layout.

        The six `forcing_terms` are transformed once, here; a call
        contracts them with the envelopes at t and subtracts the transform
        of the radiation of the exact rho from T's top plane.  That rho
        and Q depend on y only, so both are taken on the kx = 0 row alone
        (cos 2 pi y on it is evaluated once, here), and the transform is
        the y pass of `rfft_h` (`grid.dft_y`) on that row.
        """
        hats = rfft_h(grid, self.forcing_terms(grid))
        shape = hats.shape[1:]
        table = hats.reshape(len(hats), -1)
        params = self.params(grid)
        row = replace(params, Q=params.Q[:1])
        cy = np.cos(2.0 * _PI * grid.y[:1])

        def forcing_hat(at: Grid, t: float) -> np.ndarray:
            if at != grid:
                raise ValueError(f"spectral forcing built for {grid}, called with {at}")
            out = (self._envelopes(t) @ table).reshape(shape)
            rad = radiation(self._surface(cy, t), row)
            out[2, 0, ..., -1] -= (grid.dft_y @ rad[0]).reshape(2, -1)  # re, then im
            return out

        return forcing_hat
