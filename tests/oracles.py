"""Slow full-spectrum references the tests check the package against.

Nothing in the package calls these.  The implicit solves here are dense:
every mode of the full (Nx, Ny) spectrum gets its own matrix and
`np.linalg.solve`, through the full-spectrum transforms
`to_spectral`/`to_physical`, so they share no eigenbasis, table or
half-spectrum transform with the kernel they check.  The physical-space
reference path lives only here: `physical_tendencies`, the reference of
`timestep.nonlinear_tendencies`, with the derivatives it is spelled
with, `deriv_x`/`deriv_y` on either spectral width and the quotient
form `deriv_z`, whose matrix `grid.diff_z` is bit for bit.  The
hydrostatic operators are spelled with `deriv_x`/`deriv_y` on complex
spectra, the forms that the package's symbol tables (`grid.ixi_pair`,
`grid.inv_lap_half`) must reproduce bit for bit; `manufactured_w` is
the closed-form w of the manufactured solution.  The package holds
half spectra as real pair spectra (`ebpe.grid`); `as_pairs` and
`as_complex` convert between them and complex arrays, so a test
converts only at its boundary.  The Dirichlet
extension and the Dirichlet-to-Neumann map apply a half-spectrum column,
diagonal in the eigenbasis of the Dirichlet block, to physical data; the
ledger checks run the driver loop's per-step checks over a whole ledger,
and `einsum_measure` is the ledger record in its earlier form: the
Parseval weights `norm_weights_half` over (Nx, Ny//2+1) contracted with
the power summed over the re/im axis, and the d/dz norms, by
`np.einsum`, and the solenoidal residual as a matvec per x.
`l2sq_volume` and `l2sq_surface` are the squared L2 norms on the grid,
by the trapezoid in z, that `measure`'s Parseval norms must reproduce.
The half spectrum of `exact_rfft2` is a direct long-double DFT, the
matrix of `exact_fourier_derivative` a direct long-double sum, and
`wiener_increments_one_shot` draws and transforms all steps at once.
`cumulative_integral_accumulate` is the running trapezoid integral as a
running sum of its increments, the reference of the kernel's product
with `grid.running_trapz`.  `smooth_field_2d` draws and transforms one
random plane at a time, and `random_smooth_per_plane` builds the
`random_smooth` initial fields from it, the reference of
`timestep.initial_state`'s one batched draw.  The last section keeps
the step's passes in their earlier forms, each the reference that its
contiguous form equals bit for bit: the implicit factors as a
half-spectrum table broadcast over re/im (`implicit_factors_half`,
`apply_diagonal_broadcast`), the baroclinic term as `ixi_pair`
broadcast over the levels (`baroclinic_grad_broadcast`), the vertical
averages as stacked matvecs (`vertical_average_stacked`), the ledger
record on numpy arrays and scalars (`numpy_measure`), and the blow-up check by
max and min alone (`check_finite_max_min`).
"""

from dataclasses import dataclass

import numpy as np

from ebpe import hydrostatic
from ebpe.ebm import VERTICAL_AVERAGE, radiation
from ebpe.grid import irfft_h, rfft_h, to_physical, to_spectral
from ebpe.hydrostatic import cumulative_integral, vertical_average
from ebpe.linops import (
    TOP_FLUX_INTEGERS,
    coupled_vertical_matrix,
    eigenbasis,
    from_eigen,
    neumann_vertical_matrix,
    to_eigen,
)
from ebpe.monitors import LedgerRecord, energy_step_check, h1_step_check, state_terms
from ebpe.timestep import BLOWUP_SUP, BlowUpError


def as_pairs(c: np.ndarray, plane: bool | None = None) -> np.ndarray:
    """The pair spectrum (..., Nx, 2, W, K) of complex spectra
    (..., Nx, W, K), or (..., Nx, 2, W) of planes (..., Nx, W); plane
    defaults to c.ndim == 2, as for the transforms.  The values are copied
    bit for bit."""
    c = np.asarray(c, dtype=complex)
    plane = c.ndim == 2 if plane is None else plane
    return np.stack((c.real, c.imag), axis=-2 if plane else -3)


def as_complex(p: np.ndarray, plane: bool | None = None) -> np.ndarray:
    """The complex spectra of a pair spectrum (`as_pairs`); plane defaults
    to p.ndim == 3."""
    plane = p.ndim == 3 if plane is None else plane
    re, im = np.moveaxis(p, -2 if plane else -3, 0)
    return re + 1j * im


def _cumulative_integral(grid, c: np.ndarray) -> np.ndarray:
    """`hydrostatic.cumulative_integral` of complex spectra, on their pairs."""
    return as_complex(cumulative_integral(grid, as_pairs(c)))


def _match_columns(grid, full: np.ndarray, half: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The (Nx, Ny) table `full` or its half-spectrum form `half`, whichever
    matches the columns of coeffs, shaped to broadcast over its trailing axes."""
    table = full if coeffs.shape[1] == grid.ny else half
    return table.reshape(table.shape + (1,) * (coeffs.ndim - 2))


def dealias(grid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3 rule; retained modes are untouched."""
    mask = _match_columns(grid, grid.dealias_mask, grid.dealias_half, coeffs)
    return np.where(mask, coeffs, 0.0)


def deriv_x(grid, coeffs: np.ndarray) -> np.ndarray:
    """d/dx of full or half spectra (Nyquist zeroed)."""
    return 1j * _match_columns(grid, grid.xi_x, grid.xi_x, coeffs) * coeffs


def deriv_y(grid, coeffs: np.ndarray) -> np.ndarray:
    """d/dy of full or half spectra (Nyquist zeroed)."""
    return 1j * _match_columns(grid, grid.xi_y, grid.xi_y_half, coeffs) * coeffs


def deriv_z(grid, f: np.ndarray) -> np.ndarray:
    """Vertical derivative of fields (..., Nz+1) in quotient form: centered
    interior, one-sided ends.  grid.diff_z is its matrix, bit for bit."""
    h = grid.dz
    out = np.empty_like(f)
    interior = out[..., 1:-1]
    np.subtract(f[..., 2:], f[..., :-2], out=interior)
    interior /= 2.0 * h
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return out


def _dealias_product(grid, f: np.ndarray) -> np.ndarray:
    return to_physical(grid, dealias(grid, to_spectral(grid, f)))


def physical_tendencies(grid, state, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit tendencies (F_v, F_T, F_rho) in physical space, on the
    full-spectrum transforms: the reference of `timestep.nonlinear_tendencies`.

    F_v: advection plus the baroclinic gradient of the running temperature
    integral.  F_T: advection by u = (v, w).  F_rho: boundary transport by
    the surface trace of v (or its vertical average) plus the radiation
    budget.  Advective products are dealiased; the quartic emission term
    is evaluated pointwise without padding.
    """
    v, T, rho = state.v, state.T, state.rho
    v_hat0 = to_spectral(grid, v[0])
    v_hat1 = to_spectral(grid, v[1])
    w = -cumulative_integral(grid, to_physical(grid, deriv_x(grid, v_hat0)
                                               + deriv_y(grid, v_hat1)))

    dxv = (to_physical(grid, deriv_x(grid, v_hat0)), to_physical(grid, deriv_x(grid, v_hat1)))
    dyv = (to_physical(grid, deriv_y(grid, v_hat0)), to_physical(grid, deriv_y(grid, v_hat1)))
    dzv = (deriv_z(grid, v[0]), deriv_z(grid, v[1]))

    c = to_spectral(grid, cumulative_integral(grid, T))
    F_v = np.stack((to_physical(grid, deriv_x(grid, c)), to_physical(grid, deriv_y(grid, c))))
    for comp in range(2):
        adv = v[0] * dxv[comp] + v[1] * dyv[comp] + w * dzv[comp]
        F_v[comp] -= _dealias_product(grid, adv)

    T_hat = to_spectral(grid, T)
    adv_T = (
        v[0] * to_physical(grid, deriv_x(grid, T_hat))
        + v[1] * to_physical(grid, deriv_y(grid, T_hat))
        + w * deriv_z(grid, T)
    )
    F_T = -_dealias_product(grid, adv_T)

    if params.transport_variant == VERTICAL_AVERAGE:
        vs = vertical_average(grid, v)
    else:
        vs = v[:, :, :, -1]
    rho_hat = to_spectral(grid, rho)
    adv_rho = (
        vs[0] * to_physical(grid, deriv_x(grid, rho_hat))
        + vs[1] * to_physical(grid, deriv_y(grid, rho_hat))
    )
    F_rho = -_dealias_product(grid, adv_rho)
    if params.radiation_on:
        F_rho = F_rho + radiation(rho, params)
    return F_v, F_T, F_rho


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


def cumulative_integral_accumulate(grid, f: np.ndarray) -> np.ndarray:
    """`hydrostatic.cumulative_integral` as np.add.accumulate of the
    trapezoid increments 0.5 dz (f_{j+1} + f_j) over the levels."""
    out = np.empty_like(f)
    out[..., 0] = 0.0
    increments = 0.5 * grid.dz * (f[..., 1:] + f[..., :-1])
    np.add.accumulate(increments, axis=-1, out=out[..., 1:])
    return out


def wiener_increments_one_shot(grid, spec, dt: float, n_steps: int) -> np.ndarray:
    """The increments of `stochastic.wiener_increments`, with the white
    noise of every step drawn and transformed at once."""
    rng = np.random.default_rng(spec.seed)
    white = rng.standard_normal((n_steps, grid.nx, grid.ny)) * np.sqrt(dt)
    hat = np.fft.fft2(white, axes=(1, 2), norm="forward")[..., : grid.ny // 2 + 1]
    return hat * np.sqrt(grid.nx * grid.ny)


def smooth_field_2d(grid, rng: np.random.Generator, decay: float = 2.0) -> np.ndarray:
    """Real random field with (1+|k|^2)^(-decay/2) spectral decay, confined
    to the dealiased modes: the real, then the imaginary parts drawn."""
    c = rng.standard_normal((grid.nx, grid.ny)) + 1j * rng.standard_normal((grid.nx, grid.ny))
    k2 = (grid.kx.astype(float) ** 2)[:, None] + (grid.ky.astype(float) ** 2)[None, :]
    c *= (1.0 + k2) ** (-decay / 2.0)
    c = np.where(grid.dealias_mask, c, 0.0)
    return np.fft.ifft2(c).real * (grid.nx * grid.ny)


def random_smooth_per_plane(grid, seed: int, decay: float, amplitude: float) -> np.ndarray:
    """The fields of initial_state(grid, "random_smooth", amplitude, seed,
    decay), one `smooth_field_2d` per plane: T's three profiles, then
    v[0]'s and v[1]'s."""
    rng = np.random.default_rng(seed)
    fields = np.zeros((3, grid.nx, grid.ny, grid.nlev))
    v, T = fields[:2], fields[2]
    profiles = [np.cos(m * np.pi * grid.z) for m in range(3)]
    for p in profiles:
        T += smooth_field_2d(grid, rng, decay)[:, :, None] * p
    for comp in range(2):
        for p in profiles:
            v[comp] += smooth_field_2d(grid, rng, decay)[:, :, None] * p
    v[...] = irfft_h(grid, hydrostatic.project_barotropic(grid, rfft_h(grid, v))[0])
    for f in (T, v):
        sup = np.max(np.abs(f))
        f[...] = f * (amplitude / sup) if sup > 0 and amplitude > 0 else 0.0
    return fields


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
    stack = to_spectral(grid, np.dstack((rhs_T[..., :-1], rhs_rho)))
    T = to_physical(grid, _dense_solve(grid, coupled_vertical_matrix(grid), stack, dt))
    return T, T[..., -1].copy()


def solve_velocity_implicit(grid, rhs_v: np.ndarray, dt: float) -> np.ndarray:
    """Per-component solve of (I - dt*(d^2_z - |xi|^2)) v = rhs with no-flux ends."""
    vertical = neumann_vertical_matrix(grid)
    return np.stack([to_physical(grid, _dense_solve(grid, vertical, to_spectral(grid, c), dt))
                     for c in rhs_v])


def crank_nicolson_stage(grid, fields, tendencies, dt: float):
    """The theta = 1/2 implicit stage of physical (v, T, rho) with explicit
    tendencies e = (e_v, e_T, e_rho): on every mode of the full spectrum,
    x = (I - dt/2 M)^-1 ((I + dt/2 M) u + dt e) with the dense generator M
    of that mode, `assemble_mode_operator` for the coupled stack and the
    Neumann matrix minus |xi|^2 for each velocity component.  Returns the
    unprojected velocity and (T, rho), physical; T(., 1) = rho."""
    (v, T, rho), (e_v, e_T, e_rho) = fields, tendencies
    u = [to_spectral(grid, np.dstack((T[..., :-1], rho)))]
    e = [to_spectral(grid, np.dstack((e_T[..., :-1], e_rho)))]
    u += [to_spectral(grid, c) for c in v]
    e += [to_spectral(grid, c) for c in e_v]
    x = [np.empty_like(c) for c in u]
    eye = np.eye(grid.nlev)
    for i, j in np.ndindex(grid.nx, grid.ny):
        xi = (2.0 * np.pi * grid.kx[i], 2.0 * np.pi * grid.ky[j])
        coupled = assemble_mode_operator(xi, grid)
        velocity = neumann_vertical_matrix(grid) - (xi[0] ** 2 + xi[1] ** 2) * eye
        for out, u_k, e_k, M in zip(x, u, e, (coupled, velocity, velocity)):
            out[i, j] = np.linalg.solve(eye - 0.5 * dt * M,
                                        (eye + 0.5 * dt * M) @ u_k[i, j] + dt * e_k[i, j])
    T_new = to_physical(grid, x[0])
    return np.stack([to_physical(grid, c) for c in x[1:]]), T_new, T_new[..., -1].copy()


def diagnose_w(grid, v_hat: np.ndarray) -> np.ndarray:
    """`hydrostatic.diagnose_w` through deriv_x/deriv_y, for full or half
    complex spectra."""
    return -_cumulative_integral(grid, deriv_x(grid, v_hat[0]) + deriv_y(grid, v_hat[1]))


def baroclinic_grad(grid, T_hat: np.ndarray) -> np.ndarray:
    """`hydrostatic.baroclinic_grad` through deriv_x/deriv_y, for full or
    half complex spectra."""
    c = _cumulative_integral(grid, T_hat)
    return np.stack((deriv_x(grid, c), deriv_y(grid, c)))


def project_barotropic(grid, v_hat: np.ndarray):
    """`hydrostatic.project_barotropic` through deriv_x/deriv_y and a
    guarded division by the discrete div(grad .) symbol; complex half
    spectra, averaged over z on their pairs."""
    vbar = as_complex(vertical_average(grid, as_pairs(v_hat)), plane=True)
    div_hat = deriv_x(grid, vbar[0]) + deriv_y(grid, vbar[1])
    xi2 = grid.xi2_deriv_half
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(xi2 > 0.0, div_hat / (-xi2), 0.0)
    grad = np.stack((deriv_x(grid, phi_hat), deriv_y(grid, phi_hat)))
    return v_hat - grad[..., None], phi_hat


def manufactured_w(exact, grid, t: float) -> np.ndarray:
    """The closed-form w = -int_0^z div_H v of the velocity of the
    `ManufacturedSolution` `exact` at time t."""
    _, sx, cy, _, z = exact._trig(grid)
    return 2.0 * exact.amp_v * exact._gv(t) * (sx - cy) * np.sin(np.pi * z)


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
    return irfft_h(grid, dirichlet_inverse_column(grid)[:, None] * rfft_h(grid, phi)[..., None])


def dtn_apply(grid, phi: np.ndarray) -> np.ndarray:
    """Normal derivative at the surface of the Dirichlet extension of phi."""
    return irfft_h(grid, dtn_symbols(grid)[:, None] * rfft_h(grid, phi))


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


def energy_ledger_check(ledger, c_led: float = 50.0, strict: bool = False) -> LedgerCheckResult:
    """`energy_step_check` over every consecutive pair of ledger records.

    With strict=True (pure diffusion: velocity frozen, no insolation, no
    radiation) the energy must not increase at all beyond roundoff.
    """
    for n in range(1, len(ledger)):
        prev, record = ledger[n - 1], ledger[n]
        if strict:
            allowed = prev.energy * (1.0 + 1e-14)
            message = None if record.energy <= allowed else (
                f"energy ledger violated at step {record.step}: "
                f"E={record.energy:.6e} > allowed {allowed:.6e}")
        else:
            message = energy_step_check(prev, record, record.t - prev.t, c_led)
        if message is not None:
            return LedgerCheckResult(ok=False, first_bad_step=n, message=message)
    return LedgerCheckResult(ok=True)


def h1_ledger_check(ledger, growth_rate: float = 50.0, margin: float = 100.0) -> LedgerCheckResult:
    """`h1_step_check` of every ledger record against the first."""
    for n in range(len(ledger)):
        message = h1_step_check(ledger[0], ledger[n], growth_rate, margin)
        if message is not None:
            return LedgerCheckResult(ok=False, first_bad_step=n, message=message)
    return LedgerCheckResult(ok=True)


def l2sq_volume(grid, f: np.ndarray) -> float:
    """Squared L2 norm over the unit-volume cylinder (trapezoid in z)."""
    return float(np.sum(f * f @ grid.trapz_w) / (grid.nx * grid.ny))


def l2sq_surface(grid, f: np.ndarray) -> float:
    """Squared L2 norm over the unit-area horizontal section."""
    return float(np.sum(f * f) / (grid.nx * grid.ny))


def norm_weights_half(grid) -> np.ndarray:
    """(2, Nx, Ny//2+1) Parseval weights of a half spectrum's power: 1 on
    the ky = 0 and ky = Ny/2 columns, 2 elsewhere (row 0), and those
    times xi2_deriv_half (row 1)."""
    weights = np.full(grid.xi2_deriv_half.shape, 2.0)
    weights[:, 0] = weights[:, -1] = 1.0
    return np.stack((weights, weights * grid.xi2_deriv_half))


def einsum_measure(grid, state) -> LedgerRecord:
    """`monitors.measure` of `state` in its einsum form."""
    terms = state_terms(grid, state)
    w = grid.trapz_w
    power = (terms.U**2).sum(axis=-3)
    norms = np.einsum("sxy,cxyk->sck", norm_weights_half(grid), power)
    volume = norms @ w
    dz_sq = np.einsum("cxyk,k->c", terms.dz * terms.dz, w) / (grid.nx * grid.ny)
    gv = float(volume[1, 0] + volume[1, 1] + dz_sq[0] + dz_sq[1])
    gT = float(volume[1, 2] + dz_sq[2])
    gr = float(norms[1, 2, -1])
    abs_T = np.abs(state.T)
    abs_rho = abs_T[..., -1]
    return LedgerRecord(
        step=state.step,
        t=state.t,
        energy=0.5 * float(volume[0].sum() + norms[0, 2, -1]),
        dissipation=gv + gT + gr,
        rho_l5=float((abs_rho ** 5).sum() / (grid.nx * grid.ny)),
        sup_T=float(abs_T.max()),
        sup_rho=float(abs_rho.max()),
        grad_v_sq=gv,
        grad_T_sq=gT,
        grad_rho_sq=gr,
        div_res=float(np.abs((terms.dx[0] + terms.dy[1]) @ w).max()),
    )


# The step's passes in the forms they had before each became one
# contiguous call: the references that the contiguous forms must equal
# bit for bit.

def implicit_factors_half(grid, lam: np.ndarray, dt: float) -> np.ndarray:
    """`linops.implicit_factors` as the (Nx, Ny//2+1, n) table, one factor
    per mode."""
    return 1.0 / (1.0 - dt * (lam - grid.xi2_half[..., None]))


def apply_diagonal_broadcast(basis: np.ndarray, diag_half: np.ndarray,
                             x_hat: np.ndarray) -> np.ndarray:
    """`linops.apply_diagonal` with a half-spectrum table (`implicit_factors_half`,
    stacked per field for stacked bases) broadcast over the re/im axis."""
    coords = to_eigen(basis, x_hat)
    coords *= diag_half[..., None, :, :]
    return from_eigen(basis, coords)


def baroclinic_grad_broadcast(grid, T_hat: np.ndarray) -> np.ndarray:
    """`hydrostatic.baroclinic_grad` as `ixi_pair` broadcast over the levels
    times the running integral, its re/im axis reversed in a view."""
    return grid.ixi_pair[..., None] * cumulative_integral(grid, T_hat)[..., ::-1, :, :]


def vertical_average_stacked(grid, f: np.ndarray) -> np.ndarray:
    """`hydrostatic.vertical_average` (and `project_barotropic`'s average)
    as a stacked matvec: one product per leading index."""
    return np.matmul(f, grid.trapz_w)


def numpy_measure(grid, state, terms) -> LedgerRecord:
    """`monitors.measure` of `state` given its terms, as numpy arrays and
    numpy scalars reduced by their methods."""
    w = grid.trapz_w
    norms = grid.norm_weights_pair @ (terms.U * terms.U).reshape(3, -1, grid.nlev)
    volume = norms @ w
    dz_sq = ((terms.dz * terms.dz).reshape(-1, grid.nlev) @ w).reshape(3, -1).sum(axis=1)
    dz_sq /= grid.nx * grid.ny
    gv = float(volume[0, 1] + volume[1, 1] + dz_sq[0] + dz_sq[1])
    gT = float(volume[2, 1] + dz_sq[2])
    gr = float(norms[2, 1, -1])
    abs_T = np.abs(state.T)
    abs_rho = abs_T[..., -1]
    return LedgerRecord(
        step=state.step,
        t=state.t,
        energy=0.5 * float(volume[:, 0].sum() + norms[2, 0, -1]),
        dissipation=gv + gT + gr,
        rho_l5=float((abs_rho ** 5).sum() / (grid.nx * grid.ny)),
        sup_T=float(abs_T.max()),
        sup_rho=float(abs_rho.max()),
        grad_v_sq=gv,
        grad_T_sq=gT,
        grad_rho_sq=gr,
        div_res=float(np.abs(terms.div.reshape(-1, grid.nlev) @ w).max()),
    )


def check_finite_max_min(state, previous) -> None:
    """`timestep._check_finite` in its former form: one max and one min of
    all fields, then one max-norm per field if they fail."""
    if max(state.fields.max(), -state.fields.min()) <= BLOWUP_SUP:
        return
    for name, f in (("v", state.v), ("T", state.T)):
        sup = np.abs(f).max()
        if sup <= BLOWUP_SUP:
            continue
        what = (f"sup|{name}| = {sup:.3e} exceeds the blow-up threshold" if np.isfinite(sup)
                else f"non-finite values in {name}")
        raise BlowUpError(f"{what} at t={state.t:.6g} (step {state.step})", last_state=previous)
