"""Boundary noise: spectral Wiener increments, the exponential propagator
for the linearized coupled system (diagonal in its eigenbasis), the split
driver (exact linear noise convolution plus a deterministic remainder),
and a direct semi-implicit Euler-Maruyama driver used as the brute-force
cross-check.

Both drivers are the deterministic step (`Stepper.step`) of the full
state plus a kick on the half-spectrum coupled stack, inside the shared
driver loop (`timestep.integrate`), so they honour the monitor settings
and reduce to the deterministic run at sigma = 0.  The direct driver's
kick is the increment q dW on the surface row.  The split driver carries
the convolution Z as a half spectrum; with R = (I - dt A)^-1 the coupled
solve, its kick Z_{n+1} - R Z_n makes the step advance the remainder
full - Z by the deterministic step with the tendencies taken at the full
state, so the remainder is never formed.

The cylindrical noise basis is the Fourier basis of the horizontal grid;
per-mode amplitudes q_k = sigma * (1 + |xi_k|^2)^(-decay/2) act on the
surface-temperature row only.  The decay exponent must be at least 2 so
the noise carries one horizontal derivative uniformly in resolution.
The noise field is real, so the increments, the amplitudes and the
propagator tables are all held over the (Nx, Ny//2+1) half spectrum of
the step kernel.

Every run is a pure function of (config, seed): increments for all steps
are drawn up front in one reproducible bundle, indexed by the absolute
step number, and the same bundle can be coarsened (summing consecutive
increments) so runs at different step sizes share one Brownian path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .config import RunConfig
from .ebm import VERTICAL_AVERAGE
from .grid import Grid, irfft_h
from .monitors import StateTerms
from .timestep import (
    RunResult,
    State,
    Stepper,
    grid_from_config,
    initial_state_from_config,
    integrate,
    params_from_config,
)


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitude, spectral decay and seed of the boundary noise."""

    sigma: float = 0.1
    decay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        errors = [f"{name} must be finite, got {value}"
                  for name, value in (("sigma", self.sigma), ("decay", self.decay))
                  if not np.isfinite(value)]
        if self.sigma < 0.0:
            errors.append(f"sigma must be >= 0, got {self.sigma}")
        if self.decay < 2.0:
            errors.append(
                f"decay exponent must be >= 2 for boundary-noise regularity, "
                f"got {self.decay}"
            )
        if errors:
            raise ValueError("\n".join(errors))

    def q_table(self, grid: Grid) -> np.ndarray:
        """Amplitudes q_k over the half spectrum, shape (Nx, Ny//2+1)."""
        return self.sigma * (1.0 + grid.xi2_half) ** (-self.decay / 2.0)


def noise_spec_from_config(cfg: RunConfig) -> NoiseSpec:
    return NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)


@dataclass(frozen=True)
class PathBundle:
    """Per-step complex spectral Wiener increments of a real noise field,
    stored as half spectra.

    Paired modes carry independent real and imaginary parts of variance
    dt/2 each; self-conjugate modes (mean and Nyquist lines) are real with
    variance dt.  The bundle is a pure function of the seed.
    """

    increments: np.ndarray  # (n_steps, Nx, Ny//2+1) complex
    dt: float
    seed: int

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    def coarsen(self, factor: int) -> "PathBundle":
        """Sum consecutive increments: the same path at step size dt*factor."""
        if factor < 1:
            raise ValueError(f"coarsening factor must be at least 1, got {factor}")
        if self.n_steps % factor != 0:
            raise ValueError(
                f"cannot coarsen {self.n_steps} steps by a factor of {factor}"
            )
        n = self.n_steps // factor
        grouped = self.increments.reshape(n, factor, *self.increments.shape[1:])
        return PathBundle(
            increments=grouped.sum(axis=1), dt=self.dt * factor, seed=self.seed
        )


def wiener_increments(grid: Grid, spec: NoiseSpec, dt: float, n_steps: int) -> PathBundle:
    """Reproducible increment bundle for n_steps of size dt.

    Drawn as the DFT of white noise on the collocation grid, scaled so the
    per-mode variances match the cylindrical-process convention, and kept
    on its first Ny//2+1 columns: the full spectrum is conjugate symmetric,
    so these carry the whole real field.  The transform is the full fft2,
    whose columns differ from rfft2 by roundoff.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rng = np.random.default_rng(spec.seed)
    white = rng.standard_normal((n_steps, grid.nx, grid.ny)) * np.sqrt(dt)
    hat = np.fft.fft2(white, axes=(1, 2), norm="forward")[..., : grid.ny // 2 + 1]
    return PathBundle(increments=hat * np.sqrt(grid.nx * grid.ny), dt=dt, seed=spec.seed)


class ConvolutionPropagator:
    """Exact per-mode step map of the linearized boundary-noise system.

    With vertical = V diag(lam) V^-1 (`linops.eigenbasis`), the coupled
    generator M = vertical - |xi|^2 I has eigenvalues mu = lam - |xi|^2,
    and one step of the noise convolution is

        Z <- V diag(exp(dt mu)) V^-1 Z + phi1(dt M) e_rho * (q_k dW_k),

    with phi1(dt M) e_rho = V diag(phi1(dt mu)) V^-1 e_rho a stored
    (Nx, Ny//2+1, Nz+1) table, phi1(x) = expm1(x) / x and phi1(0) = 1.
    """

    def __init__(self, grid: Grid, dt: float):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.dt = dt
        lam, V, V_inv = linops.eigenbasis(linops.coupled_vertical_matrix(grid))
        self.basis = linops.interleaved_basis(V, V_inv)
        x = dt * (lam - grid.xi2_half[..., None])
        self.decay = np.exp(x)
        phi1 = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
        self.phi1_col = (phi1 * V_inv[:, -1]) @ V.T

    def step_hat(self, Z_hat: np.ndarray, dW: np.ndarray, q: np.ndarray) -> np.ndarray:
        """One step of a half-spectrum stack (Nx, Ny//2+1, Nz+1); dW and q
        are (Nx, Ny//2+1)."""
        propagated = linops.apply_diagonal(self.basis, self.decay, Z_hat)
        return propagated + self.phi1_col * (q * dW)[:, :, None]


def _stochastic_setup(cfg: RunConfig, spec: NoiseSpec | None, bundle: PathBundle | None):
    """Validated grid, parameters, stepper, increment bundle and amplitudes."""
    if cfg.scheme != "imex_euler":
        raise ValueError(
            f"stochastic drivers support scheme = imex_euler only, got {cfg.scheme!r}"
        )
    grid = grid_from_config(cfg)
    params = params_from_config(grid, cfg)
    if params.transport_variant != VERTICAL_AVERAGE:
        raise ValueError(
            "stochastic drivers require transport_variant=vertical_average"
        )
    if spec is None:
        spec = noise_spec_from_config(cfg)
    n_steps = cfg.n_steps()
    if bundle is None:
        bundle = wiener_increments(grid, spec, cfg.dt, n_steps)
    if (bundle.n_steps < n_steps or abs(bundle.dt - cfg.dt) > 1e-15 * max(1.0, cfg.dt)
            or bundle.increments.shape[1:] != (grid.nx, grid.ny // 2 + 1)):
        raise ValueError("path bundle does not match the run (steps, dt or grid)")
    stepper = Stepper(grid, params, cfg.dt, freeze_velocity=cfg.freeze_velocity)
    return grid, params, stepper, bundle, spec.q_table(grid)


def run_split_stochastic(
    cfg: RunConfig,
    spec: NoiseSpec | None = None,
    bundle: PathBundle | None = None,
    initial: State | None = None,
) -> RunResult:
    """Split driver: exact noise convolution plus a deterministic remainder.

    The convolution stack Z evolves by its exact per-mode exponential map,
    Z_{n+1} = E Z_n + phi1 q dW_n.  The remainder full - Z advances by the
    deterministic IMEX step with every nonlinearity evaluated at the full
    fields (temperature including the interior part of the convolution,
    surface temperature including its boundary part), so the scheme and
    the direct Euler-Maruyama driver discretize the same system.  The
    coupled solve R is linear, so this is one step of the full state with
    the kick Z_{n+1} - R Z_n.  With sigma = 0 the convolution vanishes and
    the run reproduces the deterministic driver.

    The run cannot resume: a snapshot carries only the surface channel of
    the convolution stack, so an `initial` state with step > 0 is
    rejected.
    """
    if initial is not None and initial.step > 0:
        raise ValueError(
            "the split driver cannot resume a run: snapshots do not carry "
            "the full convolution stack"
        )
    grid, params, stepper, bundle, q = _stochastic_setup(cfg, spec, bundle)
    propagator = ConvolutionPropagator(grid, cfg.dt)
    Z_hat = np.zeros(q.shape + (grid.nlev,), dtype=complex)

    def advance(state: State, terms: StateTerms) -> State:
        nonlocal Z_hat
        Z_next = propagator.step_hat(Z_hat, bundle.increments[state.step], q)
        new = stepper.step(state, kick_hat=Z_next - stepper.coupled.solve_hat(Z_hat),
                           terms=terms)
        Z_hat = Z_next
        return new

    state = initial_state_from_config(grid, cfg) if initial is None else initial
    result = integrate(cfg, grid, params, state, advance)
    result.z_rho_final = irfft_h(grid, Z_hat[..., -1])
    result.bundle = bundle
    return result


def run_direct_em(
    cfg: RunConfig,
    spec: NoiseSpec | None = None,
    bundle: PathBundle | None = None,
    initial: State | None = None,
) -> RunResult:
    """Semi-implicit Euler-Maruyama on the unsplit system.

    Explicit nonlinearities, implicit coupled solve, the noise increment
    added to the surface row of the spectral solution.  Serves as the
    brute-force oracle for the split driver on a shared path.  Increments
    are indexed by the absolute step, so a run resumed from a snapshot
    state whose step is set reproduces the uninterrupted run bit for bit.
    """
    grid, params, stepper, bundle, q = _stochastic_setup(cfg, spec, bundle)

    def advance(state: State, terms: StateTerms) -> State:
        kick = np.zeros(q.shape + (grid.nlev,), dtype=complex)
        kick[..., -1] = q * bundle.increments[state.step]
        return stepper.step(state, kick_hat=kick, terms=terms)

    state = initial_state_from_config(grid, cfg) if initial is None else initial
    result = integrate(cfg, grid, params, state, advance)
    result.bundle = bundle
    return result
