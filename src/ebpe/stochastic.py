"""Boundary noise: spectral Wiener increments, the exponential propagator
for the linearized coupled system (diagonal in its eigenbasis), the split
driver (exact linear noise convolution plus a deterministic remainder),
and a direct semi-implicit Euler-Maruyama driver used as the brute-force
cross-check.

Both drivers are the deterministic step (`Stepper.step`) of the full
state plus a kick on the pair-spectrum coupled stack, which they hand the
shared driver loop (`timestep.integrate`), so they honour the monitor
settings and reduce to the deterministic run at sigma = 0.  They check
the config (`validate_config`), the scheme, the transport, a given spec
and bundle, and `timestep.start_run` a given initial state, before the
Stepper is built or a bundle drawn, so a rejected run costs no set-up.
The direct driver's kick is the increment q dW on the surface row.  The
split driver carries the convolution Z as a pair spectrum (`ebpe.grid`)
in the coupled solver's eigen coordinates zeta = V^-1 Z; with
R = V diag(d) V^-1 the coupled solve, its kick Z_{n+1} - R Z_n =
V (zeta_{n+1} - d zeta_n) makes the step advance the remainder full - Z
by the deterministic step with the tendencies taken at the full state,
so the remainder is never formed.
The run returns Z's surface channel in level coordinates.

The cylindrical noise basis is the Fourier basis of the horizontal grid;
per-mode amplitudes q_k = sigma * (1 + |xi_k|^2)^(-decay/2) act on the
surface-temperature row only.  The decay exponent must be at least 2,
which makes the surface solution's H1 norm uniform in resolution; the
sum of |q_k|^2 |xi_k|^2 converges only for decay > 2 (log N at 2).
The noise field is real, so the increments, the amplitudes and the
propagator tables are all held over the (Nx, Ny//2+1) half spectrum of
the step kernel, the increments as its real pair spectra (`ebpe.grid`).

Every run is a pure function of its config: sigma, decay and seed are
its [noise] keys and nothing else.  Increments for all steps are drawn
up front in one reproducible bundle, indexed by the absolute step number,
and the same bundle can be coarsened (summing consecutive increments) so
runs at different step sizes share one Brownian path.  A driver given a
spec or a bundle checks them against the config: a spec must equal its
`NoiseSpec`, and a bundle must match its steps, dt, grid and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .config import RunConfig, noise_errors, validate_config
from .ebm import VERTICAL_AVERAGE
from .grid import Grid, irfft_h
from .timestep import RunResult, State, Stepper, integrate, start_run

# white-noise values drawn and transformed at a time by wiener_increments
# (1 MiB of float64)
NOISE_CHUNK_VALUES = 1 << 17


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitude, spectral decay and seed of the boundary noise."""

    sigma: float = 0.1
    decay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        errors = noise_errors(self.sigma, self.decay)
        if errors:
            raise ValueError("\n".join(errors))

    def q_table(self, grid: Grid) -> np.ndarray:
        """Amplitudes q_k over the half spectrum, shape (Nx, Ny//2+1)."""
        return self.sigma * (1.0 + grid.xi2_half) ** (-self.decay / 2.0)


@dataclass(frozen=True)
class PathBundle:
    """Per-step spectral Wiener increments of a real noise field, stored
    as half spectra in the step kernel's pair layout (`ebpe.grid`).

    Paired modes carry independent real and imaginary parts of variance
    dt/2 each; self-conjugate modes (mean and Nyquist lines) are real with
    variance dt.  The bundle is a pure function of the seed it records.
    """

    increments: np.ndarray  # (n_steps, Nx, 2, Ny//2+1) float64 pairs
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
        return PathBundle(increments=grouped.sum(axis=1), dt=self.dt * factor, seed=self.seed)


def wiener_increments(grid: Grid, spec: NoiseSpec, dt: float, n_steps: int) -> PathBundle:
    """Reproducible increment bundle for n_steps of size dt.

    Drawn as the DFT of white noise on the collocation grid, scaled so the
    per-mode variances match the cylindrical-process convention, and kept
    on its first Ny//2+1 columns: the full spectrum is conjugate symmetric,
    so these carry the whole real field.  The transform is the full fft2,
    whose columns differ from rfft2 by roundoff.  The noise is drawn and
    transformed a chunk of steps at a time from one generator, which gives
    the same bits as one draw of all steps, so the white noise and its
    full spectrum never exist for more than a chunk.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rng = np.random.default_rng(spec.seed)
    half = grid.ny // 2 + 1
    increments = np.empty((n_steps, grid.nx, 2, half))
    chunk = max(1, NOISE_CHUNK_VALUES // (grid.nx * grid.ny))
    for start in range(0, n_steps, chunk):
        out = increments[start : start + chunk]
        white = rng.standard_normal((len(out), grid.nx, grid.ny)) * np.sqrt(dt)
        hat = np.fft.fft2(white, axes=(1, 2), norm="forward")[..., :half]
        hat *= np.sqrt(grid.nx * grid.ny)
        out[:, :, 0], out[:, :, 1] = hat.real, hat.imag
    return PathBundle(increments=increments, dt=dt, seed=spec.seed)


class ConvolutionPropagator:
    """Exact per-mode step map of the linearized boundary-noise system.

    It reads the eigenbasis vertical = V diag(lam) V^-1 of the step's
    coupled solver (`linops.CoupledImplicitSolver`), which does not depend
    on the solver's dt; dt is the noise step.  The coupled generator
    M = vertical - |xi|^2 I has eigenvalues mu = lam - |xi|^2, and one
    step of the noise convolution Z = V zeta is diagonal in its eigen
    coordinates zeta (`linops.to_eigen` with `basis`, the solver's):

        zeta <- exp(dt mu) zeta + phi1(dt mu) (V^-1 e_rho) (q_k dW_k),

    with phi1(x) = expm1(x) / x and phi1(0) = 1.
    """

    def __init__(self, coupled: linops.CoupledImplicitSolver, dt: float):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.basis = coupled.basis
        x = dt * (coupled.lam - coupled.grid.xi2_half[..., None])
        phi1 = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
        # (Nx, 2, Ny//2+1, n): the same factor for both parts, as linops' d
        self.decay = np.repeat(np.exp(x)[:, None], 2, axis=1)
        self.phi1_rho = np.repeat((phi1 * coupled.V_inv[:, -1])[:, None], 2, axis=1)

    def step_hat(self, zeta: np.ndarray, dW: np.ndarray, q: np.ndarray,
                 out: np.ndarray | None = None, work: tuple | None = None) -> np.ndarray:
        """One step of the eigen coordinates (Nx, 2, Ny//2+1, Nz+1) of a
        pair-spectrum stack; dW is a bundle's pair spectrum (Nx, 2,
        Ny//2+1), q the amplitudes in its layout (`_stochastic_setup`'s
        pair table, or q_table[:, None]).  out (it may be zeta), when
        given, receives the result.  work, when given, is a run's buffers,
        bound once: the injected term's stack and a plane for q dW, as
        itself and as one level (Nx, 2, Ny//2+1, 1), from which it is
        copied over the levels, so that no multiply broadcasts."""
        decayed = np.multiply(self.decay, zeta, out=out)
        if work is None:
            injected = np.empty(zeta.shape)
            injected[...] = (q * dW)[..., None]
        else:
            injected, product, product_levels = work
            np.multiply(q, dW, out=product)
            injected[...] = product_levels
        injected *= self.phi1_rho
        return np.add(decayed, injected, out=decayed)


def _stochastic_setup(cfg: RunConfig, spec: NoiseSpec | None, bundle: PathBundle | None,
                      initial: State | None) -> tuple[Stepper, State, PathBundle, np.ndarray]:
    """Stepper, first state, increment bundle and amplitudes (the q_table in
    the increments' pair layout, (Nx, 2, Ny//2+1)), built (by `start_run`)
    or drawn only after every input is checked."""
    validate_config(cfg)
    if cfg.scheme != "imex_euler":
        raise ValueError(f"stochastic drivers support scheme = imex_euler only, "
                         f"got {cfg.scheme!r}")
    if cfg.transport != VERTICAL_AVERAGE:
        raise ValueError("stochastic drivers require transport_variant=vertical_average")
    noise = NoiseSpec(sigma=cfg.noise_sigma, decay=cfg.noise_decay, seed=cfg.noise_seed)
    if spec is not None and spec != noise:
        raise ValueError(f"the noise {spec} is not the run's [noise] keys, {noise}")
    n_steps = cfg.n_steps()
    if bundle is not None and (
            bundle.n_steps < n_steps or abs(bundle.dt - cfg.dt) > 1e-15 * max(1.0, cfg.dt)
            or bundle.increments.shape[1:] != (cfg.nx, 2, cfg.ny // 2 + 1)
            or bundle.increments.dtype != np.float64 or bundle.seed != noise.seed):
        raise ValueError("path bundle does not match the run (steps, dt, grid or seed)")
    stepper, state = start_run(cfg, initial)
    if bundle is None:
        bundle = wiener_increments(stepper.grid, noise, cfg.dt, n_steps)
    return stepper, state, bundle, np.repeat(noise.q_table(stepper.grid)[:, None], 2, axis=1)


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
    the kick Z_{n+1} - R Z_n; computing it advances Z.  With sigma = 0 the
    convolution vanishes and the run reproduces the deterministic driver.

    Z starts from zero and is a function of the path alone, so a run
    resumed from a state at step s > 0 replays Z's steps over the
    increments before s (each far cheaper than a step of the state) and
    reproduces the uninterrupted run bit for bit.  spec and bundle, when
    given, are the config's noise and a path drawn with its seed (see the
    module docstring): the run is bit for bit the one that draws its own.
    """
    stepper, state, bundle, q = _stochastic_setup(cfg, spec, bundle, initial)
    propagator = ConvolutionPropagator(stepper.coupled, cfg.dt)
    # zeta advances in place; the kick stack holds the injected term until
    # the kick is written over it; every view of these buffers that the
    # kick takes is bound here
    k = stepper.grid.nlev
    zeta = np.zeros((q.shape[0], 2, q.shape[2], k))
    d_zeta, kick_hat, product = np.empty_like(zeta), np.empty_like(zeta), np.empty(q.shape + (1,))
    buffers = (kick_hat, product[..., 0], product)
    d_zeta_rows, kick_rows = d_zeta.reshape(-1, k), kick_hat.reshape(-1, k)
    for dW in bundle.increments[: state.step]:
        propagator.step_hat(zeta, dW, q, out=zeta, work=buffers)
    d, basis = stepper.coupled.d, propagator.basis

    def kick(state: State) -> np.ndarray:
        d_zeta_n = np.multiply(d, zeta, out=d_zeta)
        propagator.step_hat(zeta, bundle.increments[state.step], q, out=zeta, work=buffers)
        np.subtract(zeta, d_zeta_n, out=d_zeta)
        linops.from_eigen(basis, d_zeta_rows, out=kick_rows)
        return kick_hat

    result = integrate(cfg, stepper, state, kick)
    result.z_rho_final = irfft_h(stepper.grid, linops.from_eigen(propagator.basis, zeta)[..., -1])
    return result


def run_direct_em(
    cfg: RunConfig,
    spec: NoiseSpec | None = None,
    bundle: PathBundle | None = None,
    initial: State | None = None,
) -> RunResult:
    """Semi-implicit Euler-Maruyama on the unsplit system.

    Explicit nonlinearities, implicit coupled solve, and the kick q dW:
    the noise increment on the surface row of the spectral solution.
    Serves as the brute-force oracle for the split driver on a shared
    path.  Increments are indexed by the absolute step, so a run resumed
    from a snapshot state whose step is set reproduces the uninterrupted
    run bit for bit.  spec and bundle are as for `run_split_stochastic`.
    """
    stepper, state, bundle, q = _stochastic_setup(cfg, spec, bundle, initial)
    kick_hat = np.zeros((q.shape[0], 2, q.shape[2], stepper.grid.nlev))
    surface, increments = kick_hat[..., -1], bundle.increments

    def kick(state: State) -> np.ndarray:
        np.multiply(q, increments[state.step], out=surface)
        return kick_hat

    return integrate(cfg, stepper, state, kick)
