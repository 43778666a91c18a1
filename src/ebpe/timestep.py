"""Time integration of the coupled system: the step kernel and the driver loop.

One step of the contract scheme (first-order IMEX Euler), `Stepper.step`:

1. explicit tendencies (advection, baroclinic forcing, radiation) at t_n,
   every quadratic product dealiased;
2. implicit vertical/horizontal diffusion solves: per-mode Neumann solve
   for the velocity, per-mode coupled solve for (T, rho) so the trace
   condition holds exactly;
3. pressure projection restoring div_H vbar = 0, which also recovers the
   surface pressure.

The state is physical between steps; inside a step everything is done on
half spectra (`ebpe.grid.rfft_h`) with three batched transforms: the
state forward, the quadratic products (plus radiation) forward, and the
new (v, T, p_s) back.  The first, with the derivatives and w that the
products read (real products on the grid), is `monitors.state_terms`,
which the driver loop computes once per state for both the ledger and
the step, so a step of a driver costs two transforms and its ledger
record none.  The transforms are dense DFT
matrix products on BLAS with the grid's tables (`grid.dft_y`, `dft_x`
and their inverses), so no step calls numpy's FFT; they are
deterministic and independent of the memory layout of their operands,
so the step stays a pure function of the physical state.  An optional
forcing (the manufactured-solution runs) comes as a half spectrum in
the `pack_fields` layout and is added to the dealiased tendencies, so
it costs no transform.  The kernel differentiates with the grid's
tables (`ebpe.grid`).  `nonlinear_tendencies` is the
physical-space form of step 1 on the full-spectrum transforms and
`grid.deriv_x`/`deriv_y`; no driver calls it, the tests use it as the
reference for the spectral tendencies and the benchmark traces it.

A Crank-Nicolson / Adams-Bashforth-2 variant sits behind scheme="cnab2";
its first step (and any restart step) falls back to IMEX Euler.

`integrate` is the one driver loop (step count, state terms, ledger,
monitors, diagnostics rows, blow-up handling).  The deterministic driver
here and the stochastic drivers in `ebpe.stochastic` run the same step; a
stochastic step only adds a spectral kick to the coupled (T, rho)
solution before the last inverse transform.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import grid as grid_mod
from . import hydrostatic, linops, monitors
from .config import RunConfig
from .ebm import PhysParams, VERTICAL_AVERAGE, default_insolation, radiation
from .grid import (Grid, dealias, deriv_x, deriv_y, deriv_z, irfft_h, pack_fields, rfft_h,
                   to_physical, to_spectral, unpack_fields, volume_fields)

if TYPE_CHECKING:
    from .stochastic import PathBundle

BLOWUP_SUP = 1e8


class BlowUpError(RuntimeError):
    """Non-finite or runaway state; carries the last valid state."""

    def __init__(self, message: str, last_state: "State"):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class State:
    """Prognostic fields at one time level.

    v has shape (2, Nx, Ny, Nz+1); T has shape (Nx, Ny, Nz+1) and carries
    rho as its surface level; rho has shape (Nx, Ny).  p_s is the
    diagnosed mean-zero surface pressure of the preceding step.
    """

    v: np.ndarray
    T: np.ndarray
    rho: np.ndarray
    t: float = 0.0
    step: int = 0
    p_s: np.ndarray | None = None

    def copy(self) -> "State":
        return State(
            v=self.v.copy(), T=self.T.copy(), rho=self.rho.copy(),
            t=self.t, step=self.step,
            p_s=None if self.p_s is None else self.p_s.copy(),
        )


def grid_from_config(cfg: RunConfig) -> Grid:
    return grid_mod.make_grid(cfg.nx, cfg.ny, cfg.nz)


def params_from_config(grid: Grid, cfg: RunConfig) -> PhysParams:
    return PhysParams(
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        rho_ref=cfg.rho_ref,
        Q=default_insolation(grid, cfg.q0, cfg.q1),
        transport_variant=cfg.transport,
        radiation_on=cfg.radiation_on,
    )


def _smooth_random_2d(grid: Grid, rng: np.random.Generator, decay: float) -> np.ndarray:
    """Real random field with power-law spectral decay, dealias-confined."""
    c = rng.standard_normal((grid.nx, grid.ny)) + 1j * rng.standard_normal((grid.nx, grid.ny))
    k2 = (grid.kx.astype(float) ** 2)[:, None] + (grid.ky.astype(float) ** 2)[None, :]
    c *= (1.0 + k2) ** (-decay / 2.0)
    c = np.where(grid.dealias_mask, c, 0.0)
    return np.fft.ifft2(c).real * (grid.nx * grid.ny)


def initial_state(
    grid: Grid,
    kind: str = "zero",
    amplitude: float = 0.5,
    seed: int = 0,
    decay: float = 3.0,
    value: float = 0.0,
) -> State:
    """Built-in initial conditions.

    random_smooth draws low-mode fields with (1+|k|^2)^(-decay/2) spectra
    and vertical profiles cos(m pi z), m <= 2, so the no-flux and trace
    compatibility conditions hold by construction; the velocity is
    projected.  Fields are rescaled so the sup norms equal `amplitude`.
    """
    v = grid.zeros_velocity()
    T = grid.zeros3d()
    if kind == "zero":
        pass
    elif kind == "uniform":
        T += value
    elif kind == "single_mode":
        T = amplitude * np.cos(2 * np.pi * grid.x)[:, :, None] * np.cos(np.pi * grid.z)
    elif kind == "random_smooth":
        rng = np.random.default_rng(seed)
        profiles = [np.cos(m * np.pi * grid.z) for m in range(3)]
        for p in profiles:
            T += _smooth_random_2d(grid, rng, decay)[:, :, None] * p
        for comp in range(2):
            for p in profiles:
                v[comp] += _smooth_random_2d(grid, rng, decay)[:, :, None] * p
        v_hat = np.stack([rfft_h(grid, comp) for comp in v])
        v_hat, _ = hydrostatic.project_barotropic(grid, v_hat)
        v = np.stack([irfft_h(grid, comp) for comp in v_hat])
        sup_T = np.max(np.abs(T))
        if sup_T > 0 and amplitude > 0:
            T *= amplitude / sup_T
        else:
            T[:] = 0.0
        sup_v = np.max(np.abs(v))
        if sup_v > 0 and amplitude > 0:
            v *= amplitude / sup_v
        else:
            v[:] = 0.0
    else:
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    rho = T[..., -1].copy()
    return State(v=v, T=T, rho=rho, p_s=grid.zeros2d())


def initial_state_from_config(grid: Grid, cfg: RunConfig) -> State:
    return initial_state(
        grid, kind=cfg.ic_kind, amplitude=cfg.ic_amplitude,
        seed=cfg.ic_seed, decay=cfg.ic_decay, value=cfg.ic_value,
    )


def _dealias_product(grid: Grid, f: np.ndarray) -> np.ndarray:
    return to_physical(grid, dealias(grid, to_spectral(grid, f)))


def nonlinear_tendencies(
    grid: Grid, state: State, params: PhysParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit tendencies (F_v, F_T, F_rho) in physical space, on the
    full-spectrum transforms: the reference form of `Stepper.tendencies`
    (the tests compare the two); no driver calls it.

    F_v: advection plus the baroclinic gradient of the running temperature
    integral.  F_T: advection by u = (v, w).  F_rho: boundary transport by
    the surface trace of v (or its vertical average) plus the radiation
    budget.  Advective products are dealiased; the quartic emission term
    is evaluated pointwise without padding.
    """
    v, T, rho = state.v, state.T, state.rho
    v_hat0 = to_spectral(grid, v[0])
    v_hat1 = to_spectral(grid, v[1])
    w = to_physical(grid, -hydrostatic.cumulative_integral(
        grid, deriv_x(grid, v_hat0) + deriv_y(grid, v_hat1)))

    dxv = (to_physical(grid, deriv_x(grid, v_hat0)), to_physical(grid, deriv_x(grid, v_hat1)))
    dyv = (to_physical(grid, deriv_y(grid, v_hat0)), to_physical(grid, deriv_y(grid, v_hat1)))
    dzv = (deriv_z(grid, v[0]), deriv_z(grid, v[1]))

    c = hydrostatic.cumulative_integral(grid, to_spectral(grid, T))
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
        vs = hydrostatic.vertical_average(grid, v)
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


def _check_finite(state: State, previous: State) -> None:
    """One max-norm per field: a NaN or inf fails the threshold test, and
    the finiteness of that one number tells it from a runaway."""
    for name, f in (("v", state.v), ("T", state.T), ("rho", state.rho)):
        sup = np.abs(f).max()
        if sup <= BLOWUP_SUP:
            continue
        if not np.isfinite(sup):
            raise BlowUpError(
                f"non-finite values in {name} at t={state.t:.6g} (step {state.step})",
                last_state=previous,
            )
        raise BlowUpError(
            f"sup|{name}| = {sup:.3e} exceeds the blow-up threshold "
            f"at t={state.t:.6g} (step {state.step})",
            last_state=previous,
        )


class Stepper:
    """Time integrator holding the cached per-mode implicit solvers.

    forcing, when given, is a callable (grid, t) -> half spectrum
    (Nx, Ny//2+1, 3(Nz+1)+1) in the `pack_fields` layout, added to the
    dealiased explicit tendencies at each step's start time t; the
    manufactured-solution runs pass `ManufacturedSolution.spectral_forcing
    (grid)`.  It is first called by the first step, never here; a return
    value of any other shape raises ValueError there.
    freeze_velocity pins v to its initial value (pure-diffusion studies).

    The radiation term is explicit; its emission part is dissipative but
    limits the stable step to roughly dt <= 0.5 / max(1, sup|rho|^3).
    Diffusion is unconditionally stable (implicit).
    """

    def __init__(
        self,
        grid: Grid,
        params: PhysParams,
        dt: float,
        scheme: str = "imex_euler",
        forcing=None,
        freeze_velocity: bool = False,
    ):
        if scheme not in ("imex_euler", "cnab2"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.params = params
        self.dt = dt
        self.scheme = scheme
        self.forcing = forcing
        self.freeze_velocity = freeze_velocity
        self.coupled = linops.CoupledImplicitSolver(grid, dt)
        self.velocity = linops.VelocityImplicitSolver(grid, dt)
        if scheme == "cnab2":
            self.coupled_half = linops.CoupledImplicitSolver(grid, 0.5 * dt)
            self.velocity_half = linops.VelocityImplicitSolver(grid, 0.5 * dt)
        self._history: tuple[int, np.ndarray] | None = None

    def tendencies(self, state: State, terms: monitors.StateTerms | None = None) -> np.ndarray:
        """Dealiased explicit tendencies at `state` as half spectra, in the
        `pack_fields` layout (F_v, F_T, F_rho), forcing included.

        terms, when given, is monitors.state_terms(grid, state), which
        holds every derivative and w on the grid.  One batched transform:
        the quadratic products and radiation forward.  The forcing is
        already a half spectrum.
        """
        grid, params = self.grid, self.params
        n = grid.nlev
        if terms is None:
            terms = monitors.state_terms(grid, state)
        _, T_hat, _ = unpack_fields(grid, terms.U)
        k = terms.U.shape[-1]
        v, rho = state.v, state.rho
        # the products in the pack_fields layout, then the radiation plane,
        # written into one array for one transform
        planes = np.empty((grid.nx, grid.ny, k + 1 if params.radiation_on else k))
        # advection of v[0], v[1] and T at once, shaped like terms.dz
        adv = volume_fields(grid, planes)
        np.multiply(v[0][:, :, None], volume_fields(grid, terms.dx), out=adv)
        adv += v[1][:, :, None] * volume_fields(grid, terms.dy)
        adv += terms.w[:, :, None] * terms.dz
        if params.transport_variant == VERTICAL_AVERAGE:
            vs = hydrostatic.vertical_average(grid, v)
        else:
            vs = v[:, :, :, -1]
        adv_rho = planes[..., 3 * n]
        np.multiply(vs[0], terms.dx[..., 3 * n], out=adv_rho)
        adv_rho += vs[1] * terms.dy[..., 3 * n]
        if params.radiation_on:
            planes[..., k] = radiation(rho, params)
        products = rfft_h(grid, planes)

        # radiation and forcing are added undealiased
        F = -np.where(grid.dealias_half[..., None], products[..., :k], 0.0)
        F_v, _, _ = unpack_fields(grid, F)
        F_v += hydrostatic.baroclinic_grad(grid, T_hat)
        if params.radiation_on:
            F[..., 3 * n] += products[..., k]
        if self.forcing is not None:
            forcing_hat = self.forcing(grid, state.t)
            shape = getattr(forcing_hat, "shape", None)
            if shape != F.shape:
                raise ValueError(
                    f"forcing returned {type(forcing_hat).__name__} of shape {shape}; "
                    f"the Stepper takes a spectral_forcing half spectrum of shape {F.shape}")
            F += forcing_hat
        return F

    def step(
        self,
        state: State,
        kick_hat: np.ndarray | None = None,
        terms: monitors.StateTerms | None = None,
    ) -> State:
        """Advance `state` by one step.

        kick_hat, a half-spectrum coupled stack (Nx, Ny//2+1, Nz+1), is
        added to the spectral coupled solution before the inverse
        transform: the noise increment of the stochastic drivers (IMEX
        Euler only).  terms, when given, is monitors.state_terms(grid,
        state), shared with the ledger: the state's half spectra and its
        derivatives and w on the grid, so the step itself makes two
        transforms, the products forward and the new state back.
        Otherwise the step computes it.

        The step is a pure function of the physical state (and, for
        cnab2, the previous step's tendencies): nothing spectral is kept
        from one step to the next.  Given terms change no bit of the
        result; they must not come from this step's output spectra, which
        differ from the transform of the physical result by roundoff.
        """
        grid, dt = self.grid, self.dt
        if terms is None:
            terms = monitors.state_terms(grid, state)
        U = terms.U
        F = self.tendencies(state, terms)
        F_old = None
        if self.scheme == "cnab2":
            if kick_hat is not None:
                raise ValueError("scheme cnab2 takes no kick_hat")
            # without usable history (first step or restart) this is an Euler step
            if self._history is not None and self._history[0] == state.step:
                F_old = self._history[1]
            self._history = (state.step + 1, F)

        if F_old is None:
            rhs_v, rhs_T, rhs_rho = unpack_fields(grid, U + dt * F)
            x_hat = self.coupled.solve_hat(linops.stack_fields_hat(grid, rhs_T, rhs_rho))
        else:
            v_hat, T_hat, rho_hat = unpack_fields(grid, U)
            ab_v, ab_T, ab_rho = unpack_fields(grid, dt * _ab2(F, F_old))
            stack = linops.stack_fields_hat(grid, T_hat, rho_hat)
            x_hat = self.coupled_half.solve_hat(
                stack + 0.5 * dt * self.coupled.apply_generator_hat(stack)
                + linops.stack_fields_hat(grid, ab_T, ab_rho))
        if kick_hat is not None:
            x_hat += kick_hat

        if self.freeze_velocity:
            v_new, T_new, p_s = state.v, irfft_h(grid, x_hat), state.p_s
        else:
            if F_old is None:
                v_star = self.velocity.solve_hat(rhs_v)
            else:
                v_star = self.velocity_half.solve_hat(
                    v_hat + 0.5 * dt * self.velocity.apply_generator_hat(v_hat) + ab_v)
            v_new_hat, phi_hat = hydrostatic.project_barotropic(grid, v_star)
            v_new, T_new, p_s = unpack_fields(
                grid, irfft_h(grid, pack_fields(v_new_hat, x_hat, phi_hat / dt)))
        # contiguous copies: a resumed run starts from contiguous snapshot
        # arrays, and the next step must not depend on the memory layout
        T_new = np.ascontiguousarray(T_new)
        new = State(v=np.ascontiguousarray(v_new), T=T_new, rho=T_new[..., -1].copy(),
                    t=state.t + dt, step=state.step + 1,
                    p_s=None if p_s is None else np.ascontiguousarray(p_s))
        _check_finite(new, state)
        return new


def _ab2(cur: np.ndarray, old: np.ndarray) -> np.ndarray:
    return 1.5 * cur - 0.5 * old


@dataclass
class RunResult:
    """Outcome of one driver run.

    final_state is the last measured state.  The split driver also
    returns the surface channel of the noise convolution; both stochastic
    drivers return the increment bundle they used.
    """

    final_state: State
    ledger: monitors.Ledger
    csv_records: list[tuple[int, monitors.LedgerRecord, int]]
    monitor_failure: str | None = None
    warnings: list[str] = field(default_factory=list)
    z_rho_final: np.ndarray | None = None
    bundle: PathBundle | None = None


def integrate(
    cfg: RunConfig,
    grid: Grid,
    params: PhysParams,
    state: State,
    advance: Callable[[State, monitors.StateTerms], State],
) -> RunResult:
    """The driver loop: advance `state` to step cfg.n_steps().

    advance(state, terms) maps the last measured state to the next one;
    terms is monitors.state_terms(grid, state), computed once per state
    for both the ledger and the step.  Every state is measured into the
    ledger; diagnostics rows are emitted at the configured cadence, on
    any monitor flag, and for the initial state of a fresh run (step 0).
    When monitors are enabled the run halts on the first hard monitor
    failure; the maximum-principle monitor is warn-only under
    vertical-average transport, where its constant is not established.
    A BlowUpError carries the last measured state.
    """
    ledger = monitors.Ledger()
    csv_records: list[tuple[int, monitors.LedgerRecord, int]] = []
    warnings: list[str] = []
    terms = monitors.state_terms(grid, state)
    record = monitors.measure(grid, state, terms)
    ledger.append(record)
    if state.step == 0:
        csv_records.append((0, record, 0))

    T0_bounds = (record.sup_T, record.sup_rho)
    mp_warn_only = params.transport_variant == VERTICAL_AVERAGE
    monitor_failure = None

    for _ in range(max(0, cfg.n_steps() - state.step)):
        try:
            new = advance(state, terms)
        except BlowUpError as exc:
            exc.last_state = state
            raise
        state = new
        terms = monitors.state_terms(grid, state)
        prev_record, record = record, monitors.measure(grid, state, terms)
        ledger.append(record)
        flags = 0
        if cfg.monitors_on:
            mp = monitors.max_principle_check(state, params, T0_bounds, cfg.dt, record)
            if not mp.ok:
                flags |= monitors.FLAG_MAX_PRINCIPLE
                msg = (f"maximum principle violated at step {state.step}: "
                       f"sup={mp.value:.6e} > {mp.bound:.6e}+{mp.tolerance:.2e}")
                if mp_warn_only:
                    warnings.append(msg)
                else:
                    monitor_failure = msg
            for flag, msg in (
                (monitors.FLAG_ENERGY, monitors.energy_step_check(
                    prev_record, record, state.step, cfg.dt, cfg.c_led)),
                (monitors.FLAG_H1, monitors.h1_step_check(
                    ledger[0], record, state.step, cfg.h1_growth_rate, cfg.h1_margin)),
            ):
                if msg is not None:
                    flags |= flag
                    monitor_failure = msg
        if flags or state.step % cfg.cadence == 0:
            csv_records.append((state.step, record, flags))
        if monitor_failure is not None:
            break

    return RunResult(
        final_state=state, ledger=ledger, csv_records=csv_records,
        monitor_failure=monitor_failure, warnings=warnings,
    )


def run_deterministic(
    cfg: RunConfig,
    initial: State | None = None,
    forcing=None,
) -> RunResult:
    """Integrate to t_end with the configured scheme (see `integrate`).

    forcing, when given, is the `Stepper` forcing: a callable (grid, t) ->
    half spectrum in the `pack_fields` layout, such as
    `ManufacturedSolution.spectral_forcing(grid)`.

    A run resumed from a snapshot state whose step is set continues the
    step count and reproduces the uninterrupted run bit for bit
    (IMEX Euler).  A config with boundary noise is rejected: the noise
    drivers are in `ebpe.stochastic`.
    """
    if cfg.noise_sigma > 0.0:
        raise ValueError(
            f"the deterministic driver takes no boundary noise (noise sigma = "
            f"{cfg.noise_sigma}); use run-stoch or run-direct-em"
        )
    grid = grid_from_config(cfg)
    params = params_from_config(grid, cfg)
    stepper = Stepper(
        grid, params, cfg.dt, scheme=cfg.scheme,
        forcing=forcing, freeze_velocity=cfg.freeze_velocity,
    )
    state = initial_state_from_config(grid, cfg) if initial is None else initial
    return integrate(cfg, grid, params, state,
                     lambda state, terms: stepper.step(state, terms=terms))
