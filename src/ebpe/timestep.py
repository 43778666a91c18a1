"""Time integration of the coupled system: the step kernel and the driver loop.

One step of the contract scheme (first-order IMEX Euler), `Stepper.step`:

1. explicit tendencies (advection, baroclinic forcing, radiation) at t_n,
   every quadratic product dealiased: its transform computes only the
   modes the 2/3 rule keeps;
2. implicit vertical/horizontal diffusion solves, one stacked stage:
   per-mode Neumann solve for the velocity, per-mode coupled solve for
   (T, rho) so the trace condition holds exactly;
3. pressure projection restoring div_H vbar = 0; the surface pressure,
   the multiplier of that constraint, is not part of the state.

The state is physical between steps, one field-major array
`State.fields` (3, Nx, Ny, Nz+1) of v[0], v[1] and T (rho is T's top
level), and every array of the kernel has that layout.  Inside a step
everything is done on half spectra, held as real pair spectra
(3, Nx, 2, Ny//2+1, Nz+1) (`ebpe.grid.rfft_h`), with three batched
transforms: the state forward, the quadratic products forward
over the 2/3-rule modes only (`grid.neg_dealiased_rfft_h`, which also
gives them the tendencies' minus sign), and the new (v, T) back, into
the new state's own storage; the radiation plane takes a 2-D transform
of its own.  The first, with the derivatives and w that the products
read (real products on the grid), is `monitors.state_terms`, which the
driver loop computes once per state for both the ledger and the step.
w, like the baroclinic term of the tendencies, is one product with the
grid's running-trapezoid matrix.
The transforms are dense DFT matrix products on BLAS with the grid's
tables, so no step calls numpy's FFT; they are deterministic and
independent of the memory layout of their operands, so the step stays
a pure function of the physical state.  Step 1 is `nonlinear_tendencies`
plus an optional pair-spectrum forcing (`Stepper`); its physical-space
reference lives only with the tests (`tests/oracles.py`).

A Crank-Nicolson / Adams-Bashforth-2 variant sits behind scheme="cnab2".
Both schemes are one theta-method stage through the same two per-mode
solvers R = (I - theta dt A)^-1, stacked (velocity, velocity, coupled)
so that one `linops.apply_diagonal` solves all three fields into a
buffer of the Stepper: IMEX Euler is theta = 1, x = R(U + dt F); CNAB2
is theta = 1/2, x = R(2U + dt E) - U, because R(I + dt/2 A) = 2R - I,
so no step applies the generator A.  E is the AB2 extrapolation
1.5 F - 0.5 F_old, F_old the tendencies of the step that returned the
state, or F itself when the stepper's last step returned another (the
first step, a restart, another trajectory: one Crank-Nicolson step
with forward-Euler tendencies).

The kernel runs in one record that each `Stepper` builds at its first
use, its `Workspace`: the buffers of the state terms, the tendencies
and the implicit stage, two scratch arrays that every other
intermediate shares (`Workspace` lays them out), and the views a step
takes of them.  Every entry point of the kernel takes it, or the
`grid.Passes` it holds, as `work`, and without it lets numpy allocate,
in the same code; out= is left only where the destination changes from
call to call (the new state's fields, an in-place projection or solve).
So a step of a state, its terms and its ledger record allocate no
volume or spectrum but the new state's fields (only planes and
reductions, such as the radiation term and the norms).  The contract:
what `Stepper.state_terms` and `Stepper.tendencies` return lives in the
workspace and is valid until that stepper's next call; no `State`
shares memory with the workspace, so a state, once returned, is its
caller's; and two steppers, of one grid or not, share nothing, so
stepped alternately each gives the bits it gives alone.  The cnab2
stage keeps the last tendencies in one of two buffers and writes the
next ones into the other.

`start_run` checks the config by its rules (`config.validate_config`),
a config built in code too, and a given initial state against it, and
only then builds the run's grid, parameters, `Stepper` and first state.
`integrate` is the one driver loop (step count, state terms, ledger,
monitors, diagnostics rows, blow-up handling) over that Stepper.  The
deterministic driver here and the stochastic drivers in `ebpe.stochastic`
run the same step; a stochastic driver only hands `integrate` a kick, a
pair-spectrum increment added to the coupled (T, rho) solution before
the last inverse transform.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import grid as grid_mod
from . import hydrostatic, linops, monitors
from .config import SCHEMES, RunConfig, validate_config
from .ebm import PhysParams, VERTICAL_AVERAGE, default_insolation, radiation
from .grid import Grid, carve, irfft_h, neg_dealiased_rfft_h, rfft_h

BLOWUP_SUP = 1e8


class BlowUpError(RuntimeError):
    """Non-finite or runaway state; carries the last valid state."""

    def __init__(self, message: str, last_state: "State"):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class State:
    """Prognostic fields at one time level.

    fields is one C-contiguous array (3, Nx, Ny, Nz+1): the velocity
    components v[0], v[1], then T, which carries the surface temperature
    rho as its top level.  v, T and rho are views of it, never copies.
    `State.pack` builds a state from separate v and T.
    """

    fields: np.ndarray
    t: float = 0.0
    step: int = 0

    def __post_init__(self) -> None:
        # a no-op for the step's own output; the step does not depend on
        # the memory layout its caller built a state in
        self.fields = np.ascontiguousarray(self.fields, dtype=np.float64)

    @classmethod
    def pack(cls, v: np.ndarray, T: np.ndarray, **kwargs) -> "State":
        """A state from v (2, Nx, Ny, Nz+1) and T (Nx, Ny, Nz+1), copied
        once into its storage."""
        return cls(np.concatenate((v, T[None])), **kwargs)

    @property
    def v(self) -> np.ndarray:
        """The velocity (2, Nx, Ny, Nz+1): the view fields[:2]."""
        return self.fields[:2]

    @property
    def T(self) -> np.ndarray:
        """The temperature (Nx, Ny, Nz+1): the view fields[2]."""
        return self.fields[2]

    @property
    def rho(self) -> np.ndarray:
        """The surface temperature: the view T[..., -1], not a copy."""
        return self.fields[2, ..., -1]


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
    Its nine horizontal planes, three profiles each of T, v[0] and v[1],
    are drawn, filtered and transformed in one batch; the draw is the
    stream of one plane at a time (real part, then imaginary part), and
    the batched inverse FFT gives each plane's bits.
    """
    fields = np.zeros((3, grid.nx, grid.ny, grid.nlev))
    v, T = fields[:2], fields[2]  # the state's views, written in place
    if kind == "zero":
        pass
    elif kind == "uniform":
        T += value
    elif kind == "single_mode":
        T[...] = amplitude * np.cos(2 * np.pi * grid.x)[:, :, None] * np.cos(np.pi * grid.z)
    elif kind == "random_smooth":
        z = np.random.default_rng(seed).standard_normal((9, 2, grid.nx, grid.ny))
        c = z[:, 0] + 1j * z[:, 1]
        k2 = (grid.kx.astype(float) ** 2)[:, None] + (grid.ky.astype(float) ** 2)[None, :]
        c *= (1.0 + k2) ** (-decay / 2.0)
        c = np.where(grid.dealias_mask, c, 0.0)
        planes = np.fft.ifft2(c).real * (grid.nx * grid.ny)
        profiles = np.array([np.cos(m * np.pi * grid.z) for m in range(3)])
        # the nine plane-profile products at once, the fields of the
        # planes (T, v[0], v[1]) put in the state's order and summed
        # profile by profile: each field's additions, bit for bit
        products = planes.reshape(3, 3, grid.nx, grid.ny, 1) * profiles[:, None, None, :]
        for m in range(3):
            fields += products[[1, 2, 0], m]
        v_hat = rfft_h(grid, v)
        irfft_h(grid, hydrostatic.project_barotropic(grid, v_hat, out=v_hat)[0], out=v)
        for f in (T, v):
            sup = np.max(np.abs(f))
            f[...] = f * (amplitude / sup) if sup > 0 and amplitude > 0 else 0.0
    else:
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    return State(fields)


def _page_aligned(*shape: int) -> np.ndarray:
    """A new array of `shape` on a 4 KiB page boundary.  A workspace's arrays
    all start at page offset 0, so no product writes just past the offset it
    reads (4K aliasing, which cost the 16^3 step about 8% in some layouts)."""
    n = math.prod(shape)
    raw = np.empty(n + 512)  # one page more
    start = -raw.ctypes.data % 4096 // 8
    return raw[start : start + n].reshape(shape)


class Workspace:
    """The buffers of one `Stepper`'s kernel on its grid and the views of
    them that a step takes, built once, by the stepper's first use
    (`Stepper.workspace`), and handed as `work` to the kernel's entry
    points.

    Own arrays hold what outlives a phase: the state `terms`, which the
    ledger and the step read; the tendencies, the `grid.passes` of the
    dealiased products into them (`tendencies`, two with `history`:
    cnab2 keeps the last ones and writes the next into the other); the
    implicit stage's solution of its `solved` fields (`out`); and the
    projection's planes (`vbar`, `vbar_parts`).  Every other intermediate
    lies in `scratch`, two arrays of the pair spectra's size, which phases
    that do not overlap share, so a step touches no more memory than
    these.  Every buffer starts on a page (`_page_aligned`).  By phase, the
    first and the second scratch array hold:

    - the state terms: nothing; the transform's y pass (`forward`);
    - the ledger: the squared spectra, then |T| (`squares`, `abs_T`); the
      squared d/dz (`dz_squares`);
    - the tendencies: the advection, the baroclinic term, then the
      radiation spectrum (`adv`, `baroclinic`, `radiation`); the products,
      the transporting velocity, the dealiased x pass, the temperature
      integral and its copy with the re/im axis reversed, then the
      radiation y pass (`product`, `product_rho`, `velocity`, `integral`,
      `swapped`);
    - the stage: the eigen coordinates, then the inverse transform's x
      pass (`coords`, `inverse`); the right-hand side (`rhs`).
    """

    def __init__(self, grid: Grid, solved: int, history: bool):
        nx, ny, half, k = grid.nx, grid.ny, grid.ny // 2 + 1, grid.nlev
        pair, fields = (3, nx, 2, half, k), (3, nx, ny, k)
        self.scratch = first, second = _page_aligned(*pair), _page_aligned(*pair)
        self.terms = monitors.StateTerms(
            U=_page_aligned(*pair), dx=_page_aligned(*fields), dy=_page_aligned(*fields),
            w=_page_aligned(*fields[1:]), dz=_page_aligned(*fields), div=_page_aligned(nx, ny, k))
        self.forward = grid_mod.passes(grid, fields, "forward", second, out=self.terms.U)
        self.squares, self.abs_T = carve(first, *pair), carve(first, nx, ny, k)
        self.dz_squares = carve(second, *fields)
        self.tendencies = [grid_mod.passes(grid, fields, "dealiased", second,
                                           out=_page_aligned(*pair)) for _ in range(1 + history)]
        self.adv, self.product = carve(first, *fields), carve(second, *fields)
        # the transporting velocity of rho, and a product at its level
        self.velocity, self.product_rho = carve(second, 2, nx, ny), carve(second, 3, nx, ny)[2]
        self.baroclinic = carve(first, 2, *pair[1:])
        self.integral, self.swapped = carve(second, 2, *pair[1:])
        self.radiation = grid_mod.passes(grid, (nx, ny), "forward", second,
                                         out=carve(first, nx, 2, half))
        self.out = _page_aligned(solved, *pair[1:])
        self.coords, self.rhs = carve(first, *self.out.shape), carve(second, *self.out.shape)
        self.vbar, self.vbar_parts = _page_aligned(2, 2, nx, 2, half)
        self.inverse = grid_mod.passes(grid, self.out.shape, "inverse", first)


def nonlinear_tendencies(grid: Grid, state: State, params: PhysParams,
                         terms: monitors.StateTerms | None = None,
                         work: Workspace | None = None) -> np.ndarray:
    """Dealiased explicit tendencies at `state` as pair spectra
    (3, Nx, 2, Ny//2+1, Nz+1) in the state's layout (F_v[0], F_v[1], F_T);
    the top level of F_T, rho's, is the surface tendency.

    F_v: advection plus the baroclinic gradient of the running temperature
    integral.  F_T: advection by u = (v, w).  F_rho: boundary transport by
    the surface trace of v (or its vertical average) plus the radiation
    budget.  Advective products are dealiased; the radiation term is
    evaluated pointwise and transformed without dealiasing.

    terms, when given, is monitors.state_terms(grid, state).  work, when
    given, is a stepper's `Workspace`, which holds the intermediates, and
    the tendencies go into its first tendencies buffer.
    """
    if terms is None:
        terms = monitors.state_terms(grid, state)
    f = state.fields
    v = f[:2]
    # advection of v[0], v[1] and T at once, in the state's layout
    adv = np.multiply(f[0], terms.dx, out=None if work is None else work.adv)
    product = np.multiply(f[1], terms.dy, out=None if work is None else work.product)
    adv += product
    adv += np.multiply(terms.w, terms.dz, out=product)
    # at T's top level, rho, its transport replaces T's advection
    if params.transport_variant == VERTICAL_AVERAGE:
        vs = hydrostatic.vertical_average(grid, v, out=None if work is None else work.velocity)
    else:
        vs = v[..., -1]
    adv_rho = np.multiply(vs[0], terms.dx[2, ..., -1], out=adv[2, ..., -1])
    adv_rho += np.multiply(vs[1], terms.dy[2, ..., -1],
                           out=None if work is None else work.product_rho)

    F = neg_dealiased_rfft_h(grid, adv, work=None if work is None else work.tendencies[0])
    F[:2] += hydrostatic.baroclinic_grad(grid, terms.U[2], work=work)
    if params.radiation_on:
        F[2, ..., -1] += rfft_h(grid, radiation(f[2, ..., -1], params),
                                work=None if work is None else work.radiation)
    return F


def _check_finite(state: State, previous: State) -> None:
    """One dot product of all fields with themselves: a sum below
    BLOWUP_SUP^2 proves every |f| < BLOWUP_SUP (a rounded sum of squares is
    no less than its largest term).  Only a sum that fails (large,
    overflowing or not finite) falls back to one max-norm per field (rho's
    is T's), which passes a field within the threshold and tells by its
    finiteness what fails."""
    fields = state.fields.reshape(-1)
    if np.dot(fields, fields) < BLOWUP_SUP ** 2:
        return
    for name, f in (("v", state.v), ("T", state.T)):
        sup = np.abs(f).max()
        if sup <= BLOWUP_SUP:
            continue
        what = (f"sup|{name}| = {sup:.3e} exceeds the blow-up threshold" if np.isfinite(sup)
                else f"non-finite values in {name}")
        raise BlowUpError(f"{what} at t={state.t:.6g} (step {state.step})", last_state=previous)


class Stepper:
    """Time integrator holding the cached per-mode implicit solvers: one
    coupled and one velocity solver at theta * dt, theta = 1 for
    imex_euler and 1/2 for cnab2 (see the module docstring).

    forcing, when given, is a callable (grid, t) -> pair spectrum
    (3, Nx, 2, Ny//2+1, Nz+1) in the state's layout, added to the
    dealiased explicit tendencies at each step's start time t; the
    manufactured-solution runs pass `ManufacturedSolution.spectral_forcing
    (grid)`.  It is first called by the first step, never here; a return
    value of any other shape raises ValueError there.
    freeze_velocity pins v to its initial value (pure-diffusion studies)
    and builds no velocity solver: `velocity` is None.

    The kernel runs in the stepper's own `Workspace` (module docstring),
    built by its first use, so set-up pays for none that a run without
    steps does not take.  What `state_terms` and `tendencies` return is
    valid until the stepper's next call; a State never shares memory with
    the workspace.  cnab2 keeps its last tendencies with the State they
    precede, and applies them to that State alone (`is`).

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
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.params = params
        self.dt = dt
        self.scheme = scheme
        self.forcing = forcing
        theta_dt = (0.5 if scheme == "cnab2" else 1.0) * dt
        # the implicit stage's factor tables, one per solved field (v[0], v[1],
        # T; T alone if v is frozen): each solver writes its d into its row
        self._d = np.empty((1 if freeze_velocity else 3, grid.nx, 2, grid.ny // 2 + 1, grid.nlev))
        self.coupled = linops.CoupledImplicitSolver(grid, theta_dt, out=self._d[-1])
        self.velocity = None
        if not freeze_velocity:
            self.velocity = linops.VelocityImplicitSolver(grid, theta_dt, out=self._d[0])
            self._d[1] = self._d[0]
        # and the bases (np.array copies them as np.stack would, in half its
        # time at 16^3)
        solvers = (self.coupled,) if freeze_velocity else (self.velocity,) * 2 + (self.coupled,)
        self._basis = np.array([[s.basis[i] for s in solvers] for i in (0, 1)])
        self._history: tuple[State, np.ndarray] | None = None

    @cached_property
    def workspace(self) -> Workspace:
        """The stepper's `Workspace`, built by its first use."""
        return Workspace(self.grid, len(self._d), self.scheme == "cnab2")

    def state_terms(self, state: State) -> monitors.StateTerms:
        """monitors.state_terms(grid, state) in the workspace: valid until
        this stepper's next call."""
        return monitors.state_terms(self.grid, state, work=self.workspace)

    def tendencies(self, state: State, terms: monitors.StateTerms | None = None) -> np.ndarray:
        """`nonlinear_tendencies(grid, state, params, terms)` plus the
        forcing, if any, which is added undealiased; in the workspace,
        valid until this stepper's next call."""
        grid = self.grid
        if terms is None:
            terms = self.state_terms(state)
        F = nonlinear_tendencies(grid, state, self.params, terms, work=self.workspace)
        if self.forcing is not None:
            forcing_hat = self.forcing(grid, state.t)
            shape = getattr(forcing_hat, "shape", None)
            if shape != F.shape:
                raise ValueError(
                    f"forcing returned {type(forcing_hat).__name__} of shape {shape}; "
                    f"the Stepper takes a spectral_forcing pair spectrum of shape {F.shape}")
            F += forcing_hat
        return F

    def step(
        self,
        state: State,
        kick_hat: np.ndarray | None = None,
        terms: monitors.StateTerms | None = None,
    ) -> State:
        """Advance `state` by one step.

        kick_hat, a pair-spectrum coupled stack (Nx, 2, Ny//2+1, Nz+1), is
        added to the spectral coupled solution before the inverse
        transform: the noise increment of the stochastic drivers (IMEX
        Euler only).  terms, when given, is monitors.state_terms(grid,
        state), shared with the ledger: the state's pair spectra and its
        derivatives and w on the grid, so the step itself makes the
        products forward and the new state back.  Otherwise the step
        computes it, in the workspace (`state_terms`).

        The step is a pure function of the physical state (and, for
        cnab2, the tendencies kept with it): nothing spectral is kept
        from one step to the next.  Given terms change no bit of the
        result; they must not come from this step's output spectra, which
        differ from the transform of the physical result by roundoff.
        The new state's fields are the one array the step allocates: the
        last inverse transform writes them.
        """
        grid, dt = self.grid, self.dt
        cnab2 = self.scheme == "cnab2"
        if cnab2 and kick_hat is not None:
            raise ValueError("scheme cnab2 takes no kick_hat")
        if terms is None:
            terms = self.state_terms(state)
        F = self.tendencies(state, terms)
        # one theta-method stage (module docstring): R(U + dt F) for IMEX
        # Euler, R(2U + dt E) - U for CNAB2, E = F without usable history
        work = self.workspace
        first = 3 - len(self._d)  # the first solved field: 2 (T alone) if v is frozen
        U, rhs = terms.U[first:], work.rhs
        if cnab2 and self._history is not None and self._history[0] is state:
            F_old = self._history[1][first:]  # E = 1.5 F - 0.5 F_old
            np.multiply(F[first:], 1.5, out=rhs)
            rhs -= np.multiply(F_old, 0.5, out=F_old)
            rhs *= dt
        else:
            np.multiply(F[first:], dt, out=rhs)
        if cnab2:
            rhs += np.multiply(U, 2.0, out=work.out)
            work.tendencies.reverse()  # the next step's go into the other buffer
        else:
            rhs += U
        x_hat = linops.apply_diagonal(self._basis, self._d, rhs, out=work.out,
                                      work=work.coords)
        if cnab2:
            x_hat -= U
        if kick_hat is not None:
            x_hat[-1] += kick_hat
        fields = np.empty(state.fields.shape)
        if self.velocity is None:
            fields[:2] = state.v
        else:
            v_hat = x_hat[:2]
            hydrostatic.project_barotropic(grid, v_hat, out=v_hat, work=work)
        irfft_h(grid, x_hat, out=fields[first:], work=work.inverse)
        new = State(fields, t=state.t + dt, step=state.step + 1)
        if cnab2:
            self._history = (new, F)
        _check_finite(new, state)
        return new


@dataclass
class RunResult:
    """Outcome of one driver run.

    final_state is the last measured state.  ledger holds the ledger
    record of every measured state, the first included, in step order;
    csv_records are those that diagnostics.csv writes.  monitor_failure is
    the message of the check that halted the run, and warnings those of
    the warn-only maximum-principle check.  The split driver also returns
    the surface channel of the noise convolution.
    """

    final_state: State
    ledger: list[monitors.LedgerRecord]
    csv_records: list[monitors.LedgerRecord]
    monitor_failure: str | None = None
    warnings: list[str] = field(default_factory=list)
    z_rho_final: np.ndarray | None = None


def start_run(cfg: RunConfig, initial: State | None = None,
              forcing=None) -> tuple[Stepper, State]:
    """The run's Stepper (with `forcing`, see `Stepper`) and first state,
    `initial` or the configured initial condition.  A config that
    `validate_config` rejects raises ConfigError, and a given state of
    another grid, before step 0 or past the run's last step, or whose t
    is not its step times dt (to 1e-9 max(1, |t|): a run's t sums its
    steps), ValueError, before anything is built."""
    validate_config(cfg)
    if initial is not None:
        shape = (3, cfg.nx, cfg.ny, cfg.nz + 1)
        if initial.fields.shape != shape:
            raise ValueError(f"the state's fields have shape {initial.fields.shape}; "
                             f"the run's grid takes {shape}")
        if not 0 <= initial.step <= cfg.n_steps():
            where = ("before the run's first step 0" if initial.step < 0
                     else f"past the run's last step {cfg.n_steps()}")
            raise ValueError(f"the state is at step {initial.step}, {where}")
        t_step = initial.step * cfg.dt
        if abs(initial.t - t_step) > 1e-9 * max(1.0, abs(initial.t)):
            raise ValueError(f"the state is at t = {initial.t!r}, but its step "
                             f"{initial.step} of dt = {cfg.dt!r} is at t = {t_step!r}")
    grid = grid_mod.make_grid(cfg.nx, cfg.ny, cfg.nz)
    params = PhysParams(beta1=cfg.beta1, beta2=cfg.beta2, rho_ref=cfg.rho_ref,
                        Q=default_insolation(grid, cfg.q0, cfg.q1),
                        transport_variant=cfg.transport, radiation_on=cfg.radiation_on)
    stepper = Stepper(grid, params, cfg.dt, scheme=cfg.scheme, forcing=forcing,
                      freeze_velocity=cfg.freeze_velocity)
    if initial is None:
        initial = initial_state(grid, kind=cfg.ic_kind, amplitude=cfg.ic_amplitude,
                                seed=cfg.ic_seed, decay=cfg.ic_decay, value=cfg.ic_value)
    return stepper, initial


def integrate(cfg: RunConfig, stepper: Stepper, state: State,
              kick: Callable[[State], np.ndarray] | None = None) -> RunResult:
    """The driver loop: step `state` with `stepper` to step cfg.n_steps().

    kick(state), when given, is the step's kick_hat (see `Stepper.step`)
    from the last measured state: the stochastic drivers' noise.  The
    state terms are computed once per state, for both the ledger and the
    step: in the stepper's workspace (`Stepper.state_terms`, the ledger
    reducing them in its scratch), but for the first state, whose terms
    and record allocate, so that a run without steps builds no
    workspace.  Every state is measured into the ledger, its record
    carrying the monitor flags raised at its step; csv_records holds the
    records at the configured cadence, on any monitor flag, and for the
    initial state of a fresh run (step 0).
    When monitors are enabled, each step runs the maximum-principle,
    energy and H1 checks in that order, each a message or None; the run
    halts after a step with a hard failure, the last failing check's
    message being monitor_failure.  The maximum-principle check is
    warn-only under vertical-average transport, where its constant is
    not established: its message goes to warnings and the run goes on.
    A BlowUpError carries the last measured state, which the step was
    given.  The loop builds and checks nothing (see `start_run`).
    """
    grid, params = stepper.grid, stepper.params
    terms = monitors.state_terms(grid, state)
    record = monitors.measure(grid, state, terms)
    ledger = [record]
    csv_records = [record] if state.step == 0 else []
    warnings: list[str] = []
    mp_warn_only = params.transport_variant == VERTICAL_AVERAGE
    monitor_failure = None

    for _ in range(cfg.n_steps() - state.step):
        state = stepper.step(state, kick_hat=kick(state) if kick else None, terms=terms)
        terms = stepper.state_terms(state)
        prev_record, record = record, monitors.measure(grid, state, terms,
                                                       work=stepper.workspace)
        flags = 0
        if cfg.monitors_on:
            for flag, msg in (
                (monitors.FLAG_MAX_PRINCIPLE, monitors.max_principle_check(
                    state, record, params, ledger[0].sup_T, cfg.dt)),
                (monitors.FLAG_ENERGY, monitors.energy_step_check(
                    prev_record, record, cfg.dt, cfg.c_led)),
                (monitors.FLAG_H1, monitors.h1_step_check(
                    ledger[0], record, cfg.h1_growth_rate, cfg.h1_margin)),
            ):
                if msg is None:
                    continue
                flags |= flag
                if flag == monitors.FLAG_MAX_PRINCIPLE and mp_warn_only:
                    warnings.append(msg)
                else:
                    monitor_failure = msg
        if flags:
            record = replace(record, flags=flags)
        ledger.append(record)
        if flags or state.step % cfg.cadence == 0:
            csv_records.append(record)
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
    """Integrate to t_end with the configured scheme (see `start_run` and
    `integrate`): no kick.

    forcing, when given, is the `Stepper` forcing: a callable (grid, t) ->
    pair spectrum in the state's layout, such as
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
    stepper, state = start_run(cfg, initial, forcing)
    return integrate(cfg, stepper, state)
