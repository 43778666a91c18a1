"""Runtime verification: norms, constraint residuals, confinement and
energy checks, and manufactured-solution convergence studies.

Monitors never mutate state; every function here reads a post-step
snapshot or an accumulated ledger.  The envelope constants (c_led, the
growth rate of the gradient-norm sentinel) are calibration knobs of the
monitor configuration, not physical constants.

`state_terms` brings a state to everything its ledger record and its
step read: the half spectra (one batched forward transform) and, on the
grid, the derivatives and w.  The derivatives are one real product each
with the grid's differentiation matrices (`diff_x` over x, `diff_y`
batched over x, `diff_z` over the levels), and w is the running
integral of the horizontal divergence they give, so no derivative makes
an inverse transform.  The driver loop hands these terms to both
`measure` and the next step, so `measure` makes no transform: field
and horizontal gradient norms come from the half spectra by Parseval,
vertical derivative norms and the max-norm residuals from the physical
terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hydrostatic
from .ebm import PhysParams
from .grid import Grid, pack_fields, rfft_h, volume_fields

# monitor flag bits, also used in diagnostics rows
FLAG_MAX_PRINCIPLE = 1
FLAG_ENERGY = 2
FLAG_H1 = 4


def l2sq_volume(grid: Grid, f: np.ndarray) -> float:
    """Squared L2 norm over the unit-volume cylinder (trapezoid in z)."""
    w = hydrostatic.trapz_weights(grid)
    return float(np.sum(f * f @ w) / (grid.nx * grid.ny))


def l2sq_surface(grid: Grid, f: np.ndarray) -> float:
    """Squared L2 norm over the unit-area horizontal section."""
    return float(np.sum(f * f) / (grid.nx * grid.ny))


@dataclass(frozen=True)
class StateTerms:
    """Spectral terms and physical derivative fields of one state.

    A pure function of (v, T, rho), so the ledger and the step that
    starts from the state may share them; nothing here survives a step.
    dx and dy hold the planes of pack_fields(v, T, rho).
    """

    U: np.ndarray   # half spectra of pack_fields(v, T, rho)
    dx: np.ndarray  # d/dx of pack_fields(v, T, rho) (Nx, Ny, 3(Nz+1)+1)
    dy: np.ndarray  # d/dy, the same layout
    w: np.ndarray   # w (Nx, Ny, Nz+1)
    dz: np.ndarray  # deriv_z of v[0], v[1], T (Nx, Ny, 3, Nz+1)

    @property
    def dz_v(self) -> np.ndarray:
        """deriv_z of v (2, Nx, Ny, Nz+1), a view into dz."""
        return self.dz[..., :2, :].transpose(2, 0, 1, 3)

    @property
    def dz_T(self) -> np.ndarray:
        """deriv_z of T (Nx, Ny, Nz+1), a view into dz."""
        return self.dz[..., 2, :]


def state_terms(grid: Grid, state) -> StateTerms:
    """The StateTerms of `state`: one batched forward transform and three
    real products on the grid."""
    packed = pack_fields(state.v, state.T, state.rho)
    n = grid.nlev
    dx = (grid.diff_x @ packed.reshape(grid.nx, -1)).reshape(packed.shape)
    dy = grid.diff_y @ packed
    # a contiguous copy of the volume planes makes deriv_z one 2-D product
    volume = np.ascontiguousarray(volume_fields(grid, packed))
    return StateTerms(
        U=rfft_h(grid, packed), dx=dx, dy=dy,
        w=-hydrostatic.cumulative_integral(grid, dx[..., :n] + dy[..., n : 2 * n]),
        dz=(volume.reshape(-1, n) @ grid.diff_z.T).reshape(volume.shape),
    )


@dataclass(frozen=True)
class ConstraintResiduals:
    """Max-norm residuals of the structural constraints of a state."""

    trace: float           # |T(.,1) - rho|
    bottom_neumann: float  # one-sided dT/dz at z=0 (consistency-level, O(h^2))
    solenoidal: float      # |div_H vbar|
    w_top: float           # |w(.,1)|

    def as_dict(self) -> dict[str, float]:
        return {
            "trace": self.trace,
            "bottom_neumann": self.bottom_neumann,
            "solenoidal": self.solenoidal,
            "w_top": self.w_top,
        }


def constraint_check(grid: Grid, state) -> ConstraintResiduals:
    """Residuals of the trace, bottom no-flux, solenoidal and w-top conditions."""
    return _residuals(grid, state, state_terms(grid, state))


def _residuals(grid: Grid, state, terms: StateTerms) -> ConstraintResiduals:
    """constraint_check given the StateTerms of `state`."""
    n = grid.nlev
    div_bar = (terms.dx[..., :n] + terms.dy[..., n : 2 * n]) @ grid.trapz_w
    return ConstraintResiduals(
        trace=float(np.abs(state.T[..., -1] - state.rho).max()),
        bottom_neumann=float(np.abs(terms.dz_T[..., 0]).max()),
        solenoidal=float(np.abs(div_bar).max()),
        w_top=float(np.abs(terms.w[..., -1]).max()),
    )


@dataclass(frozen=True)
class LedgerRecord:
    """One measured step of the energy and constraint bookkeeping."""

    t: float
    energy: float        # E0 = (|v|^2 + |T|^2 + |rho|^2) / 2
    dissipation: float   # |grad v|^2 + |grad T|^2 + |grad_H rho|^2
    rho_l5: float        # integral of |rho|^5 over the surface
    sup_T: float
    sup_rho: float
    grad_v_sq: float
    grad_T_sq: float
    grad_rho_sq: float
    trace_res: float
    div_res: float
    w_top_res: float

    @property
    def h1_seminorm_sq(self) -> float:
        return self.grad_v_sq + self.grad_T_sq + self.grad_rho_sq


def measure(grid: Grid, state, terms: StateTerms | None = None) -> LedgerRecord:
    """Compute the full ledger record for one state; terms, when given,
    is state_terms(grid, state)."""
    if terms is None:
        terms = state_terms(grid, state)
    n, w = grid.nlev, grid.trapz_w
    # Parseval: per plane of the packed fields, the squared L2 norm over
    # the section (row 0) and that of the horizontal gradient (row 1)
    power = terms.U.real**2 + terms.U.imag**2
    norms = np.einsum("sxy,xyk->sk", grid.norm_weights_half, power)
    volume = norms[:, : 3 * n].reshape(2, 3, n) @ w  # (v[0], v[1], T) per row
    # squared L2 norms of deriv_z of (v[0], v[1], T)
    dz_sq = np.einsum("xyck,k->c", terms.dz * terms.dz, w) / (grid.nx * grid.ny)
    gv = float(volume[1, 0] + volume[1, 1] + dz_sq[0] + dz_sq[1])
    gT = float(volume[1, 2] + dz_sq[2])
    gr = float(norms[1, 3 * n])
    res = _residuals(grid, state, terms)
    return LedgerRecord(
        t=state.t,
        energy=0.5 * float(volume[0].sum() + norms[0, 3 * n]),
        dissipation=gv + gT + gr,
        rho_l5=float((np.abs(state.rho) ** 5).sum() / (grid.nx * grid.ny)),
        sup_T=float(np.abs(state.T).max()),
        sup_rho=float(np.abs(state.rho).max()),
        grad_v_sq=gv,
        grad_T_sq=gT,
        grad_rho_sq=gr,
        trace_res=res.trace,
        div_res=res.solenoidal,
        w_top_res=res.w_top,
    )


class Ledger:
    """Append-only time series of LedgerRecord entries."""

    def __init__(self):
        self.records: list[LedgerRecord] = []

    def append(self, record: LedgerRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i) -> LedgerRecord:
        return self.records[i]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def max_principle_bound(params: PhysParams, sup_T0: float, sup_rho0: float) -> float:
    """Confinement constant max(sup|T0|, sup|rho0|, beta2^(1/4)).

    Valid for the deterministic surface-trace model with normalized peak
    insolation at most one; the radiative balance then confines the
    temperature below beta2^(1/4).
    """
    return max(sup_T0, sup_rho0, params.beta2 ** 0.25)


@dataclass(frozen=True)
class MaxPrincipleResult:
    ok: bool
    bound: float
    tolerance: float
    value: float
    margin: float
    location: tuple | None = None
    t: float | None = None


def max_principle_check(
    state,
    params: PhysParams,
    T0_bounds: tuple[float, float],
    dt: float,
    record: LedgerRecord | None = None,
) -> MaxPrincipleResult:
    """Sup-norm confinement of T and rho by the initial-data constant.

    The tolerance carries a dt-proportional slack for the explicit
    treatment of the radiation term.  record, when given, is
    measure(grid, state), whose sup|T| and sup|rho| are used; the fields
    are searched again only for the location of a violation.
    """
    C = max_principle_bound(params, *T0_bounds)
    tol = 1e-6 + 10.0 * dt * (1.0 + C**3)
    if record is None:
        sup_T, sup_rho = float(np.abs(state.T).max()), float(np.abs(state.rho).max())
    else:
        sup_T, sup_rho = record.sup_T, record.sup_rho
    value = max(sup_T, sup_rho)
    ok = value <= C + tol
    location = None
    if not ok:
        if sup_rho >= sup_T:
            location = np.unravel_index(np.argmax(np.abs(state.rho)), state.rho.shape)
        else:
            location = np.unravel_index(np.argmax(np.abs(state.T)), state.T.shape)
    return MaxPrincipleResult(
        ok=ok, bound=C, tolerance=tol, value=value,
        margin=C + tol - value, location=location, t=state.t,
    )


def energy_step_check(
    prev: LedgerRecord,
    record: LedgerRecord,
    step: int,
    dt: float,
    c_led: float = 50.0,
    tol_e: float = 1e-10,
) -> str | None:
    """Energy inequality E_{n+1} - E_n <= dt * c_led * (1 + E_n) + tol for one
    step; returns the violation message, or None when it holds."""
    allowed = prev.energy + dt * c_led * (1.0 + prev.energy) + tol_e
    if record.energy > allowed:
        return (f"energy ledger violated at step {step}: "
                f"E={record.energy:.6e} > allowed {allowed:.6e}")
    return None


def h1_step_check(
    first: LedgerRecord,
    record: LedgerRecord,
    step: int,
    growth_rate: float = 50.0,
    margin: float = 100.0,
    floor: float = 1e-8,
) -> str | None:
    """No-blow-up sentinel: the gradient norms of `record` inside the
    exponential envelope margin * H1(first) * exp(growth_rate (t - t_first));
    returns the breach message, or None."""
    h1 = record.h1_seminorm_sq
    log_scale = np.log(margin * max(first.h1_seminorm_sq, floor))
    if not np.isfinite(h1) or (
        h1 > 0.0 and np.log(h1) > log_scale + growth_rate * (record.t - first.t)
    ):
        return f"H1 envelope breached at step {step}: {h1:.6e}"
    return None


def fit_order(scales: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(scale)."""
    return float(np.polyfit(np.log(np.asarray(scales, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


@dataclass(frozen=True)
class ConvergenceStudy:
    scales: list[float]      # h or dt per run
    errors: list[float]      # combined L2 error per run
    order: float


def _state_error(grid: Grid, state, exact) -> float:
    """Combined L2 distance between a state and the exact fields at state.t."""
    v_ex = exact.velocity(grid, state.t)
    T_ex = exact.temperature(grid, state.t)
    rho_ex = exact.surface_temperature(grid, state.t)
    err2 = (
        l2sq_volume(grid, state.v[0] - v_ex[0])
        + l2sq_volume(grid, state.v[1] - v_ex[1])
        + l2sq_volume(grid, state.T - T_ex)
        + l2sq_surface(grid, state.rho - rho_ex)
    )
    return float(np.sqrt(err2))


def mms_spatial_study(
    scheme: str = "imex_euler",
    nz_ladder=(8, 16, 32),
    nx: int = 8,
    ny: int = 8,
    dt: float = 1e-5,
    t_end: float = 0.01,
) -> ConvergenceStudy:
    """Vertical-resolution ladder against the exact manufactured fields.

    The horizontal directions are spectrally exact for the manufactured
    modes, so the measured rate isolates the second-order vertical scheme.
    """
    from . import manufactured, timestep
    from .grid import make_grid

    exact = manufactured.ManufacturedSolution()
    errors = []
    for nz in nz_ladder:
        grid = make_grid(nx, ny, nz)
        params = exact.params(grid)
        stepper = timestep.Stepper(
            grid, params, dt, scheme=scheme, forcing=exact.spectral_forcing(grid)
        )
        state = exact.initial_state(grid)
        for _ in range(int(round(t_end / dt))):
            state = stepper.step(state)
        errors.append(_state_error(grid, state, exact))
    hs = [1.0 / nz for nz in nz_ladder]
    return ConvergenceStudy(scales=hs, errors=errors, order=fit_order(hs, errors))


def mms_temporal_study(
    scheme: str = "imex_euler",
    dt_ladder=(1.0 / 40, 1.0 / 80, 1.0 / 160),
    nx: int = 16,
    ny: int = 16,
    nz: int = 16,
    t_end: float = 0.5,
    ref_refine: int = 8,
) -> ConvergenceStudy:
    """Time-step ladder, self-converged against a fine-dt reference run.

    Same grid for all runs, so the spatial error cancels and the measured
    rate is the time-integration order.
    """
    from . import manufactured, timestep
    from .grid import make_grid

    exact = manufactured.ManufacturedSolution()
    grid = make_grid(nx, ny, nz)
    params = exact.params(grid)
    forcing = exact.spectral_forcing(grid)

    def run(dt: float):
        stepper = timestep.Stepper(grid, params, dt, scheme=scheme, forcing=forcing)
        state = exact.initial_state(grid)
        for _ in range(int(round(t_end / dt))):
            state = stepper.step(state)
        return state

    ref = run(min(dt_ladder) / ref_refine)
    errors = []
    for dt in dt_ladder:
        s = run(dt)
        err2 = (
            l2sq_volume(grid, s.v[0] - ref.v[0])
            + l2sq_volume(grid, s.v[1] - ref.v[1])
            + l2sq_volume(grid, s.T - ref.T)
            + l2sq_surface(grid, s.rho - ref.rho)
        )
        errors.append(float(np.sqrt(err2)))
    return ConvergenceStudy(
        scales=list(dt_ladder), errors=errors,
        order=fit_order(np.array(dt_ladder), np.array(errors)),
    )


@dataclass(frozen=True)
class MmsStudy:
    spatial: ConvergenceStudy
    temporal: ConvergenceStudy


def mms_convergence_study(scheme: str = "imex_euler", **kwargs) -> MmsStudy:
    """Run both ladders; kwargs split by prefix spatial_/temporal_."""
    sp = {k[8:]: v for k, v in kwargs.items() if k.startswith("spatial_")}
    tm = {k[9:]: v for k, v in kwargs.items() if k.startswith("temporal_")}
    return MmsStudy(
        spatial=mms_spatial_study(scheme, **sp),
        temporal=mms_temporal_study(scheme, **tm),
    )
