"""Runtime verification: norms, constraint residuals, confinement and
energy checks, and manufactured-solution convergence studies.

Monitors never mutate state; every function here reads a post-step
snapshot or an accumulated ledger.  The envelope constants (c_led, the
growth rate and margin of the H1 sentinel) are calibration knobs of the
monitor configuration, `RunConfig`, which states them once.

`state_terms` brings a state to everything its ledger record and its
step read, in the state's field-major layout: the pair spectra of
`State.fields` (one batched forward transform, `ebpe.grid`) and, on the
grid, the derivatives (one real product each with the grid's `diff_x`,
`diff_y` and `diff_z`), the horizontal divergence they give and w, its
running integral.  Both take `work`, a stepper's
`timestep.Workspace`: `state_terms` then fills its terms, valid until
that stepper's next call, and `measure` reduces in its scratch and
reduction buffers, both through the views the workspace binds, so
neither allocates a volume or a spectrum per call nor takes a view of
a workspace array; without it numpy allocates.  The driver loop hands
these terms to both `measure` and the next step, so `measure` makes no
transform, and each of its reductions is one BLAS product on contiguous rows, with no einsum:
the field and horizontal gradient norms by Parseval, the squared pair
spectra as (3, Nx*2*(Ny//2+1), Nz+1) times `grid.norm_weights_pair`; the
vertical derivative norms, the squared d/dz rows times `trapz_w`; the
solenoidal residual, the divergence rows times `trapz_w`.  The sup norms
come from one |T|.  The record's sums are Python floats, one `tolist()`
per reduced array, in numpy's order, so bit for bit.  The ledger keeps no
w(., 1) residual (`constraint_check` has it): the trapezoid running
integral to z = 1 is the trapezoid vertical average, so it equals the
solenoidal one to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hydrostatic
from .config import whole_steps
from .ebm import PhysParams
from .grid import Grid, make_grid, rfft_h

# monitor flag bits of LedgerRecord.flags
FLAG_MAX_PRINCIPLE = 1
FLAG_ENERGY = 2
FLAG_H1 = 4

ENERGY_TOL = 1e-10  # roundoff slack of the energy inequality
H1_FLOOR = 1e-8  # least H1(first) of the H1 envelope


@dataclass(frozen=True)
class StateTerms:
    """Spectral terms and physical derivative fields of one state.

    A pure function of (v, T), so the ledger and the step that starts
    from the state may share them; nothing here survives a step.  The
    arrays have the state's layout, field axis first (v[0], v[1], T);
    rho is T's top level: its spectrum and derivatives are read there.
    """

    U: np.ndarray   # pair spectra of state.fields (3, Nx, 2, Ny//2+1, Nz+1)
    dx: np.ndarray  # d/dx of v[0], v[1], T (3, Nx, Ny, Nz+1)
    dy: np.ndarray  # d/dy, the same shape
    w: np.ndarray   # w (Nx, Ny, Nz+1)
    dz: np.ndarray  # d/dz (grid.diff_z), the shape of dx
    div: np.ndarray  # div_H v = dx[0] + dy[1], which w integrates, the shape of w


def state_terms(grid: Grid, state, work=None) -> StateTerms:
    """The StateTerms of `state`: one batched forward transform and three
    real products on the grid.

    work, when given, is a stepper's `timestep.Workspace`, and the terms
    are its own (`Stepper.state_terms`): valid until that stepper's next
    call.  Only the views of the state's fields are taken per call.
    """
    f, k = state.fields, grid.nlev
    if work is None:
        t = StateTerms(U=rfft_h(grid, f), dx=np.empty(f.shape), dy=np.empty(f.shape),
                       w=np.empty(f.shape[1:]), dz=np.empty(f.shape), div=np.empty(f.shape[1:]))
        np.matmul(grid.diff_x, f.reshape(3, grid.nx, -1), out=t.dx.reshape(3, grid.nx, -1))
        np.matmul(grid.diff_y, f.reshape(-1, grid.ny, k), out=t.dy.reshape(-1, grid.ny, k))
        np.add(t.dx[0], t.dy[1], out=t.div)
        w = hydrostatic.cumulative_integral(grid, t.div.reshape(-1, k), out=t.w.reshape(-1, k))
        np.negative(w, out=w)
        np.matmul(f.reshape(-1, k), grid.diff_z.T, out=t.dz.reshape(-1, k))
        return t
    rfft_h(grid, f, work=work.forward)
    np.matmul(grid.diff_x, f.reshape(3, grid.nx, -1), out=work.dx_rows)
    np.matmul(grid.diff_y, f.reshape(-1, grid.ny, k), out=work.dy_rows)
    np.add(work.dx_v0, work.dy_v1, out=work.terms.div)
    w = hydrostatic.cumulative_integral(grid, work.div_rows, out=work.w_rows)
    np.negative(w, out=w)
    np.matmul(f.reshape(-1, k), work.diff_z_T, out=work.dz_rows)
    return work.terms


@dataclass(frozen=True)
class ConstraintResiduals:
    """Max-norm residuals of the structural constraints of a state."""

    bottom_neumann: float  # one-sided dT/dz at z=0 (consistency-level, O(h^2))
    solenoidal: float      # |div_H vbar|
    w_top: float           # |w(.,1)|


def solenoidal_residual(grid: Grid, terms: StateTerms, work=None) -> float:
    """max |div_H vbar| of the state whose StateTerms are `terms`; work,
    when given, is the stepper's `timestep.Workspace` that holds them."""
    if work is None:
        average = np.matmul(terms.div.reshape(-1, grid.nlev), grid.trapz_w)
    else:
        average = np.matmul(work.div_rows, grid.trapz_w, out=work.div_average)
    return float(np.maximum.reduce(np.abs(average, out=average)))


def constraint_check(grid: Grid, state, terms: StateTerms | None = None) -> ConstraintResiduals:
    """Residuals of the bottom no-flux, solenoidal and w-top conditions (the
    trace condition has none: rho is T's top level); terms, when given, is
    state_terms(grid, state)."""
    if terms is None:
        terms = state_terms(grid, state)
    return ConstraintResiduals(
        bottom_neumann=float(np.abs(terms.dz[2, ..., 0]).max()),
        solenoidal=solenoidal_residual(grid, terms),
        w_top=float(np.abs(terms.w[..., -1]).max()),
    )


@dataclass(frozen=True)
class LedgerRecord:
    """One measured step of the energy and constraint bookkeeping, and
    the row schema of diagnostics.csv: `diagnostics.HEADER` names the
    fields a row writes.  flags holds the FLAG_* bits the driver's
    monitors raised at this step."""

    step: int
    t: float
    energy: float        # E0 = (|v|^2 + |T|^2 + |rho|^2) / 2
    dissipation: float   # |grad v|^2 + |grad T|^2 + |grad_H rho|^2
    rho_l5: float        # integral of |rho|^5 over the surface
    sup_T: float
    sup_rho: float
    grad_v_sq: float
    grad_T_sq: float
    grad_rho_sq: float
    div_res: float
    flags: int = 0


def _parseval(grid: Grid, U: np.ndarray, work=None) -> tuple[list, list]:
    """By Parseval, from the pair spectra U of (v[0], v[1], T), as nested
    lists [field][norm]: the squared L2 norm over the section (norm 0)
    and that of the horizontal gradient (norm 1) at the top level, rho's
    (T's top level), and the integrals over z of both.  The per-level
    norms are one stacked product with `grid.norm_weights_pair`.  work,
    when given, a `timestep.Workspace` whose terms' spectra are U, holds
    the squares and the norms."""
    if work is None:
        squares = np.multiply(U, U)
        norms = np.matmul(grid.norm_weights_pair, squares.reshape(3, -1, grid.nlev))
        return norms[:, :, -1].tolist(), np.matmul(norms, grid.trapz_w).tolist()
    np.multiply(U, U, out=work.squares)
    np.matmul(grid.norm_weights_pair, work.squares_rows, out=work.norms)
    return (work.norms_top.tolist(),
            np.matmul(work.norms, grid.trapz_w, out=work.volume_norms).tolist())


def _energy(top: list, volume: list) -> float:
    """E0 = (|v|^2 + |T|^2 + |rho|^2) / 2 from the lists of `_parseval`."""
    return 0.5 * (volume[0][0] + volume[1][0] + volume[2][0] + top[2][0])


def measure(grid: Grid, state, terms: StateTerms | None = None, work=None) -> LedgerRecord:
    """Compute the full ledger record for one state; terms, when given,
    is state_terms(grid, state).  work, when given, is a stepper's
    `timestep.Workspace` whose terms are `terms` (the driver loop hands
    over its stepper's), and its scratch holds every array the record
    reduces."""
    if terms is None:
        terms = state_terms(grid, state)
    n = grid.nx * grid.ny
    top, volume = _parseval(grid, terms.U, work)
    # squared L2 norms of d/dz of (v[0], v[1], T), and |T|, whose top level is |rho|
    if work is None:
        dz_squares = np.multiply(terms.dz, terms.dz)
        dz_norms = np.matmul(dz_squares.reshape(-1, grid.nlev), grid.trapz_w).reshape(3, -1)
        abs_T = np.abs(state.T)
        abs_rho = abs_T[..., -1]
        rho5 = abs_rho ** 5
    else:
        np.multiply(terms.dz, terms.dz, out=work.dz_squares)
        np.matmul(work.dz_squares_rows, grid.trapz_w, out=work.dz_norms_rows)
        dz_norms, abs_T, abs_rho = work.dz_norms, work.abs_T, work.abs_rho
        np.abs(state.fields[2], out=abs_T)
        rho5 = np.power(abs_rho, 5, out=work.rho5)
    dz_v0, dz_v1, dz_T = np.add.reduce(dz_norms, axis=1).tolist()
    gv = volume[0][1] + volume[1][1] + dz_v0 / n + dz_v1 / n
    gT = volume[2][1] + dz_T / n
    gr = top[2][1]  # rho is T's top level
    return LedgerRecord(
        step=state.step,
        t=state.t,
        energy=_energy(top, volume),
        dissipation=gv + gT + gr,
        rho_l5=float(np.add.reduce(rho5, axis=None)) / n,
        sup_T=float(np.maximum.reduce(abs_T, axis=None)),
        sup_rho=float(np.maximum.reduce(abs_rho, axis=None)),
        grad_v_sq=gv,
        grad_T_sq=gT,
        grad_rho_sq=gr,
        div_res=solenoidal_residual(grid, terms, work),
    )


def max_principle_bound(params: PhysParams, sup_T0: float) -> float:
    """Confinement constant max(sup|T0|, beta2^(1/4)); T0 includes rho0.

    Valid for the deterministic surface-trace model with normalized peak
    insolation at most one; the radiative balance then confines the
    temperature below beta2^(1/4).
    """
    return max(sup_T0, params.beta2 ** 0.25)


def max_principle_check(
    state,
    record: LedgerRecord,
    params: PhysParams,
    sup_T0: float,
    dt: float,
) -> str | None:
    """Sup-norm confinement of T, rho included, by the initial-data constant
    max_principle_bound(params, sup_T0); returns the violation message, or
    None when it holds.

    record is measure(grid, state), whose sup|T| is tested; T is searched
    again only for the location (i, j, k) of max|T| that the message
    names, k = Nz on the surface.  The tolerance carries a dt-proportional
    slack for the explicit treatment of the radiation term.
    """
    C = max_principle_bound(params, sup_T0)
    tol = 1e-6 + 10.0 * dt * (1.0 + C**3)
    if record.sup_T <= C + tol:
        return None
    location = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(state.T)), state.T.shape))
    return (f"maximum principle violated at step {record.step}: "
            f"sup={record.sup_T:.6e} > {C:.6e}+{tol:.2e} at {location}")


def energy_step_check(
    prev: LedgerRecord,
    record: LedgerRecord,
    dt: float,
    c_led: float,
) -> str | None:
    """Energy inequality E_{n+1} - E_n <= dt * c_led * (1 + E_n) + ENERGY_TOL
    for one step; returns the violation message, or None when it holds."""
    allowed = prev.energy + dt * c_led * (1.0 + prev.energy) + ENERGY_TOL
    if record.energy > allowed:
        return (f"energy ledger violated at step {record.step}: "
                f"E={record.energy:.6e} > allowed {allowed:.6e}")
    return None


def h1_step_check(
    first: LedgerRecord,
    record: LedgerRecord,
    growth_rate: float,
    margin: float,
) -> str | None:
    """No-blow-up sentinel: the squared H1 seminorm of `record` (its
    dissipation, the sum of the three gradient norms) inside the
    exponential envelope margin * H1(first) * exp(growth_rate (t - t_first));
    returns the breach message, or None."""
    h1 = record.dissipation
    log_scale = np.log(margin * max(first.dissipation, H1_FLOOR))
    if not np.isfinite(h1) or (
        h1 > 0.0 and np.log(h1) > log_scale + growth_rate * (record.t - first.t)
    ):
        return f"H1 envelope breached at step {record.step}: {h1:.6e}"
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


def _l2_distance(grid: Grid, state, fields: np.ndarray) -> float:
    """Combined L2 distance of (v, T, rho) between a state and the fields
    (3, Nx, Ny, Nz+1) of another: sqrt(2 E) of the difference, E its
    energy as `measure` takes it, from its pair spectra alone."""
    U = rfft_h(grid, state.fields - fields)
    return float(np.sqrt(2.0 * _energy(*_parseval(grid, U))))


def _mms_run(exact, grid: Grid, forcing, scheme: str, dt: float, t_end: float):
    """The manufactured problem on `grid`, stepped from its exact initial
    state to t_end; forcing is exact.spectral_forcing(grid)."""
    from . import timestep

    stepper = timestep.Stepper(grid, exact.params(grid), dt, scheme=scheme, forcing=forcing)
    state = exact.initial_state(grid)
    for _ in range(int(round(t_end / dt))):
        state = stepper.step(state)
    return state


def mms_spatial_study(
    scheme: str = "imex_euler",
    nz_ladder=(8, 16, 32),
    dt: float = 1e-5,
    t_end: float = 0.01,
) -> ConvergenceStudy:
    """Vertical-resolution ladder against the exact manufactured fields.

    The horizontal directions are spectrally exact for the manufactured
    first modes on 8 x 8, so the measured rate isolates the second-order
    vertical scheme.
    """
    from .manufactured import ManufacturedSolution

    if len(set(nz_ladder)) < 2:
        raise ValueError(f"nz_ladder needs two distinct rungs to fit an order, got {nz_ladder}")
    if not whole_steps(t_end, dt):  # every rung ends at t_end
        raise ValueError(f"t_end={t_end} must be a whole number of steps of dt={dt}")
    exact = ManufacturedSolution()
    errors = []
    for nz in nz_ladder:
        grid = make_grid(8, 8, nz)
        state = _mms_run(exact, grid, exact.spectral_forcing(grid), scheme, dt, t_end)
        exact_fields = np.concatenate((exact.velocity(grid, state.t),
                                       exact.temperature(grid, state.t)[None]))
        errors.append(_l2_distance(grid, state, exact_fields))
    hs = [1.0 / nz for nz in nz_ladder]
    return ConvergenceStudy(scales=hs, errors=errors, order=fit_order(hs, errors))


def mms_temporal_study(
    scheme: str = "imex_euler",
    dt_ladder=(1.0 / 40, 1.0 / 80, 1.0 / 160),
    nx: int = 16,
    ny: int = 16,
    nz: int = 16,
    t_end: float = 0.5,
) -> ConvergenceStudy:
    """Time-step ladder, self-converged against a run at dt min(dt_ladder) / 8.

    Same grid for all runs, so the spatial error cancels and the measured
    rate is the time-integration order.
    """
    from .manufactured import ManufacturedSolution

    if len(set(dt_ladder)) < 2:
        raise ValueError(f"dt_ladder needs two distinct rungs to fit an order, got {dt_ladder}")
    ref_dt = min(dt_ladder) / 8
    for dt in (*dt_ladder, ref_dt):  # every run ends at t_end
        if not whole_steps(t_end, dt):
            raise ValueError(f"t_end={t_end} must be a whole number of steps of every rung "
                             f"and of the reference dt={ref_dt}; dt={dt} is not")
    exact = ManufacturedSolution()
    grid = make_grid(nx, ny, nz)
    forcing = exact.spectral_forcing(grid)
    ref = _mms_run(exact, grid, forcing, scheme, ref_dt, t_end)
    errors = [_l2_distance(grid, _mms_run(exact, grid, forcing, scheme, dt, t_end), ref.fields)
              for dt in dt_ladder]
    return ConvergenceStudy(scales=list(dt_ladder), errors=errors,
                            order=fit_order(dt_ladder, errors))


@dataclass(frozen=True)
class MmsStudy:
    spatial: ConvergenceStudy
    temporal: ConvergenceStudy


def mms_convergence_study(scheme: str, quick: bool) -> MmsStudy:
    """Run both ladders at the studies' defaults or, quick, at the smaller
    ones of `ebpe mms --quick` (the mms-cnab2 benchmark counts their steps)."""
    if quick:
        return MmsStudy(mms_spatial_study(scheme, nz_ladder=(8, 16), dt=1e-4, t_end=0.005),
                        mms_temporal_study(scheme, dt_ladder=(1.0 / 40, 1.0 / 80), t_end=0.25))
    return MmsStudy(mms_spatial_study(scheme), mms_temporal_study(scheme))
