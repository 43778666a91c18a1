import numpy as np
import pytest

from ebpe import baroclinic_grad, linops, make_grid, project_barotropic
from ebpe.grid import irfft_h, rfft_h
from ebpe.hydrostatic import diagnose_w

from oracles import as_complex, as_pairs, deriv_x, deriv_y, smooth_field_2d


@pytest.fixture
def cold_caches():
    """Empties the per-process caches of grids (`make_grid`) and vertical
    eigenbases (`linops.vertical_operator`), so that the test counts the
    set-up of a fresh process; returns the function that empties them,
    for a second cold start within the test."""

    def clear():
        make_grid.cache_clear()
        linops.vertical_operator.cache_clear()

    clear()
    return clear


@pytest.fixture
def grid8():
    return make_grid(8, 8, 8)


@pytest.fixture
def grid_small():
    return make_grid(8, 8, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)


def solve_one_mode(solver, i, j, rhs):
    """solver.solve_hat at full-spectrum mode (i, j) of rhs: a half-spectrum
    stack holds rhs at the representative of (i, j) and zeros elsewhere,
    and is read back there.  A mode with j > Ny/2 is represented by its
    conjugate partner ((-i) mod Nx, Ny - j), which has the same |xi|^2."""
    grid = solver.grid
    if j > grid.ny // 2:
        i, j = -i % grid.nx, grid.ny - j
    stack = np.zeros((grid.nx, grid.ny // 2 + 1, rhs.size), dtype=complex)
    stack[i, j] = rhs
    return as_complex(solver.solve_hat(as_pairs(stack)))[i, j]


def smooth_field_3d(grid, rng, decay=2.0, n_profiles=3):
    """Random 3D field: horizontal smooth fields times cos(m pi z) profiles."""
    f = np.zeros((grid.nx, grid.ny, grid.nlev))
    for m in range(n_profiles):
        f += smooth_field_2d(grid, rng, decay)[:, :, None] * np.cos(m * np.pi * grid.z)
    return f


# The hydrostatic operators act on spectra; these adapters give tests that
# hold physical fields the physical result, through the kernel's batched
# real transforms.

def _pair_hat(grid, pair):
    return np.stack([rfft_h(grid, comp) for comp in pair])


def _pair_physical(grid, pair_hat):
    return np.stack([irfft_h(grid, comp) for comp in pair_hat])


def diagnose_w_physical(grid, v):
    return irfft_h(grid, diagnose_w(grid, _pair_hat(grid, v)))


def baroclinic_grad_physical(grid, T):
    return _pair_physical(grid, baroclinic_grad(grid, rfft_h(grid, T)))


def project_barotropic_physical(grid, v):
    """(projected v, removed gradient (2, Nx, Ny)) of a physical velocity."""
    v_hat, phi = project_barotropic(grid, _pair_hat(grid, v))
    phi_hat = as_complex(phi)
    grad = _pair_physical(grid, [as_pairs(deriv_x(grid, phi_hat)),
                                 as_pairs(deriv_y(grid, phi_hat))])
    return _pair_physical(grid, v_hat), grad


def rough_state(grid, seed):
    """Smooth random state plus white noise on every mode, Nyquist lines
    included; the velocity is not projected, so every tendency, norm and
    residual is O(1).  The surface noise, drawn last, goes on T's top
    level, rho, over the smooth surface values."""
    from ebpe.timestep import State, initial_state

    rng = np.random.default_rng(seed)
    state = initial_state(grid, "random_smooth", amplitude=0.8, seed=seed)
    v = state.v + 0.1 * rng.standard_normal(state.v.shape)
    T = state.T + 0.1 * rng.standard_normal(state.T.shape)
    T[..., -1] = state.rho + 0.1 * rng.standard_normal(state.rho.shape)
    return State.pack(v, T, t=0.3)


def record_w_top(monkeypatch):
    """The list that receives w(., 1), the w_top residual of
    monitors.constraint_check, of every state that `measure` records from
    now on."""
    from ebpe import monitors

    measure, w_top = monitors.measure, []

    def recording(grid, state, terms=None, work=None):
        w_top.append(monitors.constraint_check(grid, state, terms).w_top)
        return measure(grid, state, terms, work)

    monkeypatch.setattr(monitors, "measure", recording)
    return w_top
