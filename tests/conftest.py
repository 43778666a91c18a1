import numpy as np
import pytest

from ebpe import baroclinic_grad, diagnose_w, make_grid, project_barotropic
from ebpe.grid import deriv_x, deriv_y, irfft_h, rfft_h


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
    return solver.solve_hat(stack)[i, j]


def smooth_field_2d(grid, rng, decay=2.0):
    """Random real field with decaying spectrum, dealias-confined."""
    c = rng.standard_normal((grid.nx, grid.ny)) + 1j * rng.standard_normal((grid.nx, grid.ny))
    k2 = (grid.kx.astype(float) ** 2)[:, None] + (grid.ky.astype(float) ** 2)[None, :]
    c *= (1.0 + k2) ** (-decay / 2.0)
    c = np.where(grid.dealias_mask, c, 0.0)
    return np.fft.ifft2(c).real * (grid.nx * grid.ny)


def smooth_field_3d(grid, rng, decay=2.0, n_profiles=3):
    """Random 3D field: horizontal smooth fields times cos(m pi z) profiles."""
    f = grid.zeros3d()
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
    v_hat, phi_hat = project_barotropic(grid, _pair_hat(grid, v))
    grad = _pair_physical(grid, [deriv_x(grid, phi_hat), deriv_y(grid, phi_hat)])
    return _pair_physical(grid, v_hat), grad


def rough_state(grid, seed):
    """Smooth random state plus white noise on every mode, Nyquist lines
    included; the velocity is not projected and rho is not the trace of T,
    so every tendency, norm and residual is O(1)."""
    from ebpe.timestep import initial_state

    rng = np.random.default_rng(seed)
    state = initial_state(grid, "random_smooth", amplitude=0.8, seed=seed)
    state.v = state.v + 0.1 * rng.standard_normal(state.v.shape)
    state.T = state.T + 0.1 * rng.standard_normal(state.T.shape)
    state.rho = state.rho + 0.1 * rng.standard_normal(state.rho.shape)
    state.t = 0.3
    return state
