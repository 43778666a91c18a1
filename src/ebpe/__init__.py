"""Surface energy-balance model coupled to the primitive equations on a
periodic cylinder: deterministic and boundary-noise simulators with a
built-in verification harness."""

from .config import RunConfig, parse_config
from .ebm import PhysParams, coalbedo, default_insolation, radiation
from .grid import Grid, dealias, make_grid, to_physical, to_spectral
from .hydrostatic import (
    baroclinic_grad,
    diagnose_w,
    pressure_field,
    project_barotropic,
    vertical_average,
)
from .linops import (
    SectorReport,
    assemble_mode_operator,
    dirichlet_map,
    dtn_apply,
    similarity_split,
    solve_coupled_implicit,
    solve_velocity_implicit,
    spectrum_report,
)
from .stochastic import NoiseSpec, PathBundle, run_direct_em, run_split_stochastic, wiener_increments
from .timestep import BlowUpError, State, Stepper, initial_state, run_deterministic

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "Grid",
    "NoiseSpec",
    "PathBundle",
    "PhysParams",
    "RunConfig",
    "SectorReport",
    "State",
    "Stepper",
    "assemble_mode_operator",
    "baroclinic_grad",
    "coalbedo",
    "dealias",
    "default_insolation",
    "diagnose_w",
    "dirichlet_map",
    "dtn_apply",
    "initial_state",
    "make_grid",
    "parse_config",
    "pressure_field",
    "project_barotropic",
    "radiation",
    "run_deterministic",
    "run_direct_em",
    "run_split_stochastic",
    "similarity_split",
    "solve_coupled_implicit",
    "solve_velocity_implicit",
    "spectrum_report",
    "to_physical",
    "to_spectral",
    "vertical_average",
    "wiener_increments",
]
