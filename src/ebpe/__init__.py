"""Surface energy-balance model coupled to the primitive equations on a
periodic cylinder: deterministic and boundary-noise simulators with a
built-in verification harness."""

from .config import RunConfig, parse_config
from .ebm import PhysParams, coalbedo, default_insolation, radiation
from .grid import Grid, make_grid
from .hydrostatic import (
    baroclinic_grad,
    project_barotropic,
    vertical_average,
)
from .linops import SectorReport, spectrum_report
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
    "baroclinic_grad",
    "coalbedo",
    "default_insolation",
    "initial_state",
    "make_grid",
    "parse_config",
    "project_barotropic",
    "radiation",
    "run_deterministic",
    "run_direct_em",
    "run_split_stochastic",
    "spectrum_report",
    "vertical_average",
    "wiener_increments",
]
