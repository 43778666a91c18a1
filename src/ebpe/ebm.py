"""Surface energy-balance physics: co-albedo ramp, radiation budget, insolation.

The absorbed radiation is Q(x) * beta(rho) with beta a tanh ramp between the
ice-covered and ice-free co-albedo values; emission follows the
Stefan-Boltzmann law |rho|^3 * rho.  All constants are nondimensional;
the defaults (beta1=0.38, beta2=0.68, rho_ref=0 here; the insolation's
q0=1, q1=0 in `RunConfig`) are Budyko-like configuration values, not data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

SURFACE_TRACE = "surface_trace"
VERTICAL_AVERAGE = "vertical_average"
TRANSPORT_VARIANTS = (SURFACE_TRACE, VERTICAL_AVERAGE)

DEFAULT_BETA1 = 0.38
DEFAULT_BETA2 = 0.68


class InsolationError(ValueError):
    """Raised when an insolation field would not be strictly positive."""


@dataclass(frozen=True)
class PhysParams:
    """Physical configuration for the surface model.

    beta1 < beta2 are the ice-covered / ice-free co-albedo values,
    rho_ref the ice-melt reference temperature.  Q is the insolation
    field on the horizontal grid; it must be strictly positive.
    transport_variant selects whether the boundary temperature is
    advected by the velocity trace at the surface or by its vertical
    average.
    """

    beta1: float = DEFAULT_BETA1
    beta2: float = DEFAULT_BETA2
    rho_ref: float = 0.0
    Q: np.ndarray = field(default_factory=lambda: np.ones((1, 1)))
    transport_variant: str = SURFACE_TRACE
    radiation_on: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < self.beta2):
            raise ValueError(
                f"co-albedo bounds must satisfy 0 < beta1 < beta2, "
                f"got beta1={self.beta1}, beta2={self.beta2}"
            )
        if np.any(np.asarray(self.Q) <= 0.0):
            raise InsolationError("insolation Q must be positive everywhere")
        if self.transport_variant not in TRANSPORT_VARIANTS:
            raise ValueError(
                f"transport_variant must be one of {TRANSPORT_VARIANTS}, "
                f"got {self.transport_variant!r}"
            )


def coalbedo(rho, params: PhysParams):
    """tanh ramp between beta1 and beta2 around rho_ref; strictly inside (beta1, beta2)."""
    ramp = 0.5 * (1.0 + np.tanh(np.asarray(rho, dtype=float) - params.rho_ref))
    return params.beta1 + (params.beta2 - params.beta1) * ramp


def emission(rho):
    """Stefan-Boltzmann emission |rho|^3 * rho; odd in rho."""
    rho = np.asarray(rho, dtype=float)
    return np.abs(rho) ** 3 * rho


def radiation(rho: np.ndarray, params: PhysParams) -> np.ndarray:
    """Net radiative balance Q * beta(rho) - |rho|^3 * rho, pointwise."""
    return params.Q * coalbedo(rho, params) - emission(rho)


def default_insolation(grid: Grid, q0: float, q1: float) -> np.ndarray:
    """Smooth periodic insolation Q0 * (1 + q1 * cos(2 pi y)).

    Rejects parameter pairs that would make Q vanish or change sign.
    """
    if q0 <= 0.0 or abs(q1) >= 1.0:
        raise InsolationError(
            f"insolation requires Q0 > 0 and |q1| < 1, got Q0={q0}, q1={q1}"
        )
    return q0 * (1.0 + q1 * np.cos(2.0 * np.pi * grid.y))
