"""Interface fluxes and the semi-discrete finite-volume operator.

Interface states come from WENO reconstruction as one (2, ..., D, N) array
of sides, sides[0] = uL and sides[1] = uR at x_{i+1/2}, and each flux
evaluates the model once on both sides together. The numerical flux is either
a global Lax-Friedrichs flux,

    f = 1/2 (f(uL) + f(uR)) - 1/2 alpha (uR - uL),

with alpha the largest wave speed over all reconstructed interface values of
the field (recomputed at every evaluation), or a Roe flux with Harten-Hyman
entropy fix,

    f = 1/2 (f(uL) + f(uR)) - 1/2 sum_k q(lam_k) a_k r_k,

where a_k are the expansion coefficients of uR - uL in the Roe eigenbasis
and q replaces |lam_k| near sonic points.

The semi-discrete right-hand side is the conservative divided difference
du_i/dt = -(f_{i+1/2} - f_{i-1/2}) / dx on the periodic mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import SpatialGrid
from .models import ConservationModel, on_stack
from .weno import (DEFAULT_EPSILON, SUPPORTED_DEGREES, build_tables,
                   reconstruct_interface_states)

FLUX_KINDS = ("lf", "roe")


@dataclass(frozen=True)
class WenoConfig:
    """Reconstruction settings: nominal order s = 2k+1 plus weighting knobs."""

    order: int = 1
    epsilon: float = DEFAULT_EPSILON
    characteristic: bool = True

    def __post_init__(self):
        if self.order % 2 == 0 or self.degree not in SUPPORTED_DEGREES:
            supported = tuple(2 * k + 1 for k in SUPPORTED_DEGREES)
            raise ConfigError(
                f"unsupported reconstruction order {self.order}, "
                f"expected one of {supported}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def degree(self) -> int:
        return (self.order - 1) // 2


@dataclass(frozen=True)
class FluxConfig:
    """Numerical flux choice plus its reconstruction settings."""

    kind: str = "lf"
    weno: WenoConfig = field(default_factory=WenoConfig)

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ConfigError(
                f"unknown flux kind '{self.kind}', expected one of {FLUX_KINDS}")


def lf_alpha(model: ConservationModel, sides: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| over all interfaces and both sides.

    Reduces the side, interface and component axes only, so each member of
    a batch of fields keeps its own dissipation speed; shape (...,).
    """
    return np.max(on_stack(model.max_abs_speed, sides), axis=(0, -1))


def lf_flux(model: ConservationModel, sides: np.ndarray,
            alpha) -> np.ndarray:
    """Lax-Friedrichs interface flux with dissipation speed alpha."""
    alpha = np.asarray(alpha, float)[..., None, None]
    fluxes = on_stack(model.flux, sides)
    return 0.5 * (fluxes[0] + fluxes[1]) - 0.5 * alpha * (sides[1] - sides[0])


def entropy_fix(lam_hat, lam_left, lam_right):
    """Harten-Hyman dissipation speed.

    delta = max{0, lam_hat - lam_left, lam_right - lam_hat}; inside the
    sonic band |lam_hat| < delta the speed is lifted to
    1/2 (lam_hat^2/delta + delta), otherwise it is |lam_hat|.
    """
    lam_hat = np.asarray(lam_hat, float)
    scalar = lam_hat.ndim == 0
    delta = np.maximum(0.0, np.maximum(lam_hat - np.asarray(lam_left, float),
                                       np.asarray(lam_right, float) - lam_hat))
    fix = np.abs(lam_hat) < delta
    safe = np.where(fix, delta, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lifted = 0.5 * (lam_hat * lam_hat / safe + delta)
    out = np.where(fix, lifted, np.abs(lam_hat))
    return float(out) if scalar else out


def roe_flux(model: ConservationModel, sides: np.ndarray) -> np.ndarray:
    """Roe interface flux with entropy fix.

    Wave strengths are the expansion coefficients of the jump in the Roe
    eigenbasis, a = left_vectors @ (uR - uL); the fix compares each Roe
    eigenvalue with its counterparts evaluated at the two interface states.
    """
    fluxes, values, (lam_hat, right_vec, left_vec) = model.roe_terms(sides)
    jump = np.swapaxes(sides[1] - sides[0], -1, -2)[..., None]
    strength = (left_vec @ jump)[..., 0]  # (..., N, K)
    speed = entropy_fix(lam_hat, values[0], values[1])
    dissipation = (right_vec @ (speed * strength)[..., None])[..., 0]
    return 0.5 * (fluxes[0] + fluxes[1]) \
        - 0.5 * np.swapaxes(dissipation, -1, -2)


class SemiDiscreteOperator:
    """Finite-volume right-hand side on a periodic mesh.

    Accepts states of shape (..., D, N) so whole batches of independent
    fields advance in one call.
    """

    def __init__(self, model: ConservationModel, space_grid: SpatialGrid,
                 config: FluxConfig):
        if space_grid.n_cells < 2 * config.weno.degree + 1:
            raise ConfigError(
                f"{space_grid.n_cells} cells cannot support order "
                f"{config.weno.order} reconstruction")
        self.model = model
        self.space_grid = space_grid
        self.config = config
        self.tables = build_tables(config.weno.degree)

    def interface_states(self, field: np.ndarray):
        return reconstruct_interface_states(
            self.model, field, self.tables, self.config.weno.epsilon,
            self.config.weno.characteristic)

    def interface_flux(self, field: np.ndarray) -> np.ndarray:
        sides = self.interface_states(field)
        if self.config.kind == "lf":
            return lf_flux(self.model, sides, lf_alpha(self.model, sides))
        return roe_flux(self.model, sides)

    def rhs(self, field: np.ndarray) -> np.ndarray:
        flux_at = self.interface_flux(field)  # entry i is interface i+1/2
        flux_before = np.empty_like(flux_at)  # entry i is interface i-1/2
        flux_before[..., 1:] = flux_at[..., :-1]
        flux_before[..., 0] = flux_at[..., -1]
        return -(flux_at - flux_before) / self.space_grid.dx

