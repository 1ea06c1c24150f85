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

from . import scratch
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
        if not 0.0 < self.epsilon < np.inf:
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


def _alpha_layout(shape):
    return (("interface", shape[:-2] + shape[-1:]),)


def lf_alpha(model: ConservationModel, sides: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| over all interfaces and both sides.

    Reduces the side, interface and component axes only, so each member of
    a batch of fields keeps its own dissipation speed; shape (...,).
    """
    (speeds,) = scratch.buffers(_alpha_layout, sides.shape)
    on_stack(lambda stack: model.max_abs_speed(stack, out=speeds), sides)
    return np.max(speeds, axis=(0, -1))


# The flux's terms take the "interface" buffer, whose windows and values
# the reconstruction is done with once the sides are made.

def _lf_layout(shape):
    return (("interface", shape), ("interface", shape[1:]))


def lf_flux(model: ConservationModel, sides: np.ndarray, alpha,
            out: np.ndarray | None = None) -> np.ndarray:
    """Lax-Friedrichs interface flux with dissipation speed alpha, written
    into out if one is given."""
    model._check_shape(sides)
    if out is None:
        out = np.empty(sides.shape[1:])
    fluxes, jump = scratch.buffers(_lf_layout, sides.shape)
    on_stack(lambda stack: model._flux_into(stack, fluxes), sides)
    np.add(fluxes[0], fluxes[1], out=out)
    np.multiply(0.5, out, out=out)
    np.subtract(sides[1], sides[0], out=jump)
    np.multiply(0.5 * np.asarray(alpha, float)[..., None, None], jump,
                out=jump)
    return np.subtract(out, jump, out=out)


def _entropy_fix_into(lam_hat, lam_left, lam_right, out, delta, lifted,
                      fix) -> np.ndarray:
    """Harten-Hyman dissipation speed into out, with delta, lifted and the
    bool fix as work arrays of out's shape.

    delta = max{0, lam_hat - lam_left, lam_right - lam_hat}; inside the
    sonic band |lam_hat| < delta the speed is lifted to
    1/2 (lam_hat^2/delta + delta), otherwise it is |lam_hat|.
    """
    np.subtract(lam_hat, lam_left, out=delta)
    np.subtract(lam_right, lam_hat, out=lifted)
    np.maximum(delta, lifted, out=delta)
    np.maximum(0.0, delta, out=delta)
    np.abs(lam_hat, out=out)
    np.less(out, delta, out=fix)
    # lifted only where it is used, so delta > 0 there
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(lam_hat, lam_hat, out=lifted, where=fix)
        np.divide(lifted, delta, out=lifted, where=fix)
        np.add(lifted, delta, out=lifted, where=fix)
        np.multiply(0.5, lifted, out=out, where=fix)
    return out


def _roe_layout(shape):
    cells = shape[1:-2] + shape[:-3:-1]  # (..., N, D)
    return (("interface", shape),
            ("interface", (2,) + cells),
            ("eigen.values", cells),
            ("eigen.right", cells + shape[-2:-1]),
            ("eigen.left", cells + shape[-2:-1]),
            ("interface", shape[1:]),
            ("interface", cells + (1,)),
            ("interface", cells),
            ("interface", cells),
            ("interface", cells),
            ("flux.fix", cells, bool),
            ("interface", cells + (1,)))


def roe_flux(model: ConservationModel, sides: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Roe interface flux with entropy fix, written into out if one is
    given.

    Wave strengths are the expansion coefficients of the jump in the Roe
    eigenbasis, a = left_vectors @ (uR - uL); the fix compares each Roe
    eigenvalue with its counterparts evaluated at the two interface states.
    """
    if out is None:
        out = np.empty(sides.shape[1:])
    (fluxes, values, lam_hat, right_vec, left_vec, jump, strength, speed,
     delta, lifted, fix, dissipation) = scratch.buffers(_roe_layout,
                                                        sides.shape)
    model.roe_terms(sides, out=(fluxes, values,
                                (lam_hat, right_vec, left_vec)))
    np.subtract(sides[1], sides[0], out=jump)
    np.matmul(left_vec, np.swapaxes(jump, -1, -2)[..., None], out=strength)
    _entropy_fix_into(lam_hat, values[0], values[1], speed, delta, lifted,
                      fix)
    np.multiply(speed, strength[..., 0], out=speed)
    np.matmul(right_vec, speed[..., None], out=dissipation)
    np.add(fluxes[0], fluxes[1], out=out)
    np.multiply(0.5, out, out=out)
    np.multiply(0.5, dissipation, out=dissipation)
    return np.subtract(out, np.swapaxes(dissipation[..., 0], -1, -2),
                       out=out)


def _rhs_layout(shape):
    return (("flux.sides", (2,) + shape), ("flux.at", shape))


class SemiDiscreteOperator:
    """Finite-volume right-hand side on a periodic mesh.

    Accepts states of shape (..., D, N) so whole batches of independent
    fields advance in one call. rhs runs the public kernels of this module
    by their module-level names, with the interface states and fluxes in
    this thread's scratch buffers (see `scratch`); it returns an array of
    its own.
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

    def rhs(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field, float)
        sides, flux_at = scratch.buffers(_rhs_layout, field.shape)
        model, weno = self.model, self.config.weno
        reconstruct_interface_states(model, field, self.tables, weno.epsilon,
                                     weno.characteristic, out=sides)
        # entry i of flux_at is interface i+1/2
        if self.config.kind == "lf":
            lf_flux(model, sides, lf_alpha(model, sides), out=flux_at)
        else:
            roe_flux(model, sides, out=flux_at)
        out = np.empty(field.shape)
        np.subtract(flux_at[..., 1:], flux_at[..., :-1], out=out[..., 1:])
        np.subtract(flux_at[..., 0], flux_at[..., -1], out=out[..., 0])
        np.negative(out, out=out)
        return np.divide(out, self.space_grid.dx, out=out)
