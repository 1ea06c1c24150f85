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
from .models import (_HALF, _ZERO, ConservationModel, _flux_outs, _operand,
                     _roe_outs, _speed_outs, on_stack)
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


def lf_alpha(model: ConservationModel, sides: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| over all interfaces and both sides.

    Reduces the side, interface and component axes only, so each member of
    a batch of fields keeps its own dissipation speed; shape (...,).
    """
    (speeds,) = scratch.buffers(_speed_outs, sides.shape)
    on_stack(lambda stack: model.max_abs_speed(stack, out=speeds), sides)
    return np.maximum.reduce(speeds, axis=(0, -1))


# A flux kernel's sides and out lead its layout under the names that the
# right-hand side keeps them by, and the model hook's outs follow; its own
# terms then take the "interface" buffer, whose windows and values the
# reconstruction is done with once the sides are made.

def _lf_layout(shape):
    return (("rhs.sides", shape), ("rhs.flux", shape[1:])) \
        + _flux_outs(shape) + (("interface", shape[1:]),
                               ("flux.alpha", shape[1:-2] + (1, 1)))


def _lf_plan(sides, out, fluxes, jump, half_alpha):
    return (sides[0], sides[1], out, fluxes, fluxes[0], fluxes[1], jump,
            half_alpha, half_alpha.reshape(half_alpha.shape[:-2]))


def lf_flux(model: ConservationModel, sides: np.ndarray, alpha,
            out: np.ndarray | None = None) -> np.ndarray:
    """Lax-Friedrichs interface flux with dissipation speed alpha, written
    into out if one is given."""
    model._check_shape(sides)
    if out is None:
        out = np.empty(sides.shape[1:])
    (left, right, out, fluxes, left_flux, right_flux, jump, half_alpha,
     half_alphas) = scratch.buffers(_lf_layout, sides.shape, _lf_plan, sides,
                                    out)
    on_stack(lambda stack: model._flux_into(stack, fluxes), sides)
    np.add(left_flux, right_flux, out=out)
    np.multiply(_HALF, out, out=out)
    np.subtract(right, left, out=jump)
    np.multiply(_HALF, alpha, out=half_alphas)
    np.multiply(half_alpha, jump, out=jump)
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
    np.maximum(_ZERO, delta, out=delta)
    np.abs(lam_hat, out=out)
    np.less(out, delta, out=fix)
    # lifted only where it is used, so delta > 0 there
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(lam_hat, lam_hat, out=lifted, where=fix)
        np.divide(lifted, delta, out=lifted, where=fix)
        np.add(lifted, delta, out=lifted, where=fix)
        np.multiply(_HALF, lifted, out=out, where=fix)
    return out


def _roe_layout(shape):
    cells = shape[1:-2] + shape[:-3:-1]  # (..., N, D)
    return (("rhs.sides", shape), ("rhs.flux", shape[1:])) \
        + _roe_outs(shape) + (("interface", shape[1:]),
                              ("interface", cells + (1,)),
                              ("interface", cells),
                              ("interface", cells),
                              ("interface", cells),
                              ("flux.fix", cells, bool),
                              ("interface", cells + (1,)))


def _roe_plan(sides, out, fluxes, values, lam_hat, right_vec, left_vec,
              jump, strength, speed, delta, lifted, fix, dissipation):
    return ((fluxes, values, (lam_hat, right_vec, left_vec)), sides[0],
            sides[1], out, fluxes[0], fluxes[1], values[0], values[1],
            lam_hat, right_vec, left_vec, jump,
            jump.swapaxes(-1, -2)[..., None], strength, strength[..., 0],
            speed, speed[..., None], delta, lifted, fix, dissipation,
            dissipation[..., 0].swapaxes(-1, -2))


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
    (terms, left, right, out, left_flux, right_flux, left_values,
     right_values, lam_hat, right_vec, left_vec, jump, jump_columns,
     strength, strengths, speed, speed_columns, delta, lifted, fix,
     dissipation, dissipation_rows) = scratch.buffers(
        _roe_layout, sides.shape, _roe_plan, sides, out)
    model.roe_terms(sides, out=terms)
    np.subtract(right, left, out=jump)
    np.matmul(left_vec, jump_columns, out=strength)
    _entropy_fix_into(lam_hat, left_values, right_values, speed, delta,
                      lifted, fix)
    np.multiply(speed, strengths, out=speed)
    np.matmul(right_vec, speed_columns, out=dissipation)
    np.add(left_flux, right_flux, out=out)
    np.multiply(_HALF, out, out=out)
    np.multiply(_HALF, dissipation, out=dissipation)
    return np.subtract(out, dissipation_rows, out=out)


def _rhs_layout(shape):
    return (("rhs.sides", (2,) + shape), ("rhs.flux", shape))


def _rhs_plan(sides, flux_at):
    # the divided difference is made in sides[0], which the fluxes no
    # longer need; entry i of flux_at is interface i+1/2
    difference = sides[0]
    return (sides, flux_at, flux_at[..., 1:], flux_at[..., :-1],
            flux_at[..., 0], flux_at[..., -1], difference,
            difference[..., 1:], difference[..., 0])


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
        self._dx = _operand(space_grid.dx)

    def rhs(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field, float)
        (sides, flux_at, upper, lower, first, last, difference, inner,
         wrapped) = scratch.buffers(_rhs_layout, field.shape, _rhs_plan)
        model, weno = self.model, self.config.weno
        reconstruct_interface_states(model, field, self.tables, weno.epsilon,
                                     weno.characteristic, out=sides)
        if self.config.kind == "lf":
            lf_flux(model, sides, lf_alpha(model, sides), out=flux_at)
        else:
            roe_flux(model, sides, out=flux_at)
        np.subtract(upper, lower, out=inner)
        np.subtract(first, last, out=wrapped)
        np.negative(difference, out=difference)
        return np.divide(difference, self._dx)
