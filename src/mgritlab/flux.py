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
from .models import (_HALF, _ZERO, ConservationModel, _contract,
                     _contraction, _flux_outs, _lf_outs, _operand, _roe_outs,
                     on_stack)
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


def lf_alpha(model: ConservationModel, sides: np.ndarray,
             fluxes: np.ndarray | None = None) -> np.ndarray:
    """Largest |eigenvalue| over all interfaces and both sides.

    Reduces the side, interface and component axes only, so each member of
    a batch of fields keeps its own dissipation speed; shape (...,). The
    one pass over the sides' primitive variables that gives their speeds
    gives their fluxes too, written into fluxes, a (2, ..., D, N) array,
    if one is given, for lf_flux to take.
    """
    model._check_shape(sides)
    given = () if fluxes is None else (fluxes,)
    fluxes, speeds = scratch.buffers(_lf_outs, sides.shape, None, *given)
    on_stack(lambda stack: model._lf_terms_into(stack, fluxes, speeds),
             sides)
    return np.maximum.reduce(speeds, axis=(0, -1))


# A flux kernel's sides and out lead its layout under the names that the
# right-hand side keeps them by, and the model hook's outs follow; its own
# terms then take the "interface" buffer, whose field extension the
# reconstruction is done with once the sides are made.

def _lf_layout(shape):
    return (("rhs.sides", shape), ("rhs.flux", shape[1:])) \
        + _flux_outs(shape) + (("interface", shape[1:]),
                               ("flux.alpha", shape[1:-2] + (1, 1)))


def _lf_plan(sides, out, fluxes, jump, half_alpha):
    return (sides[0], sides[1], out, fluxes, fluxes[0], fluxes[1], jump,
            half_alpha, half_alpha.reshape(half_alpha.shape[:-2]))


def lf_flux(model: ConservationModel, sides: np.ndarray, alpha,
            out: np.ndarray | None = None,
            fluxes: np.ndarray | None = None) -> np.ndarray:
    """Lax-Friedrichs interface flux with dissipation speed alpha, written
    into out if one is given. fluxes are the sides' fluxes
    (2, ..., D, N), as lf_alpha wrote them, if it did; otherwise they are
    evaluated here."""
    model._check_shape(sides)
    if out is None:
        out = np.empty(sides.shape[1:])
    given = (sides, out) if fluxes is None else (sides, out, fluxes)
    (left, right, out, side_fluxes, left_flux, right_flux, jump, half_alpha,
     half_alphas) = scratch.buffers(_lf_layout, sides.shape, _lf_plan,
                                    *given)
    if fluxes is None:
        on_stack(lambda stack: model._flux_into(stack, side_fluxes), sides)
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
    # the roe_terms outs are entry-major (see models.eigen_arrays), every
    # term is laid out as the interface states, (..., D, N), and the D
    # products of a contraction take one (D, ..., D, N) block
    states = shape[1:]
    return (("rhs.sides", shape), ("rhs.flux", states)) + _roe_outs(shape) \
        + tuple(("interface", states) for _ in range(5)) \
        + (("interface", states[-2:-1] + states), ("flux.fix", states, bool))


def _roe_plan(sides, out, fluxes, values, lam_hat, right_vec, left_vec,
              jump, strength, speed, delta, lifted, terms, fix):
    return ((fluxes, values, lam_hat, right_vec, left_vec), sides[0],
            sides[1], out, fluxes[0], fluxes[1], values[0], values[1],
            lam_hat, jump, _contraction(strength, left_vec, jump, terms),
            strength, speed, delta, lifted, fix,
            # the dissipation sum_k q(lam_k) a_k r_k, made in jump
            _contraction(jump, right_vec, speed, terms), jump)


def roe_flux(model: ConservationModel, sides: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Roe interface flux with entropy fix, written into out if one is
    given.

    Wave strengths are the expansion coefficients of the jump in the Roe
    eigenbasis, a = left_vectors (uR - uL); the fix compares each Roe
    eigenvalue with its counterparts evaluated at the two interface states.
    Both per-interface products are component-order sums over the
    entry-major eigenvector columns (models._contract).
    """
    model._check_shape(sides)
    if out is None:
        out = np.empty(sides.shape[1:])
    (terms, left, right, out, left_flux, right_flux, left_values,
     right_values, lam_hat, jump, wave_strengths, strength, speed, delta,
     lifted, fix, dissipation_terms, dissipation) = scratch.buffers(
        _roe_layout, sides.shape, _roe_plan, sides, out)
    model._roe_terms_into(sides, *terms)
    np.subtract(right, left, out=jump)
    _contract(wave_strengths)
    _entropy_fix_into(lam_hat, left_values, right_values, speed, delta,
                      lifted, fix)
    np.multiply(speed, strength, out=speed)
    _contract(dissipation_terms)
    np.add(left_flux, right_flux, out=out)
    np.multiply(_HALF, out, out=out)
    np.multiply(_HALF, dissipation, out=dissipation)
    return np.subtract(out, dissipation, out=out)


def _rhs_layout(shape):
    # the sides' fluxes, which lf_alpha writes and lf_flux reads, take the
    # "interface" buffer once the sides are made, as the flux kernels do
    return (("rhs.sides", (2,) + shape), ("rhs.flux", shape)) \
        + _flux_outs((2,) + shape)


def _rhs_plan(sides, flux_at, side_fluxes):
    # the divided difference is made in sides[0], which the fluxes no
    # longer need; entry i of flux_at is interface i+1/2
    difference = sides[0]
    return (sides, flux_at, side_fluxes, flux_at[..., 1:], flux_at[..., :-1],
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
        (sides, flux_at, side_fluxes, upper, lower, first, last, difference,
         inner, wrapped) = scratch.buffers(_rhs_layout, field.shape,
                                           _rhs_plan)
        model, weno = self.model, self.config.weno
        reconstruct_interface_states(model, field, self.tables, weno.epsilon,
                                     weno.characteristic, out=sides)
        if self.config.kind == "lf":
            lf_flux(model, sides, lf_alpha(model, sides, side_fluxes),
                    out=flux_at, fluxes=side_fluxes)
        else:
            roe_flux(model, sides, out=flux_at)
        np.subtract(upper, lower, out=inner)
        np.subtract(first, last, out=wrapped)
        np.negative(difference, out=difference)
        return np.divide(difference, self._dx)
