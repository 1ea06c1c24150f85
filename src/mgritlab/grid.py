"""Uniform periodic space-time grids and trajectory norms.

States are float64 arrays of shape (D, N_x): component-major cell averages
on a uniform periodic mesh. A trajectory stacks the states of all time
nodes into an array of shape (N_t + 1, D, N_x); node 0 is the initial
condition. N_t counts time intervals, so dt = T / N_t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1D mesh on [0, length)."""

    length: float
    n_cells: int

    def __post_init__(self):
        if self.length <= 0.0:
            raise ConfigError(f"domain length must be positive, got {self.length}")
        if self.n_cells < 1:
            raise ConfigError(f"need at least one cell, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform time grid on [0, horizon] with n_steps intervals."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ConfigError(f"time horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ConfigError(f"need at least one time step, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


@dataclass
class Trajectory:
    """States at every node of a temporal grid; values[i] is node i."""

    time_grid: TemporalGrid
    space_grid: SpatialGrid
    values: np.ndarray  # (n_nodes, D, N_x)

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise DimensionError(f"trajectory values must be 3D, got shape {v.shape}")
        if v.shape[0] != self.time_grid.n_nodes:
            raise DimensionError(
                f"{v.shape[0]} states for {self.time_grid.n_nodes} time nodes")
        if v.shape[2] != self.space_grid.n_cells:
            raise DimensionError(
                f"{v.shape[2]} cells per state on a {self.space_grid.n_cells}-cell mesh")


def l2_norm(values: np.ndarray) -> float:
    """Euclidean norm of all entries, summed in an order fixed by the array
    alone: a BLAS dot product (np.linalg.norm) splits the sum by its thread
    count, which would make the CSV bytes depend on OPENBLAS_NUM_THREADS."""
    flat = np.ravel(values)
    return float(np.sqrt(np.einsum("i,i->", flat, flat)))


def rel_l2_spacetime_error(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Relative discrete L2 error over all nodes, components and cells.

    ||candidate - reference|| / ||reference|| with the plain Euclidean norm
    of the flattened arrays (uniform grids, so the cell/step weights cancel).
    """
    _check_same_shape(candidate, reference)
    return relative_error_to(reference)(candidate)


def _check_same_shape(candidate, reference) -> None:
    if candidate.shape != reference.shape:
        raise DimensionError(
            f"shape mismatch {candidate.shape} vs {reference.shape}")


def relative_error_to(reference: np.ndarray):
    """candidate -> rel_l2_spacetime_error(candidate, reference), bit for
    bit, with ||reference|| taken once for every candidate. Each difference
    is a fresh array: a buffer kept between candidates would add its size
    to a solve's peak memory."""
    ref_norm = l2_norm(reference)
    if ref_norm == 0.0:
        raise ValueError("reference trajectory has zero norm")

    def error(candidate: np.ndarray) -> float:
        _check_same_shape(candidate, reference)
        return l2_norm(candidate - reference) / ref_norm

    return error
