"""Sequential time marching: the reference each parallel solve is held to."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .grid import SpatialGrid, TemporalGrid, Trajectory
from .models import ConservationModel


@dataclass
class SerialRun:
    """A serial solve plus the quantities experiments report about it."""

    trajectory: Trajectory
    max_speed: float      # largest |eigenvalue| seen over the whole run
    wall_seconds: float


def discretise_ic(ic, space_grid: SpatialGrid) -> np.ndarray:
    """Sample a pointwise initial condition at cell midpoints.

    ic maps an array of positions (N,) to component-major values (D, N);
    scalar profiles may return (N,), which becomes one component.
    """
    values = np.asarray(ic(space_grid.cell_centers()), float)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] != space_grid.n_cells:
        raise DimensionError(
            f"initial condition produced shape {values.shape} on a "
            f"{space_grid.n_cells}-cell mesh")
    return values


def solve_serial(stepper, initial_state: np.ndarray, time_grid: TemporalGrid,
                 space_grid: SpatialGrid,
                 model: ConservationModel | None = None) -> SerialRun:
    """March the initial state across every node of the time grid."""
    start = time.perf_counter()
    initial_state = np.asarray(initial_state, float)
    values = np.empty((time_grid.n_nodes,) + initial_state.shape)
    values[0] = initial_state
    max_speed = 0.0
    if model is not None:
        max_speed = float(np.max(model.max_abs_speed(initial_state)))
    state = initial_state
    for node in range(1, time_grid.n_nodes):
        state = stepper.advance(state)
        values[node] = state
        if model is not None:
            max_speed = max(max_speed, float(np.max(model.max_abs_speed(state))))
    wall = time.perf_counter() - start
    trajectory = Trajectory(time_grid, space_grid, values)
    return SerialRun(trajectory=trajectory, max_speed=max_speed,
                     wall_seconds=wall)
