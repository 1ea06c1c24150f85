"""Sequential time marching: the reference each parallel solve is held to."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .grid import SpatialGrid, TemporalGrid, Trajectory
from .models import ConservationModel, on_stack

# Trajectory nodes per wave-speed block: the block's temporaries stay a
# small fraction of the trajectory.
SPEED_BLOCK_NODES = 256


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


def _max_wave_speed(model: ConservationModel, values: np.ndarray) -> float:
    """Largest |eigenvalue| over the nodes of a (n_nodes, ..., D, N)
    trajectory, in blocks of nodes. Every node's states are checked, so an
    inadmissible state at any node raises PhysicalStateError. A node whose
    speeds include NaN is skipped; NaN at every node gives NaN."""
    peaks = np.empty(len(values))
    for start in range(0, len(values), SPEED_BLOCK_NODES):
        block = values[start:start + SPEED_BLOCK_NODES]
        speeds = on_stack(model.max_abs_speed, block)
        peaks[start:start + len(block)] = np.max(
            speeds.reshape(len(block), -1), axis=1)
    return float(np.fmax.reduce(peaks))


def solve_serial(stepper, initial_state: np.ndarray, time_grid: TemporalGrid,
                 space_grid: SpatialGrid,
                 model: ConservationModel | None = None) -> SerialRun:
    """March the initial state across every node of the time grid."""
    start = time.perf_counter()
    initial_state = np.asarray(initial_state, float)
    values = np.empty((time_grid.n_nodes,) + initial_state.shape)
    values[0] = initial_state
    state = initial_state
    for node in range(1, time_grid.n_nodes):
        state = stepper.advance(state)
        values[node] = state
    max_speed = 0.0 if model is None else _max_wave_speed(model, values)
    wall = time.perf_counter() - start
    trajectory = Trajectory(time_grid, space_grid, values)
    return SerialRun(trajectory=trajectory, max_speed=max_speed,
                     wall_seconds=wall)
