"""Periodic spatial mesh, uniform time grid, and space-time error norms."""

import numpy as np
import pytest

from mgritlab.errors import ConfigError, DimensionError
from mgritlab.grid import (SpatialGrid, TemporalGrid, Trajectory,
                           rel_l2_spacetime_error)


def test_spatial_grid_dx_times_cells_recovers_length():
    grid = SpatialGrid(2.5, 48)
    assert grid.dx * grid.n_cells == pytest.approx(2.5, abs=1e-15)


def test_spatial_grid_cell_centers_are_midpoints():
    grid = SpatialGrid(1.0, 4)
    np.testing.assert_allclose(grid.cell_centers(),
                               [0.125, 0.375, 0.625, 0.875])


def test_spatial_grid_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        SpatialGrid(0.0, 8)
    with pytest.raises(ConfigError):
        SpatialGrid(1.0, 0)


def test_temporal_grid_dt_times_steps_recovers_horizon():
    grid = TemporalGrid(0.475, 1024)
    assert grid.dt * grid.n_steps == pytest.approx(0.475, abs=1e-15)
    assert grid.n_nodes == 1025


def test_temporal_grid_coarsening_divides_step_count():
    fine = TemporalGrid(1.0, 64)
    coarse = fine.coarsened(4)
    assert coarse.n_steps == 16
    assert coarse.dt == pytest.approx(4 * fine.dt)
    with pytest.raises(ConfigError):
        fine.coarsened(5)


def test_trajectory_validates_shapes():
    tgrid = TemporalGrid(1.0, 4)
    sgrid = SpatialGrid(1.0, 8)
    values = np.zeros((5, 1, 8))
    Trajectory(tgrid, sgrid, values)  # well-formed
    with pytest.raises(DimensionError):
        Trajectory(tgrid, sgrid, np.zeros((4, 1, 8)))
    with pytest.raises(DimensionError):
        Trajectory(tgrid, sgrid, np.zeros((5, 1, 7)))


def test_rel_error_of_identical_trajectories_is_zero():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(6, 2, 16))
    assert rel_l2_spacetime_error(u, u) == 0.0


def test_rel_error_of_doubled_trajectory_is_one():
    rng = np.random.default_rng(8)
    ref = rng.normal(size=(6, 2, 16))
    assert rel_l2_spacetime_error(2 * ref, ref) == pytest.approx(1.0)


def test_rel_error_single_entry_hand_value():
    u = np.full((1, 1, 1), 3.0)
    ref = np.full((1, 1, 1), 4.0)
    assert rel_l2_spacetime_error(u, ref) == pytest.approx(0.25)


def test_rel_error_rejects_mismatched_shapes_and_zero_reference():
    with pytest.raises(DimensionError):
        rel_l2_spacetime_error(np.zeros((2, 1, 4)), np.zeros((3, 1, 4)))
    with pytest.raises(ValueError):
        rel_l2_spacetime_error(np.ones((2, 1, 4)), np.zeros((2, 1, 4)))

