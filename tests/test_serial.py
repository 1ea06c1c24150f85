"""Sequential time marching and initial-condition discretisation."""
import numpy as np
import pytest

from mgritlab import (
    DimensionError,
    FluxConfig,
    MatchedLFFine,
    RungeKuttaStepper,
    SemiDiscreteOperator,
    SpatialGrid,
    TemporalGrid,
    WenoConfig,
    discretise_ic,
    make_model,
    solve_serial,
)


def test_discretise_ic_constant_profile():
    grid = SpatialGrid(1.0, 8)
    values = discretise_ic(lambda x: np.full_like(x, 2.5), grid)
    assert values.shape == (1, 8)
    assert np.array_equal(values, np.full((1, 8), 2.5))


def test_discretise_ic_sin_four_cells():
    # midpoints of 4 cells on [0,1): x = 1/8, 3/8, 5/8, 7/8
    grid = SpatialGrid(1.0, 4)
    values = discretise_ic(lambda x: np.sin(2 * np.pi * x), grid)
    r = np.sqrt(2.0) / 2.0
    assert values[0] == pytest.approx([r, r, -r, -r], abs=1e-15)


def test_discretise_ic_system_profile_keeps_components():
    grid = SpatialGrid(1.0, 4)
    values = discretise_ic(lambda x: np.stack([x, 2 * x]), grid)
    assert values.shape == (2, 4)
    assert np.array_equal(values[1], 2 * values[0])


def test_discretise_ic_rejects_bad_shape():
    grid = SpatialGrid(1.0, 4)
    with pytest.raises(DimensionError):
        discretise_ic(lambda x: np.zeros(3), grid)
    with pytest.raises(DimensionError):
        discretise_ic(lambda x: np.zeros((2, 2, 4)), grid)


def test_zero_initial_state_stays_zero():
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, 32)
    tgrid = TemporalGrid(0.5, 16)
    op = SemiDiscreteOperator(model, sgrid, FluxConfig(
        kind="lf", weno=WenoConfig(order=5)))
    stepper = RungeKuttaStepper(op.rhs, tgrid.dt, 3)
    run = solve_serial(stepper, np.zeros((1, 32)), tgrid, sgrid, model=model)
    assert run.trajectory.values.shape == (17, 1, 32)
    assert np.all(run.trajectory.values == 0.0)
    assert run.max_speed == 0.0


def test_trajectory_nodes_match_manual_marching():
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, 16)
    tgrid = TemporalGrid(0.1, 8)
    stepper = MatchedLFFine(model, sgrid, tgrid.dt)
    u0 = discretise_ic(lambda x: np.sin(2 * np.pi * x), sgrid)
    run = solve_serial(stepper, u0, tgrid, sgrid, model=model)
    state = u0
    assert np.array_equal(run.trajectory.values[0], u0)
    for node in range(1, 9):
        state = stepper.advance(state)
        assert np.array_equal(run.trajectory.values[node], state)


@pytest.mark.parametrize("name,kind,order,rk", [
    ("burgers", "lf", 5, 3),
    ("burgers", "roe", 1, 1),
    ("shallow-water", "roe", 3, 2),
    ("euler", "lf", 3, 3),
])
def test_total_mass_conserved_along_run(name, kind, order, rk):
    # periodic conservative schemes preserve each component's cell sum
    model = make_model(name)
    sgrid = SpatialGrid(1.0, 64)
    tgrid = TemporalGrid(0.05, 20)
    x = sgrid.cell_centers()
    wave = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    if name == "burgers":
        u0 = (wave - 1.0)[None, :]
    elif name == "shallow-water":
        u0 = np.stack([wave, wave * 0.2 * np.cos(2 * np.pi * x)])
    else:
        vel = 0.2 * np.cos(2 * np.pi * x)
        energy = wave / (model.gamma - 1.0) + 0.5 * wave * vel ** 2
        u0 = np.stack([wave, wave * vel, energy])
    op = SemiDiscreteOperator(model, sgrid, FluxConfig(
        kind=kind, weno=WenoConfig(order=order)))
    stepper = RungeKuttaStepper(op.rhs, tgrid.dt, rk)
    run = solve_serial(stepper, u0, tgrid, sgrid, model=model)
    masses = run.trajectory.values.sum(axis=-1) * sgrid.dx
    drift = np.abs(masses - masses[0])
    scale = np.maximum(np.abs(masses[0]), 1.0)
    assert np.max(drift / scale) < 1e-12


def test_sin_profile_steepens_into_shock_near_midpoint():
    # the stationary-shock profile breaks at t = L / (2 pi); by 20% past
    # breaking the largest cell-to-cell jump has grown by an order of
    # magnitude and sits at the domain midpoint
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, 128)
    t_break = 1.0 / (2.0 * np.pi)
    tgrid = TemporalGrid(1.2 * t_break, 512)
    u0 = discretise_ic(lambda x: np.sin(2 * np.pi * x), sgrid)
    op = SemiDiscreteOperator(model, sgrid, FluxConfig(
        kind="roe", weno=WenoConfig(order=5)))
    stepper = RungeKuttaStepper(op.rhs, tgrid.dt, 3)
    run = solve_serial(stepper, u0, tgrid, sgrid, model=model)

    def max_jump(values):
        jumps = np.abs(np.diff(values[0], append=values[0, :1]))
        return np.max(jumps), int(np.argmax(jumps))

    jump0, _ = max_jump(run.trajectory.values[0])
    jump1, where = max_jump(run.trajectory.values[-1])
    assert jump1 >= 10.0 * jump0
    midpoint_cell = sgrid.n_cells // 2
    assert abs(where - midpoint_cell + 0.5) <= 3.0
    assert run.max_speed > 0.0


def test_moving_profile_is_shifted_stationary_profile():
    # the moving-shock profile is (1 + stationary)/2 at time zero
    sgrid = SpatialGrid(1.0, 32)
    stationary = discretise_ic(lambda x: np.sin(2 * np.pi * x), sgrid)
    moving = discretise_ic(
        lambda x: 0.5 * (1.0 + np.sin(2 * np.pi * x)), sgrid)
    assert np.allclose(moving, 0.5 * (1.0 + stationary), atol=1e-15)


def test_wall_time_is_recorded():
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, 16)
    tgrid = TemporalGrid(0.1, 4)
    stepper = MatchedLFFine(model, sgrid, tgrid.dt)
    run = solve_serial(stepper, np.zeros((1, 16)), tgrid, sgrid, model=model)
    assert run.wall_seconds >= 0.0
