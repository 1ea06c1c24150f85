"""Runge-Kutta steppers and the matched coarse-step family."""
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mgritlab import (
    ComposedStepper,
    ConfigError,
    DimensionError,
    ExperimentConfig,
    FluxConfig,
    MatchedLFCoarse,
    MatchedLFFine,
    MgritHierarchy,
    MgritOptions,
    RungeKuttaStepper,
    SemiDiscreteOperator,
    SpatialGrid,
    TemporalGrid,
    WenoConfig,
    make_model,
    step_fe,
    step_ssprk2,
    step_ssprk3,
)
from mgritlab import scratch, stepper as stepper_module
from mgritlab.harness import build_steppers
from mgritlab.stepper import (BLOCK_CELLS, _average, _difference,
                              _periodic_pad, lf_expansion)


# ----------------------------------------------------------------------
# Runge-Kutta steppers
# ----------------------------------------------------------------------

def test_zero_rhs_is_identity():
    u = np.array([[1.0, -2.0, 0.5]])
    zero = lambda v: np.zeros_like(v)
    for step in (step_fe, step_ssprk2, step_ssprk3):
        assert np.allclose(step(zero, u, 0.3), u, atol=1e-15)


def test_forward_euler_hand_value():
    out = step_fe(lambda v: -v, np.array(1.0), 0.1)
    assert out == 0.9


@pytest.mark.parametrize("order,floor", [(1, 0.9), (2, 1.9), (3, 2.8)])
def test_nonlinear_convergence_order(order, floor):
    # u' = -u^2, u(0) = 1 has exact solution 1/(1+t)
    rhs = lambda v: -v * v
    errs, ns = [], (16, 32, 64, 128)
    for n in ns:
        stepper = RungeKuttaStepper(rhs, 1.0 / n, order)
        u = np.array(1.0)
        for _ in range(n):
            u = stepper.advance(u)
        errs.append(abs(float(u) - 0.5))
    fit = np.polyfit(np.log(ns), -np.log(errs), 1)[0]
    assert fit >= floor


def test_runge_kutta_stepper_validation():
    rhs = lambda v: v
    for order in (0, 4, -1):
        with pytest.raises(ConfigError):
            RungeKuttaStepper(rhs, 0.1, order)
    with pytest.raises(ConfigError):
        RungeKuttaStepper(rhs, 0.0, 2)
    with pytest.raises(ConfigError):
        RungeKuttaStepper(rhs, -0.1, 2)


# ----------------------------------------------------------------------
# periodic stencil helpers: the kernel's E and D on a one-cell extension
# ----------------------------------------------------------------------

def neighbor_average(u):
    """E(u)_i = (u_{i+1} + u_{i-1}) / 2 on the periodic last axis."""
    return _average(_periodic_pad(u, 1))


def central_difference(f, dx):
    """D(f)_i = (f_{i+1} - f_{i-1}) / (2 dx) on the periodic last axis."""
    return _difference(_periodic_pad(f, 1), dx)


def test_neighbor_average_hand_values():
    out = neighbor_average(np.array([4.0, 0.0, 2.0, 6.0]))
    assert np.array_equal(out, [3.0, 3.0, 3.0, 3.0])
    assert np.array_equal(neighbor_average(np.full(5, 1.5)), np.full(5, 1.5))


def test_central_difference_hand_values():
    out = central_difference(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert np.array_equal(out, [-2.0, 2.0, 2.0, -2.0])
    assert np.array_equal(central_difference(np.full(4, 2.0), 0.5),
                          np.zeros(4))


def test_stencil_helpers_act_on_last_axis():
    u = np.arange(8.0).reshape(2, 4)
    avg = neighbor_average(u)
    for row in range(2):
        assert np.array_equal(avg[row], neighbor_average(u[row]))


# ----------------------------------------------------------------------
# matched one-step family (scalar model)
# ----------------------------------------------------------------------

def _burgers_grid(n=64, length=1.0):
    return make_model("burgers"), SpatialGrid(length, n)


def test_matched_fine_constant_field_unchanged():
    model, grid = _burgers_grid(8)
    phi = MatchedLFFine(model, grid, 0.01)
    u = np.full((1, 8), 0.75)
    assert np.array_equal(phi.advance(u), u)


def test_matched_fine_hand_value_zero_pattern():
    # alternating data whose neighbour average and flux difference both
    # vanish on a 4-cell mesh with dx = 1
    model, grid = _burgers_grid(4, length=4.0)
    phi = MatchedLFFine(model, grid, 1.0)
    out = phi.advance(np.array([[0.0, 1.0, 0.0, -1.0]]))
    assert np.array_equal(out, np.zeros((1, 4)))


def test_matched_fine_equals_euler_with_lf_flux_at_mesh_speed():
    # forward Euler with the two-point LF flux at dissipation speed dx/dt
    # telescopes algebraically into the one-step scheme
    model, grid = _burgers_grid(16)
    dt = 0.2 * grid.dx
    rng = np.random.default_rng(42)
    u = rng.uniform(-1, 1, 16)
    alpha = grid.dx / dt
    flux_half = np.empty(16)
    for i in range(16):
        ul, ur = u[i], u[(i + 1) % 16]
        flux_half[i] = 0.5 * (0.5 * ul * ul + 0.5 * ur * ur) \
            - 0.5 * alpha * (ur - ul)
    euler = u - (dt / grid.dx) * (flux_half - np.roll(flux_half, 1))
    out = MatchedLFFine(model, grid, dt).advance(u[None, :])
    assert np.allclose(out[0], euler, atol=1e-14)


def test_matched_coarse_literal_formulas_two_fold():
    model, grid = _burgers_grid(32)
    dt = 0.3 * grid.dx
    rng = np.random.default_rng(7)
    u = rng.uniform(-1, 1, size=(1, 32))
    flux = model.flux

    def e(v):
        return neighbor_average(v)

    def df(v):
        return central_difference(flux(v), grid.dx)

    zeroth = MatchedLFCoarse(model, grid, dt, 2, order=0).advance(u)
    assert np.allclose(zeroth, e(e(u)) - 2 * dt * df(u), atol=1e-15)

    first = MatchedLFCoarse(model, grid, dt, 2, order=1).advance(u)
    assert np.allclose(first, e(e(u)) - dt * (df(e(u)) + e(df(u))),
                       atol=1e-15)


def test_matched_coarse_single_fold_reduces_to_fine_step():
    model, grid = _burgers_grid(16)
    dt = 0.1 * grid.dx
    rng = np.random.default_rng(13)
    u = rng.uniform(-1, 1, size=(1, 16))
    fine = MatchedLFFine(model, grid, dt).advance(u)
    for order in (0, 1):
        coarse = MatchedLFCoarse(model, grid, dt, 1, order=order).advance(u)
        assert np.array_equal(coarse, fine)


def test_rediscretized_uses_given_step_directly():
    # the rediscretised coarse operator is the fine scheme built with the
    # coarse step m dt: E u - (m dt) D f(u)
    model, grid = _burgers_grid(16)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, size=(1, 16))
    coarse_dt = 4 * (0.1 * grid.dx)
    redisc = MatchedLFFine(model, grid, coarse_dt)
    assert redisc.dt == coarse_dt
    expected = neighbor_average(u) \
        - coarse_dt * central_difference(model.flux(u), grid.dx)
    assert np.array_equal(redisc.advance(u), expected)


def test_matched_family_rejects_system_models():
    grid = SpatialGrid(1.0, 16)
    sw = make_model("shallow-water")
    with pytest.raises(ConfigError):
        MatchedLFFine(sw, grid, 0.01)
    with pytest.raises(ConfigError):
        MatchedLFCoarse(sw, grid, 0.01, 2, order=1)


def test_matched_coarse_validation():
    model, grid = _burgers_grid(16)
    with pytest.raises(ConfigError):
        MatchedLFCoarse(model, grid, 0.01, 2, order=2)
    with pytest.raises(ConfigError):
        MatchedLFCoarse(model, grid, 0.01, 0, order=1)


# ----------------------------------------------------------------------
# padded kernel against the rolled formulas
# ----------------------------------------------------------------------

def _roll_average(v):
    return 0.5 * (np.roll(v, -1, axis=-1) + np.roll(v, 1, axis=-1))


def _roll_difference(f, dx):
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def _roll_oracle(stepper, u):
    """The matched family written with np.roll, one operator per class."""
    flux, dx = stepper.model.flux, stepper.dx
    if isinstance(stepper, MatchedLFFine):
        return _roll_average(u) - stepper.dt * _roll_difference(flux(u), dx)
    m = stepper.m_effective
    if stepper.order == 0:
        averaged = u
        for _ in range(m):
            averaged = _roll_average(averaged)
        return averaged - stepper.dt * _roll_difference(flux(u), dx)
    acc = _roll_difference(flux(u), dx)
    v = u
    for _ in range(m - 1):
        v = _roll_average(v)
        acc = _roll_average(acc) + _roll_difference(flux(v), dx)
    return _roll_average(v) - stepper.dt_fine * acc


def _matched_stepper(kind, n_cells, dt, m):
    model, grid = make_model("burgers"), SpatialGrid(1.0, n_cells)
    if kind == "fine":
        return MatchedLFFine(model, grid, dt)
    if kind == "rediscretized":
        return MatchedLFFine(model, grid, dt * m)
    return MatchedLFCoarse(model, grid, dt, m, order=int(kind[-1]))


@st.composite
def _matched_cases(draw):
    """A stepper of the matched family (m_effective up to 3x the cell
    count, so the padding can be wider than the grid) and an input of batch
    shape (), (k,) or (j, k), as a contiguous array or a strided or
    transposed view."""
    n_cells = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3 * n_cells + 2))
    kind = draw(st.sampled_from(["fine", "rediscretized", "order-0",
                                 "order-1"]))
    dt = draw(st.floats(1e-3, 0.5)) / n_cells
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    shape = batch + (1, n_cells)
    if layout == "strided":
        shape = batch + (1, 2 * n_cells)
    elif layout == "transposed":
        shape = (n_cells, 1) + batch[::-1]
    values = draw(hnp.arrays(np.float64, shape,
                             elements=st.floats(-2.0, 2.0, width=64)))
    if layout == "strided":
        values = values[..., ::2]
    elif layout == "transposed":
        values = values.T
    assert values.shape == batch + (1, n_cells)
    return _matched_stepper(kind, n_cells, dt, m), values


@settings(max_examples=150, deadline=None)
@given(case=_matched_cases())
def test_matched_family_bitwise_equals_rolled_formulas(case):
    stepper, u = case
    out = stepper.advance(u)
    expected = _roll_oracle(stepper, np.array(u))
    assert out.shape == u.shape
    assert np.array_equal(out, expected)
    # bitwise, signed zeros included
    assert out.tobytes() == expected.tobytes()


_BLOCKED_CELLS = 96  # under m_effective = 130: that padding wraps past the grid


@st.composite
def _blocked_cases(draw):
    """A matched stepper on 96 cells and an input of 1, block - 1, block,
    block + 1 or 2 block + 3 states, block being the states of BLOCK_CELLS
    padded cells, with leading shape (), (k,) or (a, b); contiguous, or a
    strided view along the cells or the leading states."""
    order = draw(st.sampled_from([0, 1]))
    m = draw(st.sampled_from([1, 2, 7, 64, 130]))
    block = BLOCK_CELLS // (_BLOCKED_CELLS + 2 * m)
    count = draw(st.sampled_from([1, block - 1, block, block + 1,
                                  2 * block + 3]))
    divisors = [d for d in range(1, count + 1) if count % d == 0]
    leading = draw(st.sampled_from(
        [(count,)] + [(a, count // a) for a in divisors]
        + ([()] if count == 1 else [])))
    layout = draw(st.sampled_from(["contiguous", "cells", "states"]))
    if not leading and layout == "states":
        layout = "cells"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = leading + (1, _BLOCKED_CELLS)
    if layout == "cells":
        u = rng.uniform(-2.0, 2.0, size=leading + (1, 2 * _BLOCKED_CELLS))
        u = u[..., ::2]
    elif layout == "states":
        u = rng.uniform(-2.0, 2.0, size=(2 * leading[0],) + shape[1:])
        u = u[::2]
    else:
        u = rng.uniform(-2.0, 2.0, size=shape)
    assert u.shape == shape
    model, grid = make_model("burgers"), SpatialGrid(1.0, _BLOCKED_CELLS)
    stepper = MatchedLFCoarse(model, grid, 0.2 / _BLOCKED_CELLS, m, order)
    return stepper, u, count > block


@settings(max_examples=60, deadline=None)
@given(case=_blocked_cases())
def test_blocked_advance_bitwise_equals_one_kernel_call(case):
    stepper, u, blocked = case
    out = stepper.advance(u)
    step = stepper.dt if stepper.order == 0 else stepper.dt_fine
    expected = lf_expansion(stepper.model, u, stepper.dx, step,
                            stepper.m_effective, stepper.order)
    assert out.shape == u.shape
    # a batch of more than one block is written into one C-contiguous
    # output; a batch that fits in one block is the kernel's own result,
    # laid out cell-major by its periodic gather
    assert out.flags.c_contiguous or not blocked
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_cells,m", [(4, 9), (3, 64), (1, 5)])
def test_matched_coarse_padding_wider_than_grid(n_cells, m):
    rng = np.random.default_rng(n_cells + m)
    u = rng.uniform(-1, 1, size=(2, 1, n_cells))
    for kind in ("order-0", "order-1"):
        stepper = _matched_stepper(kind, n_cells, 0.1 / n_cells, m)
        assert np.array_equal(stepper.advance(u), _roll_oracle(stepper, u))


def test_stencil_helpers_match_rolled_formulas():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, size=(3, 2, 7))[..., ::-1]
    assert np.array_equal(neighbor_average(u), _roll_average(u))
    assert np.array_equal(central_difference(u, 0.3),
                          _roll_difference(u, 0.3))


@pytest.mark.parametrize("kind", ["fine", "rediscretized", "order-0",
                                  "order-1"])
@pytest.mark.parametrize("shape", [(8,), (2, 8), (4, 3, 8), (1, 2, 8)])
def test_matched_family_rejects_wrong_shapes(kind, shape):
    stepper = _matched_stepper(kind, 8, 0.01, 4)
    with pytest.raises(DimensionError):
        stepper.advance(np.zeros(shape))


# ----------------------------------------------------------------------
# the one-state order-1 path: a single (1, N) state, powers first
# ----------------------------------------------------------------------

_ONE_STATE_CASES = [(n_cells, m) for n_cells in (96, 128)
                    for m in (2, 7, 64, 130)]


def _one_state_steps(n_cells, m, seed, n_steps=1):
    """An order-1 matched stepper, and n_steps one-state inputs."""
    stepper = _matched_stepper("order-1", n_cells, 0.2 / n_cells, m)
    rng = np.random.default_rng(seed)
    return stepper, [rng.uniform(-2.0, 2.0, size=(1, n_cells))
                     for _ in range(n_steps)]


@pytest.mark.parametrize("n_cells,m", _ONE_STATE_CASES)
def test_one_state_path_bitwise_equals_batch_kernel(n_cells, m):
    # m = 130 pads the grid by more than its own width
    stepper, (u,) = _one_state_steps(n_cells, m, seed=n_cells + m)
    out = stepper.advance(u)
    assert out.shape == u.shape
    assert out.tobytes() == stepper.advance(u[None])[0].tobytes()
    # a strided view of the same state takes the same path
    wide = np.repeat(u, 2, axis=-1)
    assert stepper.advance(wide[..., ::2]).tobytes() == out.tobytes()
    # other dtypes keep the batch kernel's arithmetic
    single = u.astype(np.float32)
    assert stepper.advance(single).tobytes() == \
        stepper.advance(single[None])[0].tobytes()


@pytest.mark.parametrize("n_cells,m", [(96, 7), (128, 64), (96, 130)])
def test_one_state_path_overwrites_poisoned_buffers(n_cells, m):
    # every cell the flux and slope pass reads must hold a value this call
    # wrote: nan and infinities left in the buffers raise under
    # errstate(all="raise") (inf - inf) or change the bits
    stepper, (u,) = _one_state_steps(n_cells, m, seed=m)
    expected = stepper.advance(u[None])[0]
    stepper.advance(u)
    for array in scratch._store.arrays.values():
        if array.dtype == float:
            array[...] = np.resize([np.nan, np.inf, -np.inf], array.size)
    with np.errstate(all="raise"):
        out = stepper.advance(u)
    assert out.tobytes() == expected.tobytes()


def test_one_state_path_is_thread_safe():
    # two steppers of different m take the same scratch names at other
    # shapes; run side by side, each in its own thread, they must give the
    # bits of the same steps run in one thread
    cases = [_one_state_steps(128, m, seed=m, n_steps=40) for m in (7, 64)]
    expected = [[stepper.advance(u) for u in inputs]
                for stepper, inputs in cases]
    results = [None, None]
    start = threading.Barrier(2, timeout=60.0)

    def run(index):
        stepper, inputs = cases[index]
        start.wait()
        results[index] = [stepper.advance(u) for u in inputs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for got, want in zip(results, expected):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_coarse_solve_takes_the_one_state_path(monkeypatch):
    config = ExperimentConfig(problem="burgers", ic="sin-stationary",
                              horizon=0.4, n_x=16, n_t=16, n_levels=3,
                              stepper=("matched-lf",), coarse="matched-1")
    model, grid = _burgers_grid(16)
    time_grid = TemporalGrid(config.horizon, config.n_t)
    steppers = build_steppers(config, model, grid, time_grid)
    u0 = np.sin(2 * np.pi * grid.cell_centers())[None, :]
    hierarchy = MgritHierarchy(steppers, u0, time_grid, grid,
                               MgritOptions(n_levels=3))
    coarsest = hierarchy.levels[-1]
    coarsest.u[0] = u0
    calls = []
    kernel = stepper_module._one_state_order1

    def spy(model, u, dx, step, m):
        calls.append((u.shape, m))
        return kernel(model, u, dx, step, m)

    monkeypatch.setattr(stepper_module, "_one_state_order1", spy)
    hierarchy.coarse_solve()
    assert calls == [((1, 16), 4)] * coarsest.n_intervals
    state = u0
    for i in range(1, coarsest.n_intervals + 1):
        state = steppers[-1].advance(state[None])[0] + coarsest.g[i]
        assert coarsest.u[i].tobytes() == state.tobytes()


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def test_composed_stepper_matches_manual_loop():
    model, grid = _burgers_grid(16)
    dt = 0.1 * grid.dx
    fine = MatchedLFFine(model, grid, dt)
    composed = ComposedStepper(fine, 3)
    assert composed.dt == pytest.approx(3 * dt)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, size=(1, 16))
    manual = u
    for _ in range(3):
        manual = fine.advance(manual)
    assert np.array_equal(composed.advance(u), manual)


def test_composed_stepper_rejects_zero_repeats():
    model, grid = _burgers_grid(8)
    fine = MatchedLFFine(model, grid, 0.01)
    with pytest.raises(ConfigError):
        ComposedStepper(fine, 0)


# ----------------------------------------------------------------------
# construction from a config (harness.build_steppers)
# ----------------------------------------------------------------------

def _built_levels(**keys):
    """build_steppers for a 3-level, m = 2 Burgers config on 16 cells; the
    steppers and the fine step size."""
    config = ExperimentConfig(problem="burgers", ic="sin-stationary",
                              horizon=0.4, n_x=16, n_t=16, n_levels=3, **keys)
    model, grid = _burgers_grid(16)
    time_grid = TemporalGrid(config.horizon, config.n_t)
    return build_steppers(config, model, grid, time_grid), time_grid.dt


def test_build_steppers_runge_kutta_levels():
    steppers, dt = _built_levels(stepper=("fe", "ssprk2", "ssprk3"),
                                 weno_order=(1, 3, 5), flux="roe")
    model, grid = _burgers_grid(16)
    u = np.sin(2 * np.pi * grid.cell_centers())[None, :]
    for l, stepper in enumerate(steppers):
        assert isinstance(stepper, RungeKuttaStepper)
        assert stepper.order == l + 1
        assert stepper.dt == dt * 2 ** l
        op = SemiDiscreteOperator(model, grid, FluxConfig(
            kind="roe", weno=WenoConfig(order=2 * l + 1)))
        assert np.array_equal(stepper.rhs(u), op.rhs(u))


def test_build_steppers_matched_levels():
    for coarse, order in (("matched-0", 0), ("matched-1", 1)):
        (fine, *levels), dt = _built_levels(stepper=("matched-lf",),
                                            coarse=coarse)
        assert type(fine) is MatchedLFFine and fine.dt == dt
        for l, op in enumerate(levels, start=1):
            assert type(op) is MatchedLFCoarse
            assert (op.order, op.m_effective, op.dt_fine) == (order, 2 ** l,
                                                              dt)
    (fine, *levels), dt = _built_levels(stepper=("matched-lf",),
                                        coarse="rediscretize")
    for l, op in enumerate(levels, start=1):
        assert type(op) is MatchedLFFine and op.dt == dt * 2 ** l
    (fine, *levels), dt = _built_levels(stepper=("matched-lf",),
                                        coarse="exact")
    for l, op in enumerate(levels, start=1):
        assert isinstance(op, ComposedStepper)
        assert op.inner is fine and op.repeats == 2 ** l
