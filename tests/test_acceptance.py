"""End-to-end acceptance checks, one test per shipped guarantee.

Every test exercises the public package surface only.  Tolerances are
fixed here on purpose: loosening them would change what the package
promises.  Runs of the checked-in experiment configs are memoised in
`_RUNS` so qualitative checks and the determinism check share work.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np

from mgritlab import (ExperimentConfig, FluxConfig, MatchedLFCoarse,
                      MatchedLFFine, MgritHierarchy, MgritOptions,
                      RungeKuttaStepper, SemiDiscreteOperator, SpatialGrid,
                      TemporalGrid, WenoConfig, build_tables, emit_csv,
                      experiment_table, initial_state, lf_alpha, load_config,
                      make_model, reconstruct_interface_states,
                      rel_l2_spacetime_error, run_experiment, run_sweep,
                      solve_serial, step_ssprk2, step_ssprk3)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_RUNS = {}


def _run_config(name, parallelism):
    """Run one checked-in config (memoised on name and parallelism)."""
    key = (name, parallelism)
    if key not in _RUNS:
        config = load_config(CONFIG_DIR / name)
        if config.sweep is None:
            result = run_experiment(config, parallelism=parallelism)
            _RUNS[key] = (experiment_table(result), [result])
        else:
            sweep = run_sweep(config, parallelism=parallelism)
            _RUNS[key] = (sweep.table, sweep.runs)
    return _RUNS[key]


# ----------------------------------------------------------------------
# 1. reconstruction tables are exact rationals
# ----------------------------------------------------------------------

def test_criterion_01_reconstruction_tables_exact_rationals():
    tables = build_tables(2)

    def sixths(rows):
        return tuple(tuple(Fraction(v, 6) for v in row) for row in rows)

    assert tables.exact_coeffs == sixths(
        [(2, 5, -1), (-1, 5, 2), (2, -7, 11)])
    assert tables.exact_weights == (
        Fraction(3, 10), Fraction(6, 10), Fraction(1, 10))
    assert tables.exact_smoothness == (
        sixths([(20, -31, 11), (-31, 50, -19), (11, -19, 8)]),
        sixths([(8, -13, 5), (-13, 26, -13), (5, -13, 8)]),
        sixths([(8, -19, 11), (-19, 50, -31), (11, -31, 20)]),
    )


# ----------------------------------------------------------------------
# 2. interface reconstruction converges at order 2k + 1/2 or better
# ----------------------------------------------------------------------

def _sin_cell_averages(n):
    edges = np.arange(n + 1) / n
    width = 1.0 / n
    return (np.cos(2 * np.pi * edges[:-1])
            - np.cos(2 * np.pi * edges[1:])) / (2 * np.pi * width)


def _reconstruction_rms_error(degree, n):
    tables = build_tables(degree)
    field = _sin_cell_averages(n)[None, :]
    model = make_model("burgers")
    left, _ = reconstruct_interface_states(model, field, tables, 1e-6,
                                           characteristic=False)
    exact = np.sin(2 * np.pi * np.arange(1, n + 1) / n)
    return float(np.sqrt(np.mean((left[0] - exact) ** 2)))


def test_criterion_02_reconstruction_order():
    grids = {1: (64, 128, 256, 512),
             2: (16, 32, 64, 128),
             3: (8, 16, 32, 64)}
    for degree, sizes in grids.items():
        errors = [_reconstruction_rms_error(degree, n) for n in sizes]
        slope = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope >= 2 * degree + 0.5, \
            f"degree {degree}: measured order {slope:.3f}"


# ----------------------------------------------------------------------
# 3. stepper amplification factors and nonlinear convergence order
# ----------------------------------------------------------------------

def test_criterion_03_stepper_order():
    for z in (-1.0, -0.6, 0.25, 0.7, 1.0):
        def rhs(u):
            return z * u

        one = np.ones(1)
        two_stage = step_ssprk2(rhs, one, 1.0)[0]
        three_stage = step_ssprk3(rhs, one, 1.0)[0]
        assert abs(two_stage - (1 + z + z ** 2 / 2)) <= 1e-14
        assert abs(three_stage - (1 + z + z ** 2 / 2 + z ** 3 / 6)) <= 1e-14

    # self-convergence on u' = -u^2, u(0) = 1, integrated to t = 1
    for order, floor in ((2, 1.9), (3, 2.8)):
        finals = []
        for n in (16, 32, 64, 128, 256):
            stepper = RungeKuttaStepper(lambda u: -u * u, 1.0 / n, order)
            u = np.ones(1)
            for _ in range(n):
                u = stepper.advance(u)
            finals.append(u[0])
        gaps = np.abs(np.diff(finals))
        slope = -np.polyfit(np.log([16, 32, 64, 128]), np.log(gaps), 1)[0]
        assert slope >= floor, f"order {order}: measured {slope:.3f}"


# ----------------------------------------------------------------------
# 4. componentwise mass conservation across the whole scheme grid
# ----------------------------------------------------------------------

def test_criterion_04_conservation():
    rng = np.random.default_rng(20260816)
    grid = SpatialGrid(1.0, 48)
    x = grid.cell_centers()

    def wave(base, amplitude):
        return base + amplitude * np.sin(2 * np.pi * x
                                         + rng.uniform(0, 2 * np.pi))

    def random_state(model):
        if model.kind == "burgers":
            return wave(rng.uniform(0.4, 1.0), 0.3)[None, :]
        if model.kind == "shallow-water":
            depth = wave(rng.uniform(0.9, 1.4), 0.2)
            return np.stack([depth, depth * wave(rng.uniform(0.2, 0.5), 0.1)])
        density = wave(rng.uniform(0.9, 1.4), 0.2)
        velocity = wave(rng.uniform(0.2, 0.5), 0.1)
        pressure = wave(rng.uniform(0.9, 1.4), 0.2)
        energy = pressure / (model.gamma - 1.0) + 0.5 * density * velocity ** 2
        return np.stack([density, density * velocity, energy])

    combos = list(itertools.product(("burgers", "shallow-water", "euler"),
                                    ("lf", "roe"), (1, 3, 5, 7), (1, 2, 3)))
    assert len(combos) >= 50
    for problem, flux_kind, weno_order, rk_order in combos:
        model = make_model(problem)
        state = random_state(model)
        operator = SemiDiscreteOperator(
            model, grid,
            FluxConfig(kind=flux_kind, weno=WenoConfig(order=weno_order)))
        dt = 0.2 * grid.dx / float(lf_alpha(model, np.stack([state, state])))
        stepper = RungeKuttaStepper(operator.rhs, dt, rk_order)
        totals = state.sum(axis=-1)
        for _ in range(2):
            state = stepper.advance(state)
            drift = np.abs(state.sum(axis=-1) - totals) / np.abs(totals)
            assert np.all(drift <= 1e-12), \
                (problem, flux_kind, weno_order, rk_order, drift)


# ----------------------------------------------------------------------
# 5. the Roe average reproduces the flux difference exactly
# ----------------------------------------------------------------------

def test_criterion_05_roe_linearisation():
    rng = np.random.default_rng(77)
    n = 1000
    for name in ("shallow-water", "euler"):
        model = make_model(name)

        def sample():
            if name == "shallow-water":
                depth = rng.uniform(0.3, 3.0, n)
                return np.stack([depth, depth * rng.uniform(-1, 1, n)])
            density = rng.uniform(0.3, 3.0, n)
            velocity = rng.uniform(-1.5, 1.5, n)
            pressure = rng.uniform(0.3, 3.0, n)
            energy = (pressure / (model.gamma - 1.0)
                      + 0.5 * density * velocity ** 2)
            return np.stack([density, density * velocity, energy])

        sides = np.stack([sample(), sample()])
        fluxes, _, (lam_hat, right_vec, left_vec) = model.roe_terms(sides)
        strength = np.einsum("nkd,dn->nk", left_vec, sides[1] - sides[0])
        recombined = np.einsum("nk,ndk->dn", lam_hat * strength, right_vec)
        flux_diff = fluxes[1] - fluxes[0]
        assert np.max(np.abs(recombined - flux_diff)) < 1e-8


# ----------------------------------------------------------------------
# 6. the sequential solution is a fixed point of every cycle flavour
# ----------------------------------------------------------------------

def test_criterion_06_mgrit_fixed_point():
    model = make_model("burgers")
    space_grid = SpatialGrid(1.0, 64)
    time_grid = TemporalGrid(0.2, 32)
    state0 = initial_state("sin-stationary", space_grid, 1.0)
    steppers = [MatchedLFFine(model, space_grid, time_grid.dt),
                MatchedLFCoarse(model, space_grid, time_grid.dt, 2, order=1),
                MatchedLFCoarse(model, space_grid, time_grid.dt, 4, order=1)]
    serial = solve_serial(steppers[0], state0, time_grid, space_grid,
                          model=model)
    combos = itertools.product(("v", "f"), ("f", "fcf"),
                               ("injection", "last-step"))
    for cycle, relaxation, guess in combos:
        options = MgritOptions(n_levels=3, m=2, cycle=cycle,
                               relaxation=relaxation, guess=guess)
        hierarchy = MgritHierarchy(steppers, state0, time_grid, space_grid,
                                   options)
        hierarchy.levels[0].u[:] = serial.trajectory.values
        hierarchy.run_cycle()
        drift = rel_l2_spacetime_error(hierarchy.fine_values(),
                                       serial.trajectory.values)
        assert drift <= 1e-12, (cycle, relaxation, guess, drift)


# ----------------------------------------------------------------------
# 7. an exact coarse operator solves the problem in one iteration
# ----------------------------------------------------------------------

def test_criterion_07_two_level_exactness():
    for m in (2, 4):
        config = ExperimentConfig(problem="burgers", ic="sin-stationary",
                                  horizon=0.475, n_x=64, n_t=128, n_levels=2,
                                  m=m, stepper=("matched-lf",),
                                  coarse="exact", max_iters=1)
        result = run_experiment(config)
        assert result.record.errors[1] < 1e-10, \
            f"m={m}: error {result.record.errors[1]:.3e}"


# ----------------------------------------------------------------------
# 8. matched coarse operators approximate the composed fine step
# ----------------------------------------------------------------------

def test_criterion_08_matching_asymptotics():
    model = make_model("burgers")
    grid = SpatialGrid(1.0, 64)
    field = np.sin(2 * np.pi * grid.cell_centers())[None, :]
    dts = grid.dx * np.array([0.2, 0.1, 0.05, 0.025])
    for order, floor in ((1, 1.9), (0, 0.9)):
        gaps = []
        for dt in dts:
            fine = MatchedLFFine(model, grid, dt)
            two_fold = fine.advance(fine.advance(field))
            matched = MatchedLFCoarse(model, grid, dt, 2,
                                      order=order).advance(field)
            gaps.append(np.max(np.abs(matched - two_fold)))
        slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert slope >= floor, f"order {order}: measured {slope:.3f}"


# ----------------------------------------------------------------------
# 9. qualitative shapes of the headline experiments (ordinal checks)
# ----------------------------------------------------------------------

def test_criterion_09_experiment_shapes():
    # (a) rediscretised coarse levels blow up on the stationary-shock
    #     run while both matched operators gain >= 2 orders in 10 sweeps
    table, runs = _run_config("fine_match_stationary_vcycle.cfg", 1)
    column = {name: j for j, name in enumerate(table.columns)}
    rediscretized = runs[column["coarse=rediscretize"]].record
    assert rediscretized.diverged
    assert rediscretized.diverged_at is not None
    assert rediscretized.diverged_at <= 5
    errors = rediscretized.errors
    rebound = errors[2] if np.isfinite(errors[2]) else np.inf
    assert rebound > errors[1]
    for name in ("coarse=matched-0", "coarse=matched-1"):
        history = runs[column[name]].record.errors
        assert history[10] <= 1e-2 * history[0], name

    # (b) first-order matching is at least as accurate as zeroth-order
    #     at every recorded iteration
    assert np.all(table.data[:11, column["coarse=matched-1"]]
                  <= table.data[:11, column["coarse=matched-0"]])

    # (c) the last-step restriction guess never trails injection
    table_c, _ = _run_config("restriction_guess_f_relax.cfg", 1)
    injection = table_c.data[:, table_c.columns.index(
        "restriction_guess=injection")]
    last_step = table_c.data[:, table_c.columns.index(
        "restriction_guess=last-step")]
    assert last_step[0] == injection[0]
    assert np.all(last_step[1:11] <= injection[1:11])

    # (d) iteration-10 error grows with the coarsest-level CFL number;
    #     errors at the numerical noise floor (< 1e-13) count as ties,
    #     diverged runs as infinitely bad
    table_d, runs_d = _run_config("cfl_weno5_ssprk3_roe.cfg", 1)
    iteration10 = table_d.data[10, :]
    floored = [np.inf if run.record.diverged else max(err, 1e-13)
               for err, run in zip(iteration10, runs_d)]
    by_growing_cfl = floored[::-1]  # columns are ordered by falling CFL
    assert all(a <= b for a, b in zip(by_growing_cfl, by_growing_cfl[1:]))
    # ... and the largest CFL trails the smallest at every iteration
    largest = np.nan_to_num(table_d.data[1:11, 0], nan=np.inf)
    smallest = table_d.data[1:11, -1]
    assert np.all(largest > smallest)

    # (e) with reconstruction on the coarse levels, the order-1 scheme
    #     converges best for both flux kinds, and every run sits at the
    #     intended coarsest-level CFL operating point
    for name in ("high_order_burgers_lf.cfg", "high_order_burgers_roe.cfg"):
        table_e, runs_e = _run_config(name, 1)
        final = dict(zip(table_e.columns, table_e.data[10, :]))
        best_high_order = min(final[f"weno_order={s}"] for s in (3, 5, 7))
        assert final["weno_order=1"] <= best_high_order, name
        for run in runs_e:
            assert 0.40 <= run.level_cfls[-1] <= 0.46, name


# ----------------------------------------------------------------------
# 10. the full experiment suite is deterministic across parallelism
# ----------------------------------------------------------------------

def test_criterion_10_determinism_across_parallelism(tmp_path):
    config_paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert config_paths, "no experiment configs checked in"
    for path in config_paths:
        payloads = []
        for parallelism in (1, 8):
            table, _ = _run_config(path.name, parallelism)
            out = tmp_path / f"{path.stem}-p{parallelism}.csv"
            emit_csv(table, out)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], \
            f"{path.name}: CSV differs between parallelism 1 and 8"
