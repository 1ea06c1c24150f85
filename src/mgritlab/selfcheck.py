"""The checks behind `mgritlab verify`; the test suite runs the same ones.

Each check re-derives an expected value from an independent construction
(closed forms, telescoping identities, exact solves) and compares the
package against it, returning (ok, detail). The MGRIT and determinism
checks make their objects as a run does (harness._setup, run_experiment,
run_sweep). The test suite runs every entry of CHECKS as a test of its own
name, so each check is written once, here; the symbolic derivation of the
tables stays in the test suite.
"""
from __future__ import annotations

import dataclasses
import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .flux import FluxConfig, SemiDiscreteOperator, WenoConfig, lf_flux, roe_flux
from .grid import SpatialGrid, rel_l2_spacetime_error
from .harness import (ExperimentConfig, _setup, emit_csv, run_experiment,
                      run_sweep)
from .mgrit import MgritHierarchy
from .models import Burgers, make_model
from .serial import solve_serial
from .stepper import (MatchedLFFine, RungeKuttaStepper, step_fe, step_ssprk2,
                      step_ssprk3)
from .weno import (DEFAULT_EPSILON, build_tables, nonlinear_weights,
                   reconstruct_interface_states, reconstruct_left)


def _sixths(rows):
    return tuple(tuple(Fraction(v, 6) for v in row) for row in rows)


def _check_weno_tables():
    tables = build_tables(2)
    ok = (tables.exact_coeffs == _sixths([[2, 5, -1], [-1, 5, 2],
                                          [2, -7, 11]])
          and tables.exact_weights == (Fraction(3, 10), Fraction(6, 10),
                                       Fraction(1, 10))
          and tables.exact_smoothness == (
              _sixths([[20, -31, 11], [-31, 50, -19], [11, -19, 8]]),
              _sixths([[8, -13, 5], [-13, 26, -13], [5, -13, 8]]),
              _sixths([[8, -19, 11], [-19, 50, -31], [11, -31, 20]]))
          and list(tables.weights) == [0.3, 0.6, 0.1])
    return ok, "k=2 tables equal the frozen rational values"


def _check_weno_exactness():
    # candidate combination must reproduce smooth data at high order
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in (1, 2, 3):
        tables = build_tables(k)
        coeffs = rng.normal(size=k + 1)  # polynomial of degree k
        n = 2 * k + 1
        edges = np.arange(n + 1) - k  # cell i spans [0, 1]
        prim = np.polynomial.polynomial.polyint(coeffs)
        averages = np.diff(np.polynomial.polynomial.polyval(edges, prim))
        exact = np.polynomial.polynomial.polyval(1.0, coeffs)
        got = reconstruct_left(tables, 1e-6, averages[None, :])[0]
        worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    return worst < 1e-7, f"degree-k data reconstructed, worst rel err {worst:.2e}"


def _check_weights_convex():
    rng = np.random.default_rng(11)
    for k in (0, 1, 2, 3):
        tables = build_tables(k)
        win = rng.normal(size=(100, 2 * k + 1))
        w = nonlinear_weights(tables, 1e-6, win)
        if np.any(w < 0) or np.max(np.abs(np.sum(w, axis=-1) - 1.0)) > 1e-13:
            return False, f"weights not convex for k={k}"
    return True, "nonlinear weights stay convex"


def _check_amplification():
    # on u' = lam u one step multiplies by the stepper's Taylor polynomial
    # of exp(z), z = lam dt
    worst = 0.0
    one = np.ones(1)
    for lam, dt in ((-1.0, 1.0), (-0.5, 1.0), (0.25, 1.0), (1.0, 1.0),
                    (-0.731, 0.23), (-0.731, 0.057)):
        z = lam * dt
        for step, factor in ((step_fe, 1 + z),
                             (step_ssprk2, 1 + z + z * z / 2),
                             (step_ssprk3, 1 + z + z * z / 2 + z ** 3 / 6)):
            worst = max(worst, abs(step(lambda u: lam * u, one, dt)[0]
                                   - factor))
    return worst < 1e-14, f"linear amplification, worst err {worst:.2e}"


def _admissible_state(model, draw):
    """A state whose primitives draw(lo, hi) gives: depth or density and
    pressure in [0.3, 3], velocity (the Burgers field) in [-1.5, 1.5]."""
    velocity = draw(-1.5, 1.5)
    if model.kind == "burgers":
        return velocity[None, :]
    density = draw(0.3, 3.0)
    if model.kind == "shallow-water":
        return np.stack([density, density * velocity])
    energy = (draw(0.3, 3.0) / (model.gamma - 1.0)
              + 0.5 * density * velocity * velocity)
    return np.stack([density, density * velocity, energy])


def _check_conservation():
    rng = np.random.default_rng(23)
    grid = SpatialGrid(1.0, 48)

    def smooth(lo, hi):  # overshoot-safe for reconstruction
        phase = rng.uniform(0, 2 * np.pi)
        return (lo + hi) / 2 + (hi - lo) / 2 * np.sin(
            2 * np.pi * grid.cell_centers() + phase)

    worst = 0.0
    for kind, flux_kind in itertools.product(
            ("burgers", "shallow-water", "euler"), ("lf", "roe")):
        model = make_model(kind)
        op = SemiDiscreteOperator(model, grid, FluxConfig(
            kind=flux_kind, weno=WenoConfig(order=5)))
        state = _admissible_state(model, smooth)
        stepped = RungeKuttaStepper(op.rhs, 1e-4, 3).advance(state)
        drift = np.abs(np.sum(stepped, axis=-1) - np.sum(state, axis=-1))
        scale = np.maximum(np.abs(np.sum(state, axis=-1)), 1.0)
        worst = max(worst, float(np.max(drift / scale)))
    return worst < 1e-12, f"cell sums preserved, worst drift {worst:.2e}"


def _check_roe_linearisation():
    # sum_k lam_k a_k r_k over the Roe waves is exactly f(uR) - f(uL)
    rng = np.random.default_rng(5)

    def draw(lo, hi):
        return rng.uniform(lo, hi, 1000)

    worst = 0.0
    for kind in ("shallow-water", "euler"):
        model = make_model(kind)
        sides = np.stack([_admissible_state(model, draw),
                          _admissible_state(model, draw)])
        fluxes, _, (lam, right, left) = model.roe_terms(sides)
        strength = (left @ (sides[1] - sides[0]).T[..., None])[..., 0]
        assembled = (right @ (lam * strength)[..., None])[..., 0].T
        jump = fluxes[1] - fluxes[0]
        worst = max(worst, float(np.max(np.abs(assembled - jump))))
    return worst < 1e-10, f"flux differences linearised, worst {worst:.2e}"


def _check_roe_upwind():
    model = Burgers()
    shock = roe_flux(model, np.array([[[2.0]], [[0.0]]]))[0, 0]
    transonic = roe_flux(model, np.array([[[-1.0]], [[1.0]]]))[0, 0]
    ok = abs(shock - 2.0) < 1e-14 and abs(transonic) < 1e-14
    return ok, f"shock flux {shock}, transonic flux {transonic}"


def _check_matched_fine():
    model = Burgers()
    grid = SpatialGrid(1.0, 64)
    dt = 0.3 * grid.dx
    rng = np.random.default_rng(3)
    u = rng.normal(size=(1, grid.n_cells))
    matched = MatchedLFFine(model, grid, dt).advance(u)
    tables = build_tables(0)
    alpha = grid.dx / dt

    def rhs(state):
        f = lf_flux(model, reconstruct_interface_states(model, state, tables,
                                                        DEFAULT_EPSILON),
                    np.full(state.shape[:-2], alpha))
        return -(f - np.roll(f, 1, axis=-1)) / grid.dx

    euler_step = step_fe(rhs, u, dt)
    err = float(np.max(np.abs(matched - euler_step)))
    return err < 1e-12, f"matched fine vs FE+LF, max err {err:.2e}"


def _burgers_config(**keys):
    fields = dict(problem="burgers", ic="sin-moving", horizon=0.2, n_x=32,
                  n_t=64, n_levels=3, stepper=("ssprk3",), weno_order=(3,))
    return ExperimentConfig(**{**fields, **keys})


def _check_fixed_point():
    setup = _setup(_burgers_config())
    serial = solve_serial(setup.steppers[0], setup.state0, setup.time_grid,
                          setup.space_grid).trajectory.values
    worst = 0.0
    for cycle, relaxation, guess in itertools.product(
            ("v", "f"), ("f", "fcf"), ("injection", "last-step")):
        options = dataclasses.replace(setup.options, cycle=cycle,
                                      relaxation=relaxation, guess=guess)
        h = MgritHierarchy(setup.steppers, setup.state0, setup.time_grid,
                           setup.space_grid, options)
        h.levels[0].u[:] = serial
        h.run_cycle()
        worst = max(worst, rel_l2_spacetime_error(h.fine_values(), serial))
    return worst < 1e-12, f"exact solutions stay fixed, worst {worst:.2e}"


def _check_two_level_exactness():
    worst = max(run_experiment(_burgers_config(
        n_x=64, n_t=128, n_levels=2, m=m, coarse="exact",
        max_iters=1)).record.errors[1] for m in (2, 4))
    return worst < 1e-10, f"two-level exact coarse, worst {worst:.2e}"


def _check_determinism():
    config = _burgers_config(horizon=0.25, stepper=("ssprk2",), flux="roe",
                             max_iters=4, sweep="weno_order",
                             sweep_values=("1", "3"))
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        for parallelism in (1, 4):
            result = run_sweep(config, parallelism=parallelism)
            path = Path(tmp) / f"p{parallelism}.csv"
            emit_csv(result.table, path)
            payloads.append(path.read_bytes())
    return payloads[0] == payloads[1], "parallelism 1 vs 4 CSVs byte-identical"


CHECKS = [
    ("weno-tables", _check_weno_tables),
    ("weno-exactness", _check_weno_exactness),
    ("weno-weights", _check_weights_convex),
    ("stepper-amplification", _check_amplification),
    ("conservation", _check_conservation),
    ("roe-linearisation", _check_roe_linearisation),
    ("roe-upwind", _check_roe_upwind),
    ("matched-fine-equivalence", _check_matched_fine),
    ("mgrit-fixed-point", _check_fixed_point),
    ("mgrit-two-level-exactness", _check_two_level_exactness),
    ("determinism", _check_determinism),
]


def run_verification(out=print) -> bool:
    all_ok = True
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
