"""Tests of the benchmark itself: every output check rejects a perturbed
trajectory, the span and rescaling arithmetic, and agreement with
BENCHMARK.json.

    python3 -m pytest perfbench
"""
import dataclasses
import json
import time

import pytest

import checks
import run
import speed
import tracing
from workloads import WORKLOADS

mgritlab = run.import_package()

# small grids of each workload, so the serial run takes milliseconds
SMALL = {"euler-weno5-roe": (16, 8), "burgers-matched-cfl": (16, 64),
         "sw-weno3-lf-fcf": (16, 8)}


def serial_trajectory(name):
    from mgritlab import harness
    n_x, n_t = SMALL[name]
    config = dataclasses.replace(
        mgritlab.parse_config(WORKLOADS[name].config_text), n_x=n_x, n_t=n_t)
    model = mgritlab.make_model(config.problem)
    space = mgritlab.SpatialGrid(config.length, n_x)
    time_grid = mgritlab.TemporalGrid(config.horizon, n_t)
    steppers = harness.build_steppers(config, model, space, time_grid)
    state0 = harness.initial_state(config.ic, space, config.length)
    serial = mgritlab.solve_serial(steppers[0], state0, time_grid, space)
    return serial.trajectory.values, time_grid.dt, space.dx


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unperturbed_trajectories_pass(name):
    values, dt, dx = serial_trajectory(name)
    measured = checks.check_serial(WORKLOADS[name], values, dt, dx)
    measured.update(checks.check_mgrit(values.copy(), values))
    assert measured["mgrit_fixed_point"] == 0.0
    assert ("serial_vs_lax_friedrichs" in measured) == \
        WORKLOADS[name].matched_lf


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_point_rejects_perturbed_iterate(name):
    values, _, _ = serial_trajectory(name)
    perturbed = values.copy()
    perturbed[3, 0, 5] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="fixed point"):
        checks.check_mgrit(perturbed, values)


@pytest.mark.parametrize("name", ["euler-weno5-roe", "sw-weno3-lf-fcf"])
def test_conservation_rejects_shift_that_keeps_symmetry(name):
    # a constant added to the even first component keeps the mirror
    values, dt, dx = serial_trajectory(name)
    perturbed = values.copy()
    perturbed[4, 0, :] += 1e-9
    assert checks.mirror_defect(perturbed, WORKLOADS[name].mirror_index(16),
                                WORKLOADS[name].parity) <= checks.MIRROR_TOL
    with pytest.raises(checks.CheckFailed, match="serial conservation"):
        checks.check_serial(WORKLOADS[name], perturbed, dt, dx)
    with pytest.raises(checks.CheckFailed, match="MGRIT conservation"):
        checks.check_mgrit(perturbed, perturbed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_mirror_rejects_swap_that_keeps_sums(name):
    values, dt, dx = serial_trajectory(name)
    perturbed = values.copy()
    perturbed[2, 0, 3] += 1e-9
    perturbed[2, 0, 4] -= 1e-9
    assert checks.conservation_drift(perturbed) <= checks.CONSERVATION_TOL
    with pytest.raises(checks.CheckFailed, match="reflection symmetry"):
        checks.check_serial(WORKLOADS[name], perturbed, dt, dx)


def test_lax_friedrichs_rejects_change_that_keeps_sums_and_mirror():
    workload = WORKLOADS["burgers-matched-cfl"]
    values, dt, dx = serial_trajectory(workload.name)
    perturbed = values.copy()
    cell = 3
    mirror = workload.mirror_index(16) - cell  # odd parity: u_mirror = -u
    perturbed[7, 0, cell] += 1e-9
    perturbed[7, 0, mirror] -= 1e-9
    assert checks.conservation_drift(perturbed) <= checks.CONSERVATION_TOL
    with pytest.raises(checks.CheckFailed, match="Lax-Friedrichs"):
        checks.check_serial(workload, perturbed, dt, dx)


def test_layer_metrics_self_time_and_phase_states():
    spans = [["mgrit.interpolate.L0", -1, 0.0, 10.0, 0],
             ["mgrit.f_relax.L0", 0, 1.0, 9.0, 0],
             ["stepper.advance", 1, 2.0, 6.0, 5],
             ["models.flux", 2, 3.0, 4.0, 80],
             ["stepper.advance", -1, 11.0, 12.0, 1]]
    metrics = {k: v["value"] for k, v in
               tracing.layer_metrics(spans, rounds=2).items()}
    assert metrics["mgrit.interpolate.L0.self_s"] == pytest.approx(1.0)
    assert metrics["mgrit.f_relax.L0.self_s"] == pytest.approx(2.0)
    assert metrics["mgrit.f_relax.L0.states"] == 2.5
    assert metrics["stepper.advance.self_s"] == pytest.approx(2.0)
    assert metrics["stepper.advance.states"] == 3.0
    assert metrics["models.flux.cells"] == 40.0


def test_rescaled_time_leaves_out_slices_and_scales_each_piece():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_SLICE_S
    assert speed.WINDOW == 3
    # slices at the reference speed and at half of it; a piece is scaled
    # by the median of the seven slices centred on the one that ends it
    durations = [ref, 2 * ref, 2 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    starts = [0.5, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    probe.slices = [(t, t + d) for t, d in zip(starts, durations)]
    # [0.2, 2.0]: 0.3 s before slice 0 (median of slices 0-3: 1.5 ref),
    # 0.5 - ref s before slice 1 (slices 0-4: ref), then 1.0 - 2 ref s
    # before slice 2 (slices 0-5: 1.5 ref)
    expected = 0.3 / 1.5 + (0.5 - ref) + (2.0 - 1.0 - 2 * ref) / 1.5
    assert probe.rescaled(0.2, 2.0) == pytest.approx(expected)
    assert probe.unscaled(0.2, 2.0) == pytest.approx(1.8 - 3 * ref)
    # slice 7 ends the region, the median of slices 4-7 is 2 ref
    assert probe.rescaled(7.5, 8.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        probe.rescaled(8.5, 9.0)


def test_probe_slices_run_during_a_timed_region():
    probe = speed.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * speed.PERIOD_S:
        pass
    t1 = time.perf_counter()
    probe.stop()
    inside = [s for s in probe.slices if t0 < s[0] < t1]
    assert len(inside) >= 2
    assert probe.slices[-1][0] > t1
    assert probe.rescaled(t0, t1) > 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.LAYER_METRICS
