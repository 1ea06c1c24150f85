"""Benchmark of mgritlab: one named workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. A run sets up the workload once, then repeats rounds of
serial reference, MGRIT solve and run_experiment column while the next
round is expected to end within S seconds (at least one round). Every
round's outputs are checked outside the timed regions. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: end-to-end metrics (round medians) with --trace 0, per-layer
metrics from spans with --trace 1. Untraced wall times at parallelism 1
are rescaled to a fixed machine speed (see speed.py); the raw ones go to
the results file. The inputs are the package's named
profiles; the seed is accepted for the calling convention and changes
nothing. Results and traces go to perfbench/results/.
"""
import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the workloads are timed on a single core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy must load after the thread settings)
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SERIAL_REPEATS = 2  # serial solves at each of a round's three points

END_TO_END_UNITS = {"setup_s": "s", "serial_s": "s", "mgrit_s": "s",
                    "column_s": "s", "mgrit_states": "states",
                    "mgrit_step_calls": "calls", "peak_rss_mb": "MB"}


def import_package():
    """mgritlab from this checkout's src/, never from anywhere else."""
    source = ROOT / "src" / "mgritlab"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {source}")
    sys.path.insert(0, str(source.parent))
    import mgritlab
    if Path(mgritlab.__file__).resolve().parent != source.resolve():
        raise SystemExit(f"perfbench: imported mgritlab from "
                         f"{mgritlab.__file__}, not from {source}")
    return mgritlab


class Setup:
    """Everything a round needs, built before the first time step."""

    def __init__(self, mgritlab, workload, parallelism: int):
        from mgritlab import harness
        self.config = mgritlab.parse_config(workload.config_text)
        config = self.config
        self.model = mgritlab.make_model(config.problem, gravity=config.gravity,
                                         gamma=config.gamma)
        self.space = mgritlab.SpatialGrid(config.length, config.n_x)
        self.time = mgritlab.TemporalGrid(config.horizon, config.n_t)
        self.state0 = harness.initial_state(config.ic, self.space,
                                            config.length)
        self.steppers = harness.build_steppers(config, self.model, self.space,
                                               self.time)
        self.options = mgritlab.MgritOptions(
            n_levels=config.n_levels, m=config.m, cycle=config.cycle,
            relaxation=config.relaxation, guess=config.restriction_guess,
            max_iters=config.max_iters,
            divergence_threshold=config.divergence_threshold,
            parallelism=parallelism)
        self.parallelism = parallelism


def run_round(mgritlab, setup: Setup, workload, tracer) -> dict:
    """Serial solves, the MGRIT solve and, untraced, serial solves, the
    run_experiment column and serial solves, each timed alone; then every
    output check. The serial solve is short, so it is timed SERIAL_REPEATS
    times at each of three points spread over the round."""
    solve_serial, mgrit_solve = mgritlab.solve_serial, mgritlab.mgrit_solve
    fine = setup.steppers[0]
    if tracer is None:
        counted = [tracing.CountingStepper(s) for s in setup.steppers]
    else:
        fine = tracer.traced_stepper(fine)
        counted = [tracer.traced_stepper(s) for s in setup.steppers]
        solve_serial = tracer.wrap(solve_serial, "serial.solve_serial")
        mgrit_solve = tracer.wrap(mgrit_solve, "mgrit.mgrit_solve")
    # [start, end] of every timed call, by metric
    out = {"attempted": 0, "failed": 0, "serial_s": [], "mgrit_s": [],
           "column_s": []}

    def timed_serial(repeats):
        """Serial solves back to back, each timed alone; their outputs."""
        outputs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run = solve_serial(fine, setup.state0, setup.time, setup.space,
                               setup.model)
            out["serial_s"].append((t0, time.perf_counter()))
            out["attempted"] += 1
            outputs.append(run.trajectory.values)
        return outputs

    # a traced round keeps one serial solve, so its spans are per solve
    reference, *repeats = timed_serial(1 if tracer is not None
                                       else SERIAL_REPEATS)
    t0 = time.perf_counter()
    trajectory, record = mgrit_solve(counted, setup.state0, setup.time,
                                     setup.space, setup.options,
                                     reference=reference)
    out["mgrit_s"].append((t0, time.perf_counter()))
    out["attempted"] += 1
    out["mgrit_states"] = sum(s.states for s in counted)
    out["mgrit_step_calls"] = sum(s.calls for s in counted)

    out["checks"] = checks.check_serial(workload, reference, setup.time.dt,
                                        setup.space.dx)
    if record.diverged:
        out["failed"] += 1
    else:
        out["checks"].update(checks.check_mgrit(trajectory.values, reference))
    if tracer is not None:
        return out

    repeats += timed_serial(SERIAL_REPEATS)
    t0 = time.perf_counter()
    column = mgritlab.run_experiment(setup.config,
                                     parallelism=setup.parallelism)
    out["column_s"].append((t0, time.perf_counter()))
    out["attempted"] += 1
    repeats += timed_serial(SERIAL_REPEATS)
    repeats.append(column.serial.trajectory.values)
    if not all((values == reference).all() for values in repeats):
        raise checks.CheckFailed("a repeated serial solve differs from the "
                                 "first one")
    if column.record.diverged:
        out["failed"] += 1
    elif not column.record.errors[-1] <= checks.FIXED_POINT_TOL:
        raise checks.CheckFailed(f"column final error "
                                 f"{column.record.errors[-1]:.3e}")
    return out


def wall_time(t0: float, t1: float) -> float:
    return t1 - t0


def end_to_end_metrics(setup_end: float, rounds: list, timer) -> dict:
    """Round medians; timer(t0, t1) turns a timed call into seconds."""
    for key in ("mgrit_states", "mgrit_step_calls"):
        if len({r[key] for r in rounds}) != 1:
            raise SystemExit(f"perfbench: {key} differs between rounds")
    values = {"setup_s": timer(PROCESS_T0, setup_end),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for key in ("serial_s", "mgrit_s", "column_s"):
        values[key] = statistics.median(
            timer(*span) for r in rounds for span in r[key])
    for key in ("mgrit_states", "mgrit_step_calls"):
        values[key] = rounds[0][key]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parallelism", type=int, default=1,
                        help="MGRIT worker threads; reference figures only")
    args = parser.parse_args(argv)
    if args.trace and args.parallelism != 1:
        parser.error("--trace 1 needs --parallelism 1")
    workload = WORKLOADS[args.workload]

    mgritlab = import_package()
    tracer = probe = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif args.parallelism == 1:
        # slices would land inside spans, or in the gaps of worker threads
        probe = speed.SpeedProbe()
        probe.start()
    setup = Setup(mgritlab, workload, args.parallelism)
    setup_end = time.perf_counter()

    rounds = []
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            rounds.append(run_round(mgritlab, setup, workload, tracer))
            now = time.perf_counter()
            if (now - start) + (now - round_start) > args.seconds:
                break
        correct, problem = True, None
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
    finally:
        if probe is not None:
            probe.stop()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if not correct:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
        metrics = {}
    elif tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, len(rounds))
    else:
        metrics = end_to_end_metrics(setup_end, rounds, probe.rescaled
                                     if probe is not None else wall_time)
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    details = {"result": result, "rounds": rounds}
    if tracer is None and correct:
        details["wall"] = end_to_end_metrics(setup_end, rounds, probe.unscaled
                                             if probe is not None
                                             else wall_time)
    if probe is not None:
        details["slices"] = probe.slices

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}.seed{args.seed}.trace{args.trace}"
    if args.parallelism != 1:
        stem += f".p{args.parallelism}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(details) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
