"""Work counters and the opt-in span trace, attached from outside the package.

CountingStepper wraps one level's stepper and counts batched advance calls
and the single-field states they advance; it runs in every benchmark run.

Tracer records a span (name, parent, start, end, work count) around each
call into a public function or method of the package. install() swaps the
traced versions into the package's modules and classes for the rest of the
process, so it is only called by a traced run. Spans stay in memory until
the run ends; layer_metrics() then turns them into self times and counts.
"""
from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import defaultdict

MAX_LEVELS = 7  # deepest hierarchy among the workloads (burgers-matched-cfl)

# Spans reported once per process; every other layer metric is per round.
ONCE_PER_PROCESS = ("harness.build_steppers",)


def batch_size(u) -> int:
    """Single-field states in a (..., D, N) array."""
    return math.prod(u.shape[:-2])


class CountingStepper:
    """Forwards advance() to a level's stepper, counting calls and states."""

    def __init__(self, inner):
        self.inner = inner
        self.dt = inner.dt
        self.calls = 0
        self.states = 0
        self._lock = threading.Lock()  # worker threads share one level

    def advance(self, u):
        with self._lock:
            self.calls += 1
            self.states += batch_size(u)
        return self.inner.advance(u)


def _layer_metric_names() -> list:
    """(name, unit) of every per-layer metric; `<span>.<kind>`."""
    names = []
    for method in ("eigen_cells", "roe_eigen", "eigenvalues", "max_abs_speed",
                   "flux"):
        names.append((f"models.{method}.self_s", "s"))
    names.append(("models.flux.cells", "cells"))
    names += [("weno.reconstruct_left.self_s", "s"),
              ("weno.reconstruct_left.windows", "windows"),
              ("weno.reconstruct_interface_states.self_s", "s"),
              ("flux.rhs.self_s", "s"), ("flux.rhs.calls", "calls"),
              ("flux.roe_flux.self_s", "s"), ("flux.lf_flux.self_s", "s"),
              ("flux.lf_alpha.self_s", "s"),
              ("stepper.advance.self_s", "s"),
              ("stepper.advance.states", "states"),
              ("serial.solve_serial.self_s", "s"),
              ("serial.solve_serial.wall_s", "s"),
              ("mgrit.mgrit_solve.self_s", "s"),
              ("mgrit.mgrit_solve.wall_s", "s"),
              ("grid.rel_l2_spacetime_error.self_s", "s"),
              ("harness.build_steppers.self_s", "s")]
    for phase in ("f_relax", "c_relax", "restrict"):
        for level in range(MAX_LEVELS - 1):
            names += [(f"mgrit.{phase}.L{level}.self_s", "s"),
                      (f"mgrit.{phase}.L{level}.states", "states")]
    # interpolate's states belong to the F-relaxation it ends with
    names += [(f"mgrit.interpolate.L{level}.self_s", "s")
              for level in range(MAX_LEVELS - 1)]
    for level in range(1, MAX_LEVELS):
        names += [(f"mgrit.coarse_solve.L{level}.self_s", "s"),
                  (f"mgrit.coarse_solve.L{level}.states", "states")]
    names += [("mgrit.residual_norm.L0.self_s", "s"),
              ("mgrit.residual_norm.L0.states", "states")]
    return names


LAYER_METRICS = _layer_metric_names()


class Tracer:
    """Single-threaded span recorder; spans are [name, parent, t0, t1, count]."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # indices of the spans now running

    def wrap(self, fn, name, count=None):
        """fn with a span around each call; name may be a function of the
        call's arguments, count gives the call's work count."""
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            record = [label, open_spans[-1] if open_spans else -1, 0.0, 0.0,
                      count(*args, **kwargs) if count else 0]
            open_spans.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                open_spans.pop()

        return traced

    def traced_stepper(self, stepper) -> CountingStepper:
        proxy = CountingStepper(stepper)
        proxy.advance = self.wrap(proxy.advance, "stepper.advance", batch_size)
        return proxy

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, parent, start, end, count) in enumerate(self.spans):
                out.write(json.dumps([index, parent, name, start, end, count])
                          + "\n")


def install(tracer: Tracer) -> None:
    """Route the package's public calls through tracer spans."""
    from mgritlab import flux, harness, mgrit, models, weno

    def cells(self, u):
        return u.size // u.shape[-2]

    for cls in (models.Burgers, models.ShallowWater, models.Euler):
        for method in ("flux", "eigenvalues", "max_abs_speed", "eigen_cells",
                       "roe_eigen"):
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(
                    vars(cls)[method], f"models.{method}",
                    cells if method == "flux" else None))
    weno.reconstruct_left = tracer.wrap(
        weno.reconstruct_left, "weno.reconstruct_left",
        lambda tables, eps, window: window.size // window.shape[-1])
    # flux.py holds its own reference to the interface reconstruction
    flux.reconstruct_interface_states = tracer.wrap(
        weno.reconstruct_interface_states, "weno.reconstruct_interface_states")
    flux.SemiDiscreteOperator.rhs = tracer.wrap(
        flux.SemiDiscreteOperator.rhs, "flux.rhs", lambda self, u: 1)
    for fn in ("roe_flux", "lf_flux", "lf_alpha"):
        setattr(flux, fn, tracer.wrap(getattr(flux, fn), f"flux.{fn}"))
    mgrit.rel_l2_spacetime_error = tracer.wrap(
        mgrit.rel_l2_spacetime_error, "grid.rel_l2_spacetime_error")
    hierarchy = mgrit.MgritHierarchy
    for phase in ("f_relax", "c_relax", "restrict", "interpolate"):
        setattr(hierarchy, phase, tracer.wrap(
            getattr(hierarchy, phase),
            lambda self, l, _phase=phase: f"mgrit.{_phase}.L{l}"))
    hierarchy.coarse_solve = tracer.wrap(
        hierarchy.coarse_solve,
        lambda self: f"mgrit.coarse_solve.L{len(self.levels) - 1}")
    hierarchy.residual_norm = tracer.wrap(hierarchy.residual_norm,
                                          "mgrit.residual_norm.L0")
    harness.build_steppers = tracer.wrap(harness.build_steppers,
                                         "harness.build_steppers")


def _is_phase(name: str) -> bool:
    return name.startswith("mgrit.") and name != "mgrit.mgrit_solve"


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-layer metrics: self time (duration less child spans), wall time
    and work counts, per round except for ONCE_PER_PROCESS spans. A stepper
    call's states also count for the innermost MGRIT phase around it."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {kind: defaultdict(float) for kind in ("self_s", "wall_s")}
    work = defaultdict(int)
    for index, (name, parent, start, end, count) in enumerate(spans):
        totals["wall_s"][name] += end - start
        totals["self_s"][name] += end - start - child_time[index]
        work[name] += count
        if name == "stepper.advance":
            while parent >= 0 and not _is_phase(spans[parent][0]):
                parent = spans[parent][1]
            if parent >= 0:
                work[spans[parent][0]] += count
    metrics = {}
    for metric, unit in LAYER_METRICS:
        span, kind = metric.rsplit(".", 1)
        value = totals[kind][span] if kind in totals else work[span]
        if span not in ONCE_PER_PROCESS:
            value = value / rounds
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
