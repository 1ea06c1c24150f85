"""The per-thread scratch buffers of the Runge-Kutta/WENO path: a step keeps
the bits of the plain formulas, results do not depend on what ran before in
the thread, results that callers keep are never buffers, and a warm batched
step allocates almost nothing."""
import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mgritlab import (
    FluxConfig,
    RungeKuttaStepper,
    SemiDiscreteOperator,
    SpatialGrid,
    WenoConfig,
    build_tables,
    lf_alpha,
    lf_flux,
    make_model,
    reconstruct_interface_states,
    reconstruct_pair,
    roe_flux,
)
from mgritlab import scratch

N_CELLS = 16
THREAD_TIMEOUT = 60.0


def _states(kind, seed, batch, n_cells=N_CELLS):
    """Smooth admissible (*batch, D, N) states, different for each seed."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n_cells) + 0.5) / n_cells
    phase = rng.uniform(0.0, 2 * np.pi, batch + (1,))

    def wave(lo, hi):
        return (lo + hi) / 2 + (hi - lo) / 2 * np.sin(2 * np.pi * x + phase)

    velocity = wave(-1.0, 1.0)
    if kind == "burgers":
        return velocity[..., None, :]
    density = wave(0.5, 2.0)
    if kind == "shallow-water":
        return np.stack([density, density * velocity], axis=-2)
    energy = wave(0.5, 2.0) / (5.0 / 3.0 - 1.0) \
        + 0.5 * density * velocity * velocity
    return np.stack([density, density * velocity, energy], axis=-2)


def _stepper(kind, flux, characteristic, degree):
    op = SemiDiscreteOperator(
        make_model(kind), SpatialGrid(1.0, N_CELLS),
        FluxConfig(kind=flux, weno=WenoConfig(order=2 * degree + 1,
                                              characteristic=characteristic)))
    return RungeKuttaStepper(op.rhs, 1e-3, 3)


def _plain_ssprk3(rhs, u, dt):
    """The SSP-RK3 formulas as plain expressions, every stage fresh."""
    u1 = u + dt * rhs(u)
    u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * rhs(u1)
    return u / 3.0 + (2.0 / 3.0) * u2 + (2.0 / 3.0) * dt * rhs(u2)


def _in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose scratch store starts empty."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)))
    worker.start()
    worker.join(THREAD_TIMEOUT)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


def _held_arrays():
    """The calling thread's scratch arrays."""
    return list(scratch._store.arrays.values())


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["burgers", "shallow-water", "euler"]),
       flux=st.sampled_from(["lf", "roe"]),
       characteristic=st.booleans(), degree=st.integers(1, 3),
       batches=st.lists(st.sampled_from([(), (40,), (7,), (2, 3), (1,)]),
                        min_size=2, max_size=5))
def test_results_do_not_depend_on_earlier_calls(kind, flux, characteristic,
                                                degree, batches):
    stepper = _stepper(kind, flux, characteristic, degree)
    inputs = [_states(kind, seed, batch) for seed, batch in enumerate(batches)]
    results = [stepper.advance(u) for u in inputs]
    kept = [r.copy() for r in results]
    for u, result, copy in zip(inputs, results, kept):
        assert result.tobytes() == copy.tobytes()  # no later call wrote it
        fresh = _in_fresh_thread(stepper.advance, u)
        assert result.shape == fresh.shape
        assert result.tobytes() == fresh.tobytes()
        plain = _plain_ssprk3(stepper.rhs, u, stepper.dt)
        assert result.tobytes() == plain.tobytes()


def test_advance_returns_neither_its_input_nor_a_buffer():
    for kind, flux in (("euler", "roe"), ("shallow-water", "lf")):
        stepper = _stepper(kind, flux, True, 2)
        u = _states(kind, 0, (5,))
        out = stepper.advance(u)
        again = stepper.advance(u)
        assert not np.shares_memory(out, u)
        assert not np.shares_memory(out, again)
        for flat in _held_arrays():
            assert not np.shares_memory(out, flat)


def _leaves(result):
    """The arrays of a kernel's result, which may nest tuples of them."""
    if isinstance(result, tuple):
        return [leaf for part in result for leaf in _leaves(part)]
    return [result]


def _nan_like(result):
    """A NaN-filled out of the result's structure, shapes and dtypes."""
    if isinstance(result, tuple):
        return tuple(_nan_like(part) for part in result)
    return np.full_like(result, np.nan)


def test_public_kernels_return_arrays_of_their_own():
    # with no out, a kernel's result shares no memory with the scratch
    # store; a given out is returned as is, holding the same bits
    tables = build_tables(2)
    for kind in ("burgers", "shallow-water", "euler"):
        model = make_model(kind)
        field = _states(kind, 1, (3,))
        op = SemiDiscreteOperator(model, SpatialGrid(1.0, N_CELLS),
                                  FluxConfig(kind="roe",
                                             weno=WenoConfig(order=5)))
        sides = reconstruct_interface_states(model, field, tables, 1e-6)
        alpha = lf_alpha(model, sides)
        kernels = {
            "reconstruct_interface_states":
                lambda out: reconstruct_interface_states(
                    model, field, tables, 1e-6, out=out),
            "reconstruct_pair": lambda out: reconstruct_pair(
                tables, 1e-6, field[..., :tables.window], out=out),
            "lf_flux": lambda out: lf_flux(model, sides, alpha, out=out),
            "roe_flux": lambda out: roe_flux(model, sides, out=out),
            "max_abs_speed": lambda out: model.max_abs_speed(field, out=out),
            "eigen_cells": lambda out: model.eigen_cells(field, out=out),
            "roe_terms": lambda out: model.roe_terms(sides, out=out),
        }
        results = [sides, alpha, op.rhs(field), model.flux(field)]
        for name, kernel in kernels.items():
            fresh = kernel(None)
            out = _nan_like(fresh)
            assert kernel(out) is out, (kind, name)
            for given, want in zip(_leaves(out), _leaves(fresh)):
                assert given.tobytes() == want.tobytes(), (kind, name)
            results += _leaves(fresh)
        for result in results:
            for flat in _held_arrays():
                assert not np.shares_memory(result, flat), kind


def test_threads_keep_their_own_buffers():
    # more workers than cores, each stepping its own batch shapes, with
    # frequent thread switches: a buffer shared between threads would mix
    # their results
    stepper = _stepper("euler", "roe", True, 2)
    inputs = [_states("euler", seed, (seed % 3 + 1,)) for seed in range(6)]
    expected = [stepper.advance(u) for u in inputs]
    got = [[] for _ in inputs]

    def work(i):
        for _ in range(5):
            got[i].append(stepper.advance(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,))
                   for i in range(len(inputs))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(THREAD_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for want, results in zip(expected, got):
        assert len(results) == 5
        for result in results:
            assert result.tobytes() == want.tobytes()


def test_warm_batched_step_allocates_little():
    # one SSP-RK3 WENO5-Roe step on 200 Euler states of 64 cells, as the
    # finest level of the benchmark's Euler workload advances them. Its
    # temporaries peaked at 7.3 MB (23 states) when every call allocated
    # its own; with the scratch buffers warm, what is left is the rhs
    # results and the returned state.
    op = SemiDiscreteOperator(make_model("euler"), SpatialGrid(1.0, 64),
                              FluxConfig(kind="roe", weno=WenoConfig(order=5)))
    stepper = RungeKuttaStepper(op.rhs, 1e-3, 3)
    u = _states("euler", 2, (200,), n_cells=64)
    stepper.advance(u)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stepper.advance(u)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * u.nbytes, peak
