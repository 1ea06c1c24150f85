"""Explicit time steppers and the matched coarse-step operators.

Strong-stability-preserving Runge-Kutta steppers of orders 1..3 wrap any
semi-discrete right-hand side:

    order 1 (forward Euler):  u' = u + dt A(u)
    order 2:                  u1 = u + dt A(u)
                              u' = 1/2 u + 1/2 u1 + 1/2 dt A(u1)
    order 3:                  u1 = u + dt A(u)
                              u2 = 3/4 u + 1/4 u1 + 1/4 dt A(u1)
                              u' = 1/3 u + 2/3 u2 + 2/3 dt A(u2)

The matched family is specific to the scalar model on a periodic mesh. With
the neighbour average E(u)_i = (u_{i+1} + u_{i-1})/2 and the central
difference D(f)_i = (f_{i+1} - f_{i-1})/(2 dx), the fine step is the classic
one-step Lax-Friedrichs scheme

    Phi(u) = E u - dt D f(u),

algebraically equal to forward Euler with the LF interface flux at
dissipation speed dx/dt and first-order reconstruction. A coarse step that
emulates m fine steps is built by expanding the m-fold composition of Phi in
powers of dt and truncating:

    order 0:  E^m u - (m dt) D f(u)
    order 1:  E^m u - dt sum_{j=1..m} E^(j-1) D f(E^(m-j) u)

so the order-1 operator reproduces Phi^m up to O(dt^2) while costing m flux
evaluations instead of m full steps of the coarse-grid hierarchy's parent.
The rediscretised baseline uses the same one-step scheme with the coarse
step size: E u - (m dt) D f(u).

All of these are one kernel, lf_expansion: the fine and rediscretised steps
are its order-0 form with m = 1. It copies the field once onto its periodic
extension by p = m cells on each side (a cached gather index
arange(-p, N + p) % N, valid for p > N too) and evaluates every E and D as
a slice expression that drops one cell at each end:

    E v = 0.5 * (v[2:] + v[:-2]),   D f = (f[2:] - f[:-2]) / (2 dx).

After the m applications of E that each operator makes, exactly the N
cells of the grid remain; in the order-1 Horner loop the accumulated sum
stays two cells shorter than the averaged field, so both shrink in
lockstep. Every padded cell holds the value of the cell it wraps onto, so
each output cell goes through the same floating-point operations on the
same operands, in the same order, as the formulas on rolled copies,
0.5 * (roll(v, -1) + roll(v, 1)) and (roll(f, -1) - roll(f, 1)) / (2 dx):
results are bitwise equal to them, at any batch shape.

A batch of more than BLOCK_CELLS padded cells runs the kernel over blocks
of leading states into one output array; every operation is per cell, so
the blocks give the same bits as one call over the whole batch.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from . import scratch
from .errors import ConfigError
from .grid import SpatialGrid
from .models import Burgers, ConservationModel

# Runge-Kutta stepper names and the order of each
RK_ORDERS = {"fe": 1, "ssprk2": 2, "ssprk3": 3}


def _stage_layout(key):
    shape, n_stages = key
    return [("rk.term", shape)] + [(f"rk.stage{i}", shape)
                                   for i in range(1, n_stages)]


def _stages(u, n_stages: int):
    """This thread's dt * rhs term and intermediate stages at u's shape."""
    return scratch.buffers(_stage_layout, (np.shape(u), n_stages))


# The steps write each stage into scratch buffers with the operand order of
# the formulas in the module docstring, so `0.25 * dt * r` is
# (0.25 * dt) * r and `u / 3.0` a division; rhs results are read, never
# written. The returned array is fresh.

def step_fe(rhs: Callable, u: np.ndarray, dt: float) -> np.ndarray:
    out = np.multiply(dt, rhs(u), out=np.empty(np.shape(u)))
    return np.add(u, out, out=out)


def step_ssprk2(rhs: Callable, u: np.ndarray, dt: float) -> np.ndarray:
    term, u1 = _stages(u, 2)
    np.multiply(dt, rhs(u), out=term)
    np.add(u, term, out=u1)
    np.multiply(0.5 * dt, rhs(u1), out=term)
    out = np.multiply(0.5, u, out=np.empty(np.shape(u)))
    np.add(out, np.multiply(0.5, u1, out=u1), out=out)
    return np.add(out, term, out=out)


def step_ssprk3(rhs: Callable, u: np.ndarray, dt: float) -> np.ndarray:
    term, u1, u2 = _stages(u, 3)
    np.multiply(dt, rhs(u), out=term)
    np.add(u, term, out=u1)
    np.multiply(0.25 * dt, rhs(u1), out=term)
    np.multiply(0.75, u, out=u2)
    np.add(u2, np.multiply(0.25, u1, out=u1), out=u2)
    np.add(u2, term, out=u2)
    np.multiply((2.0 / 3.0) * dt, rhs(u2), out=term)
    out = np.divide(u, 3.0, out=np.empty(np.shape(u)))
    np.add(out, np.multiply(2.0 / 3.0, u2, out=u2), out=out)
    return np.add(out, term, out=out)


_RK_STEPS = {1: step_fe, 2: step_ssprk2, 3: step_ssprk3}


class RungeKuttaStepper:
    """SSP Runge-Kutta time stepper around a right-hand-side callable."""

    def __init__(self, rhs: Callable, dt: float, order: int):
        if order not in _RK_STEPS:
            raise ConfigError(f"no Runge-Kutta stepper of order {order}")
        if dt <= 0.0:
            raise ConfigError(f"time step must be positive, got {dt}")
        self.rhs = rhs
        self.dt = dt
        self.order = order
        self._step = _RK_STEPS[order]

    def advance(self, u: np.ndarray) -> np.ndarray:
        return self._step(self.rhs, u, self.dt)


@lru_cache(maxsize=None)
def _wrap_index(n_cells: int, pad: int) -> np.ndarray:
    """Gather index of the periodic extension by pad cells on each side."""
    index = np.arange(-pad, n_cells + pad) % n_cells
    index.setflags(write=False)
    return index


def _periodic_pad(u: np.ndarray, pad: int) -> np.ndarray:
    return u[..., _wrap_index(u.shape[-1], pad)]


def _average(v: np.ndarray) -> np.ndarray:
    """E on a padded last axis; the result is one cell shorter at each end."""
    return 0.5 * (v[..., 2:] + v[..., :-2])


def _difference(f: np.ndarray, dx: float) -> np.ndarray:
    """D on a padded last axis; the result is one cell shorter at each end."""
    return (f[..., 2:] - f[..., :-2]) / (2.0 * dx)


def lf_expansion(model: ConservationModel, u: np.ndarray, dx: float,
                 step: float, m: int, order: int) -> np.ndarray:
    """E^m u - step D f(u) (order 0) or
    E^m u - step sum_{j=1..m} E^(j-1) D f(E^(m-j) u) (order 1), evaluated
    on the periodic extension of u by m cells (see the module docstring).
    """
    padded = _periodic_pad(u, m)
    if order == 0:
        core = padded[..., m - 1:padded.shape[-1] - m + 1]
        slope = _difference(model.flux(core), dx)
        for _ in range(m):
            padded = _average(padded)
        return padded - step * slope
    # Horner form: acc after the loop equals
    # sum_{j=1..m} E^(j-1) D f(E^(m-j) u) and v equals E^(m-1) u
    acc = _difference(model.flux(padded), dx)
    v = padded
    for _ in range(m - 1):
        v = _average(v)
        acc = _average(acc) + _difference(model.flux(v), dx)
    return _average(v) - step * acc


# Padded cells, (N + 2m) per state, per kernel call of a batched matched
# step: each temporary stays a few hundred KiB, which the allocator keeps
# between calls instead of mapping and page-faulting it afresh, and a block
# costs a handful of numpy calls (README, "Kernel forms", has the measured
# block-size curve).
BLOCK_CELLS = 32768


class MatchedLFCoarse:
    """Truncated expansion of Phi^m, matching the fine scheme to the given
    order in dt; one application stands in for m_effective fine steps."""

    def __init__(self, model: ConservationModel, space_grid: SpatialGrid,
                 dt_fine: float, m_effective: int, order: int):
        if not isinstance(model, Burgers):
            raise ConfigError(f"matched-lf steppers are defined for the "
                              f"scalar model only, got '{model.kind}'")
        if order not in (0, 1):
            raise ConfigError(f"matched coarse operators exist for orders 0 "
                              f"and 1, got {order}")
        if m_effective < 1:
            raise ConfigError(f"m_effective must be >= 1, got {m_effective}")
        self.model = model
        self.dx = space_grid.dx
        self.dt_fine = dt_fine
        self.m_effective = m_effective
        self.order = order
        self.dt = dt_fine * m_effective
        self._step = self.dt if order == 0 else dt_fine
        n_cells = space_grid.n_cells
        self._block_states = max(1, BLOCK_CELLS // (n_cells + 2 * m_effective))
        self._unblocked_size = self._block_states * n_cells

    def advance(self, u: np.ndarray) -> np.ndarray:
        if u.size <= self._unblocked_size or u.ndim < 3:
            return lf_expansion(self.model, u, self.dx, self._step,
                                self.m_effective, self.order)
        states = u.reshape((-1,) + u.shape[-2:])
        out = np.empty(u.shape)
        out_states = out.reshape(states.shape)
        for start in range(0, len(states), self._block_states):
            block = slice(start, start + self._block_states)
            out_states[block] = lf_expansion(self.model, states[block],
                                             self.dx, self._step,
                                             self.m_effective, self.order)
        return out


class MatchedLFFine(MatchedLFCoarse):
    """One-step Lax-Friedrichs scheme Phi(u) = E u - dt D f(u): the order-0
    expansion of one step. Built with a coarse step size it is the
    rediscretised coarse operator."""

    def __init__(self, model: ConservationModel, space_grid: SpatialGrid,
                 dt: float):
        super().__init__(model, space_grid, dt, 1, 0)


class ComposedStepper:
    """Exact repeats-fold composition of another one-step operator.

    Useful as a reference coarse operator: composing the fine step m times
    reproduces the fine trajectory on the coarse nodes exactly, at the cost
    of m fine steps per application.
    """

    def __init__(self, inner, repeats: int):
        if repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {repeats}")
        self.inner = inner
        self.repeats = repeats
        self.dt = inner.dt * repeats

    def advance(self, u: np.ndarray) -> np.ndarray:
        for _ in range(self.repeats):
            u = self.inner.advance(u)
        return u
