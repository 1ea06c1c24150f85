"""Multigrid-reduction-in-time iteration over a hierarchy of time grids.

Level l holds every m-th node of level l-1; the finest level is l = 0. Each
level carries an iterate u (one state per node), a right-hand side g (zero
on the finest level except node 0, which pins the initial condition), and a
one-step propagator Phi_l. The solved system per level is

    u^0 = g^0,   u^i = Phi_l(u^{i-1}) + g^i   (i >= 1).

Relaxation sweeps run chunkwise: F-relaxation recomputes the nodes strictly
between consecutive coarse nodes from the coarse node on their left;
C-relaxation recomputes each coarse node from its left neighbour. Chunks
never read what another chunk writes, so they advance as one batched
operation, and a parallelism degree only slices that batch across worker
threads; results are bitwise identical for any degree. A sweep reads and
writes every m-th node through strided views of the level's arrays and
hands each stepper a contiguous copy of the states it advances.

Coarsening is a full-approximation-scheme restriction: with i the coarse
node index and mi its fine counterpart,

    g_{l+1}^i = g_l^{mi} + Phi_l(u_l^{mi-1}) - Phi_{l+1}(u_l^{m(i-1)})

and the coarse iterate starts either as the injected fine value u_l^{mi} or
as the improved guess Phi_l(u_l^{mi-1}) + g_l^{mi} (the would-be C-update,
"last-step"). Interpolation injects coarse values onto their fine nodes and
finishes with one F-relaxation.

A V-cycle relaxes, restricts, recurses, and interpolates, solving the
coarsest level sequentially. An F-cycle first descends to the coarsest
level restricting at every step, then from the second-coarsest level up
interpolates and (except on the finest level) runs a V-cycle rooted there;
with two levels it degenerates to the V-cycle.

No state is advanced twice for the same inputs. Each level keeps a flag
saying its F-points are current for its C-points and g: F-relaxation sets
it and is skipped while it holds, and every write to the level's u or g
(C-relaxation, the injection of interpolation, restriction from the level
below, the coarsest-level solve) clears it. So the F-relaxation that opens
each cycle after the first, and the one heading an F-cycle's V-cycle right
after interpolation, cost nothing. After F-relaxation the finest-level
residual is zero at F-points, so the residual norm advances only the C-
points' left neighbours u^{mi-1}; that batch Phi_0(u^{mi-1}) is kept while
level 0 is unchanged and stands in for the next cycle's first evaluation
of it (restriction under F-relaxation, C-relaxation under FCF). The batch
is evaluated over the same worker slices as those consumers, so results
stay bitwise equal to always re-advancing, at any parallelism.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, PhysicalStateError
# rel_l2_spacetime_error stays importable from here: the benchmark's tracer
# wraps it under this module's name
from .grid import (SpatialGrid, TemporalGrid, Trajectory, l2_norm,
                   rel_l2_spacetime_error, relative_error_to)

CYCLE_KINDS = ("v", "f")
RELAXATION_KINDS = ("f", "fcf")
GUESS_KINDS = ("injection", "last-step")
DEFAULT_DIVERGENCE_THRESHOLD = 1e10


@dataclass(frozen=True)
class MgritOptions:
    """Iteration controls for one multigrid-in-time solve."""

    n_levels: int
    m: int = 2
    cycle: str = "v"
    relaxation: str = "f"
    guess: str = "last-step"
    max_iters: int = 10
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    parallelism: int = 1

    def __post_init__(self):
        if self.n_levels < 2:
            raise ConfigError(f"need at least 2 levels, got {self.n_levels}")
        if self.m < 2:
            raise ConfigError(f"coarsening factor must be >= 2, got {self.m}")
        if self.cycle not in CYCLE_KINDS:
            raise ConfigError(f"unknown cycle '{self.cycle}', "
                              f"expected one of {CYCLE_KINDS}")
        if self.relaxation not in RELAXATION_KINDS:
            raise ConfigError(f"unknown relaxation '{self.relaxation}', "
                              f"expected one of {RELAXATION_KINDS}")
        if self.guess not in GUESS_KINDS:
            raise ConfigError(f"unknown restriction guess '{self.guess}', "
                              f"expected one of {GUESS_KINDS}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.divergence_threshold <= 0.0:
            raise ConfigError("divergence threshold must be positive")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass
class MgritLevel:
    index: int
    dt: float
    n_intervals: int
    stepper: object
    u: np.ndarray  # (n_intervals + 1, D, N)
    g: np.ndarray


@dataclass
class ConvergenceRecord:
    """Per-iteration monitoring; row 0 describes the initial iterate.

    errors holds relative space-time errors against the serial reference
    (NaN when no reference was supplied, and from the diverging iteration
    on); residuals holds Euclidean norms of the finest-level residual.
    divergence_cause says why iteration diverged_at was declared diverged.
    """

    errors: np.ndarray
    residuals: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None
    divergence_cause: str | None = None

    @property
    def n_iterations(self) -> int:
        return max(0, len(self.errors) - 1)

    @property
    def residual_factors(self) -> np.ndarray:
        """Convergence factors ||r_k|| / ||r_{k-1}|| per row: NaN in row 0
        and wherever either norm is not finite or ||r_{k-1}|| is zero."""
        factors = np.full(len(self.residuals), np.nan)
        prev, cur = self.residuals[:-1], self.residuals[1:]
        defined = np.isfinite(prev) & np.isfinite(cur) & (prev > 0.0)
        factors[1:][defined] = cur[defined] / prev[defined]
        return factors


def _rows_repeat_first(rows: np.ndarray) -> bool:
    """Whether every row is bytewise the first one (so -0.0 and NaN rows
    count as different unless their bits match)."""
    bits = rows.view(np.uint64)
    return bool((bits[1:] == bits[0]).all())


def _chunk_slices(n_items: int, parts: int):
    parts = max(1, min(parts, n_items))
    bounds = [n_items * p // parts for p in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


class MgritHierarchy:
    """Owns the per-level arrays and runs cycles over them."""

    def __init__(self, steppers: Sequence, initial_state: np.ndarray,
                 time_grid: TemporalGrid, space_grid: SpatialGrid,
                 options: MgritOptions):
        n_levels, m = options.n_levels, options.m
        if len(steppers) != n_levels:
            raise ConfigError(
                f"{len(steppers)} steppers supplied for {n_levels} levels")
        if time_grid.n_steps % (m ** (n_levels - 1)) != 0:
            raise ConfigError(
                f"N_t = {time_grid.n_steps} is not divisible by "
                f"m^(levels-1) = {m ** (n_levels - 1)}")
        self.options = options
        self.time_grid = time_grid
        self.space_grid = space_grid
        initial_state = np.asarray(initial_state, float)
        self.levels: list[MgritLevel] = []
        for l in range(n_levels):
            n_int = time_grid.n_steps // (m ** l)
            shape = (n_int + 1,) + initial_state.shape
            if l == 0:
                u = np.broadcast_to(initial_state, shape).copy()
                g = np.zeros(shape)
                g[0] = initial_state
            else:
                u = np.zeros(shape)
                g = np.zeros(shape)
            self.levels.append(MgritLevel(index=l, dt=time_grid.dt * m ** l,
                                          n_intervals=n_int,
                                          stepper=steppers[l], u=u, g=g))
        # per level: F-points current for its C-points and g
        self._f_current = [False] * n_levels
        # Phi_0(u_0^{mi-1}) from residual_norm, while level 0 is unchanged
        self._phi0 = None
        # residual_norm's finest-level residual, zero at F-points; made on
        # first use
        self._residual = None
        self._executor = None

    # -- parallel plumbing ------------------------------------------------

    def _apply(self, work, n_items: int) -> None:
        """Run work(slice) over n_items, split across worker threads."""
        def guarded(sl):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                work(sl)

        if self._executor is None or n_items < 2:
            guarded(slice(0, n_items))
            return
        slices = _chunk_slices(n_items, self.options.parallelism)
        # list() re-raises the first worker exception in this thread
        list(self._executor.map(guarded, slices))

    def _invalidate(self, l: int) -> None:
        """Level l's u or g is about to change."""
        self._f_current[l] = False
        if l == 0:
            self._phi0 = None

    # -- level operations --------------------------------------------------

    def f_relax(self, l: int) -> None:
        """Recompute the nodes between coarse nodes from their left C-point;
        a no-op while they are already current."""
        if self._f_current[l]:
            return
        level, m = self.levels[l], self.options.m
        n = level.n_intervals

        def work(sl):
            state = level.u[0:n:m][sl]
            for j in range(1, m):
                target = level.u[j:n:m][sl]
                np.add(level.stepper.advance(np.ascontiguousarray(state)),
                       level.g[j:n:m][sl], out=target)
                state = target

        self._apply(work, n // m)
        self._f_current[l] = True

    def c_relax(self, l: int) -> None:
        """Recompute each coarse node from its fine left neighbour."""
        phi0 = self._phi0 if l == 0 else None
        self._invalidate(l)
        level, m = self.levels[l], self.options.m
        n = level.n_intervals

        def work(sl):
            phi = (level.stepper.advance(
                np.ascontiguousarray(level.u[m - 1:n:m][sl]))
                if phi0 is None else phi0[sl])
            np.add(phi, level.g[m::m][sl], out=level.u[m::m][sl])

        self._apply(work, n // m)

    def relax(self, l: int) -> None:
        self.f_relax(l)
        if self.options.relaxation == "fcf":
            self.c_relax(l)
            self.f_relax(l)

    def restrict(self, l: int) -> None:
        """Fill level l+1's rhs and starting iterate from level l."""
        fine, coarse = self.levels[l], self.levels[l + 1]
        m, n = self.options.m, fine.n_intervals
        phi0 = self._phi0 if l == 0 else None
        self._invalidate(l + 1)
        coarse.g[0] = fine.u[0]
        coarse.u[0] = fine.u[0]

        def work(sl):
            phi_fine = (fine.stepper.advance(
                np.ascontiguousarray(fine.u[m - 1:n:m][sl]))
                if phi0 is None else phi0[sl])
            psi_old = coarse.stepper.advance(
                np.ascontiguousarray(fine.u[0:n:m][sl]))
            g_fine, g_coarse = fine.g[m::m][sl], coarse.g[1:][sl]
            np.add(g_fine, phi_fine, out=g_coarse)
            np.subtract(g_coarse, psi_old, out=g_coarse)
            if self.options.guess == "last-step":
                np.add(phi_fine, g_fine, out=coarse.u[1:][sl])
            else:
                coarse.u[1:][sl] = fine.u[m::m][sl]

        self._apply(work, n // m)

    def coarse_solve(self) -> None:
        """Sequential solve of the coarsest level (exact for that level)."""
        self._invalidate(len(self.levels) - 1)
        level = self.levels[-1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state = level.u[0]
            for i in range(1, level.n_intervals + 1):
                state = level.stepper.advance(state) + level.g[i]
                level.u[i] = state

    def interpolate(self, l: int) -> None:
        """Inject level l+1 onto level l's coarse nodes, then F-relax."""
        self._invalidate(l)
        self.levels[l].u[::self.options.m] = self.levels[l + 1].u
        self.f_relax(l)

    # -- cycles -------------------------------------------------------------

    def v_cycle(self, l: int = 0) -> None:
        if l == self.options.n_levels - 1:
            self.coarse_solve()
            return
        self.relax(l)
        self.restrict(l)
        self.v_cycle(l + 1)
        self.interpolate(l)

    def f_cycle(self) -> None:
        n_levels = self.options.n_levels
        for l in range(n_levels - 1):
            self.relax(l)
            self.restrict(l)
        self.coarse_solve()
        for l in range(n_levels - 2, -1, -1):
            self.interpolate(l)
            if l > 0:
                self.v_cycle(l)

    def run_cycle(self) -> None:
        if self.options.cycle == "f":
            self.f_cycle()
        else:
            self.v_cycle(0)

    # -- monitoring ----------------------------------------------------------

    def residual_norm(self) -> float:
        """Euclidean norm of the finest-level residual g + Phi(u_prev) - u.

        Once level 0 is F-relaxed its F-point residuals are exactly zero, so
        only u^{mi-1} is advanced; that batch is kept for the next cycle.
        """
        level = self.levels[0]
        if not self._f_current[0]:
            previous = level.u[:-1]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if _rows_repeat_first(previous):
                    # the initial iterate: one step stands in for every row
                    predicted = level.stepper.advance(previous[0])
                else:
                    predicted = level.stepper.advance(previous)
                residual = np.add(level.g[1:], predicted)
                return l2_norm(np.subtract(residual, level.u[1:],
                                           out=residual))
        m, n = self.options.m, level.n_intervals
        phi0 = np.empty((n // m,) + level.u.shape[1:])

        def work(sl):
            phi0[sl] = level.stepper.advance(
                np.ascontiguousarray(level.u[m - 1:n:m][sl]))

        self._apply(work, n // m)
        self._phi0 = phi0
        if self._residual is None:
            self._residual = np.zeros_like(level.u[1:])
        # rows mi - 1 of a buffer whose F-point rows stay zero: the norm
        # keeps the summation order of a full sweep
        rows = self._residual[m - 1::m]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(level.g[m::m], phi0, out=rows)
            np.subtract(rows, level.u[m::m], out=rows)
            return l2_norm(self._residual)

    def fine_values(self) -> np.ndarray:
        return self.levels[0].u


def mgrit_solve(steppers: Sequence, initial_state: np.ndarray,
                time_grid: TemporalGrid, space_grid: SpatialGrid,
                options: MgritOptions,
                reference: np.ndarray | None = None):
    """Iterate cycles until max_iters, recording convergence per iteration.

    reference, when given, is the serial trajectory array (n_nodes, D, N)
    errors are measured against. Divergence (non-finite iterate, a thrown
    physical-state error, or relative error past the threshold) is recorded,
    not raised, with its cause: the offending and all later rows hold NaN.

    Returns (trajectory, record); with max_iters = 0 the record is empty and
    the trajectory is the initial iterate.
    """
    hierarchy = MgritHierarchy(steppers, initial_state, time_grid, space_grid,
                               options)
    if options.max_iters == 0:
        record = ConvergenceRecord(errors=np.empty(0), residuals=np.empty(0))
        return Trajectory(time_grid, space_grid, hierarchy.fine_values()), record

    relative_error = (None if reference is None
                      else relative_error_to(reference))

    def current_error() -> float:
        if relative_error is None:
            return np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            return relative_error(hierarchy.fine_values())

    n_rows = options.max_iters + 1
    errors = np.full(n_rows, np.nan)
    residuals = np.full(n_rows, np.nan)
    diverged_at = cause = None
    errors[0] = current_error()
    residuals[0] = hierarchy.residual_norm()

    executor = None
    try:
        if options.parallelism > 1:
            executor = ThreadPoolExecutor(max_workers=options.parallelism)
            hierarchy._executor = executor
        for it in range(1, n_rows):
            try:
                hierarchy.run_cycle()
                resid = hierarchy.residual_norm()
            except PhysicalStateError as exc:
                diverged_at, cause = it, str(exc)
                break
            err = current_error()
            if not np.all(np.isfinite(hierarchy.fine_values())):
                cause = "non-finite iterate"
            elif np.isfinite(err) and err > options.divergence_threshold:
                cause = (f"relative error {err:.6g} above divergence "
                         f"threshold {options.divergence_threshold:g}")
            elif reference is not None and not np.isfinite(err):
                cause = "non-finite relative error"
            if cause is not None:
                diverged_at = it
                break
            errors[it] = err
            residuals[it] = resid
    finally:
        hierarchy._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    record = ConvergenceRecord(errors=errors, residuals=residuals,
                               diverged=cause is not None,
                               diverged_at=diverged_at, divergence_cause=cause)
    return Trajectory(time_grid, space_grid, hierarchy.fine_values()), record
