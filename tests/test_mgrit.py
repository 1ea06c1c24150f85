"""Multigrid-in-time cycles: level operations, exactness, and monitoring.

The strongest checks compare the hierarchy against a test-local reference
implementation written as plain sequential loops (no batching, no thread
plumbing), and against hand-unrolled recurrences on a linear one-cell toy
whose stepper multiplies by a constant.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgritlab import (
    ConfigError,
    ConvergenceRecord,
    FluxConfig,
    MatchedLFCoarse,
    MatchedLFFine,
    MgritHierarchy,
    MgritOptions,
    PhysicalStateError,
    RungeKuttaStepper,
    SemiDiscreteOperator,
    SpatialGrid,
    TemporalGrid,
    WenoConfig,
    discretise_ic,
    make_model,
    mgrit_solve,
    rel_l2_spacetime_error,
    solve_serial,
)
from mgritlab import mgrit as mgrit_module
from mgritlab.grid import l2_norm


class ScaleStepper:
    """Linear toy: advance(u) = factor * u."""

    def __init__(self, factor, dt=1.0):
        self.factor = factor
        self.dt = dt

    def advance(self, u):
        return self.factor * u


class CountingStepper:
    """Forwards advance() and counts the single-field states it advances."""

    def __init__(self, inner):
        self.inner = inner
        self.dt = inner.dt
        self.states = 0

    def advance(self, u):
        self.states += math.prod(u.shape[:-2])
        return self.inner.advance(u)


class ContiguousInputStepper(CountingStepper):
    """Counts calls and states, and rejects every input that is not
    C-contiguous."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def advance(self, u):
        assert u.flags.c_contiguous, u.strides
        self.calls += 1
        return super().advance(u)


def _toy_hierarchy(factors, n_steps, m=2, **kwargs):
    steppers = [ScaleStepper(f, dt=float(m ** l))
                for l, f in enumerate(factors)]
    options = MgritOptions(n_levels=len(factors), m=m, **kwargs)
    return MgritHierarchy(steppers, np.array([[1.0]]),
                          TemporalGrid(float(n_steps), n_steps),
                          SpatialGrid(1.0, 1), options)


def _counted_toy_hierarchy(factors, n_steps, m=2, **kwargs):
    h = _toy_hierarchy(factors, n_steps, m=m, **kwargs)
    for level in h.levels:
        level.stepper = CountingStepper(level.stepper)
    return h


def _states(h):
    return [level.stepper.states for level in h.levels]


def _burgers_setup(n_x=64, n_t=32, horizon=0.2, n_levels=3, m=2):
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, n_x)
    tgrid = TemporalGrid(horizon, n_t)
    steppers = [MatchedLFFine(model, sgrid, tgrid.dt)]
    for l in range(1, n_levels):
        steppers.append(
            MatchedLFCoarse(model, sgrid, tgrid.dt, m ** l, order=1))
    u0 = discretise_ic(lambda x: np.sin(2 * np.pi * x), sgrid)
    serial = solve_serial(steppers[0], u0, tgrid, sgrid, model=model)
    return model, sgrid, tgrid, steppers, u0, serial


# ----------------------------------------------------------------------
# reference implementation (sequential, unbatched)
# ----------------------------------------------------------------------

def ref_f_relax(level, m):
    for start in range(0, level.n_intervals, m):
        state = level.u[start]
        for j in range(1, m):
            state = level.stepper.advance(state) + level.g[start + j]
            level.u[start + j] = state


def ref_c_relax(level, m):
    for t in range(m, level.n_intervals + 1, m):
        level.u[t] = level.stepper.advance(level.u[t - 1]) + level.g[t]


def ref_relax(level, m, relaxation):
    ref_f_relax(level, m)
    if relaxation == "fcf":
        ref_c_relax(level, m)
        ref_f_relax(level, m)


def ref_restrict(fine, coarse, m, guess):
    coarse.g[0] = fine.u[0]
    coarse.u[0] = fine.u[0]
    for i in range(1, coarse.n_intervals + 1):
        mi = m * i
        phi = fine.stepper.advance(fine.u[mi - 1])
        psi = coarse.stepper.advance(fine.u[mi - m])
        coarse.g[i] = fine.g[mi] + phi - psi
        if guess == "last-step":
            coarse.u[i] = phi + fine.g[mi]
        else:
            coarse.u[i] = fine.u[mi]


def ref_coarse_solve(level):
    for i in range(1, level.n_intervals + 1):
        level.u[i] = level.stepper.advance(level.u[i - 1]) + level.g[i]


def ref_v_cycle(h, l=0):
    opts = h.options
    if l == opts.n_levels - 1:
        ref_coarse_solve(h.levels[l])
        return
    ref_relax(h.levels[l], opts.m, opts.relaxation)
    ref_restrict(h.levels[l], h.levels[l + 1], opts.m, opts.guess)
    ref_v_cycle(h, l + 1)
    h.levels[l].u[::opts.m] = h.levels[l + 1].u
    ref_f_relax(h.levels[l], opts.m)


def ref_f_cycle(h):
    opts, levels = h.options, h.levels
    for l in range(opts.n_levels - 1):
        ref_relax(levels[l], opts.m, opts.relaxation)
        ref_restrict(levels[l], levels[l + 1], opts.m, opts.guess)
    ref_coarse_solve(levels[-1])
    for l in range(opts.n_levels - 2, -1, -1):
        levels[l].u[::opts.m] = levels[l + 1].u
        ref_f_relax(levels[l], opts.m)
        if l > 0:
            ref_v_cycle(h, l)


def full_residual_norm(level):
    """Finest-level residual norm from advancing every node afresh."""
    predicted = level.stepper.advance(level.u[:-1])
    return l2_norm(level.g[1:] + predicted - level.u[1:])


def ref_mgrit_solve(steppers, u0, tgrid, sgrid, options, reference):
    """Every cycle relaxes in full and every residual re-advances the whole
    fine level; returns the fine iterate, errors and residuals."""
    h = MgritHierarchy(steppers, u0, tgrid, sgrid, options)
    cycle = ref_f_cycle if options.cycle == "f" else ref_v_cycle
    errors = [rel_l2_spacetime_error(h.fine_values(), reference)]
    residuals = [full_residual_norm(h.levels[0])]
    for _ in range(options.max_iters):
        cycle(h)
        errors.append(rel_l2_spacetime_error(h.fine_values(), reference))
        residuals.append(full_residual_norm(h.levels[0]))
    return h.fine_values(), np.array(errors), np.array(residuals)


class FancyIndexHierarchy(MgritHierarchy):
    """The batched sweeps written as index-array gathers of whole levels
    and scatters back, with a fresh zero residual per norm."""

    def _c_points(self, l):
        m = self.options.m
        return m * np.arange(1, self.levels[l].n_intervals // m + 1)

    def f_relax(self, l):
        if self._f_current[l]:
            return
        level, m = self.levels[l], self.options.m
        starts = m * np.arange(level.n_intervals // m)

        def work(sl):
            base = starts[sl]
            state = level.u[base]
            for j in range(1, m):
                state = level.stepper.advance(state) + level.g[base + j]
                level.u[base + j] = state

        self._apply(work, len(starts))
        self._f_current[l] = True

    def c_relax(self, l):
        phi0 = self._phi0 if l == 0 else None
        self._invalidate(l)
        level, targets = self.levels[l], self._c_points(l)

        def work(sl):
            t = targets[sl]
            phi = (level.stepper.advance(level.u[t - 1]) if phi0 is None
                   else phi0[sl])
            level.u[t] = phi + level.g[t]

        self._apply(work, len(targets))

    def restrict(self, l):
        fine, coarse = self.levels[l], self.levels[l + 1]
        m, mi = self.options.m, self._c_points(l)
        phi0 = self._phi0 if l == 0 else None
        self._invalidate(l + 1)
        coarse.g[0] = fine.u[0]
        coarse.u[0] = fine.u[0]

        def work(sl):
            idx = mi[sl]
            phi_fine = (fine.stepper.advance(fine.u[idx - 1]) if phi0 is None
                        else phi0[sl])
            psi_old = coarse.stepper.advance(fine.u[idx - m])
            coarse.g[idx // m] = fine.g[idx] + phi_fine - psi_old
            if self.options.guess == "last-step":
                coarse.u[idx // m] = phi_fine + fine.g[idx]
            else:
                coarse.u[idx // m] = fine.u[idx]

        self._apply(work, len(mi))

    def residual_norm(self):
        level = self.levels[0]
        if not self._f_current[0]:
            first = level.u[0].tobytes()
            if all(row.tobytes() == first for row in level.u[:-1]):
                predicted = level.stepper.advance(level.u[0])
                return l2_norm(level.g[1:] + predicted - level.u[1:])
            return full_residual_norm(level)
        mi = self._c_points(0)
        phi0 = np.empty((len(mi),) + level.u.shape[1:])

        def work(sl):
            phi0[sl] = level.stepper.advance(level.u[mi[sl] - 1])

        self._apply(work, len(mi))
        self._phi0 = phi0
        residual = np.zeros_like(level.u[1:])
        residual[mi - 1] = level.g[mi] + phi0 - level.u[mi]
        return l2_norm(residual)


# ----------------------------------------------------------------------
# options and construction
# ----------------------------------------------------------------------

def test_options_validation():
    good = dict(n_levels=2)
    assert MgritOptions(**good).m == 2
    for bad in (dict(n_levels=1), dict(n_levels=2, m=1),
                dict(n_levels=2, cycle="w"), dict(n_levels=2, relaxation="c"),
                dict(n_levels=2, guess="zero"), dict(n_levels=2, max_iters=-1),
                dict(n_levels=2, divergence_threshold=0.0),
                dict(n_levels=2, parallelism=0)):
        with pytest.raises(ConfigError):
            MgritOptions(**bad)


def test_hierarchy_construction_checks():
    with pytest.raises(ConfigError):
        _toy_hierarchy([1.0, 1.0, 1.0], n_steps=30)  # 30 not divisible by 4
    with pytest.raises(ConfigError):
        MgritHierarchy([ScaleStepper(1.0)], np.array([[1.0]]),
                       TemporalGrid(8.0, 8), SpatialGrid(1.0, 1),
                       MgritOptions(n_levels=2))


def test_hierarchy_level_layout():
    h = _toy_hierarchy([1.0, 1.0, 1.0], n_steps=16, m=2)
    assert [lvl.n_intervals for lvl in h.levels] == [16, 8, 4]
    assert [lvl.dt for lvl in h.levels] == [1.0, 2.0, 4.0]
    assert h.levels[0].u.shape == (17, 1, 1)
    # finest level: iterate broadcast from the initial state, rhs pins node 0
    assert np.all(h.levels[0].u == 1.0)
    assert np.all(h.levels[0].g[0] == 1.0)
    assert np.all(h.levels[0].g[1:] == 0.0)
    assert np.all(h.levels[1].u == 0.0)


# ----------------------------------------------------------------------
# level operations against hand-unrolled recurrences (linear toy)
# ----------------------------------------------------------------------

def test_f_relax_hand_values():
    a = 0.5
    h = _toy_hierarchy([a, a * a], n_steps=8)
    h.f_relax(0)
    flat = h.levels[0].u[:, 0, 0]
    # odd nodes propagate from their even left neighbour; even nodes untouched
    assert np.array_equal(flat, [1, a, 1, a, 1, a, 1, a, 1])


def test_c_relax_hand_values():
    a = 0.5
    h = _toy_hierarchy([a, a * a], n_steps=8)
    h.f_relax(0)
    h.c_relax(0)
    flat = h.levels[0].u[:, 0, 0]
    expected = [1, a, a * a, a, a * a, a, a * a, a, a * a]
    assert np.allclose(flat, expected, atol=1e-15)


def test_restrict_hand_values_both_guesses():
    a, big_a = 0.7, 0.45
    rng = np.random.default_rng(2)
    for guess in ("last-step", "injection"):
        h = _toy_hierarchy([a, big_a], n_steps=8, guess=guess)
        v = rng.uniform(0.5, 1.5, 9)
        w = rng.uniform(-0.5, 0.5, 9)
        h.levels[0].u[:, 0, 0] = v
        h.levels[0].g[:, 0, 0] = w
        h.restrict(0)
        g1 = h.levels[1].g[:, 0, 0]
        u1 = h.levels[1].u[:, 0, 0]
        assert g1[0] == v[0]
        assert u1[0] == v[0]
        for i in range(1, 5):
            expected_g = w[2 * i] + a * v[2 * i - 1] - big_a * v[2 * i - 2]
            assert g1[i] == pytest.approx(expected_g, abs=1e-15)
            if guess == "last-step":
                assert u1[i] == pytest.approx(a * v[2 * i - 1] + w[2 * i],
                                              abs=1e-15)
            else:
                assert u1[i] == v[2 * i]


def test_coarse_solve_hand_values():
    big_a = 0.8
    h = _toy_hierarchy([0.9, big_a], n_steps=8)
    g1 = np.array([2.0, 0.3, -0.1, 0.4, 0.2])
    h.levels[1].u[0, 0, 0] = 2.0
    h.levels[1].g[:, 0, 0] = g1
    h.coarse_solve()
    state = 2.0
    for i in range(1, 5):
        state = big_a * state + g1[i]
        assert h.levels[1].u[i, 0, 0] == pytest.approx(state, abs=1e-15)


def test_interpolate_injects_then_f_relaxes():
    a = 0.6
    h = _toy_hierarchy([a, a * a], n_steps=8)
    coarse_vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    h.levels[1].u[:, 0, 0] = coarse_vals
    h.interpolate(0)
    flat = h.levels[0].u[:, 0, 0]
    assert np.array_equal(flat[::2], coarse_vals)
    assert np.allclose(flat[1::2], a * coarse_vals[:-1], atol=1e-15)


def test_residual_norm_vanishes_at_exact_solution():
    a = 0.9
    h = _toy_hierarchy([a, a * a], n_steps=8)
    h.levels[0].u[:, 0, 0] = a ** np.arange(9)
    assert h.residual_norm() < 1e-14
    # and is visibly nonzero at the initial broadcast iterate
    h2 = _toy_hierarchy([a, a * a], n_steps=8)
    assert h2.residual_norm() > 1e-2


# ----------------------------------------------------------------------
# full cycles against the reference implementation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("relaxation", ["f", "fcf"])
@pytest.mark.parametrize("guess", ["injection", "last-step"])
def test_v_cycle_matches_reference_toy(relaxation, guess):
    kwargs = dict(relaxation=relaxation, guess=guess)
    h = _toy_hierarchy([0.85, 0.7, 0.5], n_steps=16, **kwargs)
    r = _toy_hierarchy([0.85, 0.7, 0.5], n_steps=16, **kwargs)
    h.v_cycle()
    ref_v_cycle(r)
    for lh, lr in zip(h.levels, r.levels):
        assert np.array_equal(lh.u, lr.u)
        assert np.array_equal(lh.g, lr.g)


@pytest.mark.parametrize("relaxation", ["f", "fcf"])
@pytest.mark.parametrize("guess", ["injection", "last-step"])
def test_v_cycle_matches_reference_burgers(relaxation, guess):
    def build():
        model, sgrid, tgrid, steppers, u0, _ = _burgers_setup()
        options = MgritOptions(n_levels=3, m=2, relaxation=relaxation,
                               guess=guess)
        return MgritHierarchy(steppers, u0, tgrid, sgrid, options)

    h, r = build(), build()
    h.v_cycle()
    ref_v_cycle(r)
    for lh, lr in zip(h.levels, r.levels):
        assert np.array_equal(lh.u, lr.u)
        assert np.array_equal(lh.g, lr.g)


def test_two_level_f_cycle_degenerates_to_v_cycle():
    h = _toy_hierarchy([0.85, 0.6], n_steps=16)
    r = _toy_hierarchy([0.85, 0.6], n_steps=16)
    h.f_cycle()
    r.v_cycle()
    for lh, lr in zip(h.levels, r.levels):
        assert np.array_equal(lh.u, lr.u)


def test_initial_node_never_modified():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, max_iters=4)
    trajectory, _ = mgrit_solve(steppers, u0, tgrid, sgrid, options,
                                reference=serial.trajectory.values)
    assert np.array_equal(trajectory.values[0], u0)


# ----------------------------------------------------------------------
# fixed point and exactness properties
# ----------------------------------------------------------------------

def test_f_relaxation_extends_exactness_one_chunk_per_cycle():
    # with F-relaxation the exactly-solved region grows by one coarse
    # interval per cycle no matter how crude the coarse operator is
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup(
        n_x=32, n_t=32, horizon=0.3, n_levels=2, m=4)
    options = MgritOptions(n_levels=2, m=4, relaxation="f")
    h = MgritHierarchy(steppers, u0, tgrid, sgrid, options)
    exact = serial.trajectory.values
    for cycles in range(1, 5):
        h.v_cycle()
        solved = h.levels[0].u[:4 * cycles + 1]
        assert np.max(np.abs(solved - exact[:4 * cycles + 1])) < 1e-12


def test_fcf_relaxation_extends_exactness_two_chunks_per_cycle():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup(
        n_x=32, n_t=32, horizon=0.3, n_levels=2, m=4)
    options = MgritOptions(n_levels=2, m=4, relaxation="fcf")
    h = MgritHierarchy(steppers, u0, tgrid, sgrid, options)
    exact = serial.trajectory.values
    for cycles in range(1, 3):
        h.v_cycle()
        solved = h.levels[0].u[:8 * cycles + 1]
        assert np.max(np.abs(solved - exact[:8 * cycles + 1])) < 1e-12


# ----------------------------------------------------------------------
# work: skipped F-relaxations and the reused C-point residual batch
# ----------------------------------------------------------------------

def _solve_states(n_iters, **kwargs):
    """States all levels advance in one solve of a 16-step toy problem."""
    steppers = [CountingStepper(ScaleStepper(f, dt=2.0 ** l))
                for l, f in enumerate([0.85, 0.7, 0.5])]
    mgrit_solve(steppers, np.array([[1.0]]), TemporalGrid(16.0, 16),
                SpatialGrid(1.0, 1),
                MgritOptions(n_levels=3, m=2, max_iters=n_iters, **kwargs))
    return sum(s.states for s in steppers)


def test_states_advanced_v_cycle_f_relaxation():
    # n = 16 fine steps, m = 2, 3 levels. One full V-cycle advances
    # f0 8 + restrict0 16 + f1 4 + restrict1 8 + coarse 4 + f1 4 + f0 8 = 52.
    # Row 0's residual advances one state for the 16 equal rows of the
    # initial iterate, later ones only the 8 C-point neighbours; every cycle
    # after the first skips its opening f0 (8) and takes restrict0's fine
    # half (8) from the residual's batch.
    first, steady = 52 + 8, 52 - 8 - 8 + 8
    assert steady == (52 + 16) - 24  # 24 fewer than re-advancing everything
    for n_iters in range(1, 5):
        assert _solve_states(n_iters) == 1 + first + (n_iters - 1) * steady
    assert _solve_states(5) - _solve_states(4) == steady == 44


def test_states_advanced_f_cycle_fcf_relaxation():
    # relax0 24 + restrict0 16 + relax1 12 + restrict1 8 + coarse 4
    # + interp1 4 + V-cycle at level 1 (relax1 without its opening F-relax,
    # which interp1 just did: 8, restrict1 8, coarse 4, interp1 4)
    # + interp0 8 = 100, against 104 with the repeated F-relaxation. Row 0's
    # residual advances one state for the initial iterate. Later cycles skip
    # relax0's opening f0 (8) and take its C-relaxation (8) from the
    # residual's batch.
    kwargs = dict(cycle="f", relaxation="fcf", guess="injection")
    first, steady = 100 + 8, 100 - 8 - 8 + 8
    assert steady == (104 + 16) - 28
    for n_iters in range(1, 5):
        assert (_solve_states(n_iters, **kwargs)
                == 1 + first + (n_iters - 1) * steady)
    assert _solve_states(5, **kwargs) - _solve_states(4, **kwargs) == 92


@pytest.mark.parametrize("cycle", ["v", "f"])
@pytest.mark.parametrize("relaxation", ["f", "fcf"])
def test_recorded_residuals_match_full_level_residual(cycle, relaxation):
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, cycle=cycle,
                           relaxation=relaxation, max_iters=5)
    _, record = mgrit_solve(steppers, u0, tgrid, sgrid, options,
                            reference=serial.trajectory.values)
    h = MgritHierarchy(steppers, u0, tgrid, sgrid, options)
    for it in range(options.max_iters + 1):
        if it > 0:
            h.run_cycle()
        recorded = h.residual_norm()
        assert recorded == record.residuals[it]
        brute = full_residual_norm(h.levels[0])
        assert abs(recorded - brute) <= 1e-13 * brute, it


def test_second_f_relax_advances_nothing():
    h = _counted_toy_hierarchy([0.9, 0.8, 0.7], n_steps=16)
    for l in range(3):
        h.f_relax(l)
    before = _states(h)
    for l in range(3):
        h.f_relax(l)
    assert _states(h) == before


@pytest.mark.parametrize("write, l", [("c_relax", 1), ("interpolate", 1),
                                      ("restrict", 1), ("coarse_solve", 2)])
def test_writes_to_a_level_make_f_relax_recompute(write, l):
    h = _counted_toy_hierarchy([0.9, 0.8, 0.7], n_steps=16)
    h.f_relax(l)
    if write == "c_relax":
        h.c_relax(l)
    elif write == "restrict":
        h.restrict(l - 1)  # writes level l's u and g
    elif write == "coarse_solve":
        h.coarse_solve()
    before = _states(h)[l]
    if write == "interpolate":
        h.interpolate(l)  # injects, then F-relaxes
    else:
        h.f_relax(l)
    chunks = h.levels[l].n_intervals // 2
    assert _states(h)[l] - before == chunks
    h.f_relax(l)
    assert _states(h)[l] - before == chunks


def test_residual_batch_is_reused_until_level_0_changes():
    h = _counted_toy_hierarchy([0.9, 0.8], n_steps=16)
    h.f_relax(0)
    start = _states(h)[0]
    h.residual_norm()
    assert _states(h)[0] - start == 8  # C-point left neighbours only
    h.restrict(0)  # fine half taken from the residual's batch
    assert _states(h) == [start + 8, 8]
    h.c_relax(0)  # the batch is still current: level 0 has not changed
    assert _states(h)[0] == start + 8
    h.c_relax(0)  # level 0 changed; the batch is gone
    assert _states(h)[0] == start + 16
    assert h.residual_norm() == pytest.approx(
        full_residual_norm(h.levels[0]), rel=1e-13)


def test_unrelaxed_residual_advances_the_whole_level():
    # the initial iterate repeats u^0 in every row: one step stands in
    h = _counted_toy_hierarchy([0.9, 0.8], n_steps=16)
    broadcast = h.residual_norm()
    assert _states(h)[0] == 1
    assert broadcast == full_residual_norm(h.levels[0])
    # rows of u[:-1] that differ, in value or only in bits, take the whole
    # level; the last row is not advanced, so it does not count
    for row, value, states in ((5, 2.0, 16), (3, -0.0, 16), (16, 2.0, 1)):
        h = _counted_toy_hierarchy([0.9, 0.8], n_steps=16)
        if value == 0.0:
            h.levels[0].u[:] = 0.0
        h.levels[0].u[row] = value
        norm = h.residual_norm()
        assert _states(h)[0] == states, row
        assert norm == full_residual_norm(h.levels[0]), row


@settings(max_examples=30, deadline=None)
@given(cycle=st.sampled_from(["v", "f"]),
       relaxation=st.sampled_from(["f", "fcf"]),
       guess=st.sampled_from(["injection", "last-step"]),
       n_levels=st.integers(2, 4), m=st.integers(2, 3),
       chunks=st.integers(1, 2), max_iters=st.integers(1, 4),
       parallelism=st.integers(1, 3))
def test_solve_is_bitwise_equal_to_always_relaxing(cycle, relaxation, guess,
                                                  n_levels, m, chunks,
                                                  max_iters, parallelism):
    # coarsest CFL at most 0.8, so no run diverges
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup(
        n_x=16, n_t=chunks * m ** (n_levels - 1), horizon=0.05,
        n_levels=n_levels, m=m)
    reference = serial.trajectory.values
    options = MgritOptions(n_levels=n_levels, m=m, cycle=cycle,
                           relaxation=relaxation, guess=guess,
                           max_iters=max_iters, parallelism=parallelism)
    trajectory, record = mgrit_solve(steppers, u0, tgrid, sgrid, options,
                                     reference=reference)
    values, errors, residuals = ref_mgrit_solve(steppers, u0, tgrid, sgrid,
                                                options, reference)
    assert not record.diverged
    assert np.array_equal(trajectory.values, values)
    assert np.array_equal(record.errors, errors)
    assert np.array_equal(record.residuals, residuals)


@pytest.mark.parametrize("cycle, relaxation, guess",
                         [("v", "f", "last-step"), ("f", "fcf", "injection")])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("parallelism", [1, 3])
def test_strided_sweeps_equal_fancy_index_sweeps(monkeypatch, cycle,
                                                 relaxation, guess, m,
                                                 parallelism):
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup(
        n_x=16, n_t=4 * m ** 2, horizon=0.05, n_levels=3, m=m)
    options = MgritOptions(n_levels=3, m=m, cycle=cycle,
                           relaxation=relaxation, guess=guess, max_iters=3,
                           parallelism=parallelism)

    def solve(hierarchy_class):
        hierarchies = []

        class Kept(hierarchy_class):
            def __init__(self, *args):
                super().__init__(*args)
                hierarchies.append(self)

        monkeypatch.setattr(mgrit_module, "MgritHierarchy", Kept)
        counted = [ContiguousInputStepper(s) for s in steppers]
        trajectory, record = mgrit_solve(counted, u0, tgrid, sgrid, options,
                                         reference=serial.trajectory.values)
        levels = hierarchies[0].levels
        return (trajectory.values, record, [level.u for level in levels],
                [level.g for level in levels],
                [(s.calls, s.states) for s in counted])

    values, record, u, g, counts = solve(MgritHierarchy)
    ref_values, ref_record, ref_u, ref_g, ref_counts = solve(
        FancyIndexHierarchy)
    assert not record.diverged
    assert np.array_equal(values, ref_values)
    assert np.array_equal(record.errors, ref_record.errors)
    assert np.array_equal(record.residuals, ref_record.residuals)
    for level_u, level_ref_u in zip(u, ref_u):
        assert np.array_equal(level_u, level_ref_u)
    for level_g, level_ref_g in zip(g, ref_g):
        assert np.array_equal(level_g, level_ref_g)
    assert counts == ref_counts


def test_residual_factors():
    record = ConvergenceRecord(
        errors=np.zeros(5), residuals=np.array([2.0, 1.0, 0.0, 0.5, np.nan]))
    factors = record.residual_factors
    assert np.isnan(factors[[0, 3, 4]]).all()  # no predecessor, 0/0, NaN
    assert factors[1] == 0.5 and factors[2] == 0.0
    empty = ConvergenceRecord(errors=np.empty(0), residuals=np.empty(0))
    assert empty.residual_factors.shape == (0,)


# ----------------------------------------------------------------------
# the driver: records, divergence, determinism
# ----------------------------------------------------------------------

def test_zero_iterations_returns_initial_iterate_and_empty_record():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, max_iters=0)
    trajectory, record = mgrit_solve(steppers, u0, tgrid, sgrid, options)
    assert record.errors.shape == (0,)
    assert record.residuals.shape == (0,)
    assert record.n_iterations == 0
    assert not record.diverged
    assert np.array_equal(trajectory.values,
                          np.broadcast_to(u0, trajectory.values.shape))


def test_record_rows_and_reference_errors():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, max_iters=10)
    _, record = mgrit_solve(steppers, u0, tgrid, sgrid, options,
                            reference=serial.trajectory.values)
    assert record.errors.shape == (11,)
    assert record.n_iterations == 10
    # row 0 measures the broadcast initial iterate; later rows improve on it
    assert np.isfinite(record.errors).all()
    assert record.errors[0] > record.errors[-1]
    assert record.errors[-1] < 1e-10
    assert record.residuals[-1] < record.residuals[0]


def test_without_reference_errors_are_nan_but_solve_proceeds():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, max_iters=10)
    trajectory, record = mgrit_solve(steppers, u0, tgrid, sgrid, options)
    assert np.isnan(record.errors).all()
    assert np.isfinite(record.residuals).all()
    assert not record.diverged
    err = rel_l2_spacetime_error(trajectory.values, serial.trajectory.values)
    assert err < 1e-10


def test_divergence_is_recorded_not_raised():
    # a wildly wrong coarse factor amplifies the error past the threshold
    steppers = [ScaleStepper(1.05, dt=1.0), ScaleStepper(-6.0, dt=2.0)]
    tgrid = TemporalGrid(16.0, 16)
    sgrid = SpatialGrid(1.0, 1)
    reference = (1.05 ** np.arange(17))[:, None, None]
    options = MgritOptions(n_levels=2, m=2, max_iters=6,
                           divergence_threshold=1e3)
    _, record = mgrit_solve(steppers, np.array([[1.0]]), tgrid, sgrid,
                            options, reference=reference)
    assert record.diverged
    assert record.diverged_at is not None and 1 <= record.diverged_at <= 6
    assert np.isfinite(record.errors[0])
    assert np.isnan(record.errors[record.diverged_at:]).all()


def test_physical_state_error_is_caught_as_divergence():
    class Exploding:
        dt = 2.0

        def advance(self, u):
            raise PhysicalStateError("inadmissible state")

    steppers = [ScaleStepper(1.0, dt=1.0), Exploding()]
    tgrid = TemporalGrid(8.0, 8)
    sgrid = SpatialGrid(1.0, 1)
    options = MgritOptions(n_levels=2, m=2, max_iters=3)
    _, record = mgrit_solve(steppers, np.array([[1.0]]), tgrid, sgrid,
                            options, reference=np.ones((9, 1, 1)))
    assert record.diverged
    assert record.diverged_at == 1
    assert np.isnan(record.errors[1:]).all()


def test_divergence_cause_names_error_past_threshold():
    steppers = [ScaleStepper(1.05, dt=1.0), ScaleStepper(-6.0, dt=2.0)]
    tgrid = TemporalGrid(16.0, 16)
    reference = (1.05 ** np.arange(17))[:, None, None]
    options = MgritOptions(n_levels=2, m=2, max_iters=6,
                           divergence_threshold=1e3)
    _, record = mgrit_solve(steppers, np.array([[1.0]]), tgrid,
                            SpatialGrid(1.0, 1), options, reference=reference)
    assert record.divergence_cause.startswith("relative error ")
    assert record.divergence_cause.endswith(
        " above divergence threshold 1000")
    error = float(record.divergence_cause.split()[2])
    assert error > 1e3


def test_divergence_cause_keeps_physical_state_message():
    class FailsOnSecondCall:
        dt = 2.0

        def __init__(self):
            self.calls = 0

        def advance(self, u):
            self.calls += 1
            if self.calls > 1:
                raise PhysicalStateError("non-positive depth in cell 0")
            return u

    steppers = [ScaleStepper(1.0, dt=1.0), FailsOnSecondCall()]
    options = MgritOptions(n_levels=2, m=2, max_iters=4)
    _, record = mgrit_solve(steppers, np.array([[1.0]]), TemporalGrid(8.0, 8),
                            SpatialGrid(1.0, 1), options)
    assert record.diverged
    assert record.divergence_cause == "non-positive depth in cell 0"
    assert record.diverged_at >= 1


def test_divergence_cause_names_non_finite_iterate():
    # no reference, so only the iterate itself can reveal the blow-up
    steppers = [ScaleStepper(1.0, dt=1.0), ScaleStepper(np.inf, dt=2.0)]
    options = MgritOptions(n_levels=2, m=2, max_iters=3)
    _, record = mgrit_solve(steppers, np.array([[1.0]]), TemporalGrid(8.0, 8),
                            SpatialGrid(1.0, 1), options)
    assert (record.diverged, record.diverged_at) == (True, 1)
    assert record.divergence_cause == "non-finite iterate"


def test_converged_run_has_no_divergence_cause():
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    options = MgritOptions(n_levels=3, m=2, max_iters=3)
    _, record = mgrit_solve(steppers, u0, tgrid, sgrid, options,
                            reference=serial.trajectory.values)
    assert not record.diverged
    assert record.diverged_at is None and record.divergence_cause is None


@pytest.mark.parametrize("parallelism", [2, 3, 8])
def test_parallelism_is_bitwise_deterministic_matched(parallelism):
    model, sgrid, tgrid, steppers, u0, serial = _burgers_setup()
    def solve(p):
        options = MgritOptions(n_levels=3, m=2, max_iters=4, parallelism=p)
        return mgrit_solve(steppers, u0, tgrid, sgrid, options,
                           reference=serial.trajectory.values)
    base_traj, base_rec = solve(1)
    traj, rec = solve(parallelism)
    assert np.array_equal(base_traj.values, traj.values)
    assert np.array_equal(base_rec.errors, rec.errors, equal_nan=True)
    assert np.array_equal(base_rec.residuals, rec.residuals, equal_nan=True)


def test_parallelism_is_bitwise_deterministic_weno_rk():
    model = make_model("burgers")
    sgrid = SpatialGrid(1.0, 64)
    tgrid = TemporalGrid(0.2, 64)
    op = SemiDiscreteOperator(model, sgrid, FluxConfig(
        kind="roe", weno=WenoConfig(order=3)))
    u0 = discretise_ic(lambda x: np.sin(2 * np.pi * x), sgrid)
    serial = solve_serial(RungeKuttaStepper(op.rhs, tgrid.dt, 3), u0, tgrid,
                          sgrid, model=model)

    def solve(p):
        steppers = [RungeKuttaStepper(op.rhs, tgrid.dt * 2 ** l, 3)
                    for l in range(2)]
        options = MgritOptions(n_levels=2, m=2, max_iters=3, parallelism=p)
        return mgrit_solve(steppers, u0, tgrid, sgrid, options,
                           reference=serial.trajectory.values)

    base_traj, base_rec = solve(1)
    traj, rec = solve(4)
    assert np.array_equal(base_traj.values, traj.values)
    assert np.array_equal(base_rec.errors, rec.errors, equal_nan=True)


def test_convergence_record_iteration_count_is_robust():
    record = ConvergenceRecord(errors=np.empty(0), residuals=np.empty(0))
    assert record.n_iterations == 0
    record = ConvergenceRecord(errors=np.zeros(4), residuals=np.zeros(4))
    assert record.n_iterations == 3
