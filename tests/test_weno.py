"""Reconstruction-table oracle and reconstruction behaviour.

The frozen rational tables in mgritlab.weno are re-derived here from first
principles with sympy: interpolate the primitive function of the cell
averages, differentiate to get each candidate polynomial, read off interface
values (c), solve for the convex combination reproducing the full-width
reconstruction (d), and integrate squared derivatives over the central cell
(B). The package tables must match the derivation exactly, as rationals.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mgritlab import (
    ConfigError,
    DimensionError,
    build_tables,
    make_model,
    reconstruct_interface_states,
    reconstruct_left,
)
from mgritlab.weno import (BLOCK_WINDOWS, _block_plan, _block_terms,
                           _newton_candidate, _newton_sum_of_squares,
                           _pair_terms, reconstruct_pair)

EPS = 1e-6


def _product(a, b):
    """a @ b for stacks of small matrices, summed over the inner index in
    its order, a[..., :, 0] b[..., 0, :] + a[..., :, 1] b[..., 1, :] + ...:
    each entry's IEEE multiplies and adds as the package's contractions
    make them, whatever the CPU's BLAS kernel would do."""
    total = a[..., :, :1] * b[..., :1, :]
    for c in range(1, a.shape[-1]):
        total = total + a[..., :, c:c + 1] * b[..., c:c + 1, :]
    return total


def _pair_terms_of(tables, windows):
    """The kernel's (candidates, beta), each (2, k+1, M), of M windows as
    one block, in this thread's scratch buffers of that block."""
    columns = np.asarray(windows, float).reshape(-1, tables.window)
    return _pair_terms(_block_plan(tables, columns))


def _per_window(tables, window, terms):
    """Side 0 of (2, k+1, M) block terms as a (..., k+1) array per window,
    a copy: the terms are scratch buffers that the next block overwrites."""
    shape = np.shape(window)[:-1] + (tables.k + 1,)
    return terms[0].T.reshape(shape).copy()


def smoothness_indicators(tables, window):
    """The kernel's beta_r of every candidate stencil; (..., k+1)."""
    return _per_window(tables, window, _pair_terms_of(tables, window)[1])


def nonlinear_weights(tables, epsilon, window):
    """The kernel's normalised weights omega_r of each window; (..., k+1)."""
    columns = np.asarray(window, float).reshape(-1, tables.window)
    return _per_window(tables, window,
                       _block_terms(tables, epsilon, columns)[1])


# ----------------------------------------------------------------------
# symbolic derivation (the oracle)
# ----------------------------------------------------------------------

def _derive_candidate(width, shift):
    """Interface-value coefficients and polynomial for one candidate stencil.

    Cell i spans [0, 1]; the stencil covers cells {i-shift, ..., i-shift+width-1}
    with unit spacing. Returns (coeffs at x=1, polynomial p(x), symbols).
    """
    x = sp.Symbol("x")
    qs = sp.symbols(f"q0:{width}")
    edges = [sp.Integer(j - shift) for j in range(width + 1)]
    primitive = [sp.Integer(0)]
    acc = sp.Integer(0)
    for j in range(width):
        acc = acc + qs[j]
        primitive.append(acc)
    interp = sp.interpolate(list(zip(edges, primitive)), x)
    poly = sp.expand(sp.diff(interp, x))
    value = sp.expand(poly.subs(x, sp.Integer(1)))
    coeffs = [sp.nsimplify(value.coeff(q)) for q in qs]
    return coeffs, poly, qs


def derive_tables(k):
    """(c, d, B) for degree k as Fractions, independently of the package."""
    cand = [_derive_candidate(k + 1, r) for r in range(k + 1)]
    c = [row for row, _, _ in cand]

    # d: convex weights recombining candidates into the (2k+1)-cell scheme
    full, _, _ = _derive_candidate(2 * k + 1, k)
    ds = sp.symbols(f"d0:{k + 1}")
    eqs = []
    for t in range(2 * k + 1):
        expr = sp.Integer(0)
        for r in range(k + 1):
            j = t + r - k  # window cell i-k+t is stencil-r cell j
            if 0 <= j <= k:
                expr += ds[r] * c[r][j]
        eqs.append(sp.Eq(expr, full[t]))
    sol = sp.solve(eqs, ds, dict=True)
    assert len(sol) == 1
    d = [sol[0][ds[r]] for r in range(k + 1)]

    # B_r: sum over derivative orders of the squared derivative integrated
    # over the central cell, expressed as a quadratic form in the averages
    x = sp.Symbol("x")
    bs = []
    for r in range(k + 1):
        _, poly, qs = _derive_candidate(k + 1, r)
        total = sp.Integer(0)
        for order in range(1, k + 1):
            der = sp.diff(poly, x, order)
            total += sp.integrate(der ** 2, (x, 0, 1))
        total = sp.expand(total)
        mat = [[None] * (k + 1) for _ in range(k + 1)]
        for a in range(k + 1):
            for b in range(k + 1):
                if a == b:
                    mat[a][b] = total.coeff(qs[a], 2)
                else:
                    mat[a][b] = sp.Rational(1, 2) * total.coeff(
                        qs[a], 1).coeff(qs[b], 1)
        bs.append(mat)

    def frac(v):
        v = sp.nsimplify(v)
        return Fraction(int(v.p), int(v.q))

    c = tuple(tuple(frac(v) for v in row) for row in c)
    d = tuple(frac(v) for v in d)
    bs = tuple(tuple(tuple(frac(v) for v in row) for row in mat)
               for mat in bs)
    return c, d, bs


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_tables_match_symbolic_derivation(k):
    c, d, bs = derive_tables(k)
    tables = build_tables(k)
    assert tables.exact_coeffs == c
    assert tables.exact_weights == d
    assert tables.exact_smoothness == bs


def test_degree_zero_and_one_tables_exact_values():
    t0 = build_tables(0)
    assert t0.exact_coeffs == ((Fraction(1),),)
    assert t0.exact_weights == (Fraction(1),)
    assert t0.exact_smoothness == (((Fraction(0),),),)

    t1 = build_tables(1)
    f = Fraction
    assert t1.exact_coeffs == ((f(1, 2), f(1, 2)), (f(-1, 2), f(3, 2)))
    assert t1.exact_weights == (f(2, 3), f(1, 3))
    ident = ((f(1), f(-1)), (f(-1), f(1)))
    assert t1.exact_smoothness == (ident, ident)


def test_build_tables_is_cached_and_rejects_bad_degree():
    assert build_tables(2) is build_tables(2)
    with pytest.raises(ConfigError):
        build_tables(4)
    with pytest.raises(ConfigError):
        build_tables(-1)


# ----------------------------------------------------------------------
# structural invariants of the tables
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_table_invariants(k):
    tables = build_tables(k)
    for row in tables.exact_coeffs:
        assert sum(row) == 1  # constants reconstruct exactly
    assert sum(tables.exact_weights) == 1
    assert all(w > 0 for w in tables.exact_weights)
    ones = np.ones(k + 1)
    for exact in tables.exact_smoothness:
        mat = np.array(exact, float)
        assert np.array_equal(mat, mat.T)
        assert np.min(np.linalg.eigvalsh(mat)) >= -1e-12
        # constant data is perfectly smooth
        assert abs(ones @ mat @ ones) < 1e-12
    # the kernel's Newton-basis forms reproduce the exact tables, as rationals
    candidate_forms = _candidate_forms(tables)
    smoothness_forms = _smoothness_forms(tables)
    assert len(candidate_forms) == k + 1
    for r in range(k + 1):
        cand = candidate_forms[r]
        assert _stencil_form(Fraction(1), cand) == tables.exact_coeffs[r]
        forms = _stencil_squares(smoothness_forms[r])
        assert len(forms) == k
        rebuilt = tuple(
            tuple(sum((w * f[a] * f[b] for w, f in forms), Fraction(0))
                  for b in range(k + 1))
            for a in range(k + 1))
        assert rebuilt == tables.exact_smoothness[r]
        # the float layout the kernel reads; side 1 carries the sign of the
        # reversed window's differences relative to the term they add to
        for j, e in enumerate(cand, start=1):
            assert tables.newton_candidates[j - 1, 0, r, 0] == float(e)
            assert tables.newton_candidates[j - 1, 1, r, 0] == \
                (-1) ** j * float(e)
        for m, (w, tail) in enumerate(smoothness_forms[r]):
            assert w > 0 and tables.newton_weights[m, r, 0] == float(w)
            expected = [0.0] * (m + 1) + [float(v) for v in tail]
            assert list(tables.newton_forms[m, :, 0, r, 0]) == expected
            assert list(tables.newton_forms[m, :, 1, r, 0]) == \
                [(-1) ** (j - m) * v for j, v in enumerate(expected)]


def _candidate_forms(tables):
    """Each stencil's candidate in the Newton basis, (e_1, ..., e_k)."""
    return tuple(_newton_candidate(row) for row in tables.exact_coeffs)


def _smoothness_forms(tables):
    """Each stencil's smoothness form in the Newton basis, as the kernel's
    tables are built from it."""
    return tuple(_newton_sum_of_squares(b) for b in tables.exact_smoothness)


def _stencil_form(lead, newton):
    """Stencil coefficients of lead * q_0 + sum_j newton[j-1] Delta^j q_0."""
    coeffs = [lead] + [Fraction(0)] * len(newton)
    for j, e in enumerate(newton, start=1):
        for i in range(j + 1):
            coeffs[i] += e * (-1) ** (j - i) * math.comb(j, i)
    return tuple(coeffs)


def _stencil_squares(newton_forms):
    """(weight, stencil coefficients) of each square of a smoothness form:
    square m is of Delta^(m+1) q_0 + sum_j tail[j] Delta^(m+2+j) q_0."""
    return tuple(
        (w, _stencil_form(Fraction(0),
                          (Fraction(0),) * m + (Fraction(1),) + tuple(tail)))
        for m, (w, tail) in enumerate(newton_forms))


def test_degree_two_smoothness_forms_are_jiang_shu():
    # 1/4 (3q0 - 4q1 + q2)^2 + 13/12 (q0 - 2q1 + q2)^2 and its mirror
    # images, each linear form scaled to coprime integers
    f = Fraction
    canonical = []
    for forms in _smoothness_forms(build_tables(2)):
        row = []
        for w, coeffs in _stencil_squares(forms):
            scale = math.lcm(*(c.denominator for c in coeffs))
            ints = tuple(int(c * scale) for c in coeffs)
            row.append((w / scale ** 2, ints))
        canonical.append(tuple(row))
    assert tuple(canonical) == (
        ((f(1, 4), (-3, 4, -1)), (f(13, 12), (1, -2, 1))),
        ((f(1, 4), (-1, 0, 1)), (f(13, 12), (1, -2, 1))),
        ((f(1, 4), (1, -4, 3)), (f(13, 12), (1, -2, 1))),
    )


# ----------------------------------------------------------------------
# smoothness indicators
# ----------------------------------------------------------------------

def test_smoothness_hand_values_degree_two():
    tables = build_tables(2)
    # candidate r=1 occupies window slots 1..3; slots 0 and 4 must not matter
    window = np.array([9.0, 0.0, 1.0, 2.0, -7.0])
    beta = smoothness_indicators(tables, window)
    assert beta[1] == pytest.approx(1.0, abs=1e-13)
    window_rev = np.array([9.0, 2.0, 1.0, 0.0, -7.0])
    beta_rev = smoothness_indicators(tables, window_rev)
    assert beta_rev[1] == pytest.approx(1.0, abs=1e-13)


def test_smoothness_linear_data_degree_one():
    tables = build_tables(1)
    a, h = 0.7, 0.3
    beta = smoothness_indicators(tables, np.array([a, a + h, a + 2 * h]))
    assert beta == pytest.approx([h * h, h * h], abs=1e-15)


def test_smoothness_constant_data_is_zero():
    rng = np.random.default_rng(7)
    for k in (0, 1, 2, 3):
        tables = build_tables(k)
        c = rng.uniform(-5, 5)
        beta = smoothness_indicators(
            tables, np.full(2 * k + 1, c))
        assert np.all(np.abs(beta) < 1e-12)


def test_smoothness_nonnegative_on_random_windows():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        tables = build_tables(k)
        windows = rng.uniform(-10, 10, size=(40, 2 * k + 1))
        beta = smoothness_indicators(tables, windows)
        assert beta.shape == (40, k + 1)
        assert np.all(beta >= -1e-10)


def _windows(draw_k):
    """(k, windows) with 1-3 windows of 2k+1 values spanning many scales."""
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw_k.flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.lists(value, min_size=2 * k + 1,
                                      max_size=2 * k + 1),
                             min_size=1, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(case=_windows(st.integers(0, 3)))
def test_explicit_kernel_matches_exact_rational_tables(case):
    # exact rational evaluation of c_r . q_r and q_r^T B_r q_r at the same
    # float data; the bound is relative to the sum of the terms' magnitudes,
    # plus 1e-300 for subnormal values and squares that underflow
    # side 0 on the window and side 1 on the reversed window
    k, rows = case
    tables = build_tables(k)
    windows = np.array(rows)
    candidates, betas = _pair_terms_of(tables, windows)
    for b, row in enumerate(rows):
        for side, ordered in enumerate((row, row[::-1])):
            q = [Fraction(v) for v in ordered]
            for r in range(k + 1):
                stencil = q[k - r:2 * k - r + 1]
                coeffs = tables.exact_coeffs[r]
                exact = sum(c * v for c, v in zip(coeffs, stencil))
                size = sum(abs(c * v) for c, v in zip(coeffs, stencil))
                error = abs(Fraction(candidates[side, r, b]) - exact)
                assert error <= 1e-13 * size + 1e-300
                mat = tables.exact_smoothness[r]
                exact = sum(mat[i][j] * stencil[i] * stencil[j]
                            for i in range(k + 1) for j in range(k + 1))
                size = sum(abs(mat[i][j] * stencil[i] * stencil[j])
                           for i in range(k + 1) for j in range(k + 1))
                error = abs(Fraction(betas[side, r, b]) - exact)
                assert error <= 1e-13 * size + 1e-300


def _einsum_reconstruct_left(tables, epsilon, window):
    """The windowed quadratic-form reconstruction the kernel replaced."""
    k, width = tables.k, tables.window
    coeffs = np.zeros((k + 1, width))
    smooth = np.zeros((k + 1, width, width))
    for r in range(k + 1):
        lo = k - r
        coeffs[r, lo:lo + k + 1] = np.array(tables.exact_coeffs[r], float)
        smooth[r, lo:lo + k + 1, lo:lo + k + 1] = np.array(
            tables.exact_smoothness[r], float)
    candidates = np.einsum("rt,...t->...r", coeffs, window)
    beta = np.einsum("...a,rab,...b->...r", window, smooth, window)
    raw = tables.weights / np.square(epsilon + beta)
    omega = raw / np.sum(raw, axis=-1, keepdims=True)
    return np.sum(omega * candidates, axis=-1)


@settings(max_examples=80, deadline=None)
@given(case=_windows(st.integers(0, 3)),
       epsilon=st.sampled_from([1e-6, 1e-2, 1.0]))
def test_reconstruct_left_matches_einsum_formula(case, epsilon):
    k, rows = case
    tables = build_tables(k)
    windows = np.array(rows)
    got = reconstruct_left(tables, epsilon, windows)
    expected = _einsum_reconstruct_left(tables, epsilon, windows)
    scale = np.max(np.abs(windows), axis=-1)
    assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(scale, 1.0))


# ----------------------------------------------------------------------
# nonlinear weights
# ----------------------------------------------------------------------

def test_weights_are_convex_and_default_to_optimal_on_constants():
    rng = np.random.default_rng(23)
    for k in (0, 1, 2, 3):
        tables = build_tables(k)
        windows = rng.uniform(-3, 3, size=(25, 2 * k + 1))
        omega = nonlinear_weights(tables, EPS, windows)
        assert omega.shape == (25, k + 1)
        assert np.all(omega >= 0)
        assert np.allclose(omega.sum(axis=-1), 1.0, atol=1e-12)
        # epsilon large relative to the roundoff-level smoothness of a
        # constant window, so the weights must land on the optimal ones
        flat = nonlinear_weights(tables, 1.0, np.full(2 * k + 1, 4.2))
        assert flat == pytest.approx(
            np.asarray(tables.weights, float), abs=1e-10)


def test_weights_reject_nonpositive_epsilon():
    tables = build_tables(1)
    for epsilon in (0.0, -1e-6):
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            reconstruct_pair(tables, epsilon, np.zeros(3))
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            reconstruct_pair(tables, epsilon, np.zeros((0, 3)))


def test_weights_suppress_crossed_discontinuity():
    # data jumps between slots 2 and 3; candidate r=k sees only flat data
    for k in (1, 2, 3):
        tables = build_tables(k)
        window = np.array([0.0] * (k + 1) + [1.0] * k)
        omega = nonlinear_weights(tables, EPS, window)
        assert omega[k] > 0.999
        value = reconstruct_left(tables, EPS, window)
        assert abs(value) < 1e-8  # smooth-side value, not an overshoot


# ----------------------------------------------------------------------
# reconstruction values
# ----------------------------------------------------------------------

def test_reconstruct_degree_zero_is_identity():
    tables = build_tables(0)
    assert reconstruct_left(tables, EPS, np.array([3.25])) == 3.25
    assert reconstruct_pair(tables, EPS, np.array([-1.5]))[1] == -1.5


def test_reconstruct_constants_exact():
    for k in (0, 1, 2, 3):
        tables = build_tables(k)
        window = np.full(2 * k + 1, -2.75)
        assert reconstruct_left(tables, EPS, window) == pytest.approx(
            -2.75, abs=1e-13)
        assert reconstruct_pair(tables, EPS, window)[1] == pytest.approx(
            -2.75, abs=1e-13)


def test_reconstruct_linear_data_exact():
    # averages of u(x)=x on unit cells equal midpoint values; the interface
    # value right of the central cell is exact for every degree >= 1
    for k in (1, 2, 3):
        tables = build_tables(k)
        window = np.arange(-k, k + 1) + 0.5
        left = reconstruct_left(tables, EPS, window)
        right = reconstruct_pair(tables, EPS, window)[1]
        assert left == pytest.approx(k + 1 - k - 0.0, abs=1e-12)
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(0.0, abs=1e-12)


def test_reconstruct_hand_value_degree_one():
    tables = build_tables(1)
    window = np.array([-0.5, 0.5, 1.5])
    assert reconstruct_left(tables, EPS, window) == pytest.approx(
        1.0, abs=1e-13)


def test_reconstruct_right_mirrors_left():
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        tables = build_tables(k)
        windows = rng.uniform(-2, 2, size=(10, 2 * k + 1))
        left_on_reversed = reconstruct_left(tables, EPS, windows[..., ::-1])
        assert np.array_equal(
            reconstruct_pair(tables, EPS, windows)[1], left_on_reversed)


def test_reconstruct_rejects_wrong_window_width():
    tables = build_tables(2)
    with pytest.raises(DimensionError):
        reconstruct_left(tables, EPS, np.zeros(3))
    with pytest.raises(DimensionError):
        reconstruct_pair(tables, EPS, np.zeros((4, 7)))


def test_reconstruct_pair_rejects_an_out_it_cannot_fill():
    # the values are written through out.reshape(2, -1), which copies a
    # non-contiguous out and reshapes an out of the right size and wrong
    # shape: either would come back holding nothing or the wrong layout
    tables = build_tables(2)
    window = np.random.default_rng(3).uniform(size=(3, 4, 5))
    for out in (np.full((4, 3, 2), np.nan).transpose(2, 1, 0),
                np.full((2, 12), np.nan), np.full((2, 4, 3), np.nan)):
        with pytest.raises(DimensionError, match="C-contiguous"):
            reconstruct_pair(tables, EPS, window, out=out)
    out = np.full((2, 3, 4), np.nan)
    assert reconstruct_pair(tables, EPS, window, out=out) is out
    assert out.tobytes() == reconstruct_pair(tables, EPS, window).tobytes()


def _sin_averages(n):
    """Exact cell averages of sin(2 pi x) on n cells of [0, 1)."""
    edges = np.arange(n + 1) / n
    dx = 1.0 / n
    return (np.cos(2 * np.pi * edges[:-1])
            - np.cos(2 * np.pi * edges[1:])) / (2 * np.pi * dx)


@pytest.mark.parametrize("k,sizes,floor", [
    (1, (64, 128, 256), 2.5),
    (2, (16, 32, 64), 4.5),
])
def test_reconstruction_order_of_accuracy(k, sizes, floor):
    tables = build_tables(k)
    errs = []
    for n in sizes:
        q = _sin_averages(n)
        idx = (np.arange(n)[:, None] + np.arange(-k, k + 1)[None, :]) % n
        rec = reconstruct_left(tables, EPS, q[idx])
        exact = np.sin(2 * np.pi * np.arange(1, n + 1) / n)
        errs.append(np.sqrt(np.mean((rec - exact) ** 2)))
    fit = np.polyfit(np.log(sizes), -np.log(errs), 1)[0]
    assert fit >= floor


# ----------------------------------------------------------------------
# interface states on periodic fields
# ----------------------------------------------------------------------

def test_interface_states_degree_zero_alignment():
    # entry i belongs to interface i+1/2: left value from cell i, right
    # value from cell i+1, periodically
    model = make_model("burgers")
    field = np.array([[1.0, 2.0, 3.0, 4.0]])
    tables = build_tables(0)
    sides = reconstruct_interface_states(model, field, tables, EPS)
    assert sides.shape == (2,) + field.shape and sides.flags.c_contiguous
    left, right = sides
    assert np.array_equal(left, field)
    assert np.array_equal(right, np.roll(field, -1, axis=-1))


def test_interface_states_constant_field():
    model = make_model("shallow-water")
    field = np.stack([np.full(16, 2.0), np.full(16, 1.0)])
    for k in (0, 1, 2, 3):
        tables = build_tables(k)
        for characteristic in (True, False):
            left, right = reconstruct_interface_states(
                model, field, tables, EPS, characteristic=characteristic)
            assert np.allclose(left, field, atol=1e-12)
            assert np.allclose(right, field, atol=1e-12)


def test_interface_states_scalar_ignores_characteristic_flag():
    model = make_model("burgers")
    rng = np.random.default_rng(5)
    field = rng.uniform(-1, 1, size=(1, 32))
    tables = build_tables(2)
    on = reconstruct_interface_states(model, field, tables, EPS,
                                      characteristic=True)
    off = reconstruct_interface_states(model, field, tables, EPS,
                                       characteristic=False)
    assert np.array_equal(on[0], off[0])
    assert np.array_equal(on[1], off[1])


def test_interface_states_characteristic_matches_componentwise_when_linear():
    # with a huge epsilon the weights collapse to the optimal ones for any
    # data, the scheme becomes linear in the window, and the characteristic
    # projection (invertible per cell) must commute with it
    model = make_model("shallow-water")
    x = (np.arange(32) + 0.5) / 32
    h = 1.5 + 0.3 * np.sin(2 * np.pi * x)
    field = np.stack([h, h * 0.2 * np.cos(2 * np.pi * x)])
    tables = build_tables(2)
    char = reconstruct_interface_states(model, field, tables, 1e12,
                                        characteristic=True)
    comp = reconstruct_interface_states(model, field, tables, 1e12,
                                        characteristic=False)
    assert np.allclose(char[0], comp[0], atol=1e-10)
    assert np.allclose(char[1], comp[1], atol=1e-10)


def test_interface_states_batched_leading_axes():
    model = make_model("burgers")
    rng = np.random.default_rng(17)
    fields = rng.uniform(-1, 1, size=(3, 1, 16))
    tables = build_tables(1)
    left, right = reconstruct_interface_states(model, fields, tables, EPS)
    assert left.shape == (3, 1, 16)
    for b in range(3):
        single = reconstruct_interface_states(model, fields[b], tables, EPS)
        assert np.array_equal(left[b], single[0])
        assert np.array_equal(right[b], single[1])


@pytest.mark.parametrize("kind,k", [("shallow-water", 1), ("euler", 2),
                                    ("euler", 3)])
def test_characteristic_interface_states_do_not_depend_on_the_batch(kind, k):
    # bitwise: MGRIT batches states differently at each parallelism degree
    model = make_model(kind)
    rng = np.random.default_rng(19)
    x = (np.arange(24) + 0.5) / 24
    fields = []
    for _ in range(7):
        h = 1.5 + 0.4 * np.sin(2 * np.pi * (x + rng.uniform()))
        vel = 0.3 * np.cos(2 * np.pi * (x + rng.uniform()))
        if kind == "euler":
            p = 1.2 + 0.3 * np.sin(2 * np.pi * (x + rng.uniform()))
            energy = p / (model.gamma - 1) + 0.5 * h * vel ** 2
            fields.append([h, h * vel, energy])
        else:
            fields.append([h, h * vel])
    fields = np.array(fields)
    tables = build_tables(k)
    left, right = reconstruct_interface_states(model, fields, tables, EPS)
    for lo, hi in ((0, 1), (1, 4), (4, 7)):
        part = reconstruct_interface_states(model, fields[lo:hi], tables, EPS)
        assert np.array_equal(left[lo:hi], part[0])
        assert np.array_equal(right[lo:hi], part[1])


def _rolled_characteristic_right_states(model, field, tables):
    """Right-side states from cell i+1's window and rolled eigenvectors."""
    _, right_vec, left_vec = model.eigen_cells(field)
    right_next = np.roll(right_vec, -1, axis=-3)
    left_next = np.roll(left_vec, -1, axis=-3)
    n, k = field.shape[-1], tables.k
    cells = np.arange(n)[:, None]
    idx = (cells + 1 + np.arange(k, -k - 1, -1)[None, :]) % n
    component = np.arange(field.shape[-2])[:, None]
    char = _product(left_next, field[..., component, idx[:, None, :]])
    rec = reconstruct_left(tables, EPS, char)
    return np.swapaxes(_product(right_next, rec[..., None])[..., 0], -1, -2)


@pytest.mark.parametrize("kind,k", [("shallow-water", 1), ("euler", 2),
                                    ("euler", 3)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_characteristic_right_states_bitwise_equal_rolled_form(kind, k,
                                                               batch):
    model = make_model(kind)
    rng = np.random.default_rng(23)
    x = (np.arange(12) + 0.5) / 12
    phase = rng.uniform(size=batch + (1,))
    h = 1.5 + 0.4 * np.sin(2 * np.pi * (x + phase))
    vel = 0.3 * np.cos(2 * np.pi * (x + 2 * phase))
    components = [h, h * vel]
    if kind == "euler":
        p = 1.2 + 0.3 * np.sin(2 * np.pi * (x - phase))
        components.append(p / (model.gamma - 1) + 0.5 * h * vel ** 2)
    field = np.stack(components, axis=-2)
    tables = build_tables(k)
    _, right = reconstruct_interface_states(model, field, tables, EPS)
    expected = _rolled_characteristic_right_states(model, field, tables)
    assert np.array_equal(right, expected)


def test_interface_states_dimension_errors():
    model = make_model("burgers")
    tables = build_tables(2)
    with pytest.raises(DimensionError):
        reconstruct_interface_states(model, np.zeros(8), tables, EPS)
    with pytest.raises(DimensionError):
        reconstruct_interface_states(model, np.zeros((1, 3)), tables, EPS)


# ----------------------------------------------------------------------
# the paired kernel against one-sided references
# ----------------------------------------------------------------------

def _one_side_reconstruct_left(tables, epsilon, window):
    """Reference one-sided evaluation: the value at the right interface of
    each window from that window's own differences, with tables rebuilt
    from the exact forms."""
    k = tables.k
    cand = [[float(e) for e in form] for form in _candidate_forms(tables)]
    smoothness_forms = _smoothness_forms(tables)
    rows = np.ascontiguousarray(np.moveaxis(window, -1, 0))
    rows = rows.reshape(tables.window, -1)
    differences = [rows]
    for _ in range(k):
        differences.append(differences[-1][1:] - differences[-1][:-1])
    at = [d[k::-1] for d in differences]
    candidates = at[0].copy()
    for j in range(1, k + 1):
        candidates += np.array([[c[j - 1]] for c in cand]) * at[j]
    beta = np.zeros_like(candidates)
    for m in range(k):
        square = at[m + 1].copy()
        for j in range(m + 1, k):
            tail = [[float(forms[m][1][j - m - 1])]
                    for forms in smoothness_forms]
            square += np.array(tail) * at[j + 1]
        square *= square
        square *= np.array([[float(forms[m][0])]
                            for forms in smoothness_forms])
        beta += square
    beta += epsilon
    beta *= beta
    raw = tables.weights[:, None] / beta
    total = raw[0].copy()
    for row in raw[1:]:
        total += row
    raw /= total
    raw *= candidates
    value = raw[0].copy()
    for row in raw[1:]:
        value += row
    return value.reshape(window.shape[:-1])


def _two_gather_interface_states(model, field, tables, epsilon,
                                 characteristic):
    """Reference interface states: the right side's windows gathered (and
    projected) reversed, separately from the left side's, and each side
    reconstructed one-sided."""
    n, k = field.shape[-1], tables.k
    cells = np.arange(n)[:, None]
    left_idx = (cells + np.arange(-k, k + 1)[None, :]) % n
    right_idx = (cells + 1 + np.arange(k, -k - 1, -1)[None, :]) % n
    if characteristic and field.shape[-2] > 1:
        _, right_vec, left_vec = model.eigen_cells(field)
        component = np.arange(field.shape[-2])[:, None]
        char_left = _product(left_vec,
                             field[..., component, left_idx[:, None, :]])
        char_right = _product(left_vec,
                              field[..., component, left_idx[:, None, ::-1]])
        states = [
            _product(right_vec, _one_side_reconstruct_left(
                tables, epsilon, char)[..., None])[..., 0]
            for char in (char_left, char_right)]
        return (np.swapaxes(states[0], -1, -2),
                np.roll(np.swapaxes(states[1], -1, -2), -1, axis=-1))
    return (_one_side_reconstruct_left(tables, epsilon, field[..., left_idx]),
            _one_side_reconstruct_left(tables, epsilon, field[..., right_idx]))


def _smooth_field(model, kind, batch, n, rng):
    x = (np.arange(n) + 0.5) / n
    phase = rng.uniform(size=batch + (1,))
    h = 1.5 + 0.4 * np.sin(2 * np.pi * (x + phase))
    vel = 0.3 * np.cos(2 * np.pi * (x + 2 * phase))
    if kind == "burgers":
        return np.stack([vel + 0.1 * rng.standard_normal(batch + (n,))],
                        axis=-2)
    components = [h, h * vel]
    if kind == "euler":
        p = 1.2 + 0.3 * np.sin(2 * np.pi * (x - phase))
        components.append(p / (model.gamma - 1) + 0.5 * h * vel ** 2)
    return np.stack(components, axis=-2)


@pytest.mark.parametrize("kind,batch", [("euler", ()), ("euler", (100,)),
                                        ("shallow-water", ())])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_projection_commutes_with_window_reversal(kind, batch, k):
    # the right value's characteristic window is the projected window read
    # backwards: the kernel's window slots are projected alike, so it
    # projects each window once; its projection is the component-order
    # contraction of _product, whose entries here are the kernel's bits
    model = make_model(kind)
    field = _smooth_field(model, kind, batch, 64, np.random.default_rng(3))
    _, _, left_vec = model.eigen_cells(field)
    assert left_vec.shape == batch + (64,) + (field.shape[-2],) * 2
    component = np.arange(field.shape[-2])[:, None]
    cells = (np.arange(64)[:, None] + np.arange(-k, k + 1)) % 64
    windows = field[..., component, cells[:, None, :]]
    projected = _product(left_vec, windows)
    assert np.array_equal(_product(left_vec, windows[..., ::-1]),
                          projected[..., ::-1])
    assert np.array_equal(
        _product(left_vec, np.ascontiguousarray(windows[..., ::-1])),
        projected[..., ::-1])


_COUNTS = (1, BLOCK_WINDOWS - 1, BLOCK_WINDOWS, BLOCK_WINDOWS + 1,
           2 * BLOCK_WINDOWS + 3)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), count=st.sampled_from(_COUNTS),
       strided=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       epsilon=st.sampled_from([1e-6, 1e-2]))
def test_paired_kernel_bitwise_equals_one_side_evaluation(k, count, strided,
                                                           seed, epsilon):
    # values over six decades, each window at its own scale; strided input
    # is overlapping windows of one line, as a periodic gather reads them
    tables = build_tables(k)
    rng = np.random.default_rng(seed)
    width = tables.window
    if strided:
        line = rng.standard_normal(count + width - 1)
        line *= 10.0 ** rng.uniform(-3, 3, size=line.shape)
        windows = np.lib.stride_tricks.sliding_window_view(line, width)
    else:
        windows = rng.standard_normal((count, width))
        windows *= 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    left, right = reconstruct_pair(tables, epsilon, windows)
    assert np.array_equal(
        left, _one_side_reconstruct_left(tables, epsilon, windows))
    assert np.array_equal(
        right, _one_side_reconstruct_left(tables, epsilon, windows[:, ::-1]))


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
@pytest.mark.parametrize("characteristic", [True, False])
@pytest.mark.parametrize("batch", [(), (3,), (2, 5), (200,)])
def test_interface_states_bitwise_equal_two_gather_form(kind, characteristic,
                                                        batch):
    model = make_model(kind)
    field = _smooth_field(model, kind, batch, 24, np.random.default_rng(29))
    for k in (1, 2, 3):
        tables = build_tables(k)
        sides = reconstruct_interface_states(
            model, field, tables, EPS, characteristic=characteristic)
        assert sides.shape == (2,) + field.shape
        assert sides.flags.c_contiguous
        left, right = sides
        expected = _two_gather_interface_states(model, field, tables, EPS,
                                                characteristic)
        assert np.array_equal(left, expected[0])
        assert np.array_equal(right, expected[1])
