"""WENO reconstruction of interface values from cell averages.

Polynomial degree k in {0, 1, 2, 3} gives nominal order s = 2k+1 in
{1, 3, 5, 7}. Candidate stencil r in [0, k] covers cells {i-r, ..., i-r+k};
row r of the coefficient table maps those cell averages to the value at the
right interface x_{i+1/2} of cell i. The optimal weights d recombine the
candidates into the full (2k+1)-cell reconstruction, and the smoothness
forms B_r are the quadratic forms q^T B_r q summing the squared scaled
derivatives of each candidate polynomial over the central cell.

All tables are exact rationals, derived once (the symbolic derivation lives
in the test suite as the oracle) and frozen here. For evaluation they are
rewritten, exactly, in the Newton basis of forward differences
Delta^j q_s at the first cell s of each stencil: a candidate is
q_s + sum_j e_j Delta^j q_s, and B_r, which annihilates constants, is its
LDL^T factorisation in the differences, a weighted sum of squares of
Delta^(m+1) q_s + sum_{j>m} l_j Delta^(j+1) q_s (for k = 2 these are the
Jiang-Shu indicators, JCP 126, 1996). The kernel takes the differences of
the whole window once and evaluates these explicit sums for all k+1
stencils together, for both of the window's values at once.

Reconstruction functions accept stacked windows with arbitrary leading batch
axes; the window axis is last and holds cells (i-k, ..., i+k) in increasing
order. The right-side value at an interface is the mirrored reconstruction:
the left-value procedure on the index-reversed window of the cell on the
right of the interface. One pass over a window gives both of its values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import scratch
from .errors import ConfigError, DimensionError

DEFAULT_EPSILON = 1e-6

SUPPORTED_DEGREES = (0, 1, 2, 3)


def _fm(den, rows):
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def _fv(den, vals):
    return tuple(Fraction(v, den) for v in vals)


_COEFFS = {
    0: _fm(1, [[1]]),
    1: _fm(2, [[1, 1],
               [-1, 3]]),
    2: _fm(6, [[2, 5, -1],
               [-1, 5, 2],
               [2, -7, 11]]),
    3: _fm(12, [[3, 13, -5, 1],
                [-1, 7, 7, -1],
                [1, -5, 13, 3],
                [-3, 13, -23, 25]]),
}

_WEIGHTS = {
    0: _fv(1, [1]),
    1: _fv(3, [2, 1]),
    2: _fv(10, [3, 6, 1]),
    3: _fv(35, [4, 18, 12, 1]),
}

_SMOOTHNESS = {
    0: (_fm(1, [[0]]),),
    1: (_fm(1, [[1, -1], [-1, 1]]),
        _fm(1, [[1, -1], [-1, 1]])),
    2: (_fm(6, [[20, -31, 11], [-31, 50, -19], [11, -19, 8]]),
        _fm(6, [[8, -13, 5], [-13, 26, -13], [5, -13, 8]]),
        _fm(6, [[8, -19, 11], [-19, 50, -31], [11, -31, 20]])),
    3: (_fm(240, [[2107, -4701, 3521, -927],
                  [-4701, 11003, -8623, 2321],
                  [3521, -8623, 7043, -1941],
                  [-927, 2321, -1941, 547]]),
        _fm(240, [[547, -1261, 961, -247],
                  [-1261, 3443, -2983, 801],
                  [961, -2983, 2843, -821],
                  [-247, 801, -821, 267]]),
        _fm(240, [[267, -821, 801, -247],
                  [-821, 2843, -2983, 961],
                  [801, -2983, 3443, -1261],
                  [-247, 961, -1261, 547]]),
        _fm(240, [[547, -1941, 2321, -927],
                  [-1941, 7043, -8623, 3521],
                  [2321, -8623, 11003, -4701],
                  [-927, 3521, -4701, 2107]])),
}


def _newton_candidate(coeffs):
    """(e_1, ..., e_k) with c . q == q_0 + sum_j e_j Delta^j q_0.

    q_i = sum_j C(i,j) Delta^j q_0, and the coefficients sum to 1.
    """
    return tuple(sum(c * comb(i, j) for i, c in enumerate(coeffs))
                 for j in range(1, len(coeffs)))


def _newton_sum_of_squares(b):
    """The LDL^T factorisation of q^T b q in the forward differences.

    b annihilates constants, so q^T b q is a quadratic form in
    Delta^1 q_0, ..., Delta^k q_0 alone; with L D L^T its matrix there,
    q^T b q = sum_m D_m (Delta^(m+1) q_0 + sum_{j>m} L_jm Delta^(j+1) q_0)^2.
    Returns ((D_m, (L_(m+1)m, ..., L_(k-1)m)), ...) for m = 0, ..., k-1.
    """
    n = len(b)
    newton = [[comb(i, j) for j in range(n)] for i in range(n)]
    gram = [[sum(newton[a][i] * b[a][c] * newton[c][j]
                  for a in range(n) for c in range(n))
             for j in range(1, n)] for i in range(1, n)]
    size = n - 1
    lower = [[Fraction(0)] * size for _ in range(size)]
    diag = []
    for j in range(size):
        diag.append(gram[j][j] - sum(lower[j][p] ** 2 * diag[p]
                                     for p in range(j)))
        for i in range(j + 1, size):
            lower[i][j] = (gram[i][j] - sum(lower[i][p] * lower[j][p] * diag[p]
                                            for p in range(j))) / diag[j]
    return tuple((diag[m], tuple(lower[j][m] for j in range(m + 1, size)))
                 for m in range(size))


@dataclass(frozen=True)
class WenoTables:
    """Reconstruction tables for one polynomial degree.

    exact_* fields hold the rational values, and weights the closest
    doubles of the optimal weights. The candidate and smoothness forms are
    the tables in the Newton basis (see the module docstring): per stencil
    r, the candidate's (e_1, ..., e_k) and
    ((D_m, (l_(m+1), ..., l_(k-1))), ...) for its smoothness. The newton_*
    arrays lay them out for the kernel: a side axis (0 for the left value,
    1 for the mirrored right value, signed as _pair_terms explains),
    stencils along axis -2 and a trailing axis to broadcast over windows.
    """

    k: int
    exact_coeffs: tuple
    exact_weights: tuple
    exact_smoothness: tuple
    exact_candidate_forms: tuple
    exact_smoothness_forms: tuple
    weights: np.ndarray             # (k+1,)
    newton_candidates: np.ndarray   # (k, 2, k+1, 1): e_j of stencil r
    newton_forms: np.ndarray        # (k, k, 2, k+1, 1): l_j of form m, j > m
    newton_weights: np.ndarray      # (k, k+1, 1): D_m of stencil r
    stencil_rows: tuple             # per order j, (2, k+1) rows of Delta^j

    @property
    def window(self) -> int:
        return 2 * self.k + 1


@lru_cache(maxsize=None)
def build_tables(k: int) -> WenoTables:
    """Tables for polynomial degree k (reconstruction order 2k+1)."""
    if k not in SUPPORTED_DEGREES:
        raise ConfigError(
            f"unsupported reconstruction degree k={k}, "
            f"expected one of {SUPPORTED_DEGREES}")
    exact_c = _COEFFS[k]
    exact_d = _WEIGHTS[k]
    exact_b = _SMOOTHNESS[k]
    weights = np.array([float(v) for v in exact_d])
    exact_cand = tuple(_newton_candidate(row) for row in exact_c)
    exact_forms = tuple(_newton_sum_of_squares(mat) for mat in exact_b)
    cand = np.zeros((k, 2, k + 1, 1))
    forms = np.zeros((k, k, 2, k + 1, 1))
    form_weights = np.zeros((k, k + 1, 1))
    for r in range(k + 1):
        cand[:, 0, r, 0] = [float(e) for e in exact_cand[r]]
        for m, (weight, tail) in enumerate(exact_forms[r]):
            form_weights[m, r, 0] = float(weight)
            forms[m, m + 1:, 0, r, 0] = [float(v) for v in tail]
    # Delta^j of the reversed window is (-1)^j times Delta^j of the window
    # (exactly: a - b == -(b - a)); candidate term j is added to Delta^0,
    # and term j of smoothness form m to Delta^(m+1)
    sign = (-1.0) ** np.arange(1, k + 1)
    cand[:, 1] = cand[:, 0] * sign[:, None, None]
    forms[:, :, 1] = forms[:, :, 0] * np.outer(sign, sign)[..., None, None]
    # stencil r starts at slot k - r, and on the reversed window at the
    # mirror of slot k - j + r of Delta^j
    rows = tuple(np.array([np.arange(k, -1, -1),
                           np.arange(k - j, 2 * k - j + 1)])
                 for j in range(k + 1))
    for table in (cand, forms, form_weights) + rows:
        table.setflags(write=False)
    return WenoTables(k=k, exact_coeffs=exact_c, exact_weights=exact_d,
                      exact_smoothness=exact_b,
                      exact_candidate_forms=exact_cand,
                      exact_smoothness_forms=exact_forms, weights=weights,
                      newton_candidates=cand, newton_forms=forms,
                      newton_weights=form_weights, stencil_rows=rows)


def _check_window(tables: WenoTables, window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, float)
    if window.shape[-1] != tables.window:
        raise DimensionError(
            f"window of {window.shape[-1]} cells for degree k={tables.k}; "
            f"need {tables.window}")
    return window


def _rows_layout(key):
    return (("weno.rows", key),)


def _pair_layout(key):
    k, m = key
    pair = (2, k + 1, m)
    return (("weno.diff0", (2 * k, m)), ("weno.diff1", (2 * k, m)),
            ("weno.at", (k + 1,) + pair), ("weno.term", pair),
            ("weno.beta", pair), ("weno.total", (2, m)))


def _slot_major(tables: WenoTables, windows: np.ndarray) -> np.ndarray:
    """(W, M) copy: row t holds slot t of each of the M windows."""
    windows = windows.reshape(-1, tables.window)
    (rows,) = scratch.buffers(_rows_layout, windows.shape[::-1])
    np.copyto(rows, windows.T)
    return rows


def _pair_terms(tables: WenoTables, rows: np.ndarray):
    """Candidate values and smoothness indicators of every stencil on both
    sides, each (2, k+1, M): [0, r] for stencil r of the window (toward
    its right interface), [1, r] for stencil r of the reversed window
    (toward its left interface). rows is a (W, M) slot-major array. Both
    are this thread's scratch buffers (see `scratch`), overwritten by the
    next call.

    The reversed window's Delta^j at its stencil r is (-1)^j Delta^j at
    slot k - j + r of the window, exactly (a - b == -(b - a)), so side 1
    reads the same differences and the side-1 tables carry the signs.
    Every side-1 sum is then the reversed window's own sum or its exact
    negation, and squares drop the sign: both sides are bitwise the
    one-sided evaluation of their window.
    """
    # Elementwise arithmetic only: a window's result must not depend on the
    # batch around it (a BLAS product over the batch rounds differently with
    # its size and alignment, and CSVs are byte-identical across
    # parallelism degrees, which batch the states differently).
    k = tables.k
    *differences_out, at, term, beta, _ = scratch.buffers(
        _pair_layout, (k, rows.shape[-1]))
    # at[j][side, r] is Delta^j q at the first cell of stencil r of side
    differences = rows
    for j, stencil_rows in enumerate(tables.stencil_rows):
        if j:
            differences = np.subtract(
                differences[1:], differences[:-1],
                out=differences_out[j % 2][:len(differences) - 1])
        np.take(differences, stencil_rows, axis=0, out=at[j], mode="clip")
    candidates = at[0]
    for e, delta in zip(tables.newton_candidates, at[1:]):
        candidates += np.multiply(e, delta, out=term)
    beta.fill(0.0)
    for m in range(k):
        square = at[m + 1]  # forms after m read only at[m + 2:]
        for j in range(m + 1, k):
            square += np.multiply(tables.newton_forms[m, j], at[j + 1],
                                  out=term)
        square *= square
        square *= tables.newton_weights[m]
        beta += square
    return candidates, beta


def _normalised_weights(tables: WenoTables, epsilon: float, beta):
    """omega_r = (d_r/(eps+beta_r)^2) / sum_r, (2, k+1, M); overwrites beta."""
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    total = scratch.buffers(_pair_layout, (tables.k, beta.shape[-1]))[-1]
    beta += epsilon
    beta *= beta
    raw = np.divide(tables.weights[:, None], beta, out=beta)
    np.copyto(total, raw[:, 0])
    for r in range(1, tables.k + 1):
        total += raw[:, r]
    raw /= total[:, None]
    return raw


def nonlinear_weights(tables: WenoTables, epsilon: float,
                      window: np.ndarray) -> np.ndarray:
    """Normalised weights omega_r = (d_r/(eps+beta_r)^2) / sum; (..., k+1)."""
    window = _check_window(tables, window)
    _, beta = _pair_terms(tables, _slot_major(tables, window))
    omega = _normalised_weights(tables, epsilon, beta)[0]  # the window's side
    return omega.T.reshape(window.shape[:-1] + (tables.k + 1,)).copy()


# Windows per kernel block: the block's temporaries, a few dozen rows of
# this many doubles, stay in a core's L2 cache at any batch size, and a
# block costs a few dozen numpy calls, so smaller blocks pay more call
# overhead (README, "Kernel forms", has the measured block-size curve).
BLOCK_WINDOWS = 4096


def _reconstruct_pair_into(tables: WenoTables, epsilon: float,
                           columns: np.ndarray, values: np.ndarray) -> None:
    """reconstruct_pair of the (M, W) windows columns into (2, M) values."""
    for start in range(0, len(columns), BLOCK_WINDOWS):
        block = slice(start, start + BLOCK_WINDOWS)
        candidates, beta = _pair_terms(tables,
                                       _slot_major(tables, columns[block]))
        omega = _normalised_weights(tables, epsilon, beta)
        omega *= candidates
        value = values[:, block]
        value[...] = omega[:, 0]
        for r in range(1, tables.k + 1):
            value += omega[:, r]


def reconstruct_pair(tables: WenoTables, epsilon: float,
                     window: np.ndarray) -> np.ndarray:
    """(2, ...) values of the windows centred on cells i: [0] just left of
    x_{i+1/2}, [1] just right of x_{i-1/2} (the left value of the reversed
    window)."""
    window = _check_window(tables, window)
    columns = window.reshape(-1, tables.window)
    values = np.empty((2, len(columns)))
    _reconstruct_pair_into(tables, epsilon, columns, values)
    return values.reshape((2,) + window.shape[:-1])


def reconstruct_left(tables: WenoTables, epsilon: float,
                     window: np.ndarray) -> np.ndarray:
    """Value just left of x_{i+1/2} from the window centred on cell i."""
    return reconstruct_pair(tables, epsilon, window)[0]


@lru_cache(maxsize=None)
def _window_indices(n_cells: int, k: int) -> np.ndarray:
    """Periodic gather index: row i holds the window of cell i."""
    cells = np.arange(n_cells)[:, None]
    index = (cells + np.arange(-k, k + 1)[None, :]) % n_cells
    index.setflags(write=False)
    return index


@lru_cache(maxsize=None)
def _characteristic_indices(n_components: int, n_cells: int,
                            k: int) -> np.ndarray:
    """Gather index into a state's D * N flattened values: entry (i, d)
    holds the window of cell i in component d."""
    component = n_cells * np.arange(n_components)[:, None]
    index = component + _window_indices(n_cells, k)[:, None, :]
    index.setflags(write=False)
    return index


def _interface_sides(values: np.ndarray, sides: np.ndarray) -> None:
    """Contiguous (2, ..., D, N) sides from every cell's (2, ..., D, N)
    values: side 0 as it is, side 1 moved from cell i+1 to entry i along
    the periodic last axis."""
    sides[0] = values[0]
    sides[1, ..., :-1] = values[1, ..., 1:]
    sides[1, ..., -1] = values[1, ..., 0]


def check_field(tables: WenoTables, field) -> np.ndarray:
    """field as a float array, checked to be (..., D, N) with enough cells
    for a window."""
    field = np.asarray(field, float)
    if field.ndim < 2:
        raise DimensionError(f"field must be (..., D, N), got {field.shape}")
    n_cells = field.shape[-1]
    if n_cells < tables.window:
        raise DimensionError(
            f"{n_cells} cells cannot support a {tables.window}-cell window")
    return field


# The windows and values of a reconstruction take the "interface" buffer,
# which the numerical flux takes for its terms once the sides are made.

def _characteristic_layout(key):
    shape, window = key
    cells = shape[:-2] + shape[:-3:-1]  # (..., N, D)
    return (("eigen.values", cells),
            ("eigen.right", cells + shape[-2:-1]),
            ("eigen.left", cells + shape[-2:-1]),
            ("interface", cells + (window,)),
            ("interface", cells + (window,)))


def _component_layout(key):
    shape, window = key
    return (("interface", shape + (window,)),
            ("interface", (2,) + shape))


def _reuse(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """A view at shape of the start of a contiguous buffer whose contents
    are no longer needed."""
    return buffer.reshape(-1)[:prod(shape)].reshape(shape)


def interface_states_into(model, field: np.ndarray, tables: WenoTables,
                          epsilon: float, characteristic: bool,
                          sides: np.ndarray) -> None:
    """reconstruct_interface_states of a checked field (check_field) into
    sides, with this thread's scratch buffers for every temporary."""
    if tables.k == 0:
        _interface_sides(np.broadcast_to(field, (2,) + field.shape), sides)
        return
    n_components, n_cells = field.shape[-2:]
    key = (field.shape, tables.window)
    if characteristic and n_components > 1:
        (lam, right_vec, left_vec, windows,
         projected) = scratch.buffers(_characteristic_layout, key)
        model._eigen_cells_into(field, lam, right_vec, left_vec)
        # cell-major windows (..., N, D, W), projected per cell to
        # characteristic windows (..., N, C, W); the projection commutes
        # with reversing a window, so cell j's value at x_{j-1/2} is in its
        # own characteristic fields too. mode="clip" gathers into windows
        # directly (the indices are all in range).
        np.take(field.reshape(field.shape[:-2] + (-1,)),
                _characteristic_indices(n_components, n_cells, tables.k),
                axis=-1, out=windows, mode="clip")
        np.matmul(left_vec, windows, out=projected)
        pair = _reuse(windows, (2,) + lam.shape)
        _reconstruct_pair_into(tables, epsilon,
                               projected.reshape(-1, tables.window),
                               pair.reshape(2, -1))
        back = _reuse(projected, pair.shape + (1,))
        np.matmul(right_vec, pair[..., None], out=back)
        values = np.swapaxes(back[..., 0], -1, -2)
    else:
        windows, values = scratch.buffers(_component_layout, key)
        np.take(field, _window_indices(n_cells, tables.k), axis=-1,
                out=windows, mode="clip")
        _reconstruct_pair_into(tables, epsilon,
                               windows.reshape(-1, tables.window),
                               values.reshape(2, -1))
    _interface_sides(values, sides)


def reconstruct_interface_states(model, field: np.ndarray, tables: WenoTables,
                                 epsilon: float, characteristic: bool = True):
    """Left and right states at every interface of a periodic field.

    field has shape (..., D, N). Returns one C-contiguous (2, ..., D, N)
    array of sides: sides[0] is u- and sides[1] is u+ at x_{i+1/2}, the
    right edge of cell i, so `left, right = sides` unpacks them. Each
    cell's window is gathered once and gives both of the cell's values:
    the left value at x_{i+1/2} and the right value at x_{i-1/2}, which one
    shift by a cell puts at the interface it belongs to. With
    characteristic=True and D > 1, the window is projected onto the
    characteristic fields of its own cell, reconstructed per field, and
    projected back. Degree 0 is the identity, so its sides are the field
    and its neighbour, without any projection.
    """
    field = check_field(tables, field)
    sides = np.empty((2,) + field.shape)
    interface_states_into(model, field, tables, epsilon, characteristic,
                          sides)
    return sides
