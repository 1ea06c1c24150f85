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
from .models import _contract, _contraction, _eigen_outs

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
    doubles of the optimal weights. The newton_* arrays hold the tables in
    the Newton basis (see the module docstring), as _newton_candidate and
    _newton_sum_of_squares give them per stencil, laid out for the kernel:
    a side axis (0 for the left value, 1 for the mirrored right value,
    signed as _pair_terms explains), stencils along axis -2 and a trailing
    axis to broadcast over windows.
    """

    k: int
    exact_coeffs: tuple
    exact_weights: tuple
    exact_smoothness: tuple
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
                      exact_smoothness=exact_b, weights=weights,
                      newton_candidates=cand, newton_forms=forms,
                      newton_weights=form_weights, stencil_rows=rows)


def _check_window(tables: WenoTables, window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, float)
    if window.shape[-1] != tables.window:
        raise DimensionError(
            f"window of {window.shape[-1]} cells for degree k={tables.k}; "
            f"need {tables.window}")
    return window


def _pair_layout(key):
    k, m = key
    pair = (2, k + 1, m)
    return (("weno.rows", (2 * k + 1, m)), ("weno.diff0", (2 * k, m)),
            ("weno.diff1", (2 * k, m)), ("weno.at", (k + 1,) + pair),
            ("weno.term", pair), ("weno.beta", pair), ("weno.total", (2, m)))


def _pair_plan(rows, diff0, diff1, at, term, beta, total):
    """A block's views and the table operands of its degree, in the order
    _pair_terms and _normalised_weights use them.

    rows holds the block's windows slot-major, (W, ...), and need not be
    contiguous; every other buffer has the windows' shape rows.shape[1:]
    after its leading axes (_pair_layout's block is a line of m windows).
    at[j][side, r] is Delta^j q at the first cell of stencil r of side;
    Delta^j, j >= 1, is made from Delta^(j-1) in diff0 or diff1 by turns.
    """
    k = len(at) - 1
    tables = build_tables(k)
    spread = (1,) * (rows.ndim - 2)  # table operands span every window axis

    def operand(table):
        return table.reshape(table.shape + spread)

    differences = [rows]
    for j in range(1, k + 1):
        rows_j = len(differences[-1]) - 1
        differences.append((diff0, diff1)[j % 2][:rows_j])
    gathers = tuple(zip(differences, tables.stencil_rows, at))
    steps = tuple((before[1:], before[:-1], after)
                  for before, after in zip(differences, differences[1:]))
    candidate_terms = tuple(zip(map(operand, tables.newton_candidates),
                                at[1:]))
    # form m adds l_j Delta^(j+1) to Delta^(m+1) in place; forms after m
    # read only at[m + 2:]
    forms = tuple((at[m + 1],
                   tuple((operand(tables.newton_forms[m, j]), at[j + 1])
                         for j in range(m + 1, k)),
                   operand(tables.newton_weights[m])) for m in range(k))
    omega = tuple(beta[:, r] for r in range(k + 1))
    return (rows, gathers[0], tuple(zip(steps, gathers[1:])), at[0],
            candidate_terms, forms, term, beta,
            operand(tables.weights[:, None]), total, total[:, None], omega)


def _pair_terms(plan):
    """Candidate values and smoothness indicators of every stencil on both
    sides, each (2, k+1, ...), of the block whose slot-major (W, ...)
    windows a _pair_plan holds: [0, r] for stencil r of the window (toward
    its right interface), [1, r] for stencil r of the reversed window
    (toward its left interface). The results are the plan's at[0] and
    beta.

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
    _, (rows, stencil_rows, at), steps, candidates, candidate_terms, forms, \
        term, beta = plan[:8]
    rows.take(stencil_rows, 0, at, "clip")
    for (upper, lower, difference), (_, stencil_rows, at) in steps:
        np.subtract(upper, lower, out=difference)
        difference.take(stencil_rows, 0, at, "clip")
    for e, delta in candidate_terms:
        candidates += np.multiply(e, delta, out=term)
    beta.fill(0.0)
    for square, terms, weight in forms:
        for factor, delta in terms:
            square += np.multiply(factor, delta, out=term)
        square *= square
        square *= weight
        beta += square
    return candidates, beta


def _normalised_weights(plan, epsilon: float):
    """omega_r = (d_r/(eps+beta_r)^2) / sum_r, (2, k+1, ...), over the
    plan's beta, which _pair_terms made."""
    beta, weights, total, totals, (first, *rest) = plan[7:]
    beta += epsilon
    beta *= beta
    raw = np.divide(weights, beta, out=beta)
    total[...] = first
    for column in rest:
        total += column
    raw /= totals
    return raw


def _block_values(plan, epsilon: float, value: np.ndarray) -> None:
    """The (2, ...) values of the block a _pair_plan holds, sum_r omega_r
    times candidate r on each side, written into value, which may be the
    plan's total."""
    candidates, _ = _pair_terms(plan)
    omega = _normalised_weights(plan, epsilon)
    omega *= candidates
    first, *rest = plan[-1]
    value[...] = first
    for column in rest:
        value += column


def _block_plan(tables: WenoTables, columns: np.ndarray):
    """The _pair_plan of the M windows of a (M, W) block, in this thread's
    scratch buffers of that block (see `scratch`), taken in one lookup,
    with the windows copied slot-major into its rows."""
    plan = scratch.buffers(_pair_layout, (tables.k, len(columns)),
                           _pair_plan)
    plan[0][...] = columns.T
    return plan


def _block_terms(tables: WenoTables, epsilon: float, columns: np.ndarray):
    """Candidate values and normalised weights, each (2, k+1, M), of the M
    windows of a (M, W) block, and the weights' (2, M) columns omega[:, r],
    in the block's scratch buffers."""
    plan = _block_plan(tables, columns)
    candidates, _ = _pair_terms(plan)
    return candidates, _normalised_weights(plan, epsilon), plan[-1]


# Windows per kernel block: the block's temporaries, a few dozen rows of
# this many doubles, stay in a core's L2 cache at any batch size, and a
# block costs a few dozen numpy calls, so smaller blocks pay more call
# overhead (README, "Kernel forms", has the measured block-size curve).
BLOCK_WINDOWS = 4096


def reconstruct_pair(tables: WenoTables, epsilon: float, window: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """(2, ...) values of the windows centred on cells i: [0] just left of
    x_{i+1/2}, [1] just right of x_{i-1/2} (the left value of the reversed
    window). Written into out, a C-contiguous array of that shape, if one
    is given."""
    window = _check_window(tables, window)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    shape = (2,) + window.shape[:-1]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise DimensionError(f"out {out.shape} is not a C-contiguous {shape}")
    columns = window.reshape(-1, tables.window)
    values = out.reshape(2, -1)
    for start in range(0, len(columns), BLOCK_WINDOWS):
        block = slice(start, start + BLOCK_WINDOWS)
        _block_values(_block_plan(tables, columns[block]), epsilon,
                      values[:, block])
    return out


def reconstruct_left(tables: WenoTables, epsilon: float,
                     window: np.ndarray) -> np.ndarray:
    """Value just left of x_{i+1/2} from the window centred on cell i."""
    return reconstruct_pair(tables, epsilon, window)[0]


@lru_cache(maxsize=None)
def _extension_indices(n_cells: int, width: int) -> np.ndarray:
    """Periodic gather index of the extension of N cells by k at each end,
    width = N + 2k cells: cells -k, ..., N-1+k."""
    k = (width - n_cells) // 2
    index = np.arange(-k, n_cells + k) % n_cells
    index.setflags(write=False)
    return index


def _side_views(sides: np.ndarray) -> tuple:
    """Side 0, side 1 but its last cell, and that cell of (2, ..., D, N)
    sides: the targets of _interface_sides."""
    return sides[0], sides[1, ..., :-1], sides[1, ..., -1]


def _value_views(values: np.ndarray) -> tuple:
    """What _interface_sides moves of every cell's (2, ..., D, N) values
    to the _side_views of the sides."""
    return values[0], values[1, ..., 1:], values[1, ..., 0]


def _interface_sides(targets: tuple, sources: tuple) -> None:
    """Contiguous sides from every cell's values: side 0 as it is, side 1
    moved from cell i+1 to entry i along the periodic last axis."""
    for target, source in zip(targets, sources):
        target[...] = source


def _reuse(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """A view at shape of the start of a contiguous buffer whose contents
    are no longer needed."""
    return buffer.reshape(-1)[:prod(shape)].reshape(shape)


def _block_states(n_states: int, windows: int) -> int:
    """States per interface block: as many whole states of that many
    windows as BLOCK_WINDOWS holds, one at least, spread evenly over the
    blocks."""
    most = max(1, BLOCK_WINDOWS // windows)
    n_blocks = max(1, -(-n_states // most))
    return max(1, -(-n_states // n_blocks))


# The sides lead a reconstruction's layout under the name that the
# right-hand side keeps them by, and eigen_cells' outs follow. The field's
# extension takes the "interface" buffer, which the numerical flux takes
# for its terms once the sides are made.

def _sides_layout(key):
    return (("rhs.sides", (2,) + key[0]),)


def _interface_layout(key):
    """The sides; with characteristic, the entry-major eigen outs; the
    periodic extension of the (..., D, N) field by k cells at each end;
    and the buffers of one full interface block of windows, flat, with
    "weno.at" large enough for a characteristic projection's D products
    of (W, ...) windows too."""
    shape, window, characteristic = key
    n_components, n_cells = shape[-2:]
    cells = n_components * n_cells
    m = _block_states(prod(shape[:-2]), cells) * cells
    sizes = {name: prod(size) for name, size in _pair_layout((window // 2, m))}
    if characteristic:
        sizes["weno.at"] = max(sizes["weno.at"], n_components * window * m)
    return _sides_layout(key) \
        + (_eigen_outs(shape) if characteristic else ()) \
        + (("interface", shape[:-1] + (n_cells + window - 1,)),) \
        + tuple((name, (size,)) for name, size in sizes.items())


def _interface_blocks(out, extension, buffers):
    """Per block of whole states: the block's states, their (W, S, D, N)
    windows, the block buffers of _pair_layout at that window shape, and
    the views of the sides out that _interface_sides fills.

    A state's windows are overlapping slices of its extension, read in
    place: slot w of cell i is cell i - k + w.
    """
    n_components, n_cells = out.shape[-2:]
    n_states = prod(out.shape[1:-2])
    flat = extension.reshape(n_states, n_components, extension.shape[-1])
    window = flat.shape[-1] - n_cells + 1
    windows = np.lib.stride_tricks.as_strided(
        flat, (window,) + flat.shape[:-1] + (n_cells,),
        flat.strides[-1:] + flat.strides, writeable=False)
    sides = out.reshape(2, n_states, n_components, n_cells)
    leading = [shape[:-1] for _, shape in _pair_layout((window // 2, 1))]
    per_block = _block_states(n_states, n_components * n_cells)
    for start in range(0, n_states, per_block):
        states = slice(start, min(start + per_block, n_states))
        shape = (states.stop - start, n_components, n_cells)
        yield (states, windows[:, states],
               tuple(_reuse(buffer, lead + shape)
                     for buffer, lead in zip(buffers, leading)),
               _side_views(sides[:, states]))


def _characteristic_plan(out, values, right, left, extension, *buffers):
    """The eigen outs, the extension's gather, and per block: the
    projection of its windows onto each cell's characteristic fields, in
    the block's rows, with the D products in the free "weno.at"; its
    plan; its values, in the plan's total; and their projection back with
    each cell's right eigenvectors, in the free differences, with the
    views of the sides that take them."""
    eigen = values, right, left
    right, left = (matrix.reshape(matrix.shape[:1] + (prod(out.shape[1:-2]),)
                                  + matrix.shape[-2:])
                   for matrix in (right, left))
    at = buffers[3]  # the flat "weno.at" of _pair_layout
    blocks = []
    for states, windows, block, targets in _interface_blocks(
            out, extension, buffers):
        rows, diff0, *_, total = block
        back = _reuse(diff0, total.shape)
        blocks.append((
            _contraction(rows, left[:, None, states], windows,
                         _reuse(at, left.shape[:1] + rows.shape)),
            _pair_plan(*block), total,
            _contraction(back, right[:, None, states], total,
                         _reuse(at, right.shape[:1] + back.shape)),
            targets, _value_views(back)))
    return (eigen, _extension_indices(out.shape[-1], extension.shape[-1]),
            extension, tuple(blocks))


def _component_plan(out, extension, *buffers):
    """The extension's gather, and per block: its plan over the windows
    themselves, its values, in the plan's total, and the views of the
    sides that take them."""
    blocks = []
    for _, windows, block, targets in _interface_blocks(
            out, extension, buffers):
        total = block[-1]
        blocks.append((_pair_plan(windows, *block[1:]), total, targets,
                       _value_views(total)))
    return (_extension_indices(out.shape[-1], extension.shape[-1]),
            extension, tuple(blocks))


def reconstruct_interface_states(model, field: np.ndarray, tables: WenoTables,
                                 epsilon: float, characteristic: bool = True,
                                 out: np.ndarray | None = None) -> np.ndarray:
    """Left and right states at every interface of a periodic field.

    field has shape (..., D, N). Returns one C-contiguous (2, ..., D, N)
    array of sides, out if one is given (it must be such an array):
    sides[0] is u- and sides[1] is u+ at x_{i+1/2}, the right edge of cell
    i, so `left, right = sides` unpacks them. Each cell's window is read once and gives both of the
    cell's values: the left value at x_{i+1/2} and the right value at
    x_{i-1/2}, which one shift by a cell puts at the interface it belongs
    to. With characteristic=True and D > 1, the window is projected onto
    the characteristic fields of its own cell, reconstructed per field,
    and projected back; both projections are component-order sums over
    the cell's entry-major eigenvectors (models._contract). Degree 0 is
    the identity, so its sides are the field and its neighbour, without
    any projection. The windows run in blocks of whole states, and every
    temporary is a scratch buffer of this thread (see `scratch`).
    """
    field = np.asarray(field, float)
    if field.ndim < 2:
        raise DimensionError(f"field must be (..., D, N), got {field.shape}")
    n_components, n_cells = field.shape[-2:]
    if n_cells < tables.window:
        raise DimensionError(
            f"{n_cells} cells cannot support a {tables.window}-cell window")
    shape = (2,) + field.shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise DimensionError(f"out {out.shape} is not a C-contiguous {shape}")
    key = (field.shape, tables.window)
    if tables.k == 0:
        targets = scratch.buffers(_sides_layout, key, _side_views, out)
        _interface_sides(targets, (field, field[..., 1:], field[..., 0]))
        return out
    if characteristic and n_components > 1:
        model._check_shape(field)
        eigen, index, extension, blocks = scratch.buffers(
            _interface_layout, key + (True,), _characteristic_plan, out)
        model._eigen_cells_into(field, *eigen)
        # mode="clip" gathers into the extension directly (the indices are
        # all in range); the projection commutes with reversing a window,
        # so cell j's value at x_{j-1/2} is in its own characteristic
        # fields too
        field.take(index, -1, extension, "clip")
        for projection, block, values, back, targets, sources in blocks:
            _contract(projection)
            _block_values(block, epsilon, values)
            _contract(back)
            _interface_sides(targets, sources)
    else:
        index, extension, blocks = scratch.buffers(
            _interface_layout, key + (False,), _component_plan, out)
        field.take(index, -1, extension, "clip")
        for block, values, targets, sources in blocks:
            _block_values(block, epsilon, values)
            _interface_sides(targets, sources)
    return out
