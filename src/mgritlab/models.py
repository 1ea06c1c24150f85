"""1D hyperbolic conservation-law models: flux, wave speeds, eigenstructure.

Every operation accepts states of shape (..., D, N): component-major cell
values with arbitrary leading batch axes. Eigen quantities come back
cell-major, shape (..., N, D) for eigenvalues and (..., N, D, D) for
eigenvector matrices, indexed [..., n, d] and [..., n, r, c]. These are
views of entry-major storage (see eigen_arrays): eigenvalue d is the row
values[..., d, :], and entry (r, c) of a matrix is the row
matrix[c][..., r, :], so column c is one contiguous (..., D, N) block of
the state's shape. A per-cell product M v is then D products of such
blocks with the component rows of v, added in component order
(`_contract`): plain elementwise arithmetic, whose bits do not depend on
the batch, the memory layout or the CPU's BLAS kernel.
roe_terms takes both sides of every interface as one (2, ..., D, N) array,
sides[0] just left and sides[1] just right of x_{i+1/2}, and evaluates the
primitive variables of each side once, for the sides' fluxes and
eigenvalues and the Roe average alike.

Inadmissible states (non-positive depth, density, or pressure) raise
PhysicalStateError naming the first offending cell and, for batched states,
its batch position; for interface sides, the interface's cell index and the
field's batch position, never the side. Non-finite values do not raise;
they propagate so that a diverging iteration can be detected by its caller
instead of crashing mid-sweep.
"""
from __future__ import annotations

import numpy as np

from . import scratch
from .errors import ConfigError, DimensionError, PhysicalStateError

DEFAULT_GRAVITY = 9.81
DEFAULT_GAMMA = 5.0 / 3.0


def _reject(problem: str, bad: np.ndarray):
    """Raise PhysicalStateError at the first flagged entry of a (..., N)
    mask."""
    index = np.unravel_index(int(np.argmax(bad)), bad.shape)
    raise PhysicalStateError(problem, tuple(int(i) for i in index))


def _scan(problem: str, values: np.ndarray, bad: np.ndarray) -> None:
    """Reject values <= 0, flagged into the bool buffer bad; a NaN passes."""
    np.less_equal(values, _ZERO, out=bad)
    if np.count_nonzero(bad):
        _reject(problem, bad)


def on_stack(evaluate, stack: np.ndarray):
    """evaluate(stack) on an array whose leading axis stacks arrays of
    states: the two sides of every interface, or the nodes of a trajectory.

    evaluate takes that axis for a batch axis; a physical-state error is
    raised again without it, so that it names the cell and the batch
    position within one stacked array, as for a field.
    """
    try:
        return evaluate(stack)
    except PhysicalStateError as err:
        raise PhysicalStateError(err.problem, err.index[1:]) from None


def _operand(value: float) -> np.ndarray:
    """A read-only 0-d float64 operand: a ufunc converts a Python float
    afresh on every call."""
    operand = np.array(value, float)
    operand.setflags(write=False)
    return operand


_ZERO, _HALF, _ONE, _MINUS_HALF = map(_operand, (0.0, 0.5, 1.0, -0.5))


# Where the hooks' out arrays live when the right-hand side's kernels pass
# their own buffers, for states of shape (..., D, N) (roe_terms and
# _lf_terms_into: sides of shape (2, ..., D, N)). The kernels lay these out
# first under the same names, so a hook's plan finds the very views it is
# passed. Eigen outs are entry-major storage (see eigen_arrays).

def _flux_outs(shape):
    return (("interface", shape),)


def _speed_outs(shape):
    return (("interface", shape[:-2] + shape[-1:]),)


def _lf_outs(shape):
    return _flux_outs(shape) + _speed_outs(shape)


def _eigen_outs(shape):
    matrix = shape[-2:-1] + shape
    return (("eigen.values", shape), ("eigen.right", matrix),
            ("eigen.left", matrix))


def _roe_outs(shape):
    return (("interface", shape), ("interface", shape)) \
        + _eigen_outs(shape[1:])


def _hook_layout(outs, prefix: str, names: str, interface_names: str = ""):
    """A static method laying out a model hook's scratch buffers (see
    `scratch`), which the hook takes in one lookup and passes to its
    helpers: its outs, then prefix.name for names at the cells (..., N) of
    states of shape (..., D, N) and for interface_names at the cells of
    shape[1:], the interfaces of a (2, ..., D, N) stack of sides. A name
    "bad" is a bool buffer, the physical-state scans' mask."""
    def layout(shape):
        groups = ((names, shape[:-2] + shape[-1:]),
                  (interface_names, shape[1:-2] + shape[-1:]))
        return outs(shape) + tuple(
            (f"{prefix}.{name}", cells, bool if name == "bad" else float)
            for group, cells in groups for name in group.split())
    return staticmethod(layout)


def _rows(array: np.ndarray) -> tuple:
    """array[..., d, :] for every component d of (..., D, N) states."""
    return tuple(array[..., d, :] for d in range(array.shape[-2]))


def _contraction(out, matrix, states, terms) -> tuple:
    """The operands of _contract for out = M v per cell, with matrix the
    entry-major columns of M, (D, ..., R, N), broadcast against the
    (..., D, N) states v and out (..., R, N), and terms a (D,) + out.shape
    work array."""
    operand = np.moveaxis(states, -2, 0)[..., None, :]
    if len(matrix) == 1:
        return (matrix, operand, out[None]), ()
    first, second, *rest = terms
    return (matrix, operand, terms), ((first, second, out),) + tuple(
        (out, term, out) for term in rest)


def _contract(contraction) -> None:
    """A per-cell product M v, as _contraction lays it out: the D products
    of column c of M with component c of v, made in one multiply, then
    added in component order, (M_0 v_0 + M_1 v_1) + M_2 v_2.

    Each column is a contiguous block of cells, so these are elementwise
    operations over rows of cells, and their IEEE operations, one multiply
    and one add per term, do not depend on the batch, the memory layout
    or the CPU.
    """
    (matrix, operand, terms), sums = contraction
    np.multiply(matrix, operand, out=terms)
    for first, second, out in sums:
        np.add(first, second, out=out)


def _eigen_views(values, right, left) -> tuple:
    """What an eigen hook writes of its entry-major (values, right, left):
    the rows values[..., d, :]; the eigenvalues and the rows of right,
    each with the column axis first, for the rows every model shares; and
    the entries right[c][..., r, :] and left[c][..., r, :] in row-major
    order."""
    n = values.shape[-2]
    return (_rows(values), np.moveaxis(values, -2, 0),
            tuple(right[:, ..., r, :] for r in range(n)),
            tuple(right[c][..., r, :] for r in range(n) for c in range(n)),
            tuple(left[c][..., r, :] for r in range(n) for c in range(n)))


# The hooks' plans: the views of their outs and of their own buffers, in
# the order each hook unpacks them.

def _flux_plan(out, *own):
    return (_rows(out),) + own


def _eigen_plan(values, right, left, *own):
    return (_eigen_views(values, right, left),) + own


def _roe_outs_plan(fluxes, values, roe_values, right, left):
    """The views of roe_terms' outs: the rows of fluxes and of values, and
    the Roe eigen views."""
    return (_rows(fluxes), _rows(values),
            _eigen_views(roe_values, right, left))


class ConservationModel:
    """Common interface; subclasses fill in the physics.

    Each public method checks the states' shape once and runs a private
    `_*_into` hook of the subclass on fresh arrays or, where it takes
    one, on the out it is given; eigen hooks write entry-major storage,
    so eigen_cells and roe_terms pass them the storage behind their
    cell-major outs. The right-hand side's kernels check the shape and
    call the hooks themselves, with scratch buffers (see `scratch`) as
    outs: `flux.lf_alpha` calls `_lf_terms_into`, `flux.lf_flux`
    `_flux_into`, `flux.roe_flux` `_roe_terms_into` and
    `weno.reconstruct_interface_states` `_eigen_cells_into`.
    """

    kind: str
    n_components: int

    def _check_shape(self, u: np.ndarray) -> None:
        if u.ndim < 2 or u.shape[-2] != self.n_components:
            raise DimensionError(
                f"{self.kind} expects (..., {self.n_components}, N) states, "
                f"got shape {u.shape}")

    def flux(self, u: np.ndarray) -> np.ndarray:
        self._check_shape(u)
        return self._flux_into(u, np.empty(u.shape))

    def _flux_into(self, u, out):
        raise NotImplementedError

    def max_abs_speed(self, u: np.ndarray, out=None) -> np.ndarray:
        """max_k |lambda_k| per cell, shape (..., N)."""
        self._check_shape(u)
        if out is None:
            out = np.empty(u.shape[:-2] + u.shape[-1:])
        return self._max_abs_speed_into(u, out)

    def _max_abs_speed_into(self, u, out):
        raise NotImplementedError

    def _lf_terms_into(self, sides, fluxes, speeds):
        """The fluxes (2, ..., D, N) and max_k |lambda_k| (2, ..., N) of
        (2, ..., D, N) sides, from one pass over their primitive
        variables; the bits of _flux_into and _max_abs_speed_into."""
        raise NotImplementedError

    def eigen_cells(self, u: np.ndarray, out=None):
        """(values, right, left) per cell for characteristic projection;
        out is such a tuple of arrays (see eigen_arrays)."""
        self._check_shape(u)
        if out is None:
            out = eigen_arrays(u.shape)
        self._eigen_cells_into(u, *_entry_major(*out))
        return out

    def _eigen_cells_into(self, u, values, right, left):
        raise NotImplementedError

    def roe_terms(self, sides: np.ndarray, out=None):
        """What the Roe flux needs at the interfaces whose (2, ..., D, N)
        sides are given, from one pass over each side's primitive
        variables: (fluxes, values, (roe_values, right, left)), the sides'
        fluxes (2, ..., D, N) and eigenvalues (2, ..., N, D), and the
        eigenvalues and right and left eigenvector matrices of the Roe
        linearisation, (..., N, D) and (..., N, D, D). out is such a
        nested tuple of arrays."""
        self._check_shape(sides)
        if out is None:
            out = (np.empty(sides.shape),
                   np.empty(sides.shape).swapaxes(-1, -2),
                   eigen_arrays(sides.shape[1:]))
        fluxes, values, eigen = out
        self._roe_terms_into(sides, fluxes, values.swapaxes(-1, -2),
                             *_entry_major(*eigen))
        return out

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        raise NotImplementedError


def eigen_arrays(shape: tuple):
    """Empty (values, right, left) for states of shape (..., D, N): the
    per-cell eigenvalues (..., N, D) and eigenvector matrices
    (..., N, D, D).

    They are views of entry-major storage, which the model hooks write
    and the kernels read: values of the states' shape (..., D, N), and
    each matrix as (D, ..., D, N), column c first and then the states'
    shape with row r in place of the component. So entry [..., n, r, c]
    of a view is storage[c][..., r, n], and each column is one contiguous
    block of the states' shape.
    """
    return _cell_major(np.empty(shape), np.empty(shape[-2:-1] + shape),
                       np.empty(shape[-2:-1] + shape))


def _cell_major(values, right, left) -> tuple:
    """The (..., N, D) and (..., N, D, D) views of entry-major storage."""
    return (values.swapaxes(-1, -2),) + tuple(
        np.moveaxis(matrix, 0, -1).swapaxes(-3, -2)
        for matrix in (right, left))


def _entry_major(values, right, left) -> tuple:
    """The entry-major storage behind cell-major views: the inverse of
    _cell_major, a view of any arrays of those shapes."""
    return (values.swapaxes(-1, -2),) + tuple(
        np.moveaxis(matrix.swapaxes(-3, -2), -1, 0)
        for matrix in (right, left))


class Burgers(ConservationModel):
    """Scalar model with flux u^2/2; the single wave moves at speed u."""

    kind = "burgers"
    n_components = 1

    def flux(self, u):
        # the formula itself: the matched Lax-Friedrichs kernel calls it on
        # every Horner step, where a wrapper's extra calls would show
        self._check_shape(u)
        return 0.5 * u * u

    def _flux_into(self, u, out):
        # (0.5 * u) * u, the bits of flux's formula
        np.multiply(_HALF, u, out=out)
        return np.multiply(out, u, out=out)

    def _max_abs_speed_into(self, u, out):
        return np.abs(u[..., 0, :], out=out)

    def _lf_terms_into(self, sides, fluxes, speeds):
        self._flux_into(sides, fluxes)
        self._max_abs_speed_into(sides, speeds)

    def _eigen_cells_into(self, u, values, right, left):
        values[...] = u
        right.fill(1.0)
        left.fill(1.0)

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        self._flux_into(sides, fluxes)
        values[...] = sides
        np.add(values[0], values[1], out=roe_values)
        np.multiply(_HALF, roe_values, out=roe_values)
        right.fill(1.0)
        left.fill(1.0)


class ShallowWater(ConservationModel):
    """Depth/momentum system (h, hu) with gravity wave speeds u -+ sqrt(g h)."""

    kind = "shallow-water"
    n_components = 2
    _flux_layout = _hook_layout(_flux_outs, "sw", "vel pressure bad")
    _speed_layout = _hook_layout(_speed_outs, "sw", "vel c bad")
    _lf_layout = _hook_layout(_lf_outs, "sw", "vel c pressure bad")
    _eigen_layout = _hook_layout(_eigen_outs, "sw", "vel c inv2c bad")
    _roe_layout = _hook_layout(_roe_outs, "sw",
                               "vel c root weighted pressure bad",
                               "h_hat u_hat total c_hat inv2c")

    def __init__(self, gravity: float = DEFAULT_GRAVITY):
        if not 0.0 < gravity < np.inf:
            raise ConfigError(f"gravity must be positive, got {gravity}")
        self.gravity = gravity
        self._gravity = _operand(gravity)
        self._half_gravity = _operand(0.5 * gravity)

    @staticmethod
    def _depth_velocity(u, vel, bad):
        """The rows (h, hu) of u, with its velocity written into vel."""
        h, hu = u[..., 0, :], u[..., 1, :]
        _scan("non-positive depth", h, bad)
        np.divide(hu, h, out=vel)
        return h, hu

    def _celerity(self, h, c):
        """sqrt(g h), written into c."""
        return np.sqrt(np.multiply(self._gravity, h, out=c), out=c)

    def _flux_from(self, h, hu, vel, pressure, out_rows):
        mass, momentum = out_rows
        mass[...] = hu
        np.multiply(h, vel, out=momentum)
        np.multiply(momentum, vel, out=momentum)
        np.multiply(self._half_gravity, h, out=pressure)
        np.multiply(pressure, h, out=pressure)
        np.add(momentum, pressure, out=momentum)

    @staticmethod
    def _values_into(vel, c, columns):
        np.subtract(vel, c, out=columns[0])
        np.add(vel, c, out=columns[1])

    def _flux_into(self, u, out):
        rows, vel, pressure, bad = scratch.buffers(
            self._flux_layout, u.shape, _flux_plan, out)
        h, hu = self._depth_velocity(u, vel, bad)
        self._flux_from(h, hu, vel, pressure, rows)
        return out

    def _max_abs_speed_into(self, u, out):
        out, vel, c, bad = scratch.buffers(self._speed_layout, u.shape, None,
                                           out)
        h, _ = self._depth_velocity(u, vel, bad)
        return self._speed_from(h, vel, c, out)

    def _speed_from(self, h, vel, c, out):
        """|u| + sqrt(g h), written into out, with c a work array."""
        np.abs(vel, out=out)
        return np.add(out, self._celerity(h, c), out=out)

    def _lf_terms_into(self, sides, fluxes, speeds):
        rows, speeds, vel, c, pressure, bad = scratch.buffers(
            self._lf_layout, sides.shape, _flux_plan, fluxes, speeds)
        h, hu = self._depth_velocity(sides, vel, bad)
        self._flux_from(h, hu, vel, pressure, rows)
        self._speed_from(h, vel, c, speeds)

    def _eigen_from(self, vel, c, eigen, inv2c):
        """Eigenvalues and right/left eigenvectors from u and c into the
        views eigen of _eigen_views, with inv2c a work array."""
        columns, lam, right_rows, _, left = eigen
        self._values_into(vel, c, columns)
        right_rows[0].fill(1.0)
        right_rows[1][...] = lam
        # closed-form inverse of [[1, 1], [u-c, u+c]]
        np.divide(_HALF, c, out=inv2c)
        np.multiply(columns[1], inv2c, out=left[0])
        np.negative(inv2c, out=left[1])
        np.negative(columns[0], out=left[2])
        np.multiply(left[2], inv2c, out=left[2])
        left[3][...] = inv2c

    def _eigen_cells_into(self, u, values, right, left):
        eigen, vel, c, inv2c, bad = scratch.buffers(
            self._eigen_layout, u.shape, _eigen_plan, values, right, left)
        h, _ = self._depth_velocity(u, vel, bad)
        self._eigen_from(vel, self._celerity(h, c), eigen, inv2c)

    @staticmethod
    def _roe_plan(fluxes, values, roe_values, right, left, vel, c, root,
                  weighted, pressure, bad, *interface):
        return (_roe_outs_plan(fluxes, values, roe_values, right, left), vel,
                c, root, tuple(root), weighted, tuple(weighted), pressure,
                bad) + interface

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        ((rows, columns, eigen), vel, c, root, roots, weighted, sums,
         pressure, bad, h_hat, u_hat, total, c_hat, inv2c) = scratch.buffers(
            self._roe_layout, sides.shape, self._roe_plan, fluxes, values,
            roe_values, right, left)
        h, hu = on_stack(
            lambda stack: self._depth_velocity(stack, vel, bad), sides)
        self._values_into(vel, self._celerity(h, c), columns)
        np.sqrt(h, out=root)
        np.multiply(root, vel, out=weighted)
        np.multiply(_HALF, np.add(h[0], h[1], out=h_hat), out=h_hat)
        np.add(sums[0], sums[1], out=u_hat)
        np.divide(u_hat, np.add(roots[0], roots[1], out=total), out=u_hat)
        self._flux_from(h, hu, vel, pressure, rows)
        self._eigen_from(u_hat, self._celerity(h_hat, c_hat), eigen, inv2c)


class Euler(ConservationModel):
    """Ideal-gas Euler system (rho, rho u, E) with p = (gamma-1)(E - rho u^2/2)."""

    kind = "euler"
    n_components = 3
    _EIGEN = "vel_c inv_c b1 b2 b1_vel vel_inv_c"  # _eigen_from's own
    _flux_layout = _hook_layout(_flux_outs, "euler", "vel p bad")
    _speed_layout = _hook_layout(_speed_outs, "euler", "vel p c bad")
    _lf_layout = _hook_layout(_lf_outs, "euler", "vel p c bad")
    _eigen_layout = _hook_layout(_eigen_outs, "euler",
                                 "vel p c enthalpy bad " + _EIGEN)
    _roe_layout = _hook_layout(
        _roe_outs, "euler", "vel p c root weighted_vel weighted_enthalpy bad",
        "total u_hat h_hat c_hat bad " + _EIGEN)

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if not 1.0 < gamma < np.inf:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma
        self._gamma = _operand(gamma)
        self._gamma_1 = _operand(gamma - 1.0)

    def _primitives(self, u, vel, p, bad):
        """The rows (rho, rho u, E) of u, with its velocity and pressure
        written into vel and p."""
        rho, momentum, energy = u[..., 0, :], u[..., 1, :], u[..., 2, :]
        _scan("non-positive density", rho, bad)
        np.divide(momentum, rho, out=vel)
        # (gamma - 1) (E - 0.5 rho u u)
        np.multiply(_HALF, rho, out=p)
        np.multiply(p, vel, out=p)
        np.multiply(p, vel, out=p)
        np.subtract(energy, p, out=p)
        np.multiply(self._gamma_1, p, out=p)
        _scan("non-positive pressure", p, bad)
        return rho, momentum, energy

    @staticmethod
    def _flux_from(momentum, energy, vel, p, out_rows):
        mass, flux_momentum, flux_energy = out_rows
        mass[...] = momentum
        np.multiply(momentum, vel, out=flux_momentum)
        np.add(flux_momentum, p, out=flux_momentum)
        np.add(energy, p, out=flux_energy)
        np.multiply(flux_energy, vel, out=flux_energy)

    def _sound_speed(self, rho, p, c):
        """sqrt(gamma p / rho), written into c."""
        np.multiply(self._gamma, p, out=c)
        return np.sqrt(np.divide(c, rho, out=c), out=c)

    @staticmethod
    def _values_into(vel, c, columns):
        np.subtract(vel, c, out=columns[0])
        columns[1][...] = vel
        np.add(vel, c, out=columns[2])

    def _flux_into(self, u, out):
        rows, vel, p, bad = scratch.buffers(self._flux_layout, u.shape,
                                            _flux_plan, out)
        _, momentum, energy = self._primitives(u, vel, p, bad)
        self._flux_from(momentum, energy, vel, p, rows)
        return out

    def _max_abs_speed_into(self, u, out):
        out, vel, p, c, bad = scratch.buffers(self._speed_layout, u.shape,
                                              None, out)
        rho, _, _ = self._primitives(u, vel, p, bad)
        return self._speed_from(rho, vel, p, c, out)

    def _speed_from(self, rho, vel, p, c, out):
        """|u| + sqrt(gamma p / rho), written into out, with c a work
        array."""
        np.abs(vel, out=out)
        return np.add(out, self._sound_speed(rho, p, c), out=out)

    def _lf_terms_into(self, sides, fluxes, speeds):
        rows, speeds, vel, p, c, bad = scratch.buffers(
            self._lf_layout, sides.shape, _flux_plan, fluxes, speeds)
        rho, momentum, energy = self._primitives(sides, vel, p, bad)
        self._flux_from(momentum, energy, vel, p, rows)
        self._speed_from(rho, vel, p, c, speeds)

    def _eigen_from(self, vel, c, enthalpy, eigen, work):
        """Eigenvalues and right/left eigenvector matrices from u, c and H,
        written into the views eigen of _eigen_views; work holds _EIGEN's
        temporaries.

        The left eigenvectors are the closed-form dual basis (Toro, Riemann
        Solvers and Numerical Methods for Fluid Dynamics): with
        b1 = (gamma-1)/c^2 and b2 = b1 u^2/2,
            l1 = 1/2 (b2 + u/c, -(b1 u + 1/c), b1),
            l2 = (1 - b2, b1 u, -b1),
            l3 = 1/2 (b2 - u/c, -(b1 u - 1/c), b1),
        which needs c^2 = (gamma-1)(H - u^2/2); that holds for cell states
        and for the Roe average alike.
        """
        columns, lam, right_rows, right, left = eigen
        vel_c, inv_c, b1, b2, b1_vel, vel_inv_c = work
        self._values_into(vel, c, columns)
        right_rows[0].fill(1.0)
        right_rows[1][...] = lam
        np.multiply(vel, c, out=vel_c)
        np.subtract(enthalpy, vel_c, out=right[6])
        np.multiply(np.multiply(_HALF, vel, out=b2), vel, out=right[7])
        np.add(enthalpy, vel_c, out=right[8])
        np.divide(_ONE, c, out=inv_c)
        np.multiply(self._gamma_1, inv_c, out=b1)
        np.multiply(b1, inv_c, out=b1)
        np.multiply(_HALF, b1, out=b2)
        np.multiply(b2, vel, out=b2)
        np.multiply(b2, vel, out=b2)
        np.multiply(b1, vel, out=b1_vel)
        np.multiply(vel, inv_c, out=vel_inv_c)
        # each entry's sum, then its factor, in place
        np.add(b2, vel_inv_c, out=left[0])
        np.multiply(_HALF, left[0], out=left[0])
        np.add(b1_vel, inv_c, out=left[1])
        np.multiply(_MINUS_HALF, left[1], out=left[1])
        np.subtract(b2, vel_inv_c, out=left[6])
        np.multiply(_HALF, left[6], out=left[6])
        np.subtract(b1_vel, inv_c, out=left[7])
        np.multiply(_MINUS_HALF, left[7], out=left[7])
        np.multiply(_HALF, b1, out=left[2])
        np.subtract(_ONE, b2, out=left[3])
        left[4][...] = b1_vel
        np.negative(b1, out=left[5])
        left[8][...] = left[2]

    def _eigen_cells_into(self, u, values, right, left):
        eigen, vel, p, c, enthalpy, bad, *work = scratch.buffers(
            self._eigen_layout, u.shape, _eigen_plan, values, right, left)
        rho, _, energy = self._primitives(u, vel, p, bad)
        np.divide(np.add(energy, p, out=enthalpy), rho, out=enthalpy)
        self._eigen_from(vel, self._sound_speed(rho, p, c), enthalpy, eigen,
                         work)

    @staticmethod
    def _roe_plan(fluxes, values, roe_values, right, left, vel, p, c, root,
                  weighted_vel, weighted_enthalpy, bad, *interface):
        return (_roe_outs_plan(fluxes, values, roe_values, right, left), vel,
                p, c, root, tuple(root), weighted_vel, tuple(weighted_vel),
                weighted_enthalpy, tuple(weighted_enthalpy), bad) + interface

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        ((rows, columns, eigen), vel, p, c, root, roots, weighted_vel,
         vel_sums, weighted_enthalpy, enthalpy_sums, bad, total, u_hat, h_hat,
         c_hat, interface_bad, *work) = scratch.buffers(
            self._roe_layout, sides.shape, self._roe_plan, fluxes, values,
            roe_values, right, left)
        rho, momentum, energy = on_stack(
            lambda stack: self._primitives(stack, vel, p, bad), sides)
        self._values_into(vel, self._sound_speed(rho, p, c), columns)
        np.sqrt(rho, out=root)
        np.multiply(root, vel, out=weighted_vel)
        # root ((E + p) / rho)
        np.add(energy, p, out=weighted_enthalpy)
        np.divide(weighted_enthalpy, rho, out=weighted_enthalpy)
        np.multiply(root, weighted_enthalpy, out=weighted_enthalpy)
        np.add(roots[0], roots[1], out=total)
        np.add(vel_sums[0], vel_sums[1], out=u_hat)
        np.divide(u_hat, total, out=u_hat)
        np.add(enthalpy_sums[0], enthalpy_sums[1], out=h_hat)
        np.divide(h_hat, total, out=h_hat)
        # c^2 = (gamma - 1) (h_hat - 0.5 u_hat u_hat)
        np.multiply(_HALF, u_hat, out=c_hat)
        np.multiply(c_hat, u_hat, out=c_hat)
        np.subtract(h_hat, c_hat, out=c_hat)
        np.multiply(self._gamma_1, c_hat, out=c_hat)
        _scan("Roe average loses hyperbolicity", c_hat, interface_bad)
        self._flux_from(momentum, energy, vel, p, rows)
        self._eigen_from(u_hat, np.sqrt(c_hat, out=c_hat), h_hat, eigen,
                         work)


_MODEL_KINDS = {
    "burgers": Burgers,
    "shallow-water": ShallowWater,
    "euler": Euler,
}


def make_model(kind: str, *, gravity: float = DEFAULT_GRAVITY,
               gamma: float = DEFAULT_GAMMA) -> ConservationModel:
    """Build a model by name; gravity and gamma apply where relevant."""
    if kind not in _MODEL_KINDS:
        raise ConfigError(
            f"unknown model '{kind}', expected one of {sorted(_MODEL_KINDS)}")
    if kind == "shallow-water":
        return ShallowWater(gravity=gravity)
    if kind == "euler":
        return Euler(gamma=gamma)
    return Burgers()
