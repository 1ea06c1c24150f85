"""1D hyperbolic conservation-law models: flux, wave speeds, eigenstructure.

Every operation accepts states of shape (..., D, N): component-major cell
values with arbitrary leading batch axes. Eigen quantities come back
cell-major, shape (..., N, D) for eigenvalues and (..., N, D, D) for
eigenvector matrices, so that per-cell projections are plain contractions.
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


class ConservationModel:
    """Common interface; subclasses fill in the physics.

    The public methods return arrays of their own. Each is a thin wrapper
    that allocates them and calls a private `_*_into` method writing into
    arrays it is given, which is also what the semi-discrete operator calls
    with scratch buffers (see `scratch`).
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

    def eigenvalues(self, u: np.ndarray) -> np.ndarray:
        """Flux-Jacobian eigenvalues per cell, shape (..., N, D), ascending."""
        raise NotImplementedError

    def max_abs_speed(self, u: np.ndarray) -> np.ndarray:
        """max_k |lambda_k| per cell, shape (..., N)."""
        self._check_shape(u)
        return self._max_abs_speed_into(u, np.empty(u.shape[:-2]
                                                    + u.shape[-1:]))

    def _max_abs_speed_into(self, u, out):
        raise NotImplementedError

    def eigen_cells(self, u: np.ndarray):
        """(values, right, left) per cell for characteristic projection."""
        self._check_shape(u)
        out = eigen_arrays(u.shape)
        self._eigen_cells_into(u, *out)
        return out

    def _eigen_cells_into(self, u, values, right, left):
        raise NotImplementedError

    def roe_terms(self, sides: np.ndarray):
        """What the Roe flux needs at the interfaces whose (2, ..., D, N)
        sides are given, from one pass over each side's primitive
        variables: (fluxes, values, (roe_values, right, left)), the sides'
        fluxes (2, ..., D, N) and eigenvalues (2, ..., N, D), and the
        eigenvalues and right and left eigenvector matrices of the Roe
        linearisation, (..., N, D) and (..., N, D, D)."""
        self._check_shape(sides)
        fluxes = np.empty(sides.shape)
        values = np.empty(sides.shape[:-2] + sides.shape[:-3:-1])
        eigen = eigen_arrays(sides.shape[1:])
        self._roe_terms_into(sides, fluxes, values, *eigen)
        return fluxes, values, eigen

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        raise NotImplementedError


def eigen_arrays(shape: tuple):
    """Empty (values, right, left) for states of shape (..., D, N): the
    per-cell eigenvalues (..., N, D) and eigenvector matrices
    (..., N, D, D)."""
    values = np.empty(shape[:-2] + shape[:-3:-1])
    return values, np.empty(values.shape + shape[-2:-1]), \
        np.empty(values.shape + shape[-2:-1])


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
        out[...] = self.flux(u)
        return out

    def eigenvalues(self, u):
        self._check_shape(u)
        return np.moveaxis(u, -2, -1)

    def _max_abs_speed_into(self, u, out):
        return np.abs(u[..., 0, :], out=out)

    def _eigen_cells_into(self, u, values, right, left):
        values[...] = self.eigenvalues(u)
        right.fill(1.0)
        left.fill(1.0)

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        self._flux_into(sides, fluxes)
        values[...] = self.eigenvalues(sides)
        np.add(values[0], values[1], out=roe_values)
        np.multiply(0.5, roe_values, out=roe_values)
        right.fill(1.0)
        left.fill(1.0)


class ShallowWater(ConservationModel):
    """Depth/momentum system (h, hu) with gravity wave speeds u -+ sqrt(g h)."""

    kind = "shallow-water"
    n_components = 2

    def __init__(self, gravity: float = DEFAULT_GRAVITY):
        if gravity <= 0.0:
            raise ConfigError(f"gravity must be positive, got {gravity}")
        self.gravity = gravity

    # The private methods keep their temporaries in this thread's scratch
    # buffers (see `scratch`), each named after its role; a method's
    # results may be buffers that the next call of the same method reuses.

    def _depth_velocity(self, u):
        h = u[..., 0, :]
        bad = h <= 0.0
        if bad.any():
            _reject("non-positive depth", bad)
        (vel,) = scratch.arrays(("sw.vel",), h.shape)
        return h, np.divide(u[..., 1, :], h, out=vel)

    def _celerity(self, h):
        """sqrt(g h), a buffer that the next call reuses."""
        (c,) = scratch.arrays(("sw.c",), h.shape)
        return np.sqrt(np.multiply(self.gravity, h, out=c), out=c)

    def _flux_from(self, u, h, vel, out):
        out[..., 0, :] = u[..., 1, :]
        momentum = out[..., 1, :]
        np.multiply(h, vel, out=momentum)
        np.multiply(momentum, vel, out=momentum)
        (pressure,) = scratch.arrays(("sw.pressure",), h.shape)
        np.multiply(0.5 * self.gravity, h, out=pressure)
        np.multiply(pressure, h, out=pressure)
        np.add(momentum, pressure, out=momentum)
        return out

    @staticmethod
    def _values_into(vel, c, out):
        np.subtract(vel, c, out=out[..., 0])
        np.add(vel, c, out=out[..., 1])
        return out

    def _flux_into(self, u, out):
        self._check_shape(u)
        return self._flux_from(u, *self._depth_velocity(u), out)

    def eigenvalues(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return self._values_into(vel, self._celerity(h),
                                 np.empty(vel.shape + (2,)))

    def _max_abs_speed_into(self, u, out):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        np.abs(vel, out=out)
        return np.add(out, self._celerity(h), out=out)

    def _eigen_from(self, vel, c, lam, right, left):
        self._values_into(vel, c, lam)
        right[..., 0, :] = 1.0
        right[..., 1, :] = lam
        # closed-form inverse of [[1, 1], [u-c, u+c]]
        (inv2c,) = scratch.arrays(("sw.inv2c",), c.shape)
        np.divide(0.5, c, out=inv2c)
        np.multiply(lam[..., 1], inv2c, out=left[..., 0, 0])
        np.negative(inv2c, out=left[..., 0, 1])
        np.negative(lam[..., 0], out=left[..., 1, 0])
        np.multiply(left[..., 1, 0], inv2c, out=left[..., 1, 0])
        left[..., 1, 1] = inv2c

    def _eigen_cells_into(self, u, values, right, left):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        self._eigen_from(vel, self._celerity(h), values, right, left)

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        self._check_shape(sides)
        h, vel = on_stack(self._depth_velocity, sides)
        self._values_into(vel, self._celerity(h), values)
        root, weighted = scratch.arrays(("sw.root", "sw.weighted"), h.shape)
        np.sqrt(h, out=root)
        np.multiply(root, vel, out=weighted)
        h_hat, u_hat, total = scratch.arrays(
            ("sw.h_hat", "sw.u_hat", "sw.total"), h.shape[1:])
        np.multiply(0.5, np.add(h[0], h[1], out=h_hat), out=h_hat)
        np.add(weighted[0], weighted[1], out=u_hat)
        np.divide(u_hat, np.add(root[0], root[1], out=total), out=u_hat)
        self._flux_from(sides, h, vel, fluxes)
        self._eigen_from(u_hat, self._celerity(h_hat), roe_values, right,
                         left)


class Euler(ConservationModel):
    """Ideal-gas Euler system (rho, rho u, E) with p = (gamma-1)(E - rho u^2/2)."""

    kind = "euler"
    n_components = 3

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma

    # The private methods keep their temporaries in this thread's scratch
    # buffers (see `scratch`), each named after its role; a method's
    # results may be buffers that the next call of the same method reuses.

    def _primitives(self, u):
        rho = u[..., 0, :]
        bad = rho <= 0.0
        if bad.any():
            _reject("non-positive density", bad)
        vel, p = scratch.arrays(("euler.vel", "euler.p"), rho.shape)
        np.divide(u[..., 1, :], rho, out=vel)
        # (gamma - 1) (E - 0.5 rho u u)
        np.multiply(0.5, rho, out=p)
        np.multiply(p, vel, out=p)
        np.multiply(p, vel, out=p)
        np.subtract(u[..., 2, :], p, out=p)
        np.multiply(self.gamma - 1.0, p, out=p)
        bad = p <= 0.0
        if bad.any():
            _reject("non-positive pressure", bad)
        return rho, vel, p

    @staticmethod
    def _flux_from(u, vel, p, out):
        out[..., 0, :] = u[..., 1, :]
        np.multiply(u[..., 1, :], vel, out=out[..., 1, :])
        np.add(out[..., 1, :], p, out=out[..., 1, :])
        np.add(u[..., 2, :], p, out=out[..., 2, :])
        np.multiply(out[..., 2, :], vel, out=out[..., 2, :])
        return out

    def _sound_speed(self, rho, p):
        """sqrt(gamma p / rho), a buffer that the next call reuses."""
        (c,) = scratch.arrays(("euler.c",), p.shape)
        np.multiply(self.gamma, p, out=c)
        return np.sqrt(np.divide(c, rho, out=c), out=c)

    @staticmethod
    def _values_into(vel, c, out):
        np.subtract(vel, c, out=out[..., 0])
        out[..., 1] = vel
        np.add(vel, c, out=out[..., 2])
        return out

    def _flux_into(self, u, out):
        self._check_shape(u)
        _, vel, p = self._primitives(u)
        return self._flux_from(u, vel, p, out)

    def eigenvalues(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        return self._values_into(vel, self._sound_speed(rho, p),
                                 np.empty(vel.shape + (3,)))

    def _max_abs_speed_into(self, u, out):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        np.abs(vel, out=out)
        return np.add(out, self._sound_speed(rho, p), out=out)

    def _eigen_from(self, vel, c, enthalpy, lam, right, left):
        """Eigenvalues and right/left eigenvector matrices from u, c and H,
        written into lam, right and left.

        The left eigenvectors are the closed-form dual basis (Toro, Riemann
        Solvers and Numerical Methods for Fluid Dynamics): with
        b1 = (gamma-1)/c^2 and b2 = b1 u^2/2,
            l1 = 1/2 (b2 + u/c, -(b1 u + 1/c), b1),
            l2 = (1 - b2, b1 u, -b1),
            l3 = 1/2 (b2 - u/c, -(b1 u - 1/c), b1),
        which needs c^2 = (gamma-1)(H - u^2/2); that holds for cell states
        and for the Roe average alike.
        """
        vel_c, inv_c, b1, b2, b1_vel, vel_inv_c = scratch.arrays(
            ("euler.vel_c", "euler.inv_c", "euler.b1", "euler.b2",
             "euler.b1_vel", "euler.vel_inv_c"), vel.shape)
        self._values_into(vel, c, lam)
        right[..., 0, :] = 1.0
        right[..., 1, :] = lam
        np.multiply(vel, c, out=vel_c)
        np.subtract(enthalpy, vel_c, out=right[..., 2, 0])
        np.multiply(np.multiply(0.5, vel, out=b2), vel, out=right[..., 2, 1])
        np.add(enthalpy, vel_c, out=right[..., 2, 2])
        np.divide(1.0, c, out=inv_c)
        np.multiply(self.gamma - 1.0, inv_c, out=b1)
        np.multiply(b1, inv_c, out=b1)
        np.multiply(0.5, b1, out=b2)
        np.multiply(b2, vel, out=b2)
        np.multiply(b2, vel, out=b2)
        np.multiply(b1, vel, out=b1_vel)
        np.multiply(vel, inv_c, out=vel_inv_c)
        # each entry's sum, then its factor, in place
        for row, column, combine, a, b, factor in (
                (0, 0, np.add, b2, vel_inv_c, 0.5),
                (0, 1, np.add, b1_vel, inv_c, -0.5),
                (2, 0, np.subtract, b2, vel_inv_c, 0.5),
                (2, 1, np.subtract, b1_vel, inv_c, -0.5)):
            entry = left[..., row, column]
            np.multiply(factor, combine(a, b, out=entry), out=entry)
        np.multiply(0.5, b1, out=left[..., 0, 2])
        np.subtract(1.0, b2, out=left[..., 1, 0])
        left[..., 1, 1] = b1_vel
        np.negative(b1, out=left[..., 1, 2])
        left[..., 2, 2] = left[..., 0, 2]

    def _eigen_cells_into(self, u, values, right, left):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        (enthalpy,) = scratch.arrays(("euler.enthalpy",), rho.shape)
        np.divide(np.add(u[..., 2, :], p, out=enthalpy), rho, out=enthalpy)
        self._eigen_from(vel, self._sound_speed(rho, p), enthalpy, values,
                         right, left)

    def _roe_terms_into(self, sides, fluxes, values, roe_values, right,
                        left):
        self._check_shape(sides)
        rho, vel, p = on_stack(self._primitives, sides)
        self._values_into(vel, self._sound_speed(rho, p), values)
        root, weighted_vel, weighted_enthalpy = scratch.arrays(
            ("euler.root", "euler.weighted_vel", "euler.weighted_enthalpy"),
            rho.shape)
        np.sqrt(rho, out=root)
        np.multiply(root, vel, out=weighted_vel)
        # root ((E + p) / rho)
        np.add(sides[..., 2, :], p, out=weighted_enthalpy)
        np.divide(weighted_enthalpy, rho, out=weighted_enthalpy)
        np.multiply(root, weighted_enthalpy, out=weighted_enthalpy)
        total, u_hat, h_hat, c_hat = scratch.arrays(
            ("euler.total", "euler.u_hat", "euler.h_hat", "euler.c_hat"),
            rho.shape[1:])
        np.add(root[0], root[1], out=total)
        np.add(weighted_vel[0], weighted_vel[1], out=u_hat)
        np.divide(u_hat, total, out=u_hat)
        np.add(weighted_enthalpy[0], weighted_enthalpy[1], out=h_hat)
        np.divide(h_hat, total, out=h_hat)
        # c^2 = (gamma - 1) (h_hat - 0.5 u_hat u_hat)
        np.multiply(0.5, u_hat, out=c_hat)
        np.multiply(c_hat, u_hat, out=c_hat)
        np.subtract(h_hat, c_hat, out=c_hat)
        np.multiply(self.gamma - 1.0, c_hat, out=c_hat)
        bad = c_hat <= 0.0
        if bad.any():
            _reject("Roe average loses hyperbolicity", bad)
        self._flux_from(sides, vel, p, fluxes)
        self._eigen_from(u_hat, np.sqrt(c_hat, out=c_hat), h_hat, roe_values,
                         right, left)


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
