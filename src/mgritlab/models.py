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
    """Common interface; subclasses fill in the physics."""

    kind: str
    n_components: int

    def _check_shape(self, u: np.ndarray) -> None:
        if u.ndim < 2 or u.shape[-2] != self.n_components:
            raise DimensionError(
                f"{self.kind} expects (..., {self.n_components}, N) states, "
                f"got shape {u.shape}")

    def flux(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eigenvalues(self, u: np.ndarray) -> np.ndarray:
        """Flux-Jacobian eigenvalues per cell, shape (..., N, D), ascending."""
        raise NotImplementedError

    def max_abs_speed(self, u: np.ndarray) -> np.ndarray:
        """max_k |lambda_k| per cell, shape (..., N)."""
        return np.max(np.abs(self.eigenvalues(u)), axis=-1)

    def eigen_cells(self, u: np.ndarray):
        """(values, right, left) per cell for characteristic projection."""
        raise NotImplementedError

    def roe_terms(self, sides: np.ndarray):
        """What the Roe flux needs at the interfaces whose (2, ..., D, N)
        sides are given, from one pass over each side's primitive
        variables: (fluxes, values, (roe_values, right, left)), the sides'
        fluxes (2, ..., D, N) and eigenvalues (2, ..., N, D), and the
        eigenvalues and right and left eigenvector matrices of the Roe
        linearisation, (..., N, D) and (..., N, D, D)."""
        raise NotImplementedError


class Burgers(ConservationModel):
    """Scalar model with flux u^2/2; the single wave moves at speed u."""

    kind = "burgers"
    n_components = 1

    def flux(self, u):
        self._check_shape(u)
        return 0.5 * u * u

    def eigenvalues(self, u):
        self._check_shape(u)
        return np.moveaxis(u, -2, -1)

    def max_abs_speed(self, u):
        self._check_shape(u)
        return np.abs(u[..., 0, :])

    def eigen_cells(self, u):
        self._check_shape(u)
        lam = self.eigenvalues(u)
        eye = np.ones(lam.shape + (1,))
        return lam, eye, eye

    def roe_terms(self, sides):
        values = self.eigenvalues(sides)
        lam = 0.5 * (values[0] + values[1])
        eye = np.ones(lam.shape + (1,))
        return self.flux(sides), values, (lam, eye, eye)


class ShallowWater(ConservationModel):
    """Depth/momentum system (h, hu) with gravity wave speeds u -+ sqrt(g h)."""

    kind = "shallow-water"
    n_components = 2

    def __init__(self, gravity: float = DEFAULT_GRAVITY):
        if gravity <= 0.0:
            raise ConfigError(f"gravity must be positive, got {gravity}")
        self.gravity = gravity

    def _depth_velocity(self, u):
        h = u[..., 0, :]
        bad = h <= 0.0
        if bad.any():
            _reject("non-positive depth", bad)
        return h, u[..., 1, :] / h

    def _flux_from(self, u, h, vel):
        return np.stack([u[..., 1, :], h * vel * vel + 0.5 * self.gravity * h * h],
                        axis=-2)

    @staticmethod
    def _values_from(vel, c):
        return np.stack([vel - c, vel + c], axis=-1)

    def flux(self, u):
        self._check_shape(u)
        return self._flux_from(u, *self._depth_velocity(u))

    def eigenvalues(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return self._values_from(vel, np.sqrt(self.gravity * h))

    def max_abs_speed(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return np.abs(vel) + np.sqrt(self.gravity * h)

    def _eigen_from(self, vel, c):
        lam = self._values_from(vel, c)
        right = np.empty(vel.shape + (2, 2))
        right[..., 0, :] = 1.0
        right[..., 1, :] = lam
        # closed-form inverse of [[1, 1], [u-c, u+c]]
        inv2c = 0.5 / c
        left = np.empty_like(right)
        left[..., 0, 0] = lam[..., 1] * inv2c
        left[..., 0, 1] = -inv2c
        left[..., 1, 0] = -lam[..., 0] * inv2c
        left[..., 1, 1] = inv2c
        return lam, right, left

    def eigen_cells(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return self._eigen_from(vel, np.sqrt(self.gravity * h))

    def roe_terms(self, sides):
        self._check_shape(sides)
        h, vel = on_stack(self._depth_velocity, sides)
        values = self._values_from(vel, np.sqrt(self.gravity * h))
        root = np.sqrt(h)
        weighted = root * vel
        h_hat = 0.5 * (h[0] + h[1])
        u_hat = (weighted[0] + weighted[1]) / (root[0] + root[1])
        return (self._flux_from(sides, h, vel), values,
                self._eigen_from(u_hat, np.sqrt(self.gravity * h_hat)))


class Euler(ConservationModel):
    """Ideal-gas Euler system (rho, rho u, E) with p = (gamma-1)(E - rho u^2/2)."""

    kind = "euler"
    n_components = 3

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma

    def _primitives(self, u):
        rho = u[..., 0, :]
        bad = rho <= 0.0
        if bad.any():
            _reject("non-positive density", bad)
        vel = u[..., 1, :] / rho
        p = (self.gamma - 1.0) * (u[..., 2, :] - 0.5 * rho * vel * vel)
        bad = p <= 0.0
        if bad.any():
            _reject("non-positive pressure", bad)
        return rho, vel, p

    @staticmethod
    def _flux_from(u, vel, p):
        return np.stack([
            u[..., 1, :],
            u[..., 1, :] * vel + p,
            (u[..., 2, :] + p) * vel,
        ], axis=-2)

    def _sound_speed(self, rho, p):
        return np.sqrt(self.gamma * p / rho)

    @staticmethod
    def _values_from(vel, c):
        return np.stack([vel - c, vel, vel + c], axis=-1)

    def flux(self, u):
        self._check_shape(u)
        _, vel, p = self._primitives(u)
        return self._flux_from(u, vel, p)

    def eigenvalues(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        return self._values_from(vel, self._sound_speed(rho, p))

    def max_abs_speed(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        return np.abs(vel) + self._sound_speed(rho, p)

    def _eigen_from(self, vel, c, enthalpy):
        """Eigenvalues and right/left eigenvector matrices from u, c and H.

        The left eigenvectors are the closed-form dual basis (Toro, Riemann
        Solvers and Numerical Methods for Fluid Dynamics): with
        b1 = (gamma-1)/c^2 and b2 = b1 u^2/2,
            l1 = 1/2 (b2 + u/c, -(b1 u + 1/c), b1),
            l2 = (1 - b2, b1 u, -b1),
            l3 = 1/2 (b2 - u/c, -(b1 u - 1/c), b1),
        which needs c^2 = (gamma-1)(H - u^2/2); that holds for cell states
        and for the Roe average alike.
        """
        lam = self._values_from(vel, c)
        right = np.empty(vel.shape + (3, 3))
        right[..., 0, :] = 1.0
        right[..., 1, :] = lam
        vel_c = vel * c
        right[..., 2, 0] = enthalpy - vel_c
        right[..., 2, 1] = 0.5 * vel * vel
        right[..., 2, 2] = enthalpy + vel_c
        inv_c = 1.0 / c
        b1 = (self.gamma - 1.0) * inv_c * inv_c
        b2 = 0.5 * b1 * vel * vel
        b1_vel = b1 * vel
        vel_inv_c = vel * inv_c
        left = np.empty_like(right)
        left[..., 0, 0] = 0.5 * (b2 + vel_inv_c)
        left[..., 0, 1] = -0.5 * (b1_vel + inv_c)
        left[..., 0, 2] = 0.5 * b1
        left[..., 1, 0] = 1.0 - b2
        left[..., 1, 1] = b1_vel
        left[..., 1, 2] = -b1
        left[..., 2, 0] = 0.5 * (b2 - vel_inv_c)
        left[..., 2, 1] = -0.5 * (b1_vel - inv_c)
        left[..., 2, 2] = 0.5 * b1
        return lam, right, left

    def eigen_cells(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        c = self._sound_speed(rho, p)
        enthalpy = (u[..., 2, :] + p) / rho
        return self._eigen_from(vel, c, enthalpy)

    def roe_terms(self, sides):
        self._check_shape(sides)
        rho, vel, p = on_stack(self._primitives, sides)
        values = self._values_from(vel, self._sound_speed(rho, p))
        root = np.sqrt(rho)
        weighted_vel = root * vel
        weighted_enthalpy = root * ((sides[..., 2, :] + p) / rho)
        total = root[0] + root[1]
        u_hat = (weighted_vel[0] + weighted_vel[1]) / total
        h_hat = (weighted_enthalpy[0] + weighted_enthalpy[1]) / total
        c_sq = (self.gamma - 1.0) * (h_hat - 0.5 * u_hat * u_hat)
        bad = c_sq <= 0.0
        if bad.any():
            _reject("Roe average loses hyperbolicity", bad)
        return (self._flux_from(sides, vel, p), values,
                self._eigen_from(u_hat, np.sqrt(c_sq), h_hat))


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
