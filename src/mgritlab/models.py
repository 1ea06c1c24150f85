"""1D hyperbolic conservation-law models: flux, wave speeds, eigenstructure.

Every operation accepts states of shape (..., D, N): component-major cell
values with arbitrary leading batch axes. Eigen quantities come back
cell-major, shape (..., N, D) for eigenvalues and (..., N, D, D) for
eigenvector matrices, so that per-cell projections are plain contractions.

Inadmissible states (non-positive depth, density, or pressure) raise
PhysicalStateError naming the first offending cell and, for batched states,
its batch position. Non-finite values do not raise; they propagate so that
a diverging iteration can be detected by its caller instead of crashing
mid-sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, PhysicalStateError

DEFAULT_GRAVITY = 9.81
DEFAULT_GAMMA = 5.0 / 3.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and eigenvector matrices of the flux Jacobian at one state.

    Columns of `right` are the right eigenvectors r_k; rows of `left` are the
    dual basis, so left @ right == identity.
    """

    values: np.ndarray  # (D,)
    right: np.ndarray   # (D, D)
    left: np.ndarray    # (D, D)

    def to_characteristic(self, vec: np.ndarray) -> np.ndarray:
        """Expansion coefficients of vec in the right-eigenvector basis."""
        return self.left @ vec

    def from_characteristic(self, coeffs: np.ndarray) -> np.ndarray:
        """Reassemble a state-space vector from characteristic coefficients."""
        return self.right @ coeffs


@dataclass(frozen=True)
class RoeAverage:
    """Roe-averaged quantities linking two states (model dependent)."""

    u_hat: float
    h_hat: float | None = None
    rho_hat: float | None = None
    enthalpy_hat: float | None = None
    sound_speed_hat: float | None = None


def _first_bad_location(mask: np.ndarray) -> str:
    """Where the first flagged entry of a (..., N) mask sits: its cell, and
    its position along the batch axes when there are any."""
    index = np.unravel_index(int(np.argmax(mask)), mask.shape)
    where = f"cell {index[-1]}"
    if mask.ndim > 1:
        batch = tuple(int(i) for i in index[:-1])
        where += f" at batch position {batch[0] if len(batch) == 1 else batch}"
    return where


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

    def roe_eigen(self, ul: np.ndarray, ur: np.ndarray):
        """(values, right, left) of the Roe linearisation per interface."""
        raise NotImplementedError

    def eigen(self, state: np.ndarray) -> EigenDecomposition:
        """Decomposition at a single state vector of shape (D,)."""
        lam, right, left = self.eigen_cells(np.asarray(state, float).reshape(-1, 1))
        return EigenDecomposition(lam[0], right[0], left[0])

    def roe_average(self, ul: np.ndarray, ur: np.ndarray) -> RoeAverage:
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

    def roe_eigen(self, ul, ur):
        lam = 0.5 * (self.eigenvalues(ul) + self.eigenvalues(ur))
        eye = np.ones(lam.shape + (1,))
        return lam, eye, eye

    def roe_average(self, ul, ur):
        ul = np.asarray(ul, float).reshape(-1)
        ur = np.asarray(ur, float).reshape(-1)
        return RoeAverage(u_hat=float(0.5 * (ul[0] + ur[0])))


class ShallowWater(ConservationModel):
    """Depth/momentum system (h, hu) with gravity wave speeds u -+ sqrt(g h)."""

    kind = "shallow-water"
    n_components = 2

    def __init__(self, gravity: float = DEFAULT_GRAVITY):
        if gravity <= 0.0:
            raise PhysicalStateError(f"gravity must be positive, got {gravity}")
        self.gravity = gravity

    def _depth_velocity(self, u):
        h = u[..., 0, :]
        bad = h <= 0.0
        if np.any(bad):
            raise PhysicalStateError(
                f"non-positive depth in {_first_bad_location(bad)}")
        return h, u[..., 1, :] / h

    def flux(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return np.stack([u[..., 1, :], h * vel * vel + 0.5 * self.gravity * h * h],
                        axis=-2)

    def eigenvalues(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        c = np.sqrt(self.gravity * h)
        return np.stack([vel - c, vel + c], axis=-1)

    def max_abs_speed(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return np.abs(vel) + np.sqrt(self.gravity * h)

    def _eigen_from(self, vel, c):
        lam = np.stack([vel - c, vel + c], axis=-1)
        one = np.ones_like(vel)
        right = np.stack([
            np.stack([one, one], axis=-1),
            np.stack([lam[..., 0], lam[..., 1]], axis=-1),
        ], axis=-2)
        # closed-form inverse of [[1, 1], [u-c, u+c]]
        inv2c = 0.5 / c
        left = np.stack([
            np.stack([(vel + c) * inv2c, -one * inv2c], axis=-1),
            np.stack([-(vel - c) * inv2c, one * inv2c], axis=-1),
        ], axis=-2)
        return lam, right, left

    def eigen_cells(self, u):
        self._check_shape(u)
        h, vel = self._depth_velocity(u)
        return self._eigen_from(vel, np.sqrt(self.gravity * h))

    def _roe_quantities(self, ul, ur):
        hl, vl = self._depth_velocity(ul)
        hr, vr = self._depth_velocity(ur)
        sl, sr = np.sqrt(hl), np.sqrt(hr)
        h_hat = 0.5 * (hl + hr)
        u_hat = (sl * vl + sr * vr) / (sl + sr)
        return h_hat, u_hat, np.sqrt(self.gravity * h_hat)

    def roe_eigen(self, ul, ur):
        self._check_shape(ul)
        self._check_shape(ur)
        _, u_hat, c_hat = self._roe_quantities(ul, ur)
        return self._eigen_from(u_hat, c_hat)

    def roe_average(self, ul, ur):
        ul = np.asarray(ul, float).reshape(self.n_components, 1)
        ur = np.asarray(ur, float).reshape(self.n_components, 1)
        h_hat, u_hat, c_hat = self._roe_quantities(ul, ur)
        return RoeAverage(u_hat=float(u_hat[0]), h_hat=float(h_hat[0]),
                          sound_speed_hat=float(c_hat[0]))


class Euler(ConservationModel):
    """Ideal-gas Euler system (rho, rho u, E) with p = (gamma-1)(E - rho u^2/2)."""

    kind = "euler"
    n_components = 3

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if gamma <= 1.0:
            raise PhysicalStateError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma

    def _primitives(self, u):
        rho = u[..., 0, :]
        bad = rho <= 0.0
        if np.any(bad):
            raise PhysicalStateError(
                f"non-positive density in {_first_bad_location(bad)}")
        vel = u[..., 1, :] / rho
        p = (self.gamma - 1.0) * (u[..., 2, :] - 0.5 * rho * vel * vel)
        bad = p <= 0.0
        if np.any(bad):
            raise PhysicalStateError(
                f"non-positive pressure in {_first_bad_location(bad)}")
        return rho, vel, p

    def flux(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        return np.stack([
            u[..., 1, :],
            u[..., 1, :] * vel + p,
            (u[..., 2, :] + p) * vel,
        ], axis=-2)

    def _sound_speed(self, rho, p):
        return np.sqrt(self.gamma * p / rho)

    def eigenvalues(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        c = self._sound_speed(rho, p)
        return np.stack([vel - c, vel, vel + c], axis=-1)

    def max_abs_speed(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        return np.abs(vel) + self._sound_speed(rho, p)

    def _eigen_from(self, vel, c, enthalpy):
        lam = np.stack([vel - c, vel, vel + c], axis=-1)
        one = np.ones_like(vel)
        right = np.stack([
            np.stack([one, one, one], axis=-1),
            np.stack([vel - c, vel, vel + c], axis=-1),
            np.stack([enthalpy - vel * c, 0.5 * vel * vel, enthalpy + vel * c],
                     axis=-1),
        ], axis=-2)
        left = np.linalg.inv(right)
        return lam, right, left

    def eigen_cells(self, u):
        self._check_shape(u)
        rho, vel, p = self._primitives(u)
        c = self._sound_speed(rho, p)
        enthalpy = (u[..., 2, :] + p) / rho
        return self._eigen_from(vel, c, enthalpy)

    def _roe_quantities(self, ul, ur):
        rl, vl, pl = self._primitives(ul)
        rr, vr, pr = self._primitives(ur)
        hl = (ul[..., 2, :] + pl) / rl
        hr = (ur[..., 2, :] + pr) / rr
        sl, sr = np.sqrt(rl), np.sqrt(rr)
        u_hat = (sl * vl + sr * vr) / (sl + sr)
        h_hat = (sl * hl + sr * hr) / (sl + sr)
        c_sq = (self.gamma - 1.0) * (h_hat - 0.5 * u_hat * u_hat)
        bad = c_sq <= 0.0
        if np.any(bad):
            raise PhysicalStateError("Roe average loses hyperbolicity in "
                                     + _first_bad_location(bad))
        return sl * sr, u_hat, h_hat, np.sqrt(c_sq)

    def roe_eigen(self, ul, ur):
        self._check_shape(ul)
        self._check_shape(ur)
        _, u_hat, h_hat, c_hat = self._roe_quantities(ul, ur)
        return self._eigen_from(u_hat, c_hat, h_hat)

    def roe_average(self, ul, ur):
        ul = np.asarray(ul, float).reshape(self.n_components, 1)
        ur = np.asarray(ur, float).reshape(self.n_components, 1)
        rho_hat, u_hat, h_hat, c_hat = self._roe_quantities(ul, ur)
        return RoeAverage(u_hat=float(u_hat[0]), rho_hat=float(rho_hat[0]),
                          enthalpy_hat=float(h_hat[0]),
                          sound_speed_hat=float(c_hat[0]))


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
