"""Output checks run on every workload run, outside the timed regions.

Each check is computed here with plain numpy, not with the package's own
helpers, so a fault in a shared helper cannot hide itself. Trajectories are
arrays of shape (n_nodes, D, N): node-major, component-major cell averages.
"""
from __future__ import annotations

import numpy as np

FIXED_POINT_TOL = 1e-10   # relative space-time L2, MGRIT vs serial
CONSERVATION_TOL = 1e-12  # per-component cell-sum drift over sum |u0|
MIRROR_TOL = 1e-12        # reflection defect over max |u0|
LAX_FRIEDRICHS_TOL = 1e-12  # serial vs independent LF march, over max |u0|


class CheckFailed(Exception):
    """An output check found a result outside its tolerance."""


def fixed_point_error(candidate: np.ndarray, reference: np.ndarray) -> float:
    """(a) ||candidate - reference|| / ||reference|| over all nodes."""
    diff = np.asarray(candidate) - np.asarray(reference)
    return float(np.sqrt(np.sum(diff * diff) / np.sum(reference * reference)))


def conservation_drift(trajectory: np.ndarray) -> float:
    """(b) Largest change of any component's cell sum, over sum |u0|."""
    sums = trajectory.sum(axis=-1)  # (n_nodes, D)
    return float(np.max(np.abs(sums - sums[0])) / np.sum(np.abs(trajectory[0])))


def mirror_defect(trajectory: np.ndarray, mirror_index: int,
                  parity) -> float:
    """(c) max |u_d(c - i) - parity_d u_d(i)| over max |u0|."""
    n_cells = trajectory.shape[-1]
    mirrored = trajectory[..., (mirror_index - np.arange(n_cells)) % n_cells]
    signs = np.asarray(parity, float)[:, None]
    defect = np.max(np.abs(mirrored - signs * trajectory))
    return float(defect / np.max(np.abs(trajectory[0])))


def lax_friedrichs_defect(trajectory: np.ndarray, dt: float,
                          dx: float) -> float:
    """(d) Serial Burgers run vs u' = E u - dt D(u^2/2), over max |u0|."""
    n_cells = trajectory.shape[-1]
    right = np.r_[1:n_cells, 0]
    left = np.r_[n_cells - 1, 0:n_cells - 1]
    u = trajectory[0, 0]
    defect = 0.0
    for node in range(1, trajectory.shape[0]):
        up, um = u[right], u[left]
        u = 0.5 * (up + um) - dt * (0.5 * up * up - 0.5 * um * um) / (2.0 * dx)
        defect = max(defect, float(np.max(np.abs(u - trajectory[node, 0]))))
    return defect / float(np.max(np.abs(trajectory[0])))


def _require(label: str, value: float, tolerance: float) -> float:
    if not value <= tolerance:  # also rejects NaN
        raise CheckFailed(f"{label}: {value:.3e} exceeds {tolerance:.0e}")
    return value


def check_serial(workload, trajectory: np.ndarray, dt: float,
                 dx: float) -> dict:
    """Checks (b), (c) and, for the one-step LF scheme, (d); returns the
    measured values."""
    measured = {
        "serial_conservation": _require(
            "serial conservation", conservation_drift(trajectory),
            CONSERVATION_TOL),
        "serial_mirror": _require(
            "serial reflection symmetry",
            mirror_defect(trajectory, workload.mirror_index(
                trajectory.shape[-1]), workload.parity), MIRROR_TOL)}
    if workload.matched_lf:
        measured["serial_vs_lax_friedrichs"] = _require(
            "serial vs independent Lax-Friedrichs",
            lax_friedrichs_defect(trajectory, dt, dx), LAX_FRIEDRICHS_TOL)
    return measured


def check_mgrit(trajectory: np.ndarray, serial: np.ndarray) -> dict:
    """Checks (a) and (b) on MGRIT's final iterate; returns the measured
    values."""
    return {
        "mgrit_fixed_point": _require(
            "MGRIT fixed point", fixed_point_error(trajectory, serial),
            FIXED_POINT_TOL),
        "mgrit_conservation": _require(
            "MGRIT conservation", conservation_drift(trajectory),
            CONSERVATION_TOL)}
