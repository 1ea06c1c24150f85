"""Conservation-law models: fluxes, eigenstructure, Roe averages."""

import numpy as np
import pytest

from mgritlab.errors import ConfigError, PhysicalStateError
from mgritlab.models import Burgers, Euler, ShallowWater, make_model


def analytic_jacobian(model, state):
    """Hand-coded flux Jacobians used as an independent oracle."""
    if isinstance(model, Burgers):
        return np.array([[state[0]]])
    if isinstance(model, ShallowWater):
        h, hu = state
        u = hu / h
        return np.array([[0.0, 1.0],
                         [model.gravity * h - u * u, 2.0 * u]])
    rho, mom, energy = state
    u = mom / rho
    g = model.gamma
    p = (g - 1.0) * (energy - 0.5 * rho * u * u)
    big_h = (energy + p) / rho
    return np.array([
        [0.0, 1.0, 0.0],
        [0.5 * (g - 3.0) * u * u, (3.0 - g) * u, g - 1.0],
        [u * (0.5 * (g - 1.0) * u * u - big_h),
         big_h - (g - 1.0) * u * u, g * u],
    ])


def random_admissible_states(model, rng, n):
    if isinstance(model, Burgers):
        return rng.uniform(-3.0, 3.0, size=(1, n))
    if isinstance(model, ShallowWater):
        h = rng.uniform(0.2, 4.0, size=n)
        return np.stack([h, h * rng.uniform(-2.0, 2.0, size=n)])
    rho = rng.uniform(0.2, 4.0, size=n)
    u = rng.uniform(-2.0, 2.0, size=n)
    p = rng.uniform(0.2, 4.0, size=n)
    energy = p / (model.gamma - 1.0) + 0.5 * rho * u * u
    return np.stack([rho, rho * u, energy])


# -- fluxes ---------------------------------------------------------------------


def test_burgers_flux_is_half_u_squared():
    state = np.array([[2.0]])
    np.testing.assert_allclose(Burgers().flux(state), [[2.0]])


def test_shallow_water_flux_hand_value():
    model = ShallowWater(gravity=1.0)
    state = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(model.flux(state), [[0.0], [0.5]])


def test_euler_flux_hand_value():
    model = Euler(gamma=5.0 / 3.0)
    state = np.array([[1.0], [0.0], [1.0]])
    np.testing.assert_allclose(model.flux(state), [[0.0], [2.0 / 3.0], [0.0]])


# -- eigenstructure -------------------------------------------------------------


def test_burgers_eigen_is_scalar_identity():
    decomp = Burgers().eigen(np.array([3.0]))
    np.testing.assert_allclose(decomp.values, [3.0])
    np.testing.assert_allclose(decomp.right, [[1.0]])
    np.testing.assert_allclose(decomp.left, [[1.0]])


def test_shallow_water_eigen_at_rest():
    model = ShallowWater(gravity=1.0)
    decomp = model.eigen(np.array([1.0, 0.0]))
    np.testing.assert_allclose(decomp.values, [-1.0, 1.0])
    np.testing.assert_allclose(decomp.right[:, 0], [1.0, -1.0])
    np.testing.assert_allclose(decomp.right[:, 1], [1.0, 1.0])


def test_euler_eigen_at_rest():
    model = Euler(gamma=5.0 / 3.0)
    decomp = model.eigen(np.array([1.0, 0.0, 1.0]))
    c = np.sqrt(10.0) / 3.0
    np.testing.assert_allclose(decomp.values, [-c, 0.0, c], atol=1e-15)


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
def test_left_times_right_is_identity(kind):
    model = make_model(kind)
    rng = np.random.default_rng(11)
    states = random_admissible_states(model, rng, 40)
    lam, right, left = model.eigen_cells(states)
    eye = np.einsum("nij,njk->nik", left, right)
    target = np.broadcast_to(np.eye(states.shape[0]), eye.shape)
    np.testing.assert_allclose(eye, target, atol=1e-12)
    assert np.all(np.diff(lam, axis=-1) >= 0.0)  # sorted wave speeds


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
def test_right_eigenvectors_diagonalise_the_flux_jacobian(kind):
    model = make_model(kind)
    rng = np.random.default_rng(12)
    states = random_admissible_states(model, rng, 25)
    lam, right, _ = model.eigen_cells(states)
    for n in range(states.shape[1]):
        jac = analytic_jacobian(model, states[:, n])
        for k in range(states.shape[0]):
            lhs = jac @ right[n, :, k]
            rhs = lam[n, k] * right[n, :, k]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(
                1.0, np.abs(lam[n]).max()))


def test_characteristic_round_trip_and_unit_vector_cases():
    model = ShallowWater(gravity=1.0)
    decomp = model.eigen(np.array([1.0, 0.0]))
    rng = np.random.default_rng(13)
    u = rng.normal(size=2)
    back = decomp.from_characteristic(decomp.to_characteristic(u))
    np.testing.assert_allclose(back, u, atol=1e-12)
    # a right eigenvector maps to a unit vector in characteristic space
    w0 = decomp.to_characteristic(decomp.right[:, 0])
    np.testing.assert_allclose(w0, [1.0, 0.0], atol=1e-12)
    # the scalar transform is the identity
    scalar = Burgers().eigen(np.array([5.0]))
    np.testing.assert_allclose(scalar.to_characteristic(np.array([5.0])),
                               [5.0])
    np.testing.assert_allclose(scalar.from_characteristic(np.array([5.0])),
                               [5.0])


# -- Roe averages ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
def test_roe_average_consistency_for_equal_states(kind):
    model = make_model(kind)
    rng = np.random.default_rng(14)
    states = random_admissible_states(model, rng, 12)
    lam_pt, right_pt, _ = model.eigen_cells(states)
    lam_roe, right_roe, _ = model.roe_eigen(states, states)
    np.testing.assert_allclose(lam_roe, lam_pt, atol=1e-12)
    np.testing.assert_allclose(right_roe, right_pt, atol=1e-12)


def test_burgers_roe_speed_is_arithmetic_mean():
    model = Burgers()
    lam, _, _ = model.roe_eigen(np.array([[0.0]]), np.array([[2.0]]))
    np.testing.assert_allclose(lam, [[1.0]])


def test_shallow_water_roe_average_hand_value():
    model = ShallowWater(gravity=1.0)
    left_state = np.array([[4.0], [4.0]])    # depth 4, velocity 1
    right_state = np.array([[1.0], [-2.0]])  # depth 1, velocity -2
    avg = model.roe_average(left_state, right_state)
    assert avg.h_hat == pytest.approx(2.5)
    assert avg.u_hat == pytest.approx(0.0, abs=1e-15)


# -- admissibility ----------------------------------------------------------------


def test_shallow_water_rejects_nonpositive_depth():
    model = ShallowWater()
    state = np.array([[1.0, -0.5, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(PhysicalStateError) as err:
        model.eigen_cells(state)
    assert "cell 1" in str(err.value)


def test_batched_state_errors_name_batch_position_and_cell():
    model = Euler()
    states = np.ones((4, 3, 8))
    states[2, 0, 5] = -1.0  # density of cell 5 in the third batch item
    with pytest.raises(PhysicalStateError) as err:
        model.flux(states)
    assert str(err.value) == ("non-positive density in cell 5 at batch "
                              "position 2")
    nested = np.ones((2, 3, 2, 8))
    nested[1, 2, 0, 7] = 0.0
    with pytest.raises(PhysicalStateError) as err:
        ShallowWater().flux(nested)
    assert str(err.value).endswith("cell 7 at batch position (1, 2)")


def test_euler_rejects_nonpositive_pressure():
    model = Euler()
    state = np.array([[1.0], [10.0], [1.0]])  # kinetic energy exceeds total
    with pytest.raises(PhysicalStateError):
        model.eigen_cells(state)


def test_euler_rejects_nonpositive_density():
    model = Euler()
    state = np.array([[-1.0], [0.0], [1.0]])
    with pytest.raises(PhysicalStateError):
        model.eigen_cells(state)


# -- factory -----------------------------------------------------------------------


def test_make_model_defaults_and_overrides():
    assert make_model("euler").gamma == pytest.approx(5.0 / 3.0)
    assert make_model("shallow-water").gravity == pytest.approx(9.81)
    assert make_model("euler", gamma=1.4).gamma == pytest.approx(1.4)
    assert make_model("burgers").kind == "burgers"
    with pytest.raises(ConfigError):
        make_model("advection")
