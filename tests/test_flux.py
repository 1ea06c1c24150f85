"""Interface fluxes, entropy fix, and the finite-volume right-hand side."""
import numpy as np
import pytest

from mgritlab import (
    ConfigError,
    FluxConfig,
    SemiDiscreteOperator,
    SpatialGrid,
    WenoConfig,
    entropy_fix,
    lf_alpha,
    lf_flux,
    make_model,
    roe_flux,
)


def _scalar(u):
    """Wrap a list of scalar cell values as a (1, N) state array."""
    return np.asarray(u, float)[None, :]


# ----------------------------------------------------------------------
# dissipation speed
# ----------------------------------------------------------------------

def test_lf_alpha_zero_field():
    model = make_model("burgers")
    zeros = _scalar([0.0, 0.0, 0.0])
    assert lf_alpha(model, zeros, zeros) == 0.0


def test_lf_alpha_burgers_is_max_abs_value():
    model = make_model("burgers")
    left = _scalar([-1.0, 2.0])
    right = _scalar([0.5, -0.3])
    assert lf_alpha(model, left, right) == 2.0


def test_lf_alpha_euler_uniform_state():
    # rho=1, momentum=0, total energy=1 with gamma=5/3 gives pressure 2/3
    # and sound speed sqrt(10)/3
    model = make_model("euler")
    state = np.array([[1.0], [0.0], [1.0]])
    assert lf_alpha(model, state, state) == pytest.approx(
        np.sqrt(10.0) / 3.0, abs=1e-14)


def test_lf_alpha_batched_fields_get_independent_speeds():
    model = make_model("burgers")
    batch = np.stack([_scalar([1.0, -2.0]), _scalar([0.5, 5.0])])
    alpha = lf_alpha(model, batch, batch)
    assert np.array_equal(alpha, [2.0, 5.0])


# ----------------------------------------------------------------------
# Lax-Friedrichs flux
# ----------------------------------------------------------------------

def test_lf_flux_consistency():
    model = make_model("burgers")
    state = _scalar([2.0])
    out = lf_flux(model, state, state, 7.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.0


def test_lf_flux_hand_value():
    model = make_model("burgers")
    left = _scalar([1.0])
    right = _scalar([-1.0])
    assert lf_flux(model, left, right, 1.0)[0, 0] == pytest.approx(
        1.5, abs=1e-15)
    assert lf_flux(model, left, right, 0.0)[0, 0] == pytest.approx(
        0.5, abs=1e-15)


# ----------------------------------------------------------------------
# entropy fix
# ----------------------------------------------------------------------

def test_entropy_fix_outside_sonic_band():
    assert entropy_fix(3.0, 2.5, 3.5) == 3.0
    assert entropy_fix(-3.0, -3.5, -2.5) == 3.0


def test_entropy_fix_inside_sonic_band():
    # delta = 1, speed lifted to (0^2/1 + 1)/2
    assert entropy_fix(0.0, -1.0, 1.0) == 0.5
    # delta = 2, lam = 1: (1/2 + 2)/2
    assert entropy_fix(1.0, -1.0, 3.0) == 1.25


def test_entropy_fix_degenerate_band_is_absolute_value():
    assert entropy_fix(2.0, 2.0, 2.0) == 2.0
    assert entropy_fix(-2.0, -2.0, -2.0) == 2.0
    assert entropy_fix(0.0, 0.0, 0.0) == 0.0


def test_entropy_fix_arrays():
    lam_hat = np.array([3.0, 0.0, -2.0])
    lam_left = np.array([2.5, -1.0, -2.0])
    lam_right = np.array([3.5, 1.0, -2.0])
    out = entropy_fix(lam_hat, lam_left, lam_right)
    assert out == pytest.approx([3.0, 0.5, 2.0], abs=0)


# ----------------------------------------------------------------------
# Roe flux
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,state", [
    ("burgers", [0.8]),
    ("shallow-water", [2.0, 0.6]),
    ("euler", [1.0, 0.4, 2.0]),
])
def test_roe_flux_consistency(name, state):
    model = make_model(name)
    u = np.asarray(state)[:, None]
    out = roe_flux(model, u, u)
    assert out == pytest.approx(model.flux(u), abs=1e-14)


def _godunov_burgers(ul, ur):
    """Exact Riemann-problem flux for the quadratic scalar law f = u^2/2.

    Shock for ul > ur moving with the average speed; rarefaction otherwise,
    with the sonic value u=0 realised when the fan straddles the interface.
    """
    if ul > ur:
        s = 0.5 * (ul + ur)
        u_star = ul if s >= 0 else ur
    elif ul >= 0:
        u_star = ul
    elif ur <= 0:
        u_star = ur
    else:
        u_star = 0.0
    return 0.5 * u_star * u_star


def test_roe_flux_burgers_shock_hand_value():
    model = make_model("burgers")
    out = roe_flux(model, _scalar([2.0]), _scalar([0.0]))
    assert out[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert _godunov_burgers(2.0, 0.0) == 2.0


def test_roe_flux_burgers_transonic_rarefaction():
    # without the entropy fix the flux would be the central average 0.5;
    # the fix restores the sonic-point value 0
    model = make_model("burgers")
    out = roe_flux(model, _scalar([-1.0]), _scalar([1.0]))
    assert abs(out[0, 0]) < 1e-14
    assert _godunov_burgers(-1.0, 1.0) == 0.0


def test_roe_flux_burgers_matches_exact_riemann_solver():
    # for the quadratic scalar flux, the fixed Roe flux is exact for every
    # shock, one-sided rarefaction, and transonic rarefaction
    model = make_model("burgers")
    rng = np.random.default_rng(101)
    uls = rng.uniform(-3, 3, size=500)
    urs = rng.uniform(-3, 3, size=500)
    out = roe_flux(model, uls[None, :], urs[None, :])[0]
    exact = np.array([_godunov_burgers(a, b) for a, b in zip(uls, urs)])
    assert np.max(np.abs(out - exact)) < 1e-13


@pytest.mark.parametrize("name", ["shallow-water", "euler"])
def test_roe_linearisation_reproduces_flux_difference(name):
    # the defining property of the averaged state: the flux difference is
    # exactly the eigen-expansion of the jump scaled by the eigenvalues
    model = make_model(name)
    rng = np.random.default_rng(211)
    n = 200

    def sample():
        if name == "shallow-water":
            depth = rng.uniform(0.3, 3.0, n)
            return np.stack([depth, depth * rng.uniform(-1, 1, n)])
        rho = rng.uniform(0.3, 3.0, n)
        vel = rng.uniform(-1.5, 1.5, n)
        pressure = rng.uniform(0.3, 3.0, n)
        energy = pressure / (model.gamma - 1.0) + 0.5 * rho * vel ** 2
        return np.stack([rho, rho * vel, energy])

    left, right = sample(), sample()
    lam_hat, right_vec, left_vec = model.roe_eigen(left, right)
    jump = right - left
    strength = np.einsum("nkd,dn->nk", left_vec, jump)
    recombined = np.einsum("nk,ndk->dn", lam_hat * strength, right_vec)
    flux_diff = model.flux(right) - model.flux(left)
    assert np.max(np.abs(recombined - flux_diff)) < 1e-10


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------

def test_weno_config_rejects_bad_order_and_epsilon():
    for order in (0, 2, 4, 9, -3):
        with pytest.raises(ConfigError):
            WenoConfig(order=order)
    with pytest.raises(ConfigError):
        WenoConfig(order=5, epsilon=0.0)
    assert WenoConfig(order=7).degree == 3


def test_flux_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        FluxConfig(kind="upwind")


def test_operator_rejects_too_few_cells():
    model = make_model("burgers")
    grid = SpatialGrid(1.0, 4)
    with pytest.raises(ConfigError):
        SemiDiscreteOperator(model, grid, FluxConfig(
            kind="lf", weno=WenoConfig(order=5)))


# ----------------------------------------------------------------------
# semi-discrete operator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,kind,order", [
    ("burgers", "lf", 5),
    ("shallow-water", "roe", 3),
    ("euler", "lf", 1),
    ("euler", "roe", 7),
])
def test_rhs_vanishes_on_constant_fields(name, kind, order):
    model = make_model(name)
    grid = SpatialGrid(1.0, 16)
    base = {"burgers": [0.7], "shallow-water": [1.5, 0.3],
            "euler": [1.0, 0.2, 2.0]}[name]
    field = np.repeat(np.asarray(base)[:, None], grid.n_cells, axis=1)
    out = SemiDiscreteOperator(model, grid, FluxConfig(
        kind=kind, weno=WenoConfig(order=order))).rhs(field)
    assert np.max(np.abs(out)) < 1e-13


@pytest.mark.parametrize("name,kind,order", [
    ("burgers", "lf", 5),
    ("burgers", "roe", 3),
    ("shallow-water", "lf", 3),
    ("shallow-water", "roe", 5),
    ("euler", "lf", 7),
    ("euler", "roe", 1),
])
def test_rhs_telescopes_to_zero_total(name, kind, order):
    # periodic conservative form: the cell updates sum to zero exactly up
    # to roundoff, componentwise
    model = make_model(name)
    grid = SpatialGrid(2.0, 24)
    x = grid.cell_centers()
    wave = 1.0 + 0.4 * np.sin(2 * np.pi * x / grid.length)
    if name == "burgers":
        field = wave[None, :] - 1.0
    elif name == "shallow-water":
        field = np.stack([wave, wave * 0.3 * np.cos(2 * np.pi * x / 2.0)])
    else:
        vel = 0.3 * np.cos(2 * np.pi * x / 2.0)
        pressure = wave
        energy = pressure / (model.gamma - 1.0) + 0.5 * wave * vel ** 2
        field = np.stack([wave, wave * vel, energy])
    out = SemiDiscreteOperator(model, grid, FluxConfig(
        kind=kind, weno=WenoConfig(order=order))).rhs(field)
    assert np.max(np.abs(out.sum(axis=-1))) < 1e-12


def test_rhs_matches_hand_rolled_first_order_lf():
    # order-1 reconstruction reduces to cell values; replicate the scheme
    # with an explicit loop and compare entry by entry
    model = make_model("burgers")
    grid = SpatialGrid(1.0, 4)
    u = np.array([1.0, 2.0, -1.0, 0.5])
    alpha = np.max(np.abs(u))
    flux = np.empty(4)
    for i in range(4):
        ul, ur = u[i], u[(i + 1) % 4]
        flux[i] = 0.5 * (0.5 * ul * ul + 0.5 * ur * ur) \
            - 0.5 * alpha * (ur - ul)
    expected = -(flux - np.roll(flux, 1)) / grid.dx
    out = SemiDiscreteOperator(model, grid, FluxConfig(
        kind="lf", weno=WenoConfig(order=1))).rhs(u[None, :])
    assert out[0] == pytest.approx(expected, abs=1e-13)


def test_rhs_batched_fields_match_individual_evaluation():
    model = make_model("burgers")
    grid = SpatialGrid(1.0, 12)
    rng = np.random.default_rng(9)
    fields = rng.uniform(-1, 1, size=(3, 1, 12))
    config = FluxConfig(kind="roe", weno=WenoConfig(order=5))
    op = SemiDiscreteOperator(model, grid, config)
    batched = op.rhs(fields)
    for b in range(3):
        # batched contractions may reassociate sums; agreement is to roundoff
        assert np.allclose(batched[b], op.rhs(fields[b]), atol=1e-13)
