"""Interface fluxes, entropy fix, and the finite-volume right-hand side."""
import numpy as np
import pytest

from mgritlab import (
    ConfigError,
    FluxConfig,
    PhysicalStateError,
    SemiDiscreteOperator,
    SpatialGrid,
    WenoConfig,
    entropy_fix,
    lf_alpha,
    lf_flux,
    make_model,
    roe_flux,
)
from mgritlab.models import eigen_arrays


def _scalar(u):
    """Wrap a list of scalar cell values as a (1, N) state array."""
    return np.asarray(u, float)[None, :]


def _sides(left, right):
    """The (2, ..., D, N) interface sides of left and right states."""
    return np.stack([left, right])


def _admissible(model, rng, shape):
    """Random admissible (..., D, N) states of the given (..., N) shape."""
    if model.kind == "burgers":
        return rng.uniform(-1.5, 1.5, shape)[..., None, :]
    if model.kind == "shallow-water":
        depth = rng.uniform(0.3, 3.0, shape)
        return np.stack([depth, depth * rng.uniform(-1, 1, shape)], axis=-2)
    rho = rng.uniform(0.3, 3.0, shape)
    vel = rng.uniform(-1.5, 1.5, shape)
    pressure = rng.uniform(0.3, 3.0, shape)
    energy = pressure / (model.gamma - 1.0) + 0.5 * rho * vel ** 2
    return np.stack([rho, rho * vel, energy], axis=-2)


# ----------------------------------------------------------------------
# dissipation speed
# ----------------------------------------------------------------------

def test_lf_alpha_zero_field():
    model = make_model("burgers")
    zeros = _scalar([0.0, 0.0, 0.0])
    assert lf_alpha(model, _sides(zeros, zeros)) == 0.0


def test_lf_alpha_burgers_is_max_abs_value():
    model = make_model("burgers")
    left = _scalar([-1.0, 2.0])
    right = _scalar([0.5, -0.3])
    assert lf_alpha(model, _sides(left, right)) == 2.0


def test_lf_alpha_euler_uniform_state():
    # rho=1, momentum=0, total energy=1 with gamma=5/3 gives pressure 2/3
    # and sound speed sqrt(10)/3
    model = make_model("euler")
    state = np.array([[1.0], [0.0], [1.0]])
    assert lf_alpha(model, _sides(state, state)) == pytest.approx(
        np.sqrt(10.0) / 3.0, abs=1e-14)


def test_lf_alpha_batched_fields_get_independent_speeds():
    model = make_model("burgers")
    batch = np.stack([_scalar([1.0, -2.0]), _scalar([0.5, 5.0])])
    alpha = lf_alpha(model, _sides(batch, batch))
    assert np.array_equal(alpha, [2.0, 5.0])


# ----------------------------------------------------------------------
# Lax-Friedrichs flux
# ----------------------------------------------------------------------

def test_lf_flux_consistency():
    model = make_model("burgers")
    state = _scalar([2.0])
    out = lf_flux(model, _sides(state, state), 7.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.0


def test_lf_flux_hand_value():
    model = make_model("burgers")
    left = _scalar([1.0])
    right = _scalar([-1.0])
    assert lf_flux(model, _sides(left, right), 1.0)[0, 0] == pytest.approx(
        1.5, abs=1e-15)
    assert lf_flux(model, _sides(left, right), 0.0)[0, 0] == pytest.approx(
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
    out = roe_flux(model, _sides(u, u))
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
    out = roe_flux(model, _sides(_scalar([2.0]), _scalar([0.0])))
    assert out[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert _godunov_burgers(2.0, 0.0) == 2.0


def test_roe_flux_burgers_transonic_rarefaction():
    # without the entropy fix the flux would be the central average 0.5;
    # the fix restores the sonic-point value 0
    model = make_model("burgers")
    out = roe_flux(model, _sides(_scalar([-1.0]), _scalar([1.0])))
    assert abs(out[0, 0]) < 1e-14
    assert _godunov_burgers(-1.0, 1.0) == 0.0


def test_roe_flux_burgers_matches_exact_riemann_solver():
    # for the quadratic scalar flux, the fixed Roe flux is exact for every
    # shock, one-sided rarefaction, and transonic rarefaction
    model = make_model("burgers")
    rng = np.random.default_rng(101)
    uls = rng.uniform(-3, 3, size=500)
    urs = rng.uniform(-3, 3, size=500)
    out = roe_flux(model, _sides(uls[None, :], urs[None, :]))[0]
    exact = np.array([_godunov_burgers(a, b) for a, b in zip(uls, urs)])
    assert np.max(np.abs(out - exact)) < 1e-13


@pytest.mark.parametrize("name", ["shallow-water", "euler"])
def test_roe_linearisation_reproduces_flux_difference(name):
    # the defining property of the averaged state: the flux difference is
    # exactly the eigen-expansion of the jump scaled by the eigenvalues
    model = make_model(name)
    rng = np.random.default_rng(211)
    sides = _sides(_admissible(model, rng, 200), _admissible(model, rng, 200))
    fluxes, _, (lam_hat, right_vec, left_vec) = model.roe_terms(sides)
    jump = sides[1] - sides[0]
    strength = np.einsum("nkd,dn->nk", left_vec, jump)
    recombined = np.einsum("nk,ndk->dn", lam_hat * strength, right_vec)
    flux_diff = fluxes[1] - fluxes[0]
    assert np.max(np.abs(recombined - flux_diff)) < 1e-10


def _roe_average(model, ul, ur):
    """(values, right, left) of the Roe linearisation, from separate
    evaluations of the left and right states."""
    if model.kind == "burgers":
        lam = 0.5 * (model.eigenvalues(ul) + model.eigenvalues(ur))
        eye = np.ones(lam.shape + (1,))
        return lam, eye, eye
    rl, rr = ul[..., 0, :], ur[..., 0, :]
    vl, vr = ul[..., 1, :] / rl, ur[..., 1, :] / rr
    sl, sr = np.sqrt(rl), np.sqrt(rr)
    u_hat = (sl * vl + sr * vr) / (sl + sr)
    eigen = eigen_arrays(ul.shape)
    if model.kind == "shallow-water":
        model._eigen_from(u_hat, np.sqrt(model.gravity * (0.5 * (rl + rr))),
                          *eigen)
        return eigen
    gamma = model.gamma
    pl = (gamma - 1.0) * (ul[..., 2, :] - 0.5 * rl * vl * vl)
    pr = (gamma - 1.0) * (ur[..., 2, :] - 0.5 * rr * vr * vr)
    hl = (ul[..., 2, :] + pl) / rl
    hr = (ur[..., 2, :] + pr) / rr
    h_hat = (sl * hl + sr * hr) / (sl + sr)
    c_sq = (gamma - 1.0) * (h_hat - 0.5 * u_hat * u_hat)
    model._eigen_from(u_hat, np.sqrt(c_sq), h_hat, *eigen)
    return eigen


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
def test_roe_terms_bitwise_equal_separate_side_calls(kind, batch):
    model = make_model(kind)
    rng = np.random.default_rng(37)
    ul = _admissible(model, rng, batch + (16,))
    ur = _admissible(model, rng, batch + (16,))
    fluxes, values, eigen = model.roe_terms(_sides(ul, ur))
    assert np.array_equal(fluxes[0], model.flux(ul))
    assert np.array_equal(fluxes[1], model.flux(ur))
    assert np.array_equal(values[0], model.eigenvalues(ul))
    assert np.array_equal(values[1], model.eigenvalues(ur))
    for got, expected in zip(eigen, _roe_average(model, ul, ur)):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


_PATHS = {
    "roe_flux": lambda model, sides: roe_flux(model, sides),
    "lf_alpha": lambda model, sides: lf_alpha(model, sides),
    "lf_flux": lambda model, sides: lf_flux(model, sides, 1.0),
}


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_bad_side_is_located_by_interface_and_field_batch(path, side, batch):
    model = make_model("euler")
    sides = np.stack([_admissible(model, np.random.default_rng(41),
                                  batch + (8,))] * 2)
    where = (2,) if batch else ()
    sides[(side,) + where + (0, 5)] = -1.0  # density at interface 5+1/2
    with pytest.raises(PhysicalStateError) as err:
        _PATHS[path](model, sides)
    expected = "non-positive density in cell 5"
    if batch:
        expected += " at batch position 2"
    assert str(err.value) == expected


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


def _smooth_field(model, batch, n):
    """Smooth admissible (..., D, N) fields, one phase per batch member."""
    x = (np.arange(n) + 0.5) / n
    phase = np.random.default_rng(43).uniform(size=batch + (1,))
    rho = 1.5 + 0.4 * np.sin(2 * np.pi * (x + phase))
    vel = 0.3 * np.cos(2 * np.pi * (x + 2 * phase))
    if model.kind == "burgers":
        return vel[..., None, :]
    if model.kind == "shallow-water":
        return np.stack([rho, rho * vel], axis=-2)
    pressure = 1.2 + 0.3 * np.sin(2 * np.pi * (x - phase))
    energy = pressure / (model.gamma - 1.0) + 0.5 * rho * vel ** 2
    return np.stack([rho, rho * vel, energy], axis=-2)


def _separate_sides_rhs(op, field):
    """The right-hand side with every model quantity evaluated on the left
    and right interface states separately."""
    model = op.model
    left, right = op.interface_states(field)
    average = 0.5 * (model.flux(left) + model.flux(right))
    if op.config.kind == "lf":
        alpha = np.maximum(np.max(model.max_abs_speed(left), axis=-1),
                           np.max(model.max_abs_speed(right), axis=-1))
        flux = average - 0.5 * alpha[..., None, None] * (right - left)
    else:
        lam_hat, right_vec, left_vec = _roe_average(model, left, right)
        jump = np.swapaxes(right - left, -1, -2)[..., None]
        strength = (left_vec @ jump)[..., 0]
        speed = entropy_fix(lam_hat, model.eigenvalues(left),
                            model.eigenvalues(right))
        dissipation = (right_vec @ (speed * strength)[..., None])[..., 0]
        flux = average - 0.5 * np.swapaxes(dissipation, -1, -2)
    return -(flux - np.roll(flux, 1, axis=-1)) / op.space_grid.dx


@pytest.mark.parametrize("kind", ["burgers", "shallow-water", "euler"])
@pytest.mark.parametrize("flux_kind", ["lf", "roe"])
@pytest.mark.parametrize("characteristic", [True, False])
@pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
def test_rhs_bitwise_equals_separate_side_evaluation(kind, flux_kind,
                                                      characteristic, batch):
    model = make_model(kind)
    grid = SpatialGrid(1.0, 16)
    field = _smooth_field(model, batch, 16)
    for order in (1, 3, 5, 7):
        op = SemiDiscreteOperator(model, grid, FluxConfig(
            kind=flux_kind, weno=WenoConfig(order=order,
                                            characteristic=characteristic)))
        assert np.array_equal(op.rhs(field), _separate_sides_rhs(op, field))


@pytest.mark.parametrize("kind,flux_kind,most", [("euler", "roe", 2),
                                                 ("shallow-water", "lf", 3)])
def test_primitive_passes_per_rhs(monkeypatch, kind, flux_kind, most):
    # one pass over the field for its eigenvectors, and one over the sides
    # for the interface flux (LF's speed and flux are separate calls)
    model = make_model(kind)
    method = "_primitives" if kind == "euler" else "_depth_velocity"
    evaluate, passes = getattr(model, method), []

    def counted(u):
        passes.append(u.shape)
        return evaluate(u)

    monkeypatch.setattr(model, method, counted)
    grid = SpatialGrid(1.0, 16)
    op = SemiDiscreteOperator(model, grid, FluxConfig(
        kind=flux_kind, weno=WenoConfig(order=5)))
    op.rhs(_smooth_field(model, (4,), 16))
    assert 0 < len(passes) <= most, passes
