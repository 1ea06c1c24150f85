"""Config parsing, experiment driving, table/CSV output, and the CLI."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgritlab import (
    ConfigError,
    ConvergenceTable,
    Euler,
    ExperimentConfig,
    MgritOptions,
    ParseError,
    RungeKuttaStepper,
    ShallowWater,
    SpatialGrid,
    TemporalGrid,
    WenoConfig,
    apply_sweep_value,
    assemble_table,
    emit_csv,
    initial_state,
    load_config,
    main,
    meta_path,
    parse_config,
    run_experiment,
    run_sweep,
    validate_config,
)
from mgritlab import harness, selfcheck

REPO = Path(__file__).resolve().parent.parent

MINIMAL = """
problem = burgers
ic = sin-stationary
horizon = 0.475
n_x = 16
n_t = 8
n_levels = 2
"""

MATCHED_SMALL = """
problem = burgers
ic = sin-stationary
T = 0.475
N_x = 64
N_t = 128
n_levels = 2
stepper = matched-lf
coarse = matched-1
max_iters = 4
"""


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_parse_minimal_config_fills_defaults():
    config = parse_config(MINIMAL)
    assert config.problem == "burgers"
    assert config.ic == "sin-stationary"
    assert config.horizon == 0.475
    assert (config.n_x, config.n_t, config.n_levels) == (16, 8, 2)
    assert config.length == 1.0
    assert config.m == 2
    assert config.cycle == "v"
    assert config.relaxation == "f"
    assert config.restriction_guess == "last-step"
    assert config.max_iters == 10
    assert config.flux == "lf"
    assert config.weno_order == (1,)
    assert config.stepper == ("fe",)
    assert config.coarse == "rediscretize"
    assert config.characteristic is True
    assert config.epsilon == 1e-6
    assert config.gamma == pytest.approx(5.0 / 3.0)
    assert config.gravity == 9.81
    assert config.parallelism == 1
    assert config.sweep is None


def test_parse_full_config_with_comments_and_aliases():
    text = """
    # mesh and model
    problem = euler
    ic = euler-energy-sin
    L = 2.0            # domain length
    T = 0.5
    N_x = 64
    N_t = 400
    n_levels = 3
    m = 2
    cycle = f
    relaxation = fcf
    restriction_guess = injection
    max_iters = 7
    flux = roe
    weno_order = 7/5/3
    stepper = ssprk3/ssprk2/fe
    coarse = rediscretize
    characteristic = false
    epsilon = 1e-8
    gamma = 1.4
    gravity = 1.0
    parallelism = 4
    """
    config = parse_config(text)
    assert config.length == 2.0
    assert config.horizon == 0.5
    assert (config.n_x, config.n_t) == (64, 400)
    assert config.cycle == "f"
    assert config.relaxation == "fcf"
    assert config.restriction_guess == "injection"
    assert config.weno_order == (7, 5, 3)
    assert config.stepper == ("ssprk3", "ssprk2", "fe")
    assert config.characteristic is False
    assert config.gamma == 1.4
    assert config.parallelism == 4


def test_parse_error_names_line_and_key():
    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nbogus_key = 3\n")
    assert "bogus_key" in str(info.value)
    assert "line" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nn_x 32\n")
    assert "key = value" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nn_x = not-a-number\n")
    assert "n_x" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nm =\n")
    assert "empty value" in str(info.value)


def test_parse_rejects_duplicates_including_alias_spellings():
    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nn_x = 32\n")
    assert "duplicate" in str(info.value)
    # the alias resolves to the same canonical key
    with pytest.raises(ParseError) as info:
        parse_config(MINIMAL + "\nN_x = 32\n")
    assert "duplicate" in str(info.value)
    assert "n_x" in str(info.value)


def test_parse_requires_mandatory_keys():
    with pytest.raises(ParseError) as info:
        parse_config("problem = burgers\nic = sin-stationary\n")
    assert "missing required key" in str(info.value)


def test_parse_sweep_keys_must_pair():
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "\nsweep = n_t\n")
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "\nsweep_values = 8, 16\n")


# Every config key once: a good spelling (aliases included) with its parsed
# value, and for each typed key a bad value with the exact error text.

_KEY_LINES = {"problem": "problem = burgers", "ic": "ic = sin-stationary",
              "horizon": "horizon = 0.475", "n_x": "n_x = 16",
              "n_t": "n_t = 8", "n_levels": "n_levels = 2"}

GOOD_KEY_TEXTS = {
    "problem": ({"problem": "problem = euler",
                 "ic": "ic = euler-energy-sin"}, "euler"),
    "ic": ({"ic": "ic = sin-moving"}, "sin-moving"),
    "horizon": ({"horizon": "T = 0.5"}, 0.5),
    "n_x": ({"n_x": "N_x = 32"}, 32),
    "n_t": ({"n_t": "N_t = 16"}, 16),
    "n_levels": ({"n_levels": "n_levels = 3"}, 3),
    "length": ({"length": "L = 2.0"}, 2.0),
    "m": ({"m": "m = 4"}, 4),
    "cycle": ({"cycle": "cycle = f"}, "f"),
    "relaxation": ({"relaxation": "relaxation = fcf"}, "fcf"),
    "restriction_guess": ({"restriction_guess":
                           "restriction_guess = injection"}, "injection"),
    "max_iters": ({"max_iters": "max_iters = 3"}, 3),
    "flux": ({"flux": "flux = roe"}, "roe"),
    "weno_order": ({"weno_order": "weno_order = 3/1"}, (3, 1)),
    "stepper": ({"stepper": "stepper = ssprk3 / fe"}, ("ssprk3", "fe")),
    "coarse": ({"coarse": "coarse = exact"}, "exact"),
    "characteristic": ({"characteristic": "characteristic = off"}, False),
    "epsilon": ({"epsilon": "epsilon = 1e-8"}, 1e-8),
    "gamma": ({"gamma": "gamma = 1.4"}, 1.4),
    "gravity": ({"gravity": "gravity = 1.0"}, 1.0),
    "divergence_threshold": ({"divergence_threshold":
                              "divergence_threshold = 1e6"}, 1e6),
    "parallelism": ({"parallelism": "parallelism = 2"}, 2),
    "sweep": ({"sweep": "sweep = N_t",
               "sweep_values": "sweep_values = 8, 16"}, "n_t"),
    "sweep_values": ({"sweep": "sweep = n_x",
                      "sweep_values": "sweep_values = 16 ,32"},
                     ("16", "32")),
}

BAD_KEY_TEXTS = [
    ("horizon", "T = soon", "could not convert string to float: 'soon'"),
    ("n_x", "N_x = 3.5", "invalid literal for int() with base 10: '3.5'"),
    ("n_t", "N_t = 8x", "invalid literal for int() with base 10: '8x'"),
    ("n_levels", "n_levels = two",
     "invalid literal for int() with base 10: 'two'"),
    ("length", "L = one", "could not convert string to float: 'one'"),
    ("m", "m = 2.0", "invalid literal for int() with base 10: '2.0'"),
    ("max_iters", "max_iters = ten",
     "invalid literal for int() with base 10: 'ten'"),
    ("weno_order", "weno_order = 3/x",
     "invalid literal for int() with base 10: 'x'"),
    ("characteristic", "characteristic = maybe", "not a boolean: 'maybe'"),
    ("epsilon", "epsilon = tiny", "could not convert string to float: 'tiny'"),
    ("gamma", "gamma = 7/5", "could not convert string to float: '7/5'"),
    ("gravity", "gravity = g", "could not convert string to float: 'g'"),
    ("divergence_threshold", "divergence_threshold = 1e6e",
     "could not convert string to float: '1e6e'"),
    ("parallelism", "parallelism = 1.0",
     "invalid literal for int() with base 10: '1.0'"),
]


def _key_lines(lines: dict) -> dict:
    """The minimal config's lines by key, overridden or extended."""
    return {**_KEY_LINES, **lines}


def test_key_texts_cover_every_config_key():
    keys = [field.name for field in dataclasses.fields(ExperimentConfig)]
    assert sorted(GOOD_KEY_TEXTS) == sorted(keys)
    # a text fails to parse unless the value is a string or strings
    typed = [key for key, (_, value) in GOOD_KEY_TEXTS.items()
             if not isinstance(value[0] if isinstance(value, tuple)
                               else value, str)]
    assert sorted(key for key, _, _ in BAD_KEY_TEXTS) == sorted(typed)


@pytest.mark.parametrize("key", sorted(GOOD_KEY_TEXTS))
def test_parse_good_key_text(key):
    lines, expected = GOOD_KEY_TEXTS[key]
    config = parse_config("\n".join(_key_lines(lines).values()) + "\n")
    assert getattr(config, key) == expected
    assert type(getattr(config, key)) is type(expected)


@pytest.mark.parametrize("key,line,detail", BAD_KEY_TEXTS,
                         ids=[key for key, _, _ in BAD_KEY_TEXTS])
def test_parse_bad_key_text_names_value_line_and_key(key, line, detail):
    lines = _key_lines({key: line})
    lineno = list(lines).index(key) + 1
    raw = line.partition("=")[2].strip()
    with pytest.raises(ParseError) as info:
        parse_config("\n".join(lines.values()) + "\n")
    assert (info.value.line, info.value.key) == (lineno, key)
    assert str(info.value) == \
        f"bad value '{raw}': {detail} (line {lineno}, key '{key}')"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["horizon", "length", "epsilon", "gamma",
                                 "gravity", "divergence_threshold"])
def test_parse_rejects_non_finite_float_values(key, raw):
    # the parser names the line and key; the constructors reject these
    # values too (test_constructors_reject_non_finite_values)
    lines = _key_lines({key: f"{key} = {raw}"})
    lineno = list(lines).index(key) + 1
    with pytest.raises(ParseError) as info:
        parse_config("\n".join(lines.values()) + "\n")
    assert (info.value.line, info.value.key) == (lineno, key)
    assert str(info.value) == (f"bad value '{raw}': not a finite number: "
                               f"'{raw}' (line {lineno}, key '{key}')")


_CONSTRUCTORS = {
    "MgritOptions": (lambda x: MgritOptions(n_levels=2,
                                            divergence_threshold=x),
                     "divergence threshold must be positive"),
    "WenoConfig": (lambda x: WenoConfig(epsilon=x),
                   "epsilon must be positive"),
    "SpatialGrid": (lambda x: SpatialGrid(x, 8),
                    "domain length must be positive"),
    "TemporalGrid": (lambda x: TemporalGrid(x, 8),
                     "time horizon must be positive"),
    "ShallowWater": (lambda x: ShallowWater(gravity=x),
                     "gravity must be positive"),
    "Euler": (lambda x: Euler(gamma=x), "gamma must exceed 1"),
    "RungeKuttaStepper": (lambda x: RungeKuttaStepper(lambda v: v, x, 1),
                          "time step must be positive"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_reject_non_finite_values(name, value):
    # a check written x <= 0 lets nan through: a nan divergence threshold
    # would never flag a diverging run built through the Python API
    build, message = _CONSTRUCTORS[name]
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("key,raw,message", [
    ("n_t", "seven", "bad sweep value 'seven' for 'n_t': invalid literal "
                     "for int() with base 10: 'seven'"),
    ("epsilon", "tiny", "bad sweep value 'tiny' for 'epsilon': could not "
                        "convert string to float: 'tiny'"),
    ("characteristic", "maybe", "bad sweep value 'maybe' for "
                                "'characteristic': not a boolean: 'maybe'"),
    ("weno_order", "3/x", "bad sweep value '3/x' for 'weno_order': invalid "
                          "literal for int() with base 10: 'x'"),
    ("gamma", "nan", "bad sweep value 'nan' for 'gamma': not a finite "
                     "number: 'nan'"),
    ("grid", "128", "bad grid value '128', expected '<n_x>x<n_t>'"),
])
def test_bad_sweep_value_message(key, raw, message):
    with pytest.raises(ConfigError) as info:
        apply_sweep_value(_config(), key, raw)
    assert str(info.value) == message


def test_parse_rejects_indivisible_time_grid():
    text = MINIMAL.replace("n_t = 8", "n_t = 100").replace(
        "n_levels = 2", "n_levels = 5")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "divisible" in str(info.value)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def _config(**overrides):
    base = dict(problem="burgers", ic="sin-stationary", horizon=0.475,
                n_x=16, n_t=8, n_levels=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_validate_rejects_model_ic_mismatch():
    with pytest.raises(ConfigError) as info:
        validate_config(_config(ic="sw-scaled"))
    assert "belongs to model" in str(info.value)


def test_validate_rejects_model_parameters_out_of_range():
    for overrides in (dict(problem="shallow-water", ic="sw-scaled",
                           gravity=-1.0),
                      dict(problem="shallow-water", ic="sw-scaled",
                           gravity=0.0),
                      dict(problem="euler", ic="euler-energy-sin", gamma=1.0)):
        with pytest.raises(ConfigError) as info:
            validate_config(_config(**overrides))
        assert "gravity" in str(info.value) or "gamma" in str(info.value)
    # a parameter of another model is not checked
    validate_config(_config(gravity=-1.0, gamma=0.5))


def test_validate_rejects_matched_steppers_off_the_scalar_model():
    with pytest.raises(ConfigError):
        validate_config(_config(problem="shallow-water", ic="sw-scaled",
                                stepper=("matched-lf",)))


def test_validate_rejects_matched_coarse_with_rk_steppers():
    with pytest.raises(ConfigError):
        validate_config(_config(stepper=("ssprk3",), coarse="matched-1"))


def test_validate_rejects_exact_coarse_with_per_level_lists():
    with pytest.raises(ConfigError):
        validate_config(_config(n_levels=3, n_t=16, coarse="exact",
                                weno_order=(1, 3, 5)))


def test_validate_rejects_unknown_enumerations():
    for overrides in (dict(cycle="w"), dict(relaxation="c"),
                      dict(restriction_guess="zero"), dict(flux="central"),
                      dict(coarse="extrapolate"), dict(problem="advection"),
                      dict(stepper=("rk4",)),
                      dict(ic="square-wave"), dict(sweep="problem",
                                                   sweep_values=("euler",))):
        with pytest.raises(ConfigError):
            validate_config(_config(**overrides))


def test_validate_rejects_wrong_list_lengths():
    # With 2 levels, lists must hold exactly 1 or 2 entries.
    with pytest.raises(ConfigError):
        validate_config(_config(weno_order=(1, 3, 5)))
    with pytest.raises(ConfigError):
        validate_config(_config(stepper=("fe", "fe", "fe")))


# ----------------------------------------------------------------------
# named initial conditions
# ----------------------------------------------------------------------

def test_initial_state_profiles():
    grid = SpatialGrid(1.0, 64)
    x = grid.cell_centers()
    sin = np.sin(2 * np.pi * x)
    stationary = initial_state("sin-stationary", grid, 1.0)
    assert np.allclose(stationary, sin[None, :], atol=1e-15)
    moving = initial_state("sin-moving", grid, 1.0)
    assert np.allclose(moving, 0.5 * (1.0 + sin)[None, :], atol=1e-15)
    strong = initial_state("burgers-43", grid, 1.0)
    assert np.allclose(strong, (4.0 / 3.0) * sin[None, :], atol=1e-15)
    shallow = initial_state("sw-scaled", grid, 1.0)
    assert shallow.shape == (2, 64)
    assert np.allclose(shallow[0], (1.0 + 0.5 * sin) / 11.0, atol=1e-15)
    assert np.all(shallow[1] == 0.0)
    euler = initial_state("euler-energy-sin", grid, 1.0)
    assert euler.shape == (3, 64)
    assert np.all(euler[0] == 1.0)
    assert np.all(euler[1] == 0.0)
    assert np.allclose(euler[2], 1.0 + 0.5 * sin, atol=1e-15)
    with pytest.raises(ConfigError):
        initial_state("square-wave", grid, 1.0)


def test_initial_state_respects_domain_length():
    grid = SpatialGrid(4.0, 32)
    x = grid.cell_centers()
    profile = initial_state("sin-stationary", grid, 4.0)
    assert np.allclose(profile[0], np.sin(2 * np.pi * x / 4.0), atol=1e-15)


# ----------------------------------------------------------------------
# running experiments
# ----------------------------------------------------------------------

def test_run_experiment_exact_coarse_smoke():
    config = parse_config(MATCHED_SMALL.replace("coarse = matched-1",
                                                "coarse = exact"))
    result = run_experiment(config)
    # the exact two-level method reproduces the serial solve in one sweep
    assert result.record.errors[0] > 0.1
    assert result.record.errors[1] < 1e-12
    assert result.record.errors[2] < 1e-12
    assert not result.record.diverged
    assert result.level_dts == (config.horizon / 128, config.horizon / 64)
    expected_cfls = tuple(result.serial.max_speed * dt * 64
                          for dt in result.level_dts)
    assert result.level_cfls == pytest.approx(expected_cfls, abs=1e-15)
    assert result.wall_seconds > 0.0


def test_run_experiment_rejects_sweep_config_and_vice_versa():
    sweep_config = _config(sweep="n_t", sweep_values=("8", "16"))
    with pytest.raises(ConfigError):
        run_experiment(sweep_config)
    with pytest.raises(ConfigError):
        run_sweep(_config())


def test_run_experiment_overrides():
    config = parse_config(MATCHED_SMALL)
    result = run_experiment(config, max_iters=2, parallelism=2)
    assert result.record.errors.shape == (3,)


def test_apply_sweep_value_plain_and_grid():
    base = _config(n_t=8)
    swapped = apply_sweep_value(base, "n_t", "16")
    assert swapped.n_t == 16 and swapped.n_x == base.n_x
    meshed = apply_sweep_value(_config(stepper=("matched-lf",),
                                       coarse="matched-1"),
                               "grid", "128x1024")
    assert (meshed.n_x, meshed.n_t) == (128, 1024)
    with pytest.raises(ConfigError):
        apply_sweep_value(base, "grid", "128")
    with pytest.raises(ConfigError):
        apply_sweep_value(base, "n_t", "seven")
    orders = apply_sweep_value(_config(n_levels=3, n_t=16), "weno_order",
                               "3/5/7")
    assert orders.weno_order == (3, 5, 7)


def test_run_sweep_columns_and_divergence_isolation():
    # one column diverges, its siblings finish untouched
    text = """
    problem = burgers
    ic = sin-stationary
    T = 0.475
    N_x = 64
    N_t = 256
    n_levels = 4
    stepper = matched-lf
    coarse = matched-1
    max_iters = 10
    sweep = coarse
    sweep_values = matched-1, rediscretize
    """
    result = run_sweep(parse_config(text))
    table = result.table
    assert table.columns == ["coarse=matched-1", "coarse=rediscretize"]
    assert table.data.shape == (11, 2)
    good, bad = result.runs
    assert not good.record.diverged
    assert np.isfinite(table.data[:, 0]).all()
    assert table.data[10, 0] < 1e-12
    assert bad.record.diverged
    assert bad.record.diverged_at is not None
    assert np.isnan(table.data[bad.record.diverged_at:, 1]).all()
    assert np.isfinite(table.data[0, 1])


EULER_FE_SWEEP = """
problem = euler
ic = euler-energy-sin
T = 0.5
N_x = 64
N_t = 400
n_levels = 2
flux = roe
weno_order = 5
stepper = fe
max_iters = 2
sweep = n_t
sweep_values = 8, 400
"""


def test_failed_reference_stays_in_its_column():
    # forward Euler at N_t = 8 drives the density negative in the serial
    # reference; the N_t = 400 column must still run
    result = run_sweep(parse_config(EULER_FE_SWEEP))
    failed, good = result.runs
    assert failed.failure.startswith("reference: non-positive density")
    assert failed.serial is None
    assert np.isnan(result.table.data[:, 0]).all()
    assert good.failure is None
    assert np.isfinite(result.table.data[:, 1]).all()
    assert result.table.data.shape == (3, 2)


def _meta_sections(path):
    """{section: {key: value}} from a .meta sidecar."""
    sections, current = {}, None
    for line in meta_path(path).read_text().splitlines():
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        elif " = " in line and current is not None:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


def _floats(value):
    return np.array([float(v) for v in value.split(", ")])


def test_cli_sweep_with_failed_reference_writes_outputs_and_exits_one(
        tmp_path, capsys):
    cfg = _write_config(tmp_path, EULER_FE_SWEEP)
    out = tmp_path / "euler.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert out.read_text().splitlines()[0] == "iteration,n_t=8,n_t=400"
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error:") and "n_t=8" in err
    meta = _meta_sections(out)
    assert meta["n_t=8"]["failure"].startswith(
        "reference: non-positive density in cell ")
    assert np.isnan(_floats(meta["n_t=8"]["residuals"])).all()
    assert "failure" not in meta["n_t=400"]


DIVERGING_SWEEP = """
problem = burgers
ic = sin-stationary
T = 0.475
N_x = 64
N_t = 256
n_levels = 4
stepper = matched-lf
coarse = matched-1
max_iters = 10
sweep = coarse
sweep_values = matched-1, rediscretize
"""


def test_meta_records_mgrit_divergence_cause(tmp_path):
    cfg = _write_config(tmp_path, DIVERGING_SWEEP)
    out = tmp_path / "sweep.csv"
    # a diverged column is a result, not a failed run
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    meta = _meta_sections(out)
    result = run_sweep(parse_config(DIVERGING_SWEEP))
    good, bad = result.runs
    diverged = meta["coarse=rediscretize"]
    assert diverged["diverged_at"] == str(bad.record.diverged_at)
    assert diverged["failure"] == (f"mgrit: {bad.record.divergence_cause} "
                                   f"at iteration {bad.record.diverged_at}")
    # the rediscretised coarse operator blows up at this CFL
    assert bad.record.divergence_cause.startswith("relative error ")
    assert bad.record.divergence_cause.endswith(
        " above divergence threshold 1e+10")
    assert "failure" not in meta["coarse=matched-1"]


def test_meta_records_residual_history_and_factors(tmp_path):
    cfg = _write_config(tmp_path, MATCHED_SMALL)
    out = tmp_path / "case.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    section = _meta_sections(out)["error"]
    residuals = _floats(section["residuals"])
    factors = _floats(section["residual_factors"])
    result = run_experiment(parse_config(MATCHED_SMALL))
    assert np.array_equal(residuals, result.record.residuals)
    assert residuals.shape == factors.shape == (5,)
    assert np.isnan(factors[0])
    assert np.array_equal(factors[1:], residuals[1:] / residuals[:-1])
    assert np.all(factors[1:] < 1.0)
    # the residuals live in the sidecar only
    assert out.read_text().splitlines()[0] == "iteration,error"


# ----------------------------------------------------------------------
# tables and CSV bytes
# ----------------------------------------------------------------------

def test_assemble_table_pads_short_columns():
    class Rec:
        def __init__(self, errors):
            self.errors = np.asarray(errors, float)

    table = assemble_table(["a", "b"], [Rec([1.0, 0.5, 0.25]), Rec([1.0])])
    assert table.data.shape == (3, 2)
    assert np.isnan(table.data[1:, 1]).all()
    assert table.data[2, 0] == 0.25


def test_emit_csv_golden_bytes(tmp_path):
    out = tmp_path / "table.csv"
    emit_csv(ConvergenceTable(columns=["error"],
                              data=np.array([[0.5], [0.25]])), out)
    assert out.read_bytes() == b"iteration,error\n0,0.5\n1,0.25\n"


def test_emit_csv_nan_literal_and_roundtrip(tmp_path):
    out = tmp_path / "table.csv"
    third = 1.0 / 3.0
    emit_csv(ConvergenceTable(columns=["a", "b"],
                              data=np.array([[third, np.nan]])), out)
    text = out.read_text()
    assert text == f"iteration,a,b\n0,{third!r},NaN\n"
    # the shortest-repr value round-trips exactly
    assert float(text.splitlines()[1].split(",")[1]) == third


def test_emit_csv_empty_table_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv(ConvergenceTable(columns=["x", "y"], data=np.empty((0, 2))), out)
    assert out.read_bytes() == b"iteration,x,y\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _write_config(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path

def test_cli_solve_writes_csv_and_meta(tmp_path, capsys):
    cfg = _write_config(tmp_path, MATCHED_SMALL)
    out = tmp_path / "case.csv"
    code = main(["solve", "--config", str(cfg), "--out", str(out),
                 "--max-iters", "3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,error"
    assert len(lines) == 5  # header + rows 0..3
    sidecar = meta_path(out)
    assert sidecar.exists()
    meta = sidecar.read_text()
    assert "level_dt = " in meta
    assert "level_cfl = " in meta
    assert "wall_seconds = " in meta
    assert "diverged = false" in meta
    assert "error" in capsys.readouterr().out


def test_cli_sweep_writes_columns_and_sections(tmp_path, capsys):
    text = MATCHED_SMALL + "sweep = n_t\nsweep_values = 64, 128\n"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--max-iters", "2"])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "iteration,n_t=64,n_t=128"
    meta = meta_path(out).read_text()
    assert "[n_t=64]" in meta and "[n_t=128]" in meta
    stdout = capsys.readouterr().out
    assert "n_t=64" in stdout and "wrote" in stdout


def test_cli_parallelism_does_not_change_csv_bytes(tmp_path):
    cfg = _write_config(tmp_path, MATCHED_SMALL)
    out1 = tmp_path / "p1.csv"
    out4 = tmp_path / "p4.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out1),
                 "--parallelism", "1"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out4),
                 "--parallelism", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_cli_default_output_name_follows_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, MATCHED_SMALL, name="runme.cfg")
    assert main(["solve", "--config", str(cfg), "--max-iters", "1"]) == 0
    assert (tmp_path / "runme.csv").exists()


def test_cli_errors_exit_with_code_two(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.cfg"
    assert main(["solve", "--config", str(missing)]) == 2
    bad = _write_config(tmp_path, MINIMAL + "\nmystery = 1\n")
    assert main(["solve", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "mystery" in err
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(MINIMAL.replace("burgers", "b\xfcrgers")
                         .encode("latin-1"))
    good = _write_config(tmp_path, MINIMAL, name="good.cfg")
    # each is reported before the serial reference runs
    monkeypatch.setattr(harness, "solve_serial", None)
    for args in (["--config", str(tmp_path)], ["--config", str(not_utf8)],
                 ["--config", str(good),
                  "--out", str(tmp_path / "no" / "such.csv")]):
        assert main(["solve"] + args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_bad_model_parameter_exits_with_code_two(tmp_path, capsys):
    text = MINIMAL.replace("problem = burgers", "problem = shallow-water") \
        .replace("ic = sin-stationary", "ic = sw-scaled") + "gravity = -1\n"
    cfg = _write_config(tmp_path, text)
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == \
        "error: gravity must be positive, got -1.0\n"
    assert not (tmp_path / "out.csv").exists()


def _run_python(args, **env):
    """Run python with args, this checkout's package first on the path."""
    src = str(Path(selfcheck.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=60, cwd=REPO)


@pytest.mark.parametrize("module", ["mgritlab", "mgritlab.cli"])
def test_python_m_entry_points_run_cleanly(module):
    done = _run_python(["-m", module, "--help"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: mgritlab")


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 128 x 4097 states: past the size from which a threaded BLAS dot
    # product splits its sum differently with the thread count
    cfg = _write_config(tmp_path, MATCHED_SMALL.replace(
        "N_x = 64", "N_x = 128").replace("N_t = 128", "N_t = 4096"))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        done = _run_python(["-m", "mgritlab", "solve", "--config", str(cfg),
                            "--out", str(out)],
                           OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        residuals = [line for line in meta_path(out).read_text().splitlines()
                     if line.startswith("residuals = ")]
        outputs.append((out.read_bytes(), residuals))
    assert outputs[0] == outputs[1]


def test_benchmark_tracer_installs_on_the_package():
    # the benchmark's --trace 1 wraps package functions by name
    done = _run_python(["-c", "import sys; sys.path.insert(0, 'perfbench'); "
                              "import tracing; "
                              "tracing.install(tracing.Tracer())"])
    assert done.returncode == 0, done.stderr


def test_cli_sweep_on_plain_config_fails_cleanly(tmp_path, capsys):
    cfg = _write_config(tmp_path, MATCHED_SMALL)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "sweep" in capsys.readouterr().err


def _crash():
    raise RuntimeError("boom")


def test_cli_verify_passes_every_check(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "CHECKS", [("a", lambda: (True, "fine"))])
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == "PASS  a: fine\n"


def test_cli_verify_reports_failed_and_crashed_checks(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "CHECKS", [
        ("passes", lambda: (True, "fine")),
        ("fails", lambda: (False, "off by one")), ("raises", _crash)])
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS  passes: fine",
        "FAIL  fails: off by one",
        "FAIL  raises: raised RuntimeError: boom"]


@pytest.mark.parametrize("name,check", selfcheck.CHECKS,
                         ids=[name for name, _ in selfcheck.CHECKS])
def test_verify_check(name, check):
    ok, detail = check()
    assert ok, f"{name}: {detail}"


@pytest.fixture
def serial_calls(monkeypatch):
    """The serial reference solves started through the harness."""
    from mgritlab import harness
    calls, solve = [], harness.solve_serial

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_serial", spy)
    return calls


BAD_SWEEP_VALUE = MINIMAL + """
stepper = ssprk3
sweep = weno_order
sweep_values = 1, 4
"""


def test_bad_sweep_value_is_rejected_before_any_column_runs(
        tmp_path, capsys, serial_calls):
    with pytest.raises(ConfigError, match="reconstruction order 4"):
        run_sweep(parse_config(BAD_SWEEP_VALUE))
    cfg = _write_config(tmp_path, BAD_SWEEP_VALUE)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()
    assert serial_calls == []


@pytest.mark.parametrize("keys,overrides", [
    (dict(parallelism=0), {}),
    (dict(max_iters=-1), {}),
    (dict(divergence_threshold=-1.0), {}),
    ({}, dict(parallelism=0)),
    ({}, dict(max_iters=-1)),
])
def test_bad_run_controls_are_rejected_before_the_reference(
        keys, overrides, serial_calls):
    with pytest.raises(ConfigError):
        run_experiment(_config(**keys), **overrides)
    assert serial_calls == []


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("flag", ["--parallelism=0", "--max-iters=-1"])
def test_cli_bad_run_override_exits_two_before_the_reference(
        tmp_path, capsys, serial_calls, command, flag):
    text = MATCHED_SMALL
    if command == "sweep":
        text += "sweep = n_t\nsweep_values = 64, 128\n"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()
    assert serial_calls == []


# ----------------------------------------------------------------------
# checked-in experiment configs
# ----------------------------------------------------------------------

def test_all_checked_in_configs_parse():
    paths = sorted((REPO / "configs").glob("*.cfg"))
    assert len(paths) > 0
    for path in paths:
        config = load_config(path)
        assert config.max_iters >= 1
