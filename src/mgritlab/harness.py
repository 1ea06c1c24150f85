"""Experiment harness: config files in, convergence tables (CSV) out.

Config files are plain text, one `key = value` per line, `#` starts a
comment. The short spellings N_x, N_t, L, and T are accepted for n_x, n_t,
length, and horizon. Per-level values (reconstruction order, stepper kind)
are slash-separated lists ordered finest to coarsest; a single value applies
to every level. A config may name one swept key plus its comma-separated
values; each value produces one column of the output table.

The emitted CSV has header `iteration,<column names>`, one row per recorded
iteration (row 0 describes the initial iterate), `NaN` for entries at and
after a divergence, and LF line endings. Identical configs produce
byte-identical CSVs regardless of the parallelism degree. A `.meta` sidecar
next to each CSV records per-level step sizes, per-level CFL numbers,
wall-clock times, the finest-level residual history with its per-iteration
convergence factors, and the cause of a failed reference or of an MGRIT
divergence; wall times vary
between runs, which is why they live in the sidecar and not the CSV.

A column whose serial reference leaves the admissible set (a
PhysicalStateError) becomes a NaN column with the cause in its `failure`
field; its sibling columns still run.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, PhysicalStateError
from .flux import FluxConfig, SemiDiscreteOperator, WenoConfig
from .grid import SpatialGrid, TemporalGrid
from .mgrit import (DEFAULT_DIVERGENCE_THRESHOLD, ConvergenceRecord,
                    MgritOptions, mgrit_solve)
from .models import (DEFAULT_GAMMA, DEFAULT_GRAVITY, ConservationModel,
                     make_model)
from .serial import SerialRun, discretise_ic, solve_serial
from .stepper import (RK_ORDERS, ComposedStepper, MatchedLFCoarse,
                      MatchedLFFine, RungeKuttaStepper)
from .weno import DEFAULT_EPSILON

COARSE_KINDS = ("rediscretize", "matched-0", "matched-1", "exact")


# -- named initial conditions -------------------------------------------------

def _sin_stationary(x, length):
    return np.sin(2.0 * np.pi * x / length)[None, :]


def _sin_moving(x, length):
    return (0.5 * (1.0 + np.sin(2.0 * np.pi * x / length)))[None, :]


def _burgers_43(x, length):
    return ((4.0 / 3.0) * np.sin(2.0 * np.pi * x / length))[None, :]


def _sw_scaled(x, length):
    depth = (1.0 + 0.5 * np.sin(2.0 * np.pi * x / length)) / 11.0
    return np.stack([depth, np.zeros_like(x)])


def _euler_energy_sin(x, length):
    ones = np.ones_like(x)
    energy = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / length)
    return np.stack([ones, np.zeros_like(x), energy])


INITIAL_CONDITIONS = {
    "sin-stationary": ("burgers", _sin_stationary),
    "sin-moving": ("burgers", _sin_moving),
    "burgers-43": ("burgers", _burgers_43),
    "sw-scaled": ("shallow-water", _sw_scaled),
    "euler-energy-sin": ("euler", _euler_energy_sin),
}


def initial_state(name: str, space_grid: SpatialGrid,
                  length: float) -> np.ndarray:
    if name not in INITIAL_CONDITIONS:
        raise ConfigError(f"unknown initial condition '{name}', expected one "
                          f"of {sorted(INITIAL_CONDITIONS)}")
    _, profile = INITIAL_CONDITIONS[name]
    return discretise_ic(lambda x: profile(x, length), space_grid)


# -- configuration -------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    ic: str
    horizon: float
    n_x: int
    n_t: int
    n_levels: int
    length: float = 1.0
    m: int = 2
    cycle: str = "v"
    relaxation: str = "f"
    restriction_guess: str = "last-step"
    max_iters: int = 10
    flux: str = "lf"
    weno_order: tuple = (1,)
    stepper: tuple = ("fe",)
    coarse: str = "rediscretize"
    characteristic: bool = True
    epsilon: float = DEFAULT_EPSILON
    gamma: float = DEFAULT_GAMMA
    gravity: float = DEFAULT_GRAVITY
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    parallelism: int = 1
    sweep: str | None = None
    sweep_values: tuple = ()


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: '{raw}'")
    return value


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: '{raw}'")


# short upper-case spellings accepted as synonyms in config files
_KEY_ALIASES = {"N_x": "n_x", "N_t": "n_t", "L": "length", "T": "horizon"}


def _field_parser(field: dataclasses.Field):
    """The value parser of one config key, read off its field's annotation;
    a tuple is a per-level '/'-list of its default's element type."""
    if field.name == "sweep":
        return lambda raw: _KEY_ALIASES.get(raw, raw)
    if field.name == "sweep_values":
        return lambda raw: tuple(part.strip() for part in raw.split(","))
    if field.type == "tuple":
        element = field.default[0]
        parse = str.strip if isinstance(element, str) else type(element)
        return lambda raw: tuple(parse(part) for part in raw.split("/"))
    return {"bool": _parse_bool, "int": int, "float": _parse_finite,
            "str": str}[field.type]


_KEY_PARSERS = {field.name: _field_parser(field)
                for field in dataclasses.fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; errors name the offending line and key."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, raw = line.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        raw = raw.strip()
        if key not in _KEY_PARSERS:
            raise ParseError(f"unknown key '{key}'", line=lineno, key=key)
        if key in values:
            raise ParseError(f"duplicate key '{key}'", line=lineno, key=key)
        if not raw:
            raise ParseError("empty value", line=lineno, key=key)
        try:
            values[key] = _KEY_PARSERS[key](raw)
        except ValueError as exc:
            raise ParseError(f"bad value '{raw}': {exc}", line=lineno,
                             key=key) from None
    for field in dataclasses.fields(ExperimentConfig):
        if field.default is dataclasses.MISSING and field.name not in values:
            raise ParseError(f"missing required key '{field.name}'",
                             key=field.name)
    if ("sweep" in values) != ("sweep_values" in values):
        raise ParseError("sweep and sweep_values must appear together",
                         key="sweep")
    config = ExperimentConfig(**values)
    validate_config(config)
    return config


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


_SWEEPABLE = ("n_x", "n_t", "n_levels", "m", "cycle", "relaxation",
              "restriction_guess", "flux", "weno_order", "stepper", "coarse",
              "characteristic", "epsilon", "gamma", "gravity", "max_iters",
              "grid")


def apply_sweep_value(config: ExperimentConfig, key: str,
                      raw: str) -> ExperimentConfig:
    """The config with one swept key replaced by a parsed raw value.

    Only the value's syntax is checked here; validate_config or a run
    checks the resulting config."""
    if key == "grid":
        # compound mesh key: "<n_x>x<n_t>"
        try:
            nx_raw, nt_raw = raw.lower().split("x")
            return dataclasses.replace(config, n_x=int(nx_raw),
                                       n_t=int(nt_raw))
        except ValueError:
            raise ConfigError(f"bad grid value '{raw}', expected "
                              f"'<n_x>x<n_t>'") from None
    try:
        return dataclasses.replace(config, **{key: _KEY_PARSERS[key](raw)})
    except ValueError as exc:
        raise ConfigError(f"bad sweep value '{raw}' for '{key}': {exc}") \
            from None


def validate_config(config: ExperimentConfig) -> None:
    """Check a config by building every object a run of it builds."""
    _setup(config)


def _check_cross_field_rules(config: ExperimentConfig) -> None:
    """The rules that no object built from the config owns."""
    ic_model, _ = INITIAL_CONDITIONS[config.ic]
    if ic_model != config.problem:
        raise ConfigError(f"initial condition '{config.ic}' belongs to model "
                          f"'{ic_model}', not '{config.problem}'")
    span = config.m ** (config.n_levels - 1)
    if config.n_t % span != 0:
        raise ConfigError(
            f"N_t = {config.n_t} is not divisible by m^(levels-1) = {span}")
    if config.coarse not in COARSE_KINDS:
        raise ConfigError(f"unknown coarse operator '{config.coarse}', "
                          f"expected one of {COARSE_KINDS}")
    if config.sweep is not None and config.sweep not in _SWEEPABLE:
        raise ConfigError(f"key '{config.sweep}' is not sweepable; "
                          f"choose from {_SWEEPABLE}")
    for name in ("weno_order", "stepper"):
        if len(getattr(config, name)) not in (1, config.n_levels):
            raise ConfigError(
                f"{name} lists one value or one per level "
                f"({config.n_levels}), got {len(getattr(config, name))}")
    kinds = config.stepper
    if "matched-lf" in kinds:
        if len(kinds) != 1:
            raise ConfigError("matched-lf cannot be mixed with per-level "
                              "stepper kinds")
    else:
        for kind in kinds:
            if kind not in RK_ORDERS:
                raise ConfigError(f"unknown stepper '{kind}', expected "
                                  f"matched-lf or one of {tuple(RK_ORDERS)}")
        if config.coarse in ("matched-0", "matched-1"):
            raise ConfigError("matched coarse operators require "
                              "stepper = matched-lf")
    if config.coarse == "exact":
        if len(config.weno_order) != 1 or len(kinds) != 1:
            raise ConfigError("coarse = exact composes the fine stepper, so "
                              "weno_order and stepper must be single values")


# -- building and running experiments -----------------------------------------

def _expand(per_level: tuple, n_levels: int) -> tuple:
    return per_level * n_levels if len(per_level) == 1 else per_level


def build_steppers(config: ExperimentConfig, model, space_grid: SpatialGrid,
                   time_grid: TemporalGrid) -> list:
    """One propagator per level, finest first."""
    dt0 = time_grid.dt
    # built, and so checked, even where the matched steppers ignore them
    fluxes = [FluxConfig(kind=config.flux,
                         weno=WenoConfig(order=order, epsilon=config.epsilon,
                                         characteristic=config.characteristic))
              for order in _expand(config.weno_order, config.n_levels)]
    steppers = []
    if config.stepper == ("matched-lf",):
        fine = MatchedLFFine(model, space_grid, dt0)
        steppers.append(fine)
        for l in range(1, config.n_levels):
            m_eff = config.m ** l
            if config.coarse == "exact":
                steppers.append(ComposedStepper(fine, m_eff))
            elif config.coarse == "rediscretize":
                steppers.append(MatchedLFFine(model, space_grid, dt0 * m_eff))
            else:
                order = 0 if config.coarse == "matched-0" else 1
                steppers.append(MatchedLFCoarse(model, space_grid, dt0,
                                                m_eff, order))
        return steppers
    kinds = _expand(config.stepper, config.n_levels)
    for l in range(config.n_levels):
        if l > 0 and config.coarse == "exact":
            steppers.append(ComposedStepper(steppers[0], config.m ** l))
            continue
        op = SemiDiscreteOperator(model, space_grid, fluxes[l])
        steppers.append(RungeKuttaStepper(op.rhs, dt0 * config.m ** l,
                                          RK_ORDERS[kinds[l]]))
    return steppers


@dataclass(frozen=True)
class _Setup:
    """Everything one run of a config builds before its first time step."""

    config: ExperimentConfig
    model: ConservationModel
    space_grid: SpatialGrid
    time_grid: TemporalGrid
    state0: np.ndarray
    steppers: list  # finest level first
    options: MgritOptions


def _setup(config: ExperimentConfig, *, parallelism: int | None = None,
           max_iters: int | None = None) -> _Setup:
    """Build a run's objects, overrides applied; each constructor checks
    the keys it takes, and _check_cross_field_rules the rest."""
    model = make_model(config.problem, gravity=config.gravity,
                       gamma=config.gamma)
    options = MgritOptions(
        n_levels=config.n_levels, m=config.m, cycle=config.cycle,
        relaxation=config.relaxation, guess=config.restriction_guess,
        max_iters=config.max_iters if max_iters is None else max_iters,
        divergence_threshold=config.divergence_threshold,
        parallelism=config.parallelism if parallelism is None
        else parallelism)
    space_grid = SpatialGrid(config.length, config.n_x)
    time_grid = TemporalGrid(config.horizon, config.n_t)
    state0 = initial_state(config.ic, space_grid, config.length)
    _check_cross_field_rules(config)
    steppers = build_steppers(config, model, space_grid, time_grid)
    return _Setup(config, model, space_grid, time_grid, state0, steppers,
                  options)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    record: ConvergenceRecord
    serial: SerialRun | None  # None when the reference failed
    level_dts: tuple
    level_cfls: tuple
    wall_seconds: float
    failure: str | None = None  # "reference: <message>" for a failed column


def run_experiment(config: ExperimentConfig, *, parallelism: int | None = None,
                   max_iters: int | None = None) -> ExperimentResult:
    """Serial reference plus one full MGRIT solve for a single config."""
    setup = _setup(config, parallelism=parallelism, max_iters=max_iters)
    if config.sweep is not None:
        raise ConfigError("config declares a sweep; use run_sweep")
    return _run_single(setup)


def _run_single(setup: _Setup) -> ExperimentResult:
    start = time.perf_counter()
    config, space_grid = setup.config, setup.space_grid
    dts = tuple(setup.time_grid.dt * config.m ** l
                for l in range(config.n_levels))
    try:
        serial = solve_serial(setup.steppers[0], setup.state0,
                              setup.time_grid, space_grid, setup.model)
    except PhysicalStateError as exc:
        nan_rows = np.full(setup.options.max_iters + 1, np.nan)
        record = ConvergenceRecord(errors=nan_rows, residuals=nan_rows.copy())
        return ExperimentResult(
            config=config, record=record, serial=None, level_dts=dts,
            level_cfls=(np.nan,) * len(dts),
            wall_seconds=time.perf_counter() - start,
            failure=f"reference: {exc}")
    _, record = mgrit_solve(setup.steppers, setup.state0, setup.time_grid,
                            space_grid, setup.options,
                            reference=serial.trajectory.values)
    cfls = tuple(serial.max_speed * dt / space_grid.dx for dt in dts)
    wall = time.perf_counter() - start
    return ExperimentResult(config=config, record=record, serial=serial,
                            level_dts=dts, level_cfls=cfls, wall_seconds=wall)


@dataclass
class ConvergenceTable:
    """Column-per-run table of relative errors, row index = iteration."""

    columns: list
    data: np.ndarray  # (n_rows, n_columns)


@dataclass
class SweepResult:
    table: ConvergenceTable
    runs: list  # ExperimentResult per column


def run_sweep(config: ExperimentConfig, *, parallelism: int | None = None,
              max_iters: int | None = None) -> SweepResult:
    """One run per sweep value. Every column is built, and so checked,
    before the first one runs; a failed column never aborts its siblings."""
    _setup(config, parallelism=parallelism, max_iters=max_iters)
    if config.sweep is None:
        raise ConfigError("config declares no sweep; use run_experiment")
    base = dataclasses.replace(config, sweep=None, sweep_values=())
    names = [f"{config.sweep}={raw}" for raw in config.sweep_values]
    setups = [_setup(apply_sweep_value(base, config.sweep, raw),
                     parallelism=parallelism, max_iters=max_iters)
              for raw in config.sweep_values]
    results = [_run_single(setup) for setup in setups]
    table = assemble_table(names, [r.record for r in results])
    return SweepResult(table=table, runs=results)


def assemble_table(names: list, records: list) -> ConvergenceTable:
    """Stack error histories column-wise, padding short ones with NaN."""
    n_rows = max((len(r.errors) for r in records), default=0)
    data = np.full((n_rows, len(records)), np.nan)
    for col, rec in enumerate(records):
        data[:len(rec.errors), col] = rec.errors
    return ConvergenceTable(columns=list(names), data=data)


def experiment_table(result: ExperimentResult) -> ConvergenceTable:
    return assemble_table(["error"], [result.record])


# -- output files ---------------------------------------------------------------

def format_value(value: float) -> str:
    """Shortest round-trip decimal, NaN spelled out for diverged entries."""
    if np.isnan(value):
        return "NaN"
    return repr(float(value))


def emit_csv(table: ConvergenceTable, path) -> None:
    """Write the table with header `iteration,<cols>` and LF endings."""
    lines = ["iteration," + ",".join(str(c) for c in table.columns)]
    for i, row in enumerate(table.data):
        lines.append(f"{i}," + ",".join(format_value(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode()
    Path(path).write_bytes(payload)


def meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def write_meta(csv_path, names: list, runs: list) -> None:
    """Sidecar with per-level step sizes, CFL numbers, wall times, residual
    histories and failure causes, one section per column."""
    lines = []
    total_wall = 0.0
    for name, result in zip(names, runs):
        lines.append(f"[{name}]")
        cfg = result.config
        lines.append(f"problem = {cfg.problem}")
        lines.append(f"ic = {cfg.ic}")
        lines.append(f"n_x = {cfg.n_x}")
        lines.append(f"n_t = {cfg.n_t}")
        lines.append(f"n_levels = {cfg.n_levels}")
        lines.append("level_dt = " + ", ".join(repr(v) for v in result.level_dts))
        lines.append("level_cfl = "
                      + ", ".join(f"{v:.6g}" for v in result.level_cfls))
        serial_wall = (np.nan if result.serial is None
                       else result.serial.wall_seconds)
        lines.append(f"serial_wall_seconds = {serial_wall:.3f}")
        lines.append(f"wall_seconds = {result.wall_seconds:.3f}")
        rec = result.record
        lines.append(f"diverged = {str(rec.diverged).lower()}")
        if rec.diverged_at is not None:
            lines.append(f"diverged_at = {rec.diverged_at}")
        if result.failure is not None:
            lines.append(f"failure = {result.failure}")
        elif rec.divergence_cause is not None:
            lines.append(f"failure = mgrit: {rec.divergence_cause} "
                         f"at iteration {rec.diverged_at}")
        lines.append("residuals = "
                     + ", ".join(format_value(v) for v in rec.residuals))
        lines.append("residual_factors = "
                     + ", ".join(format_value(v)
                                 for v in rec.residual_factors))
        lines.append("")
        total_wall += result.wall_seconds
    lines.append(f"total_wall_seconds = {total_wall:.3f}")
    Path(meta_path(csv_path)).write_text("\n".join(lines) + "\n")
