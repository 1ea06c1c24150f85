"""Parallel-in-time workbench for 1D non-linear conservation laws.

Finite-volume discretisations (WENO reconstruction, Lax-Friedrichs and Roe
fluxes, SSP Runge-Kutta steppers) solved either sequentially or by
multigrid-reduction-in-time iteration, with coarse-level operators that
either rediscretise or match the fine integrator, plus an experiment
harness that writes convergence tables as CSV.
"""

from .errors import (ConfigError, DimensionError, ParseError,
                     PhysicalStateError)
from .flux import (FluxConfig, SemiDiscreteOperator, WenoConfig, lf_alpha,
                   lf_flux, roe_flux)
from .grid import (SpatialGrid, TemporalGrid, Trajectory,
                   rel_l2_spacetime_error)
from .harness import (INITIAL_CONDITIONS, ConvergenceTable, ExperimentConfig,
                      ExperimentResult, SweepResult, apply_sweep_value,
                      assemble_table, emit_csv, experiment_table,
                      initial_state, load_config, meta_path, parse_config,
                      run_experiment, run_sweep, validate_config, write_meta)
from .mgrit import (ConvergenceRecord, MgritHierarchy, MgritOptions,
                    mgrit_solve)
from .models import (Burgers, ConservationModel, Euler, ShallowWater,
                     make_model)
from .serial import SerialRun, discretise_ic, solve_serial
from .stepper import (ComposedStepper, MatchedLFCoarse, MatchedLFFine,
                      RungeKuttaStepper, step_fe, step_ssprk2, step_ssprk3)
from .weno import (WenoTables, build_tables, nonlinear_weights,
                   reconstruct_interface_states, reconstruct_left,
                   reconstruct_pair)

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI is imported on first use of `mgritlab.main`, so that
    # `python -m mgritlab.cli` does not find it in sys.modules already.
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
