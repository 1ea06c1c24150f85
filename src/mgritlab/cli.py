"""Command-line entry points: solve, sweep, verify."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, PhysicalStateError
from .harness import (emit_csv, experiment_table, load_config, run_experiment,
                      run_sweep, write_meta)
from .selfcheck import run_verification


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True,
                        help="path to a key = value config file")
    parser.add_argument("--out", default=None,
                        help="output CSV path (default: config name .csv)")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="worker threads for chunk updates")
    parser.add_argument("--max-iters", type=int, default=None,
                        help="override the config's iteration count")


def _out_path(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(Path(args.config).stem + ".csv")


def _summarise(name: str, result) -> str:
    if result.failure is not None:
        return f"{name}: failed ({result.failure})"
    record = result.record
    if record.diverged:
        return f"{name}: diverged at iteration {record.diverged_at}"
    finite = record.errors[np.isfinite(record.errors)]
    if len(finite) == 0:
        return f"{name}: no recorded iterations"
    return (f"{name}: error {finite[0]:.3e} -> {finite[-1]:.3e} "
            f"over {len(record.errors) - 1} iterations")


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, parallelism=args.parallelism,
                            max_iters=args.max_iters)
    out = _out_path(args)
    emit_csv(experiment_table(result), out)
    write_meta(out, ["error"], [result])
    print(_summarise(out.name, result))
    return _failure_status([out.name], [result])


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config, parallelism=args.parallelism,
                       max_iters=args.max_iters)
    out = _out_path(args)
    emit_csv(result.table, out)
    write_meta(out, result.table.columns, result.runs)
    for name, run in zip(result.table.columns, result.runs):
        print(_summarise(name, run))
    print(f"wrote {out} ({len(result.table.columns)} columns)")
    return _failure_status(result.table.columns, result.runs)


def _failure_status(names, runs) -> int:
    """1, after one stderr line naming every failed column, or 0."""
    failed = [f"{name} ({run.failure})" for name, run in zip(names, runs)
              if run.failure is not None]
    if not failed:
        return 0
    print(f"error: failed column(s): {'; '.join(failed)}", file=sys.stderr)
    return 1


def _cmd_verify(_args) -> int:
    return 0 if run_verification() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgritlab",
        description="Parallel-in-time workbench for 1D conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one config, write its table")
    _add_run_arguments(solve)
    solve.set_defaults(handler=_cmd_solve)

    sweep = sub.add_parser("sweep", help="run a config's sweep, one column "
                                         "per value")
    _add_run_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the built-in check suite")
    verify.set_defaults(handler=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
