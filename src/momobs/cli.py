"""Command-line front end: run scenarios, check model structure, sweep gains.

Exit codes: 0 success, 1 structural check failed, 2 configuration error,
3 diverged run.  A run writes to the directory -o names, else to the
MOMOBS_OUTDIR environment variable's, else to the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_scenario, config_model, load_config, parse_vector
from .geometry import check_zrs, sample_positions
from .harness import Metrics, apply_sweep_value, compute_metrics, integrate_scenario, share_plant
from .model import ModelError
from .svgplot import write_line_svg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _resolve_outdir(arg_dir):
    out = Path(arg_dir or os.environ.get("MOMOBS_OUTDIR") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail_config(exc) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _write_artifacts(ts, outdir: Path, emit_svg: bool, prefix: str = ""):
    """Write the series and plots; returns its Metrics, or None for a plant-only run."""
    ts.to_csv(outdir / f"{prefix}timeseries.csv")
    metrics = None
    if ts.ptil_norm is not None:
        metrics = compute_metrics(ts)
        (outdir / f"{prefix}metrics.txt").write_text(metrics.to_text() + "\n")
    # a run that diverged within its first sample interval has no line to plot
    if emit_svg and ts.ptil_norm is not None and ts.t.size >= 2:
        write_line_svg(outdir / f"{prefix}ptil.svg", ts.t, ts.ptil_norm, "momenta error norm")
        write_line_svg(outdir / f"{prefix}dtil.svg", ts.t, ts.dtil_norm, "disturbance error norm")
        if ts.rutil_norm is not None:
            write_line_svg(outdir / f"{prefix}rutil.svg", ts.t, ts.rutil_norm,
                           "friction error norm")
    return metrics


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
        outdir = _resolve_outdir(args.output)  # last: a config error writes nothing
    except (ValueError, OSError) as exc:  # ConfigError, ModelError and StructureError included
        return _fail_config(exc)
    try:
        ts = integrate_scenario(scenario)
    except ModelError as exc:  # T^-1 refused on the way; its samples cannot be read out either
        print(f"run diverged: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_artifacts(ts, outdir, cfg.emit_svg)
    if ts.diverged:
        print(f"run diverged: {ts.message}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote {outdir / 'timeseries.csv'}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        cfg = load_config(args.config, require_sim=False)
        model = config_model(cfg)
    except (ValueError, OSError) as exc:
        return _fail_config(exc)
    report = check_zrs(model, sample_positions(model.n, count=100, seed=args.seed))
    print(report.to_text())
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        if cfg.observer_kind == "none":
            raise ConfigError(0, "sweep needs an observer to produce metrics")
        values = parse_vector(args.values, 0, "--values")
        tags = [f"{v:g}" for v in values]  # each value's files; two values must not share them
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                first = values[tags.index(tag)]
                raise ConfigError(0, f"--values: {first!r} and {values[i]!r} would both write "
                                     f"the files tagged {tag}")
        try:
            configs = [apply_sweep_value(cfg, args.param, v) for v in values]
        except ValueError as exc:
            raise ConfigError(0, f"--param: {exc}") from None
        # each swept Scenario builds and checks its observer here, before anything is written
        swept = [build_scenario(c) for c in configs]
        share_plant(swept)  # a gain sweep steps its runs in lockstep on one plant
        outdir = _resolve_outdir(args.output)
    except (ValueError, OSError) as exc:
        return _fail_config(exc)
    rows = []
    for value, sc in zip(values, swept):
        try:
            ts = integrate_scenario(sc)
        except ModelError as exc:  # as in cmd_run: no series for this value
            print(f"run at {args.param} = {value:g} diverged: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_DIVERGED
        tag = f"{args.param.replace('[', '_').replace(']', '')}_{value:g}_"
        metrics = _write_artifacts(ts, outdir, cfg.emit_svg, prefix=tag)
        if ts.diverged:
            print(f"run at {args.param} = {value:g} diverged: {ts.message}", file=sys.stderr)
            return EXIT_DIVERGED
        rows.append((value, metrics))
    with open(outdir / "sweep_metrics.csv", "w", newline="\n") as fh:
        fh.write(Metrics.sweep_csv(rows))
    print(f"wrote {outdir / 'sweep_metrics.csv'}")
    return EXIT_OK


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momobs",
        description="Adaptive momenta observers: simulate, check model structure, sweep gains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario and write CSV artifacts")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify the structural assumptions of a model")
    p_check.add_argument("config")
    p_check.add_argument("--seed", type=_seed, default=0)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="re-run a scenario over a list of parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("-o", "--output", default=None, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # a diverging run says so in one line; numpy's warnings on the way would repeat it
    with np.errstate(all="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
