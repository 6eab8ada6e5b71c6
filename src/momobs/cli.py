"""Command-line front end: run scenarios, check model structure, sweep gains.

Exit codes: 0 success, 1 structural check failed, 2 configuration error,
3 diverged run.  The default output directory comes from -o, then the
config's [output] section, then the MOMOBS_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path


from .adaptive import StructureError
from .config import ConfigError, build_model, build_scenario, load_config
from .geometry import check_zrs, sample_positions
from .harness import Metrics, apply_sweep_value, compute_metrics, integrate_scenario
from .model import ModelError
from .svgplot import write_line_svg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _resolve_outdir(arg_dir, cfg_dir):
    path = arg_dir or cfg_dir or os.environ.get("MOMOBS_OUTDIR") or "."
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail_config(exc) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _write_artifacts(ts, outdir: Path, emit_svg: bool, prefix: str = "") -> None:
    ts.to_csv(outdir / f"{prefix}timeseries.csv")
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


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
    except (ConfigError, ModelError, StructureError, ValueError, OSError) as exc:
        return _fail_config(exc)
    outdir = _resolve_outdir(args.output, cfg.directory)
    try:
        ts = integrate_scenario(scenario)
    except StructureError as exc:
        return _fail_config(exc)
    _write_artifacts(ts, outdir, cfg.emit_svg)
    if ts.diverged:
        print(f"run diverged: {ts.message}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote {outdir / 'timeseries.csv'}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        cfg = load_config(args.config, require_sim=False)
        model = build_model(cfg)
    except (ConfigError, ModelError, ValueError, OSError) as exc:
        return _fail_config(exc)
    report = check_zrs(model, sample_positions(model.n, count=100, seed=args.seed))
    print(report.to_text())
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
        if scenario.observer == "none":
            raise ConfigError(0, "sweep needs an observer to produce metrics")
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        if not values:
            raise ConfigError(0, "empty sweep value list")
        swept = [apply_sweep_value(scenario, args.param, v) for v in values]
    except (ConfigError, ModelError, StructureError, ValueError, OSError) as exc:
        return _fail_config(exc)
    outdir = _resolve_outdir(args.output, cfg.directory)
    rows = []
    for value, sc in zip(values, swept):
        try:
            ts = integrate_scenario(sc)
        except StructureError as exc:
            return _fail_config(exc)
        tag = f"{args.param.replace('[', '_').replace(']', '')}_{value:g}_"
        _write_artifacts(ts, outdir, cfg.emit_svg, prefix=tag)
        if ts.diverged:
            print(f"run at {args.param} = {value:g} diverged: {ts.message}", file=sys.stderr)
            return EXIT_DIVERGED
        m = compute_metrics(ts)
        rows.append((value, m))
    with open(outdir / "sweep_metrics.csv", "w", newline="\n") as fh:
        fh.write(",".join(["value"] + [f.name for f in dataclasses.fields(Metrics)]) + "\n")
        for value, m in rows:
            # floats with 17 significant digits, the flag and the count as integers
            cells = (f"{c:.17g}" if isinstance(c, float) else str(int(c))
                     for c in (value, *dataclasses.astuple(m)))
            fh.write(",".join(cells) + "\n")
    print(f"wrote {outdir / 'sweep_metrics.csv'}")
    return EXIT_OK


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
    p_check.add_argument("--seed", type=int, default=0)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
