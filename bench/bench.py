"""End-to-end and per-layer benchmark of the momobs command line.

Run from the repository root:

    python3 bench/bench.py --workload crane_prop1_run --seed 1 --seconds 30 --trace 0

Each operation is one `momobs run` or `momobs sweep`, called in this process
through `momobs.cli.main` on a config generated from the seed.  Operations
repeat, closed loop (one at a time), until --seconds have passed, and every
one goes through the correctness gate (exit code, convergence, Lyapunov
violations, r >= 1, final errors against reference.json, bit-identical
repeats).

End-to-end metrics (--trace 0), medians over the run:
  setup_s      load_config + build_scenario + Scenario.build_observer
  wall_s       one whole CLI operation, artifact writing included
  steps_per_s  RK4 steps over the time spent inside integrate_scenario
  pass_ratio   operations that passed the gate over those attempted
  peak_rss_mb  peak resident memory of this process
Times are divided by the host slowdown measured between operations (see
slowdown()), so they read as seconds at the host speed where one pass of the
calibration kernel takes CAL_NOMINAL_S.

With --trace 1 the first half of the run is untraced and the second traced
by spans.py; the per-layer metrics come from the traced half, and
trace_overhead is the untraced steps_per_s over the traced one.

The last line of standard output is one JSON object with the verdict and
the metrics.  The lines before it print every metric by name with its unit,
the failures, the fail ratio and the environment.
"""

from __future__ import annotations

import os

# One BLAS thread: the models are 3x3, and threads would only add noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
REFERENCE_FILE = BENCH_DIR / "reference.json"
LAYER_MAP_FILE = BENCH_DIR / "layers.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("crane_prop1_run", "crane_prop2_sweep", "cholesky_prop2_run")

# Seeded inputs.  Each is drawn from a small grid so that reference.json can
# hold the expected result of every combination, and none changes the work
# done per integration step: the offsets only move the start of the run, and
# psi5_extra only adds to a copy gain that is about 720 on the crane, far from
# the RK4 stability limit.
DQ3 = (-0.1, -0.05, 0.0, 0.05, 0.1)  # cable angle offset, rad
DMOM1 = (-0.2, -0.1, 0.0, 0.1, 0.2)  # gantry momentum offset
PSI5_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SWEEP_COUNT = 4

# Simulated lengths.  Timed operations are short (a fraction of a second) so
# that a run holds dozens of them and host-speed drift can be measured between
# them.  prop1 converges by t = 8 s, so each prop1 run ends with one untimed
# operation of 10 s that must converge; the timed runs are too short for that,
# which reference.json records.
PROP1_T_FINAL = 1.0
PROP1_CONVERGE_T_FINAL = 10.0
SWEEP_T_FINAL = 0.25
CHOLESKY_DT = 2.5e-4
CHOLESKY_T_FINAL = 0.0025
CHOLESKY_STRIDE = 2
# The divergence probe: the shipped prop2 run on the Cholesky factor at
# dt = 2 ms.  It blows up within a few steps; the short horizon only bounds
# its cost once divergence is handled.
PROBE_DT = 2e-3
PROBE_T_FINAL = 0.2

# Host speed on a shared machine drifts by tens of percent over seconds, and
# the operations slow down with it.  A fixed kernel that does not touch
# momobs is timed between operations, and timings are rescaled to the speed
# at which one kernel pass takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.025
# Final errors must match reference.json to this tolerance.
REL_TOL = 1e-6
ABS_TOL = 1e-9
EXIT_DIVERGED = 3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import momobs from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "momobs" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no momobs sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))
    import momobs

    if Path(momobs.__file__).resolve().parent != (src / "momobs").resolve():
        fail(f"imported momobs from {momobs.__file__}, not from {src}")
    return momobs


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the gate expects of it."""

    command: str  # "run" or "sweep"
    config: Path
    key: str  # reference key; sweep values are appended per value
    observer: str
    sweep_values: tuple = ()
    expect_exit: int = 0
    timed: bool = True  # counts towards the timing metrics and is traced
    probe: bool = False  # the divergence probe: only its exit code is checked

    def argv(self, outdir: Path):
        args = [self.command, str(self.config), "-o", str(outdir)]
        if self.command == "sweep":
            args += ["--param", "psi5_extra", "--values", ",".join(f"{v:g}" for v in self.sweep_values)]
        return args


@dataclass
class Workload:
    setup_config: Path
    round_ops: tuple  # repeated until the time is spent
    final_ops: tuple = ()  # run once at the end


def _write_config(cfg, path: Path) -> Path:
    from momobs.config import dump_config

    path.write_text(dump_config(cfg))
    return path


def _shipped(name: str):
    from momobs.config import load_config

    return load_config(ROOT / "configs" / name)


def _offset(cfg, dq3: float, dmom1: float):
    cfg.q0 = [cfg.q0[0], cfg.q0[1], cfg.q0[2] + dq3]
    cfg.mom0 = [cfg.mom0[0] + dmom1, cfg.mom0[1], cfg.mom0[2]]
    return cfg


def make_workload(name: str, dq3: float, dmom1: float, sweep_values, workdir: Path) -> Workload:
    """Generate the configs of one workload variant into workdir."""

    def variant(shipped, t_final, filename, **changes):
        cfg = _offset(_shipped(shipped), dq3, dmom1)
        cfg.t_final = t_final
        for attr, value in changes.items():
            setattr(cfg, attr, value)
        key = f"{name}|t={t_final:g}|dq3={dq3:g}|dmom1={dmom1:g}"
        return _write_config(cfg, workdir / filename), key

    if name == "crane_prop1_run":
        path, key = variant("spider_crane_prop1.cfg", PROP1_T_FINAL, "prop1.cfg")
        long_path, long_key = variant("spider_crane_prop1.cfg", PROP1_CONVERGE_T_FINAL, "prop1_long.cfg")
        return Workload(path, (Op("run", path, key, "prop1"),),
                        (Op("run", long_path, long_key, "prop1", timed=False),))
    if name == "crane_prop2_sweep":
        path, key = variant("spider_crane_prop2.cfg", SWEEP_T_FINAL, "prop2.cfg")
        return Workload(path, (Op("sweep", path, key, "prop2", tuple(sweep_values)),))
    if name == "cholesky_prop2_run":
        path, key = variant("spider_crane_prop2.cfg", CHOLESKY_T_FINAL, "cholesky.cfg",
                            model_name="spider-crane-cholesky", dt=CHOLESKY_DT, stride=CHOLESKY_STRIDE)
        probe = _shipped("spider_crane_prop2.cfg")
        probe.model_name = "spider-crane-cholesky"
        probe.dt, probe.t_final = PROBE_DT, PROBE_T_FINAL
        probe_path = _write_config(probe, workdir / "cholesky_probe.cfg")
        return Workload(path, (
            Op("run", path, key, "prop2"),
            Op("run", probe_path, "probe", "prop2", expect_exit=EXIT_DIVERGED, timed=False, probe=True),
        ))
    raise ValueError(f"unknown workload {name!r}")


def draw_inputs(seed: int):
    """(dq3, dmom1, sweep values) for a seed; the same seed gives the same inputs."""
    rng = random.Random(seed)
    return rng.choice(DQ3), rng.choice(DMOM1), tuple(rng.sample(PSI5_GRID, SWEEP_COUNT))


# -- correctness gate ----------------------------------------------------------


def _read_flat(path: Path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


def _summary(row) -> dict:
    rutil = float(row["final_rutil"])
    return {
        "converged": row["converged"] in ("true", "1"),
        "final_ptil": float(row["final_ptil"]),
        "final_dtil": float(row["final_dtil"]),
        "final_rutil": None if math.isnan(rutil) else rutil,
        "lyap_violations": int(row["lyap_violations"]),
    }


def _drift(got: dict, ref: dict):
    """Reason the summary disagrees with its reference, or None."""
    if got["converged"] != ref["converged"]:
        return f"converged = {got['converged']}, reference {ref['converged']}"
    for name in ("final_ptil", "final_dtil", "final_rutil"):
        a, b = got[name], ref[name]
        if (a is None) != (b is None):
            return f"{name} = {a}, reference {b}"
        if a is not None and not abs(a - b) <= ABS_TOL + REL_TOL * abs(b):
            return f"{name} = {a!r} drifts from reference {b!r}"
    return None


class Gate:
    """Checks each operation's artifacts; remembers CSV digests across repeats."""

    def __init__(self, reference):
        self.reference = reference  # None while recording
        self.recorded = {}
        self.digests = {}

    def check(self, op: Op, outdir: Path):
        """Reason the operation's outputs are wrong, or None."""
        if op.command == "sweep":
            rows = _read_csv(outdir / "sweep_metrics.csv")
            if [float(r["value"]) for r in rows] != list(op.sweep_values):
                return "sweep_metrics.csv does not list the swept values in order"
            cases = [(f"{op.key}|psi5_extra={float(r['value']):g}", _summary(r),
                      outdir / f"psi5_extra_{float(r['value']):g}_timeseries.csv") for r in rows]
        else:
            cases = [(op.key, _summary(_read_flat(outdir / "metrics.txt")), outdir / "timeseries.csv")]
        for key, got, series in cases:
            reason = self._check_case(op, key, got, series)
            if reason:
                return f"{key}: {reason}"
        return None

    def _check_case(self, op, key, got, series: Path):
        if op.observer == "prop1" and got["lyap_violations"] != 0:
            return f"lyap_violations = {got['lyap_violations']}"
        if op.observer == "prop2":
            r_min = min(float(row["r"]) for row in _read_csv(series))
            if not r_min >= 1.0:
                return f"scaling factor fell to r = {r_min!r}"
        digest = hashlib.sha256(series.read_bytes()).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return "timeseries.csv differs from an earlier repeat of the same run"
        if self.reference is None:
            self.recorded[key] = {k: got[k] for k in ("converged", "final_ptil", "final_dtil", "final_rutil")}
            return None
        if key not in self.reference:
            return "no reference values for this input"
        return _drift(got, self.reference[key])


# -- machine speed -------------------------------------------------------------


def _calibration_kernel(steps: int = 1500) -> float:
    """Small-matrix work in the style of the observers' right-hand sides; never changes."""
    import numpy as np

    a = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]])
    x = np.array([0.1, 0.2, 0.3])
    acc = 0.0
    for k in range(steps):
        s, c = np.sin(x[2]), np.cos(x[2])
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        y = rot.T @ (a @ x)
        x = x + 1e-3 * (np.concatenate([y[:2], [y[2] - s]]) - 0.5 * x)
        if k % 2 == 0:
            m = rot @ a @ rot.T
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += float(np.linalg.cholesky(m)[2, 2] + np.linalg.solve(m, x)[0])
    return acc


def slowdown() -> float:
    """Kernel time over its nominal time: above 1 when the host runs slow."""
    start = perf_counter()
    _calibration_kernel()
    return (perf_counter() - start) / CAL_NOMINAL_S


# -- operations ----------------------------------------------------------------


class IntegrateTimer:
    """Sums time and RK4 steps spent inside integrate_scenario."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0
        self.steps = 0

    def __call__(self, sc):
        start = perf_counter()
        try:
            return self.fn(sc)
        finally:
            self.seconds += perf_counter() - start
            self.steps += int(round(sc.t_final / sc.dt))


@dataclass
class OpResult:
    op: Op
    ok: bool
    reason: str
    wall_s: float
    integrate_s: float
    steps: int
    slowdown: float = 1.0  # host slowdown measured around the operation


def run_op(cli, op: Op, outdir: Path, timer: IntegrateTimer, gate: Gate) -> OpResult:
    outdir.mkdir(parents=True)
    timer.seconds, timer.steps = 0.0, 0
    captured = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(op.argv(outdir))
        error = ""
    except SystemExit as exc:
        code, error = exc.code, ""
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    if error:
        reason = error
    elif code != op.expect_exit:
        last = captured.getvalue().strip().splitlines()[-1:] or [""]
        reason = f"exit {code}, expected {op.expect_exit}: {last[0]}"
    elif not op.probe:
        try:
            reason = gate.check(op, outdir) or ""
        except (OSError, KeyError, ValueError, IndexError) as exc:
            reason = f"unreadable artifacts: {type(exc).__name__}: {exc}"
    else:
        reason = ""
    shutil.rmtree(outdir)
    return OpResult(op, not reason, reason, wall, timer.seconds, timer.steps)


class Runner:
    """Runs operations, timing the host's speed between consecutive ones."""

    def __init__(self, cli, workdir: Path, timer: IntegrateTimer, gate: Gate, setup_config: Path):
        self.cli, self.workdir, self.timer, self.gate = cli, workdir, timer, gate
        self.setup_config = setup_config
        self.tracer = None  # traces the timed operations once set
        self.results = []
        self.setup_times = []
        self._speed = None

    def run(self, op: Op) -> OpResult:
        if self._speed is None:
            self._speed = slowdown()
        if self.tracer is not None:
            self.tracer.enabled = op.timed
        try:
            result = run_op(self.cli, op, self.workdir / f"op{len(self.results)}", self.timer, self.gate)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        after = slowdown()
        result.slowdown = 0.5 * (self._speed + after)
        self._speed = after
        self.results.append(result)
        return result

    def rounds(self, ops, seconds: float, min_rounds: int):
        """Repeat a round of operations until `seconds` have passed; returns their results."""
        first = len(self.results)
        start = perf_counter()
        done = 0
        while done < min_rounds or perf_counter() - start < seconds:
            for op in ops:
                self.run(op)
            self.setup_times.append(time_setup(self.setup_config) / self._speed)
            done += 1
        return self.results[first:]


def time_setup(config: Path) -> float:
    """Seconds for load_config, build_scenario and Scenario.build_observer."""
    from momobs.config import build_scenario, load_config

    start = perf_counter()
    build_scenario(load_config(config)).build_observer()
    return perf_counter() - start


# -- metrics -------------------------------------------------------------------


def _median_rate(results):
    rates = [r.steps / r.integrate_s * r.slowdown for r in results if r.integrate_s > 0]
    return statistics.median(rates) if rates else 0.0


def end_to_end(results, setup_times):
    passed = [r for r in results if r.op.timed and r.ok]
    failed = sum(not r.ok for r in results)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s / r.slowdown for r in passed) if passed else 0.0,
        "steps_per_s": _median_rate(passed),
        "pass_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup_times), "wall_s": len(passed), "steps_per_s": len(passed),
              "pass_ratio": len(results), "peak_rss_mb": 1}
    return values, counts


def per_layer(tracer, traced_ops: int, overhead: float):
    values = {}
    for name, (calls, incl, self_s) in tracer.totals().items():
        values[f"{name}.calls"] = calls / traced_ops
        values[f"{name}.us_per_call"] = 1e6 * incl / calls if calls else 0.0
        values[f"{name}.self_s"] = self_s / traced_ops
    values["trace_overhead"] = overhead
    return values


def environment(args, inputs):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {"dq3": inputs[0], "dmom1": inputs[1], "psi5_extra": list(inputs[2])},
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="momobs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import momobs.cli as cli
    import spans

    spec = json.loads(SPEC_FILE.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads(REFERENCE_FILE.read_text())["cases"]
    layer_map = json.loads(LAYER_MAP_FILE.read_text())
    inputs = draw_inputs(args.seed)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    patches = spans.Patches()
    try:
        workload = make_workload(args.workload, *inputs, workdir)
        timer = IntegrateTimer(cli.integrate_scenario)
        patches.set(cli, "integrate_scenario", timer)
        runner = Runner(cli, workdir, timer, Gate(reference), workload.setup_config)
        if args.trace:
            # Untraced and traced halves: their steps_per_s ratio is the overhead.
            plain = runner.rounds(workload.round_ops, args.seconds / 2, 1)
            tracer = runner.tracer = spans.Tracer()
            spans.install(tracer, patches)
            traced = runner.rounds(workload.round_ops, args.seconds / 2, 1)
            runner.tracer = None
            plain_rate = _median_rate([r for r in plain if r.op.timed and r.ok])
            traced_rate = _median_rate([r for r in traced if r.op.timed and r.ok])
            overhead = plain_rate / traced_rate if traced_rate else 0.0
            traced_ops = sum(r.op.timed for r in traced)
            metrics = per_layer(tracer, traced_ops, overhead)
            counts = {name: traced_ops for name in metrics}
        else:
            runner.rounds(workload.round_ops, args.seconds, 2)
        for op in workload.final_ops:
            runner.run(op)
        results = runner.results
        if not args.trace:
            metrics, counts = end_to_end(results, runner.setup_times)
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        fail(f"measured metrics differ from {SPEC_FILE.name}: {sorted(set(metrics) ^ set(units))}")
    failed = [r for r in results if not r.ok]
    correct = all(r.ok for r in results if not r.op.probe)
    print("# env " + json.dumps(environment(args, inputs), sort_keys=True))
    reasons = Counter(("divergence probe" if r.op.probe else "operation", r.op.config.name, r.reason)
                      for r in failed)
    for (kind, config, reason), times in reasons.items():
        print(f"# failed {times}x {kind} {config}: {reason}")
    print(f"# fail_ratio = {len(failed) / len(results):.6g} ({len(failed)} of {len(results)} operations)")
    print(f"# host slowdown = {statistics.median(r.slowdown for r in results):.4g} "
          f"(median calibration kernel time over {CAL_NOMINAL_S} s; timings are divided by it)")
    for name, value in metrics.items():
        line = f"# {name} = {value!r} {units[name]}"
        if args.trace:
            line += f" ({counts[name]} traced ops)"
            if name in layer_map:
                m = layer_map[name]
                line += f"; moves {m['moves']} on {', '.join(m['on'])}: {m['expect']}"
        else:
            line += f" (n = {counts[name]})"
        print(line)
    if args.trace:
        for (name, parent), (calls, incl, self_s) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
            print(f"# span {name} <- {parent}: calls={calls} incl_s={incl:.6f} self_s={self_s:.6f}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
