"""Regenerate bench/reference.json: the expected result of every seeded input.

Run from the repository root, optionally naming workloads to refresh:

    python3 bench/record_reference.py [workload ...]

Each combination of the input grids in bench.py is run once through the same
operations the benchmark times, and its convergence flag and final errors are
stored.  Only re-record when a change is meant to alter those results, and
say so in the change.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

import bench


def record(cli, workload: str, workdir) -> dict:
    gate = bench.Gate(reference=None)
    timer = bench.IntegrateTimer(cli.integrate_scenario)
    for dq3, dmom1 in itertools.product(bench.DQ3, bench.DMOM1):
        spec = bench.make_workload(workload, dq3, dmom1, bench.PSI5_GRID, workdir)
        for op in spec.round_ops + spec.final_ops:
            if not op.probe:
                result = bench.run_op(cli, op, workdir / "op", timer, gate)
                if not result.ok:
                    raise SystemExit(f"{op.key}: {result.reason}")
    return gate.recorded


def main(argv) -> int:
    bench.import_package()
    import momobs.cli as cli

    workloads = argv or bench.WORKLOADS
    data = json.loads(bench.REFERENCE_FILE.read_text()) if bench.REFERENCE_FILE.exists() else {}
    cases = data.get("cases", {})
    workdir = bench.WORK_DIR / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in workloads:
            cases = {k: v for k, v in cases.items() if not k.startswith(workload + "|")}
            cases.update(record(cli, workload, workdir))
            print(f"recorded {workload}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = {
        "tolerance": {"rel": bench.REL_TOL, "abs": bench.ABS_TOL},
        "cases": dict(sorted(cases.items())),
    }
    bench.REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
