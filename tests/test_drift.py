import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = Path(__file__).resolve().parent / "drift_trees"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("drift", ROOT / ".github" / "drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_verdict_on_the_fixture_trees(drift):
    # one file per verdict and per way of comparing: CSV columns by row, sweep
    # rows by value, key = value reports by key, exit codes and stderr as text
    verdicts = {str(rel): verdict for rel, verdict in drift.drift(TREES / "base", TREES / "head")}
    assert verdicts == {
        "check.stdout": "text changed",  # a word in a key = value report
        "gone.stdout": "only in BASE",
        "header.csv": "text changed",
        "new.stdout": "only in HEAD",
        "run/metrics.txt": "moved: largest abs 0.25 (final_ptil), largest rel 0.5 (final_ptil)",
        "run/ptil.svg": "identical",
        "run/timeseries.csv": "moved: largest abs 0.001 (q1, first row 3), "
                              "largest rel 0.333 (ptil, first row 2)",
        "run.exit": "text changed",
        "run.stderr": "text changed",  # the numbers in a message are text
        "sweep/sweep_metrics.csv": "moved: largest abs 0.125 (final_ptil, first row value=2), "
                                   "largest rel 0.5 (final_ptil, first row value=2)",
        "sweep/timeseries.csv": "equal within 1e-12 relative",  # 0.1 against its next float
    }


def test_main_counts_verdicts_and_exits_on_drift(drift, capsys):
    assert drift.main([str(TREES / "base"), str(TREES / "base")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "10 files: 10 identical"
    assert drift.main([str(TREES / "base"), str(TREES / "head")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "11 files: 4 text changed, 3 moved, 1 only in BASE, 1 only in HEAD, 1 identical, "
        "1 equal within 1e-12 relative")
    assert drift.main([str(TREES / "base")]) == 2
