"""A seeded config fuzzer: one number of a config replaced by one extreme value.

Five base configs, cut to 20 steps of 1 ms without plots: the shipped prop1
and prop2 crane configs, prop2 on the Cholesky crane, a prop1 manipulator
config and a prop2 constant-inertia config.  A mutation replaces one number
of [model], [observer], [initial], [input] or [disturbance] with one of
VALUES ([sim] is left alone: a tiny dt only makes a long run) and calls
`momobs run` and `momobs check` in process.  Every [model] mutation runs;
the other sections run a seeded subset.  For each, main returns 0-3 without
raising or warning, says why in one stderr line when it refuses (2) or
diverges (3), and, for a [model] number, `check` does not pass (0) a model
that `run` refuses (2).  The defects it found are pinned as named rows.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
import warnings
from pathlib import Path

import pytest

from momobs.cli import main

CONFIGS = Path(__file__).parents[1] / "configs"
VALUES = ["0", "-0.0", "-1", "5e-324", "1e-320", "1e-200", "1e-12", "1e12", "1e200", "1e308",
          repr(sys.float_info.max), "nan", "inf", "-inf"]
FUZZED = ("model", "observer", "initial", "input", "disturbance")
SHORT = {"t_final": "0.02", "dt": "0.001", "stride": "5", "emit_svg": "false"}

MANIPULATOR = """
[model]
name = manipulator
I = 1
M = 1
m = 1
l = 1
friction = 0.3, 0.2, 0.1, 0.1
known = false, false, true, true

[observer]
kind = prop1
lambda = 0.8

[initial]
q = 0.2, -0.1, 0.3, 0.1
mom = 0, 0, 0, 0

[input]
u1 = 1.0, 1.0, 0.0, cos
u2 = 0.5, 2.0, 0.0, sin

[disturbance]
step1 = 0, 0.1, 0, 0, 0

[sim]
t_final = 2
dt = 0.001
stride = 50

[output]
emit_svg = false
"""

CONSTANT = """
[model]
name = constant
M = 1, 0; 0, 1
K = 1, 0; 0, 1
friction = 0, 0
known = true, true

[observer]
kind = prop2
psi3_const = 59

[initial]
q = 0, 0
mom = 0, 0
r = 1.5

[sim]
t_final = 0.5
dt = 0.1
stride = 1

[output]
emit_svg = false
"""


def short(text: str) -> str:
    """text run for 20 steps of 1 ms, without plots."""
    return re.sub(r"^(t_final|dt|stride|emit_svg) = .*$", lambda m: f"{m[1]} = {SHORT[m[1]]}",
                  text, flags=re.M)


PROP2 = (CONFIGS / "spider_crane_prop2.cfg").read_text()
BASES = {name: short(text) for name, text in [
    ("crane-prop1", (CONFIGS / "spider_crane_prop1.cfg").read_text()),
    ("crane-prop2", PROP2),
    ("cholesky-prop2", PROP2.replace("name = spider-crane", "name = spider-crane-cholesky")),
    ("manipulator", MANIPULATOR),
    ("constant", CONSTANT),
]}


def numbers(text: str):
    """(section, line index, start, end) of each number in the values of a fuzzed section."""
    found, section = [], None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif section in FUZZED and " = " in line:
            start = line.index(" = ") + 3
            for entry in re.finditer(r"[^,;\s]+", line[start:]):
                with contextlib.suppress(ValueError):
                    float(entry[0])
                    found.append((section, i, start + entry.start(), start + entry.end()))
    return found


def mutated(text: str, i: int, start: int, end: int, value: str):
    """text with that number replaced by value, and the line it is now."""
    lines = text.splitlines()
    lines[i] = lines[i][:start] + value + lines[i][end:]
    return "\n".join(lines) + "\n", lines[i]


def call(*argv):
    """main(argv)'s exit code (or the exception that escaped it), stderr and warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue(), [str(w.message) for w in caught]


def faults(tmp_path, text: str, model_number: bool):
    """What goes wrong when `run` and `check` read text; the exit codes and stderr."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text)
    results = {"run": call("run", str(cfg), "-o", str(tmp_path / "out")),
               "check": call("check", str(cfg))}
    found = []
    for command, (code, err, caught) in results.items():
        if code not in (0, 1, 2, 3):
            found.append(f"{command} raised {code}")
        if caught:
            found.append(f"{command} warned {caught}")
        if code in (2, 3) and len(err.splitlines()) != 1:
            found.append(f"{command} exit {code} with stderr {err!r}")
    if model_number and results["run"][0] == 2 and results["check"][0] == 0:
        found.append(f"check passes the model that run refuses: {results['run'][1]!r}")
    return found, results


@pytest.mark.parametrize("base", BASES)
def test_every_model_number(tmp_path, base):
    failed = []
    for section, *where in numbers(BASES[base]):
        if section == "model":
            for value in VALUES:
                text, line = mutated(BASES[base], *where, value)
                failed += [f"{line}: {fault}" for fault in faults(tmp_path, text, True)[0]]
    assert not failed, "\n".join(failed)


OTHERS = [(base, where, value) for base, text in BASES.items()
          for section, *where in numbers(text) if section != "model" for value in VALUES]


def test_seeded_other_numbers(tmp_path):
    failed = []
    for base, where, value in random.Random(33).sample(OTHERS, 80):
        text, line = mutated(BASES[base], *where, value)
        failed += [f"{base}, {line}: {fault}" for fault in faults(tmp_path, text, False)[0]]
    assert not failed, "\n".join(failed)


# the defects this fuzzer found, each refused by run and check alike, citing the value:
# T T^T overflows on the manipulator and the constant model (check passed them, while
# prop1 blamed the factor's structure and prop2 diverged in its first step), and the
# Cholesky crane's rounded M^-1 has no Cholesky factor (a traceback, exit 1)
PINNED = {
    "manipulator-M-1e-320": ("manipulator", "M = 1", "1e-320"),
    "manipulator-l-1e-200": ("manipulator", "l = 1", "1e-200"),
    "manipulator-I-5e-324": ("manipulator", "I = 1", "5e-324"),
    "constant-M-1e-320": ("constant", "M = 1, 0; 0, 1", "1e-320"),
    "cholesky-m_r-1e200": ("cholesky-prop2", "m_r = 0.5", "1e200"),
    "cholesky-m-1e200": ("cholesky-prop2", "m = 1.0", "1e200"),
}


@pytest.mark.parametrize("base, line, value", PINNED.values(), ids=PINNED)
def test_pinned_refusal(tmp_path, base, line, value):
    i = BASES[base].splitlines().index(line)
    start = line.index(" = ") + 3
    text, _ = mutated(BASES[base], i, start, start + len(line[start:].split(",")[0]), value)
    found, results = faults(tmp_path, text, True)
    assert not found, found
    for command, (code, err, _) in results.items():
        assert code == 2 and repr(float(value)) in err, (command, code, err)
