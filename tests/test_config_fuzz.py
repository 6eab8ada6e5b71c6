"""A seeded config fuzzer: one number of a config, or one sweep argument, set to an extreme value.

Five base configs, cut to 20 steps of 1 ms without plots: the shipped prop1
and prop2 crane configs, prop2 on the Cholesky crane, a prop1 manipulator
config and a prop2 constant-inertia config.  A mutation replaces one number
of [model], [observer], [initial], [input] or [disturbance] with one of
VALUES and calls `momobs run` and `momobs check` in process.  Every [model]
mutation runs; the other sections run a seeded subset.  [sim]'s dt, stride
and t_final take every value that leaves a run of at most 1000 steps or one
the config refuses.  `momobs sweep` takes a seeded subset of --param (each
kind's gains, q0[i], mom0[i], an unknown name) with --values one of VALUES,
alone or after "1,".  For each, main returns 0-3 without raising or warning,
says why in one stderr line when it refuses (2) or diverges (3), and, for a
[model] number, `check` does not pass (0) a model that `run` refuses (2).
The defects it found are rows of the refusal table (tests/refusals.py).
"""

from __future__ import annotations

import contextlib
import math
import random
import re
import sys
from pathlib import Path

import pytest

from refusals import CONSTANT, MANIPULATOR, call
from test_config_cli import old_test

CONFIGS = Path(__file__).parents[1] / "configs"
VALUES = ["0", "-0.0", "-1", "5e-324", "1e-320", "1e-200", "1e-12", "1e12", "1e200", "1e308",
          repr(sys.float_info.max), "nan", "inf", "-inf"]
FUZZED = ("model", "observer", "initial", "input", "disturbance")
SHORT = {"t_final": "0.02", "dt": "0.001", "stride": "5", "emit_svg": "false"}


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


def numbers(text: str, sections=FUZZED):
    """(section, line index, start, end) of each number in the values of the sections."""
    found, section = [], None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif section in sections and " = " in line:
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


def faults(tmp_path, text: str, model_number: bool, commands=(("run", "-o", "{out}"), ("check",))):
    """What goes wrong when the commands read text; the exit codes and stderr."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text)
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    out = str(tmp_path / "out")
    results = {name: call([name, str(cfg), *(w.replace("{out}", out) for w in args)], work, work)[::2]
               for name, *args in commands}
    found = []
    for command, (code, err) in results.items():
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            found.append(f"{command} raised, exit {code}: {err!r}")
        elif "Warning" in err:
            found.append(f"{command} warned {err!r}")
        elif code in (2, 3) and len(err.splitlines()) != 1:
            found.append(f"{command} exit {code} with stderr {err!r}")
    if model_number and results["run"][0] == 2 and results.get("check", (None,))[0] == 0:
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


def steps(line: str) -> float:
    """The step count t_final / dt of a short base with that [sim] line."""
    key, value = line.split(" = ")
    t_final, dt = float(SHORT["t_final"]), float(SHORT["dt"])
    return float(value) / dt if key == "t_final" else t_final / float(value) if key == "dt" else 20


def test_every_sim_number(tmp_path):
    # a run of more than 1000 steps that the time grid resolves would only be a long run
    failed = []
    for base, text in BASES.items():
        for _, *where in numbers(text, ("sim",)):
            for value in VALUES:
                mutant, line = mutated(text, *where, value)
                with contextlib.suppress(ZeroDivisionError):
                    if 1000 < steps(line) <= 2**53:
                        continue
                found = faults(tmp_path, mutant, False)[0]
                failed += [f"{base}, {line}: {fault}" for fault in found]
    assert not failed, "\n".join(failed)


GAINS = {"prop1": ["lambda"], "prop2": ["psi3_const", "psi4_extra", "psi5_extra"]}
SWEPT = []
for _base, _text in BASES.items():
    _kind = re.search(r"^kind = (\w+)", _text, re.M)[1]
    _n = len(re.search(r"^q = (.*)$", _text, re.M)[1].split(","))
    _params = [*GAINS["prop1"], *GAINS["prop2"], "bogus",
               *(f"{name}[{i}]" for name in ("q0", "mom0") for i in range(_n))]
    SWEPT += [(_base, param, values) for param in _params
              for value in VALUES for values in (value, f"1,{value}")]


def test_seeded_sweep_arguments(tmp_path):
    failed = []
    for base, param, values in random.Random(36).sample(SWEPT, 150):
        sweep = ("sweep", "--param", param, "--values", values, "-o", "{out}")
        for fault in faults(tmp_path, BASES[base], False, (sweep,))[0]:
            failed.append(f"{base}, --param {param} --values {values}: {fault}")
    assert not failed, "\n".join(failed)


test_pinned_refusal = old_test("test_pinned_refusal")
