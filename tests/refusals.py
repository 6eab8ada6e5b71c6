"""Every configuration `momobs` refuses: one row per refused command, with its exact stderr.

A row is a base config, exact (old, new) edits that must each match the text once, the
command, and the one line it prints to stderr when it exits 2.  A base is one of BASES or a
shipped config, `configs/spider_crane_<base>.cfg` under the checkout ROOT.  Tier-1 asserts
every row (tests/test_config_cli.py), and the artifact set records every row:

    PYTHONPATH=ROOT/src python3 tests/refusals.py ROOT OUT

writes OUT/<name>.stdout, .stderr and .exit per row, with paths to ROOT and OUT read as
ROOT and OUT, and exits 1 unless it wrote all three for every row.  Each command runs in
process (call), in a fresh working directory with MOMOBS_OUTDIR set.  A row's `was` names
the test ids the case ran under before this table; tier-1 runs it under them.  Uses the
stdlib and momobs only.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import NamedTuple, Tuple

from momobs.cli import main

ROOT = Path(__file__).resolve().parents[1]  # the checkout tier-1 runs in

CRANE = """
[model]
name = spider-crane
m_r = 0.5
m = 1.0
L3 = 0.5
g = 9.81
friction = 0, 0, 0.5
known = true, true, false

[observer]
kind = prop1
lambda = 0.8

[initial]
q = 0, 0, 1.0
mom = 0, 0, 0

[input]
u1 = 1.535, 1.0, 0.0, cos
u2 = 7.67, 1.0, 0.0, sin

[disturbance]
step1 = 0, 0.1, 0.2, 0.2

[sim]
t_final = 1.0
dt = 0.002
stride = 10

[output]
emit_svg = false
"""

PROP2 = CRANE.replace("kind = prop1\nlambda = 0.8", "kind = prop2").replace(
    "known = true, true, false", "known = true, true, true")

# psi = 4 (1 + 59) = 240: r falls at rate 60 (r - 1), and one step of 0.1 s takes it from
# 1.5 to 0.0
CONSTANT = """\
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

MANIPULATOR = """\
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

BASES = {"crane": CRANE, "crane-prop2": PROP2, "constant": CONSTANT, "manipulator": MANIPULATOR}

RUN = ("run", "{cfg}", "-o", "{out}")
CHECK = ("check", "{cfg}")


class Row(NamedTuple):
    name: str  # the artifact files' name
    base: str
    edits: Tuple[Tuple[str, str], ...]
    argv: Tuple[str, ...]  # {cfg} is the config's path, {out} the directory -o names
    stderr: str  # without its newline
    was: Tuple[str, ...] = ()


def sweep(*args):
    return ("sweep", "{cfg}", *args, "-o", "{out}")


def factor(line, model, got):
    return (f"line {line}: model {model}: the factor T, T T^T = M^-1 and any closed-form T^-1 "
            f"must be formed and finite at the 30 structural sample positions, got {got}")


CHOLESKY = ("name = spider-crane", "name = spider-crane-cholesky")
CRANE_MODEL = CRANE.split("[model]\n")[1].split("\n\n")[0]
MAX = repr(sys.float_info.max)
STEPS = "is not a step count the time grid resolves (finite, at most 2**53)"
STIFFNESS = "model constant: stiffness matrix K must be symmetric 2 x 2, the size of M"
UNKNOWN_DIRECTORY = "unknown key 'directory' in [output]"

# (id, edits, stderr): the crane config's refusals by run and check alike, then by run alone
RUN_AND_CHECK = [
    ("inf-steps", [("t_final = 1.0\ndt = 0.002", "t_final = 1e300\ndt = 1e-300")],
     f"line 27: t_final = 1e+300 over dt = 1e-300 {STEPS}"),
    ("steps-past-float-grid", [("t_final = 1.0\ndt = 0.002", "t_final = 1e300\ndt = 1")],
     f"line 27: t_final = 1e+300 over dt = 1.0 {STEPS}"),
    # model parameters whose factor cannot be formed or is not finite at the structural
    # samples cite the name line
    ("overflowing-cable", [("L3 = 0.5", "L3 = 1e200")],
     factor(3, "spider-crane", "m_r = 0.5, m = 1.0, L3 = 1e+200")),
    ("vanishing-cable", [("L3 = 0.5", "L3 = 1e-200")],
     factor(3, "spider-crane", "m_r = 0.5, m = 1.0, L3 = 1e-200")),
    ("vanishing-masses", [("m_r = 0.5\nm = 1.0", "m_r = 1e-200\nm = 1e-200")],
     factor(3, "spider-crane", "m_r = 1e-200, m = 1e-200, L3 = 0.5")),
    ("overflowing-cable-cholesky", [CHOLESKY, ("L3 = 0.5", "L3 = 1e200")],
     factor(3, "spider-crane-cholesky", "m_r = 0.5, m = 1.0, L3 = 1e+200")),
    # rho = sqrt(M / m) overflows to inf, and a3 = sqrt(M + m) too
    ("light-manipulator-mass", [(CRANE_MODEL, "name = manipulator\nm = 1e-320")],
     factor(3, "manipulator", "I = 1.0, M = 1.0, m = 1e-320, l = 1.0")),
    ("heavy-manipulator-masses", [(CRANE_MODEL, "name = manipulator\nM = 1e308\nm = 1e308")],
     factor(3, "manipulator", "I = 1.0, M = 1e+308, m = 1e+308, l = 1.0")),
    # T is finite, T T^T = M^-1 overflows: check passed these, prop1 blamed the factor's
    # structure and prop2 diverged in its first step
    ("light-manipulator-M", [(CRANE_MODEL, "name = manipulator\nM = 1e-320")],
     factor(3, "manipulator", "I = 1.0, M = 1e-320, m = 1.0, l = 1.0")),
    ("short-manipulator-link", [(CRANE_MODEL, "name = manipulator\nl = 1e-200")],
     factor(3, "manipulator", "I = 1.0, M = 1.0, m = 1.0, l = 1e-200")),
    ("light-manipulator-I", [(CRANE_MODEL, "name = manipulator\nI = 5e-324")],
     factor(3, "manipulator", "I = 5e-324, M = 1.0, m = 1.0, l = 1.0")),
    ("light-constant-M", [(CRANE_MODEL, "name = constant\nM = 1e-320, 0; 0, 1")],
     factor(3, "constant", "M = [[1e-320, 0.0], [0.0, 1.0]]")),
    # the rounded M^-1 has no Cholesky factor at some sample position (at q = 0 too for the
    # m_r rows, only away from it for the m rows)
    *((f"cholesky-{key}-{value}", [CHOLESKY, (f"{key} = {old}", f"{key} = {value}")],
       factor(3, "spider-crane-cholesky", got.format(repr(float(value)))))
      for key, old, got, values in [("m_r", 0.5, "m_r = {}, m = 1.0, L3 = 0.5",
                                     ("1e-200", "1e200", "1e308", MAX)),
                                    ("m", 1.0, "m_r = 0.5, m = {}, L3 = 0.5",
                                     ("1e200", "1e308", MAX))]
      for value in values),
]
RUN_ALONE = [
    ("negative-dt", [("dt = 0.002", "dt = -1")], "line 28: dt must be positive"),
    ("inf-t_final", [("t_final = 1.0", "t_final = inf")],
     "line 27: t_final: expected a finite number, got 'inf'"),
    ("nan-dt", [("dt = 0.002", "dt = nan")], "line 28: dt: expected a finite number, got 'nan'"),
    ("nan-lambda", [("lambda = 0.8", "lambda = nan")],
     "line 13: lambda: expected a finite number, got 'nan'"),
    ("nan-q", [("q = 0, 0, 1.0", "q = 0, nan, 1.0")],
     "line 16: q: expected a finite number, got 'nan'"),
    ("fractional-stride", [("stride = 10", "stride = 2.5")],
     "line 29: stride must be a positive integer, got '2.5'"),
    ("negative-lambda", [("lambda = 0.8", "lambda = -1")],
     "line 13: gain lambda must be positive, got -1.0"),
    # 1e-4 snaps onto t = 0, where step1 already switches
    ("colliding-switch", [("step1 = 0, 0.1, 0.2, 0.2",
                           "step1 = 0, 0.1, 0.2, 0.2\nstep2 = 0.0001, 0.3, 0.2, 0.2")],
     "disturbance switch times collide when snapped onto the dt = 0.002 step grid "
     "(switch times must be strictly increasing)"),
    # sizes that do not fit the 3-dof, 2-input crane, cited with their line
    ("short-q", [("q = 0, 0, 1.0", "q = 0, 0")], "line 16: q: expected 3 numbers, got 2"),
    ("long-mom", [("mom = 0, 0, 0", "mom = 0, 0, 0, 0")],
     "line 17: mom: expected 3 numbers, got 4"),
    ("short-disturbance", [("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2")],
     "line 24: step1: expected a switch time and 3 levels, got 3 numbers"),
    ("extra-input", [("u2 = 7.67, 1.0, 0.0, sin",
                      "u2 = 7.67, 1.0, 0.0, sin\nu3 = 1.0, 1.0, 0.0, cos")],
     "line 22: u3: input channel 3, the model has 2 inputs"),
    # a parameter the model's factory refuses cites the model's name line
    ("negative-mass", [("m = 1.0", "m = -1.0")],
     "line 3: model spider-crane: masses m_r, m and cable length L3 must be positive, "
     "got m_r = 0.5, m = -1.0, L3 = 0.5"),
    # suffixes that str.isdigit accepts but int does not
    ("superscript-input", [("u1 = 1.535", "u² = 1.535")],
     "line 20: expected u1, u2, ... without leading zeros, got 'u²'"),
    ("superscript-step", [("step1 = ", "step² = ")],
     "line 24: expected step1, step2, ... without leading zeros, got 'step²'"),
    # one spelling per entry: a leading zero would alias an earlier key, and 0 is no index
    ("leading-zero-input", [("u2 = 7.67", "u01 = 7.67")],
     "line 21: expected u1, u2, ... without leading zeros, got 'u01'"),
    ("leading-zero-step", [("step1 = 0, 0.1, 0.2, 0.2",
                            "step1 = 0, 0.1, 0.2, 0.2\nstep01 = 0, 9, 9, 9")],
     "line 25: expected step1, step2, ... without leading zeros, got 'step01'"),
    ("zero-input", [("u1 = 1.535", "u0 = 1.535")],
     "line 20: expected u1, u2, ... without leading zeros, got 'u0'"),
    ("zero-step", [("step1 = ", "step0 = ")],
     "line 24: expected step1, step2, ... without leading zeros, got 'step0'"),
    # t_final / dt = 500.5 and 501.5 would round to 500 and 502 steps
    ("t_final-short-of-steps", [("t_final = 1.0", "t_final = 1.001")],
     "line 27: t_final = 1.001 is not a positive whole number of dt = 0.002 steps"),
    ("t_final-past-steps", [("t_final = 1.0", "t_final = 1.003")],
     "line 27: t_final = 1.003 is not a positive whole number of dt = 0.002 steps"),
    # every entry of a list is a value, a trailing comma's included
    ("empty-q-entry", [("q = 0, 0, 1.0", "q = 0, , 0, 1.0")],
     "line 16: q: expected a number, got ''"),
    ("trailing-comma-friction", [("friction = 0, 0, 0.5", "friction = 0, 0, 0.5,")],
     "line 8: friction: expected a number, got ''"),
    ("empty-known-entry", [("known = true, true, false", "known = true, , true, false")],
     "line 9: known: expected a boolean, got ''"),
    ("empty-step1-entry", [("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, , 0.2, 0.2")],
     "line 24: step1: expected a number, got ''"),
]


# the config fuzzer's findings, each refused by run and check alike, citing the value: T T^T
# overflows on the manipulator and the constant model (check passed them, while prop1 blamed
# the factor's structure and prop2 diverged in its first step), and the Cholesky crane's
# rounded M^-1 has no Cholesky factor (a traceback, exit 1)
PINNED = {"light-manipulator-M": "manipulator-M-1e-320",
          "short-manipulator-link": "manipulator-l-1e-200",
          "light-manipulator-I": "manipulator-I-5e-324", "light-constant-M": "constant-M-1e-320",
          "cholesky-m_r-1e200": "cholesky-m_r-1e200", "cholesky-m-1e200": "cholesky-m-1e200"}


def crane_rows(command, argv, cases):
    """The crane config's rows, each the case test_cli_<command>_config_error[<case>] was."""
    return [Row(f"{command}_{case.replace('-', '_')}", "crane", tuple(edits), argv,
                f"config error: {err}", (f"test_cli_{command}_config_error[{case}]",
                                         *([f"test_pinned_refusal[{PINNED[case]}]"]
                                           if case in PINNED else [])))
            for case, edits, err in cases]


SHORT_Q0 = "config error: --param: sweep index '{}' is not one of 0..2"
NOT_FINITE = "config error: --values: expected a finite number, got '{}'"
NOT_A_NUMBER = "config error: --values: expected a number, got '{}'"
NOT_COMMUTING = "config error: factor columns do not commute (max bracket norm 1.447e+01 > 1e-06)"
BAD_ARGS = ("test_cli_sweep_bad_args",)

_rows = [
    *crane_rows("run", RUN, RUN_AND_CHECK + RUN_ALONE),
    *crane_rows("check", CHECK, RUN_AND_CHECK),
    # the shipped prop1 config: step counts the float time grid cannot resolve, t_final / dt
    # infinite or past 2**53, run and checked
    *(Row(f"{command}_steps_{kind}", "prop1", (("t_final = 60", "t_final = 1e300"),
                                                ("dt = 0.001", f"dt = {dt}")),
          argv, f"config error: line 29: t_final = 1e+300 over dt = {float(dt)!r} {STEPS}")
      for kind, dt in (("inf", "1e-300"), ("past_grid", "1")) for command, argv in
      (("run", RUN), ("check", CHECK))),
    # a K that is not 2 x 2 symmetric: check passed it, and run died in K @ q
    *(Row(f"{command}_{kind}", "constant", (("K = 1, 0; 0, 1", f"K = {K}"),), argv,
          f"config error: line 2: {STIFFNESS}",
          (f"test_cli_refuses_bad_stiffness[{K}-{command}]",))
      for kind, K in (("bad_stiffness", "1, 2, 3"), ("asymmetric_stiffness", "1, 2; 0, 1"))
      for command, argv in (("run", RUN), ("check", CHECK))),
    # model parameters refused by the factor probe, on the shipped configs and the bases
    *(Row(f"{command}_{name}", base, edits, argv, f"config error: {err}")
      for name, base, edits, err in [
          ("cable_overflow", "prop1", (("L3 = 0.5", "L3 = 1e200"),),
           factor(5, "spider-crane", "m_r = 0.5, m = 1.0, L3 = 1e+200")),
          ("cholesky_heavy_ring", "prop2", (CHOLESKY, ("m_r = 0.5", "m_r = 1e200")),
           factor(5, "spider-crane-cholesky", "m_r = 1e+200, m = 1.0, L3 = 0.5")),
          ("cholesky_heavy_payload", "prop2", (CHOLESKY, ("m = 1.0", "m = 1e200")),
           factor(5, "spider-crane-cholesky", "m_r = 0.5, m = 1e+200, L3 = 0.5")),
          ("manipulator_light_mass", "manipulator", (("\nm = 1\n", "\nm = 1e-320\n"),),
           factor(2, "manipulator", "I = 1.0, M = 1.0, m = 1e-320, l = 1.0")),
          ("manipulator_light_link_mass", "manipulator", (("\nM = 1\n", "\nM = 1e-320\n"),),
           factor(2, "manipulator", "I = 1.0, M = 1e-320, m = 1.0, l = 1.0")),
          ("constant_light_mass", "constant", (("M = 1, 0; 0, 1", "M = 1e-320, 0; 0, 1"),),
           factor(2, "constant", "M = [[1e-320, 0.0], [0.0, 1.0]]"))]
      for command, argv in (("run", RUN), ("check", CHECK))),
    # 1e308 * t overflows before t_final = 2; cos(inf) raised mid-run
    Row("run_input_overflow", "prop1",
        (("kind = prop1\nlambda = 0.8\n", "kind = none\n"),
         ("u1 = 1.535, 1.0", "u1 = 1.0, 1e308"),
         ("t_final = 60\ndt = 0.001", "t_final = 2\ndt = 0.5")),
        RUN, "config error: input channel 1: angle frequency * t + phase overflows before "
        "t_final = 2.0",
        ("test_cli_run_refuses_overflowing_input_angle",)),
    Row("run_empty_entry", "prop1", (("q = 0, 0, 1.0", "q = 0, , 0, 1.0"),), RUN,
        "config error: line 18: q: expected a number, got ''"),
    # q0[1] is spelled one way: a leading zero or a non-ASCII digit (here Arabic-Indic one)
    # is refused before anything is written
    Row("sweep_index_leading_zero", "prop1", (), sweep("--param", "q0[01]", "--values", "0.5"),
        SHORT_Q0.format("q0[01]"), ("test_cli_sweep_index_has_one_spelling[q0[01]]",)),
    *(Row(name, "crane", (), sweep("--param", param, "--values", "0.1"), SHORT_Q0.format(param),
          (f"test_cli_sweep_index_has_one_spelling[{param}]",))
      for name, param in (("sweep_index_arabic_digit", "q0[١]"),
                          ("sweep_index_mom0_leading_zeros", "mom0[00]"))),
    # a run writes where its caller says: [output] takes no directory, and one named there,
    # empty or not, is refused with its line before anything is made
    Row("run_output_directory", "prop1", (("[output]\n", "[output]\ndirectory = .\n"),), RUN,
        f"config error: line 34: {UNKNOWN_DIRECTORY}"),
    *(Row(f"{command}_{kind}_directory_key".replace("-", "_"), "crane",
          (("[output]\n", f"[output]\ndirectory = {value}\n"),), argv,
          f"config error: line 32: {UNKNOWN_DIRECTORY}",
          (f"test_cli_refuses_output_directory[{command}-{kind}]",))
      for kind, value in (("named", "cfgout"), ("empty", ""))
      for command, argv in (("run", ("run", "{cfg}")),
                            ("run-with-output", ("run", "{cfg}", "-o", "out")), ("check", CHECK))),
    # what an observer cannot take: a non-commuting factor for prop1, unknown friction for
    # prop2, and [initial] fields that are not its own or not the size of its own
    Row("run_noncommuting_prop1", "crane", (CHOLESKY,), RUN, NOT_COMMUTING,
        ("test_cli_run_rejects_noncommuting_factor",)),
    Row("sweep_noncommuting_prop1", "crane", (CHOLESKY,),
        sweep("--param", "lambda", "--values", "0.8,2"), NOT_COMMUTING,
        ("test_cli_sweep_rejects_noncommuting_factor",)),
    Row("run_prop2_unknown_friction", "crane",
        (("kind = prop1", "kind = prop2"), ("lambda = 0.8", "")), RUN,
        "config error: this observer needs fully known friction; 1 coefficient(s) are marked "
        "unknown", ("test_cli_run_rejects_prop2_with_unknown_friction",)),
    *(Row(f"run_{case.replace('-', '_')}", base, (("mom = 0, 0, 0", f"mom = 0, 0, 0\n{lines}"),),
          RUN, f"config error: {err}", (f"test_observer_override_rejected[{case}]",))
      for case, base, lines, err in [
          ("prop1-missized-p_i", "crane", "p_i = 0.1, 0.2, 0.3, 0.4\nd_i = 1, 1",
           "p_i must have size 3, got 4"),
          ("prop1-qbar", "crane", "qbar = 0.1, 0.1, 0.1",
           "line 18: 'qbar' in [initial] is not a state field of observer prop1"),
          ("prop2-ru_i", "crane-prop2", "ru_i = 0.05",
           "line 17: 'ru_i' in [initial] is not a state field of observer prop2"),
          ("prop2-r-below-one", "crane-prop2", "r = 0.5",
           "initial scaling factor r must be at least one, got 0.5"),
          ("prop2-vector-r", "crane-prop2", "r = 1.5, 2", "r must have size 1, got 2")]),
    # sweep arguments: each names --param or --values, but a gain the observer does not read
    # or may not take
    Row("sweep_without_observer", "crane", (("kind = prop1\nlambda = 0.8", "kind = none"),),
        ("sweep", "{cfg}", "--param", "lambda", "--values", "1"),
        "config error: sweep needs an observer to produce metrics",
        ("test_cli_sweep_needs_observer",)),
    Row("sweep_unknown_param", "crane", (), ("sweep", "{cfg}", "--param", "bogus", "--values", "1"),
        "config error: --param: unknown sweep parameter 'bogus'", BAD_ARGS),
    Row("sweep_empty_values", "crane", (), ("sweep", "{cfg}", "--param", "lambda", "--values", ""),
        NOT_A_NUMBER.format(""), BAD_ARGS),
    *(Row(name, base, (), sweep("--param", param, "--values", values), err, BAD_ARGS)
      for name, base, param, values, err in [
          ("sweep_prop2_gain_on_prop1", "crane", "psi5_extra", "1",
           "config error: 'psi5_extra' is not a gain of this observer; it reads ['lambda']"),
          ("sweep_index_past_q0", "crane", "q0[7]", "0.1", SHORT_Q0.format("q0[7]")),
          ("sweep_nan_lambda", "crane", "lambda", "nan", NOT_FINITE.format("nan")),
          ("sweep_inf_q0", "crane", "q0[2]", "inf", NOT_FINITE.format("inf")),
          ("sweep_negative_lambda", "crane", "lambda", "-1",
           "config error: gain lambda must be positive, got -1.0"),
          ("sweep_prop1_gain_on_prop2", "crane-prop2", "lambda", "1",
           "config error: 'lambda' is not a gain of this observer; it reads "
           "['psi3_const', 'psi4_extra', 'psi5_extra']"),
          ("sweep_nan_psi5_extra", "crane-prop2", "psi5_extra", "nan", NOT_FINITE.format("nan")),
          ("sweep_index_not_integer", "crane-prop2", "q0[x]", "0.1", SHORT_Q0.format("q0[x]")),
          ("sweep_index_fraction", "crane-prop2", "q0[1.5]", "0.1", SHORT_Q0.format("q0[1.5]")),
          ("sweep_index_empty", "crane-prop2", "q0[]", "0.1", SHORT_Q0.format("q0[]")),
          ("sweep_value_not_a_number", "crane-prop2", "psi5_extra", "1,abc",
           NOT_A_NUMBER.format("abc")),
          ("sweep_empty_value_entry", "crane-prop2", "psi5_extra", "0.4,,2",
           NOT_A_NUMBER.format(""))]),
    # each value's files are tagged {value:g}: two values printing alike would write one set,
    # the second over the first, so the sweep refuses them before anything is written
    *(Row(f"sweep_values_{kind}", "crane", (), sweep("--param", "lambda", "--values", values),
          f"config error: --values: {first} and {second} would both write the files tagged {tag}",
          (f"test_cli_sweep_rejects_values_whose_files_collide[{values}-named{i}]",))
      for i, (kind, values, first, second, tag) in enumerate([
          ("rounding_alike", "1.0000001,0.5,1.0000002", "1.0000001", "1.0000002", "1"),
          ("repeated", "2,0.5,2.0", "2.0", "2.0", "2")])),
    # a value that starts with '-' is still the value of --values
    Row("sweep_values_negative_inf", "crane", (), sweep("--param", "q0[2]", "--values", "-inf"),
        NOT_FINITE.format("-inf")),
]
ROWS = {row.name: row for row in _rows}
assert len(ROWS) == len(_rows), "row names must be unique"


def config_text(row: Row, root) -> str:
    """The row's base with its edits, each of which must match exactly once."""
    text = BASES.get(row.base)
    if text is None:
        text = (Path(root) / "configs" / f"spider_crane_{row.base}.cfg").read_text()
    for old, new in row.edits:
        if text.count(old) != 1:
            raise ValueError(f"{row.name}: {old!r} occurs {text.count(old)} times in {row.base}")
        text = text.replace(old, new)
    return text


def call(argv, cwd, outdir_env):
    """main(argv) in process, in the directory cwd with MOMOBS_OUTDIR=outdir_env.

    Returns the exit code, stdout and stderr.  Warnings are recorded with "always" and
    written into stderr; an escaped exception's traceback is written there with exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    here, env = os.getcwd(), os.environ.get("MOMOBS_OUTDIR")
    os.chdir(cwd)
    os.environ["MOMOBS_OUTDIR"] = str(outdir_env)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
            for w in caught:
                err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    finally:
        os.chdir(here)
        if env is None:
            del os.environ["MOMOBS_OUTDIR"]
        else:
            os.environ["MOMOBS_OUTDIR"] = env
    return code, out.getvalue(), err.getvalue()


def run(row: Row, root, out, work):
    """Run the row with its config at out/cfg/<name>.cfg, -o out/<name>, and the working
    directory work, whose work/outdir is MOMOBS_OUTDIR.

    Returns the exit code, stdout and stderr, with root, out and work read as ROOT, OUT
    and WORK.
    """
    root, out, work = Path(root).resolve(), Path(out).resolve(), Path(work).resolve()
    cfg = out / "cfg" / f"{row.name}.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(config_text(row, root))
    argv = [word.replace("{cfg}", str(cfg)).replace("{out}", str(out / row.name))
            for word in row.argv]
    code, stdout, stderr = call(argv, work, work / "outdir")
    paths = [(str(work), "WORK"), (str(out), "OUT"), (str(root), "ROOT")]
    for path, name in paths:
        stdout, stderr = stdout.replace(path, name), stderr.replace(path, name)
    return code, stdout, stderr


def record(row: Row, root, out) -> None:
    """Write out/<name>.stdout, .stderr and .exit of the row, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as work:
        code, stdout, stderr = run(row, root, out, work)
    out = Path(out)
    (out / f"{row.name}.stdout").write_text(stdout)
    (out / f"{row.name}.stderr").write_text(stderr)
    (out / f"{row.name}.exit").write_text(f"{code}\n")


def refused(row: Row, root, out) -> None:
    """Assert the row's refusal: exit 2 with its stderr line and no other output, and nothing
    written to -o, MOMOBS_OUTDIR or the working directory, out/work/<name>."""
    work = Path(out) / "work" / row.name
    work.mkdir(parents=True)
    assert run(row, root, out, work) == (2, "", row.stderr + "\n"), row.name
    assert not (Path(out) / row.name).exists() and not any(work.iterdir()), row.name


def cases(test: str):
    """{old id: rows} of the rows that ran as `test` before this table ("" if it had no ids)."""
    found = {}
    for row in ROWS.values():
        for was in row.was:
            name, _, case = was.partition("[")
            if name == test:
                found.setdefault(case[:-1], []).append(row)
    return found


if __name__ == "__main__":
    root, out = sys.argv[1:]
    for row in ROWS.values():
        try:
            record(row, root, out)
        except Exception:  # a row that cannot run, say an edit the base does not match
            traceback.print_exc()
    missing = [f"{row.name}{suffix}" for row in ROWS.values()
               for suffix in (".stdout", ".stderr", ".exit")
               if not (Path(out) / f"{row.name}{suffix}").is_file()]
    if missing:
        sys.exit(f"refusals: not written: {', '.join(missing)}")
