import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import momobs
from momobs import (
    ConfigError,
    InputChannel,
    RunConfig,
    SpiderCraneParams,
    build_scenario,
    dump_config,
    integrate_scenario,
    make_spider_crane,
    parse_config,
)
from momobs.cli import main
from refusals import CRANE, PROP2, ROOT, ROWS, cases, refused

# prop2 on the non-commuting factor at dt = 2 ms: the copy errors and the
# scaling factor r grow until a product in the derivative overflows inside a step
CHOLESKY_PROBE_CFG = PROP2.replace("name = spider-crane", "name = spider-crane-cholesky")


def test_parse_and_build():
    cfg = parse_config(CRANE)
    assert cfg.model_name == "spider-crane"
    assert cfg.observer_kind == "prop1"
    assert cfg.gains == {"lambda": 0.8}
    assert cfg.inputs[1] == InputChannel(7.67, 1.0, 0.0, "sin")
    sc = build_scenario(cfg)
    assert sc.model.n == 3
    assert sc.t_final == 1.0
    assert sc.disturbance.levels.shape == (1, 3)


# only u2 and no [initial]: a zero channel fills u1, and the start is zeros
GAP_CFG = CRANE.replace("u1 = 1.535, 1.0, 0.0, cos\n", "").replace(
    "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0\n\n", "")


@pytest.mark.parametrize("text", [CRANE, GAP_CFG], ids=["crane", "gap-input-zero-start"])
def test_roundtrip_identical(text):
    cfg = parse_config(text)
    echoed = dump_config(cfg)
    again = parse_config(echoed)
    assert again == cfg
    # and once more through the canonical form
    assert dump_config(again) == echoed


def test_unknown_section_cites_line():
    bad = CRANE.replace("[output]", "[plotting]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "plotting" in str(err.value)
    assert err.value.line > 0


def test_unknown_key_cites_line():
    # an unknown key, and gains the configured observer kind does not read
    for bad, key in [
        (CRANE.replace("stride = 10", "pace = 10"), "pace"),
        (PROP2.replace("kind = prop2", "kind = prop2\nlambda = 2"), "lambda"),
        (CRANE.replace("lambda = 0.8", "lambda = 0.8\npsi5_extra = 2"), "psi5_extra"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert key in str(err.value)
        assert f"line {err.value.line}" in str(err.value)
        assert bad.splitlines()[err.value.line - 1].startswith(key)


def test_ragged_disturbance_steps_cite_line():
    bad = CRANE.replace("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2, 0.2\nstep2 = 1, 0.3")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert bad.splitlines()[err.value.line - 1] == "step2 = 1, 0.3"
    assert f"line {err.value.line}" in str(err.value)


@pytest.mark.parametrize(
    "steps, at_fault, message",
    [
        ("step1 = 0.5, 0.1, 0.2, 0.2", "step1 = 0.5, 0.1, 0.2, 0.2", "first switch time must be 0"),
        ("step1 = 0, 0.1, 0.2, 0.2\nstep2 = 0.5, 0.3, 0, 0\nstep3 = 0.5, 0, 0, 0",
         "step3 = 0.5, 0, 0, 0", "switch times must be strictly increasing"),
    ],
    ids=["first-not-zero", "not-increasing"],
)
def test_disturbance_schedule_errors_cite_line(steps, at_fault, message):
    # the schedule's own rule, checked on steps 1..k at step k's line
    bad = CRANE.replace("step1 = 0, 0.1, 0.2, 0.2", steps)
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(bad)
    assert bad.splitlines()[err.value.line - 1] == at_fault
    assert f"line {err.value.line}" in str(err.value)


def test_negative_dt_names_key():
    bad = CRANE.replace("dt = 0.002", "dt = -0.002")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "dt" in str(err.value)


def test_missing_requireds():
    with pytest.raises(ConfigError):
        parse_config("[sim]\nt_final = 1\ndt = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\nname = spider-crane\n")
    # the sim section is optional for structure checks only
    cfg = parse_config("[model]\nname = spider-crane\n", require_sim=False)
    assert cfg.model_name == "spider-crane"


def test_duplicate_key_rejected():
    bad = CRANE.replace("dt = 0.002", "dt = 0.002\ndt = 0.004")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_bad_waveform_rejected():
    bad = CRANE.replace("cos", "saw")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "'saw'" in str(err.value)
    assert bad.splitlines()[err.value.line - 1] == "u1 = 1.535, 1.0, 0.0, saw"
    assert f"line {err.value.line}: " in str(err.value)


def test_constant_model_matrices():
    text = """
[model]
name = constant
M = 2, 0; 0, 1
K = 1, 0; 0, 4
friction = 0.1, 0.2
known = false, false

[observer]
kind = prop1
lambda = 1.0

[sim]
t_final = 0.5
dt = 0.001
"""
    cfg = parse_config(text)
    sc = build_scenario(cfg)
    assert sc.model.n == 2
    assert np.allclose(sc.model.minv(np.zeros(2)), np.diag([0.5, 1.0]))
    # the matrices echo row by row and parse back to the same config
    echoed = dump_config(cfg)
    assert {"M = 2, 0; 0, 1", "K = 1, 0; 0, 4"} <= set(echoed.splitlines())
    assert parse_config(echoed) == cfg


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run(tmp_path):
    cfg = write(tmp_path, "run.cfg", CRANE)
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == 0
    csv = (out / "timeseries.csv").read_text().splitlines()
    assert len(csv[0].split(",")) == 18
    assert (out / "metrics.txt").exists()
    # dot-decimal, newline-delimited rows only
    assert ";" not in csv[1]
    assert "," in csv[1]


@pytest.mark.parametrize("row", [row for row in ROWS.values() if not row.was],
                         ids=lambda row: row.name)
def test_refusal(tmp_path, row):
    refused(row, ROOT, tmp_path)


def old_test(test):
    """The rows that were test's cases before the table, as test: one case per old id."""
    found = cases(test)
    if list(found) == [""]:  # a test without ids, which ran its cases in turn
        def check(tmp_path):
            for row in found[""]:
                refused(row, ROOT, tmp_path)
        return check

    @pytest.mark.parametrize("rows", [pytest.param(rows, id=id) for id, rows in found.items()])
    def check_each(tmp_path, rows):
        for row in rows:
            refused(row, ROOT, tmp_path)
    return check_each


test_cli_run_config_error = old_test("test_cli_run_config_error")
test_cli_check_config_error = old_test("test_cli_check_config_error")
test_cli_refuses_bad_stiffness = old_test("test_cli_refuses_bad_stiffness")
test_cli_run_refuses_overflowing_input_angle = old_test(
    "test_cli_run_refuses_overflowing_input_angle")
test_cli_run_rejects_noncommuting_factor = old_test("test_cli_run_rejects_noncommuting_factor")
test_cli_sweep_rejects_noncommuting_factor = old_test("test_cli_sweep_rejects_noncommuting_factor")
test_cli_run_rejects_prop2_with_unknown_friction = old_test(
    "test_cli_run_rejects_prop2_with_unknown_friction")
test_observer_override_rejected = old_test("test_observer_override_rejected")
test_cli_sweep_needs_observer = old_test("test_cli_sweep_needs_observer")
test_cli_sweep_bad_args = old_test("test_cli_sweep_bad_args")
test_cli_sweep_index_has_one_spelling = old_test("test_cli_sweep_index_has_one_spelling")
test_cli_sweep_rejects_values_whose_files_collide = old_test(
    "test_cli_sweep_rejects_values_whose_files_collide")
test_cli_refuses_output_directory = old_test("test_cli_refuses_output_directory")


def test_every_row_runs():
    # a row with old ids runs only under them, so each old test must be defined
    import test_config_fuzz

    old = {was.partition("[")[0] for row in ROWS.values() for was in row.was}
    assert old <= set(globals()) | set(vars(test_config_fuzz))


def test_cli_sweep_takes_negative_values(tmp_path):
    # argparse reads a word like -1e-3 as an option unless --values, or its prefix, takes it
    text = CRANE.replace("t_final = 1.0", "t_final = 0.02")
    for option in ("--values", "--val"):
        out = tmp_path / option
        assert main(["sweep", write(tmp_path, "sweep.cfg", text), "--param", "q0[2]",
                     option, "-1e-3", "-o", str(out)]) == 0
        assert (out / "q0_2_-0.001_timeseries.csv").exists()


@pytest.fixture
def adaptive_builds(monkeypatch):
    """List that gains one entry per AdaptiveObserver construction."""
    from momobs import AdaptiveObserver

    built = []
    init = AdaptiveObserver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdaptiveObserver, "__init__", counting_init)
    return built


@pytest.mark.parametrize("initial", ["", "\nru_i = 0"], ids=["plain", "override"])
def test_cli_run_builds_observer_once(tmp_path, adaptive_builds, initial):
    text = CRANE.replace("t_final = 1.0", "t_final = 0.02").replace(
        "mom = 0, 0, 0", "mom = 0, 0, 0" + initial)
    assert main(["run", write(tmp_path, "run.cfg", text), "-o", str(tmp_path / "out")]) == 0
    assert len(adaptive_builds) == 1


@pytest.mark.parametrize("param, values", [("lambda", "0.4,2"), ("q0[2]", "0.5,1")])
def test_cli_sweep_builds_observer_per_value(tmp_path, adaptive_builds, param, values):
    text = CRANE.replace("t_final = 1.0", "t_final = 0.02")
    assert main(["sweep", write(tmp_path, "sweep.cfg", text), "--param", param,
                 "--values", values, "-o", str(tmp_path / "out")]) == 0
    assert len(adaptive_builds) == 2


@pytest.mark.parametrize("param, values, shared", [("lambda", "0.4,0.8,2", True),
                                                    ("q0[2]", "0.5,1", False)])
def test_cli_sweep_shares_the_plant_of_a_gain_sweep(tmp_path, monkeypatch, param, values, shared):
    # one integrate_scenario(sc) per value, looked up on momobs.cli; the
    # swept runs step in one lockstep group exactly when only a gain changes
    import momobs.cli

    seen = []
    integrate = momobs.cli.integrate_scenario
    monkeypatch.setattr(momobs.cli, "integrate_scenario", lambda sc: seen.append(sc) or integrate(sc))
    text = CRANE.replace("t_final = 1.0", "t_final = 0.02")
    assert main(["sweep", write(tmp_path, "sweep.cfg", text), "--param", param,
                 "--values", values, "-o", str(tmp_path / "out")]) == 0
    groups = [sc._lockstep for sc in seen]
    assert len(seen) == len(values.split(","))
    if shared:
        assert groups[0] is not None and all(group is groups[0] for group in groups)
        assert groups[0].series == {}  # the first call ran them all, and each was handed out
    else:
        assert groups == [None] * len(seen)


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lambda", "--values", "0.4,2"]])
def test_cli_builds_model_once(tmp_path, monkeypatch, command):
    import momobs.config

    built = []
    build = momobs.config.build_model
    monkeypatch.setattr(momobs.config, "build_model", lambda cfg: built.append(cfg) or build(cfg))
    text = CRANE.replace("t_final = 1.0", "t_final = 0.02")
    cfg = write(tmp_path, "model.cfg", text)
    assert main([command[0], cfg, *command[1:], "-o", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_edited_model_fields_rebuild_the_model():
    cfg = parse_config(CRANE)
    model = build_scenario(cfg).model
    assert build_scenario(replace(cfg, t_final=0.5)).model is model
    # a field set anew, a list edited in place, and a copy with another model name
    cfg.model_params["m"] = 2.0
    cfg.friction[2] = 0.9
    edited = build_scenario(cfg).model
    q = np.array([0.1, -0.2, 0.7])
    expected = make_spider_crane(SpiderCraneParams(m=2.0, friction=(0.0, 0.0, 0.9)))
    assert np.array_equal(edited.factor(q), expected.factor(q))
    assert np.array_equal(edited.friction.coeffs, [0.0, 0.0, 0.9])
    assert not np.array_equal(edited.factor(q), model.factor(q))
    other = build_scenario(replace(cfg, model_name="spider-crane-cholesky", observer_kind="none",
                                   gains={})).model
    assert other.name == "spider-crane-cholesky"
    assert build_scenario(cfg).model is edited


def test_cli_svg_does_not_change_csv(tmp_path):
    cfg_plain = write(tmp_path, "plain.cfg", CRANE)
    cfg_svg = write(tmp_path, "svg.cfg", CRANE.replace("emit_svg = false", "emit_svg = true"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_plain, "-o", str(out_a)]) == 0
    assert main(["run", cfg_svg, "-o", str(out_b)]) == 0
    assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
    assert not (out_a / "ptil.svg").exists()
    svg = (out_b / "ptil.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_check_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path, "good.cfg", "[model]\nname = spider-crane\n")
    assert main(["check", good]) == 0
    out = capsys.readouterr().out
    assert "commuting_factor = pass" in out

    # a negative sample seed is a bad argument, not a failed check
    with pytest.raises(SystemExit) as exc:
        main(["check", good, "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err

    # any other non-negative seed draws another sample set
    assert main(["check", good, "--seed", "3"]) == 0
    assert "commuting_factor = pass" in capsys.readouterr().out

    bad = write(tmp_path, "bad.cfg", "[model]\nname = spider-crane-cholesky\n")
    assert main(["check", bad]) == 1
    out = capsys.readouterr().out
    assert "commuting_factor = FAIL" in out


def test_run_and_check_never_import_numpy_random(tmp_path):
    # the structural samples come from the stdlib: numpy.random would cost each
    # prop1 or check process about 6 MB, so a fresh interpreter never loads it
    shipped = Path(__file__).parents[1] / "configs" / "spider_crane_prop1.cfg"
    cfg = write(tmp_path, "prop1.cfg",
                re.sub(r"(?m)^t_final = .*$", "t_final = 0.01", shipped.read_text()))
    script = ("import sys; from momobs.cli import main; "
              "codes = main(['run', sys.argv[1], '-o', sys.argv[2]]), main(['check', sys.argv[1]]); "
              "print(codes, 'numpy.random' in sys.modules)")
    src = str(Path(momobs.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                            capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.splitlines()[-1] == "(0, 0) False"
    assert (tmp_path / "out" / "timeseries.csv").exists()


def test_cli_check_constant(tmp_path, capsys):
    text = "[model]\nname = constant\nM = 1, 0; 0, 2\nK = 1, 0; 0, 1\n"
    cfg = write(tmp_path, "const.cfg", text)
    assert main(["check", cfg]) == 0
    report = capsys.readouterr().out
    for line in report.splitlines():
        if "residual" in line and "n/a" not in line:
            assert float(line.split("=")[1]) <= 1e-9


def test_cli_sweep(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", CRANE)
    out = tmp_path / "sweepout"
    # an unsorted list: rows keep the given order
    code = main(["sweep", cfg, "--param", "lambda", "--values", "2.0,0.4,0.8",
                 "-o", str(out)])
    assert code == 0
    csvs = sorted(p.name for p in out.glob("lambda_*timeseries.csv"))
    assert len(csvs) == 3
    rows = (out / "sweep_metrics.csv").read_text().splitlines()
    assert len(rows) == 4
    values = [float(r.split(",")[0]) for r in rows[1:]]
    assert values == [2.0, 0.4, 0.8]


def test_cli_sweep_stops_at_first_divergence(tmp_path, capsys):
    # the run at the first value diverges: exit 3 naming that value, its series
    # written for inspection, and neither the later runs nor sweep_metrics.csv
    cfg = write(tmp_path, "probe.cfg", CHOLESKY_PROBE_CFG)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", cfg, "--param", "psi5_extra", "--values", "1,2", "-o", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("run at psi5_extra = 1 diverged") and len(err.splitlines()) == 1, err
    assert sorted(p.name for p in out.iterdir()) == ["psi5_extra_1_metrics.txt",
                                                     "psi5_extra_1_timeseries.csv"]


@pytest.mark.parametrize("param, values", [("lambda", "0.8,2"), ("q0[2]", "0.5,1")])
def test_cli_sweep_starts_observer_per_value(tmp_path, param, values):
    # ru_i = 0 is its own default: naming it in [initial] must not pin the
    # observer start to the config's lambda and q0 for every swept value
    text = CRANE.replace("t_final = 1.0", "t_final = 0.2")
    named = text.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nru_i = 0")
    outs = []
    for name, body in (("plain", text), ("named", named)):
        out = tmp_path / name
        assert main(["sweep", write(tmp_path, f"{name}.cfg", body), "--param", param,
                     "--values", values, "-o", str(out)]) == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*timeseries.csv"))
    assert len(csvs) == 2
    for csv in csvs:
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), csv


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lambda", "--values", "1"]])
def test_cli_unusable_outdir(tmp_path, capsys, command):
    cfg = write(tmp_path, "run.cfg", CRANE)
    taken = write(tmp_path, "taken", "a file, not a directory\n")
    assert main([command[0], cfg, *command[1:], "-o", taken]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "taken" in err


def test_dump_config_writes_no_output_directory():
    assert "directory" not in {f.name for f in fields(RunConfig)}
    for text in (CRANE, PROP2, CHOLESKY_PROBE_CFG):
        echoed = dump_config(parse_config(text))
        assert echoed.endswith("[output]\nemit_svg = false\n") and "directory" not in echoed


def test_cli_outdir_from_environment(tmp_path, monkeypatch):
    cfg = write(tmp_path, "run.cfg", CRANE)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("MOMOBS_OUTDIR", str(env_out))
    assert main(["run", cfg]) == 0
    assert (env_out / "timeseries.csv").exists()


@pytest.mark.parametrize(
    "text, cause",
    [
        (CRANE.replace("lambda = 0.8", "lambda = 1e9").replace("t_final = 1.0", "t_final = 2.0"),
         "FloatingPointError in the step from t = 0.002: overflow encountered in matvec "
         "(in adaptive."),
        (CHOLESKY_PROBE_CFG,
         "FloatingPointError in the step from t = 0.004: overflow encountered in multiply "
         "(in scaled."),
    ],
    ids=["nonfinite-state", "linalg-error"],
)
def test_cli_run_divergence_exit(tmp_path, capsys, text, cause):
    cfg = write(tmp_path, "blowup.cfg", text)
    with warnings.catch_warnings():  # numpy's warnings on the way would be more lines
        warnings.simplefilter("error")
        code = main(["run", cfg, "-o", str(tmp_path / "div")])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err and cause in err, err
    assert len(err.splitlines()) == 1, err
    # the truncated series is still written for inspection, and it ends with
    # the last finite state: the one at the start of the failing step
    rows = (tmp_path / "div" / "timeseries.csv").read_text().splitlines()[1:]
    assert len(rows) >= 2
    named = float(re.search(r"step from t = (\S+?):?\s", err).group(1))
    assert float(rows[-1].split(",")[0]) == pytest.approx(named, rel=1e-5)


# a 1e20 cable makes the Cholesky factor numerically singular: T^-1 is refused
# in the first derivative, and at every sample's qbar in the read-out too
SINGULAR_CFG = CHOLESKY_PROBE_CFG.replace("L3 = 0.5", "L3 = 1e20").replace("t_final = 1.0",
                                                                           "t_final = 0.01")


@pytest.mark.parametrize("command, err", [
    (["run"], "run diverged: ModelError: factor is numerically singular"),
    (["sweep", "--param", "psi5_extra", "--values", "1,2"],
     "run at psi5_extra = 1 diverged: ModelError: factor is numerically singular"),
], ids=["run", "sweep"])
def test_cli_singular_factor_diverges(tmp_path, capsys, command, err):
    # exit 3 with one line naming the cause, no traceback, and no series for
    # the run: its samples cannot be read out
    cfg = write(tmp_path, "singular.cfg", SINGULAR_CFG)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], cfg, *command[1:], "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and len(captured.err.splitlines()) == 1, captured.err
    assert captured.out == "" and not any(out.iterdir())


def test_cli_run_huge_start_scale_diverges(tmp_path, capsys):
    # r = 1e155 overflows r**2 to inf, in a run alone as in a lockstep row:
    # the run diverges in its first step, exit 3, and still writes its series
    text = PROP2.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 1e155")
    cfg = write(tmp_path, "big_r.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", cfg, "-o", str(tmp_path / "big_r")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("run diverged") and len(err.splitlines()) == 1, err
    assert (tmp_path / "big_r" / "timeseries.csv").read_text().count("\n") == 2  # header, t = 0


@pytest.mark.parametrize("text, err", [
    (PROP2.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 1e155"),
     "run diverged: FloatingPointError in the step from t = 0: overflow encountered in scalar "
     "power (in scaled.ScaledObserver.derivative)"),
    (CHOLESKY_PROBE_CFG.replace("L3 = 0.5", "L3 = 1e11").replace("t_final = 1.0", "t_final = 0.01"),
     "run diverged: FloatingPointError in the step from t = 0: overflow encountered in vecdot "
     "(in model.row_norm, called from scaled.ScaledObserver._mapping_h_rate)"),
], ids=["big-r", "cholesky-ill-conditioned"])
def test_cli_divergence_names_its_function(tmp_path, capsys, text, err):
    # the innermost momobs frame by its qualified name, and its caller when that frame is a
    # module-level helper: the whole stderr line
    cfg = write(tmp_path, "diverges.cfg", text)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == err + "\n"


def test_cli_run_of_many_steps_diverges_in_its_first_step(tmp_path, capsys):
    # 9e15 steps pass whole_steps; the run takes each step's disturbance level
    # as it reaches it, so it allocates nothing per step before its first one
    text = PROP2.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 1e155").replace(
        "t_final = 1.0", "t_final = 9e15").replace("dt = 0.002", "dt = 1")
    cfg = write(tmp_path, "big_r_steps.cfg", text)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run diverged") and len(err.splitlines()) == 1, err


def start(sc):
    """Observer state at t = 0 of a run of the scenario."""
    return integrate_scenario(replace(sc, t_final=sc.dt)).obs[0]


def test_observer_override_round_trips():
    text = CRANE.replace(
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0",
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0\np_i = 0.1, 0.2, 0.3\nru_i = 0.05\nd_i = 1, 1, 1",
    )
    cfg = parse_config(text)
    assert cfg.overrides["p_i"] == [0.1, 0.2, 0.3]
    again = parse_config(dump_config(cfg))
    assert again == cfg
    sc = build_scenario(cfg)
    assert np.allclose(start(sc), [0.1, 0.2, 0.3, 0.05, 1, 1, 1])


def test_observer_override_partial_uses_defaults():
    # only the friction integral term is overridden; the rest fall back to
    # the neutral start
    text = CRANE.replace(
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0",
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0\nru_i = 0.25",
    )
    sc = build_scenario(parse_config(text))
    from momobs import AdaptiveObserver

    obs = AdaptiveObserver(sc.model, {"lambda": 0.8})
    default = obs.state_with(sc.q0)
    z0 = start(sc)
    assert np.allclose(z0[:3], default[:3])
    assert z0[3] == 0.25
    assert np.allclose(z0[4:], default[4:])


def test_scaled_observer_override():
    text = CRANE.replace("kind = prop1\nlambda = 0.8", "kind = prop2").replace(
        "known = true, true, false", "known = true, true, true"
    ).replace(
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0",
        "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0\nr = 1.5\nqbar = 0.1, 0.1, 0.1",
    )
    cfg = parse_config(text)
    sc = build_scenario(cfg)
    assert sc.observer == "prop2"
    z0 = start(sc)
    assert z0[-1] == 1.5
    assert np.allclose(z0[:3], [0.1, 0.1, 0.1])
    # d_i defaults to -q0 / r^2
    assert np.allclose(z0[9:12], -np.asarray(sc.q0) / 1.5**2)
    assert parse_config(dump_config(cfg)) == cfg
