import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import momobs
from momobs import (
    ConfigError,
    InputChannel,
    SpiderCraneParams,
    build_scenario,
    dump_config,
    integrate_scenario,
    make_spider_crane,
    parse_config,
)
from momobs.cli import main

CRANE_CFG = """
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


PROP2_CFG = CRANE_CFG.replace("kind = prop1\nlambda = 0.8", "kind = prop2").replace(
    "known = true, true, false", "known = true, true, true"
)

# prop2 on the non-commuting factor at dt = 2 ms: the copy errors and the
# scaling factor r grow until the gains overflow to inf inside a step, and an
# SVD of the infs then raises LinAlgError before the state turns non-finite
CHOLESKY_PROBE_CFG = PROP2_CFG.replace("name = spider-crane", "name = spider-crane-cholesky")


def test_parse_and_build():
    cfg = parse_config(CRANE_CFG)
    assert cfg.model_name == "spider-crane"
    assert cfg.observer_kind == "prop1"
    assert cfg.gains == {"lambda": 0.8}
    assert cfg.inputs[1] == InputChannel(7.67, 1.0, 0.0, "sin")
    sc = build_scenario(cfg)
    assert sc.model.n == 3
    assert sc.t_final == 1.0
    assert sc.disturbance.levels.shape == (1, 3)


# only u2 and no [initial]: a zero channel fills u1, and the start is zeros
GAP_CFG = CRANE_CFG.replace("u1 = 1.535, 1.0, 0.0, cos\n", "").replace(
    "[initial]\nq = 0, 0, 1.0\nmom = 0, 0, 0\n\n", "")


@pytest.mark.parametrize("text", [CRANE_CFG, GAP_CFG], ids=["crane", "gap-input-zero-start"])
def test_roundtrip_identical(text):
    cfg = parse_config(text)
    echoed = dump_config(cfg)
    again = parse_config(echoed)
    assert again == cfg
    # and once more through the canonical form
    assert dump_config(again) == echoed


def test_unknown_section_cites_line():
    bad = CRANE_CFG.replace("[output]", "[plotting]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "plotting" in str(err.value)
    assert err.value.line > 0


def test_unknown_key_cites_line():
    # an unknown key, and gains the configured observer kind does not read
    for bad, key in [
        (CRANE_CFG.replace("stride = 10", "pace = 10"), "pace"),
        (PROP2_CFG.replace("kind = prop2", "kind = prop2\nlambda = 2"), "lambda"),
        (CRANE_CFG.replace("lambda = 0.8", "lambda = 0.8\npsi5_extra = 2"), "psi5_extra"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert key in str(err.value)
        assert f"line {err.value.line}" in str(err.value)
        assert bad.splitlines()[err.value.line - 1].startswith(key)


def test_ragged_disturbance_steps_cite_line():
    bad = CRANE_CFG.replace("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2, 0.2\nstep2 = 1, 0.3")
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
    bad = CRANE_CFG.replace("step1 = 0, 0.1, 0.2, 0.2", steps)
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(bad)
    assert bad.splitlines()[err.value.line - 1] == at_fault
    assert f"line {err.value.line}" in str(err.value)


def test_negative_dt_names_key():
    bad = CRANE_CFG.replace("dt = 0.002", "dt = -0.002")
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
    bad = CRANE_CFG.replace("dt = 0.002", "dt = 0.002\ndt = 0.004")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_bad_waveform_rejected():
    bad = CRANE_CFG.replace("cos", "saw")
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
    cfg = write(tmp_path, "run.cfg", CRANE_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == 0
    csv = (out / "timeseries.csv").read_text().splitlines()
    assert len(csv[0].split(",")) == 18
    assert (out / "metrics.txt").exists()
    # dot-decimal, newline-delimited rows only
    assert ";" not in csv[1]
    assert "," in csv[1]


@pytest.mark.parametrize(
    "old, new, key, cited",
    [
        ("dt = 0.002", "dt = -1", "dt", None),
        ("t_final = 1.0", "t_final = inf", "t_final", None),
        ("dt = 0.002", "dt = nan", "dt", None),
        ("lambda = 0.8", "lambda = nan", "lambda", None),
        ("q = 0, 0, 1.0", "q = 0, nan, 1.0", "q", None),
        ("stride = 10", "stride = 2.5", "stride", None),
        ("lambda = 0.8", "lambda = -1", "lambda", "lambda = -1"),
        # 1e-4 snaps onto t = 0, where step1 already switches
        ("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2, 0.2\nstep2 = 0.0001, 0.3, 0.2, 0.2",
         "dt", None),
        # sizes that do not fit the 3-dof, 2-input crane, cited with their line
        ("q = 0, 0, 1.0", "q = 0, 0", "q", "q = 0, 0"),
        ("mom = 0, 0, 0", "mom = 0, 0, 0, 0", "mom", "mom = 0, 0, 0, 0"),
        ("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2", "step1", "step1 = 0, 0.1, 0.2"),
        ("u2 = 7.67, 1.0, 0.0, sin", "u2 = 7.67, 1.0, 0.0, sin\nu3 = 1.0, 1.0, 0.0, cos", "u3",
         "u3 = 1.0, 1.0, 0.0, cos"),
        # a parameter the model's factory refuses cites the model's name line
        ("m = 1.0", "m = -1.0", "masses", "name = spider-crane"),
        # suffixes that str.isdigit accepts but int does not
        ("u1 = 1.535", "u\u00b2 = 1.535", "u\u00b2", "u\u00b2 = 1.535, 1.0, 0.0, cos"),
        ("step1 = ", "step\u00b2 = ", "step\u00b2", "step\u00b2 = 0, 0.1, 0.2, 0.2"),
        # one spelling per entry: a leading zero would alias an earlier key, and 0 is no index
        ("u2 = 7.67", "u01 = 7.67", "u01", "u01 = 7.67, 1.0, 0.0, sin"),
        ("step1 = 0, 0.1, 0.2, 0.2", "step1 = 0, 0.1, 0.2, 0.2\nstep01 = 0, 9, 9, 9", "step01",
         "step01 = 0, 9, 9, 9"),
        ("u1 = 1.535", "u0 = 1.535", "u0", "u0 = 1.535, 1.0, 0.0, cos"),
        ("step1 = ", "step0 = ", "step0", "step0 = 0, 0.1, 0.2, 0.2"),
        # t_final / dt = 500.5 and 501.5 would round to 500 and 502 steps
        ("t_final = 1.0", "t_final = 1.001", "t_final", "t_final = 1.001"),
        ("t_final = 1.0", "t_final = 1.003", "t_final", "t_final = 1.003"),
    ],
    ids=["negative-dt", "inf-t_final", "nan-dt", "nan-lambda", "nan-q", "fractional-stride",
         "negative-lambda", "colliding-switch", "short-q", "long-mom", "short-disturbance",
         "extra-input", "negative-mass", "superscript-input", "superscript-step",
         "leading-zero-input", "leading-zero-step", "zero-input", "zero-step",
         "t_final-short-of-steps", "t_final-past-steps"],
)
def test_cli_run_config_error(tmp_path, capsys, old, new, key, cited):
    text = CRANE_CFG.replace(old, new)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{key}\b", err)
    if cited is not None:
        assert f"line {text.splitlines().index(cited) + 1}: " in err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_noncommuting_factor(tmp_path, capsys):
    text = CRANE_CFG.replace("name = spider-crane", "name = spider-crane-cholesky")
    cfg = write(tmp_path, "chol.cfg", text)
    # refused with every other config error, before the output directory is made
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "commute" in err and "bracket" in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_noncommuting_factor(tmp_path, capsys):
    text = CRANE_CFG.replace("name = spider-crane", "name = spider-crane-cholesky")
    cfg = write(tmp_path, "chol.cfg", text)
    assert main(["sweep", cfg, "--param", "lambda", "--values", "0.8,2",
                 "-o", str(tmp_path / "out")]) == 2
    assert "commute" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.02").replace(
        "mom = 0, 0, 0", "mom = 0, 0, 0" + initial)
    assert main(["run", write(tmp_path, "run.cfg", text), "-o", str(tmp_path / "out")]) == 0
    assert len(adaptive_builds) == 1


@pytest.mark.parametrize("param, values", [("lambda", "0.4,2"), ("q0[2]", "0.5,1")])
def test_cli_sweep_builds_observer_per_value(tmp_path, adaptive_builds, param, values):
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.02")
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
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.02")
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
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.02")
    cfg = write(tmp_path, "model.cfg", text)
    assert main([command[0], cfg, *command[1:], "-o", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_edited_model_fields_rebuild_the_model():
    cfg = parse_config(CRANE_CFG)
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
    cfg_plain = write(tmp_path, "plain.cfg", CRANE_CFG)
    cfg_svg = write(tmp_path, "svg.cfg", CRANE_CFG.replace("emit_svg = false", "emit_svg = true"))
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
    cfg = write(tmp_path, "sweep.cfg", CRANE_CFG)
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
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.2")
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


def test_cli_sweep_bad_args(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", CRANE_CFG)
    assert main(["sweep", cfg, "--param", "bogus", "--values", "1"]) == 2
    assert main(["sweep", cfg, "--param", "lambda", "--values", ""]) == 2
    # a gain the prop1 observer does not read, and an entry past the end of q0
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--param", "psi5_extra", "--values", "1", "-o", out]) == 2
    assert main(["sweep", cfg, "--param", "q0[7]", "--values", "0.1", "-o", out]) == 2
    # non-finite values and a non-positive gain
    assert main(["sweep", cfg, "--param", "lambda", "--values", "nan", "-o", out]) == 2
    assert main(["sweep", cfg, "--param", "q0[2]", "--values", "inf", "-o", out]) == 2
    assert main(["sweep", cfg, "--param", "lambda", "--values", "-1", "-o", out]) == 2
    cfg = write(tmp_path, "sweep2.cfg", PROP2_CFG)
    assert main(["sweep", cfg, "--param", "lambda", "--values", "1", "-o", out]) == 2
    assert main(["sweep", cfg, "--param", "psi5_extra", "--values", "nan", "-o", out]) == 2
    # an index that is not an integer, and a value that is not a number, name their argument
    capsys.readouterr()
    for param, values, argument in [("q0[x]", "0.1", "--param"), ("q0[1.5]", "0.1", "--param"),
                                    ("q0[]", "0.1", "--param"), ("psi5_extra", "1,abc", "--values")]:
        assert main(["sweep", cfg, "--param", param, "--values", values, "-o", out]) == 2
        assert argument in capsys.readouterr().err, param


@pytest.mark.parametrize("values, named", [("1.0000001,0.5,1.0000002", ("1.0000001", "1.0000002")),
                                           ("2,0.5,2.0", ("2.0", "2.0"))])
def test_cli_sweep_rejects_values_whose_files_collide(tmp_path, capsys, values, named):
    # each value's files are tagged {value:g}: two values printing alike would
    # write one set, the second over the first, so the sweep refuses them
    # before anything is written
    cfg = write(tmp_path, "sweep.cfg", CRANE_CFG)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--param", "lambda", "--values", values, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --values:") and all(v in err for v in named)
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lambda", "--values", "1"]])
def test_cli_unusable_outdir(tmp_path, capsys, command):
    cfg = write(tmp_path, "run.cfg", CRANE_CFG)
    taken = write(tmp_path, "taken", "a file, not a directory\n")
    assert main([command[0], cfg, *command[1:], "-o", taken]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "taken" in err


def test_cli_outdir_from_config(tmp_path, monkeypatch):
    # without -o the config's [output] directory comes before MOMOBS_OUTDIR,
    # and dump_config keeps it
    cfg_out = tmp_path / "cfgout"
    text = CRANE_CFG.replace("t_final = 1.0", "t_final = 0.1").replace(
        "[output]\n", f"[output]\ndirectory = {cfg_out}\n")
    monkeypatch.setenv("MOMOBS_OUTDIR", str(tmp_path / "envout"))
    assert main(["run", write(tmp_path, "run.cfg", text)]) == 0
    assert (cfg_out / "timeseries.csv").exists()
    assert not (tmp_path / "envout").exists()
    cfg = parse_config(text)
    assert cfg.directory == str(cfg_out)
    assert parse_config(dump_config(cfg)) == cfg


def test_cli_outdir_from_environment(tmp_path, monkeypatch):
    cfg = write(tmp_path, "run.cfg", CRANE_CFG)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("MOMOBS_OUTDIR", str(env_out))
    assert main(["run", cfg]) == 0
    assert (env_out / "timeseries.csv").exists()


@pytest.mark.parametrize(
    "text, cause",
    [
        (CRANE_CFG.replace("lambda = 0.8", "lambda = 1e9").replace("t_final = 1.0", "t_final = 2.0"),
         "non-finite"),
        (CHOLESKY_PROBE_CFG, "LinAlgError"),
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


def test_cli_run_huge_start_scale_diverges(tmp_path, capsys):
    # r = 1e155 overflows r**2 to inf, in a run alone as in a lockstep row:
    # the run diverges in its first step, exit 3, and still writes its series
    text = PROP2_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 1e155")
    cfg = write(tmp_path, "big_r.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", cfg, "-o", str(tmp_path / "big_r")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("run diverged") and len(err.splitlines()) == 1, err
    assert (tmp_path / "big_r" / "timeseries.csv").read_text().count("\n") == 2  # header, t = 0


def test_cli_run_rejects_prop2_with_unknown_friction(tmp_path, capsys):
    text = CRANE_CFG.replace("kind = prop1", "kind = prop2").replace("lambda = 0.8", "")
    cfg = write(tmp_path, "mixed.cfg", text)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2
    assert "friction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def start(sc):
    """Observer state at t = 0 of a run of the scenario."""
    return integrate_scenario(replace(sc, t_final=sc.dt)).obs[0]


def test_observer_override_round_trips():
    text = CRANE_CFG.replace(
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
    text = CRANE_CFG.replace(
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
    text = CRANE_CFG.replace("kind = prop1\nlambda = 0.8", "kind = prop2").replace(
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


@pytest.mark.parametrize(
    "text, key",
    [
        (CRANE_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\np_i = 0.1, 0.2, 0.3, 0.4\nd_i = 1, 1"),
         "p_i"),
        (CRANE_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nqbar = 0.1, 0.1, 0.1"), "qbar"),
        (PROP2_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nru_i = 0.05"), "ru_i"),
        (PROP2_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 0.5"), "r"),
        (PROP2_CFG.replace("mom = 0, 0, 0", "mom = 0, 0, 0\nr = 1.5, 2"), "r"),
    ],
    ids=["prop1-missized-p_i", "prop1-qbar", "prop2-ru_i", "prop2-r-below-one",
         "prop2-vector-r"],
)
def test_observer_override_rejected(tmp_path, capsys, text, key):
    cfg = write(tmp_path, "override.cfg", text)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_sweep_needs_observer(tmp_path, capsys):
    text = CRANE_CFG.replace("kind = prop1\nlambda = 0.8", "kind = none")
    cfg = write(tmp_path, "noobs.cfg", text)
    assert main(["sweep", cfg, "--param", "lambda", "--values", "1"]) == 2
    assert "observer" in capsys.readouterr().err
