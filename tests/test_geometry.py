import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import momobs.cli
import momobs.geometry
from momobs import (
    AdaptiveObserver,
    AssumptionReport,
    FrictionSpec,
    ManipulatorParams,
    MechanicalModel,
    check_zrs,
    factor_brackets,
    grad_integral_map_residual,
    gyro_matrix,
    gyro_swapped,
    make_planar_manipulator,
    sample_positions,
    StructureError,
)
from momobs.geometry import FD_STEP, _brackets
from momobs.model import _factor_and_jacobian

from oracles import brackets_by_pairs


def lie_bracket(X, Y, q):
    """[X, Y](q), read from factor_brackets of a 2-dof model whose factor columns are X and Y."""

    def factor(x):
        # the stack contract of a model without factor_jac: (k, 2) -> (k, 2, 2), (2,) -> (2, 2)
        x = np.asarray(x, dtype=float)
        T = np.array([np.column_stack([X(p), Y(p)]) for p in x.reshape(-1, 2)])
        return T.reshape(x.shape + (2,))

    model = MechanicalModel(
        n=2, m=0, minv=None, potential=None, grad_potential=None, input_matrix=None,
        factor=factor, factor_inv=None,
        friction=FrictionSpec(np.zeros(2), np.ones(2, dtype=bool)),
    )
    return factor_brackets(model, q)[0, 1]


def test_constant_fields_commute():
    X = lambda q: np.array([1.0, 2.0])
    Y = lambda q: np.array([-0.5, 3.0])
    assert np.abs(lie_bracket(X, Y, np.array([0.3, -1.0]))).max() < 1e-12


def test_bracket_hand_computed():
    # [X, Y] for X = (q2, 0), Y = (0, q1) is (-q1, q2)
    X = lambda q: np.array([q[1], 0.0])
    Y = lambda q: np.array([0.0, q[0]])
    rng = np.random.default_rng(0)
    for q in rng.uniform(-2, 2, size=(10, 2)):
        out = lie_bracket(X, Y, q)
        assert np.abs(out - np.array([-q[0], q[1]])).max() < 1e-9


def test_bracket_antisymmetry():
    X = lambda q: np.array([np.sin(q[1]), np.cos(q[0])])
    Y = lambda q: np.array([q[0] * q[1], np.exp(0.3 * q[0])])
    rng = np.random.default_rng(1)
    for q in rng.uniform(-1.5, 1.5, size=(20, 2)):
        fwd = lie_bracket(X, Y, q)
        bwd = lie_bracket(Y, X, q)
        assert np.abs(fwd + bwd).max() < 2e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brackets_round_as_the_pair_loop(crane, crane_cholesky, manipulator, n):
    # one masked subtraction and its negatives give the pair loop's bytes, -0.0 below a 0.0 on
    # the models' sparse factors included, one position alone or a stack, and an exact 0.0
    # diagonal; an inf and a NaN in dT land where the loop's do
    rng = np.random.default_rng(40 + n)
    cases = [(rng.normal(size=(5, n, n)), rng.normal(size=(5, n, n, n)))]
    for model in (crane, crane_cholesky, manipulator):
        if model.n == n:
            cases.append(_factor_and_jacobian(model, sample_positions(n, 11), FD_STEP))
    for T, dT in cases:
        for at in (np.s_[:], np.s_[0]):
            got = _brackets(T[at], dT[at])
            assert got.tobytes() == brackets_by_pairs(T[at], dT[at]).tobytes()
    T, dT = cases[0]
    dT = dT.copy()
    dT[1, 0, 1, 0], dT[3, n - 1, 0, 1] = np.inf, np.nan
    got = _brackets(T, dT)
    assert np.array_equal(got, brackets_by_pairs(T, dT), equal_nan=True)
    assert not np.isfinite(got).all()
    diagonal = np.diagonal(got, axis1=-3, axis2=-2)
    assert diagonal.tobytes() == np.zeros(diagonal.shape).tobytes()


def test_crane_factor_columns_commute(crane):
    rng = np.random.default_rng(2)
    for q in rng.uniform(-np.pi, np.pi, size=(20, 3)):
        br = factor_brackets(crane, q)
        assert np.abs(br).max() < 1e-9


def test_check_zrs_crane_pass(crane):
    report = check_zrs(crane, sample_positions(3, 50))
    assert report.commuting_factor_ok
    assert report.integral_map_ok
    assert report.constant_rows_ok
    assert report.max_bracket_norm <= 1e-6
    assert report.gradq_residual <= 1e-6


def test_check_zrs_cholesky_fail(crane_cholesky):
    report = check_zrs(crane_cholesky, sample_positions(3, 50))
    assert not report.commuting_factor_ok
    assert report.max_bracket_norm > 1e-2
    assert report.gradq_residual is None
    # pair list carries the per-pair maxima
    assert any(v > 1e-2 for _, _, v in report.pair_norms)


def test_check_zrs_report_text(crane):
    text = check_zrs(crane, sample_positions(3, 10)).to_text()
    assert "max_bracket_norm" in text
    assert "commuting_factor = pass" in text


def test_report_verdicts_follow_residuals():
    # each verdict is its residual against STRUCTURE_TOL = 1e-6 or ROW_TOL = 1e-9,
    # and failures lists the failed ones in the adaptive observer's refusal order
    bad = AssumptionReport([(0, 1, 2e-6), (0, 2, 1e-7)], 3e-6, [(2, 2e-9)])
    assert not (bad.commuting_factor_ok or bad.integral_map_ok or bad.constant_rows_ok)
    assert bad.max_bracket_norm == 2e-6
    assert [residual for _, residual in bad.failures] == [2e-6, 3e-6, 2e-9]
    assert [message.split(" (")[0] for message, _ in bad.failures] == [
        "factor columns do not commute",
        "integral map Jacobian does not match the factor inverse",
        "unknown-friction rows of the factor vary with q",
    ]
    good = AssumptionReport([(0, 1, 1e-6)], None, [(2, 1e-9)])
    assert good.failures == [] and good.all_ok and good.integral_map_ok is None
    assert AssumptionReport([], None, []).max_bracket_norm == 0.0


def test_numpy_residuals_fail_alike():
    # a report built from numpy floats gives the verdicts, failures and all_ok
    # of the same Python floats
    bad = AssumptionReport([(0, 1, np.float64(2e-6))], np.float64(3e-6), [(2, np.float64(2e-9))])
    assert [residual for _, residual in bad.failures] == [2e-6, 3e-6, 2e-9]
    assert bad.integral_map_ok is False and not bad.zrs_ok and not bad.all_ok


def test_check_zrs_needs_samples(crane):
    with pytest.raises(ValueError):
        check_zrs(crane, [])


def test_gyro_zero_for_commuting_models(crane, manipulator, const2):
    rng = np.random.default_rng(3)
    for model in (crane, manipulator, const2):
        q = rng.uniform(-1, 1, model.n)
        p = rng.normal(size=model.n)
        assert np.array_equal(gyro_matrix(model, q, p), np.zeros((model.n, model.n)))


def test_gyro_skew_exact(crane_cholesky):
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = rng.uniform(-1, 1, 3)
        p = rng.normal(size=3)
        J = gyro_matrix(crane_cholesky, q, p)
        assert np.array_equal(J, -J.T)
        # entrywise reference J[j, k] = -p^T B[j, k] with B[j, k] = T^-1 [(T)_j, (T)_k]
        Tinv = crane_cholesky.factor_inverse(q)
        br = factor_brackets(crane_cholesky, q)
        ref = np.array([[-(p @ (Tinv @ br[j, k])) for k in range(3)] for j in range(3)])
        assert np.abs(J - ref).max() <= 1e-14 * np.abs(ref).max()
        # quadratic form of an exactly skew matrix is numerically negligible
        scale = max(np.abs(J).max() * (p @ p), 1e-300)
        assert abs(p @ (J @ p)) <= 1e-13 * scale


def test_gyro_reference_evaluates_the_factor_once(crane_cholesky):
    # T^-1 and the brackets come from one factor_structure call: one factor call
    # on q and its 2n central-difference points, bit for bit the two-call B
    calls = []

    def factor(q):
        calls.append(np.asarray(q).reshape(-1, 3).shape[0])
        return crane_cholesky.factor(q)

    model = replace(crane_cholesky, factor=factor)
    for q in sample_positions(3, 200, seed=5):
        p = q[::-1] - 0.3
        J = gyro_matrix(model, q, p)
        two_calls = np.einsum("kl,ijl->ijk", crane_cholesky.factor_inverse(q),
                              factor_brackets(crane_cholesky, q))
        assert np.array_equal(J, -two_calls @ p)
    assert calls == [7] * 200
    calls.clear()
    gyro_swapped(model, q, p)
    assert calls == [7]


def test_gyro_linear_in_momenta(crane_cholesky):
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(-1, 1, 3)
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(), rng.normal()
        lhs = gyro_matrix(crane_cholesky, q, a * p1 + b * p2)
        rhs = a * gyro_matrix(crane_cholesky, q, p1) + b * gyro_matrix(crane_cholesky, q, p2)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_gyro_swapped_identity(crane_cholesky):
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = rng.uniform(-1, 1, 3)
        p, pbar = rng.normal(size=3), rng.normal(size=3)
        lhs = gyro_matrix(crane_cholesky, q, p) @ pbar
        rhs = gyro_swapped(crane_cholesky, q, pbar) @ p
        assert np.abs(lhs - rhs).max() < 1e-10


def test_gyro_swapped_zero_cases(crane_cholesky, const2):
    q = np.array([0.2, -0.1, 0.4])
    assert np.abs(gyro_swapped(crane_cholesky, q, np.zeros(3))).max() < 1e-12
    assert np.array_equal(gyro_swapped(const2, np.zeros(2), np.ones(2)), np.zeros((2, 2)))


def test_grad_integral_map_residuals(crane, manipulator, const2):
    rng = np.random.default_rng(7)
    assert grad_integral_map_residual(const2, rng.uniform(-1, 1, 2)) <= 1e-9
    for _ in range(100):
        assert grad_integral_map_residual(manipulator, rng.uniform(-np.pi, np.pi, 4)) <= 1e-6
        assert grad_integral_map_residual(crane, rng.uniform(-np.pi, np.pi, 3)) <= 1e-6


def test_grad_integral_map_requires_map(crane_cholesky):
    with pytest.raises(ValueError):
        grad_integral_map_residual(crane_cholesky, np.zeros(3))


def test_sample_positions_contract():
    qs = sample_positions(4, 500, seed=2)
    assert qs.shape == (500, 4)
    assert np.all(qs >= -np.pi) and np.all(qs < np.pi)
    # fewer samples at a seed are the first rows of more, bit for bit
    for k in (1, 3, 30, 100, 499):
        assert sample_positions(4, k, seed=2).tobytes() == qs[:k].tobytes()
    # another seed draws another set
    assert np.intersect1d(sample_positions(4, 500, seed=3), qs).size == 0


def test_sample_positions_map_the_unit_interval_onto_a_half_open_range(monkeypatch):
    # the smallest and the largest draw of random.random map to -pi and just below pi
    class Extremes:
        def __init__(self, seed):
            self.draws = iter([0.0, 1.0 - 2.0 ** -53])

        def random(self):
            return next(self.draws)

    monkeypatch.setattr(momobs.geometry.random, "Random", Extremes)
    low, high = sample_positions(2, 1)[0]
    assert low == -np.pi
    assert high < np.pi


def test_sample_positions_ignore_the_hash_seed():
    # the draws come from random.Random(seed), whose integer seeding never hashes
    script = ("import sys; from momobs import sample_positions; "
              "sys.stdout.write(sample_positions(3, 50, seed=7).tobytes().hex())")
    src = str(Path(momobs.__file__).parents[1])
    outputs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)).stdout
        for hash_seed in ("0", "12345")
    ]
    assert outputs[0] == outputs[1] == sample_positions(3, 50, seed=7).tobytes().hex()


@pytest.mark.parametrize(
    "count, seed, what",
    [(10, -3, "seed"), (10, 1.5, "seed"), (10, "3", "seed"), (0, 0, "count"), (-2, 0, "count")],
    ids=["negative-seed", "float-seed", "str-seed", "zero-count", "negative-count"],
)
def test_sample_positions_refuse_bad_arguments(count, seed, what):
    # Random(-3) seeds as Random(3) does: a negative seed would repeat another's samples
    with pytest.raises(ValueError, match=what):
        sample_positions(3, count, seed)


def test_check_zrs_constant_factor_residuals(const2):
    report = check_zrs(const2, sample_positions(2, 30))
    assert report.max_bracket_norm <= 1e-9
    assert report.gradq_residual <= 1e-9
    assert report.all_ok


@pytest.mark.parametrize("key, value", [("l", "1e308")], ids=["long-link"])
def test_non_finite_integral_map_differences_fail_the_check(tmp_path, capsys, key, value):
    # a link whose factor constants are finite but whose integral map overflows:
    # its differences are not finite, so the residual is not either and fails
    # its verdict; neither check_zrs nor momobs check raises
    model = make_planar_manipulator(ManipulatorParams(**{key: float(value)}))
    with np.errstate(all="ignore"):
        report = check_zrs(model, sample_positions(4, 30))
    assert not np.isfinite(report.gradq_residual) and report.integral_map_ok is False
    config = tmp_path / "manipulator.cfg"
    config.write_text(f"[model]\nname = manipulator\n{key} = {value}\n")
    assert momobs.cli.main(["check", str(config)]) == 1
    captured = capsys.readouterr()
    assert "integral_map = FAIL" in captured.out.splitlines() and captured.err == ""


def with_nan_at(model, attr, entry, at):
    """model whose evaluator attr reads NaN in entry at the position at, in a stack or alone."""
    evaluate = getattr(model, attr)

    def poisoned(q):
        out = evaluate(q)
        index = (..., *entry)
        out[index] = np.where(np.all(q == at, axis=-1), np.nan, out[index])
        return out

    return replace(model, **{attr: poisoned})


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize(
    "attr, entry, lines",
    [
        # dT_3 read NaN in row 0, column 2: the bracket of columns 0 and 2 is NaN there
        ("factor_jac", (2, 0, 2),
         ["max_bracket_norm = nan", "bracket[0,2] = nan", "commuting_factor = FAIL"]),
        ("factor_inv", (0, 2), ["gradq_residual = nan", "integral_map = FAIL"]),
    ],
    ids=["bracket", "integral-map"],
)
def test_nan_residual_fails_its_verdict(crane, monkeypatch, capsys, attr, entry, lines, at):
    # a NaN residual at any one sample fails its verdict, whichever sample it is:
    # Python's max would skip it unless it came first.  The adaptive observer's
    # 30 samples and momobs check's 100 at seed 0 both start with these three
    samples = sample_positions(3, 3)
    model = with_nan_at(crane, attr, entry, samples[at])
    report = check_zrs(model, samples)
    assert all(line in report.to_text().splitlines() for line in lines)
    assert not report.all_ok
    with pytest.raises(StructureError):
        AdaptiveObserver(model)
    monkeypatch.setattr(momobs.cli, "config_model", lambda cfg: model)
    config = Path(__file__).parents[1] / "configs" / "spider_crane_prop1.cfg"
    assert momobs.cli.main(["check", str(config)]) == 1
    assert lines[-1] in capsys.readouterr().out
