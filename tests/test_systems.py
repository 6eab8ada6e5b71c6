import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import momobs
from momobs import (
    AssumptionReport,
    FrictionSpec,
    ModelError,
    Scenario,
    build_named_model,
    check_zrs,
    crane_constants,
    factor_brackets,
    integrate_scenario,
    make_constant_inertia,
    make_planar_manipulator,
    make_spider_crane,
    make_spider_crane_cholesky,
    ManipulatorParams,
    sample_positions,
    SpiderCraneParams,
    regressor_matrices,
)
from momobs.geometry import FD_STEP, factor_structure, structural_samples, swapped_from_brackets
from momobs.model import central_differences

from oracles import swapped_by_tensordot

# a cable angle whose sin(q3) ** 2 rounds otherwise as an array's x * x than as a numpy
# float's libm pow
Q3_SQUARE_APART = 1.0186570831121868


def test_constant_identity_inertia():
    model = make_constant_inertia(np.eye(3), np.zeros((3, 3)))
    q = np.array([0.3, -0.2, 1.0])
    assert np.array_equal(model.factor(q), np.eye(3))
    assert np.array_equal(model.integral_map(q), q)


def test_constant_random_spd():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    M = A @ A.T + 3.0 * np.eye(3)
    model = make_constant_inertia(M, np.eye(3))
    T = model.factor(np.zeros(3))
    assert np.allclose(T @ T.T, model.minv(np.zeros(3)), atol=1e-12)
    assert np.allclose(T, T.T, atol=1e-12)  # symmetric square root
    # linear integral map differentiates exactly to the factor inverse
    q = rng.uniform(-1, 1, 3)
    assert np.allclose(
        model.integral_map(q), model.factor_inverse(q) @ q, atol=1e-12
    )


def test_constant_rejects_bad_inertia():
    with pytest.raises(ModelError):
        make_constant_inertia(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ModelError):
        make_constant_inertia(np.diag([1.0, -2.0]), np.eye(2))


@pytest.mark.parametrize("K", [[[1.0, 2.0, 3.0]], [[1.0, 2.0], [0.0, 1.0]], np.eye(3)])
def test_constant_rejects_bad_stiffness(K):
    # grad 0.5 q^T K q is K q only for a symmetric n x n K; a 1 x 3 K built and
    # then failed in K @ q mid-run
    with pytest.raises(ModelError, match="stiffness"):
        make_constant_inertia(np.eye(2), K)


def test_constant_energy_budget():
    # no friction, no input, no disturbance: total energy is conserved;
    # with friction it can only fall
    K = np.diag([1.0, 2.0])
    M = np.diag([1.0, 0.5])

    def energy_series(friction):
        model = make_constant_inertia(M, K, friction)
        sc = Scenario(model=model, observer="none", q0=[1.0, -0.5], mom0=[0.0, 0.3],
                      t_final=10.0, dt=1e-3, stride=100)
        ts = integrate_scenario(sc)
        return np.array([
            0.5 * mom @ model.minv(q) @ mom + model.potential(q)
            for q, mom in zip(ts.q, ts.mom)
        ])

    conserved = energy_series(FrictionSpec(np.zeros(2), np.ones(2, dtype=bool)))
    assert np.abs(conserved - conserved[0]).max() <= 1e-8
    damped = energy_series(FrictionSpec(np.array([0.5, 0.5]), np.ones(2, dtype=bool)))
    assert np.diff(damped).max() <= 1e-10
    assert damped[-1] < damped[0] - 1e-3


def test_crane_factor_constants():
    a, b, c = crane_constants(SpiderCraneParams())
    assert a == pytest.approx(1.0 / np.sqrt(1.5), rel=1e-15)
    assert c == pytest.approx(np.sqrt(12.0), rel=1e-15)
    assert b == pytest.approx(1.0 / (c * 0.5 * 0.5), rel=1e-15)


def test_crane_closed_form_inverse_inertia(crane):
    # the printed closed form for the inverse inertia and the factor product
    # are two independent formulas for the same matrix
    rng = np.random.default_rng(1)
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 3)
        T = crane.factor(q)
        assert np.linalg.norm(T @ T.T - crane.minv(q)) <= 1e-12


def test_crane_matches_direct_numeric_inverse(crane):
    # invert the mass matrix built from first principles
    p = SpiderCraneParams()
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        c3, s3 = np.cos(q[2]), np.sin(q[2])
        M = np.array(
            [
                [p.m_r + p.m, 0.0, p.m * p.L3 * c3],
                [0.0, p.m_r + p.m, p.m * p.L3 * s3],
                [p.m * p.L3 * c3, p.m * p.L3 * s3, p.m * p.L3**2],
            ]
        )
        assert np.linalg.norm(crane.minv(q) - np.linalg.inv(M)) < 1e-10


def test_crane_gravity_gradient(crane):
    q = np.array([0.0, 0.0, 0.4])
    g = crane.grad_potential(q)
    assert np.allclose(g, [0.0, 0.0, 1.0 * 9.81 * 0.5 * np.sin(0.4)])
    h = 1e-6
    e = np.array([0.0, 0.0, h])
    fd = (crane.potential(q + e) - crane.potential(q - e)) / (2 * h)
    assert g[2] == pytest.approx(fd, abs=1e-8)


def test_crane_unknown_rows_constant(crane, manipulator):
    rng = np.random.default_rng(3)
    for model in (crane, manipulator):
        kappa = model.friction.unknown_indices
        base = model.factor(rng.uniform(-np.pi, np.pi, model.n))[kappa]
        for _ in range(50):
            rows = model.factor(rng.uniform(-np.pi, np.pi, model.n))[kappa]
            assert np.abs(rows - base).max() <= 1e-12


def test_manipulator_factor_inverse_consistency(manipulator):
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 4)
        T = manipulator.factor(q)
        assert np.linalg.norm(T @ manipulator.factor_inverse(q) - np.eye(4)) <= 1e-12
        assert np.linalg.norm(T @ T.T - manipulator.minv(q)) <= 1e-12


def test_manipulator_unknown_indices(manipulator):
    assert np.array_equal(manipulator.friction.unknown_indices, [0, 1])


def test_cholesky_variant_shares_inertia(crane, crane_cholesky):
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        L = crane_cholesky.factor(q)
        assert np.allclose(L, np.tril(L))
        assert np.linalg.norm(L @ L.T - crane.minv(q)) <= 1e-12
        # the crane with another factor: everything but the factor is the crane's own
        for name in ("minv", "potential", "grad_potential", "input_matrix"):
            assert np.array_equal(getattr(crane_cholesky, name)(q), getattr(crane, name)(q)), name
    # every closed form of the crane's own factor is cleared
    for name in ("factor_inv", "factor_jac", "integral_map", "lip_factor_inv"):
        assert getattr(crane_cholesky, name) is None, name
    assert (crane_cholesky.n, crane_cholesky.m) == (crane.n, crane.m)
    assert np.array_equal(crane_cholesky.friction.coeffs, crane.friction.coeffs)
    assert np.array_equal(crane_cholesky.friction.known_mask, crane.friction.known_mask)
    assert not crane_cholesky.zrs


def assert_stacks_match_each_position(model, Q, evaluators):
    """Each evaluator on the stack Q equals its values at the rows of Q one by one, bit for bit."""
    for name, f in evaluators.items():
        stacked = f(Q)
        one_by_one = np.array([f(q) for q in Q])
        assert np.array_equal(stacked, one_by_one, equal_nan=True), name
        assert stacked.tobytes() == one_by_one.tobytes(), name  # signs of zero included


def positions_with_fd_points(n, seed, count=200):
    """count seeded positions followed by their central-difference points at the bracket step."""
    centres = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(count, n))
    shifted = centres[:, None, :] + FD_STEP * np.vstack([np.eye(n), -np.eye(n)])
    return np.vstack([centres, shifted.reshape(-1, n)])


def model_evaluators(model):
    """The model's stack-mapping evaluators, and the geometry built on them, by name."""
    evaluators = {
        "factor": model.factor,
        "factor_inverse": model.factor_inverse,
        "factor_jacobian": model.factor_jacobian,
        "factor_brackets": lambda q: factor_brackets(model, q),
    }
    if model.integral_map is not None:
        evaluators["integral_map"] = model.integral_map
    return evaluators


@pytest.mark.parametrize("name", ["crane", "manipulator", "const2"])
def test_stack_matches_each_position(request, name):
    # the stack contract of every shipped closed form: trig and arithmetic over
    # the stack's columns give each row the bits of its position alone.  The
    # crane's minv takes stacks too (the Cholesky crane factors it); it squares
    # by float_power, so a row at Q3_SQUARE_APART catches an array ** 2
    model = request.getfixturevalue(name)
    Q = positions_with_fd_points(model.n, seed=29)
    evaluators = model_evaluators(model)
    if name == "crane":
        Q = np.vstack([Q, [[0.3, -0.2, Q3_SQUARE_APART]]])
        evaluators["minv"] = model.minv
    assert_stacks_match_each_position(model, Q, evaluators)
    assert model.factor(Q).flags.c_contiguous and model.factor_inverse(Q).flags.c_contiguous


@pytest.mark.parametrize("n", [3, 4])
def test_matvec_and_vecmat_round_as_matmul(n):
    # the product rule of model's docstring, which the observers and the harness
    # rest on: np.matvec(m, v) and np.vecmat(v, m) give one vector, each row of a
    # (B, n) stack and each pair of a matrix stack the bits of m @ v and v @ m,
    # for C-ordered m and for F-ordered m (the transposes T.T the observers read)
    rng = np.random.default_rng(61 + n)
    draws = 2000
    mats = rng.normal(size=(draws, n, n)) * 10.0 ** rng.uniform(-3, 3, size=(draws, 1, 1))
    vecs = rng.normal(size=(draws, 4, n)) * 10.0 ** rng.uniform(-3, 3, size=(draws, 4, 1))

    def same(got, expected):
        return got.tobytes() == np.array(expected).tobytes()  # signs of zero included

    for layout in (mats, mats.mT):
        assert layout[0].flags.c_contiguous != layout[0].flags.f_contiguous
        mismatches = 0
        for m, stack in zip(layout, vecs):
            v = stack[0]
            mismatches += not same(np.matvec(m, v), m @ v)
            mismatches += not same(np.vecmat(v, m), v @ m)
            mismatches += not same(np.matvec(m, stack), [m @ row for row in stack])
            mismatches += not same(np.vecmat(stack, m), [row @ m for row in stack])
        assert mismatches == 0
        pairs = vecs[:, 0]
        assert same(np.matvec(layout, pairs), [m @ v for m, v in zip(layout, pairs)])
        assert same(np.vecmat(pairs, layout), [v @ m for m, v in zip(layout, pairs)])


def test_numpy_float_square_is_float_power():
    # the pow rule the crane's minv rests on: a numpy float's ** 2 calls libm pow,
    # which np.float_power(x, 2.0) calls on a scalar and on every entry of an
    # array alike, while an array's ** 2 multiplies x * x and rounds otherwise
    xs = np.concatenate([np.cos(np.random.default_rng(67).uniform(-np.pi, np.pi, 20000)),
                         [np.sin(Q3_SQUARE_APART)]])
    scalar_squares = np.array([np.float64(x) ** 2 for x in xs])
    assert np.float_power(xs, 2.0).tobytes() == scalar_squares.tobytes()
    assert all(np.float_power(x, 2.0) == s for x, s in zip(xs, scalar_squares))
    assert np.any(xs * xs != scalar_squares) and np.any(xs**2 != scalar_squares)
    assert xs[-1] * xs[-1] != scalar_squares[-1]


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_bracket_contraction_rounds_as_tensordot(n):
    # swapped_from_brackets on a (k, n, n, n) stack, with one vector or one per
    # row, gives each row the bits of the one-position np.tensordot contraction
    rng = np.random.default_rng(71 + n)
    k = 500
    br = rng.normal(size=(k, n, n, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1, 1))
    ps = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))

    def same(got, expected):
        return got.tobytes() == np.array(expected).tobytes()  # signs of zero included

    assert same(swapped_from_brackets(br, ps), [swapped_by_tensordot(b, p) for b, p in zip(br, ps)])
    assert same(swapped_from_brackets(br, ps[0]), [swapped_by_tensordot(b, ps[0]) for b in br])
    assert same(swapped_from_brackets(br[0], ps), [swapped_by_tensordot(br[0], p) for p in ps])
    for b, p in zip(br, ps):
        assert same(swapped_from_brackets(b, p), swapped_by_tensordot(b, p))


def test_cholesky_stack_matches_each_position(crane_cholesky):
    # the stack contract, bit for bit: at 200 seeded positions, their
    # central-difference points at the bracket step 1e-5 and a q3 where a
    # broadcast minv would round sin(q3)**2 differently, every stacked
    # evaluation equals the evaluations of its positions one by one
    model = crane_cholesky
    Q = np.vstack([positions_with_fd_points(3, seed=29), [[0.3, -0.2, Q3_SQUARE_APART]]])
    evaluators = {
        **model_evaluators(model),
        "central_differences[0]": lambda q: central_differences(model.factor, q, FD_STEP)[0],
        "central_differences[1]": lambda q: central_differences(model.factor, q, FD_STEP)[1],
        "factor_structure[0]": lambda q: factor_structure(model, q)[0],
        "factor_structure[1]": lambda q: factor_structure(model, q)[1],
    }
    assert_stacks_match_each_position(model, Q, evaluators)
    # the helper's centre is the factor itself; factor_structure is
    # factor_inverse and factor_brackets from one call
    assert central_differences(model.factor, Q, FD_STEP)[0].tobytes() == model.factor(Q).tobytes()
    assert factor_structure(model, Q)[0].tobytes() == model.factor_inverse(Q).tobytes()
    assert factor_structure(model, Q)[1].tobytes() == factor_brackets(model, Q).tobytes()


def check_zrs_one_by_one(model, samples):
    """check_zrs's report with every evaluator called at one position at a time."""
    n = model.n
    pair_max = np.zeros((n, n))
    for q in samples:
        pair_max = np.maximum(pair_max, np.linalg.norm(factor_brackets(model, q), axis=2))
    pair_norms = [(i, j, float(pair_max[i, j])) for i in range(n) for j in range(i + 1, n)]
    gradq = None
    if model.integral_map is not None:
        one_at_a_time = lambda xs: np.array([model.integral_map(x) for x in xs])
        gradq = max(
            float(np.linalg.norm(central_differences(one_at_a_time, q, FD_STEP)[1].T
                                 - model.factor_inverse(q)))
            for q in samples)
    kappa = model.friction.unknown_indices
    base = model.factor(samples[0])[kappa]
    worst = np.zeros(kappa.size)
    for q in samples[1:]:
        worst = np.maximum(worst, np.linalg.norm(model.factor(q)[kappa] - base, axis=1))
    return AssumptionReport(pair_norms, gradq, [(int(i), float(v)) for i, v in zip(kappa, worst)])


def regressor_matrices_from_stack(model):
    """Y from the first row of one factor call on the 100 samples of momobs check at seed 0."""
    rows = model.factor(sample_positions(model.n, 100))[0, model.friction.unknown_indices]
    return np.einsum("kj,ka->jak", rows, rows)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["crane", "manipulator", "crane_cholesky"])
def test_stacked_checks_match_one_by_one(request, name, seed):
    # check_zrs evaluates its samples in one stack, and its report is that of evaluating
    # one position at a time; regressor_matrices reads the first structural sample alone,
    # with the bits of that sample's row of a stack, for every model: it checks nothing
    model = request.getfixturevalue(name)
    samples = sample_positions(model.n, 100, seed=seed)
    assert check_zrs(model, samples).to_text() == check_zrs_one_by_one(model, samples).to_text()
    assert regressor_matrices(model).tobytes() == regressor_matrices_from_stack(model).tobytes()


def test_structural_samples_are_one_read_only_set(crane, monkeypatch):
    # the factories' probe and the adaptive observer's checks read one array, drawn once;
    # the regressor matrices read its first row
    samples = structural_samples(3)
    assert samples is structural_samples(3) and not samples.flags.writeable
    assert samples.tobytes() == sample_positions(3, 30).tobytes()
    read = []

    def factor(q):
        read.append(q)
        return crane.factor(q)

    model = momobs.systems._probed(replace(crane, factor=factor), "")
    check = momobs.adaptive.check_zrs
    monkeypatch.setattr(momobs.adaptive, "check_zrs",
                        lambda model, qs: read.append(qs) or check(model, qs))
    momobs.AdaptiveObserver(model)
    assert read[0] is samples and read[1] is samples  # the probe, then the checks
    assert read[-1].shape == (3,) and read[-1].base is samples  # Y, at the first sample


def test_structure_reports(crane, crane_cholesky, manipulator):
    samples3 = sample_positions(3, 40)
    assert check_zrs(crane, samples3).all_ok
    assert not check_zrs(crane_cholesky, samples3).zrs_ok
    assert check_zrs(manipulator, sample_positions(4, 40)).all_ok


def test_named_model_dispatch():
    crane = build_named_model("spider-crane", m_r=0.5, m=1.0, L3=0.5)
    assert crane.name == "spider-crane"
    manip = build_named_model("manipulator")
    assert manip.n == 4
    # the [model] keys of a constant-inertia config, known renamed to known_mask
    const = build_named_model("constant", M=[[2.0, 0.0], [0.0, 1.0]], K=[[1.0, 0.0], [0.0, 4.0]],
                              friction=(0.1, 0.2), known_mask=(False, True))
    assert const.name == "constant" and const.n == 2
    assert np.array_equal(const.friction.coeffs, [0.1, 0.2])
    assert np.array_equal(const.friction.known_mask, [False, True])
    assert np.allclose(const.minv(np.zeros(2)), np.diag([0.5, 1.0]))
    assert np.allclose(const.grad_potential(np.ones(2)), [1.0, 4.0])
    with pytest.raises(ModelError):
        build_named_model("hovercraft")


def test_params_validate():
    # masses, lengths and I must be positive: the factor is finite at L3 < 0 and l < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in [dict(m_r=-1.0), dict(m=0.0), dict(L3=-0.5), dict(m_r=np.nan)]:
            with pytest.raises(ModelError, match="masses m_r, m and cable length L3 must be "
                                                 "positive, got m_r = "):
                SpiderCraneParams(**params)
        for params in [dict(l=0.0), dict(I=-1.0), dict(M=-1.0), dict(l=-1.0)]:
            with pytest.raises(ModelError, match="I, M, m and l must be positive, got I = "):
                ManipulatorParams(**params)
    # T^-1's constant entries are a2 = sqrt(M m) l / sqrt(m + M), a3 = sqrt(M + m) and sqrt(I)
    I, M, m, l = (np.float64(k) for k in (2.0, 3.0, 0.5, 0.7))
    a2, a3 = np.sqrt(M * m) * l / np.sqrt(m + M), np.sqrt(M + m)
    rho, sI = np.sqrt(M / m), np.sqrt(I)
    Tinv = make_planar_manipulator(ManipulatorParams(I=2.0, M=3.0, m=0.5, l=0.7)).factor_inverse(
        np.zeros(4))
    assert (Tinv[0, 0], Tinv[1, 1], Tinv[2, 2], Tinv[3, 3], Tinv[3, 0]) == (sI, a2, a3, a3,
                                                                           -a2 * rho)


MAX = sys.float_info.max
# parameters whose factor cannot be formed or is not finite at the structural samples:
# constants that overflow or vanish, T T^T = M^-1 that overflows while T stays finite
# (the manipulator at M = 1e-320, l = 1e-200 and I = 5e-324), and a Cholesky crane whose
# rounded M^-1 has no Cholesky factor, or whose Python-float L3**2 overflows
CRANE_REFUSED = [dict(L3=1e200), dict(L3=1e-200), dict(m=1e-200, m_r=1e-200)]
REFUSED_MODELS = [
    *((make_spider_crane, SpiderCraneParams, p) for p in CRANE_REFUSED),
    *((make_spider_crane_cholesky, SpiderCraneParams, p) for p in CRANE_REFUSED),
    *((make_spider_crane_cholesky, SpiderCraneParams, {k: v})
      for k, values in [("m_r", (1e-200, 1e200, 1e308, MAX)), ("m", (1e200, 1e308, MAX))]
      for v in values),
    *((make_planar_manipulator, ManipulatorParams, p)
      for p in [dict(m=1e-320), dict(M=1e308, m=1e308), dict(l=np.inf), dict(M=1e-320),
                dict(l=1e-200), dict(I=5e-324)]),
]


@pytest.mark.parametrize("factory, params_of, values", REFUSED_MODELS,
                         ids=[f"{f.__name__}-{v}" for f, _, v in REFUSED_MODELS])
def test_factory_refuses_unformed_factor(factory, params_of, values):
    # a ModelError citing the values, with no RuntimeWarning on the way
    params = params_of(**values)
    names = ("m_r", "m", "L3") if params_of is SpiderCraneParams else ("I", "M", "m", "l")
    cited = ", ".join(f"{k} = {getattr(params, k)!r}" for k in names)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError) as refused:
            factory(params)
    assert str(refused.value) == ("the factor T, T T^T = M^-1 and any closed-form T^-1 must "
                                  "be formed and finite at the 30 structural sample positions, "
                                  f"got {cited}")


def test_constant_model_refuses_overflowing_inverse_inertia():
    # T = M^-1/2 holds 1e160, finite, but T T^T = M^-1 holds inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=re.escape("got M = [[1e-320, 0.0], [0.0, 1.0]]")):
            make_constant_inertia([[1e-320, 0.0], [0.0, 1.0]], np.eye(2))


def test_factories_build_at_extreme_finite_parameters():
    # finite factors build, a numerically singular one included: an observer refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert make_spider_crane_cholesky(SpiderCraneParams(L3=1e20)).factor_inv is None
        assert make_planar_manipulator(ManipulatorParams(l=1e308)).n == 4
        assert make_spider_crane(SpiderCraneParams(m_r=1e200)).n == 3
        assert make_constant_inertia(np.diag([1e-300, 1.0]), np.eye(2)).n == 2
