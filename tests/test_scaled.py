import dataclasses
from pathlib import Path

import numpy as np
import pytest

from momobs import (
    DisturbanceSchedule,
    InputChannel,
    Obs2State,
    ScaledObserver,
    Scenario,
    StructureError,
    integrate_scenario,
    momenta_transform,
)
from momobs import (
    GeneralizedState,
    ManipulatorParams,
    SpiderCraneParams,
    make_constant_inertia,
    make_planar_manipulator,
    make_spider_crane_cholesky,
    plant_derivative,
    share_plant,
    stage_terms,
)
import momobs
import momobs.cli
from momobs.harness import _group_rate, apply_sweep_value

from oracles import derivative_by_three_calls, delta_bounds_by_three_calls, exact_observer_init

CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.fixture(scope="module")
def cholesky_known():
    params = SpiderCraneParams(friction=(0.0, 0.0, 0.5), known_mask=(True, True, True))
    return make_spider_crane_cholesky(params)


@pytest.fixture(scope="module")
def manipulator_known():
    return make_planar_manipulator(ManipulatorParams(known_mask=(True,) * 4))


@pytest.fixture(scope="module")
def manipulator_no_lip(manipulator_known):
    """The manipulator without T^-1's Lipschitz constant: commuting columns on the general path."""
    return dataclasses.replace(manipulator_known, lip_factor_inv=None)


@pytest.fixture(scope="module")
def const_known():
    friction = momobs.FrictionSpec(np.array([0.4, 0.7]), np.array([True, True]))
    return make_constant_inertia(np.diag([2.0, 0.5]), np.diag([1.0, 2.0]), friction)


def rotation(angle):
    """R(angle), the rotation by each angle of a stack, as a (..., 2, 2) stack."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


@pytest.fixture(scope="module")
def rotated_known():
    """The unit mass-spring pair with the factor T = R(q1): T T^T = I = M^-1 at every q, so the
    plant is make_constant_inertia's, but the columns do not commute (largest bracket norm 1).
    T^-1 = R^T and dT are closed forms, so the brackets are exact: a non-commuting model with
    no solved inverse and no finite-difference dT, in the factored momenta p = T^T mom of
    Venkatraman, Ortega, Sarras and van der Schaft (IEEE TAC 55(5), 2010)."""
    friction = momobs.FrictionSpec(np.array([0.3, 0.2]), np.array([True, True]))

    def factor_jac(q):  # dT/dq1 = R(q1 + pi/2), dT/dq2 = 0
        dT = np.zeros(q.shape[:-1] + (2, 2, 2))
        dT[..., 0, :, :] = rotation(q[..., 0] + np.pi / 2)
        return dT

    return dataclasses.replace(make_constant_inertia(np.eye(2), np.eye(2), friction),
                               factor=lambda q: rotation(q[..., 0]),
                               factor_inv=lambda q: rotation(-q[..., 0]), factor_jac=factor_jac,
                               integral_map=None, lip_factor_inv=None, name="rotated")


def test_params_validate(crane_known):
    # a margin that is not positive and a gain only the adaptive observer reads
    for gains, key in [({"psi3_const": 0.0}, "psi3_const"), ({"psi4_extra": 0.0}, "psi4_extra"),
                       ({"lambda": 1.0}, "lambda")]:
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            ScaledObserver(crane_known, gains)


def test_start_r_number_or_one_entry_vector(crane_known):
    obs = ScaledObserver(crane_known)
    q0 = np.array([0.1, -0.2, 0.7])
    z = obs.state_with(q0, r=1.5)
    assert np.array_equal(z, obs.state_with(q0, r=[1.5]))
    assert z[-1] == 1.5
    assert np.array_equal(z[9:12], -q0 / 1.5**2)  # d_i defaults to -q0 / r^2
    # a given d_i is kept
    assert np.array_equal(obs.state_with(q0, r=2.0, d_i=[1.0, 2.0, 3.0])[9:12], [1.0, 2.0, 3.0])
    # r below one is refused, named as the number it is
    for r in (0.5, [0.5]):
        with pytest.raises(ValueError, match=r"at least one, got 0\.5$"):
            obs.state_with(q0, r=r)


def test_rejects_unknown_friction(crane):
    with pytest.raises(StructureError):
        ScaledObserver(crane)


def test_mapping_constant_factor(const_known):
    obs = ScaledObserver(const_known)
    rng = np.random.default_rng(0)
    q = rng.uniform(-1, 1, 2)
    base = obs.psi * const_known.factor_inverse(q)
    for _ in range(5):
        assert np.allclose(obs.mapping_h(q, rng.normal(size=2)), base, atol=1e-14)


def test_mapping_zero_momenta(cholesky_known):
    # without momenta the swapped gyro matrix vanishes and only the factor
    # inverse remains, commuting columns or not
    obs = ScaledObserver(cholesky_known)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        expected = obs.psi * cholesky_known.factor_inverse(q)
        assert np.abs(obs.mapping_h(q, np.zeros(3)) - expected).max() < 1e-12


def test_mapping_affine_in_momenta(cholesky_known):
    obs = ScaledObserver(cholesky_known)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        resid = (
            obs.mapping_h(q, p1 + p2)
            - obs.mapping_h(q, p1)
            - obs.mapping_h(q, p2)
            + obs.psi * cholesky_known.factor_inverse(q)
        )
        assert np.abs(resid).max() < 1e-10


def delta_split(obs, q, qbar, phat, pbar):
    """(delta_q, delta_p) = (H(q, phat) - H(qbar, phat), H(qbar, phat) - H(qbar, pbar))."""
    h_bp = obs.mapping_h(qbar, phat)
    return obs.mapping_h(q, phat) - h_bp, h_bp - obs.mapping_h(qbar, pbar)


def test_delta_split_zero_and_telescoping(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, 3)
    phat = rng.normal(size=3)
    dq, dp = delta_split(obs, q, q, phat, phat)
    assert np.array_equal(dq, np.zeros((3, 3)))
    assert np.array_equal(dp, np.zeros((3, 3)))
    for _ in range(10):
        q, qbar = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        dq, dp = delta_split(obs, q, qbar, phat, pbar)
        total = obs.mapping_h(q, phat) - obs.mapping_h(qbar, pbar)
        assert np.abs(dq + dp - total).max() < 1e-13


def test_delta_bounds_analytic_crane(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        q, qbar = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        bound_q, bound_p = obs.delta_bounds(q, qbar, phat, pbar)
        dq, dp = delta_split(obs, q, qbar, phat, pbar)
        e_q = np.linalg.norm(qbar - q)
        e_p = np.linalg.norm(pbar - phat)
        assert np.linalg.norm(dq, 2) <= bound_q * e_q + 1e-12
        assert np.linalg.norm(dp, 2) <= bound_p * e_p + 1e-12
    assert bound_p == 0.0


def test_delta_bounds_constant_factor(const_known):
    obs = ScaledObserver(const_known)
    assert obs.delta_bounds(np.zeros(2), np.ones(2), np.ones(2), np.zeros(2)) == (0.0, 0.0)


def test_delta_bounds_numeric_fallback(cholesky_known, manipulator_no_lip):
    # the general path, on non-commuting columns and on commuting ones without a Lipschitz
    # constant, where the brackets and delta_p vanish
    for model in (cholesky_known, manipulator_no_lip):
        obs = ScaledObserver(model)
        n, rng = model.n, np.random.default_rng(5)
        for _ in range(50):
            q, qbar = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            phat, pbar = rng.normal(size=n), rng.normal(size=n)
            bound_q, bound_p = obs.delta_bounds(q, qbar, phat, pbar)
            dq, dp = delta_split(obs, q, qbar, phat, pbar)
            assert np.linalg.norm(dq, 2) <= bound_q * np.linalg.norm(qbar - q) + 1e-12
            assert np.linalg.norm(dp, 2) <= bound_p * np.linalg.norm(pbar - phat) + 1e-12
            # H is affine in momenta, so the momenta bound is the doubled exact slope
            exact = 2.0 * np.linalg.norm(dp, 2) / np.linalg.norm(pbar - phat)
            assert bound_p == pytest.approx(exact, rel=1e-12)
            # the stacked H's and their stacked SVD have the bits of each H formed at its
            # position alone and of each norm taken alone
            h_bp = obs.mapping_h(qbar, phat)
            secants = [np.linalg.norm(obs.mapping_h(x, phat) - h_bp, 2)
                       for x in obs._towards_q(qbar, q)]
            norm_dp = np.linalg.norm(h_bp - obs.mapping_h(qbar, pbar), 2)
            alone = obs._bounds(q - qbar, np.array(secants), norm_dp, phat - pbar)
            assert np.array(alone).tobytes() == np.array((bound_q, bound_p)).tobytes()
        # coincident arguments give zero bounds
        assert obs.delta_bounds(q, q, phat, phat) == (0.0, 0.0)


@pytest.mark.parametrize("params", [ManipulatorParams(), ManipulatorParams(I=2.0, M=3.0, m=0.5,
                                                                           l=1.7)])
def test_manipulator_lipschitz_constant(params):
    # |T^-1(q) - T^-1(q')|_2 <= L |q - q'| with L = 2 M l / sqrt(m + M) on random pairs and on
    # steps of 1e-3 to 1e-2 along (1, 1, 0, 0), where the slope reaches L (make_planar_manipulator)
    model = make_planar_manipulator(params)
    L = model.lip_factor_inv
    assert L == pytest.approx(2.0 * params.M * params.l / np.sqrt(params.m + params.M), rel=1e-15)
    rng = np.random.default_rng(36)
    q = rng.uniform(-np.pi, np.pi, (4000, 4))
    along = np.outer(rng.uniform(1e-3, 1e-2, 2000), [1.0, 1.0, 0.0, 0.0])
    ends = np.concatenate([rng.uniform(-np.pi, np.pi, (2000, 4)), q[2000:] + along])
    gaps = np.linalg.norm(model.factor_inv(ends) - model.factor_inv(q), 2, axis=(-2, -1))
    slopes = gaps / np.linalg.norm(ends - q, axis=-1)
    assert slopes.max() <= L * (1.0 + 1e-12)
    assert slopes.max() >= 0.99 * L


@pytest.mark.parametrize("name", ["cholesky_known", "crane_known", "manipulator_known",
                                  "manipulator_no_lip"])
def test_derivative_and_delta_bounds_match_three_call_oracle(request, name):
    # one stacked SVD per call gives each spectral norm the bits of its own numpy.linalg call:
    # 60 seeded states, every sixth with qbar = q and every sixth after those with e_p = 0
    # (q = 0, so phat = p_i + H(qbar, pbar) 0 = pbar), where delta_bounds gets phat = pbar
    model = request.getfixturevalue(name)
    obs = ScaledObserver(model)
    n, rng = model.n, np.random.default_rng(33)
    for k in range(60):
        q, qbar = rng.uniform(-1, 1, (2, n))
        pbar, p_i, d_i, phat = rng.normal(size=(4, n))
        if k % 6 == 0:
            qbar = q.copy()
        if k % 6 == 1:
            q, p_i, phat = np.zeros(n), pbar.copy(), pbar.copy()
        z = Obs2State(qbar, pbar, p_i, d_i, 1.0 + rng.exponential()).pack()
        terms = stage_terms(model, q, rng.normal(size=model.m))
        oracle = derivative_by_three_calls(obs, z, terms)
        assert obs.derivative(z, terms).tobytes() == oracle.tobytes()
        oracle = delta_bounds_by_three_calls(obs, q, qbar, phat, pbar)
        bounds = np.array(obs.delta_bounds(q, qbar, phat, pbar))
        assert bounds.tobytes() == np.array(oracle).tobytes()


def test_lockstep_secant_path_matches_three_call_oracle(manipulator_no_lip):
    # without a Lipschitz constant the manipulator takes the general path, secant bounds
    # included: its lockstep group has no stack kernel and steps its rows one by one, each row,
    # row 0 at qbar = q, the three-call derivative of its observer alone; a lockstep run of the
    # group equals its runs alone, bit for bit
    observers = [ScaledObserver(manipulator_no_lip, {"psi5_extra": v}) for v in (0.5, 1, 2, 4)]
    assert observers[0]._stacked(observers, np.zeros(4)) is None
    group_rate = _group_rate(observers, np.zeros(4))
    rng = np.random.default_rng(34)
    for _ in range(15):
        q = rng.uniform(-1, 1, 4)
        zs = np.array([obs.state_with(q) + rng.normal(scale=0.3, size=obs.dim)
                       for obs in observers])
        zs[0, :4] = q
        terms = stage_terms(manipulator_no_lip, q, rng.normal(size=2))
        for obs, z, rate in zip(observers, zs, group_rate(zs, terms)):
            assert rate.tobytes() == derivative_by_three_calls(obs, z, terms).tobytes()
    sc = Scenario(model=manipulator_no_lip, observer="prop2", q0=[0.2, -0.1, 0.3, 0.1],
                  mom0=[0.1, 0.0, -0.1, 0.0],
                  inputs=(InputChannel(1.0, 1.0, 0.0, "cos"), InputChannel(0.5, 2.0, 0.0, "sin")),
                  disturbance=DisturbanceSchedule.constant([0.0, 0.1, 0.0, 0.0]), t_final=0.03,
                  dt=1e-3, stride=7)
    solo = [integrate_scenario(apply_sweep_value(sc, "psi5_extra", v)) for v in (0.5, 2.0)]
    group = [apply_sweep_value(sc, "psi5_extra", v) for v in (0.5, 2.0)]
    share_plant(group)
    for alone, ts in zip(solo, map(integrate_scenario, group)):
        assert not alone.diverged and alone.obs.tobytes() == ts.obs.tobytes()
        assert alone.phat.tobytes() == ts.phat.tobytes()


def error_equation_gap(obs, z, dz, terms, p) -> float:
    """Relative distance of the observer's disturbance-error rate from Proposition 2's.

    With dhat = d_i + q / r^2, qdot = T(q) p and a constant disturbance, the rate of
    dtil = dhat - d is d_i' + T p / r^2 - 2 q r' / r^3, and the paper's error equation says it
    is -T(q) ptil / r^2, ptil = phat - p; dz is the rate of the state z, at r > 1.
    """
    n, q, T = obs.n, terms.q, terms.T
    r, r_dot = z[-1], dz[-1]
    rate = dz[3 * n : 4 * n] + T @ p / r**2 - 2.0 * q * r_dot / r**3
    paper = -T @ (obs.output(z, q).p - p) / r**2
    return np.linalg.norm(rate - paper) / np.linalg.norm(paper)


def random_state(rng, n):
    """A packed state: qbar uniform in [-1, 1]^n, pbar, p_i and d_i normal, r > 1."""
    qbar, (pbar, p_i, d_i) = rng.uniform(-1, 1, n), rng.normal(size=(3, n))
    return Obs2State(qbar, pbar, p_i, d_i, 1.0 + rng.exponential()).pack()


def random_stage(rng, model):
    """Stage terms at a position uniform in [-1, 1]^n and a true transformed momenta p."""
    q, p = rng.uniform(-1, 1, model.n), rng.normal(size=model.n)
    return stage_terms(model, q, rng.normal(size=model.m)), p


@pytest.mark.parametrize("name", ["crane_known", "cholesky_known", "manipulator_known",
                                  "rotated_known"])
def test_disturbance_error_obeys_the_error_equation(request, name):
    # a property of the paper, not of the code's bits: the d_i rate's 2 r' q / r^3 is what
    # makes dtil' = -T ptil / r^2 hold beside dhat's q / r^2 term
    model = request.getfixturevalue(name)
    obs, rng = ScaledObserver(model), np.random.default_rng(35)
    for _ in range(100):
        terms, p = random_stage(rng, model)
        z = random_state(rng, model.n)
        assert error_equation_gap(obs, z, obs.derivative(z, terms), terms, p) <= 1e-10


def test_stacked_disturbance_error_obeys_the_error_equation(crane_known):
    # the same property on each row of a 4-row lockstep stack kernel
    observers = [ScaledObserver(crane_known, {"psi5_extra": v}) for v in (0.5, 1, 2, 4)]
    stacked, rng = observers[0]._stacked(observers, np.zeros(3)), np.random.default_rng(37)
    for _ in range(50):
        terms, p = random_stage(rng, crane_known)
        zs = np.array([random_state(rng, 3) for _ in observers])
        for obs, z, dz in zip(observers, zs, stacked.derivative(zs, terms)):
            assert error_equation_gap(obs, z, dz, terms, p) <= 1e-10


def counting(model, calls, attrs=("factor", "factor_inv", "factor_jac")):
    """model whose evaluators append to calls[attr] the number of positions of each call."""

    def counted(attr):
        evaluate = getattr(model, attr)

        def wrapped(q):
            calls[attr].append(np.asarray(q).reshape(-1, model.n).shape[0])
            return evaluate(q)

        return wrapped

    present = [attr for attr in attrs if getattr(model, attr)]
    calls.update({attr: [] for attr in present})
    return dataclasses.replace(model, **{attr: counted(attr) for attr in present})


@pytest.mark.parametrize(
    "name, coincident, expected, stage",
    [
        # one derivative touches q, qbar, the nine bound_q secant samples strictly
        # between them and the two points of the H-rate difference.  Each position
        # is evaluated once, with its 2n central-difference points, in one of two
        # stacked factor calls: qbar, the samples and q before the bounds, the two
        # H-rate points after the gains.  T(q) is a stage term, evaluated outside
        # the derivative and shared with the plant.  Each H
        # is formed once: at (qbar, pbar), at (qbar, phat), at the samples and q
        # towards phat and at the two H-rate points, in three Jbar contractions:
        # at (qbar, pbar), one stack towards phat at qbar, the samples and q (the
        # gyro term reads Jbar(q, phat) as its last entry), and one stack at the
        # two H-rate points.  One SVD: one stack of every spectral norm the
        # schedule reads; each stack's T^-1 passes the singularity gate on its
        # norm certificate, without one.  The stage terms read T(q) and dT from
        # one factor call at q and its 2n shifted points.
        ("cholesky_known", False,
         {"factor": [11 * 7, 2 * 7], "brackets": 2, "swapped": 3, "svd": 1}, {"factor": [7]}),
        # qbar = q: no secant sample, so the first stack holds qbar alone
        ("cholesky_known", True,
         {"factor": [7, 2 * 7], "brackets": 2, "swapped": 3, "svd": 1}, {"factor": [7]}),
        # commuting columns, analytic dT and a Lipschitz bound: T^-1 at qbar and
        # q, dT at qbar for the exact H-rate, no factor call and no bracket at all,
        # and one SVD, of T(q), H(qbar, pbar) and delta_q T(q)
        ("crane_known", False,
         {"factor": [], "factor_inv": [1, 1], "factor_jac": [1], "brackets": 0, "swapped": 0,
          "svd": 1}, {"factor": [1], "factor_inv": [], "factor_jac": [1]}),
    ],
    ids=["cholesky", "cholesky-coincident", "crane"],
)
def test_derivative_structure_once_per_position(request, monkeypatch, name, coincident, expected,
                                                stage):
    model = request.getfixturevalue(name)
    calls = {"brackets": 0, "swapped": 0, "svd": 0}
    counted = counting(model, calls)

    def tallied(key, module, attr):
        evaluate = getattr(module, attr)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapped)

    tallied("brackets", momobs.geometry, "_brackets")
    tallied("swapped", momobs.scaled, "swapped_from_brackets")
    # every SVD, by name or inside numpy.linalg (np.linalg.norm(x, 2) and np.linalg.cond)
    tallied("svd", np.linalg, "svd")
    tallied("svd", np.linalg._linalg, "svd")
    rng = np.random.default_rng(14)
    q = rng.uniform(-1, 1, 3)
    qbar = q.copy() if coincident else rng.uniform(-1, 1, 3)
    z = Obs2State(qbar, rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), 1.3).pack()
    stage_calls = {}
    terms = stage_terms(counting(model, stage_calls), q, np.array([0.3, 0.1]))
    assert stage_calls == stage
    ScaledObserver(counted).derivative(z, terms)
    assert calls == expected


@pytest.mark.parametrize(
    "name, expected",
    [
        # analytic bounds: T^-1 at the four qbar rows and at q, once for all
        # rows, in one stack, and dT at the four qbar rows for the exact H-rate
        ("crane_known", {"factor": [], "factor_inv": [4 + 1], "factor_jac": [4]}),
        # the same on the manipulator, whose Lipschitz constant is a closed form too
        ("manipulator_known", {"factor": [], "factor_inv": [4 + 1], "factor_jac": [4]}),
    ],
    ids=["crane", "manipulator"],
)
def test_stacked_derivative_one_evaluator_call_per_stack(request, name, expected):
    model = request.getfixturevalue(name)
    calls = {}
    counted = counting(model, calls)
    rng = np.random.default_rng(15)
    observers = [ScaledObserver(counted, {"psi5_extra": v}) for v in (0.5, 1.0, 2.0, 4.0)]
    q = rng.uniform(-1, 1, model.n)
    zs = np.array([obs.state_with(q) + rng.normal(scale=0.3, size=obs.dim) for obs in observers])
    terms = stage_terms(model, q, rng.normal(size=model.m))  # terms of the uncounted model
    stacked = observers[0]._stacked(observers, q)
    del calls["factor_inv"][:], calls["factor_jac"][:]  # the layout probe at q0 does not count
    stacked.derivative(zs, terms)
    assert calls == expected


def spy_factor_and_jacobian(monkeypatch, calls):
    """Record in calls["T and dT"] the positions of each geometry._factor_and_jacobian call."""
    evaluate = momobs.geometry._factor_and_jacobian
    calls["T and dT"] = []
    monkeypatch.setattr(momobs.geometry, "_factor_and_jacobian", lambda model, q, h:
                        calls["T and dT"].append(len(q)) or evaluate(model, q, h))


def test_adaptive_setup_one_evaluator_call_per_stack(crane, monkeypatch):
    # the structural checks take their 30 samples in one stack per evaluator:
    # one T and dT, read for the brackets and the unknown-friction rows, the
    # integral map at every sample's 7 central-difference points, and T^-1;
    # the regressor matrices then read T at the first sample alone
    calls = {}
    counted = counting(crane, calls, ("factor", "factor_inv", "factor_jac", "integral_map"))
    spy_factor_and_jacobian(monkeypatch, calls)
    momobs.AdaptiveObserver(counted)
    assert calls == {"T and dT": [30], "factor": [30, 1], "factor_jac": [30],
                     "integral_map": [30 * 7], "factor_inv": [30]}


@pytest.mark.parametrize(
    "config, code, expected",
    [
        # the crane's T and dT come from factor and factor_jac on the 100 samples
        ("spider_crane_prop1.cfg", 0, {"factor": [100], "factor_jac": [100],
                                        "integral_map": [100 * 7], "factor_inv": [100]}),
        # the Cholesky crane has no factor_jac: T and dT come from one factor call
        # on every sample's 7 central-difference points, and it has no integral map
        ("spider_crane_cholesky_check.cfg", 1, {"factor": [100 * 7]}),
    ],
    ids=["crane", "cholesky"],
)
def test_check_one_evaluator_call_per_sample_set(monkeypatch, capsys, config, code, expected):
    calls = {}
    config_model = momobs.cli.config_model
    monkeypatch.setattr(momobs.cli, "config_model", lambda cfg: counting(
        config_model(cfg), calls, ("factor", "factor_inv", "factor_jac", "integral_map")))
    spy_factor_and_jacobian(monkeypatch, calls)
    assert momobs.cli.main(["check", str(CONFIGS / config)]) == code
    assert calls == {"T and dT": [100], **expected}


def schedule_inputs(obs, q, qbar, phat, pbar):
    """(|T(q)|^2, |H(qbar, pbar)|^2, squared delta_bounds), the squares the gain schedule reads."""
    norm_t = np.linalg.norm(obs.model.factor(q), 2)
    norm_h = np.linalg.norm(obs.mapping_h(qbar, pbar), 2)
    return norm_t**2, norm_h**2, [b**2 for b in obs.delta_bounds(q, qbar, phat, pbar)]


def test_gain_schedule_values(crane_known):
    obs = ScaledObserver(crane_known)  # default margins are all one
    assert obs.psi == pytest.approx(8.0)
    rng = np.random.default_rng(6)
    q = rng.uniform(-1, 1, 3)
    phat, pbar = rng.normal(size=3), rng.normal(size=3)
    gains = obs.gains(1.0, 1.0, *schedule_inputs(obs, q, q.copy(), phat, pbar))
    # with the scaling factor at rest the copy-gain margins are the extras
    assert gains.psi4 == pytest.approx(1.0)
    assert gains.psi5 == pytest.approx(1.0)
    assert gains.psi3 == pytest.approx(1.0)


def test_gain_schedule_independent_norms(crane_known):
    # recompute every gain formula with an eigenvalue-based induced norm
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q, qbar = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        r = 1.0 + rng.uniform(0, 0.5)
        gains = obs.gains(r, r**2, *schedule_inputs(obs, q, qbar, phat, pbar))

        def norm2(A):
            return np.sqrt(np.linalg.eigvalsh(A.T @ A).max())

        norm_t = norm2(crane_known.factor(q))
        norm_h = norm2(obs.mapping_h(qbar, pbar))
        bq, bp = obs.delta_bounds(q, qbar, phat, pbar)
        rtil = r - 1.0
        psi4 = r * rtil / (4.0 * 2.0) * norm_t**2 * bq**2 + 1.0
        psi5 = r * rtil / (4.0 * 2.0) * norm_t**2 * bp**2 + 1.0
        assert gains.psi == pytest.approx(8.0, abs=1e-12)
        assert gains.psi4 == pytest.approx(psi4, abs=1e-12)
        assert gains.psi5 == pytest.approx(psi5, abs=1e-12)
        assert gains.psi1 == pytest.approx(0.5 * r**2 * norm_t**2 + psi4, abs=1e-12)
        assert gains.psi2 == pytest.approx(0.5 * r**2 * norm_h**2 * norm_t**2 + psi5, abs=1e-12)


def test_output_proportional_cancellations(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(8)
    q = rng.uniform(-1, 1, 3)
    qbar, pbar = rng.uniform(-1, 1, 3), rng.normal(size=3)
    r = 1.5
    p_i = -obs.mapping_h(qbar, pbar) @ q
    d_i = -q / r**2
    z = Obs2State(qbar, pbar, p_i, d_i, r).pack()
    est = obs.output(z, q)
    assert np.allclose(est.p, 0.0, atol=1e-13)
    assert np.allclose(est.d, 0.0, atol=1e-13)


def test_output_disturbance_jacobian(crane_known):
    # the disturbance estimate moves as q / r^2: finite differences of the
    # output against q recover the scaled identity
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, 3)
    r = 1.7
    z = Obs2State(q.copy(), np.zeros(3), np.zeros(3), np.zeros(3), r).pack()
    h = 1e-6
    jac = np.zeros((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        jac[:, k] = (obs.output(z, q + e).d - obs.output(z, q - e).d) / (2 * h)
    assert np.abs(jac - np.eye(3) / r**2).max() < 1e-8


def test_derivative_rest_scale(crane_known):
    # with coincident copies and unit scale the scaling factor does not move
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(10)
    q = rng.uniform(-1, 1, 3)
    pbar = rng.normal(size=3)
    p_i = pbar - obs.mapping_h(q, pbar) @ q  # makes phat == pbar
    z = Obs2State(q.copy(), pbar, p_i, np.zeros(3), 1.0).pack()
    zdot = obs.derivative(z, stage_terms(crane_known, q, np.zeros(2)))
    assert zdot[-1] == 0.0


def test_eta_definition(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(11)
    q = rng.uniform(-1, 1, 3)
    mom = rng.normal(size=3)
    p = momenta_transform(crane_known, q, mom)
    # eta = (phat - p) / r, read through diagnostics as its norm
    d = np.zeros(3)
    for r, scale in ((1.0, 1.0), (2.0, 0.5)):
        p_i = 2.0 * p - obs.mapping_h(q, np.zeros(3)) @ q  # phat = 2 p
        z = Obs2State(q.copy(), np.zeros(3), p_i, np.zeros(3), r).pack()
        diag = obs.diagnostics(z, q, p, d)
        assert np.allclose(diag["phat"], 2.0 * p, atol=1e-10)
        assert diag["eta_norm"] == pytest.approx(np.linalg.norm(scale * p), abs=1e-10)
    # exact estimate gives zero scaled error
    p_i = p - obs.mapping_h(q, np.zeros(3)) @ q
    z = Obs2State(q.copy(), np.zeros(3), p_i, np.zeros(3), 1.3).pack()
    assert obs.diagnostics(z, q, p, d)["eta_norm"] == pytest.approx(0.0, abs=1e-12)


def scaled_scenario(model, t_final=4.0, dt=1e-3, **kw):
    return Scenario(
        model=model,
        observer="prop2",
        q0=kw.pop("q0", [0.0, 0.0, 0.5]),
        mom0=kw.pop("mom0", [0.1, -0.05, 0.1]),
        inputs=(InputChannel(1.0, 1.0, 0.0, "cos"), InputChannel(1.0, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant([0.1, 0.2, 0.2]),
        t_final=t_final,
        dt=dt,
        stride=kw.pop("stride", 10),
        **kw,
    )


def test_scale_invariant_random_scenarios(crane_known):
    rng = np.random.default_rng(12)
    for _ in range(5):
        sc = scaled_scenario(
            crane_known,
            t_final=2.0,
            q0=rng.uniform(-0.5, 0.5, 3),
            mom0=rng.uniform(-0.5, 0.5, 3),
        )
        ts = integrate_scenario(sc)
        assert not ts.diverged
        assert ts.scale.min() >= 1.0
        assert np.all(ts.eta_norm <= ts.ptil_norm + 1e-15)


def test_scaled_exact_initialization(crane_known):
    from dataclasses import replace

    sc = scaled_scenario(crane_known, t_final=3.0, dt=2.5e-4, stride=40)
    sc = replace(sc, obs_init=exact_observer_init(sc))
    ts = integrate_scenario(sc)
    e_q = np.linalg.norm(ts.obs[:, :3] - ts.q, axis=1)
    e_p = np.linalg.norm(ts.obs[:, 3:6] - ts.phat, axis=1)
    for series in (ts.ptil_norm, ts.dtil_norm, e_q, e_p, np.abs(ts.scale - 1.0)):
        assert series.max() <= 1e-9


def test_decay_rate_bound_along_run(crane_known):
    # sampled derivative of the error measure against the guaranteed rate:
    # kappa is the smallest of the three margins and a quarter of psi
    sc = scaled_scenario(crane_known, t_final=6.0, dt=1e-3, stride=5)
    ts = integrate_scenario(sc)
    obs = ScaledObserver(crane_known)
    kappa = min(1.0, 1.0, 1.0, obs.psi / 4.0)
    e_q = np.linalg.norm(ts.obs[:, :3] - ts.q, axis=1)
    e_p = np.linalg.norm(ts.obs[:, 3:6] - ts.phat, axis=1)
    quad = ts.eta_norm**2 + e_q**2 + e_p**2 + (ts.scale - 1.0) ** 2
    vdot = (ts.lyap[2:] - ts.lyap[:-2]) / (ts.t[2:] - ts.t[:-2])
    assert (vdot + kappa * quad[1:-1]).max() <= 1e-6


def max_lyapunov_rate(model):
    """Largest dV/dt along the coupled plant + observer field over 200 sampled states.

    Each state has exact copies (qbar = q, pbar = p), r in [1, 1.01], a
    momenta estimate off by N(0, 1e-3^2) and an exact disturbance estimate;
    V is diagnostics' lyap and dV/dt its central difference along the field,
    with step h = 1e-6.
    """
    obs = ScaledObserver(model)
    n = model.n
    u = np.array([1.0, -0.5])
    d = np.full(n, 0.1)
    rng = np.random.default_rng(0)
    h = 1e-6

    def field(x):
        q, mom, z = x[:n], x[n : 2 * n], x[2 * n :]
        qdot, momdot = plant_derivative(model, GeneralizedState(q, mom), u, d)
        return np.concatenate([qdot, momdot, obs.derivative(z, stage_terms(model, q, u))])

    def lyap(x):
        q, mom, z = x[:n], x[n : 2 * n], x[2 * n :]
        return obs.diagnostics(z, q, momenta_transform(model, q, mom), d)["lyap"]

    worst = -np.inf
    for _ in range(200):
        q, mom = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        p = momenta_transform(model, q, mom)
        r = rng.uniform(1.0, 1.01)
        phat = p + rng.normal(0.0, 1e-3, n)
        z = Obs2State(q.copy(), p, phat - obs.mapping_h(q, p) @ q, d - q / r**2, r).pack()
        x = np.concatenate([q, mom, z])
        f = field(x)
        worst = max(worst, (lyap(x + h * f) - lyap(x - h * f)) / (2 * h))
    return worst


@pytest.mark.parametrize(
    "model_name",
    [
        "const_known",
        "crane_known",
        "manipulator_known",
        *(pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: V rises along the field on a non-commuting factor")))
          for name in ("cholesky_known", "rotated_known")),
    ],
)
def test_lyapunov_certificate_pointwise(request, model_name):
    # the guarantee of the second observer, checked pointwise rather than along one run
    assert max_lyapunov_rate(request.getfixturevalue(model_name)) <= 1e-6


def test_mapping_h_rate_matches_extrapolated_derivative(rotated_known):
    # the rate of H(qbar, pbar) along the copy dynamics against a Richardson-extrapolated central
    # difference of mapping_h, step 1e-2 (its own error is below 1e-9 here); the H-rate's
    # difference step of 1e-6 reads within 1e-9 over these states, one of 1e-3 about 1.5e-7 off
    obs = ScaledObserver(rotated_known)
    rng = np.random.default_rng(21)
    h = 1e-2
    for _ in range(50):
        qbar, pbar, qbar_dot, pbar_dot = rng.uniform(-1, 1, (4, 2))

        def central(step):
            plus = obs.mapping_h(qbar + step * qbar_dot, pbar + step * pbar_dot)
            minus = obs.mapping_h(qbar - step * qbar_dot, pbar - step * pbar_dot)
            return (plus - minus) / (2 * step)

        exact = (4 * central(h / 2) - central(h)) / 3
        rate = obs._mapping_h_rate(rotated_known.factor_inverse(qbar), qbar, pbar, qbar_dot,
                                   pbar_dot)
        assert np.linalg.norm(rate - exact) <= 1e-8 * np.linalg.norm(exact)


def test_state_packing_roundtrip():
    rng = np.random.default_rng(13)
    st = Obs2State(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3),
                   rng.normal(size=3), 1.4)
    back = Obs2State.from_packed(st.pack(), 3)
    assert np.array_equal(back.qbar, st.qbar)
    assert np.array_equal(back.pbar, st.pbar)
    assert np.array_equal(back.p_i, st.p_i)
    assert np.array_equal(back.d_i, st.d_i)
    assert back.r == st.r


def test_noncommuting_factor_path(cholesky_known):
    # the observer's reason to exist: no commuting factor, no integral map,
    # still a convergent momenta estimate; kept short because every
    # derivative evaluation builds the bracket structure of the 13 positions
    # it touches numerically, in two stacked factor calls of 2n + 1 points
    # per position
    sc = Scenario(
        model=cholesky_known,
        observer="prop2",
        q0=[0.0, 0.0, 0.3],
        mom0=[0.05, -0.02, 0.05],
        inputs=(InputChannel(0.3, 1.0, 0.0, "cos"), InputChannel(0.3, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant([0.05, 0.1, 0.1]),
        t_final=0.5,
        dt=1e-3,
        stride=10,
    )
    ts = integrate_scenario(sc)
    assert not ts.diverged
    assert ts.scale.min() >= 1.0
    assert np.all(ts.eta_norm <= ts.ptil_norm + 1e-15)
    assert ts.lyap[-1] < ts.lyap[0]
    assert ts.ptil_norm[-1] < 0.5 * ts.ptil_norm[0]
