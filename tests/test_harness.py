import math
from dataclasses import fields, replace

import numpy as np
import pytest

from momobs import (
    AdaptiveObserver,
    DisturbanceSchedule,
    FrictionSpec,
    GeneralizedState,
    InputChannel,
    ModelError,
    ManipulatorParams,
    Metrics,
    Scenario,
    ScaledObserver,
    SpiderCraneParams,
    TimeSeries,
    compute_metrics,
    integrate_scenario,
    make_constant_inertia,
    make_planar_manipulator,
    make_spider_crane_cholesky,
    plant_derivative,
    rk4_step,
    share_plant,
    stage_terms,
)
from momobs import geometry, harness
from momobs.harness import _assemble_series, apply_sweep_value


def crane_prop1_scenario(crane, **kw):
    defaults = dict(
        model=crane,
        observer="prop1",
        gains={"lambda": 0.8},
        q0=[0.0, 0.0, 0.6],
        mom0=[0.0, 0.0, 0.0],
        inputs=(InputChannel(1.535, 1.0, 0.0, "cos"), InputChannel(7.67, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant([0.1, 0.2, 0.2]),
        t_final=5.0,
        dt=1e-3,
        stride=10,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_input_channel():
    ch = InputChannel(2.0, 3.0, 0.5, "sin")
    assert ch.value(0.2) == pytest.approx(2.0 * math.sin(3.0 * 0.2 + 0.5))
    with pytest.raises(ValueError):
        InputChannel(1.0, 1.0, 0.0, "square")
    with pytest.raises(ValueError):
        InputChannel(np.inf, 1.0, 0.0, "cos")


def test_scenario_validation(crane):
    with pytest.raises(ValueError):
        Scenario(model=crane, observer="kalman")
    with pytest.raises(ValueError):
        Scenario(model=crane, dt=-1.0)
    with pytest.raises(ValueError):
        Scenario(model=crane, q0=[0.0, 0.0])
    with pytest.raises(ValueError):
        Scenario(model=crane, disturbance=DisturbanceSchedule.constant([1.0]))
    # the sizes the config checks with their line, refused here for library callers
    with pytest.raises(ValueError):
        Scenario(model=crane, mom0=[0.0] * 4)
    with pytest.raises(ValueError):
        Scenario(model=crane, inputs=(InputChannel(1.0),) * 3)


def test_scenario_rejects_fractional_stride(crane):
    with pytest.raises(ValueError, match="stride"):
        Scenario(model=crane, t_final=0.01, dt=1e-3, stride=2.5)
    with pytest.raises(ValueError, match="stride"):
        Scenario(model=crane, stride=0)


@pytest.mark.parametrize(
    "model, observer, given, key",
    [
        ("crane", "prop2", dict(gains={"lambda": 5.0}), "lambda"),
        ("crane", "prop1", dict(gains={"psi5_extra": 9.0}), "psi5_extra"),
        ("crane", "none", dict(gains={"lambda": 1.0}), "lambda"),
        ("crane", "none", dict(obs_init={"p_i": [1.0, 2.0, 3.0]}), "p_i"),
        ("crane", "prop1", dict(obs_init={"qbar": [0.1, 0.1, 0.1]}), "qbar"),
        ("crane", "prop2", dict(gains={"psi4_extra": 0.0}), "psi4_extra"),
        ("crane", "prop1", dict(gains={"lambda": math.nan}), "lambda"),
        # refused by building the observer and its start with the scenario
        ("crane", "prop1", dict(obs_init={"p_i": [1.0, 2.0]}), "p_i"),
        ("crane_known", "prop2", dict(obs_init={"r": 0.5}), "scaling factor r"),
        ("crane_known", "prop2", dict(obs_init={"r": [1.5, 2.0]}), "r"),
        ("crane_known", "prop2", dict(obs_init={"qbar": [[1, 2], [3]]}), "qbar"),
        ("crane_known", "prop2", dict(obs_init={"qbar": "abc"}), "qbar"),
        ("crane_cholesky", "prop1", {}, "commute"),
        ("crane", "prop2", {}, "friction"),
    ],
    ids=["prop2-lambda", "prop1-psi5_extra", "none-lambda", "none-p_i", "prop1-qbar",
         "zero-psi4_extra", "nan-lambda", "missized-p_i", "prop2-r-below-one",
         "prop2-vector-r", "prop2-ragged-qbar", "prop2-text-qbar", "prop1-noncommuting",
         "prop2-unknown-friction"],
)
def test_scenario_refuses_what_its_observer_does_not_read(request, model, observer, given, key):
    # the library refuses what the config refuses, before any run starts
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        Scenario(model=request.getfixturevalue(model), observer=observer, **given)


def test_zero_dynamics_constant():
    model = make_constant_inertia(np.eye(2), np.zeros((2, 2)),
                                  FrictionSpec(np.zeros(2), np.ones(2, dtype=bool)))
    sc = Scenario(model=model, observer="none", q0=[0.5, -1.0], mom0=[0.0, 0.0],
                  t_final=2.0, dt=1e-3, stride=100)
    ts = integrate_scenario(sc)
    assert np.array_equal(ts.q, np.tile([0.5, -1.0], (ts.t.size, 1)))
    assert np.array_equal(ts.mom, np.zeros((ts.t.size, 2)))


def test_step_halving_order(crane):
    sc = crane_prop1_scenario(crane, t_final=5.0, dt=1e-3)
    half = replace(sc, dt=5e-4, stride=20)
    end_a = integrate_scenario(sc)
    end_b = integrate_scenario(half)
    diff = max(
        np.abs(end_a.q[-1] - end_b.q[-1]).max(),
        np.abs(end_a.mom[-1] - end_b.mom[-1]).max(),
        np.abs(end_a.obs[-1] - end_b.obs[-1]).max(),
    )
    assert diff <= 1e-7


def test_determinism(crane):
    sc = crane_prop1_scenario(crane, t_final=2.0)
    a = integrate_scenario(sc)
    b = integrate_scenario(sc)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.mom, b.mom)
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.lyap, b.lyap)


def test_observer_not_intrusive(crane):
    with_obs = integrate_scenario(crane_prop1_scenario(crane, t_final=2.0))
    without = integrate_scenario(
        crane_prop1_scenario(crane, t_final=2.0, observer="none", gains={})
    )
    assert np.array_equal(with_obs.q, without.q)
    assert np.array_equal(with_obs.mom, without.mom)


def plain_loop_states(sc):
    """The states integrate_scenario samples, from a plain loop over rk4_step.

    Each stage calls plant_derivative and the observer derivative with
    sc.input_value(t), each step reads its level with sched.value(t + 0.5 dt)
    and projects the observer state in place after the step.
    """
    model, obs, n, dt = sc.model, sc.build_observer(), sc.model.n, sc.dt
    sched = sc.disturbance.aligned(dt)

    def coupled(t, x, d):
        q, mom, z = x[:n], x[n : 2 * n], x[2 * n :]
        u = sc.input_value(t)
        qdot, momdot = plant_derivative(model, GeneralizedState(q, mom), u, d)
        return np.concatenate([qdot, momdot, obs.derivative(z, stage_terms(model, q, u))])

    x = np.concatenate([sc.q0, sc.mom0, obs.state_with(sc.q0, **sc.obs_init)])
    states = [x]
    steps = int(round(sc.t_final / dt))
    for k in range(steps):
        t = k * dt
        d = sched.value(t + 0.5 * dt)
        x = rk4_step(lambda tt, xx: coupled(tt, xx, d), t, x, dt)
        if hasattr(obs, "project"):
            obs.project(x[2 * n :])
        if (k + 1) % sc.stride == 0 or k + 1 == steps:
            states.append(x)
    return np.array(states)


@pytest.mark.parametrize("observer, t_final", [("prop1", 3.0), ("prop2", 1.0)])
def test_step_loop_matches_plain_loop_bit_for_bit(crane, crane_known, observer, t_final):
    # a level switch at 1.5 s, and inputs evaluated afresh at every stage: an
    # input from t + dt is not the one at the next step's (k + 1) dt
    sched = DisturbanceSchedule([0.0, 1.5], [[0.1, 0.2, 0.2], [0.4, 0.2, 0.2]])
    sc = crane_prop1_scenario(crane if observer == "prop1" else crane_known, observer=observer,
                              gains={}, mom0=[0.2, -0.1, 0.3], disturbance=sched,
                              t_final=t_final, dt=1e-3, stride=50)
    ts = integrate_scenario(sc)
    assert not ts.diverged
    assert np.array_equal(np.hstack([ts.q, ts.mom, ts.obs]), plain_loop_states(sc))


@pytest.mark.parametrize("observer, fixture", [("prop1", "crane"), ("prop2", "crane_known")])
def test_one_factor_evaluation_per_stage(request, observer, fixture):
    # the plant and the observer share each stage's T(q); the series reads T(q)
    # at every sample, t = 0 and the end of these short runs, in one stacked call
    model = request.getfixturevalue(fixture)
    calls = []
    counted = replace(model, factor=lambda q: calls.append(q) or model.factor(q))

    def factor_calls(steps):
        sc = crane_prop1_scenario(counted, observer=observer, gains={}, t_final=steps * 1e-3)
        del calls[:]  # the observer's structural checks at construction do not count
        integrate_scenario(sc)
        assert np.shape(calls[-1]) == (2, model.n)  # the two samples
        return len(calls)

    one_step, two_steps = factor_calls(1), factor_calls(2)
    assert two_steps - one_step == 4
    assert one_step == 4 + 1


def same_series(a: TimeSeries, b: TimeSeries) -> bool:
    """Every field equal; arrays element for element and bit for bit."""
    for f in fields(TimeSeries):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if not (isinstance(vb, np.ndarray) and np.array_equal(va, vb)
                    and va.tobytes() == vb.tobytes()):
                return False
        elif va != vb:
            return False
    return True


def gain_group(request, case):
    """Scenarios of one plant that differ in an observer gain, by case name."""
    switch = DisturbanceSchedule([0.0, 0.005], [[0.1, 0.2, 0.2], [0.4, -0.1, 0.2]])
    if case == "prop1_crane":
        sc = crane_prop1_scenario(request.getfixturevalue("crane"), t_final=0.5, stride=7)
        return [apply_sweep_value(sc, "lambda", lam) for lam in (0.4, 0.8, 2.0)]
    if case == "prop2_crane":
        sc = crane_prop1_scenario(request.getfixturevalue("crane_known"), observer="prop2",
                                  gains={}, t_final=0.3, stride=7)
        return [apply_sweep_value(sc, "psi5_extra", v) for v in (0.5, 1.0, 3.0)]
    if case == "prop2_manipulator":  # every friction known, no Lipschitz constant: secant bounds
        model = make_planar_manipulator(ManipulatorParams(known_mask=(True,) * 4))
        levels = [[0.0, 0.1, 0.0, 0.0], [0.2, -0.1, 0.0, 0.1]]
        sc = Scenario(model=model, observer="prop2", q0=[0.2, -0.1, 0.3, 0.1], mom0=[0.0] * 4,
                      inputs=(InputChannel(1.0, 1.0, 0.0, "cos"), InputChannel(0.5, 2.0, 0.0, "sin")),
                      disturbance=DisturbanceSchedule(switch.times, levels), t_final=0.1, dt=1e-3,
                      stride=7)
        return [apply_sweep_value(sc, "psi3_const", v) for v in (0.5, 1.0, 2.0)]
    # the non-commuting path, at the step it needs, across a disturbance switch
    cholesky = make_spider_crane_cholesky(SpiderCraneParams(friction=(0.0, 0.0, 0.5),
                                                            known_mask=(True, True, True)))
    sc = crane_prop1_scenario(cholesky, observer="prop2", gains={}, q0=[0.0, 0.0, 1.0],
                              disturbance=switch, t_final=0.01, dt=2.5e-4, stride=3)
    return [apply_sweep_value(sc, "psi5_extra", v) for v in (1.0, 2.0)]


def integrate_group(group):
    """share_plant the scenarios, integrate each once, and check the first call ran them all."""
    share_plant(group)
    lockstep = group[0]._lockstep
    assert lockstep is not None and all(sc._lockstep is lockstep for sc in group)
    series = []
    for sc in group:
        series.append(integrate_scenario(sc))
        assert lockstep.series is not None
    return series, lockstep


@pytest.mark.parametrize("case", ["prop1_crane", "prop2_crane", "prop2_manipulator",
                                  "prop2_cholesky"])
def test_shared_plant_replays_bit_for_bit(request, case):
    # a lockstep group's first call integrates every member on one plant;
    # each series equals its run alone, bit for bit
    solo = [integrate_scenario(sc) for sc in gain_group(request, case)]
    group = gain_group(request, case)
    share_plant(group)
    lockstep = group[0]._lockstep
    assert lockstep is not None and all(sc._lockstep is lockstep for sc in group)
    shared = []
    for i, sc in enumerate(group):
        shared.append(integrate_scenario(sc))
        assert len(lockstep.series) == len(group) - 1 - i  # the first call ran every member
    assert not any(ts.diverged for ts in solo)
    assert all(same_series(a, b) for a, b in zip(solo, shared))


@pytest.mark.parametrize("observer, fixture", [("prop1", "crane"), ("prop2", "crane_known")])
def test_replay_evaluates_no_plant_factor(request, observer, fixture):
    # the members of a lockstep group after the first evaluate no plant
    # factor: a group of two calls T(q) once per RK4 stage, shared by the
    # plant and both observers, and once on the stack of samples for all
    # series, as one run alone does
    model = request.getfixturevalue(fixture)
    calls = []
    counted = replace(model, factor=lambda q: calls.append(q) or model.factor(q))

    def factor_calls(steps, members):
        key = "lambda" if observer == "prop1" else "psi5_extra"
        sc = crane_prop1_scenario(counted, observer=observer, gains={}, t_final=steps * 1e-3)
        group = [apply_sweep_value(sc, key, v) for v in (1.0, 2.0)[:members]]
        share_plant(group)
        del calls[:]  # the observers' structural checks at construction do not count
        for member in group:
            integrate_scenario(member)
        return len(calls)

    assert factor_calls(1, 2) == factor_calls(1, 1) == 4 + 1
    assert factor_calls(2, 2) == factor_calls(2, 1)


def test_diverging_group_runs_each_member_alone(crane):
    # lambda = 1e8 blows up in the first step; the lockstep run is discarded
    # and every member, the finite ones included, runs alone on its call
    sc = crane_prop1_scenario(crane, t_final=0.2)
    values = (0.4, 1e8, 2.0)
    with np.errstate(all="ignore"):
        solo = [integrate_scenario(apply_sweep_value(sc, "lambda", v)) for v in values]
        shared, lockstep = integrate_group([apply_sweep_value(sc, "lambda", v) for v in values])
    assert [ts.diverged for ts in solo] == [False, True, False]
    assert solo[1].message.startswith("state became non-finite")
    assert all(same_series(a, b) for a, b in zip(solo, shared))
    assert lockstep.series == {}


@pytest.mark.parametrize("observer, fixture", [("prop1", "crane"), ("prop2", "crane_known")])
def test_lockstep_with_a_factor_in_another_layout(request, observer, fixture):
    # T(q) is shared by the rows; matmul rounds a Fortran-ordered T differently
    # from C order, so the stacked products must use it as each row alone does
    model = request.getfixturevalue(fixture)
    fortran = replace(model, factor=lambda q: np.asfortranarray(model.factor(q)))
    key = "lambda" if observer == "prop1" else "psi5_extra"
    sc = crane_prop1_scenario(fortran, observer=observer, gains={}, t_final=0.2)
    solo = [integrate_scenario(apply_sweep_value(sc, key, v)) for v in (0.4, 2.0)]
    shared, lockstep = integrate_group([apply_sweep_value(sc, key, v) for v in (0.4, 2.0)])
    assert all(same_series(a, b) for a, b in zip(solo, shared))
    assert not any(ts.diverged for ts in solo)


def test_group_raising_in_one_member_runs_each_member_alone(request):
    # on the non-commuting path rows run one by one; a ModelError in the
    # second row's derivative discards the lockstep: the first member's call
    # returns its run alone, and the second raises on its own call
    group = gain_group(request, "prop2_cholesky")
    solo = integrate_scenario(replace(group[0]))

    def no_inverse(z, terms):
        raise ModelError("factor is singular at this estimate")

    group[1].build_observer().derivative = no_inverse
    share_plant(group)
    assert same_series(solo, integrate_scenario(group[0]))
    assert group[0]._lockstep.series == {}
    with pytest.raises(ModelError, match="singular"):
        integrate_scenario(group[1])


def test_stacking_probes_the_model_at_the_plant_start(crane_known):
    # a group evaluates T^-1 nowhere a run alone does not: the layout probe
    # reads it at q0, so a model that fails off the trajectory still stacks
    def factor_inv(q):
        if not np.any(q):
            raise ModelError("probed at the origin")
        return crane_known.factor_inverse(q)

    model = replace(crane_known, factor_inv=factor_inv)
    sc = crane_prop1_scenario(model, observer="prop2", gains={}, t_final=0.05)
    group = [apply_sweep_value(sc, "psi5_extra", v) for v in (0.5, 3.0)]
    solo = [integrate_scenario(replace(s)) for s in group]
    share_plant(group)
    shared = [integrate_scenario(group[0])]
    assert len(group[0]._lockstep.series) == 1  # the lockstep ran to the end
    shared.append(integrate_scenario(group[1]))
    assert all(same_series(a, b) for a, b in zip(solo, shared))


def test_share_plant_groups_one_sample_stride(crane):
    # a group's series share one sampling: a scenario sampled at another
    # stride joins no group, and every series equals its run alone
    sc = crane_prop1_scenario(crane, t_final=0.05, stride=7)
    group = [*(apply_sweep_value(sc, "lambda", v) for v in (0.4, 2.0)),
             replace(sc, stride=1, gains={"lambda": 3.0})]
    solo = [integrate_scenario(replace(s)) for s in group]
    share_plant(group)
    assert group[0]._lockstep is group[1]._lockstep is not None
    assert group[2]._lockstep is None
    assert all(same_series(a, integrate_scenario(b)) for a, b in zip(solo, group))


def test_share_plant_groups_equal_plants_only(crane):
    sc = crane_prop1_scenario(crane, t_final=0.01)
    starts = [apply_sweep_value(sc, "q0[2]", v) for v in (0.5, 0.6)]
    share_plant(starts)
    assert all(s._lockstep is None for s in starts)
    gains = [apply_sweep_value(sc, "lambda", v) for v in (0.4, 2.0)]
    plant_only = replace(sc, observer="none", gains={})  # the same plant, another observer kind
    longer = replace(sc, t_final=0.02)
    share_plant([*gains, starts[0], longer, plant_only])
    lockstep = gains[0]._lockstep
    assert lockstep is not None and gains[1]._lockstep is lockstep
    assert lockstep.scenarios == [*gains]
    assert starts[0]._lockstep is None and longer._lockstep is None and plant_only._lockstep is None
    assert replace(gains[0])._lockstep is None  # a copy starts without


def test_plant_only_group_matches_solo_runs(crane):
    sc = crane_prop1_scenario(crane, observer="none", gains={}, t_final=0.05, stride=7)
    solo = integrate_scenario(sc)
    shared, _ = integrate_group([sc, replace(sc)])
    assert all(same_series(solo, ts) for ts in shared)


def stacked_cases(request, case):
    """(observers, states, terms) of one model: 40 rows with their own gains and states.

    Many rows, since numpy's ** on arrays rounds r**3 unlike libm's pow in about 5% of values.
    Each prop2 row draws its own psi3_const, psi4_extra and psi5_extra, so every per-row
    constant of the stacked schedule is pinned column by column.
    """
    rng = np.random.default_rng(sum(map(ord, case)))
    rows = 40
    if case.startswith("prop1"):  # on the manipulator, two unknown frictions: Phi is 4 x 2
        model = request.getfixturevalue(case.removeprefix("prop1_"))
        observers = [AdaptiveObserver(model, {"lambda": v}) for v in rng.uniform(0.2, 5.0, rows)]
    else:
        model = {"prop2_crane": lambda: request.getfixturevalue("crane_known"),
                 "prop2_constant": lambda: make_constant_inertia(
                     np.diag([2.0, 0.5]), np.diag([1.0, 2.0]),
                     FrictionSpec(np.array([0.4, 0.7]), np.array([True, True]))),
                 "prop2_manipulator": lambda: make_planar_manipulator(
                     ManipulatorParams(known_mask=(True,) * 4))}[case]()
        observers = [ScaledObserver(model, dict(zip(ScaledObserver.default_gains, margins)))
                     for margins in rng.uniform(0.2, 5.0, (rows, 3))]
    n = model.n
    q = rng.uniform(-1, 1, n)
    zs = np.array([obs.state_with(q) + rng.normal(scale=0.3, size=obs.dim) for obs in observers])
    if case.startswith("prop2"):
        zs[:, -1] = rng.uniform(0.5, 3.0, rows)  # r below one is read as one
        zs[[0, 1, 3], -1] = 1.0, 0.6, np.nan  # r below one is read as one; NaN stays NaN
        zs[2, :n] = q  # qbar = q, which one state samples nowhere and a stack samples at q
    terms = stage_terms(model, q, rng.normal(size=model.m))
    return observers, zs, terms


@pytest.mark.parametrize("case", ["prop1_crane", "prop1_manipulator", "prop2_crane",
                                  "prop2_constant", "prop2_manipulator"])
def test_stacked_derivative_rows_match_one_state_bit_for_bit(request, case):
    observers, zs, terms = stacked_cases(request, case)
    stacked = observers[0]._stacked(observers, terms.q)
    with np.errstate(invalid="ignore"):  # the row at r = NaN
        rates = stacked.derivative(zs, terms)
        ones = [obs.derivative(z.copy(), terms) for obs, z in zip(observers, zs)]
    assert rates.shape == zs.shape
    for rate, one in zip(rates, ones):
        assert np.array_equal(rate, one, equal_nan=True) and rate.tobytes() == one.tobytes()


def readout_scenario(request, case):
    """A short run by case name: gain_group's first member, or prop1 on the manipulator."""
    if case != "prop1_manipulator":
        return gain_group(request, case)[0]
    switch = DisturbanceSchedule([0.0, 0.005], [[0.0, 0.1, 0.0, 0.0], [0.2, -0.1, 0.0, 0.1]])
    return Scenario(model=request.getfixturevalue("manipulator"), observer="prop1",
                    q0=[0.2, -0.1, 0.3, 0.1], mom0=[0.0] * 4,
                    inputs=(InputChannel(1.0, 1.0, 0.0, "cos"), InputChannel(0.5, 2.0, 0.0, "sin")),
                    disturbance=switch, t_final=0.1, dt=1e-3, stride=7)


def readout_inputs(sc, ts):
    """diagnostics' arguments for a series: its (S, dim) states, positions, true momenta and d."""
    p_true = np.matvec(sc.model.factor(ts.q).mT, ts.mom)
    return ts.obs, ts.q, p_true, sc._schedule.value(ts.t)


@pytest.mark.parametrize("case", ["prop1_crane", "prop1_manipulator", "prop2_crane",
                                  "prop2_manipulator", "prop2_cholesky"])
def test_series_readout_matches_one_state_diagnostics_bit_for_bit(request, case):
    # one diagnostics call reads out a series' (S, dim) stack of samples: each row,
    # and each column of the series, is the one-state read-out of its sample
    sc = readout_scenario(request, case)
    ts = integrate_scenario(sc)
    assert not ts.diverged and ts.t.size > 5
    obs, inputs = sc.build_observer(), readout_inputs(sc, ts)
    stacked = obs.diagnostics(*inputs)
    ones = [obs.diagnostics(*(a.copy() for a in row)) for row in zip(*inputs)]
    assert set(stacked) == set(ones[0])
    for name, column in stacked.items():
        expected = np.array([one[name] for one in ones])
        assert column.shape == expected.shape == getattr(ts, name).shape
        assert column.tobytes() == expected.tobytes() == getattr(ts, name).tobytes(), name


@pytest.mark.parametrize("case", ["prop2_crane", "prop2_cholesky"])
def test_series_readout_evaluates_structures_once(request, monkeypatch, case):
    # a prop2 series reads T^-1 (and, on non-commuting columns, the brackets) at
    # all its samples' qbar in one call: factor_inv on the crane, factor_structure
    # on the Cholesky crane
    calls = []
    sc = readout_scenario(request, case)
    if case == "prop2_crane":
        model = sc.model
        sc = replace(sc, model=replace(model, factor_inv=lambda q: calls.append(q)
                                       or model.factor_inv(q)))
    else:
        structure = geometry.factor_structure
        monkeypatch.setattr(geometry, "factor_structure",
                            lambda model, q: calls.append(q) or structure(model, q))
    ts = integrate_scenario(sc)
    states = np.hstack([ts.q, ts.mom, ts.obs])
    del calls[:]
    (series,) = _assemble_series([sc], [sc.build_observer()], ts.t, states, "")
    assert len(calls) == 1 and np.shape(calls[0]) == (ts.t.size, sc.model.n)
    assert same_series(series, ts)


@pytest.mark.parametrize("case", ["prop2_crane", "prop2_manipulator"])
def test_overflowing_scale_gives_inf_alone_as_stacked(request, case):
    # at r = 1e160, r**2 overflows: one state's rate raises nothing and
    # equals its stacked row byte for byte, infinities and NaNs included
    observers, zs, terms = stacked_cases(request, case)
    zs[:, -1] = 1e160
    stacked = observers[0]._stacked(observers, terms.q)
    with np.errstate(all="ignore"):
        rates = stacked.derivative(zs, terms)
        ones = [obs.derivative(z.copy(), terms) for obs, z in zip(observers, zs)]
    assert not np.isfinite(rates).all()
    for rate, one in zip(rates, ones):
        assert rate.tobytes() == one.tobytes()


def test_huge_start_scale_builds_and_diverges(crane_known):
    # r = 1e155 overflows r**2 in the start's d_i = -q0 / r**2 and in every
    # gain: the scenario builds, and its run is flagged diverged
    with np.errstate(all="ignore"):
        sc = crane_prop1_scenario(crane_known, observer="prop2", gains={},
                                  obs_init={"r": 1e155}, t_final=0.05)
        ts = integrate_scenario(sc)
    assert ts.diverged and ts.t[-1] == 0.0


def test_stacked_projection_clamps_each_row(crane_known):
    obs = ScaledObserver(crane_known)
    zs = np.tile(obs.state_with(np.zeros(3)), (4, 1))
    zs[:, -1] = [0.5, 1.0, np.nan, 2.5]
    rows = zs.copy()
    obs.project(zs)
    for row in rows:
        obs.project(row)
    assert np.array_equal(zs, rows, equal_nan=True)
    assert zs[0, -1] == 1.0 and np.isnan(zs[2, -1]) and zs[3, -1] == 2.5


@pytest.mark.parametrize("t_final", [0.0015, 0.0025])
def test_scenario_refuses_t_final_off_the_step_grid(crane, t_final):
    # t_final / dt = 1.5 and 2.5 both round to 2 steps: the run would end at
    # t = 0.002, past the first t_final and short of the second
    with pytest.raises(ValueError, match=rf"t_final = {t_final}\b.*dt = 0\.001\b"):
        crane_prop1_scenario(crane, t_final=t_final, dt=0.001)


@pytest.mark.parametrize("dt", [1e-300, 1.0])
def test_scenario_refuses_step_counts_past_the_float_grid(crane, dt):
    # 1e300 / 1e-300 is inf, round(inf) overflowed; 1e300 steps of dt = 1 then
    # failed in np.arange: past 2**53 steps, k * dt cannot tell steps apart
    with pytest.raises(ValueError, match=r"t_final = 1e\+300\b.*dt = .*2\*\*53"):
        crane_prop1_scenario(crane, t_final=1e300, dt=dt)
    assert crane_prop1_scenario(crane, observer="none", gains={}, t_final=2.0**53,
                                dt=1.0).steps == 2**53


def test_scenario_refuses_an_input_angle_that_overflows(crane):
    # frequency * t overflows to inf before t_final = 2, and cos(inf) raised mid-run
    channels = (InputChannel(1.0), InputChannel(1.0, 1e308))
    with pytest.raises(ValueError, match="input channel 2"):
        Scenario(model=crane, inputs=channels, t_final=2.0, dt=0.5)
    with pytest.raises(ValueError, match="input channel 1"):
        Scenario(model=crane, inputs=(InputChannel(1.0, 1.0, 1.7e308),), t_final=1e308, dt=1e300)
    assert Scenario(model=crane, inputs=channels, t_final=1.0, dt=0.5).steps == 2


def test_scenario_accepts_float_quotient_steps(crane):
    # 0.3 / 0.1 is 2.9999999999999996 in floats: whole to 1e-9, so 3 steps
    assert 0.3 / 0.1 != 3
    assert crane_prop1_scenario(crane, t_final=0.3, dt=0.1, stride=1).steps == 3
    assert crane_prop1_scenario(crane, t_final=0.0025, dt=2.5e-4).steps == 10


def test_piecewise_disturbance_integration():
    # a free unit mass under a piecewise-constant force accumulates momentum
    # exactly level-by-level
    model = make_constant_inertia(np.eye(1), np.zeros((1, 1)),
                                  FrictionSpec(np.zeros(1), np.ones(1, dtype=bool)))
    sched = DisturbanceSchedule([0.0, 1.0, 3.0], [[1.0], [-2.0], [0.5]])
    sc = Scenario(model=model, observer="none", q0=[0.0], mom0=[0.0],
                  disturbance=sched, t_final=4.0, dt=1e-3, stride=1)
    ts = integrate_scenario(sc)
    expected = 1.0 * 1.0 + (-2.0) * 2.0 + 0.5 * 1.0
    assert ts.mom[-1, 0] == pytest.approx(expected, abs=1e-10)
    k1 = np.searchsorted(ts.t, 1.0)
    assert ts.mom[k1, 0] == pytest.approx(1.0, abs=1e-10)


def test_each_step_takes_the_level_in_force_at_its_midpoint(monkeypatch):
    # the loop walks the snapped switch times (here 0.003, 0.004, 0.005 and
    # 0.010, two of them one step apart, and one past t_final) and every stage
    # of step k reads the level DisturbanceSchedule.value gives at k dt + dt / 2
    model = make_constant_inertia(np.eye(1), np.zeros((1, 1)),
                                  FrictionSpec(np.zeros(1), np.ones(1, dtype=bool)))
    sched = DisturbanceSchedule([0.0, 0.0031, 0.004, 0.0049, 0.0101, 0.5],
                                [[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    sc = Scenario(model=model, observer="none", disturbance=sched, t_final=0.012, dt=1e-3)
    seen, plant_rhs = [], harness._plant_rhs

    def recording(model, terms, mom, d):
        seen.append(d[0])
        return plant_rhs(model, terms, mom, d)

    monkeypatch.setattr(harness, "_plant_rhs", recording)
    integrate_scenario(sc)
    mids = np.arange(sc.steps) * sc.dt + 0.5 * sc.dt
    assert seen == np.repeat(sched.aligned(sc.dt).value(mids)[:, 0], 4).tolist()
    assert seen[::4] == [1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.0, 5.0]


def test_divergence_truncates(crane):
    sc = crane_prop1_scenario(crane, gains={"lambda": 1e8}, t_final=5.0)
    with np.errstate(all="ignore"):
        ts = integrate_scenario(sc)
    assert ts.diverged
    assert "non-finite" in ts.message
    assert ts.t[-1] < 5.0
    assert np.all(np.isfinite(ts.q))


def test_metrics_zero_series():
    t = np.linspace(0.0, 1.0, 11)
    ts = TimeSeries(t=t, q=np.zeros((11, 1)), mom=np.zeros((11, 1)),
                    ptil_norm=np.zeros(11), dtil_norm=np.zeros(11),
                    rutil_norm=np.zeros(11), lyap=np.zeros(11))
    m = compute_metrics(ts)
    assert m.convergence_time == 0.0
    assert m.converged
    assert m.lyap_violations == 0


def test_metrics_exponential_series():
    # the momenta error falls through the 1e-2 convergence threshold at t = 3
    t = np.arange(0.0, 6.0, 0.01)
    decay = 1e-2 * np.exp(3.0 - t)
    ts = TimeSeries(t=t, q=np.zeros((t.size, 1)),
                    mom=np.zeros((t.size, 1)), ptil_norm=decay,
                    dtil_norm=decay, rutil_norm=decay, lyap=decay)
    m = compute_metrics(ts)
    assert abs(m.convergence_time - 3.0) <= 0.01 + 1e-12
    assert m.lyap_violations == 0


def test_metrics_not_converged():
    t = np.linspace(0.0, 1.0, 5)
    ones = np.ones(5)
    ts = TimeSeries(t=t, q=np.zeros((5, 1)), mom=np.zeros((5, 1)),
                    ptil_norm=ones, dtil_norm=ones, rutil_norm=ones, lyap=ones[::-1] * 0)
    m = compute_metrics(ts)
    assert math.isinf(m.convergence_time)
    assert not m.converged


def test_metrics_counts_violations():
    t = np.linspace(0.0, 1.0, 5)
    lyap = np.array([1.0, 0.9, 0.95, 0.8, 0.81])
    ts = TimeSeries(t=t, q=np.zeros((5, 1)), mom=np.zeros((5, 1)),
                    ptil_norm=np.zeros(5), dtil_norm=np.zeros(5),
                    rutil_norm=np.zeros(5), lyap=lyap)
    m = compute_metrics(ts)
    assert m.lyap_violations == 2
    assert m.lyap_max_violation == pytest.approx(0.05)


def test_metrics_text_and_sweep_csv():
    # one rendering per field: floats to 17 significant digits, the count as an
    # integer, the flag as true/false in metrics.txt and 1/0 in the sweep CSV
    m = Metrics(convergence_time=math.inf, converged=False, final_ptil=0.1, final_dtil=2.0,
                final_rutil=float("nan"), lyap_violations=3, lyap_max_violation=1e-3)
    assert m.to_text().splitlines() == [
        "convergence_time = inf", "converged = false", "final_ptil = 0.10000000000000001",
        "final_dtil = 2", "final_rutil = nan", "lyap_violations = 3", "lyap_max_violation = 0.001",
    ]
    settled = replace(m, convergence_time=1.25, converged=True, lyap_violations=0)
    assert Metrics.sweep_csv([(0.5, m), (2.0, settled)]).splitlines() == [
        "value,convergence_time,converged,final_ptil,final_dtil,final_rutil,lyap_violations,"
        "lyap_max_violation",
        "0.5,inf,0,0.10000000000000001,2,nan,3,0.001",
        "2,1.25,1,0.10000000000000001,2,nan,0,0.001",
    ]


def test_scaling_factor_projected_in_place(monkeypatch):
    # psi = 4 (1 + 59) = 240, so r falls at rate 60 (r - 1) from r = 1.5; the
    # derivative reads r below one as one, and the single RK4 step of 0.1 s
    # lands on r = 0.0, which the projection lifts to 1 inside the run's state
    friction = FrictionSpec(np.zeros(2), np.ones(2, dtype=bool))
    model = make_constant_inertia(np.eye(2), np.eye(2), friction)
    sc = Scenario(model=model, observer="prop2", gains={"psi3_const": 59.0},
                  obs_init={"r": 1.5}, t_final=0.1, dt=0.1)
    project = ScaledObserver.project
    landed = []
    monkeypatch.setattr(ScaledObserver, "project",
                        lambda self, z: landed.append(float(z[-1])) or project(self, z))
    ts = integrate_scenario(sc)
    assert landed == [0.0]
    assert not ts.diverged
    assert ts.scale.tolist() == [1.5, 1.0]
    assert ts.obs[-1, -1] == 1.0


def test_sweep_single_value_matches_run(crane):
    sc = crane_prop1_scenario(crane, t_final=2.0)
    direct = compute_metrics(integrate_scenario(replace(sc, gains={"lambda": 1.1})))
    swept_sc = apply_sweep_value(sc, "lambda", 1.1)
    assert swept_sc.gains == {"lambda": 1.1}
    assert compute_metrics(integrate_scenario(swept_sc)) == direct


def test_sweep_unknown_parameter(crane):
    sc = crane_prop1_scenario(crane)
    # unknown names, a gain prop1 does not read, and entries outside 0..n-1
    for param in ("gamma", "psi5_extra", "q0[3]", "q0[-1]", "mom0[7]", "q0[x]"):
        with pytest.raises(ValueError):
            apply_sweep_value(sc, param, 1.0)


def test_sweep_initial_condition_entry(crane):
    sc = crane_prop1_scenario(crane)
    swept = apply_sweep_value(sc, "q0[2]", 0.9)
    assert swept.q0[2] == 0.9
    assert sc.q0[2] == 0.6


def test_csv_layout_prop1(tmp_path, crane):
    sc = crane_prop1_scenario(crane, t_final=1.0, stride=100)
    ts = integrate_scenario(sc)
    labels = ts.column_labels()
    # t, 3 q, 3 mom, 3 phat, 3 dhat, 1 ruhat, ptil, dtil, rutil, lyap
    assert len(labels) == 18
    path = tmp_path / "run.csv"
    ts.to_csv(path)
    raw = path.read_text().splitlines()
    assert raw[0].split(",") == labels
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (ts.t.size, 18)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(data[:, 1:4], ts.q)


def test_csv_layout_prop2(tmp_path, crane_known):
    sc = Scenario(model=crane_known, observer="prop2", q0=[0, 0, 0.3],
                  t_final=0.5, dt=1e-3, stride=100)
    ts = integrate_scenario(sc)
    assert len(ts.column_labels()) == 17
    assert ts.column_labels()[-1] == "r"


def test_csv_layout_plain(tmp_path, crane):
    sc = crane_prop1_scenario(crane, observer="none", gains={}, t_final=0.5)
    ts = integrate_scenario(sc)
    assert len(ts.column_labels()) == 7
