import dataclasses

import numpy as np
import pytest

from momobs import (
    DisturbanceSchedule,
    InputChannel,
    Obs2State,
    ScaledObserver,
    ScaledParams,
    Scenario,
    StructureError,
    exact_observer_init,
    integrate_scenario,
    momenta_transform,
)
from momobs.scaled import _spec_norm
from momobs import SpiderCraneParams, make_constant_inertia, make_spider_crane_cholesky
import momobs


@pytest.fixture(scope="module")
def cholesky_known():
    params = SpiderCraneParams(friction=(0.0, 0.0, 0.5), known_mask=(True, True, True))
    return make_spider_crane_cholesky(params)


@pytest.fixture(scope="module")
def const_known():
    friction = momobs.FrictionSpec(np.array([0.4, 0.7]), np.array([True, True]))
    return make_constant_inertia(np.diag([2.0, 0.5]), np.diag([1.0, 2.0]), friction)


def test_params_validate():
    with pytest.raises(ValueError):
        ScaledParams(psi3_const=0.0)


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


def test_delta_split_zero_and_telescoping(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, 3)
    phat = rng.normal(size=3)
    dq, dp = obs.delta_split(q, q, phat, phat)
    assert np.array_equal(dq, np.zeros((3, 3)))
    assert np.array_equal(dp, np.zeros((3, 3)))
    for _ in range(10):
        q, qbar = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        dq, dp = obs.delta_split(q, qbar, phat, pbar)
        total = obs.mapping_h(q, phat) - obs.mapping_h(qbar, pbar)
        assert np.abs(dq + dp - total).max() < 1e-13


def test_delta_bounds_analytic_crane(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        q, qbar = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        bound_q, bound_p = obs.delta_bounds(q, qbar, phat, pbar)
        dq, dp = obs.delta_split(q, qbar, phat, pbar)
        e_q = np.linalg.norm(qbar - q)
        e_p = np.linalg.norm(pbar - phat)
        assert _spec_norm(dq) <= bound_q * e_q + 1e-12
        assert _spec_norm(dp) <= bound_p * e_p + 1e-12
    assert bound_p == 0.0


def test_delta_bounds_constant_factor(const_known):
    obs = ScaledObserver(const_known)
    assert obs.delta_bounds(np.zeros(2), np.ones(2), np.ones(2), np.zeros(2)) == (0.0, 0.0)


def test_delta_bounds_numeric_fallback(cholesky_known):
    obs = ScaledObserver(cholesky_known)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q, qbar = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        phat, pbar = rng.normal(size=3), rng.normal(size=3)
        bound_q, bound_p = obs.delta_bounds(q, qbar, phat, pbar)
        dq, dp = obs.delta_split(q, qbar, phat, pbar)
        assert _spec_norm(dq) <= bound_q * np.linalg.norm(qbar - q) + 1e-12
        assert _spec_norm(dp) <= bound_p * np.linalg.norm(pbar - phat) + 1e-12
        # H is affine in momenta, so the momenta bound is the doubled exact slope
        exact = 2.0 * np.linalg.norm(dp, 2) / np.linalg.norm(pbar - phat)
        assert bound_p == pytest.approx(exact, rel=1e-12)
    # coincident arguments give zero bounds
    assert obs.delta_bounds(q, q, phat, phat) == (0.0, 0.0)


def test_derivative_structure_once_per_position(cholesky_known):
    # one derivative touches q, qbar, the bound_q secant samples (the last is
    # q itself) and the two points of the H-rate difference; each gets one
    # factor inverse and one bracket build of 1 + 2n factor calls
    calls = []

    def counted(q):
        calls.append(1)
        return cholesky_known.factor(q)

    obs = ScaledObserver(dataclasses.replace(cholesky_known, factor=counted))
    rng = np.random.default_rng(14)
    q = rng.uniform(-1, 1, 3)
    z = Obs2State(rng.uniform(-1, 1, 3), rng.normal(size=3), rng.normal(size=3),
                  rng.normal(size=3), 1.3).pack()
    obs.derivative(z, q, np.array([0.3, 0.1]))
    assert len(calls) <= 112


def test_gain_schedule_values(crane_known):
    obs = ScaledObserver(crane_known)  # default margins are all one
    assert obs.psi == pytest.approx(8.0)
    rng = np.random.default_rng(6)
    q = rng.uniform(-1, 1, 3)
    phat, pbar = rng.normal(size=3), rng.normal(size=3)
    state = Obs2State(q.copy(), pbar, np.zeros(3), np.zeros(3), 1.0)
    gains = obs.gains(state, q, phat)
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
        state = Obs2State(qbar, pbar, np.zeros(3), np.zeros(3), r)
        gains = obs.gains(state, q, phat)

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


def test_gains_reject_low_scale(crane_known):
    obs = ScaledObserver(crane_known)
    state = Obs2State(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        obs.gains(state, np.zeros(3), np.zeros(3))


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
    zdot = obs.derivative(z, q, np.zeros(2))
    assert zdot[-1] == 0.0


def test_eta_definition(crane_known):
    obs = ScaledObserver(crane_known)
    rng = np.random.default_rng(11)
    q = rng.uniform(-1, 1, 3)
    mom = rng.normal(size=3)
    p = momenta_transform(crane_known, q, mom)
    for r, scale in ((1.0, 1.0), (2.0, 0.5)):
        p_i = 2.0 * p - obs.mapping_h(q, np.zeros(3)) @ q  # phat = 2 p
        z = Obs2State(q.copy(), np.zeros(3), p_i, np.zeros(3), r).pack()
        eta = obs.eta(z, q, mom)
        assert np.allclose(eta, scale * p, atol=1e-10)
    # exact estimate gives zero scaled error
    p_i = p - obs.mapping_h(q, np.zeros(3)) @ q
    z = Obs2State(q.copy(), np.zeros(3), p_i, np.zeros(3), 1.3).pack()
    assert np.allclose(obs.eta(z, q, mom), 0.0, atol=1e-12)


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
    # derivative evaluation builds the bracket structure numerically, once
    # per position it touches
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
