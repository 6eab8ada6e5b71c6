"""Acceptance suite: one test per acceptance criterion, one verdict line each.

Long-horizon runs use a 2 ms step where no step size is pinned; the
integrator-order and cross-representation checks run at the stated 1 ms.
"""

import math
from dataclasses import asdict, replace

import numpy as np

from momobs import (
    AdaptiveObserver,
    DisturbanceSchedule,
    FrictionSpec,
    InputChannel,
    Obs1State,
    Scenario,
    SpiderCraneParams,
    check_zrs,
    compute_metrics,
    estimator_quadratics,
    grad_integral_map_residual,
    gyro_matrix,
    gyro_swapped,
    integrate_scenario,
    make_constant_inertia,
    make_planar_manipulator,
    make_spider_crane,
    make_spider_crane_cholesky,
    momenta_transform,
    regressor,
    regressor_matrices,
    sample_positions,
    share_plant,
    transformed_derivative,
)
from momobs.harness import apply_sweep_value
from momobs.model import _plant_rhs, stage_terms

from oracles import exact_observer_init, rk4_solve, velocity_quadratics

CRANE_INPUTS = (InputChannel(1.535, 1.0, 0.0, "cos"), InputChannel(7.67, 1.0, 0.0, "sin"))
CRANE_D = (0.1, 0.2, 0.2)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def example_models():
    rng = np.random.default_rng(100)
    A = rng.normal(size=(3, 3))
    spd = A @ A.T + 3.0 * np.eye(3)
    friction = FrictionSpec(np.array([0.3, 0.1, 0.6]), np.zeros(3, dtype=bool))
    return [
        make_constant_inertia(spd, np.eye(3), friction),
        make_planar_manipulator(),
        make_spider_crane(),
    ]


def test_criterion_1_structural_identities():
    rng = np.random.default_rng(1)
    worst_reg = 0.0
    worst_const = 0.0
    worst_swap = 0.0
    for model in example_models():
        n = model.n
        ymats = regressor_matrices(model)
        kappa = model.friction.unknown_indices
        for _ in range(1000):
            q = rng.uniform(-np.pi, np.pi, n)
            z = rng.normal(size=n)
            ru = rng.uniform(0.0, 2.0, kappa.size)
            ru_diag = np.zeros(n)
            ru_diag[kappa] = ru
            T = model.factor(q)
            lhs = T.T @ (ru_diag * (T @ z))
            rhs = regressor(ymats, z) @ ru
            worst_reg = max(worst_reg, np.abs(lhs - rhs).max())
        base = model.factor(rng.uniform(-np.pi, np.pi, n))[kappa]
        for _ in range(100):
            rows = model.factor(rng.uniform(-np.pi, np.pi, n))[kappa]
            worst_const = max(worst_const, float(np.abs(rows - base).max()) if kappa.size else 0.0)
        quads = estimator_quadratics(ymats)
        for Q in quads:
            assert np.array_equal(Q, Q.T)
        for j in range(n):
            stacked = np.column_stack([quads[k].T @ np.eye(n)[j] for k in range(len(quads))])
            assert np.array_equal(stacked, -ymats[j])
        assert np.array_equal(quads, -velocity_quadratics(model))

    chol = make_spider_crane_cholesky()
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, 3)
        p, pbar = rng.normal(size=3), rng.normal(size=3)
        J = gyro_matrix(chol, q, p)
        assert np.array_equal(J, -J.T)
        worst_swap = max(worst_swap, np.abs(J @ pbar - gyro_swapped(chol, q, pbar) @ p).max())
    ok = worst_reg <= 1e-12 and worst_const <= 1e-10 and worst_swap <= 1e-10
    report(1, ok, f"regressor {worst_reg:.2e} <= 1e-12, row constancy {worst_const:.2e} <= 1e-10, "
                  f"symmetry/stack exact, gyro swap {worst_swap:.2e} <= 1e-10")


def test_criterion_2_geometry_gates():
    crane = make_spider_crane()
    chol = make_spider_crane_cholesky()
    manip = make_planar_manipulator()
    samples3 = sample_positions(3, 100, seed=2)
    crane_report = check_zrs(crane, samples3)
    chol_report = check_zrs(chol, samples3)
    rng = np.random.default_rng(2)
    manip_resid = max(
        grad_integral_map_residual(manip, rng.uniform(-np.pi, np.pi, 4)) for _ in range(100)
    )
    ok = (
        crane_report.zrs_ok
        and crane_report.gradq_residual <= 1e-6
        and not chol_report.commuting_factor_ok
        and chol_report.max_bracket_norm > 1e-2
        and manip_resid <= 1e-6
    )
    report(2, ok, f"crane pass (gradq {crane_report.gradq_residual:.2e}), lower-Cholesky fail "
                  f"(bracket {chol_report.max_bracket_norm:.2e} > 1e-2), manipulator map "
                  f"{manip_resid:.2e} <= 1e-6")


def test_criterion_3_cross_representation():
    crane = make_spider_crane()
    d = np.array(CRANE_D)

    def u_of(t):
        return np.array([1.535 * math.cos(t), 7.67 * math.sin(t)])

    def plant_f(t, x):
        qd, md = _plant_rhs(crane, stage_terms(crane, x[:3], u_of(t)), x[3:], d)
        return np.concatenate([qd, md])

    def trans_f(t, x):
        qd, pd = transformed_derivative(crane, x[:3], x[3:], u_of(t), d)
        return np.concatenate([qd, pd])

    q0 = np.array([0.0, 0.0, 1.0])
    mom0 = np.array([0.2, -0.1, 0.3])
    _, xs = rk4_solve(plant_f, np.concatenate([q0, mom0]), 10.0, 1e-3, record_stride=10)
    _, ys = rk4_solve(
        trans_f, np.concatenate([q0, momenta_transform(crane, q0, mom0)]), 10.0, 1e-3,
        record_stride=10,
    )
    worst = 0.0
    for xk, yk in zip(xs, ys):
        worst = max(worst, np.abs(xk[:3] - yk[:3]).max())
        worst = max(worst, np.abs(momenta_transform(crane, xk[:3], xk[3:]) - yk[3:]).max())
    report(3, worst <= 1e-6, f"plant vs factored trajectories agree to {worst:.2e} <= 1e-6 over 10 s")


def crane_prop1_scenario(**kw):
    defaults = dict(
        model=make_spider_crane(),
        observer="prop1",
        gains={"lambda": 0.8},
        q0=[0.0, 0.0, 1.0],
        mom0=[0.0, 0.0, 0.0],
        inputs=CRANE_INPUTS,
        disturbance=DisturbanceSchedule.constant(CRANE_D),
        t_final=60.0,
        dt=2e-3,
        stride=50,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_criterion_4_adaptive_convergence():
    sc = crane_prop1_scenario()
    obs = AdaptiveObserver(sc.model, sc.gains)
    default = obs.state_with(np.asarray(sc.q0))
    rng = np.random.default_rng(42)

    starts = []
    for _ in range(5):
        z0 = default + 0.25 * rng.uniform(-1.0, 1.0, obs.dim)
        starts.append(replace(sc, obs_init=asdict(Obs1State.from_packed(z0, obs.n, obs.s))))
    share_plant([*starts, sc])  # six observers on one plant: it is integrated once

    worst_p = 0.0
    worst_viol = 0
    for start in starts:
        ts = integrate_scenario(start)
        i40 = np.searchsorted(ts.t, 40.0)
        worst_p = max(worst_p, ts.ptil_norm[i40:].max())
        worst_viol = max(worst_viol, compute_metrics(ts).lyap_violations)

    nominal = integrate_scenario(sc)
    worst_viol = max(worst_viol, compute_metrics(nominal).lyap_violations)
    dtil_end = nominal.dtil_norm[-1]
    rutil_end = nominal.rutil_norm[-1]
    ok = worst_p <= 1e-2 and worst_viol == 0 and dtil_end < 5e-2 and rutil_end < 5e-2
    report(4, ok, f"max momenta error after 40 s {worst_p:.2e} <= 1e-2 over 5 random starts, "
                  f"decay violations {worst_viol}, exciting-run parameter errors at 60 s: "
                  f"disturbance {dtil_end:.2e}, friction {rutil_end:.2e} < 5e-2")


def test_criterion_5_step_disturbance_tracking():
    levels = [0.1, 0.4, -0.2]
    switches = [0.0, 25.0, 50.0]
    sched = DisturbanceSchedule(switches, [[l, 0.2, 0.2] for l in levels])
    sc = crane_prop1_scenario(gains={"lambda": 2.0}, disturbance=sched, t_final=75.0)
    ts = integrate_scenario(sc)
    ends = switches[1:] + [75.0]
    details = []
    ok = True
    for level, t_end in zip(levels, ends):
        i_end = np.searchsorted(ts.t, t_end) - 1
        err = abs(ts.dhat[i_end, 0] - level)
        details.append(f"{level:+.1f}: {err:.2e}")
        ok = ok and err <= 5e-2
    report(5, ok, "estimate of first disturbance channel inside the 5e-2 band before each "
                  "switch (" + ", ".join(details) + ")")


def test_criterion_6_scaled_convergence():
    model = make_spider_crane(SpiderCraneParams(friction=(0.0, 0.0, 0.5),
                                                known_mask=(True, True, True)))
    sc = Scenario(
        model=model,
        observer="prop2",
        q0=[0.0, 0.0, 1.0],
        inputs=CRANE_INPUTS,
        disturbance=DisturbanceSchedule.constant(CRANE_D),
        t_final=50.0,
        dt=2e-3,
        stride=25,
    )
    ts = integrate_scenario(sc)
    i40 = np.searchsorted(ts.t, 40.0)
    max_p_late = ts.ptil_norm[i40:].max()
    min_r = ts.scale.min()
    eta_ok = bool(np.all(ts.eta_norm <= ts.ptil_norm + 1e-15))
    vdot = (ts.lyap[2:] - ts.lyap[:-2]) / (ts.t[2:] - ts.t[:-2])
    max_vdot = vdot.max()
    ok = max_p_late <= 1e-2 and min_r >= 1.0 and max_vdot <= 1e-6 and eta_ok
    report(6, ok, f"max momenta error after 40 s {max_p_late:.2e} <= 1e-2, min scale {min_r} >= 1, "
                  f"sampled decay rate max {max_vdot:.2e} <= 1e-6, scaled error within raw error")


def test_criterion_7_gain_trend():
    sc = crane_prop1_scenario()
    swept = [apply_sweep_value(sc, "lambda", lam) for lam in (0.4, 0.8, 2.0)]
    share_plant(swept)
    runs = [integrate_scenario(s) for s in swept]
    times = [compute_metrics(ts).convergence_time for ts in runs]
    ok = all(math.isfinite(t) for t in times) and times[0] >= times[1] >= times[2]
    report(7, ok, "convergence times " + ", ".join(f"{t:.2f}" for t in times)
                  + " s non-increasing in the gain")


def test_criterion_8_integrator_order():
    sc = crane_prop1_scenario(t_final=10.0, dt=1e-3, stride=100)
    half = replace(sc, dt=5e-4, stride=200)
    a = integrate_scenario(sc)
    b = integrate_scenario(half)
    diff = max(
        np.abs(a.q[-1] - b.q[-1]).max(),
        np.abs(a.mom[-1] - b.mom[-1]).max(),
        np.abs(a.obs[-1] - b.obs[-1]).max(),
    )
    report(8, diff <= 1e-7, f"step halving moves the final state by {diff:.2e} <= 1e-7")


def test_criterion_9_exact_initialization_invariance():
    gentle = dict(
        q0=[0.0, 0.0, 0.3],
        mom0=[0.1, -0.05, 0.1],
        inputs=(InputChannel(0.5, 1.0, 0.0, "cos"), InputChannel(0.5, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant(CRANE_D),
        t_final=10.0,
        stride=100,
    )
    sc1 = Scenario(model=make_spider_crane(), observer="prop1", gains={"lambda": 0.8}, dt=5e-4, **gentle)
    ts1 = integrate_scenario(replace(sc1, obs_init=exact_observer_init(sc1)))
    worst1 = max(ts1.ptil_norm.max(), ts1.dtil_norm.max(), ts1.rutil_norm.max())

    model2 = make_spider_crane(SpiderCraneParams(friction=(0.0, 0.0, 0.5),
                                                 known_mask=(True, True, True)))
    sc2 = Scenario(model=model2, observer="prop2", dt=2.5e-4, **gentle)
    ts2 = integrate_scenario(replace(sc2, obs_init=exact_observer_init(sc2)))
    e_q = np.linalg.norm(ts2.obs[:, :3] - ts2.q, axis=1)
    e_p = np.linalg.norm(ts2.obs[:, 3:6] - ts2.phat, axis=1)
    worst2 = max(ts2.ptil_norm.max(), ts2.dtil_norm.max(), e_q.max(), e_p.max(),
                 np.abs(ts2.scale - 1.0).max())
    ok = worst1 <= 1e-9 and worst2 <= 1e-9
    report(9, ok, f"error norms stay at {worst1:.2e} (adaptive) and {worst2:.2e} (scaled) <= 1e-9 "
                  "over 10 s from exact initialization")
