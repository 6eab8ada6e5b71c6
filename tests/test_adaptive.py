from dataclasses import replace

import numpy as np
import pytest

from momobs import (
    AdaptiveObserver,
    DisturbanceSchedule,
    FrictionSpec,
    InputChannel,
    Scenario,
    SpiderCraneParams,
    StructureError,
    check_zrs,
    error_energy,
    estimator_quadratics,
    integrate_scenario,
    make_constant_inertia,
    make_spider_crane,
    regressor,
    regressor_matrices,
    stage_terms,
)
from momobs.geometry import structural_samples

from oracles import exact_observer_init, velocity_quadratics

C2 = 12.0  # crane factor constant c^2 at the default parameters


def all_unknown_identity(n=3):
    friction = FrictionSpec(0.1 * np.arange(1, n + 1), np.zeros(n, dtype=bool))
    return make_constant_inertia(np.eye(n), np.zeros((n, n)), friction)


def test_regressor_matrices_crane(crane):
    Y = regressor_matrices(crane)
    assert Y.shape == (3, 3, 1)
    assert np.array_equal(Y[0], np.zeros((3, 1)))
    assert np.array_equal(Y[1], np.zeros((3, 1)))
    assert np.allclose(Y[2].ravel(), [0.0, 0.0, C2], atol=1e-12)


def test_regressor_matrices_identity_factor():
    model = all_unknown_identity()
    Y = regressor_matrices(model)
    for j in range(3):
        expected = np.zeros((3, 3))
        expected[j, j] = 1.0
        assert np.allclose(Y[j], expected, atol=1e-14)


def test_regressor_matrices_manipulator(manipulator):
    # closed forms from the factor rows at unit constants: a2 = 1/sqrt(2)
    a2 = np.sqrt(0.5)
    Y = regressor_matrices(manipulator)
    y1 = np.zeros((4, 2))
    y1[0, 0] = 1.0
    y1[0, 1] = 1.0
    y1[1, 1] = -1.0 / a2
    y2 = np.zeros((4, 2))
    y2[0, 1] = -1.0 / a2
    y2[1, 1] = 1.0 / a2**2
    assert np.allclose(Y[0], y1, atol=1e-12)
    assert np.allclose(Y[1], y2, atol=1e-12)
    assert np.allclose(Y[2], 0.0, atol=1e-12)
    assert np.allclose(Y[3], 0.0, atol=1e-12)


def test_regressor_matrices_symmetry_relation(crane, manipulator):
    for model in (crane, manipulator):
        Y = regressor_matrices(model)
        n = model.n
        for i in range(n):
            for k in range(n):
                assert np.allclose(Y[k][i, :], Y[i][k, :], atol=1e-12)


def test_regressor_matrices_reject_varying_rows():
    # Y is read at one position, so one gate guards it: check_zrs's row verdict at the
    # structural samples, which the observer raises before it reads Y
    model = make_spider_crane(SpiderCraneParams(known_mask=(False, False, False)))
    ok, message, _ = check_zrs(model, structural_samples(3)).verdicts["constant_unknown_rows"]
    assert ok is False
    with pytest.raises(StructureError) as err:
        AdaptiveObserver(model)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["crane", "manipulator", "const2"])
def test_regressor_matrices_closed_form(request, name):
    # Y[j][:, k] = T[kappa_k, j] T[kappa_k, :]^T from the constant unknown-friction rows,
    # read at positions no sample set holds: prop1 runs cannot depend on the samples
    model = request.getfixturevalue(name)
    kappa = model.friction.unknown_indices
    ymats = regressor_matrices(model)
    for q in (np.zeros(model.n), np.full(model.n, 0.25), np.linspace(-3.0, 3.0, model.n)):
        rows = model.factor(q)[kappa]
        # each entry is one product, summed by einsum onto +0.0, so a -0.0 product reads +0.0
        closed = rows.T[:, None, :] * rows.T[None, :, :] + 0.0
        assert ymats.tobytes() == closed.tobytes()


def test_regressor_matrices_reject_nan_rows(crane):
    # an unknown-friction row that reads NaN at one structural sample is not constant
    bad = structural_samples(3)[5]

    def factor(q):
        T = crane.factor(q)
        T[..., 2, 2] = np.where(np.all(q == bad, axis=-1), np.nan, T[..., 2, 2])
        return T

    model = replace(crane, factor=factor)
    report = check_zrs(model, structural_samples(3))
    assert "row_residual[2] = nan" in report.to_text().splitlines()
    assert report.constant_rows_ok is False
    with pytest.raises(StructureError):
        AdaptiveObserver(model)


def test_regressor_identity(crane, manipulator):
    rng = np.random.default_rng(8)
    for model in (crane, manipulator, all_unknown_identity()):
        Y = regressor_matrices(model)
        kappa = model.friction.unknown_indices
        ru = model.friction.unknown_coeffs
        ru_diag = np.zeros(model.n)
        ru_diag[kappa] = ru
        for _ in range(200):
            q = rng.uniform(-np.pi, np.pi, model.n)
            z = rng.normal(size=model.n)
            T = model.factor(q)
            lhs = T.T @ (ru_diag * (T @ z))
            rhs = regressor(Y, z) @ ru
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_regressor_zero_argument(crane):
    Y = regressor_matrices(crane)
    assert np.array_equal(regressor(Y, np.zeros(3)), np.zeros((3, 1)))


def test_regressor_crane_third_axis(crane):
    # friction force on the swing axis: R_u e3 = r3 c^2 e3
    Y = regressor_matrices(crane)
    out = regressor(Y, np.array([0.0, 0.0, 1.0])) @ np.array([0.5])
    assert np.allclose(out, [0.0, 0.0, 0.5 * C2], atol=1e-12)


def test_velocity_quadratics(crane, manipulator):
    L = velocity_quadratics(crane)
    assert np.allclose(L[0], np.diag([0.0, 0.0, C2]), atol=1e-12)
    Lm = velocity_quadratics(manipulator)
    a2 = np.sqrt(0.5)
    first = np.zeros((4, 4))
    first[0, 0] = 1.0
    second = np.zeros((4, 4))
    second[:2, :2] = [[1.0, -1.0 / a2], [-1.0 / a2, 1.0 / a2**2]]
    assert np.allclose(Lm[0], first, atol=1e-12)
    assert np.allclose(Lm[1], second, atol=1e-12)
    for stack in (L, Lm):
        for Q in stack:
            assert np.array_equal(Q, Q.T)
            eigs = np.linalg.eigvalsh(Q)
            assert eigs.min() >= -1e-12
            assert np.sum(eigs > 1e-12) <= 1


def test_estimator_quadratics_stack_identity(crane, manipulator):
    for model in (crane, manipulator, all_unknown_identity()):
        Y = regressor_matrices(model)
        quads = estimator_quadratics(Y)
        n, s = model.n, model.friction.num_unknown
        for j in range(n):
            stacked = np.column_stack([quads[k].T @ np.eye(n)[j] for k in range(s)])
            assert np.array_equal(stacked, -Y[j])
        assert np.array_equal(quads, -velocity_quadratics(model))
        for Q in quads:
            assert np.array_equal(Q, Q.T)


def test_error_energy():
    assert error_energy(np.zeros(3), np.zeros(3), np.zeros(1)) == 0.0
    assert error_energy([1.0, 0.0], [0.0, 1.0], []) == pytest.approx(1.0)
    rng = np.random.default_rng(9)
    p, d, r = rng.normal(size=3), rng.normal(size=3), rng.normal(size=2)
    whole = np.concatenate([p, d, r])
    assert error_energy(p, d, r) == pytest.approx(0.5 * whole @ whole, rel=1e-14)
    # a stack of samples: one value per row, bit for bit the row's own
    stack = rng.normal(size=(6, 8))
    rows = [error_energy(row[:3], row[3:6], row[6:]) for row in stack]
    stacked = error_energy(stack[:, :3], stack[:, 3:6], stack[:, 6:])
    assert stacked.shape == (6,) and stacked.tobytes() == np.array(rows).tobytes()


def test_observer_requires_structure(crane_cholesky):
    with pytest.raises(StructureError) as err:
        AdaptiveObserver(crane_cholesky, {"lambda": 0.8})
    # the failure reports how badly the columns fail to commute
    assert "commute" in str(err.value) or err.value.residual is not None


def test_observer_refuses_mismatched_integral_map(crane):
    doubled = replace(crane, integral_map=lambda q: 2.0 * crane.integral_map(q))
    with pytest.raises(StructureError, match="integral map Jacobian does not match") as err:
        AdaptiveObserver(doubled)
    assert err.value.residual == pytest.approx(1.80, abs=5e-3)


def test_observer_refuses_varying_unknown_rows():
    # the crane's first factor row varies with q; marking its friction unknown breaks prop1
    model = make_spider_crane(SpiderCraneParams(known_mask=(False, True, True)))
    with pytest.raises(StructureError, match="rows of the factor vary") as err:
        AdaptiveObserver(model)
    # the residual is the row's largest drift from the first of the observer's 30 samples
    qs = structural_samples(3)
    first = model.factor(qs[0])[0]
    assert err.value.residual == max(float(np.linalg.norm(model.factor(q)[0] - first))
                                     for q in qs[1:])


def test_observer_refuses_missing_integral_map(crane):
    with pytest.raises(StructureError, match="model has no integral map") as err:
        AdaptiveObserver(replace(crane, integral_map=None))
    assert err.value.residual is None


def test_observer_requires_positive_gain(crane):
    with pytest.raises(ValueError):
        AdaptiveObserver(crane, {"lambda": 0.0})
    # a NaN gain and a gain only the scaled observer reads are refused by name
    for gains, key in [({"lambda": float("nan")}, "lambda"), ({"psi5_extra": 1.0}, "psi5_extra")]:
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            AdaptiveObserver(crane, gains)


def test_output_neutral_state(crane):
    obs = AdaptiveObserver(crane, {"lambda": 0.8})
    rng = np.random.default_rng(10)
    q = rng.uniform(-1, 1, 3)
    z = np.concatenate([-0.8 * crane.integral_map(q), np.zeros(1), -q])
    est = obs.output(z, q)
    assert np.allclose(est.p, 0.0, atol=1e-14)
    assert np.allclose(est.ru, 0.0, atol=1e-14)
    assert np.allclose(est.d, 0.0, atol=1e-14)


def test_default_state_gives_zero_estimates(crane):
    obs = AdaptiveObserver(crane, {"lambda": 1.3})
    q0 = np.array([0.4, -0.2, 0.9])
    est = obs.output(obs.state_with(q0), q0)
    assert np.allclose(est.p, 0.0, atol=1e-14)
    assert np.allclose(est.d, 0.0, atol=1e-14)


def test_proportional_friction_gradient(crane):
    # gradient of the quadratic term must equal -(1/lam) * transposed regressor
    obs = AdaptiveObserver(crane, {"lambda": 0.7})
    rng = np.random.default_rng(11)
    phat = rng.normal(size=3)
    h = 1e-6
    grad = np.zeros((obs.s, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        grad[:, k] = (obs.proportional_friction(phat + e)
                      - obs.proportional_friction(phat - e)) / (2 * h)
    expected = -(1.0 / 0.7) * regressor(obs.ymats, phat).T
    assert np.abs(grad - expected).max() < 1e-8


def test_disturbance_proportional_shifts_with_position(crane):
    obs = AdaptiveObserver(crane, {"lambda": 0.8})
    z = obs.state_with(np.zeros(3))
    q1 = np.array([0.3, -0.1, 0.2])
    q2 = q1 + np.array([0.05, 0.0, -0.02])
    d1 = obs.output(z, q1).d
    d2 = obs.output(z, q2).d
    assert np.allclose(d2 - d1, q2 - q1, atol=1e-14)


def test_derivative_at_rest(crane):
    obs = AdaptiveObserver(crane, {"lambda": 0.8})
    q = np.zeros(3)
    # state chosen so the momenta and disturbance estimates are both zero
    z = np.concatenate([-0.8 * crane.integral_map(q), np.zeros(1), -q])
    zdot = obs.derivative(z, stage_terms(crane, q, np.zeros(2)))
    assert np.allclose(zdot, 0.0, atol=1e-14)


def crane_scenario(crane, lam=0.8, t_final=5.0, dt=1e-4, **kw):
    return Scenario(
        model=crane,
        observer="prop1",
        gains={"lambda": lam},
        q0=[0.0, 0.0, 0.3],
        mom0=[0.1, -0.05, 0.1],
        inputs=(InputChannel(0.5, 1.0, 0.0, "cos"), InputChannel(0.5, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant([0.1, 0.2, 0.2]),
        t_final=t_final,
        dt=dt,
        stride=10,
        **kw,
    )


def test_lyapunov_monotone_and_decay_rate(crane):
    # the decaying error measure must fall at rate at least lam |ptil|^2;
    # finite differences of the sampled series stand in for its derivative
    sc = crane_scenario(crane)
    ts = integrate_scenario(sc)
    assert np.diff(ts.lyap).max() <= 1e-8
    vdot = (ts.lyap[2:] - ts.lyap[:-2]) / (ts.t[2:] - ts.t[:-2])
    bound = -sc.gains["lambda"] * ts.ptil_norm[1:-1] ** 2
    assert (vdot - bound).max() <= 1e-6


def test_exact_initialization_stays_on_manifold(crane):
    from dataclasses import replace

    sc = crane_scenario(crane, t_final=4.0, dt=5e-4)
    sc = replace(sc, obs_init=exact_observer_init(sc))
    ts = integrate_scenario(sc)
    assert ts.ptil_norm.max() <= 1e-9
    assert ts.dtil_norm.max() <= 1e-9
    assert ts.rutil_norm.max() <= 1e-9


def test_observer_with_no_unknown_coefficients(crane_known):
    # all friction known: the friction-estimation channel is empty and the
    # observer still rejects the disturbance
    obs = AdaptiveObserver(crane_known, {"lambda": 1.0})
    assert obs.s == 0 and obs.dim == 6
    sc = Scenario(
        model=crane_known,
        observer="prop1",
        gains={"lambda": 1.0},
        q0=[0.0, 0.0, 0.3],
        inputs=(InputChannel(0.5, 1.0, 0.0, "cos"), InputChannel(0.5, 1.0, 0.0, "sin")),
        disturbance=DisturbanceSchedule.constant([0.1, 0.2, 0.2]),
        t_final=20.0,
        dt=2e-3,
        stride=20,
    )
    ts = integrate_scenario(sc)
    assert ts.ruhat.shape[1] == 0
    assert np.diff(ts.lyap).max() <= 1e-8
    assert ts.ptil_norm[-1] <= 1e-2
    assert ts.dtil_norm[-1] <= 5e-2
