import numpy as np
import pytest

from momobs import (
    DisturbanceSchedule,
    FrictionSpec,
    GeneralizedState,
    ModelError,
    gyro_matrix,
    make_constant_inertia,
    momenta_transform,
    plant_derivative,
    transformed_derivative,
)
from momobs.model import _plant_rhs, stage_terms

from oracles import momenta_untransform, rk4_solve


def free_mass(n=2, friction=None):
    if friction is None:
        friction = FrictionSpec(np.zeros(n), np.ones(n, dtype=bool))
    return make_constant_inertia(np.eye(n), np.zeros((n, n)), friction)


def test_plant_derivative_pure_disturbance():
    model = free_mass()
    qd, md = plant_derivative(model, GeneralizedState(np.zeros(2), np.zeros(2)),
                              np.zeros(2), np.array([1.0, 0.0]))
    assert np.array_equal(qd, np.zeros(2))
    assert np.array_equal(md, np.array([1.0, 0.0]))


def test_plant_derivative_viscous_decay():
    friction = FrictionSpec(np.array([1.0]), np.array([True]))
    model = free_mass(1, friction)
    _, md = plant_derivative(model, GeneralizedState(np.zeros(1), np.array([2.0])),
                             np.zeros(1), np.zeros(1))
    assert np.allclose(md, [-2.0])


def test_plant_derivative_validates():
    model = free_mass()
    state = GeneralizedState(np.zeros(2), np.zeros(2))
    with pytest.raises(ModelError):
        plant_derivative(model, state, np.zeros(3), np.zeros(2))
    with pytest.raises(ModelError):
        plant_derivative(model, state, np.zeros(2), np.array([np.nan, 0.0]))
    with pytest.raises(ModelError):
        GeneralizedState(np.zeros(2), np.array([np.inf, 0.0]))


def test_crane_inverse_inertia_value(crane):
    # with ring mass 0.5 and payload 1, the (1,1) entry at hanging angle is 2
    assert crane.minv(np.zeros(3))[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_momenta_transform_identity_factor(const_identity):
    mom = np.array([0.3, -1.2])
    assert np.array_equal(momenta_transform(const_identity, np.zeros(2), mom), mom)


def test_momenta_transform_crane_third_axis(crane):
    # third row of the factor is (0, 0, c) with c = sqrt(12) at the default
    # parameters: c^2 = (m_r + m) / (m L3^2 m_r) = 1.5 / 0.125
    c = np.sqrt(12.0)
    rng = np.random.default_rng(5)
    for q in rng.uniform(-2, 2, size=(5, 3)):
        p = momenta_transform(crane, q, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(p, [0.0, 0.0, c], atol=1e-12)


def test_momenta_roundtrip(crane):
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = rng.uniform(-3, 3, 3)
        mom = rng.normal(size=3)
        p = momenta_transform(crane, q, mom)
        back = momenta_untransform(crane, q, p)
        assert np.abs(back - mom).max() < 1e-12


def test_factorization_invariant(crane, manipulator, const2):
    rng = np.random.default_rng(11)
    for model in (crane, manipulator, const2):
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, model.n)
            T = model.factor(q)
            assert np.linalg.norm(T @ T.T - model.minv(q)) <= 1e-10
            assert np.linalg.norm(T @ model.factor_inverse(q) - np.eye(model.n)) <= 1e-12


def test_transformed_derivative_double_integrator(const_identity):
    q = np.array([0.1, -0.2])
    p = np.array([0.5, 1.0])
    u = np.array([0.3, -0.4])
    d = np.array([0.0, 0.2])
    model = make_constant_inertia(np.eye(2), np.zeros((2, 2)),
                                  FrictionSpec(np.zeros(2), np.ones(2, dtype=bool)))
    qd, pd = transformed_derivative(model, q, p, u, d)
    assert np.allclose(qd, p)
    assert np.allclose(pd, u + d)


def test_transformed_gyro_contribution_vanishes_for_commuting_factor(crane):
    # the commuting shortcut must agree with the full formula, whose gyro
    # term is exactly zero for commuting factor columns
    rng = np.random.default_rng(3)
    q, p = rng.uniform(-1, 1, 3), rng.normal(size=3)
    u, d = rng.normal(size=2), rng.normal(size=3)
    qd1, pd1 = transformed_derivative(crane, q, p, u, d)
    T = crane.factor(q)
    qd2 = T @ p
    pd2 = (-crane.transformed_friction(q) @ p
           - T.T @ (crane.grad_potential(q) - crane.input_matrix(q) @ u - d)
           + gyro_matrix(crane, q, p) @ p)
    assert np.array_equal(qd1, qd2)
    assert np.array_equal(pd1, pd2)


@pytest.mark.parametrize(
    "name",
    [
        "crane",
        "manipulator",
        "const2",
        "crane_cholesky",
    ],
)
def test_transformed_momenta_rate_pointwise(request, name):
    # the factored pdot is the rate of p = T^T(q) mom along the plant's flow:
    # against its central difference, step 1e-6, at seeded states
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(15)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        q, mom, d = rng.uniform(-1, 1, (3, model.n))
        u = rng.uniform(-1, 1, model.m)
        qdot, momdot = plant_derivative(model, GeneralizedState(q, mom), u, d)
        rate = (momenta_transform(model, q + h * qdot, mom + h * momdot)
                - momenta_transform(model, q - h * qdot, mom - h * momdot)) / (2.0 * h)
        _, pdot = transformed_derivative(model, q, momenta_transform(model, q, mom), u, d)
        worst = max(worst, float(np.abs(pdot - rate).max()))
    assert worst <= 1e-6, worst


def test_cross_representation_short(crane, crane_cholesky):
    # the two state representations must tell the same story through the
    # momenta map, on a commuting factor and on the Cholesky one, whose
    # factored dynamics carry the gyroscopic term; full-length check lives
    # in the acceptance suite
    d = np.array([0.1, 0.2, 0.2])

    def u_of(t):
        return np.array([1.535 * np.cos(t), 7.67 * np.sin(t)])

    for model in (crane, crane_cholesky):
        def plant_f(t, x):
            qd, md = _plant_rhs(model, stage_terms(model, x[:3], u_of(t)), x[3:], d)
            return np.concatenate([qd, md])

        def trans_f(t, x):
            qd, pd = transformed_derivative(model, x[:3], x[3:], u_of(t), d)
            return np.concatenate([qd, pd])

        q0 = np.array([0.0, 0.0, 0.8])
        mom0 = np.array([0.2, -0.1, 0.1])
        x0 = np.concatenate([q0, mom0])
        y0 = np.concatenate([q0, momenta_transform(model, q0, mom0)])
        _, xs = rk4_solve(plant_f, x0, 2.0, 1e-3, record_stride=100)
        _, ys = rk4_solve(trans_f, y0, 2.0, 1e-3, record_stride=100)
        for xk, yk in zip(xs, ys):
            p = momenta_transform(model, xk[:3], xk[3:])
            assert np.abs(xk[:3] - yk[:3]).max() < 1e-8, model.name
            assert np.abs(p - yk[3:]).max() < 1e-8, model.name


def test_friction_spec_selector_shape():
    spec = FrictionSpec(np.array([0.1, 0.2, 0.3]), np.array([False, True, False]))
    C = spec.selector
    assert np.array_equal(C, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(C.T @ spec.coeffs, spec.unknown_coeffs)
    # known and unknown parts add up to the friction vector behind transformed_friction
    known_part = np.where(spec.known_mask, spec.coeffs, 0.0)
    assert np.array_equal(known_part + C @ spec.unknown_coeffs, spec.coeffs)
    assert np.linalg.matrix_rank(C) == spec.num_unknown


def test_friction_spec_rejects_negative():
    with pytest.raises(ModelError):
        FrictionSpec(np.array([-0.1]), np.array([True]))


def test_friction_decompose_crane(crane):
    spec = crane.friction
    C = spec.selector
    assert np.array_equal(C.T, [[0.0, 0.0, 1.0]])
    assert np.array_equal(spec.unknown_indices, [2])
    assert np.array_equal(spec.unknown_coeffs, [0.5])
    assert np.array_equal(spec.known_coeffs, [0.0, 0.0])
    assert np.array_equal(C.T @ spec.coeffs, spec.unknown_coeffs)
    # known and unknown parts add up to the friction vector behind transformed_friction
    known_part = np.where(spec.known_mask, spec.coeffs, 0.0)
    assert np.array_equal(known_part + C @ spec.unknown_coeffs, spec.coeffs)
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = rng.uniform(-3, 3, 3)
        R = crane.transformed_friction(q)
        assert np.allclose(R, R.T)
        assert np.linalg.eigvalsh(R).min() >= -1e-12


def test_friction_decompose_all_known():
    spec = FrictionSpec(np.array([0.5, 0.2]), np.array([True, True]))
    assert spec.selector.shape == (2, 0)
    assert spec.unknown_indices.size == 0 and spec.unknown_coeffs.size == 0
    assert np.array_equal(spec.known_coeffs, [0.5, 0.2])
    assert np.array_equal(spec.selector @ spec.unknown_coeffs, np.zeros(2))


def test_disturbance_schedule():
    sched = DisturbanceSchedule([0.0, 1.0, 2.5], [[1.0], [2.0], [3.0]])
    assert sched.value(0.0) == pytest.approx(1.0)
    assert sched.value(0.999) == pytest.approx(1.0)
    assert sched.value(1.0) == pytest.approx(2.0)
    assert sched.value(10.0) == pytest.approx(3.0)
    # before the first switch the first level holds; an array of times gives the stacked levels
    assert sched.value(-1.0) == pytest.approx(1.0)
    times = np.array([-1.0, 0.0, 0.999, 1.0, 10.0])
    assert np.array_equal(sched.value(times), np.array([sched.value(t) for t in times]))
    assert sched.value(times).shape == (5, 1)
    snapped = sched.aligned(0.4)
    assert np.allclose(snapped.times, [0.0, 1.2, 2.4])
    with pytest.raises(ModelError):
        DisturbanceSchedule([0.5], [[1.0]])
    with pytest.raises(ModelError):
        DisturbanceSchedule([0.0, 0.0], [[1.0], [2.0]])


def test_kinetic_gradient_matches_finite_differences(crane):
    # the momentum equation's inertia-gradient term, evaluated through the
    # factor derivatives, must match a direct numeric gradient of the energy
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = rng.uniform(-2, 2, 3)
        mom = rng.normal(size=3)
        state = GeneralizedState(q, mom)
        _, md = plant_derivative(crane, state, np.zeros(2), np.zeros(3))
        h = 1e-6
        grad = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            hi = 0.5 * mom @ crane.minv(q + e) @ mom + crane.potential(q + e)
            lo = 0.5 * mom @ crane.minv(q - e) @ mom + crane.potential(q - e)
            grad[k] = (hi - lo) / (2 * h)
        expected = -grad - crane.friction.coeffs * (crane.minv(q) @ mom)
        assert np.abs(md - expected).max() < 1e-7


def test_factor_inverse_conditioning_guard():
    # a nearly rank-deficient factor without a closed-form inverse is refused
    from dataclasses import replace

    friction = FrictionSpec(np.zeros(2), np.ones(2, dtype=bool))
    base = make_constant_inertia(np.eye(2), np.zeros((2, 2)), friction)
    bad_T = np.array([[1.0, 0.0], [0.0, 1e-14]])
    model = replace(base, factor=lambda q: bad_T, factor_inv=None)
    with pytest.raises(ModelError):
        momenta_untransform(model, np.zeros(2), np.ones(2))


def test_obs1_state_packing_roundtrip():
    from momobs import Obs1State

    rng = np.random.default_rng(19)
    st = Obs1State(rng.normal(size=3), rng.normal(size=1), rng.normal(size=3))
    back = Obs1State.from_packed(st.pack(), 3, 1)
    assert np.array_equal(back.p_i, st.p_i)
    assert np.array_equal(back.ru_i, st.ru_i)
    assert np.array_equal(back.d_i, st.d_i)


def test_factor_inverse_fallback_matches_closed_form(crane):
    from dataclasses import replace

    numeric = replace(crane, factor_inv=None)
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        assert np.abs(numeric.factor_inverse(q) - crane.factor_inverse(q)).max() < 1e-12
