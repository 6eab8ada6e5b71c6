import warnings

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
from momobs.model import _plant_rhs, row_norm, solved_inverse, stage_terms

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


def test_momenta_transform_takes_a_list_q(crane):
    # q is converted as transformed_derivative and plant_derivative convert it
    mom = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(momenta_transform(crane, [0.0, 0.0, 1.0], mom),
                          crane.factor(np.array([0.0, 0.0, 1.0])).T @ mom)


@pytest.mark.parametrize("q", [[0.0, 0.0, 1.0, 5.0], [0.0, np.nan, 1.0]], ids=["length-4", "nan"])
def test_momenta_transform_refuses_bad_q(crane, q):
    # q is checked as transformed_derivative and plant_derivative check it
    with pytest.raises(ModelError, match="q "):
        momenta_transform(crane, np.array(q), np.ones(3))


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


def assert_known_and_unknown_parts_add_up(spec):
    # the known part plus the unknown coefficients scattered back to kappa give coeffs
    total = np.where(spec.known_mask, spec.coeffs, 0.0)
    total[spec.unknown_indices] += spec.unknown_coeffs
    assert np.array_equal(total, spec.coeffs)


def test_friction_spec_unknown_split():
    spec = FrictionSpec(np.array([0.1, 0.2, 0.3]), np.array([False, True, False]))
    assert np.array_equal(spec.unknown_indices, [0, 2])
    assert np.array_equal(spec.unknown_coeffs, [0.1, 0.3])
    assert spec.num_unknown == 2
    assert_known_and_unknown_parts_add_up(spec)


def test_friction_spec_rejects_negative():
    with pytest.raises(ModelError):
        FrictionSpec(np.array([-0.1]), np.array([True]))


def test_friction_decompose_crane(crane):
    spec = crane.friction
    assert np.array_equal(spec.unknown_indices, [2])
    assert np.array_equal(spec.unknown_coeffs, [0.5])
    assert spec.num_unknown == 1
    # the known and unknown parts add up to the friction vector behind transformed_friction
    assert_known_and_unknown_parts_add_up(spec)
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = rng.uniform(-3, 3, 3)
        R = crane.transformed_friction(q)
        assert np.allclose(R, R.T)
        assert np.linalg.eigvalsh(R).min() >= -1e-12


def test_friction_decompose_all_known():
    spec = FrictionSpec(np.array([0.5, 0.2]), np.array([True, True]))
    assert spec.unknown_indices.size == 0 and spec.unknown_coeffs.size == 0
    assert spec.num_unknown == 0
    assert_known_and_unknown_parts_add_up(spec)


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
    with pytest.raises(ModelError):  # NaN is not after 0.0, nor 1.0 after NaN
        DisturbanceSchedule([0.0, np.nan, 1.0], [[1.0], [2.0], [3.0]])


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


def conditioned(rng, n, cond):
    """Q1 diag(sigma) Q2, Q1 and Q2 orthogonal, sigma from 1 down to 1 / cond by equal ratios."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    return (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2


def singular_cases():
    """Factors about np.linalg.cond's 1e12 limit and the 1e20 norm certificate, alone and
    stacked, by name."""
    rng = np.random.default_rng(29)
    good = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    cases = {"zero": np.zeros((3, 3)), "rank-1": np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0]),
             "inf-entry": np.diag([1.0, np.inf, 1.0]), "good": good}
    for scale in (0.5, 0.999999, 1.0, 1.000001, 2.0):
        cases[f"cond-{scale}e12"] = np.diag([1.0, 1.0, 1.0 / (scale * 1e12)])
    cases["stack-good"] = np.array([good, np.eye(3), 2.0 * good])
    cases["stack-mixed"] = np.array([good, cases["cond-2.0e12"], np.eye(3)])
    cases["stack-mixed-zero"] = np.array([np.zeros((3, 3)), good])
    # a seeded family from cond 1 to 1e14, densest where the certificate declines (from about
    # 1e10) and the gate still accepts (to 1e12)
    rng = np.random.default_rng(35)
    exponents = np.concatenate([np.arange(15.0), rng.uniform(9, 12, 24), rng.uniform(12, 14, 6)])
    for k, e in enumerate(exponents):
        n = 2 + k % 3
        cases[f"family-{k}-n{n}-cond1e{e:.2f}"] = conditioned(rng, n, 10.0**e)
    # scalings whose squared norms overflow or underflow, about 1e+-154, and some that do not
    well, ill = conditioned(rng, 3, 10.0), conditioned(rng, 3, 1e11)
    for e in (-170, -160, -155, -154, -150, -100, 100, 150, 153, 154, 155, 160, 170):
        cases[f"scaled-1e{e}"] = 10.0**e * well
    cases["scaled-1e150-cond1e11"] = 1e150 * ill
    cases["rank-1-n4"] = np.outer([1.0, -2.0, 0.5, 3.0], [2.0, 1.0, -1.0, 0.25])
    cases["nan-entry"] = np.diag([1.0, np.nan, 1.0])
    cases["minus-inf-entry"] = good + np.diag([0.0, 0.0, -np.inf])
    cases["stack-certified-and-cond1e11"] = np.array([well, ill, good])
    cases["stack-certified-and-cond1e13"] = np.array([well, conditioned(rng, 3, 1e13)])
    cases["stack-certified-and-nan"] = np.array([well, np.full((3, 3), np.nan)])
    cases["stack-certified-and-overflow"] = np.array([well, 1e170 * well])
    cases["stack-certified-and-underflow"] = np.array([1e-170 * well, good])
    return cases


@pytest.mark.parametrize("name", list(singular_cases()))
def test_solved_inverse_refuses_where_cond_does(monkeypatch, name):
    # the gate reads the singular values itself, with cond's rule: a ratio above 1e12, inf or
    # 0 / 0 refuses the call, whole stack and all, and a NaN entry raises LinAlgError in the
    # SVD.  A stack whose every row has cond_F(T)^2 <= 1e20 is accepted without any SVD;
    # no case warns, and every accepted T^-1 has np.linalg.solve(T, I)'s bytes
    T = singular_cases()[name]
    with np.errstate(all="ignore"):
        certified = np.all(np.linalg.cond(T, "fro") ** 2 <= 1e20)
        if np.isnan(T).any():  # cond's SVD does not converge
            refused = np.linalg.LinAlgError
        else:
            refused = ModelError if np.any(np.linalg.cond(T) > 1e12) else None
            solved = np.linalg.solve(T, np.eye(T.shape[-1])) if refused is None else None
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svds.append(1) or svd(*args, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused is None:
            assert solved_inverse(T).tobytes() == solved.tobytes()
        else:
            with pytest.raises(refused, match="numerically singular|SVD did not converge"):
                solved_inverse(T)
    assert len(svds) == (0 if certified else 1)


def test_inv_rounds_as_solve_on_the_identity():
    # solved_inverse returns np.linalg.inv(T) where the gate would return
    # np.linalg.solve(T, I): one dgesv on I, the same bits, alone and stacked
    rng = np.random.default_rng(36)
    for k in range(2000):
        n = 2 + k % 3
        T = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
        assert np.linalg.inv(T).tobytes() == np.linalg.solve(T, np.eye(n)).tobytes()
    T = rng.normal(size=(11, 3, 3))
    assert np.linalg.inv(T).tobytes() == np.linalg.solve(T, np.eye(3)).tobytes()


def test_solved_inverse_nan_entry_raises_linalg_error():
    for T in (np.diag([1.0, np.nan, 1.0]), np.array([np.eye(3), np.full((3, 3), np.nan)])):
        with pytest.raises(np.linalg.LinAlgError):
            solved_inverse(T)


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 8, 9])
def test_row_norm_rounds_as_one_vector(n):
    # the read-out's row rule: np.vecdot(v, v) and row_norm give each row of a stack,
    # also a strided view like a series' columns, the bits of v @ v and np.linalg.norm(v);
    # 6 and 8 are the lengths of prop2's H-rate direction on the cranes and the manipulator
    rng = np.random.default_rng(71 + n)
    wide = rng.normal(size=(500, 2 * n + 1)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    for stack in (wide[:, :n].copy(), wide[:, n + 1 :]):
        rows = [row.copy() for row in stack]
        assert np.vecdot(stack, stack).tobytes() == np.array([v @ v for v in rows]).tobytes()
        assert row_norm(stack).tobytes() == np.array([np.linalg.norm(v) for v in rows]).tobytes()
