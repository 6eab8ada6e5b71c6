"""Reference computations that only the tests read: a generic RK4 solve, the inverse momenta
transform, prop1's velocity quadratic forms and an observer start on the invariant manifold."""

import numpy as np

from momobs import rk4_step
from momobs.model import _check_vector


def rk4_solve(f, x0, t_final, dt, record_stride: int = 1):
    """Generic fixed-step solve; returns (times, states) arrays."""
    steps = int(round(t_final / dt))
    x = np.asarray(x0, dtype=float).copy()
    ts = [0.0]
    xs = [x.copy()]
    for k in range(steps):
        x = rk4_step(f, k * dt, x, dt)
        if (k + 1) % record_stride == 0 or k + 1 == steps:
            ts.append((k + 1) * dt)
            xs.append(x.copy())
    return np.array(ts), np.array(xs)


def velocity_quadratics(model):
    """One PSD rank-one form per unknown coefficient, stacked (s, n, n).

    Form k is (row kappa_k of T)^T (row kappa_k of T); contracting it with
    momenta squares the velocity of the coordinate whose friction is
    unknown.  Constant under the same row-constancy condition as the
    regressor matrices, so it is read at q = 0.
    """
    kappa = model.friction.unknown_indices
    rows = model.factor(np.zeros(model.n))[kappa, :]
    return np.einsum("ka,kb->kab", rows, rows)


def momenta_untransform(model, q, p):
    """Inverse of momenta_transform: mom = T^-T(q) p."""
    p = _check_vector(p, model.n, "transformed momenta")
    return model.factor_inverse(q).T @ p


def exact_observer_init(sc):
    """Observer state fields (for Scenario.obs_init) whose estimation errors are all zero at t = 0.

    Uses the scenario's true initial momenta, friction coefficients and
    initial disturbance level, so it is a diagnostic tool: with this start
    the error coordinates stay on the invariant zero manifold.
    """
    obs = sc.build_observer()
    if obs is None:
        raise ValueError("scenario has no observer")
    p0 = sc.model.factor(sc.q0).T @ sc.mom0
    return obs.exact_state(sc.q0, p0, sc._schedule.value(0.0))
