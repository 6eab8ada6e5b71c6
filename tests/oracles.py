"""Reference computations that only the tests read: a generic RK4 solve, the inverse momenta
transform, prop1's velocity quadratic forms, an observer start on the invariant manifold, the
bracket tensor pair by pair, the bracket contraction at one position by np.tensordot, and
prop2's spectral norms and delta bounds from three numpy.linalg calls apiece."""

import numpy as np

from momobs import rk4_step
from momobs.geometry import swapped_from_brackets
from momobs.model import _check_vector, row_norm
from momobs.scaled import _BOUND_SAFETY, _ONE, _SECANT_TAUS, _ZERO


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


def swapped_by_tensordot(br, pbar):
    """swapped_from_brackets at one position, -pbar^T br[j, :, k], as np.tensordot sums it."""
    return -np.tensordot(np.asarray(pbar, dtype=float), br, axes=(0, 1))


def brackets_by_pairs(T, dT):
    """geometry._brackets by a loop over the column pairs i < j, entry [j, i] set to -[i, j]."""
    along = np.swapaxes(dT, -3, -1) @ T[..., None, :, :]
    n = T.shape[-1]
    out = np.zeros(T.shape[:-2] + (n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b = along[..., j, :, i] - along[..., i, :, j]
            out[..., i, j, :] = b
            out[..., j, i, :] = -b
    return out


def bounds_by_three_calls(obs, e_q, h_bp, h_towards_q, delta_p, e_p):
    """ScaledObserver._bounds from the matrices, in three calls: an SVD of the secant differences
    H(., phat) - H(qbar, phat) at obs._towards_q's positions, np.linalg.norm(delta_p, 2) and
    np.linalg.norm(e_p)."""
    if obs._analytic_bounds:
        return obs.psi * np.float64(obs.model.lip_factor_inv), _ZERO
    gap_q = row_norm(e_q)
    h_towards_q = np.reshape(h_towards_q, (-1,) + h_bp.shape)
    secants = np.linalg.svd(h_towards_q - h_bp, compute_uv=False).max(axis=-1)
    taus = _SECANT_TAUS[: len(secants)].reshape((-1,) + (1,) * gap_q.ndim)
    with np.errstate(invalid="ignore"):
        slopes = secants / (taus * gap_q)
    bound_q = _BOUND_SAFETY * np.fmax.reduce(slopes, axis=0, initial=0.0)
    gap_p = np.linalg.norm(e_p)
    if obs.model.zrs or gap_p == 0.0:
        return bound_q, _ZERO
    return bound_q, _BOUND_SAFETY * np.linalg.norm(delta_p, 2) / gap_p


def delta_bounds_by_three_calls(obs, q, qbar, phat, pbar):
    """ScaledObserver.delta_bounds with its norms from bounds_by_three_calls."""
    tinv, br = obs._structures([qbar, *obs._towards_q(qbar, q)])
    at = np.r_[0, : len(tinv)]
    ps = np.repeat([pbar, phat], [1, len(tinv)], axis=0)
    h = obs._h((tinv[at], None if br is None else br[at]), ps)
    return bounds_by_three_calls(obs, q - qbar, h[1], h[2:], h[1] - h[0], phat - pbar)


def derivative_by_three_calls(obs, z, terms):
    """ScaledObserver.derivative of one state with the spectral norms of T(q), H(qbar, pbar),
    delta_q T and delta_p T from one SVD and the bounds from bounds_by_three_calls."""
    model, mv = obs.model, np.matvec
    q, T = terms.q, terms.T
    qbar, pbar, p_i, d_i = np.split(z[:-1], 4)
    r = max(z[-1], _ONE)
    if model.zrs:
        tinv_bar = model.factor_inverse(qbar)
        h_bb = h_bp = obs.psi * tinv_bar
        towards = obs._towards_q(qbar, q)
        h_towards_q = obs.psi * model.factor_inverse(towards)
        h_q = h_towards_q[-1] if len(towards) else h_bp
    else:
        tinv, br = obs._structures([qbar, *obs._towards_q(qbar, q)])
        tinv_bar = tinv[0]
        h_bb = obs._h((tinv_bar, br[0]), pbar)
    phat = p_i + h_bb @ q
    r2 = r**2
    e_q, e_p = qbar - q, pbar - phat
    if model.zrs:
        gyro_term, delta_p, normed = 0.0, None, [T, h_bb, (h_q - h_bp) @ T]
    else:
        jbar = swapped_from_brackets(br, phat)
        h = (obs._psi_eye + jbar) @ tinv
        h_bp, h_towards_q, h_q = h[0], h[1:], h[-1]
        gyro_term = jbar[-1] @ phat
        delta_p = h_bp - h_bb
        normed = [T, h_bb, (h_q - h_bp) @ T, delta_p @ T]
    norms = np.linalg.svd(np.array(normed), compute_uv=False)[:, 0]
    norm_dp = _ZERO if model.zrs else norms[3]
    bound_q, bound_p = bounds_by_three_calls(obs, e_q, h_bp, h_towards_q, delta_p, e_p)
    gains = obs.gains(r, r2, norms[0] ** 2, norms[1] ** 2, (bound_q**2, bound_p**2))
    t_phat = mv(T, phat)
    rest = (T.T @ terms.gu - mv(T.T, model.friction.coeffs * t_phat) - T.T @ terms.grad_v
            + mv(T.T, d_i + q / r2) + gyro_term)
    qbar_dot = t_phat - gains.psi1 * e_q
    pbar_dot = rest - gains.psi2 * e_p
    h_rate = obs._mapping_h_rate(tinv_bar, qbar, pbar, qbar_dot, pbar_dot)
    p_i_dot = -h_rate @ q - mv(h_bb, t_phat) + rest
    r_dot = -(obs.psi / 4.0) * (r - 1.0) + (r / obs.psi) * (norm_dp**2 + norms[2] ** 2)
    d_i_dot = -t_phat / r2 + (2.0 / r**3) * r_dot * q
    return np.concatenate([qbar_dot, pbar_dot, p_i_dot, d_i_dot, [r_dot]])


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
