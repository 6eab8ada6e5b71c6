"""Adaptive momenta observer with friction and disturbance estimation.

Applicable to models whose factor columns commute (so the gyroscopic matrix
vanishes) and whose unknown-friction rows of T are constant.  Estimates are
built as integral state plus a proportional term shaped so the estimation
errors obey

    ptil_dot  = -(R(q) + lam I) ptil - Phi(phat) rutil + T^T(q) dtil
    rutil_dot =  Phi(phat)^T ptil
    dtil_dot  = -T(q) ptil

with Phi(z) the friction regressor.  The quadratic form 0.5 (|ptil|^2 +
|dtil|^2 + |rutil|^2) then decays at rate at least lam |ptil|^2, which the
test suite checks along simulated runs; that monotonicity is what pins the
sign and scale conventions used below:

  * the integral friction state moves by +(1/lam) Phi^T (p_I_dot + lam phat),
  * the integral disturbance state moves by -T(q) phat,
  * the proportional friction term is -(1/(2 lam)) (velocity quadratic),
    equivalently +(1/(2 lam)) with the sign-flipped quadratics returned by
    estimator_quadratics, whose stacked rows must equal minus the regressor
    matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping
import numpy as np

from .geometry import STRUCTURE_TOL, check_zrs, sample_positions
from .model import MechanicalModel

Array = np.ndarray


class StructureError(ValueError):
    """Model violates a structural precondition of an observer."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


def regressor_matrices(model: MechanicalModel) -> Array:
    """Constant matrices Y with R_u(q) z = (sum_j Y[j] z_j) r_u for all q, z.

    Returns a stacked (n, n, s) array, Y[j] of shape (n, s).  Entries exist
    because the unknown-friction rows of the factor are constant; each Y[j]
    column k is (row kappa_k of T)^T scaled by T[kappa_k, j].  Constancy is
    verified on 100 random samples, to 1e-10 per entry, and a varying matrix
    is rejected with the offending index.
    """
    kappa = model.friction.unknown_indices
    n, s = model.n, kappa.size
    qs = sample_positions(n, 100)
    rows = model.factor(qs[0])[kappa, :]
    base = np.einsum("kj,ka->jak", rows, rows)
    for q in qs[1:]:
        rows_q = model.factor(q)[kappa, :]
        cand = np.einsum("kj,ka->jak", rows_q, rows_q)
        dev = np.abs(cand - base).reshape(n, -1).max(axis=1) if s else np.zeros(n)
        bad = np.flatnonzero(dev > 1e-10)
        if bad.size:
            raise StructureError(
                f"regressor matrix {bad[0]} varies with q (deviation {dev[bad[0]]:.3e}); "
                "unknown-friction rows of the factor must be constant",
                residual=float(dev[bad[0]]),
            )
    return base


def regressor(ymats: Array, z) -> Array:
    """Friction regressor Phi(z) = sum_j Y[j] z_j, an n x s matrix, as one matvec."""
    n, _, s = ymats.shape
    return (np.asarray(z, dtype=float) @ ymats.reshape(n, n * s)).reshape(n, s)


def velocity_quadratics(model: MechanicalModel) -> Array:
    """One PSD rank-one form per unknown coefficient, stacked (s, n, n).

    Form k is (row kappa_k of T)^T (row kappa_k of T); contracting it with
    momenta squares the velocity of the coordinate whose friction is
    unknown.  Constant under the same row-constancy condition as the
    regressor matrices.
    """
    kappa = model.friction.unknown_indices
    rows = model.factor(np.zeros(model.n))[kappa, :]
    return np.einsum("ka,kb->kab", rows, rows)


def estimator_quadratics(ymats: Array) -> Array:
    """Quadratic forms solving the stacked gradient-match equations.

    Row j of form k is minus column k of Y[j]; this makes the gradient of
    z -> 0.5 z^T L_k z equal minus row k of the transposed regressor, which
    is exactly what the friction estimator's proportional term needs.  The
    result is symmetric and equals minus velocity_quadratics.
    """
    return -np.transpose(ymats, (2, 0, 1))


def error_energy(ptil, dtil, rutil) -> float:
    """0.5 (|ptil|^2 + |dtil|^2 + |rutil|^2), the decaying error measure."""
    ptil = np.asarray(ptil, dtype=float)
    dtil = np.asarray(dtil, dtype=float)
    rutil = np.asarray(rutil, dtype=float)
    return 0.5 * float(ptil @ ptil + dtil @ dtil + rutil @ rutil)


@dataclass(frozen=True)
class Obs1State:
    """Integrator state: momenta, friction and disturbance integral terms."""

    p_i: Array
    ru_i: Array
    d_i: Array

    def pack(self) -> Array:
        return np.concatenate([self.p_i, self.ru_i, self.d_i])

    @classmethod
    def from_packed(cls, z, n, s):
        z = np.asarray(z, dtype=float)
        return cls(z[:n], z[n : n + s], z[n + s :])


def checked_gains(defaults: Mapping[str, float], gains: Mapping[str, float]) -> dict:
    """defaults updated by gains; an unknown name or a value not > 0 (NaN too) is a ValueError."""
    for name, value in gains.items():
        if name not in defaults:
            raise ValueError(f"{name!r} is not a gain of this observer; it reads {list(defaults)}")
        if not value > 0:
            raise ValueError(f"gain {name} must be positive, got {value!r}")
    return {name: float(gains.get(name, value)) for name, value in defaults.items()}


def replace_fields(state, fields: Mapping[str, object]):
    """dataclasses.replace on an observer state, refusing unknown names and bad or mis-sized values.

    A value takes its field's shape, so a number or a one-entry vector sets the scalar r.
    """
    names = [f.name for f in dataclasses.fields(state)]
    new = {}
    for name, value in fields.items():
        if name not in names:
            raise ValueError(f"{name!r} is not an observer state field; expected one of {names}")
        field_value = getattr(state, name)
        try:
            value = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            size = np.size(field_value)
            raise ValueError(f"{name} must be {size} number(s), got {value!r}") from None
        if value.size != np.size(field_value):
            raise ValueError(f"{name} must have size {np.size(field_value)}, got {value.size}")
        new[name] = value.reshape(np.shape(field_value))
    return dataclasses.replace(state, **new)


@dataclass(frozen=True)
class Obs1Estimates:
    """Observer outputs: transformed momenta, friction, disturbance."""

    p: Array
    ru: Array
    d: Array


class AdaptiveObserver:
    """Momenta observer that also estimates unknown friction and disturbance.

    State dimension is 2n + s.  gains may set lambda, the error energy's
    decay rate (checked_gains).  Construction always verifies the structural
    preconditions numerically on 30 sampled positions (commuting factor
    columns, integral map consistency, constant unknown-friction rows) and
    precomputes the constant regressor and quadratic matrices.
    """

    default_gains = {"lambda": 0.8}  # by config and sweep name, the gains it reads
    state_fields = tuple(f.name for f in dataclasses.fields(Obs1State))

    def __init__(self, model: MechanicalModel, gains: Mapping[str, float] = {}):
        self.lam = checked_gains(self.default_gains, gains)["lambda"]
        report = check_zrs(model, sample_positions(model.n, 30))
        if not report.commuting_factor_ok:
            raise StructureError(
                "factor columns do not commute "
                f"(max bracket norm {report.max_bracket_norm:.3e} > {STRUCTURE_TOL:g})",
                residual=report.max_bracket_norm,
            )
        if report.integral_map_ok is False:
            raise StructureError(
                "integral map Jacobian does not match the factor inverse "
                f"(residual {report.gradq_residual:.3e})",
                residual=report.gradq_residual,
            )
        if not report.constant_rows_ok:
            worst = max(v for _, v in report.constant_row_residual)
            raise StructureError(
                f"unknown-friction rows of the factor vary with q (residual {worst:.3e})",
                residual=worst,
            )
        if model.integral_map is None:
            raise StructureError("model has no integral map; this observer requires one")
        self.model = model
        self.n = model.n
        self.s = model.friction.num_unknown
        self.ymats = regressor_matrices(model)
        self.quads = estimator_quadratics(self.ymats)
        self._rk_diag = np.where(model.friction.known_mask, model.friction.coeffs, 0.0)
        self.dim = 2 * self.n + self.s

    def state_with(self, q0, **fields) -> Array:
        """Packed start at q0: the named Obs1State fields, the rest the neutral start.

        The neutral start makes every estimate zero at q0.
        """
        q0 = np.asarray(q0, dtype=float)
        default = Obs1State(-self.lam * self.model.integral_map(q0), np.zeros(self.s), -q0)
        return replace_fields(default, fields).pack()

    def exact_state(self, q0, p0, d0) -> dict:
        """state_with fields whose estimation errors vanish at q0, momenta p0, disturbance d0."""
        q0 = np.asarray(q0, dtype=float)
        return dict(
            p_i=p0 - self.lam * self.model.integral_map(q0),
            ru_i=self.model.friction.unknown_coeffs - self.proportional_friction(p0),
            d_i=d0 - q0,
        )

    def proportional_friction(self, phat) -> Array:
        """Quadratic proportional part of the friction estimate."""
        phat = np.asarray(phat, dtype=float)
        return (0.5 / self.lam) * ((self.quads @ phat) @ phat)

    def _estimates(self, z, q):
        n, s = self.n, self.s
        phat = z[:n] + self.lam * self.model.integral_map(q)
        ruhat = z[n : n + s] + self.proportional_friction(phat)
        dhat = z[n + s :] + q
        return phat, ruhat, dhat

    def output(self, z, q) -> Obs1Estimates:
        q = np.asarray(q, dtype=float)
        z = np.asarray(z, dtype=float)
        phat, ruhat, dhat = self._estimates(z, q)
        return Obs1Estimates(p=phat, ru=ruhat, d=dhat)

    def diagnostics(self, z, q, p_true, d_true) -> dict:
        """Estimates, error norms and error energy at one sample, keyed by TimeSeries field."""
        est = self.output(z, q)
        ptil = est.p - p_true
        dtil = est.d - d_true
        rutil = est.ru - self.model.friction.unknown_coeffs
        return dict(phat=est.p, dhat=est.d, ruhat=est.ru, ptil_norm=np.linalg.norm(ptil),
                    dtil_norm=np.linalg.norm(dtil), rutil_norm=np.linalg.norm(rutil),
                    lyap=error_energy(ptil, dtil, rutil))

    def derivative(self, z, q, u) -> Array:
        """Packed time derivative of the integrator state."""
        model = self.model
        phat, ruhat, dhat = self._estimates(z, q)
        T = model.factor(q)
        phi = regressor(self.ymats, phat)
        forces = model.grad_potential(q) - model.input_matrix(q) @ u - dhat
        p_i_dot = (
            -self.lam * phat
            - T.T @ forces
            - phi @ ruhat
            - T.T @ (self._rk_diag * (T @ phat))
        )
        ru_i_dot = (1.0 / self.lam) * (phi.T @ (p_i_dot + self.lam * phat))
        d_i_dot = -T @ phat
        return np.concatenate([p_i_dot, ru_i_dot, d_i_dot])
