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

import copy
import dataclasses
from dataclasses import dataclass
from typing import Mapping
import numpy as np

# bench/spans.py traces check_zrs under this module
from .geometry import check_zrs, sample_positions
from .model import MechanicalModel, StageTerms, row_norm

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
    verified on the 100 positions of sample_positions at seed 0, to 1e-10
    per entry, and a varying (or NaN) matrix is rejected with the offending
    index, at the first sample where one varies.
    """
    kappa = model.friction.unknown_indices
    rows = model.factor(sample_positions(model.n, 100))[:, kappa, :]
    base = np.einsum("kj,ka->jak", rows[0], rows[0])
    cands = np.einsum("qkj,qka->qjak", rows[1:], rows[1:])
    dev = np.max(np.abs(cands - base).reshape(len(cands), model.n, -1), axis=-1, initial=0.0)
    bad = np.argwhere(~(dev <= 1e-10))  # a NaN deviation varies too
    if len(bad):
        sample, j = bad[0]
        raise StructureError(
            f"regressor matrix {j} varies with q (deviation {dev[sample, j]:.3e}); "
            "unknown-friction rows of the factor must be constant",
            residual=float(dev[sample, j]),
        )
    return base


def regressor(ymats: Array, z) -> Array:
    """Friction regressor Phi(z) = sum_j Y[j] z_j, an n x s matrix; one np.vecmat per row of z."""
    n, _, s = ymats.shape
    z = np.asarray(z, dtype=float)
    return np.vecmat(z, ymats.reshape(n, n * s)).reshape(z.shape[:-1] + (n, s))


def estimator_quadratics(ymats: Array) -> Array:
    """Quadratic forms solving the stacked gradient-match equations.

    Row j of form k is minus column k of Y[j]; this makes the gradient of
    z -> 0.5 z^T L_k z equal minus row k of the transposed regressor, which
    is exactly what the friction estimator's proportional term needs.  The
    result is symmetric.
    """
    return -np.transpose(ymats, (2, 0, 1))


def error_energy(ptil, dtil, rutil):
    """0.5 (|ptil|^2 + |dtil|^2 + |rutil|^2), the decaying error measure, per row of stacks."""
    return 0.5 * (np.vecdot(ptil, ptil) + np.vecdot(dtil, dtil) + np.vecdot(rutil, rutil))


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

    derivative takes one state or, on a _stacked observer, a stack; output and diagnostics
    take one sample or a series' (S, dim) stack of them, row b bit for bit sample b.
    """

    default_gains = {"lambda": 0.8}  # by config and sweep name, the gains it reads
    state_fields = tuple(f.name for f in dataclasses.fields(Obs1State))

    def __init__(self, model: MechanicalModel, gains: Mapping[str, float] = {}):
        self.lam = checked_gains(self.default_gains, gains)["lambda"]
        failures = check_zrs(model, sample_positions(model.n, 30)).failures
        if failures:
            raise StructureError(*failures[0])
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

    def _stacked(self, observers, q0) -> "AdaptiveObserver":
        """A copy whose derivative takes a (B, dim) stack, row b with the gain of observers[b].

        Its lam is a (B, 1) column.  Each row's rate equals observers[b].derivative of that row,
        bit for bit: the rows share every model evaluation and all products are per row, so
        every layout stacks and the plant's start q0 needs no probe.
        """
        stacked = copy.copy(self)
        stacked.lam = np.array([[obs.lam] for obs in observers])
        return stacked

    def proportional_friction(self, phat) -> Array:
        """Quadratic proportional part of the friction estimate, by np.matvec per row of phat."""
        phat = np.asarray(phat, dtype=float)
        forms_phat = np.matvec(self.quads, phat[..., None, :])
        return (0.5 / self.lam) * np.matvec(forms_phat, phat)

    def _estimates(self, z, q):
        n, s = self.n, self.s
        phat = z[..., :n] + self.lam * self.model.integral_map(q)
        ruhat = z[..., n : n + s] + self.proportional_friction(phat)
        dhat = z[..., n + s :] + q
        return phat, ruhat, dhat

    def output(self, z, q) -> Obs1Estimates:
        q = np.asarray(q, dtype=float)
        z = np.asarray(z, dtype=float)
        phat, ruhat, dhat = self._estimates(z, q)
        return Obs1Estimates(p=phat, ru=ruhat, d=dhat)

    def diagnostics(self, z, q, p_true, d_true) -> dict:
        """Estimates, error norms and error energy per sample or stack row, by TimeSeries field."""
        est = self.output(z, q)
        ptil = est.p - p_true
        dtil = est.d - d_true
        rutil = est.ru - self.model.friction.unknown_coeffs
        return dict(phat=est.p, dhat=est.d, ruhat=est.ru, ptil_norm=row_norm(ptil),
                    dtil_norm=row_norm(dtil), rutil_norm=row_norm(rutil),
                    lyap=error_energy(ptil, dtil, rutil))

    def derivative(self, z, terms: StageTerms) -> Array:
        """Packed time derivative of the integrator state, or of each row of a stack of them."""
        mv = np.matvec  # one state or a stack: the product rule in model
        lam, q, T, Tt = self.lam, terms.q, terms.T, terms.T.T
        phat, ruhat, dhat = self._estimates(z, q)
        phi = regressor(self.ymats, phat)
        forces = terms.grad_v - terms.gu - dhat
        t_phat = mv(T, phat)
        p_i_dot = -lam * phat - mv(Tt, forces) - mv(phi, ruhat) - mv(Tt, self._rk_diag * t_phat)
        ru_i_dot = (1.0 / lam) * mv(phi.mT, p_i_dot + lam * phat)
        d_i_dot = -t_phat
        return np.concatenate([p_i_dot, ru_i_dot, d_i_dot], axis=-1)
