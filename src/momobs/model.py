"""Mechanical system models: inertia factorization, friction split, dynamics.

A model is described by its inverse inertia matrix M^-1(q), a potential V(q),
an input matrix G(q), and a full-rank factor T(q) with T T^T = M^-1.  The
factor is part of the model, not a derived quantity: the observer designs
depend on which factor is chosen, so models carry closed-form evaluators for
T and T^-1 rather than computing a factorization numerically.

Two equivalent state representations are supported:

  * plant coordinates (q, mom) with mom the generalized momenta M(q) qdot,
  * factored coordinates (q, p) with p = T^T(q) mom, in which the kinetic
    energy is |p|^2 / 2.

Friction is a constant diagonal matrix diag(r) acting on velocities; a
boolean mask marks which coefficients are known.  The unknown ones are
collected through a constant selector matrix C with C^T r = r_u.

central_differences is the package's one axis-wise central difference.
stage_terms evaluates, once per right-hand side, the plant terms at (q, u)
that the plant and both observers read.

One product rule serves one vector and a stack of them: np.matvec(m, v)
and np.vecmat(v, m) give each row the bits of the unstacked m @ v and
v @ m, whichever of m and v carries the batch axis, where a (B, n) @ (n, n)
matmul runs another kernel and may round otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

Array = np.ndarray

_COND_LIMIT = 1e12
_JACOBIAN_STEP = 1e-6  # central-difference step of factor_jacobian without factor_jac


def central_differences(f: Callable[[Array], Array], q, h: float) -> Tuple[Array, Array]:
    """f(q) and (f(q + h e_k) - f(q - h e_k)) / 2h for every k, at one position or a (k, n) stack.

    f maps a (k, n) stack of positions to the stack of its values.  It is
    called once, on every position of q followed by its 2n shifted points.
    The differences carry their axis k right after the positions' axes.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    e = np.eye(n)
    # steps to the centre, plus and minus points, bit for bit: x + (-0.0) is x, q + (-x) is q - x
    points = q[..., None, :] + np.concatenate([-0.0 * e[:1], h * e, -h * e])
    values = f(points.reshape(-1, n))
    values = values.reshape((-1, 2 * n + 1) + values.shape[1:])
    diffs = (values[:, 1 : n + 1] - values[:, n + 1 :]) / (2.0 * h)
    batch = q.shape[:-1]
    return values[:, 0].reshape(batch + values.shape[2:]), diffs.reshape(batch + diffs.shape[1:])


def solved_inverse(T: Array) -> Array:
    """T^-1 by solving, for one factor or a stack; a numerically singular one is refused."""
    if np.any(np.linalg.cond(T) > _COND_LIMIT):
        raise ModelError("factor is numerically singular at the requested q")
    return np.linalg.solve(T, np.eye(T.shape[-1]))


class ModelError(ValueError):
    """Bad model data: dimension mismatch, non-finite input, singular factor."""


@dataclass(frozen=True)
class FrictionSpec:
    """Per-coordinate viscous friction coefficients and which are known.

    coeffs[i] >= 0 is the torque (force) per unit velocity on coordinate i.
    known_mask[i] is True when coefficient i is known to the observer.
    """

    coeffs: Array
    known_mask: Array

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        mask = np.atleast_1d(np.asarray(self.known_mask, dtype=bool))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "known_mask", mask)
        if coeffs.ndim != 1 or mask.shape != coeffs.shape:
            raise ModelError("friction coeffs and known mask must be equal-length vectors")
        if np.any(coeffs < 0):
            raise ModelError("friction coefficients must be nonnegative")

    @property
    def n(self) -> int:
        return self.coeffs.size

    @property
    def unknown_indices(self) -> Array:
        """Ordered indices of the unknown coefficients (the set kappa)."""
        return np.flatnonzero(~self.known_mask)

    @property
    def num_unknown(self) -> int:
        return int(np.count_nonzero(~self.known_mask))

    @property
    def selector(self) -> Array:
        """Constant n x s matrix C with C^T coeffs = unknown subvector.

        Column j of C is the Euclidean basis vector for the j-th unknown
        index, so rank(C) = s by construction.
        """
        idx = self.unknown_indices
        C = np.zeros((self.n, idx.size))
        C[idx, np.arange(idx.size)] = 1.0
        return C

    @property
    def unknown_coeffs(self) -> Array:
        return self.coeffs[self.unknown_indices]

    @property
    def known_coeffs(self) -> Array:
        return self.coeffs[self.known_mask]


@dataclass(frozen=True)
class GeneralizedState:
    """Plant state: generalized positions q and momenta mom."""

    q: Array
    mom: Array

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        mom = np.atleast_1d(np.asarray(self.mom, dtype=float))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mom", mom)
        if q.shape != mom.shape or q.ndim != 1:
            raise ModelError("q and mom must be vectors of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(mom))):
            raise ModelError("state entries must be finite")


@dataclass(frozen=True)
class DisturbanceSchedule:
    """Piecewise-constant momentum-level disturbance d(t).

    Holds ordered (switch_time, level) pairs; the first switch time must be
    0 so the schedule is defined from the start of a run.
    """

    times: Array
    levels: Array

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        levels = np.atleast_2d(np.asarray(self.levels, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "levels", levels)
        if levels.shape[0] != times.size:
            raise ModelError("one disturbance level per switch time")
        if times.size == 0 or times[0] != 0.0:
            raise ModelError("first switch time must be 0")
        if np.any(np.diff(times) <= 0):
            raise ModelError("switch times must be strictly increasing")

    @classmethod
    def constant(cls, d: Sequence[float]) -> "DisturbanceSchedule":
        return cls(np.zeros(1), np.atleast_2d(np.asarray(d, dtype=float)))

    def value(self, t) -> Array:
        """Level in force at time t (right-continuous at switches), stacked for an array of t."""
        k = np.searchsorted(self.times, t, side="right") - 1
        return self.levels[np.maximum(k, 0)]

    def aligned(self, dt: float) -> "DisturbanceSchedule":
        """Copy with switch times rounded onto the integration grid (half up)."""
        snapped = np.floor(self.times / dt + 0.5) * dt
        snapped[0] = 0.0
        return DisturbanceSchedule(snapped, self.levels.copy())


@dataclass(frozen=True)
class MechanicalModel:
    """Evaluator bundle for one mechanical system.

    minv, potential, grad_potential, input_matrix, factor and factor_inv are
    pure functions of q.  integral_map is the map whose Jacobian equals
    T^-1(q); it exists exactly when the factor's columns commute, and is
    required by the adaptive observer.  factor_jac optionally returns the
    stacked partial derivatives dT/dq_k with shape (n, n, n), indexed by k
    first; when absent, finite differences are used wherever derivatives of
    T are needed.  lip_factor_inv is an optional global Lipschitz constant
    of q -> T^-1(q) in the induced 2-norm, used by the scaled observer's
    gain schedule.

    Stack contract, for every model: factor, factor_inv, factor_jac and
    integral_map map a (k, n) stack of positions to the (k, ...) stack of
    their values, and one position (n,) to its value alone; each row of a
    stack must equal the value of its position alone, bit for bit.
    factor_inverse, factor_jacobian and the geometry checks then take
    stacks too, so central_differences, the structural checks and the
    scaled observer make one evaluator call per stack of positions.  minv,
    potential, grad_potential and input_matrix take one position.
    """

    n: int
    m: int
    minv: Callable[[Array], Array]
    potential: Callable[[Array], float]
    grad_potential: Callable[[Array], Array]
    input_matrix: Callable[[Array], Array]
    factor: Callable[[Array], Array]
    factor_inv: Optional[Callable[[Array], Array]]
    friction: FrictionSpec
    integral_map: Optional[Callable[[Array], Array]] = None
    factor_jac: Optional[Callable[[Array], Array]] = None
    lip_factor_inv: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.friction.n != self.n:
            raise ModelError("friction spec length must match degrees of freedom")

    @property
    def zrs(self) -> bool:
        """Whether the factor's columns commute, read from the integral map's presence."""
        return self.integral_map is not None

    def factor_inverse(self, q: Array) -> Array:
        """T^-1(q), from the closed form when supplied, else by solving."""
        if self.factor_inv is not None:
            return self.factor_inv(q)
        return solved_inverse(self.factor(q))

    def factor_jacobian(self, q: Array) -> Array:
        """Stacked dT/dq_k, analytic when available, else central differences."""
        if self.factor_jac is not None:
            return self.factor_jac(q)
        return central_differences(self.factor, q, _JACOBIAN_STEP)[1]

    def transformed_friction(self, q: Array) -> Array:
        """R(q) = T^T diag(r) T, the friction matrix in factored coordinates."""
        T = self.factor(q)
        return T.T @ (self.friction.coeffs[:, None] * T)


def _check_vector(x, n, what) -> Array:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ModelError(f"{what} must have length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ModelError(f"{what} contains non-finite entries")
    return x


class StageTerms(NamedTuple):
    """The plant terms at one position q and input u: T(q), grad V(q) and G(q) u."""

    q: Array
    T: Array
    grad_v: Array
    gu: Array


def stage_terms(model: MechanicalModel, q: Array, u: Array) -> StageTerms:
    """StageTerms of the model at q and u, which the plant RHS and the observer derivatives read."""
    return StageTerms(q, model.factor(q), model.grad_potential(q), model.input_matrix(q) @ u)


def plant_derivative(model: MechanicalModel, state: GeneralizedState, u, d):
    """Time derivative of (q, mom) for the perturbed system.

    qdot   = M^-1(q) mom
    momdot = -grad_q H(q, mom) - diag(r) M^-1(q) mom + G(q) u + d

    where H = mom^T M^-1 mom / 2 + V(q).  The kinetic part of grad_q H is
    evaluated through the factor: d/dq_k (mom^T M^-1 mom / 2) = mom^T
    (dT/dq_k) T^T mom, which is exact whenever the model supplies analytic
    factor derivatives.
    """
    u = _check_vector(u, model.m, "input u")
    d = _check_vector(d, model.n, "disturbance d")
    q, mom = state.q, state.mom
    if q.size != model.n:
        raise ModelError("state dimension does not match model")
    return _plant_rhs(model, stage_terms(model, q, u), mom, d)


def _plant_rhs(model, terms: StageTerms, mom, d):
    """plant_derivative's (qdot, momdot) from the stage terms at q, without checks."""
    T = terms.T
    p = T.T @ mom
    qdot = T @ p  # M^-1 mom through the factor
    dT = model.factor_jacobian(terms.q)
    kinetic_grad = (dT @ p) @ mom
    momdot = -terms.grad_v - kinetic_grad - model.friction.coeffs * qdot + terms.gu + d
    return qdot, momdot


def momenta_transform(model: MechanicalModel, q, mom) -> Array:
    """p = T^T(q) mom."""
    mom = _check_vector(mom, model.n, "momenta")
    return model.factor(q).T @ mom


def transformed_derivative(model: MechanicalModel, q, p, u, d):
    """Time derivative of (q, p) in factored coordinates.

    qdot = T(q) p
    pdot = (J(q, p) - R(q)) p - T^T(q) (grad V - G u - d)

    The gyroscopic matrix J vanishes identically for models whose factor
    columns commute; for other models it comes from geometry.gyro_matrix,
    by finite differences.
    """
    q = _check_vector(q, model.n, "q")
    p = _check_vector(p, model.n, "p")
    u = _check_vector(u, model.m, "input u")
    d = _check_vector(d, model.n, "disturbance d")
    T = model.factor(q)
    qdot = T @ p
    pdot = -model.transformed_friction(q) @ p - T.T @ (
        model.grad_potential(q) - model.input_matrix(q) @ u - d
    )
    if not model.zrs:
        from .geometry import gyro_matrix

        pdot = pdot + gyro_matrix(model, q, p) @ p
    return qdot, pdot

