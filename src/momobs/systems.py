"""Ready-made mechanical models: constant inertia, planar manipulator, spider crane.

Each factory returns a MechanicalModel whose factor T is a specific closed
form, chosen so that the factor columns commute.  The Cholesky crane is the
crane with another factor: the same M^-1, potential, inputs and friction on
the ordinary lower-triangular Cholesky factor, whose columns do not commute,
so it exercises the failure path of the structural checks.

Every factory keeps MechanicalModel's stack contract, (k, n) in and (k, ...)
out, each row bit for bit its position's value alone: the closed forms are
elementwise trig and arithmetic on the stack's columns, in copies of
constant templates (_per_position).  The crane's M^-1 squares by float_power,
a numpy float's ** 2 (libm pow) where an array's would multiply and round otherwise.

One rule says what a model may be, and every factory returns through it
(_probed): T, T T^T = M^-1 and any closed-form T^-1 must be formed and finite
at the 30 structural samples.  The params refuse only masses, lengths and I
that are not positive: the factor stays finite at L3 < 0 or l < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np

from .geometry import sample_positions
from .model import FrictionSpec, MechanicalModel, ModelError

Array = np.ndarray


def _per_position(const: Array, q: Array) -> Array:
    """A fresh copy of const for one position q, or one per row of a stack of positions."""
    if q.ndim == 1:  # the same copy, at a third of the cost per call
        return const.copy()
    out = np.empty(q.shape[:-1] + const.shape)
    out[...] = const
    return out


@cache
def _structural_samples(n: int) -> Array:
    """sample_positions(n, 30), the positions the prop1 observer checks, drawn once per n."""
    return sample_positions(n, 30)


def _probed(model: MechanicalModel, cited: str) -> MechanicalModel:
    """model, once T, T T^T = M^-1 and any closed-form T^-1 are formed and finite at the samples.

    One stacked call of factor (and factor_inv) on _structural_samples(n); a
    LinAlgError (no Cholesky factor), an ArithmeticError (a Python float that
    overflows or divides by zero) or a value that is not finite gives a ModelError
    citing cited.  Nothing is solved, so a finite but numerically singular T passes:
    an observer refuses it where it solves for T^-1.  Each factory runs under
    np.errstate(all="ignore"), so a refusal warns of nothing on the way.
    """
    q = _structural_samples(model.n)
    try:
        T = model.factor(q)
        values = [T, T @ T.mT] + ([] if model.factor_inv is None else [model.factor_inv(q)])
        if all(np.isfinite(v).all() for v in values):
            return model
    except (np.linalg.LinAlgError, ArithmeticError):
        pass
    raise ModelError("the factor T, T T^T = M^-1 and any closed-form T^-1 must be formed and "
                     f"finite at the 30 structural sample positions, got {cited}")


def _values(params, *names: str) -> str:
    """'name = value, ...' of the named fields of params."""
    return ", ".join(f"{k} = {float(getattr(params, k))!r}" for k in names)


def _refuse_nonpositive(params, what: str, *names: str):
    """ModelError citing the named fields of params unless each is > 0 (NaN fails too)."""
    if not all(getattr(params, k) > 0 for k in names):
        raise ModelError(f"{what} must be positive, got {_values(params, *names)}")


@dataclass(frozen=True)
class SpiderCraneParams:
    """Gantry ring of mass m_r moving in its plane, payload m on a cable L3.

    Refused unless m_r, m and L3 are positive; the factories refuse the values
    whose factor is not finite (module docstring).
    """

    m_r: float = 0.5
    m: float = 1.0
    L3: float = 0.5
    g: float = 9.81
    friction: Sequence[float] = (0.0, 0.0, 0.5)
    known_mask: Sequence[bool] = (True, True, False)

    def __post_init__(self):
        _refuse_nonpositive(self, "masses m_r, m and cable length L3", "m_r", "m", "L3")


@dataclass(frozen=True)
class ManipulatorParams:
    """Planar redundant manipulator with one elastic degree of freedom.

    Refused unless I, M, m and l are positive; make_planar_manipulator refuses
    the values whose factor is not finite (module docstring).
    """

    I: float = 1.0
    M: float = 1.0
    m: float = 1.0
    l: float = 1.0
    friction: Sequence[float] = (0.3, 0.2, 0.1, 0.1)
    known_mask: Sequence[bool] = (False, False, True, True)

    def __post_init__(self):
        _refuse_nonpositive(self, "physical constants I, M, m and l", "I", "M", "m", "l")


@np.errstate(all="ignore")  # the probe refuses inf and NaN, with no warning on the way
def make_constant_inertia(M, K, friction: FrictionSpec | None = None) -> MechanicalModel:
    """Linear mass-spring system with constant inertia M and stiffness K.

    The factor is the symmetric square root of M^-1, so it is constant, its
    columns trivially commute, and the integral map is linear.  All friction
    coefficients may be treated as unknown here.  A stack of positions gets
    one copy of T per row, and the integral map is np.matvec, which gives
    each row the bits of one position (the product rule in model).
    """
    M = np.asarray(M, dtype=float)
    K = np.asarray(K, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or not np.allclose(M, M.T):
        raise ModelError("inertia matrix must be square symmetric")
    if K.shape != (n, n) or not np.allclose(K, K.T):  # grad 0.5 q^T K q is K q only then
        raise ModelError(f"stiffness matrix K must be symmetric {n} x {n}, the size of M")
    w, V = np.linalg.eigh(M)
    if np.any(w <= 0):
        raise ModelError("inertia matrix must be positive definite")
    minv = V @ np.diag(1.0 / w) @ V.T
    T = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    Tinv = V @ np.diag(np.sqrt(w)) @ V.T
    if friction is None:
        friction = FrictionSpec(np.zeros(n), np.zeros(n, dtype=bool))
    G = np.eye(n)
    return _probed(MechanicalModel(
        n=n,
        m=n,
        minv=lambda q: minv,
        potential=lambda q: 0.5 * float(q @ K @ q),
        grad_potential=lambda q: K @ q,
        input_matrix=lambda q: G,
        factor=lambda q: _per_position(T, q),
        factor_inv=lambda q: _per_position(Tinv, q),
        friction=friction,
        integral_map=lambda q: np.matvec(Tinv, q),
        factor_jac=lambda q: np.zeros(q.shape[:-1] + (n, n, n)),
        lip_factor_inv=0.0,
        name="constant",
    ), f"M = {M.tolist()}")


@np.errstate(all="ignore")  # as make_constant_inertia
def make_planar_manipulator(params: ManipulatorParams = ManipulatorParams()) -> MechanicalModel:
    """4-dof underactuated manipulator with an elastic joint.

    The factor here is lower triangular and depends on q only through
    q1 + q2; its first two rows are constant, so the frictions on the
    elastic coordinate and the revolute joint can be treated as unknown.
    The potential is not part of this model (it lives with the physical
    parameters we do not fix); structural identities are what it is for.
    T, T^-1, dT and the integral map take (k, 4) stacks (module docstring).
    """
    I, M, m, l = (np.float64(k) for k in (params.I, params.M, params.m, params.l))  # inf, no raise
    a2, a3 = np.sqrt(M * m) * l / np.sqrt(m + M), np.sqrt(M + m)
    rho, sI = np.sqrt(M / m), np.sqrt(I)
    T_const = np.diag([1.0 / sI, 1.0 / a2, 1.0 / a3, 1.0 / a3])
    T_const[1, 0] = -1.0 / sI
    Tinv_const = np.diag([sI, a2, a3, a3])
    Tinv_const[1, 0] = a2

    def trig(x):  # x = q.T: x[k] is coordinate k of each row of a stack, a number for one q
        s = x[0] + x[1]
        return np.sin(s), np.cos(s)

    def factor(q):
        s12, c12 = trig(q.T)
        T = _per_position(T_const, q)
        T[..., 2, 1], T[..., 3, 1] = -rho * s12 / a3, rho * c12 / a3
        return T

    def factor_inv(q):
        s12, c12 = trig(q.T)
        Tinv = _per_position(Tinv_const, q)
        Tinv[..., 2, 0] = Tinv[..., 2, 1] = a2 * rho * s12
        Tinv[..., 3, 0] = Tinv[..., 3, 1] = -a2 * rho * c12
        return Tinv

    def integral_map(q):
        x = q.T
        s12, c12 = trig(x)
        return np.array([sI * x[0], a2 * (x[0] + x[1]),
                         -a2 * rho * c12 + a3 * x[2], -a2 * rho * s12 + a3 * x[3]]).T

    def factor_jac(q):
        s12, c12 = trig(q.T)
        d = np.zeros(q.shape[:-1] + (4, 4, 4))
        d[..., 0, 2, 1] = d[..., 1, 2, 1] = -rho * c12 / a3
        d[..., 0, 3, 1] = d[..., 1, 3, 1] = -rho * s12 / a3
        return d

    def minv(q):
        T = factor(q)
        return T @ T.T

    G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    return _probed(MechanicalModel(
        n=4,
        m=2,
        minv=minv,
        potential=lambda q: 0.0,
        grad_potential=lambda q: np.zeros(4),
        input_matrix=lambda q: G,
        factor=factor,
        factor_inv=factor_inv,
        friction=FrictionSpec(params.friction, params.known_mask),
        integral_map=integral_map,
        factor_jac=factor_jac,
        name="manipulator",
    ), _values(params, "I", "M", "m", "l"))


def crane_constants(params: SpiderCraneParams):
    """The three constants of the crane's upper-triangular factor; inf, 0 or NaN if it has none."""
    m_r, m, L3 = np.float64(params.m_r), np.float64(params.m), np.float64(params.L3)
    a = 1.0 / np.sqrt(m_r + m)
    c = np.sqrt((m_r + m) / (m * L3**2 * m_r))
    b = 1.0 / (c * L3 * m_r)
    return a, b, c


def _spider_crane(params: SpiderCraneParams) -> MechanicalModel:
    """make_spider_crane's model, before its probe."""
    p = params
    a, b, c = crane_constants(p)
    mgl = p.m * p.g * p.L3
    alm = a * p.L3 * p.m
    G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    den, rl = (p.m_r + p.m) * p.m_r, p.L3 * p.m_r

    def minv(q):
        q = np.asarray(q, dtype=float)
        s3, c3 = np.sin(q[..., 2]), np.cos(q[..., 2])
        M = np.empty(q.shape + (3,))
        M[..., 0, 0] = (p.m_r + p.m * np.float_power(c3, 2.0)) / den
        M[..., 1, 1] = (p.m_r + p.m * np.float_power(s3, 2.0)) / den
        M[..., 2, 2] = (p.m_r + p.m) / (p.m_r * p.L3**2 * p.m)
        M[..., 0, 1] = M[..., 1, 0] = p.m * c3 * s3 / den
        M[..., 0, 2] = M[..., 2, 0] = -c3 / rl
        M[..., 1, 2] = M[..., 2, 1] = -s3 / rl
        return M

    T_const = np.array([[a, 0.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, c]])
    Tinv_const = np.array([[1.0 / a, 0.0, 0.0], [0.0, 1.0 / a, 0.0], [0.0, 0.0, 1.0 / c]])

    def factor(q):  # q.T[2]: the cable angle of each row of a stack, a number for one q
        q3 = q.T[2]
        s3, c3 = np.sin(q3), np.cos(q3)
        T = _per_position(T_const, q)
        T[..., 0, 2], T[..., 1, 2] = -b * c3, -b * s3
        return T

    def factor_inv(q):
        q3 = q.T[2]
        s3, c3 = np.sin(q3), np.cos(q3)
        Tinv = _per_position(Tinv_const, q)
        Tinv[..., 0, 2], Tinv[..., 1, 2] = alm * c3, alm * s3
        return Tinv

    def integral_map(q):
        x = q.T
        s3, c3 = np.sin(x[2]), np.cos(x[2])
        return np.array([x[0] / a + alm * s3, x[1] / a - alm * c3, x[2] / c]).T

    def factor_jac(q):
        q3 = q.T[2]
        s3, c3 = np.sin(q3), np.cos(q3)
        d = np.zeros(q.shape[:-1] + (3, 3, 3))
        d[..., 2, 0, 2], d[..., 2, 1, 2] = b * s3, -b * c3
        return d

    return MechanicalModel(
        n=3,
        m=2,
        minv=minv,
        potential=lambda q: mgl * (1.0 - np.cos(q[2])),
        grad_potential=lambda q: np.array([0.0, 0.0, mgl * np.sin(q[2])]),
        input_matrix=lambda q: G,
        factor=factor,
        factor_inv=factor_inv,
        friction=FrictionSpec(p.friction, p.known_mask),
        integral_map=integral_map,
        factor_jac=factor_jac,
        lip_factor_inv=alm,
        name="spider-crane",
    )


@np.errstate(all="ignore")  # as make_constant_inertia
def make_spider_crane(params: SpiderCraneParams = SpiderCraneParams()) -> MechanicalModel:
    """2D spider crane: gantry ring plus pendulum payload on a fixed cable.

    Uses the upper-triangular factor whose third row is constant, so the
    cable-angle friction coefficient can be estimated.  The two gantry
    forces are the inputs.  The potential is the pendulum term
    m g L3 (1 - cos q3); the ring moves in a horizontal plane.  M^-1, T,
    T^-1, dT and the integral map take (k, 3) stacks (module docstring).
    """
    return _probed(_spider_crane(params), _values(params, "m_r", "m", "L3"))


@np.errstate(all="ignore")  # as make_constant_inertia
def make_spider_crane_cholesky(params: SpiderCraneParams = SpiderCraneParams()) -> MechanicalModel:
    """The spider crane with another factor: the lower-triangular Cholesky factor of its M^-1.

    M^-1, the potential, the inputs and the friction are the crane's own;
    every closed form of the crane's factor (T^-1, dT, the integral map and
    T^-1's Lipschitz constant) is cleared.  The factor's columns do not
    commute, so this model has no integral map and fails the structural
    checks; it exists to demonstrate that the factor choice matters.
    Without closed forms it follows the stack contract: factor is
    np.linalg.cholesky of the crane's minv, which maps a (k, 3) stack of
    positions to (k, 3, 3) in one call (module docstring).

    The probe (module docstring) evaluates this factor alone, not the
    crane's: at extreme parameters the rounded M^-1 is not positive definite
    at some sample (at m = 1e200 not at q = 0), or its Python-float L3**2
    overflows, where the crane's own closed-form factor stays finite.
    """
    base = _spider_crane(params)
    return _probed(replace(base, factor=lambda q: np.linalg.cholesky(base.minv(q)),
                           factor_inv=None, integral_map=None, factor_jac=None,
                           lip_factor_inv=None, name="spider-crane-cholesky"),
                   _values(params, "m_r", "m", "L3"))


def _constant_inertia_by_keys(M=((1.0, 0.0), (0.0, 1.0)), K=None, friction=None,
                              known_mask=None) -> MechanicalModel:
    """make_constant_inertia from [model] keys: K defaults to I, friction to zero and unknown."""
    n = len(M)
    spec = FrictionSpec(np.zeros(n) if friction is None else friction,
                        np.zeros(n, dtype=bool) if known_mask is None else known_mask)
    return make_constant_inertia(M, np.eye(n) if K is None else K, spec)


def build_named_model(name: str, **kwargs) -> MechanicalModel:
    """Factory dispatch by config model name; kwargs are that model's [model] keys."""
    if name == "constant":
        return _constant_inertia_by_keys(**kwargs)
    if name == "manipulator":
        return make_planar_manipulator(ManipulatorParams(**kwargs))
    if name == "spider-crane":
        return make_spider_crane(SpiderCraneParams(**kwargs))
    if name == "spider-crane-cholesky":
        return make_spider_crane_cholesky(SpiderCraneParams(**kwargs))
    raise ModelError(f"unknown model name: {name!r}")
