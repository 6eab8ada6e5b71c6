"""Dynamically scaled momenta observer for systems with known friction.

Works for any factor, commuting columns or not, at the price of a richer
state: copies qbar, pbar of the position and momenta estimates, the usual
integral terms, and a scalar scaling factor that never drops below one.
The position-proportional term is H(qbar, pbar) q with

    H(q, p) = (psi I + Jbar(q, p)) T^-1(q),

evaluated at the state copies so that no partial differential equation has
to be solved; the mismatch against H(q, phat) splits into two pieces that
vanish with the copy errors, and the scaling dynamics absorb their effect.
The disturbance estimate's proportional term q / r^2 couples the estimate
to the scaling factor, which is what makes constant disturbances
rejectable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from . import geometry
from .adaptive import StructureError
# bench/spans.py traces gyro_matrix and gyro_swapped under this module, so both stay imported
from .geometry import gyro_matrix, gyro_swapped, swapped_from_brackets  # noqa: F401
from .model import MechanicalModel

Array = np.ndarray

_FD_STEP = 1e-6
_BOUND_SAFETY = 2.0


def _spec_norm(A) -> float:
    """Induced 2-norm (largest singular value)."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


@dataclass(frozen=True)
class ScaledParams:
    """Free constants of the gain schedule; all must be positive.

    psi3_const is the constant margin on the scaled error; psi4_extra and
    psi5_extra are the additive margins on the two copy-error gains.
    """

    psi3_const: float = 1.0
    psi4_extra: float = 1.0
    psi5_extra: float = 1.0

    def __post_init__(self):
        if min(self.psi3_const, self.psi4_extra, self.psi5_extra) <= 0:
            raise ValueError("gain margins must be positive")


class GainSet(NamedTuple):
    psi: float
    psi1: float
    psi2: float
    psi3: float
    psi4: float
    psi5: float


@dataclass(frozen=True)
class Obs2State:
    """Copies, integral terms and the scaling factor."""

    qbar: Array
    pbar: Array
    p_i: Array
    d_i: Array
    r: float

    def pack(self) -> Array:
        return np.concatenate([self.qbar, self.pbar, self.p_i, self.d_i, [self.r]])

    @classmethod
    def from_packed(cls, z, n):
        z = np.asarray(z, dtype=float)
        return cls(z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n : 4 * n], float(z[-1]))


@dataclass(frozen=True)
class Obs2Estimates:
    p: Array
    d: Array
    mom: Array


class ScaledObserver:
    """Momenta observer with dynamic scaling and disturbance rejection.

    State dimension is 4n + 1.  Requires every friction coefficient to be
    known; friction is compensated, not estimated, here.
    """

    kind = "prop2"

    def __init__(self, model: MechanicalModel, params: ScaledParams = ScaledParams()):
        if model.friction.num_unknown:
            raise StructureError(
                "this observer needs fully known friction; "
                f"{model.friction.num_unknown} coefficient(s) are marked unknown"
            )
        self.model = model
        self.params = params
        self.psi = 4.0 * (1.0 + params.psi3_const)
        self.n = model.n
        self.dim = 4 * model.n + 1
        self._analytic_bounds = model.zrs and model.lip_factor_inv is not None
        self._memo = None  # position bytes -> structure, live during derivative()

    # -- mappings ----------------------------------------------------------

    def _structure(self, x: Array):
        """(T^-1(x), factor-column brackets at x or None when columns commute).

        Inside one derivative call each distinct position is evaluated once.
        """
        key = x.tobytes()
        if self._memo is not None and key in self._memo:
            return self._memo[key]
        model = self.model
        found = (model.factor_inverse(x), None if model.zrs else geometry.factor_brackets(model, x))
        if self._memo is not None:
            self._memo[key] = found
        return found

    def mapping_h(self, q, phat) -> Array:
        """H(q, phat) = (psi I + Jbar(q, phat)) T^-1(q)."""
        Tinv, br = self._structure(np.asarray(q, dtype=float))
        if br is None:
            return self.psi * Tinv
        return (self.psi * np.eye(self.n) + swapped_from_brackets(br, phat)) @ Tinv

    def delta_split(self, q, qbar, phat, pbar) -> Tuple[Array, Array]:
        """Split H(q, phat) - H(qbar, pbar) into position and momenta parts.

        Returns (delta_q, delta_p) = (H(q, phat) - H(qbar, phat),
        H(qbar, phat) - H(qbar, pbar)); their sum telescopes exactly and
        each vanishes when its copy error does.
        """
        h_qp = self.mapping_h(q, phat)
        h_bp = self.mapping_h(qbar, phat)
        h_bb = self.mapping_h(qbar, pbar)
        return h_qp - h_bp, h_bp - h_bb

    def delta_bounds(self, q, qbar, phat, pbar) -> Tuple[float, float]:
        """Scalars bounding |delta_q| <= bound_q |e_q|, |delta_p| <= bound_p |e_p|.

        Models with commuting factor columns and a Lipschitz constant for
        T^-1 get the sharp analytic bounds (the momenta part is then zero).
        Otherwise bound_q is a sampled secant slope along the segment from
        qbar to q, doubled for safety.  H(qbar, .) is affine in momenta, so
        every secant slope towards phat equals |delta_p| / |e_p|; bound_p is
        that exact slope, doubled likewise (the value the sampled secant gave).
        """
        if self._analytic_bounds:
            return self.psi * float(self.model.lip_factor_inv), 0.0
        q = np.asarray(q, dtype=float)
        qbar = np.asarray(qbar, dtype=float)
        phat = np.asarray(phat, dtype=float)
        pbar = np.asarray(pbar, dtype=float)
        bound_q = self._secant_bound(lambda x: self.mapping_h(x, phat), qbar, q)
        gap_p = np.linalg.norm(phat - pbar)
        if gap_p == 0.0:
            return bound_q, 0.0
        delta_p = self.mapping_h(qbar, phat) - self.mapping_h(qbar, pbar)
        return bound_q, _BOUND_SAFETY * float(np.linalg.norm(delta_p, 2)) / gap_p

    @staticmethod
    def _secant_bound(f, x0, x1, samples: int = 10) -> float:
        gap = np.linalg.norm(x1 - x0)
        if gap == 0.0:
            return 0.0
        f0 = f(x0)
        worst = 0.0
        for tau in np.linspace(0.1, 1.0, samples):
            # tau = 1 is x1 itself, not a rounded copy, so its structure is reused
            x = x1 if tau == 1.0 else x0 + tau * (x1 - x0)
            ratio = np.linalg.norm(f(x) - f0, 2) / (tau * gap)
            worst = max(worst, float(ratio))
        return _BOUND_SAFETY * worst

    # -- gain schedule ------------------------------------------------------

    def gains(self, state: Obs2State, q, phat) -> GainSet:
        """Evaluate the state-dependent gain schedule; fails hard on r < 1."""
        if state.r < 1.0 - 1e-12:
            raise ValueError(f"scaling factor fell below one (r = {state.r!r})")
        q = np.asarray(q, float)
        phat = np.asarray(phat, float)
        norm_t = _spec_norm(self.model.factor(q))
        norm_h = _spec_norm(self.mapping_h(state.qbar, state.pbar))
        bounds = self.delta_bounds(q, state.qbar, phat, state.pbar)
        return self._gains(max(state.r, 1.0), norm_t, norm_h, bounds)

    def _gains(self, r, norm_t, norm_h, bounds) -> GainSet:
        p = self.params
        bound_q, bound_p = bounds
        rtil = r - 1.0
        share = r * rtil / (4.0 * (1.0 + p.psi3_const)) * norm_t**2
        psi4 = share * bound_q**2 + p.psi4_extra
        psi5 = share * bound_p**2 + p.psi5_extra
        psi1 = 0.5 * r**2 * norm_t**2 + psi4
        psi2 = 0.5 * r**2 * norm_h**2 * norm_t**2 + psi5
        return GainSet(self.psi, psi1, psi2, p.psi3_const, psi4, psi5)

    # -- observer dynamics ---------------------------------------------------

    def default_state(self, q0, r0: float = 1.0) -> Array:
        q0 = np.asarray(q0, dtype=float)
        if r0 < 1.0:
            raise ValueError("initial scaling factor must be at least one")
        zeros = np.zeros(self.n)
        return Obs2State(q0.copy(), zeros, zeros.copy(), -q0 / r0**2, r0).pack()

    def output(self, z, q) -> Obs2Estimates:
        q = np.asarray(q, dtype=float)
        st = Obs2State.from_packed(z, self.n)
        r = max(st.r, 1.0)
        phat = st.p_i + self.mapping_h(st.qbar, st.pbar) @ q
        dhat = st.d_i + q / r**2
        mom = self.model.factor_inverse(q).T @ phat
        return Obs2Estimates(p=phat, d=dhat, mom=mom)

    def _mapping_h_rate(self, qbar, pbar, qbar_dot, pbar_dot) -> Array:
        """Time derivative of H(qbar, pbar) along the copy dynamics.

        Commuting-factor models with analytic factor derivatives get the
        exact chain rule through T^-1; anything else falls back to a
        directional central difference with step 1e-6, whose two points
        each get one structure evaluation like every other position.
        """
        model = self.model
        if model.zrs and model.factor_jac is not None:
            Tinv = self._structure(qbar)[0]
            dT = model.factor_jac(qbar)
            n = self.n
            Tdot = (qbar_dot @ dT.reshape(n, n * n)).reshape(n, n)
            return -self.psi * Tinv @ Tdot @ Tinv
        direction = np.concatenate([qbar_dot, pbar_dot])
        scale = np.linalg.norm(direction)
        if scale == 0.0:
            return np.zeros((self.n, self.n))
        uq, up = qbar_dot / scale, pbar_dot / scale
        tau = _FD_STEP
        plus = self.mapping_h(qbar + tau * uq, pbar + tau * up)
        minus = self.mapping_h(qbar - tau * uq, pbar - tau * up)
        return scale * (plus - minus) / (2.0 * tau)

    def derivative(self, z, q, u) -> Array:
        self._memo = {}
        try:
            return self._derivative(np.asarray(z, dtype=float), np.asarray(q, dtype=float), u)
        finally:
            self._memo = None

    def _derivative(self, z, q, u) -> Array:
        model = self.model
        n = self.n
        qbar, pbar, p_i, d_i = z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n : 4 * n]
        r = max(float(z[-1]), 1.0)

        T = model.factor(q)
        h_bb = self.mapping_h(qbar, pbar)
        phat = p_i + h_bb @ q
        dhat = d_i + q / r**2
        e_q = qbar - q
        e_p = pbar - phat

        if model.zrs:
            h_bp = h_bb  # H does not depend on momenta
            gyro_term = np.zeros(n)
            norm_dp = 0.0
        else:
            h_bp = self.mapping_h(qbar, phat)
            # J(q, phat) phat, read through the swap identity J(q, p) b = Jbar(q, b) p
            gyro_term = swapped_from_brackets(self._structure(q)[1], phat) @ phat
            norm_dp = _spec_norm((h_bp - h_bb) @ T)
        delta_q = self.mapping_h(q, phat) - h_bp

        norm_t = _spec_norm(T)
        norm_h = _spec_norm(h_bb)
        bounds = self.delta_bounds(q, qbar, phat, pbar)
        gains = self._gains(r, norm_t, norm_h, bounds)

        w = T.T @ (model.input_matrix(q) @ u)
        grad_v = model.grad_potential(q)
        friction_term = T.T @ (model.friction.coeffs * (T @ phat))
        rest = w - friction_term - T.T @ grad_v + T.T @ dhat + gyro_term

        qbar_dot = T @ phat - gains.psi1 * e_q
        pbar_dot = rest - gains.psi2 * e_p
        h_rate = self._mapping_h_rate(qbar, pbar, qbar_dot, pbar_dot)
        p_i_dot = -h_rate @ q - h_bb @ (T @ phat) + rest
        r_dot = -(self.psi / 4.0) * (r - 1.0) + (r / self.psi) * (
            norm_dp**2 + _spec_norm(delta_q @ T) ** 2
        )
        d_i_dot = -(T @ phat) / r**2 + (2.0 / r**3) * r_dot * q
        return np.concatenate([qbar_dot, pbar_dot, p_i_dot, d_i_dot, [r_dot]])

    def project(self, z) -> Array:
        """Post-step projection keeping the scaling factor at least one."""
        if z[-1] < 1.0:
            z = z.copy()
            z[-1] = 1.0
        return z

    def eta(self, z, q, mom_true) -> Array:
        """Scaled momenta error against the true state (diagnostics only)."""
        st = Obs2State.from_packed(z, self.n)
        p_true = self.model.factor(np.asarray(q, float)).T @ np.asarray(mom_true, float)
        phat = st.p_i + self.mapping_h(st.qbar, st.pbar) @ np.asarray(q, float)
        return (phat - p_true) / max(st.r, 1.0)
