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

import dataclasses
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Tuple

import numpy as np

from . import geometry
from .adaptive import StructureError, checked_gains, replace_fields
# bench/spans.py traces gyro_matrix and gyro_swapped under this module, so both stay imported
from .geometry import gyro_matrix, gyro_swapped, swapped_from_brackets  # noqa: F401
from .model import MechanicalModel

Array = np.ndarray

_FD_STEP = 1e-6
_BOUND_SAFETY = 2.0


def _spec_norm(A) -> float:
    """Induced 2-norm (largest singular value)."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


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


class ScaledObserver:
    """Momenta observer with dynamic scaling and disturbance rejection.

    State dimension is 4n + 1.  gains may set the schedule's margins
    (checked_gains, before any structural check): psi3_const on the scaled
    error, psi4_extra and psi5_extra on the two copy-error gains.  Requires
    every friction coefficient to be known; friction is compensated, not
    estimated, here.
    """

    default_gains = {"psi3_const": 1.0, "psi4_extra": 1.0, "psi5_extra": 1.0}
    gain_keys = tuple(default_gains)  # config and sweep names of the gains it reads
    state_fields = tuple(f.name for f in dataclasses.fields(Obs2State))

    def __init__(self, model: MechanicalModel, gains: Mapping[str, float] = {}):
        self.margins = checked_gains(self.default_gains, gains)
        if model.friction.num_unknown:
            raise StructureError(
                "this observer needs fully known friction; "
                f"{model.friction.num_unknown} coefficient(s) are marked unknown"
            )
        self.model = model
        self.psi = 4.0 * (1.0 + self.margins["psi3_const"])
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
        found = (model.factor_inverse(x), None) if model.zrs else geometry.factor_structure(model, x)
        if self._memo is not None:
            self._memo[key] = found
        return found

    def _prefetch(self, xs) -> None:
        """Memoise the structure of the positions xs as one stack, bit for bit _structure's."""
        fresh = {key: x for x in xs if (key := x.tobytes()) not in self._memo}
        if fresh:
            Tinv, br = geometry.factor_structure(self.model, np.array(list(fresh.values())))
            self._memo.update(zip(fresh, zip(Tinv, br)))

    def mapping_h(self, q, phat) -> Array:
        """H(q, phat) = (psi I + Jbar(q, phat)) T^-1(q)."""
        Tinv, br = self._structure(np.asarray(q, dtype=float))
        if br is None:
            return self.psi * Tinv
        return (self.psi * np.eye(self.n) + swapped_from_brackets(br, phat)) @ Tinv

    def delta_bounds(self, q, qbar, phat, pbar) -> Tuple[float, float]:
        """Scalars bounding |delta_q| <= bound_q |e_q|, |delta_p| <= bound_p |e_p|.

        H(q, phat) - H(qbar, pbar) splits into delta_q = H(q, phat) -
        H(qbar, phat) and delta_p = H(qbar, phat) - H(qbar, pbar); each
        vanishes when its copy error does.

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
        h_bp = self.mapping_h(qbar, phat)
        gap_q = np.linalg.norm(q - qbar)
        worst = 0.0
        for tau, x in self._secant_points(qbar, q):
            ratio = np.linalg.norm(self.mapping_h(x, phat) - h_bp, 2) / (tau * gap_q)
            worst = max(worst, float(ratio))
        bound_q = _BOUND_SAFETY * worst
        gap_p = np.linalg.norm(phat - pbar)
        if gap_p == 0.0:
            return bound_q, 0.0
        delta_p = h_bp - self.mapping_h(qbar, pbar)
        return bound_q, _BOUND_SAFETY * float(np.linalg.norm(delta_p, 2)) / gap_p

    @staticmethod
    def _secant_points(x0, x1):
        """(tau, x0 + tau (x1 - x0)) for the secant samples; none when x0 and x1 coincide."""
        if np.linalg.norm(x1 - x0) == 0.0:
            return []
        # tau = 1 is x1 itself, not a rounded copy, so its structure is reused
        taus = np.linspace(0.1, 1.0, 10)
        return [(tau, x1 if tau == 1.0 else x0 + tau * (x1 - x0)) for tau in taus]

    # -- gain schedule ------------------------------------------------------

    def gains(self, r, norm_t, norm_h, bounds) -> GainSet:
        """Gain schedule at scaling factor r, from |T(q)|, |H(qbar, pbar)| and delta_bounds."""
        psi3, psi4_extra, psi5_extra = self.margins.values()
        bound_q, bound_p = bounds
        rtil = r - 1.0
        share = r * rtil / (4.0 * (1.0 + psi3)) * norm_t**2
        psi4 = share * bound_q**2 + psi4_extra
        psi5 = share * bound_p**2 + psi5_extra
        psi1 = 0.5 * r**2 * norm_t**2 + psi4
        psi2 = 0.5 * r**2 * norm_h**2 * norm_t**2 + psi5
        return GainSet(self.psi, psi1, psi2, psi3, psi4, psi5)

    # -- observer dynamics ---------------------------------------------------

    def state_with(self, q0, **fields) -> Array:
        """Packed start at q0: the named Obs2State fields, the rest the neutral start.

        The neutral start copies q0 into qbar, zeros pbar and p_i, and sets
        the scaling factor r to one.  r, a number or a one-entry vector, must
        be at least one; d_i, when not given, is -q0 / r^2 at the start's r.
        """
        q0 = np.asarray(q0, dtype=float)
        zeros = np.zeros(self.n)
        st = replace_fields(Obs2State(q0.copy(), zeros, zeros, -q0, 1.0), fields)
        r = float(st.r)
        if not r >= 1.0:
            raise ValueError(f"initial scaling factor r must be at least one, got {r!r}")
        if "d_i" not in fields:
            st = dataclasses.replace(st, d_i=-q0 / r**2)
        return st.pack()

    def exact_state(self, q0, p0, d0) -> dict:
        """state_with fields whose estimation and copy errors all vanish at q0, p0 (r = 1)."""
        q0 = np.asarray(q0, dtype=float)
        return dict(pbar=p0, p_i=p0 - self.mapping_h(q0, p0) @ q0, d_i=d0 - q0)

    def diagnostics(self, z, q, p_true, d_true) -> dict:
        """Estimates, error norms, scaling factor and Lyapunov value at one sample.

        Keyed by TimeSeries field; eta is the momenta error over r.
        """
        est = self.output(z, q)
        st = Obs2State.from_packed(z, self.n)
        r = max(st.r, 1.0)
        ptil = est.p - p_true
        dtil = est.d - d_true
        eta = ptil / r
        e_q = st.qbar - q
        e_p = st.pbar - est.p
        lyap = 0.5 * (eta @ eta + e_q @ e_q + e_p @ e_p + (r - 1.0) ** 2 + dtil @ dtil)
        return dict(phat=est.p, dhat=est.d, ptil_norm=np.linalg.norm(ptil),
                    dtil_norm=np.linalg.norm(dtil), lyap=lyap, scale=st.r,
                    eta_norm=np.linalg.norm(eta))

    def output(self, z, q) -> Obs2Estimates:
        q = np.asarray(q, dtype=float)
        st = Obs2State.from_packed(z, self.n)
        r = max(st.r, 1.0)
        phat = st.p_i + self.mapping_h(st.qbar, st.pbar) @ q
        dhat = st.d_i + q / r**2
        return Obs2Estimates(p=phat, d=dhat)

    def _mapping_h_rate(self, qbar, pbar, qbar_dot, pbar_dot) -> Array:
        """Time derivative of H(qbar, pbar) along the copy dynamics.

        Commuting-factor models with analytic factor derivatives get the
        exact chain rule through T^-1; anything else falls back to a
        directional central difference with step 1e-6, whose two points get
        their structure once each, as one stack where _prefetch applies.
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
        ends = qbar + tau * uq, qbar - tau * uq
        if not model.zrs and model.maps_stacks:  # the last two positions, as one stack
            self._prefetch(ends)
        plus = self.mapping_h(ends[0], pbar + tau * up)
        minus = self.mapping_h(ends[1], pbar - tau * up)
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
        # the structure of every position the mappings and bounds below read:
        # qbar, q and the secant samples between them, as one stack
        if not model.zrs and model.maps_stacks:
            self._prefetch([qbar, q] + [x for _, x in self._secant_points(qbar, q)])
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
        gains = self.gains(r, norm_t, norm_h, bounds)

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
