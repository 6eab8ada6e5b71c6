"""Dynamically scaled momenta observer for systems with known friction.

Works for any factor, commuting columns or not, at the price of a richer
state: copies qbar, pbar of the position and momenta estimates, the usual
integral terms, and a scalar scaling factor that never drops below one.
The position-proportional term is H(qbar, pbar) q with

    H(q, p) = (psi I + Jbar(q, p)) T^-1(q),

evaluated at the state copies so that no partial differential equation has
to be solved; the mismatch against H(q, phat) splits into two pieces that
vanish with the copy errors, and the scaling dynamics absorb their effect.
Jbar comes from the brackets of the factor's columns, as in the factored
coordinates of Venkatraman, Ortega, Sarras and van der Schaft (IEEE TAC
55(5), 2010); a derivative evaluates each position's T^-1 and brackets once.
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
from .model import MechanicalModel, StageTerms

Array = np.ndarray

_FD_STEP = 1e-6
_BOUND_SAFETY = 2.0
_SECANT_TAUS = np.linspace(0.1, 1.0, 10)  # bound_q's samples along qbar -> q


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

    # -- mappings ----------------------------------------------------------

    def _structures(self, xs) -> list:
        """(T^-1(x), factor-column brackets at x or None when columns commute) for each x in xs.

        factor_inverse per x if columns commute, else factor_structure: one stack if the model can.
        """
        model = self.model
        if model.zrs:
            return [(model.factor_inverse(x), None) for x in xs]
        if model.maps_stacks:
            return list(zip(*geometry.factor_structure(model, np.array(xs))))
        return [geometry.factor_structure(model, x) for x in xs]

    def _h(self, structure, p) -> Array:
        """H(x, p) = (psi I + Jbar(x, p)) T^-1(x), from the _structures entry of x."""
        Tinv, br = structure
        if br is None:
            return self.psi * Tinv
        return (self.psi * np.eye(self.n) + swapped_from_brackets(br, p)) @ Tinv

    def mapping_h(self, q, phat) -> Array:
        """H(q, phat) = (psi I + Jbar(q, phat)) T^-1(q)."""
        return self._h(self._structures([np.asarray(q, dtype=float)])[0], phat)

    def _towards_q(self, qbar, q) -> list:
        """The positions besides qbar where derivative and delta_bounds read H(., phat).

        q under analytic bounds; else bound_q's secant samples, q itself last, or none if q is qbar.
        """
        if self._analytic_bounds:
            return [q]
        if np.linalg.norm(q - qbar) == 0.0:
            return []
        return [q if tau == 1.0 else qbar + tau * (q - qbar) for tau in _SECANT_TAUS]

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
        q, qbar, phat, pbar = (np.asarray(a, dtype=float) for a in (q, qbar, phat, pbar))
        s_bar, *towards_q = self._structures([qbar, *self._towards_q(qbar, q)])
        h_bp = self._h(s_bar, phat)
        return self._bounds(q - qbar, h_bp, [self._h(s, phat) for s in towards_q],
                            h_bp - self._h(s_bar, pbar), phat - pbar)

    def _bounds(self, e_q, h_bp, h_towards_q, delta_p, e_p) -> Tuple[float, float]:
        """delta_bounds from e_q, H(qbar, phat), H(., phat) at _towards_q, delta_p and e_p."""
        if self._analytic_bounds:
            return self.psi * float(self.model.lip_factor_inv), 0.0
        gap_q = np.linalg.norm(e_q)
        worst = 0.0
        for tau, h in zip(_SECANT_TAUS, h_towards_q):
            worst = max(worst, float(np.linalg.norm(h - h_bp, 2) / (tau * gap_q)))
        bound_q = _BOUND_SAFETY * worst
        gap_p = np.linalg.norm(e_p)
        if gap_p == 0.0:
            return bound_q, 0.0
        return bound_q, _BOUND_SAFETY * float(np.linalg.norm(delta_p, 2)) / gap_p

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

    def _mapping_h_rate(self, Tinv, qbar, pbar, qbar_dot, pbar_dot) -> Array:
        """Time derivative of H(qbar, pbar) along the copy dynamics; Tinv is T^-1(qbar).

        Commuting-factor models with analytic factor derivatives get the
        exact chain rule through T^-1; anything else falls back to a
        directional central difference with step 1e-6, whose two points get
        their structures from one _structures call.
        """
        model = self.model
        if model.zrs and model.factor_jac is not None:
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
        s_plus, s_minus = self._structures([qbar + tau * uq, qbar - tau * uq])
        plus, minus = self._h(s_plus, pbar + tau * up), self._h(s_minus, pbar - tau * up)
        return scale * (plus - minus) / (2.0 * tau)

    def derivative(self, z, terms: StageTerms) -> Array:
        """Rate of the packed state z at the plant's stage terms; each H and T(q) phat formed once.

        Structures come from two _structures calls: qbar with _towards_q's, then the H-rate points.
        The spectral norms of T(q), H(qbar, pbar), delta_q T(q) and, for non-commuting columns,
        delta_p T(q) come from one stacked SVD.
        """
        model = self.model
        n = self.n
        q, T = terms.q, terms.T
        qbar, pbar, p_i, d_i = z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n : 4 * n]
        r = max(float(z[-1]), 1.0)

        s_bar, *towards_q = self._structures([qbar, *self._towards_q(qbar, q)])
        h_bb = self._h(s_bar, pbar)
        phat = p_i + h_bb @ q
        dhat = d_i + q / r**2
        e_q = qbar - q
        e_p = pbar - phat

        if model.zrs:
            h_bp = h_bb  # H does not depend on momenta
            gyro_term = np.zeros(n)
        else:
            h_bp = self._h(s_bar, phat)
            # J(q, phat) phat, read through the swap identity J(q, p) b = Jbar(q, b) p
            s_q = towards_q[-1] if towards_q else s_bar
            gyro_term = swapped_from_brackets(s_q[1], phat) @ phat
        h_towards_q = [self._h(s, phat) for s in towards_q]  # the last one at q
        delta_q = (h_towards_q[-1] if towards_q else h_bp) - h_bp

        normed = [T, h_bb, delta_q @ T]
        if not model.zrs:
            normed.append((h_bp - h_bb) @ T)
        # induced 2-norms, the largest singular values; a stacked SVD gives each one bit for bit
        norms = np.linalg.svd(np.array(normed), compute_uv=False)[:, 0].tolist()
        norm_t, norm_h, norm_dq, *dp_norms = norms
        norm_dp = dp_norms[0] if dp_norms else 0.0  # delta_p vanishes on commuting columns
        bounds = self._bounds(e_q, h_bp, h_towards_q, h_bp - h_bb, e_p)
        gains = self.gains(r, norm_t, norm_h, bounds)

        t_phat = T @ phat
        friction_term = T.T @ (model.friction.coeffs * t_phat)
        rest = T.T @ terms.gu - friction_term - T.T @ terms.grad_v + T.T @ dhat + gyro_term

        qbar_dot = t_phat - gains.psi1 * e_q
        pbar_dot = rest - gains.psi2 * e_p
        h_rate = self._mapping_h_rate(s_bar[0], qbar, pbar, qbar_dot, pbar_dot)
        p_i_dot = -h_rate @ q - h_bb @ t_phat + rest
        r_dot = -(self.psi / 4.0) * (r - 1.0) + (r / self.psi) * (norm_dp**2 + norm_dq**2)
        d_i_dot = -t_phat / r**2 + (2.0 / r**3) * r_dot * q
        return np.concatenate([qbar_dot, pbar_dot, p_i_dot, d_i_dot, [r_dot]])

    def project(self, z) -> None:
        """Post-step projection keeping the scaling factor at least one, in place in z."""
        if z[-1] < 1.0:
            z[-1] = 1.0
