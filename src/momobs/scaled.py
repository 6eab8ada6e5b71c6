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
55(5), 2010); a derivative evaluates each position's T^-1 and brackets once,
and a lockstep group on commuting columns steps its rows through one stack
kernel, _ScaledStack.derivative.
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
_ZERO, _ONE = np.float64(0.0), np.float64(1.0)  # powers take numpy floats: overflow gives inf


def _norm(v):
    """Euclidean norm of v, or of each row of a stack, bit for bit np.linalg.norm of one vector."""
    return np.sqrt(np.vecdot(v, v))


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
        return cls(z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n : 4 * n], z[-1])


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
        self._psi_m = self.psi  # psi shaped to scale T^-1(qbar) of every row

    def _stacked(self, observers, q0):
        """The observers' _ScaledStack, or None when rows must run one by one: on non-commuting
        columns, on a model without factor_jac, or when T^-1 or its derivatives come in another
        layout than C order, which matmul may round differently once stacked.  The layouts are
        probed at q0, the plant's start, a position every run visits.
        """
        model = self.model
        x = np.asarray(q0, dtype=float)
        evaluators = (model.factor_inverse, model.factor_jac)
        if not (model.zrs and model.factor_jac is not None
                and all(np.asarray(f(x)).flags.c_contiguous for f in evaluators)):
            return None
        return _ScaledStack(self, observers)

    # -- mappings ----------------------------------------------------------

    def _structures(self, xs) -> list:
        """(T^-1(x), factor-column brackets at x or None when columns commute) for each x in xs.

        One factor_inverse call on the stack xs if columns commute, else one factor_structure call.
        """
        xs = np.array(xs)
        if self.model.zrs:
            return [(Tinv, None) for Tinv in self.model.factor_inverse(xs)]
        return list(zip(*geometry.factor_structure(self.model, xs)))

    def _h(self, structure, p) -> Array:
        """H(x, p) = (psi I + Jbar(x, p)) T^-1(x), from the _structures entry of x."""
        Tinv, br = structure
        if br is None:
            return self.psi * Tinv
        return (self.psi * np.eye(self.n) + swapped_from_brackets(br, p)) @ Tinv

    def mapping_h(self, q, phat) -> Array:
        """H(q, phat) = (psi I + Jbar(q, phat)) T^-1(q)."""
        return self._h(self._structures([np.asarray(q, dtype=float)])[0], phat)

    def _towards_q(self, qbar, q) -> Array:
        """The positions besides qbar where derivative and delta_bounds read H(., phat), first axis.

        q under analytic bounds; else bound_q's secant samples, q itself last, per row of a stack
        of qbar.  Empty, (0, n), for one qbar at q; a stacked row at q gets samples all at q.
        """
        if self._analytic_bounds:
            return q[None]
        if qbar.ndim == 1 and _norm(q - qbar) == 0.0:
            return np.empty((0, self.n))
        points = qbar + _SECANT_TAUS.reshape((-1,) + (1,) * qbar.ndim) * (q - qbar)
        points[-1] = q
        return points

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
        """delta_bounds from e_q, H(qbar, phat), H(., phat) at _towards_q, delta_p and e_p.

        bound_q is per row of a stack of e_q on commuting columns, where delta_p vanishes.  The
        largest secant slope skips NaN, as Python's max does: a stacked row at q has only 0 / 0.
        """
        if self._analytic_bounds:
            return self.psi * np.float64(self.model.lip_factor_inv), _ZERO
        gap_q = _norm(e_q)
        h_towards_q = np.reshape(h_towards_q, (-1,) + h_bp.shape)  # (0, n, n) when there are none
        secants = np.linalg.svd(h_towards_q - h_bp, compute_uv=False).max(axis=-1)
        taus = _SECANT_TAUS[: len(secants)].reshape((-1,) + (1,) * gap_q.ndim)
        with np.errstate(invalid="ignore"):
            slopes = secants / (taus * gap_q)
        bound_q = _BOUND_SAFETY * np.fmax.reduce(slopes, axis=0, initial=0.0)
        if self.model.zrs:
            return bound_q, _ZERO
        gap_p = np.linalg.norm(e_p)
        if gap_p == 0.0:
            return bound_q, _ZERO
        return bound_q, _BOUND_SAFETY * np.linalg.norm(delta_p, 2) / gap_p

    # -- gain schedule ------------------------------------------------------

    def gains(self, r, r2, norm_t2, norm_h2, bounds2) -> GainSet:
        """Gain schedule at scaling factor r from r^2, |T(q)|^2, |H(qbar, pbar)|^2 and the squared
        delta_bounds (bound_q^2, bound_p^2): numpy floats, or a _ScaledStack's (B, 1) columns.
        """
        (bound_q2, bound_p2), (psi3, psi4_extra, psi5_extra) = bounds2, self.margins.values()
        share = r * (r - 1.0) / self.psi * norm_t2
        psi4 = share * bound_q2 + psi4_extra
        psi5 = share * bound_p2 + psi5_extra
        psi1 = 0.5 * r2 * norm_t2 + psi4
        psi2 = 0.5 * r2 * norm_h2 * norm_t2 + psi5
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
        r = np.float64(st.r)
        if not r >= 1.0:
            raise ValueError(f"initial scaling factor r must be at least one, got {float(r)!r}")
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
        r = max(st.r, _ONE)
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
        r = max(st.r, _ONE)
        phat = st.p_i + self.mapping_h(st.qbar, st.pbar) @ q
        dhat = st.d_i + q / r**2
        return Obs2Estimates(p=phat, d=dhat)

    def _mapping_h_rate(self, Tinv, qbar, pbar, qbar_dot, pbar_dot) -> Array:
        """Time derivative of H(qbar, pbar) along the copy dynamics; Tinv is T^-1(qbar).

        Commuting-factor models with analytic factor derivatives get the
        exact chain rule through T^-1, per row of a stack; anything else
        falls back to a directional central difference with step 1e-6, whose
        two points get their structures from one _structures call.
        """
        model = self.model
        if model.zrs and model.factor_jac is not None:
            dT = model.factor_jac(qbar).reshape(qbar.shape[:-1] + (self.n, -1))
            Tdot = np.vecmat(qbar_dot, dT).reshape(Tinv.shape)
            return -self._psi_m * Tinv @ Tdot @ Tinv
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
        """Rate of one packed state z at the plant's stage terms; each H and T(q) phat formed once.

        On commuting columns H = psi T^-1 comes from one factor_inverse call at qbar, then one at
        _towards_q's positions.  Otherwise the structures come from two _structures calls: qbar
        with _towards_q's, then the H-rate points.  The spectral norms of T(q), H(qbar, pbar),
        delta_q T(q) and, for non-commuting columns, delta_p T(q) come from one stacked SVD.
        """
        model, n, mv = self.model, self.n, np.matvec
        q, T = terms.q, terms.T
        qbar, pbar = z[:n], z[n : 2 * n]
        p_i, d_i = z[2 * n : 3 * n], z[3 * n : 4 * n]
        r = max(z[-1], _ONE)

        if model.zrs:  # H does not depend on momenta
            tinv_bar = model.factor_inverse(qbar)
            h_bb = h_bp = self.psi * tinv_bar
            if self._analytic_bounds:
                h_q, h_towards_q = self.psi * model.factor_inverse(q), None
            else:  # every secant sample in one (k, n) stack
                towards = self._towards_q(qbar, q)
                h_towards_q = self.psi * model.factor_inverse(towards)
                h_q = h_towards_q[-1] if len(towards) else h_bp
        else:
            s_bar, *towards_q = self._structures([qbar, *self._towards_q(qbar, q)])
            tinv_bar = s_bar[0]
            h_bb = self._h(s_bar, pbar)
        phat = p_i + h_bb @ q
        r2 = r**2
        dhat = d_i + q / r2
        e_q = qbar - q
        e_p = pbar - phat

        if model.zrs:
            gyro_term, delta_p, normed = 0.0, None, [T, h_bb, (h_q - h_bp) @ T]
        else:
            h_bp = self._h(s_bar, phat)
            # J(q, phat) phat, read through the swap identity J(q, p) b = Jbar(q, b) p
            s_q = towards_q[-1] if towards_q else s_bar
            gyro_term = swapped_from_brackets(s_q[1], phat) @ phat
            h_towards_q = [self._h(s, phat) for s in towards_q]  # the last one at q
            h_q = h_towards_q[-1] if towards_q else h_bp
            delta_p = h_bp - h_bb
            normed = [T, h_bb, (h_q - h_bp) @ T, delta_p @ T]

        # induced 2-norms, the largest singular values, by index (unpacking costs 1 us more)
        norms = np.linalg.svd(np.array(normed), compute_uv=False)[:, 0]
        norm_t, norm_h, norm_dq = norms[0], norms[1], norms[2]
        norm_dp = _ZERO if model.zrs else norms[3]
        bound_q, bound_p = self._bounds(e_q, h_bp, h_towards_q, delta_p, e_p)
        gains = self.gains(r, r2, norm_t**2, norm_h**2, (bound_q**2, bound_p**2))

        t_phat = mv(T, phat)
        friction_term = mv(T.T, model.friction.coeffs * t_phat)
        rest = T.T @ terms.gu - friction_term - T.T @ terms.grad_v + mv(T.T, dhat) + gyro_term

        qbar_dot = t_phat - gains.psi1 * e_q
        pbar_dot = rest - gains.psi2 * e_p
        h_rate = self._mapping_h_rate(tinv_bar, qbar, pbar, qbar_dot, pbar_dot)
        p_i_dot = -h_rate @ q - mv(h_bb, t_phat) + rest
        r_dot = -(self.psi / 4.0) * (r - 1.0) + (r / self.psi) * (norm_dp**2 + norm_dq**2)
        d_i_dot = -t_phat / r2 + (2.0 / r**3) * r_dot * q
        return np.concatenate([qbar_dot, pbar_dot, p_i_dot, d_i_dot, [r_dot]])

    def project(self, z) -> None:
        """Post-step projection keeping the scaling factor at least one, in place in z.

        z is one state or a stack of rows; a NaN factor stays NaN.
        """
        r = z[..., -1]
        np.maximum(r, 1.0, out=r)


class _ScaledStack(ScaledObserver):
    """A lockstep group's ScaledObserver on commuting columns; derivative takes (B, dim) stacks.

    margins and psi are (B, 1) columns of observers[b]'s gains; -psi / 4 and, under analytic
    bounds, the squared delta_bounds (bound_q^2, 0) are built once per group.
    """

    def __init__(self, base: ScaledObserver, observers):
        vars(self).update(vars(base))
        self.margins = {key: np.array([[obs.margins[key]] for obs in observers])
                        for key in base.margins}
        self.psi = np.array([[obs.psi] for obs in observers])
        self._psi_m, self._r_decay = self.psi[..., None], -(self.psi / 4.0)
        if self._analytic_bounds:
            bound_q = self.psi * np.float64(self.model.lip_factor_inv)
            self._bounds2 = np.float_power(bound_q, 2.0), _ZERO

    def derivative(self, zs, terms: StageTerms) -> Array:
        """Rates of the (B, dim) stack zs, row b bit for bit observers[b].derivative(zs[b]).

        One factor_inverse call on qbar and _towards_q's positions (q last), one stacked SVD of
        T(q) and each row's H(qbar, pbar) and delta_q T(q); powers are float_power's libm pow.
        """
        model, n, rows, mv, psi_m = self.model, self.n, len(zs), np.matvec, self._psi_m
        q, T = terms.q, terms.T
        qbar, pbar = zs[:, :n], zs[:, n : 2 * n]
        p_i, d_i = zs[:, 2 * n : 3 * n], zs[:, 3 * n : 4 * n]
        r = np.maximum(zs[:, -1:], 1.0)

        towards = self._towards_q(qbar, q)
        tinv = model.factor_inverse(np.concatenate([qbar, towards.reshape(-1, n)]))
        tinv_bar = tinv[:rows]
        h_bb = psi_m * tinv_bar  # H(qbar, phat) = H(qbar, pbar): H = psi T^-1 reads no momenta
        phat = p_i + h_bb @ q
        r2 = np.float_power(r, 2.0)
        dhat = d_i + q / r2
        e_q = qbar - q
        e_p = pbar - phat

        norms = np.linalg.svd(np.concatenate([T[None], h_bb, (psi_m * tinv[-1] - h_bb) @ T]),
                              compute_uv=False)[:, 0]
        norm_h2, norm_dq2 = np.float_power(norms[1:], 2.0).reshape(2, -1, 1)
        if self._analytic_bounds:
            bounds2 = self._bounds2
        else:
            h_towards_q = psi_m * tinv[rows:].reshape(towards.shape + (n,))
            bound_q, _ = self._bounds(e_q, h_bb, h_towards_q, None, e_p)
            bounds2 = np.float_power(bound_q, 2.0)[:, None], _ZERO
        gains = self.gains(r, r2, norms[0] ** 2, norm_h2, bounds2)

        t_phat = mv(T, phat)
        friction_term = mv(T.T, model.friction.coeffs * t_phat)
        # + 0.0 as derivative adds commuting columns' gyro term: -0.0 becomes 0.0 alike
        rest = T.T @ terms.gu - friction_term - T.T @ terms.grad_v + mv(T.T, dhat) + 0.0

        qbar_dot = t_phat - gains.psi1 * e_q
        pbar_dot = rest - gains.psi2 * e_p
        h_rate = self._mapping_h_rate(tinv_bar, qbar, pbar, qbar_dot, pbar_dot)
        p_i_dot = -h_rate @ q - mv(h_bb, t_phat) + rest
        r_dot = self._r_decay * (r - 1.0) + (r / self.psi) * norm_dq2
        d_i_dot = -t_phat / r2 + (2.0 / np.float_power(r, 3.0)) * r_dot * q
        return np.concatenate([qbar_dot, pbar_dot, p_i_dot, d_i_dot, r_dot], axis=-1)
