"""Differential-geometric checks on inertia factorizations.

The observer designs need two structural facts about the factor T(q):

  * whether its columns commute pairwise (all Lie brackets vanish), which
    is equivalent to the existence of a map Q with grad Q = T^-1, and
  * whether the rows carrying unknown friction are independent of q.

Both are checked numerically on a sample set, in one stacked evaluation
per evaluator (MechanicalModel's stack contract), and summarized in an
AssumptionReport, which also words the adaptive observer's refusals; that
observer checks them once, at structural_samples(n).  The same bracket
machinery builds the skew-symmetric gyroscopic matrix that appears in the
factored-coordinate dynamics.

The gyroscopic matrix.  With p = T^T(q) mom and qdot = T p, the rate of p
along the plant's flow holds, besides its potential, friction and input
terms, Tdot^T mom minus T^T times the q-gradient of |T^T mom|^2 / 2:

    pdot_i = sum_j mom^T (dT_i T_j - dT_j T_i) p_j = -sum_j mom^T [T_i, T_j] p_j,

with [X, Y] = dY X - dX Y.  As mom = T^-T p,

    J(q, p)[i, j] = -(T^-T p)^T [T_i, T_j] = -p^T B[i, j],   B[i, j] = T^-1(q) [T_i, T_j],

so the brackets are read in the factor's frame, as in the factored
coordinates of Venkatraman, Ortega, Sarras and van der Schaft (IEEE TAC
55(5), 2010): J = -B p and Jbar(q, b) = -b B.  Both vanish when the columns
commute.  The scaled observer still hands swapped_from_brackets the bare
brackets, not B; its Lyapunov-certificate test on the Cholesky crane is a
strict xfail for that reason.

factor_brackets, factor_structure (T^-1 with the brackets) and check_zrs
read T and dT from one evaluation, at one position or a (k, n) stack, each
row bit for bit its position's value: model's _factor_and_jacobian at this
module's FD_STEP, the helper that also gives the plant's stage terms at
theirs.  So check_zrs evaluates T and dT once per sample set, for its
brackets and its rows.
"""

from __future__ import annotations

import functools
import numbers
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (MechanicalModel, _factor_and_jacobian, central_differences, row_norm,
                    solved_inverse)

Array = np.ndarray

FD_STEP = 1e-5  # central-difference step of every check and bracket here
STRUCTURE_TOL = 1e-6  # largest bracket norm and integral-map residual that pass
ROW_TOL = 1e-9  # largest drift of an unknown-friction row of T that passes
_above = functools.cache(lambda n: np.triu(np.ones((n, n), dtype=bool), 1)[..., None])  # i < j


def _brackets(T: Array, dT: Array) -> Array:
    """Bracket tensor from T and its stacked dT/dq_k, at one position or a stack: one masked
    subtraction per pair i < j, its negation at [j, i] (-0.0 for 0.0), a 0.0 diagonal."""
    # x[..., i, j, :] is the derivative of column j along column i
    x = (np.swapaxes(dT, -3, -1) @ T[..., None, :, :]).swapaxes(-2, -1).swapaxes(-3, -2)
    out = np.subtract(x, x.swapaxes(-3, -2), out=np.zeros(x.shape), where=_above(T.shape[-1]))
    np.negative(out, out=out.swapaxes(-3, -2), where=_above(T.shape[-1]))
    return out


def factor_brackets(model: MechanicalModel, q) -> Array:
    """All pairwise Lie brackets of factor columns; entry [i, j] = [(T)_i, (T)_j].

    [X, Y] = dY X - dX Y, Jacobians from _factor_and_jacobian.  Entry [j, i]
    is the exact negative of entry [i, j].  q may be a (k, n) stack
    (MechanicalModel's stack contract).
    """
    return _brackets(*_factor_and_jacobian(model, np.asarray(q, dtype=float), FD_STEP))


def factor_structure(model: MechanicalModel, q) -> Tuple[Array, Array]:
    """(T^-1, factor_brackets) at q or each row of a stack, from one _factor_and_jacobian.

    T^-1 is bit for bit factor_inverse's.
    """
    q = np.asarray(q, dtype=float)
    T, dT = _factor_and_jacobian(model, q, FD_STEP)
    Tinv = solved_inverse(T) if model.factor_inv is None else model.factor_inv(q)
    return Tinv, _brackets(T, dT)


def swapped_from_brackets(br: Array, pbar) -> Array:
    """Jbar[j, k] = -pbar^T br[j, :, k], contracting whichever bracket tensor br it is given.

    br, pbar or both may be stacks, (k, n, n, n) and (k, n) in C order; each row gets the bits
    of its np.tensordot contraction alone.  gyro_swapped passes the frame brackets
    B = T^-1 [T_i, T_j], which give the gyroscopic Jbar(q, pbar); ScaledObserver passes the
    bare brackets factor_brackets(model, q) (module docstring).
    """
    n = br.shape[-1]
    rows = np.swapaxes(br, -3, -2).reshape(br.shape[:-3] + (n, n * n))
    jbar = -np.vecmat(np.asarray(pbar, dtype=float), rows)
    return jbar.reshape(jbar.shape[:-1] + (n, n))


def _frame_brackets(model: MechanicalModel, q) -> Array:
    """B[i, j] = T^-1(q) [(T)_i, (T)_j], the factor-column brackets in the factor's frame."""
    return np.einsum("kl,ijl->ijk", *factor_structure(model, q))


def gyro_matrix(model: MechanicalModel, q, p) -> Array:
    """Skew matrix J = -B p, that is J[j, k] = -p^T T^-1 [(T)_j, (T)_k] (module docstring).

    B is exactly skew in (j, k), so J + J^T = 0 holds exactly.  Models
    whose factor columns commute get an exact zero.
    """
    if model.zrs:
        return np.zeros((model.n, model.n))
    return -_frame_brackets(model, q) @ np.asarray(p, dtype=float)


def gyro_swapped(model: MechanicalModel, q, pbar) -> Array:
    """Matrix Jbar with J(q, p) pbar = Jbar(q, pbar) p for all p.

    Exists because J is linear in its second argument: column k of Jbar is
    J(q, e_k) pbar.
    """
    if model.zrs:
        return np.zeros((model.n, model.n))
    return swapped_from_brackets(_frame_brackets(model, q), pbar)


def _worst(values) -> float:
    """The largest of values, 0.0 for none; NaN if any is, where Python's max would skip it."""
    return float(np.max(values, initial=0.0))


def _positions(q, n: int) -> Array:
    """One position (n,) or a (k, n) stack, k >= 1, as a (k, n) stack; else a ValueError."""
    q = np.asarray(q, dtype=float)
    if q.shape != (n,) and not (q.ndim == 2 and q.shape[1] == n and len(q)):
        raise ValueError(f"positions must have shape ({n},) or (k >= 1, {n}), got {q.shape}")
    return q.reshape(-1, n)


def grad_integral_map_residual(model: MechanicalModel, q) -> float:
    """Frobenius norm of grad Q(q) - T^-1(q), grad Q by central differences.

    q may be a (k, n) stack of positions (_positions); the largest norm over
    its rows, NaN if any row's is.  Differences that are not finite give a
    residual that is not finite, which fails its verdict, rather than a raise.
    """
    if model.integral_map is None:
        raise ValueError("model supplies no integral map")
    n = model.n
    q = _positions(q, n)
    grads = central_differences(model.integral_map, q, FD_STEP)[1]
    # row by row as np.linalg.norm of one matrix: the norm of its C-order entries
    gaps = (grads.mT - model.factor_inverse(q)).reshape(-1, n * n)
    return _worst(row_norm(gaps))


# (name, tolerance, failure message with a slot for the residual) per verdict, in report order
_CHECKS = (
    ("commuting_factor", STRUCTURE_TOL,
     f"factor columns do not commute (max bracket norm {{:.3e}} > {STRUCTURE_TOL:g})"),
    ("integral_map", STRUCTURE_TOL,
     "integral map Jacobian does not match the factor inverse (residual {:.3e})"),
    ("constant_unknown_rows", ROW_TOL,
     "unknown-friction rows of the factor vary with q (residual {:.3e})"),
)


@dataclass
class AssumptionReport:
    """Residuals of the structural assumptions of a model, and the verdicts they give.

    pair_norms lists the largest bracket norm over the sample set per
    column pair (i, j).  gradq_residual is the worst deviation of the
    integral map's Jacobian from T^-1 (None when the model has no integral
    map).  constant_row_residual measures, for each unknown-friction row of
    T, how far it strays from its value at the first sample.  Each verdict
    holds exactly when its residual is within STRUCTURE_TOL (brackets,
    integral map) or ROW_TOL (rows), so a NaN residual fails it; the verdict
    properties, failures and to_text all read the one table, verdicts.
    """

    pair_norms: List[Tuple[int, int, float]]
    gradq_residual: Optional[float]
    constant_row_residual: List[Tuple[int, float]]

    @property
    def max_bracket_norm(self) -> float:
        return _worst([v for _, _, v in self.pair_norms])

    @property
    def verdicts(self) -> Dict[str, Tuple[Optional[bool], str, Optional[float]]]:
        """(verdict, failure message, residual) by name, in _CHECKS' order; None if not checked."""
        residuals = (self.max_bracket_norm, self.gradq_residual,
                     _worst([v for _, v in self.constant_row_residual]))
        return {name: (None, "", None) if r is None else (bool(r <= tol), message.format(r), r)
                for (name, tol, message), r in zip(_CHECKS, residuals)}

    commuting_factor_ok = property(lambda self: self.verdicts["commuting_factor"][0])
    integral_map_ok = property(lambda self: self.verdicts["integral_map"][0])  # None: no map
    constant_rows_ok = property(lambda self: self.verdicts["constant_unknown_rows"][0])
    # factor columns commute and, when present, the integral map checks out
    zrs_ok = property(lambda self: self.commuting_factor_ok and self.integral_map_ok is not False)
    all_ok = property(lambda self: not self.failures)

    @property
    def failures(self) -> List[Tuple[str, float]]:
        """(message, residual) per failed verdict, in the order commuting, integral map, rows."""
        return [(message, r) for ok, message, r in self.verdicts.values() if ok is False]

    def to_text(self) -> str:
        gradq = self.gradq_residual
        return "\n".join([
            f"tolerance = {STRUCTURE_TOL:g}",
            f"row_tolerance = {ROW_TOL:g}",
            f"max_bracket_norm = {self.max_bracket_norm:.6e}",
            *(f"bracket[{i},{j}] = {v:.6e}" for i, j, v in self.pair_norms),
            "gradq_residual = " + ("n/a" if gradq is None else f"{gradq:.6e}"),
            *(f"row_residual[{i}] = {v:.6e}" for i, v in self.constant_row_residual),
            *(f"{name} = " + ("n/a" if ok is None else "pass" if ok else "FAIL")
              for name, (ok, _, _) in self.verdicts.items()),
        ])


def check_zrs(model: MechanicalModel, sample_qs: Sequence[Array]) -> AssumptionReport:
    """Evaluate the structural assumptions over a sample set, one position or a stack (_positions).

    Each evaluator is called once, on the stack of samples.  Never raises
    on failure; the report carries residuals and verdicts so callers can
    decide (the adaptive observer refuses models that fail).
    """
    n = model.n
    samples = _positions(sample_qs, n)
    T, dT = _factor_and_jacobian(model, samples, FD_STEP)
    # a NaN bracket at any sample makes its pair's maximum NaN
    pair_max = np.linalg.norm(_brackets(T, dT), axis=-1).max(axis=0)
    pair_norms = [(i, j, float(pair_max[i, j])) for i in range(n) for j in range(i + 1, n)]

    gradq = None
    if model.integral_map is not None:
        gradq = grad_integral_map_residual(model, samples)

    kappa = model.friction.unknown_indices
    rows = T[:, kappa, :]
    worst = np.max(np.linalg.norm(rows[1:] - rows[0], axis=-1), axis=0, initial=0.0)
    row_res = [(int(i), float(v)) for i, v in zip(kappa, worst)]

    return AssumptionReport(pair_norms, gradq, row_res)


def sample_positions(n: int, count: int = 100, seed: int = 0) -> Array:
    """count seeded pseudo-random positions in [-pi, pi)^n, a (count, n) array, for structural checks.

    The draws are one stdlib random.Random(seed) stream of count * n floats
    u in [0, 1), in row-major order, each mapped to pi (2u - 1).  So the
    samples do not depend on PYTHONHASHSEED, fewer samples at a seed are the
    first rows of more, and numpy's random module (about 6 MB per process)
    is never loaded.  A seed must be a non-negative integer (Random(-s)
    would repeat Random(s)) and count at least 1; anything else raises
    ValueError.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    rng = random.Random(int(seed))
    draws = np.array([rng.random() for _ in range(count * n)]).reshape(count, n)
    return np.pi * (2.0 * draws - 1.0)


@functools.cache
def structural_samples(n: int) -> Array:
    """sample_positions(n, 30), drawn once per n and read-only: where the model factories
    probe their factor (systems._probed) and the adaptive observer checks its preconditions."""
    samples = sample_positions(n, 30)
    samples.flags.writeable = False
    return samples
