"""Differential-geometric checks on inertia factorizations.

The observer designs need two structural facts about the factor T(q):

  * whether its columns commute pairwise (all Lie brackets vanish), which
    is equivalent to the existence of a map Q with grad Q = T^-1, and
  * whether the rows carrying unknown friction are independent of q.

Both are checked numerically on a sample set and summarized in an
AssumptionReport.  The same bracket machinery builds the skew-symmetric
gyroscopic matrix that appears in the factored-coordinate dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import MechanicalModel, central_differences

Array = np.ndarray

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-6
ROW_TOL = 1e-9


def jacobian_fd(f: Callable[[Array], Array], q: Array, h: float = DEFAULT_STEP) -> Array:
    """Jacobian of a vector field by central differences, column per q_k."""
    q = np.asarray(q, dtype=float)
    J = central_differences(f, q, h).reshape(q.size, -1).T
    if not np.all(np.isfinite(J)):
        raise ValueError("vector field evaluated to non-finite values near q")
    return J


def lie_bracket(X, Y, q, h: float = DEFAULT_STEP) -> Array:
    """[X, Y](q) = dY(q) X(q) - dX(q) Y(q), Jacobians by central differences."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    q = np.asarray(q, dtype=float)
    return jacobian_fd(Y, q, h) @ np.asarray(X(q)) - jacobian_fd(X, q, h) @ np.asarray(Y(q))


def factor_brackets(model: MechanicalModel, q, h: float = DEFAULT_STEP) -> Array:
    """All pairwise brackets of factor columns; entry [i, j] = [(T)_i, (T)_j]."""
    q = np.asarray(q, dtype=float)
    T = model.factor(q)
    # jac[j] has columns d(T e_j)/dq_k
    jac = np.transpose(model.factor_jacobian(q, h), (2, 1, 0))
    n = model.n
    out = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b = jac[j] @ T[:, i] - jac[i] @ T[:, j]
            out[i, j] = b
            out[j, i] = -b
    return out


def swapped_from_brackets(br: Array, pbar) -> Array:
    """Jbar(q, pbar) from br = factor_brackets(model, q): Jbar[j, k] = -pbar^T br[j, :, k]."""
    return -np.tensordot(np.asarray(pbar, dtype=float), br, axes=(0, 1))


def gyro_matrix(model: MechanicalModel, q, p, h: float = DEFAULT_STEP) -> Array:
    """Skew matrix J with J[j, k] = -p^T [(T)_j, (T)_k].

    Only the upper triangle is computed and mirrored, so J + J^T = 0 holds
    exactly.  Models whose factor columns commute get an exact zero.
    """
    if model.zrs:
        return np.zeros((model.n, model.n))
    p = np.asarray(p, dtype=float)
    br = factor_brackets(model, q, h)
    J = np.zeros((model.n, model.n))
    for j in range(model.n):
        for k in range(j + 1, model.n):
            v = -float(p @ br[j, k])
            J[j, k] = v
            J[k, j] = -v
    return J


def gyro_swapped(model: MechanicalModel, q, pbar, h: float = DEFAULT_STEP) -> Array:
    """Matrix Jbar with J(q, p) pbar = Jbar(q, pbar) p for all p.

    Exists because J is linear in its second argument: column k of Jbar is
    J(q, e_k) pbar.
    """
    if model.zrs:
        return np.zeros((model.n, model.n))
    return swapped_from_brackets(factor_brackets(model, q, h), pbar)


def grad_integral_map_residual(model: MechanicalModel, q, h: float = DEFAULT_STEP) -> float:
    """Frobenius norm of grad Q(q) - T^-1(q), grad Q by central differences."""
    if model.integral_map is None:
        raise ValueError("model supplies no integral map")
    G = jacobian_fd(model.integral_map, np.asarray(q, dtype=float), h)
    return float(np.linalg.norm(G - model.factor_inverse(q)))


@dataclass
class AssumptionReport:
    """Numeric verdicts for the structural assumptions of a model.

    max_bracket_norm is the largest column-pair bracket norm over the sample
    set; pair_norms lists that maximum per (i, j) pair.  gradq_residual is
    the worst deviation of the integral map's Jacobian from T^-1 (None when
    the model has no integral map).  constant_row_residual measures, for
    each unknown-friction row of T, how far it strays from its value at the
    first sample.  Verdicts hold exactly when the residuals are within the
    recorded tolerances.
    """

    tol: float
    row_tol: float
    max_bracket_norm: float
    pair_norms: List[Tuple[int, int, float]]
    gradq_residual: Optional[float]
    constant_row_residual: List[Tuple[int, float]]
    commuting_factor_ok: bool
    integral_map_ok: Optional[bool]
    constant_rows_ok: bool

    @property
    def zrs_ok(self) -> bool:
        """Factor columns commute and, when present, the integral map checks out."""
        return self.commuting_factor_ok and self.integral_map_ok is not False

    @property
    def all_ok(self) -> bool:
        return self.zrs_ok and self.constant_rows_ok

    def to_text(self) -> str:
        lines = [
            f"tolerance = {self.tol:g}",
            f"row_tolerance = {self.row_tol:g}",
            f"max_bracket_norm = {self.max_bracket_norm:.6e}",
        ]
        for i, j, v in self.pair_norms:
            lines.append(f"bracket[{i},{j}] = {v:.6e}")
        if self.gradq_residual is None:
            lines.append("gradq_residual = n/a")
        else:
            lines.append(f"gradq_residual = {self.gradq_residual:.6e}")
        for i, v in self.constant_row_residual:
            lines.append(f"row_residual[{i}] = {v:.6e}")
        lines.append(f"commuting_factor = {'pass' if self.commuting_factor_ok else 'FAIL'}")
        if self.integral_map_ok is None:
            lines.append("integral_map = n/a")
        else:
            lines.append(f"integral_map = {'pass' if self.integral_map_ok else 'FAIL'}")
        lines.append(f"constant_unknown_rows = {'pass' if self.constant_rows_ok else 'FAIL'}")
        return "\n".join(lines)


def check_zrs(
    model: MechanicalModel,
    sample_qs: Sequence[Array],
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    row_tol: float = ROW_TOL,
) -> AssumptionReport:
    """Evaluate the structural assumptions over a sample set.

    Never raises on failure; the report carries residuals and verdicts so
    callers can decide (the adaptive observer refuses models that fail).
    """
    samples = [np.asarray(q, dtype=float) for q in sample_qs]
    if not samples:
        raise ValueError("sample set must be nonempty")
    n = model.n
    pair_max = np.zeros((n, n))
    for q in samples:
        br = factor_brackets(model, q, h)
        norms = np.linalg.norm(br, axis=2)
        pair_max = np.maximum(pair_max, norms)
    pair_norms = [(i, j, float(pair_max[i, j])) for i in range(n) for j in range(i + 1, n)]
    max_bracket = max((v for _, _, v in pair_norms), default=0.0)

    gradq = None
    if model.integral_map is not None:
        gradq = max(grad_integral_map_residual(model, q, h) for q in samples)

    kappa = model.friction.unknown_indices
    row_res = []
    if kappa.size:
        base = model.factor(samples[0])[kappa, :]
        worst = np.zeros(kappa.size)
        for q in samples[1:]:
            rows = model.factor(q)[kappa, :]
            worst = np.maximum(worst, np.linalg.norm(rows - base, axis=1))
        row_res = [(int(i), float(v)) for i, v in zip(kappa, worst)]

    return AssumptionReport(
        tol=tol,
        row_tol=row_tol,
        max_bracket_norm=max_bracket,
        pair_norms=pair_norms,
        gradq_residual=gradq,
        constant_row_residual=row_res,
        commuting_factor_ok=max_bracket <= tol,
        integral_map_ok=None if gradq is None else gradq <= tol,
        constant_rows_ok=all(v <= row_tol for _, v in row_res),
    )


def sample_positions(n: int, count: int = 100, scale: float = np.pi, seed: int = 0) -> Array:
    """Deterministic random q samples for structural checks."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, n))
