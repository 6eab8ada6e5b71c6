"""Couples a plant to an observer, integrates, and extracts metrics.

Integration is classic fixed-step fourth-order Runge-Kutta: runs are
deterministic and step-halving gives a clean order check.  Disturbance
switch times are snapped onto the step grid and the level is frozen per
step, so the right-hand side stays smooth inside every step.  The observer
never feeds back into the plant input; enabling it cannot change the plant
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveObserver, error_energy
from .model import DisturbanceSchedule, MechanicalModel, _plant_rhs
from .scaled import Obs2State, ScaledObserver, ScaledParams

Array = np.ndarray

OBSERVER_KINDS = ("none", "prop1", "prop2")


@dataclass(frozen=True)
class InputChannel:
    """One input component amplitude * cos/sin(frequency * t + phase)."""

    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0
    waveform: str = "cos"

    def __post_init__(self):
        if self.waveform not in ("cos", "sin"):
            raise ValueError("waveform must be 'cos' or 'sin'")
        if not np.isfinite([self.amplitude, self.frequency, self.phase]).all():
            raise ValueError("input channel parameters must be finite")

    def value(self, t: float) -> float:
        angle = self.frequency * t + self.phase
        wave = math.cos(angle) if self.waveform == "cos" else math.sin(angle)
        return self.amplitude * wave


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description for one run."""

    model: MechanicalModel
    observer: str = "none"
    lam: float = 0.8
    scaled_params: ScaledParams = ScaledParams()
    q0: Sequence[float] = ()
    mom0: Sequence[float] = ()
    obs_init: Optional[Array] = None
    inputs: Tuple[InputChannel, ...] = ()
    disturbance: Optional[DisturbanceSchedule] = None
    t_final: float = 10.0
    dt: float = 1e-3
    stride: int = 10
    verify: bool = True
    name: str = ""

    def __post_init__(self):
        if self.observer not in OBSERVER_KINDS:
            raise ValueError(f"observer must be one of {OBSERVER_KINDS}")
        if self.dt <= 0 or self.t_final < self.dt:
            raise ValueError("need dt > 0 and t_final >= dt")
        if self.stride < 1:
            raise ValueError("sample stride must be at least 1")
        n = self.model.n
        q0 = np.asarray(self.q0, dtype=float) if len(self.q0) else np.zeros(n)
        mom0 = np.asarray(self.mom0, dtype=float) if len(self.mom0) else np.zeros(n)
        if q0.shape != (n,) or mom0.shape != (n,):
            raise ValueError("initial state dimensions do not match the model")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "mom0", mom0)
        if len(self.inputs) > self.model.m:
            raise ValueError("more input channels than model inputs")
        if self.disturbance is None:
            object.__setattr__(self, "disturbance", DisturbanceSchedule.constant(np.zeros(n)))
        if self.disturbance.levels.shape[1] != n:
            raise ValueError("disturbance dimension does not match the model")

    def input_value(self, t: float) -> Array:
        u = np.zeros(self.model.m)
        for i, ch in enumerate(self.inputs):
            u[i] = ch.value(t)
        return u

    def build_observer(self):
        if self.observer == "none":
            return None
        if self.observer == "prop1":
            return AdaptiveObserver(self.model, self.lam, verify=self.verify)
        return ScaledObserver(self.model, self.scaled_params)


@dataclass
class TimeSeries:
    """Sampled trajectories plus diagnostic error norms.

    Arrays are None when the quantity does not apply to the observer kind.
    lyap is the decaying error measure evaluated on the true errors, scale
    the dynamic scaling factor of the prop2 observer.
    """

    observer: str
    t: Array
    q: Array
    mom: Array
    obs: Optional[Array] = None
    phat: Optional[Array] = None
    dhat: Optional[Array] = None
    ruhat: Optional[Array] = None
    ptil_norm: Optional[Array] = None
    dtil_norm: Optional[Array] = None
    rutil_norm: Optional[Array] = None
    lyap: Optional[Array] = None
    scale: Optional[Array] = None
    eta_norm: Optional[Array] = None
    diverged: bool = False
    message: str = ""

    def column_labels(self) -> List[str]:
        n = self.q.shape[1]
        labels = ["t"]
        labels += [f"q{i+1}" for i in range(n)]
        labels += [f"mom{i+1}" for i in range(n)]
        if self.observer != "none":
            labels += [f"phat{i+1}" for i in range(n)]
            labels += [f"dhat{i+1}" for i in range(n)]
            if self.observer == "prop1":
                labels += [f"ruhat{i+1}" for i in range(self.ruhat.shape[1])]
            labels += ["ptil", "dtil"]
            if self.observer == "prop1":
                labels += ["rutil"]
            labels += ["lyap"]
            if self.observer == "prop2":
                labels += ["r"]
        return labels

    def column_data(self) -> Array:
        cols = [self.t[:, None], self.q, self.mom]
        if self.observer != "none":
            cols += [self.phat, self.dhat]
            if self.observer == "prop1":
                cols.append(self.ruhat)
            cols += [self.ptil_norm[:, None], self.dtil_norm[:, None]]
            if self.observer == "prop1":
                cols.append(self.rutil_norm[:, None])
            cols.append(self.lyap[:, None])
            if self.observer == "prop2":
                cols.append(self.scale[:, None])
        return np.hstack(cols)

    def to_csv(self, path) -> None:
        """Plain CSV, dot decimals, 17 significant digits."""
        data = self.column_data()
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.column_labels()) + "\n")
            for row in data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class Metrics:
    """Convergence summary of one run."""

    convergence_time: float
    converged: bool
    final_ptil: float
    final_dtil: float
    final_rutil: float
    lyap_violations: int
    lyap_max_violation: float

    def to_text(self) -> str:
        return "\n".join(
            [
                f"convergence_time = {self.convergence_time:.17g}",
                f"converged = {str(self.converged).lower()}",
                f"final_ptil = {self.final_ptil:.17g}",
                f"final_dtil = {self.final_dtil:.17g}",
                f"final_rutil = {self.final_rutil:.17g}",
                f"lyap_violations = {self.lyap_violations}",
                f"lyap_max_violation = {self.lyap_max_violation:.17g}",
            ]
        )


def rk4_step(f, t, x, dt):
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_solve(f, x0, t_final, dt, record_stride: int = 1):
    """Generic fixed-step solve; returns (times, states) arrays."""
    steps = int(round(t_final / dt))
    x = np.asarray(x0, dtype=float).copy()
    ts = [0.0]
    xs = [x.copy()]
    for k in range(steps):
        x = rk4_step(f, k * dt, x, dt)
        if (k + 1) % record_stride == 0 or k + 1 == steps:
            ts.append((k + 1) * dt)
            xs.append(x.copy())
    return np.array(ts), np.array(xs)


def exact_observer_init(sc: Scenario) -> Array:
    """Observer state whose estimation errors are all zero at t = 0.

    Uses the scenario's true initial momenta, friction coefficients and
    initial disturbance level, so it is a diagnostic tool: with this start
    the error coordinates stay on the invariant zero manifold.
    """
    obs = sc.build_observer()
    if obs is None:
        raise ValueError("scenario has no observer")
    model = sc.model
    q0 = np.asarray(sc.q0, dtype=float)
    p0 = model.factor(q0).T @ np.asarray(sc.mom0, dtype=float)
    d0 = sc.disturbance.value(0.0)
    if sc.observer == "prop1":
        p_i = p0 - obs.lam * model.integral_map(q0)
        ru_i = model.friction.unknown_coeffs - obs.proportional_friction(p0)
        d_i = d0 - q0
        return np.concatenate([p_i, ru_i, d_i])
    qbar, pbar, r0 = q0.copy(), p0.copy(), 1.0
    p_i = p0 - obs.mapping_h(qbar, pbar) @ q0
    d_i = d0 - q0 / r0**2
    return Obs2State(qbar, pbar, p_i, d_i, r0).pack()


def integrate_scenario(sc: Scenario) -> TimeSeries:
    """Run the coupled plant and observer system.

    Divergence does not raise: a non-finite state, or a LinAlgError,
    FloatingPointError or (Python float) OverflowError inside a step,
    truncates the series at the last finite sample and flags it, with a
    message saying when the run blew up and what was raised.
    """
    model = sc.model
    n = model.n
    obs = sc.build_observer()
    sched = sc.disturbance.aligned(sc.dt)
    steps = int(round(sc.t_final / sc.dt))
    dt = sc.dt

    if obs is None:
        z0 = np.zeros(0)
    elif sc.obs_init is not None:
        z0 = np.asarray(sc.obs_init, dtype=float)
        if z0.shape != (obs.dim,):
            raise ValueError(f"observer initial state must have length {obs.dim}")
    else:
        z0 = obs.default_state(sc.q0)
    x = np.concatenate([sc.q0, sc.mom0, z0])

    input_value = sc.input_value
    project = getattr(obs, "project", None)

    def rhs(t, state, d):
        q = state[:n]
        mom = state[n : 2 * n]
        u = input_value(t)
        qd, momd = _plant_rhs(model, q, mom, u, d)
        if obs is None:
            return np.concatenate([qd, momd])
        return np.concatenate([qd, momd, obs.derivative(state[2 * n :], q, u)])

    samples = [(0.0, x.copy())]
    diverged = False
    message = ""
    for k in range(steps):
        t = k * dt
        d = sched.value(t + 0.5 * dt)
        f = lambda tt, xx: rhs(tt, xx, d)
        try:
            x = rk4_step(f, t, x, dt)
            if project is not None:
                view = x[2 * n :]
                tail = project(view)
                if tail is not view:
                    x[2 * n :] = tail
        except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
            diverged = True
            message = f"{type(exc).__name__} in the step from t = {t:.6g}: {exc}"
            break
        if not np.all(np.isfinite(x)):
            diverged = True
            message = f"state became non-finite at t = {(k + 1) * dt:.6g}"
            break
        if (k + 1) % sc.stride == 0 or k + 1 == steps:
            samples.append(((k + 1) * dt, x.copy()))

    ts = np.array([s[0] for s in samples])
    states = np.array([s[1] for s in samples])
    series = _assemble_series(sc, obs, sched, ts, states)
    series.diverged = diverged
    series.message = message
    return series


def _assemble_series(sc, obs, sched, ts, states) -> TimeSeries:
    model = sc.model
    n = model.n
    q = states[:, :n]
    mom = states[:, n : 2 * n]
    base = TimeSeries(observer=sc.observer, t=ts, q=q, mom=mom)
    if obs is None:
        return base

    count = ts.size
    base.obs = states[:, 2 * n :]
    base.phat = np.empty((count, n))
    base.dhat = np.empty((count, n))
    base.ptil_norm = np.empty(count)
    base.dtil_norm = np.empty(count)
    base.lyap = np.empty(count)
    if sc.observer == "prop1":
        s = obs.s
        base.ruhat = np.empty((count, s))
        base.rutil_norm = np.empty(count)
        ru_true = model.friction.unknown_coeffs
    else:
        base.scale = np.empty(count)
        base.eta_norm = np.empty(count)

    for i in range(count):
        qi, momi, zi = q[i], mom[i], states[i, 2 * n :]
        p_true = model.factor(qi).T @ momi
        d_true = sched.value(ts[i])
        est = obs.output(zi, qi)
        base.phat[i] = est.p
        base.dhat[i] = est.d
        ptil = est.p - p_true
        dtil = est.d - d_true
        base.ptil_norm[i] = np.linalg.norm(ptil)
        base.dtil_norm[i] = np.linalg.norm(dtil)
        if sc.observer == "prop1":
            rutil = est.ru - ru_true
            base.ruhat[i] = est.ru
            base.rutil_norm[i] = np.linalg.norm(rutil)
            base.lyap[i] = error_energy(ptil, dtil, rutil)
        else:
            st = Obs2State.from_packed(zi, n)
            r = max(st.r, 1.0)
            eta = ptil / r
            e_q = st.qbar - qi
            e_p = st.pbar - est.p
            base.scale[i] = st.r
            base.eta_norm[i] = np.linalg.norm(eta)
            base.lyap[i] = 0.5 * (
                eta @ eta + e_q @ e_q + e_p @ e_p + (r - 1.0) ** 2 + dtil @ dtil
            )
    return base


def compute_metrics(ts: TimeSeries, eps: float = 1e-2, lyap_tol: float = 1e-8) -> Metrics:
    """Convergence time of the momenta error plus decay-violation counts.

    convergence_time(eps) is the first sample time after which the momenta
    error norm stays below eps; inf when it never settles within the run.
    """
    if ts.t.size == 0:
        raise ValueError("empty time series")
    if ts.ptil_norm is None:
        raise ValueError("series has no observer diagnostics")
    above = np.flatnonzero(ts.ptil_norm >= eps)
    if above.size == 0:
        conv_time, converged = float(ts.t[0]), True
    elif above[-1] == ts.t.size - 1:
        conv_time, converged = math.inf, False
    else:
        conv_time, converged = float(ts.t[above[-1] + 1]), True

    diffs = np.diff(ts.lyap)
    bad = diffs > lyap_tol
    return Metrics(
        convergence_time=conv_time,
        converged=converged,
        final_ptil=float(ts.ptil_norm[-1]),
        final_dtil=float(ts.dtil_norm[-1]),
        final_rutil=float(ts.rutil_norm[-1]) if ts.rutil_norm is not None else float("nan"),
        lyap_violations=int(np.count_nonzero(bad)),
        lyap_max_violation=float(diffs[bad].max()) if bad.any() else 0.0,
    )


def apply_sweep_value(sc: Scenario, param: str, value: float) -> Scenario:
    if param == "lambda":
        return replace(sc, lam=float(value))
    if param in ("psi3_const", "psi4_extra", "psi5_extra"):
        return replace(sc, scaled_params=replace(sc.scaled_params, **{param: float(value)}))
    if param.startswith("q0[") and param.endswith("]"):
        idx = int(param[3:-1])
        q0 = np.array(sc.q0, dtype=float)
        q0[idx] = value
        return replace(sc, q0=q0)
    if param.startswith("mom0[") and param.endswith("]"):
        idx = int(param[5:-1])
        mom0 = np.array(sc.mom0, dtype=float)
        mom0[idx] = value
        return replace(sc, mom0=mom0)
    raise ValueError(f"unknown sweep parameter {param!r}")


def sweep_series(sc: Scenario, param: str, values):
    """Independent runs per value, order preserved; returns (value, TimeSeries) pairs."""
    return [(float(v), integrate_scenario(apply_sweep_value(sc, param, v))) for v in values]


def sweep(sc: Scenario, param: str, values, eps: float = 1e-2):
    """Like sweep_series but keeps only the metrics: (value, Metrics) pairs."""
    return [(v, compute_metrics(ts, eps=eps)) for v, ts in sweep_series(sc, param, values)]
