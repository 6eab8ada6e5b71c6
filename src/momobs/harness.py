"""Couples a plant to an observer, integrates, and extracts metrics.

Integration is classic fixed-step fourth-order Runge-Kutta: runs are
deterministic and step-halving gives a clean order check.  Disturbance
switch times are snapped onto the step grid and the level is frozen per
step, so the right-hand side stays smooth inside every step; every step's
level is looked up before the loop.  Each RK4 stage evaluates the plant
terms T(q), grad V(q) and G(q) u once (model.stage_terms), and the plant
right-hand side and the observer derivative both read them.  The observer
never feeds back into the plant input; enabling it cannot change the plant
trajectory.

Plant replay.  share_plant gives scenarios that integrate the same plant
one tape.  The first run of the group records each stage's plant terms
and plant rate (qdot, momdot), n^2 + 4n floats, and publishes the tape
only if it ends without diverging.  Later runs read them from the tape in
place of evaluating them, through the same step loop and the same rk4_step
on the full state.  The replay is exact: RK4 combines the stage rates
elementwise, so the plant part of every stage state depends on the plant
rates alone, and those are the recorded values, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveObserver
from .model import (DisturbanceSchedule, MechanicalModel, ModelError, StageTerms, _plant_rhs,
                    stage_terms)
from .scaled import ScaledObserver

Array = np.ndarray

# observer classes by kind; "none" integrates the plant alone
OBSERVER_TYPES = {"prop1": AdaptiveObserver, "prop2": ScaledObserver}
OBSERVER_KINDS = ("none", *OBSERVER_TYPES)
_GAIN_KEYS = {key for cls in OBSERVER_TYPES.values() for key in cls.default_gains}
CONVERGENCE_EPS = 1e-2  # momenta error norm below which a run counts as settled
LYAP_TOL = 1e-8  # largest sample-to-sample rise of lyap not counted as a violation


def observer_keys(kind: str, attr: str):
    """What the observer of a kind reads, by config name: attr "default_gains" or "state_fields"."""
    return getattr(OBSERVER_TYPES.get(kind), attr, ())


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
    """Complete experiment description for one run.

    gains (by name) and obs_init (observer state fields replacing the
    neutral start at q0) go to the kind's class in OBSERVER_TYPES, which
    defaults and checks both; kind "none" takes neither.  Construction
    builds the observer once (gain and structural checks), packs its start
    with state_with and snaps the disturbance schedule onto the dt grid
    (colliding switches are a ModelError); every run reuses all three, so a
    scenario that constructs is one that can run.  share_plant may later
    hand it a plant tape shared with other scenarios; a copy starts without.
    """

    model: MechanicalModel
    observer: str = "none"
    gains: Mapping[str, float] = field(default_factory=dict)
    q0: Sequence[float] = ()
    mom0: Sequence[float] = ()
    obs_init: Mapping[str, object] = field(default_factory=dict)
    inputs: Tuple[InputChannel, ...] = ()
    disturbance: Optional[DisturbanceSchedule] = None
    t_final: float = 10.0
    dt: float = 1e-3
    stride: int = 10

    def __post_init__(self):
        if self.observer not in OBSERVER_KINDS:
            raise ValueError(f"observer must be one of {OBSERVER_KINDS}")
        if not 0 < self.dt <= self.t_final < math.inf:
            raise ValueError("need finite dt > 0 and t_final >= dt")
        if self.observer == "none" and (self.gains or self.obs_init):
            raise ValueError("observer kind none reads no gains or state fields, got "
                             f"{[*self.gains, *self.obs_init]}")
        if not (self.stride >= 1 and float(self.stride).is_integer()):
            raise ValueError(f"sample stride must be a positive integer, got {self.stride!r}")
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
        try:
            schedule = self.disturbance.aligned(self.dt)
        except ModelError as exc:
            raise ModelError(f"disturbance switch times collide when snapped onto the "
                             f"dt = {self.dt:g} step grid ({exc})") from None
        cls = OBSERVER_TYPES.get(self.observer)
        obs = None if cls is None else cls(self.model, self.gains)
        z0 = np.zeros(0) if obs is None else obs.state_with(q0, **self.obs_init)
        # built once here and read by every run; not fields, so nothing more to set
        object.__setattr__(self, "_observer", obs)
        object.__setattr__(self, "_z0", z0)
        object.__setattr__(self, "_schedule", schedule)
        object.__setattr__(self, "_plant_tape", None)

    @property
    def steps(self) -> int:
        """RK4 steps of a run: t_final / dt, rounded."""
        return int(round(self.t_final / self.dt))

    def input_value(self, t: float) -> Array:
        u = np.zeros(self.model.m)
        for i, ch in enumerate(self.inputs):
            u[i] = ch.value(t)
        return u

    def build_observer(self):
        """The observer built with the scenario (None for "none")."""
        return self._observer


# CSV column groups in order: (label, TimeSeries field); a vector field gives one column per entry
_CSV_COLUMNS = (("t", "t"), ("q", "q"), ("mom", "mom"), ("phat", "phat"), ("dhat", "dhat"),
                ("ruhat", "ruhat"), ("ptil", "ptil_norm"), ("dtil", "dtil_norm"),
                ("rutil", "rutil_norm"), ("lyap", "lyap"), ("r", "scale"))


@dataclass
class TimeSeries:
    """Sampled trajectories plus diagnostic error norms.

    Arrays are None when the quantity does not apply to the observer kind.
    lyap is the decaying error measure evaluated on the true errors, scale
    the dynamic scaling factor of the prop2 observer.
    """

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

    def _columns(self) -> List[Tuple[str, Array]]:
        present = ((label, getattr(self, name)) for label, name in _CSV_COLUMNS)
        return [(label, data) for label, data in present if data is not None]

    def column_labels(self) -> List[str]:
        labels = []
        for label, data in self._columns():
            labels += [label] if data.ndim == 1 else [f"{label}{i+1}" for i in range(data.shape[1])]
        return labels

    def column_data(self) -> Array:
        return np.hstack([data[:, None] if data.ndim == 1 else data for _, data in self._columns()])

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

    def _cells(self, true: str, false: str) -> List[Tuple[str, str]]:
        """(name, text) per field: the flag as true or false, the count as is, floats as %.17g."""
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return [(name, (true if v else false) if isinstance(v, bool)
                 else str(v) if isinstance(v, int) else f"{v:.17g}") for name, v in values]

    def to_text(self) -> str:
        """metrics.txt: one `name = text` line per field."""
        return "\n".join(f"{name} = {text}" for name, text in self._cells("true", "false"))

    @staticmethod
    def sweep_csv(rows) -> str:
        """sweep_metrics.csv of (swept value, Metrics) pairs: the value, then _cells (flag 1/0)."""
        lines = [["value", *(f.name for f in fields(Metrics))]]
        lines += [[f"{value:.17g}", *(text for _, text in m._cells("1", "0"))] for value, m in rows]
        return "".join(",".join(cells) + "\n" for cells in lines)


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


def exact_observer_init(sc: Scenario) -> dict:
    """Observer state fields (for Scenario.obs_init) whose estimation errors are all zero at t = 0.

    Uses the scenario's true initial momenta, friction coefficients and
    initial disturbance level, so it is a diagnostic tool: with this start
    the error coordinates stay on the invariant zero manifold.
    """
    obs = sc.build_observer()
    if obs is None:
        raise ValueError("scenario has no observer")
    p0 = sc.model.factor(sc.q0).T @ sc.mom0
    return obs.exact_state(sc.q0, p0, sc._schedule.value(0.0))


class _PlantTape:
    """One share_plant group's plant trajectory, None until a run records it without diverging.

    rows packs one RK4 stage per row: T(q) row by row, grad V(q), G(q) u,
    qdot and momdot.
    """

    rows: Optional[Array] = None


def share_plant(scenarios: Sequence[Scenario]) -> None:
    """Give each group of scenarios that integrate the same plant one plant tape.

    The same plant means the same model object, equal q0, mom0, inputs and
    snapped disturbance schedule (floats by their bits), and equal dt and
    step count; the observers may differ.  A scenario that shares with no
    other gets no tape, and its runs record nothing.
    """
    groups = {}
    for sc in scenarios:
        key = (id(sc.model), sc.q0.tobytes(), sc.mom0.tobytes(), repr(sc.inputs),
               sc._schedule.times.tobytes(), sc._schedule.levels.tobytes(), sc.dt, sc.steps)
        groups.setdefault(key, []).append(sc)
    for group in groups.values():
        tape = _PlantTape() if len(group) > 1 else None
        for sc in group:
            object.__setattr__(sc, "_plant_tape", tape)


def integrate_scenario(sc: Scenario) -> TimeSeries:
    """Run the coupled plant and observer system.

    Divergence does not raise: a non-finite state, or a LinAlgError,
    FloatingPointError or (Python float) OverflowError inside a step,
    truncates the series and flags it, with a message saying in the step
    from which time the run blew up and what was raised.  The series ends
    with the state at that time, the last finite one, even off the stride.
    A scenario with a plant tape (share_plant) replays the plant from it,
    or records it when no run of its group has yet.
    """
    model = sc.model
    n = model.n
    obs = sc.build_observer()
    steps = sc.steps
    dt = sc.dt
    step_levels = sc._schedule.value(np.arange(steps) * dt + 0.5 * dt)  # at each step's midpoint

    x = np.concatenate([sc.q0, sc.mom0, sc._z0])

    input_value = sc.input_value
    project = getattr(obs, "project", None)

    tape = sc._plant_tape
    replay = tape is not None and tape.rows is not None
    if tape is not None:  # per RK4 stage, in the order rk4_step asks: T, grad V, G u, qdot, momdot
        rows = tape.rows if replay else np.empty((4 * steps, n * (n + 4)))
        stages = zip(rows[:, : n * n].reshape(-1, n, n), *np.split(rows[:, n * n :], 4, axis=1))
    c_ordered = True  # a replayed T is C-ordered, and matmul may round another layout differently

    def rhs(t, state, d):
        nonlocal c_ordered
        q = state[:n]
        if replay:
            T, grad_v, gu, qd, momd = next(stages)
            terms = StageTerms(q, T, grad_v, gu)
        else:
            terms = stage_terms(model, q, input_value(t))
            qd, momd = _plant_rhs(model, terms, state[n : 2 * n], d)
            if tape is not None:
                for slot, value in zip(next(stages), (*terms[1:], qd, momd)):
                    slot[...] = value
                c_ordered = c_ordered and terms.T.flags.c_contiguous
        if obs is None:
            return np.concatenate([qd, momd])
        return np.concatenate([qd, momd, obs.derivative(state[2 * n :], terms)])

    samples = [(0.0, x.copy())]
    message = ""
    for k in range(steps):
        t = k * dt
        d = step_levels[k]
        f = lambda tt, xx: rhs(tt, xx, d)
        last = x  # rk4_step returns a new array, so this stays the state at t
        try:
            x = rk4_step(f, t, x, dt)
            if project is not None:
                project(x[2 * n :])
            if not np.isfinite(x).all():
                message = f"state became non-finite in the step from t = {t:.6g}"
        except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
            message = f"{type(exc).__name__} in the step from t = {t:.6g}: {exc}"
        if message:
            if k % sc.stride:
                samples.append((t, last))
            break
        if (k + 1) % sc.stride == 0 or k + 1 == steps:
            samples.append(((k + 1) * dt, x.copy()))

    if tape is not None and not replay and not message and c_ordered:
        rows.flags.writeable = False  # replays read it; a write would reach every later one
        tape.rows = rows
    ts = np.array([s[0] for s in samples])
    states = np.array([s[1] for s in samples])
    series = _assemble_series(sc, obs, ts, states)
    series.diverged = bool(message)
    series.message = message
    return series


def _assemble_series(sc, obs, ts, states) -> TimeSeries:
    n = sc.model.n
    series = TimeSeries(t=ts, q=states[:, :n], mom=states[:, n : 2 * n])
    if obs is None:
        return series
    series.obs = states[:, 2 * n :]
    rows = [obs.diagnostics(z, q, sc.model.factor(q).T @ mom, d)
            for q, mom, z, d in zip(series.q, series.mom, series.obs, sc._schedule.value(ts))]
    for name in rows[0]:
        setattr(series, name, np.array([row[name] for row in rows]))
    return series


def compute_metrics(ts: TimeSeries) -> Metrics:
    """Convergence time of the momenta error plus decay-violation counts.

    convergence_time is the first sample time after which the momenta error
    norm stays below CONVERGENCE_EPS; inf when it never settles within the
    run.  A violation is a rise of lyap by more than LYAP_TOL between samples.
    """
    if ts.t.size == 0:
        raise ValueError("empty time series")
    if ts.ptil_norm is None:
        raise ValueError("series has no observer diagnostics")
    above = np.flatnonzero(ts.ptil_norm >= CONVERGENCE_EPS)
    if above.size == 0:
        conv_time, converged = float(ts.t[0]), True
    elif above[-1] == ts.t.size - 1:
        conv_time, converged = math.inf, False
    else:
        conv_time, converged = float(ts.t[above[-1] + 1]), True

    diffs = np.diff(ts.lyap)
    bad = diffs > LYAP_TOL
    return Metrics(
        convergence_time=conv_time,
        converged=converged,
        final_ptil=float(ts.ptil_norm[-1]),
        final_dtil=float(ts.dtil_norm[-1]),
        final_rutil=float(ts.rutil_norm[-1]) if ts.rutil_norm is not None else float("nan"),
        lyap_violations=int(np.count_nonzero(bad)),
        lyap_max_violation=float(diffs[bad].max()) if bad.any() else 0.0,
    )


def apply_sweep_value(sc, param: str, value: float):
    """Copy of sc with one gain or one initial-state entry (q0[i], mom0[i]) set.

    sc is a Scenario, or a RunConfig whose q0 and mom0 are set.  Raises
    ValueError for an unknown name, an index that is not an integer in
    0..n-1 and, for a Scenario, a gain its observer does not read (the
    Scenario refuses it).
    """
    if param in _GAIN_KEYS:
        return replace(sc, gains={**sc.gains, param: float(value)})
    for name in ("q0", "mom0"):
        if param.startswith(name + "[") and param.endswith("]"):
            index = param[len(name) + 1 : -1]
            vec = [float(v) for v in getattr(sc, name)]
            if not (index.isdecimal() and int(index) < len(vec)):
                raise ValueError(f"sweep index {param!r} is not one of 0..{len(vec) - 1}")
            vec[int(index)] = value
            return replace(sc, **{name: vec})
    raise ValueError(f"unknown sweep parameter {param!r}")
