"""Couples a plant to an observer, integrates, and extracts metrics.

Integration is classic fixed-step fourth-order Runge-Kutta: runs are
deterministic and step-halving gives a clean order check.  Disturbance
switch times are snapped onto the step grid and the level is frozen per
step, so the right-hand side stays smooth inside every step; the loop walks
an index through the switch times as the steps' midpoints pass them, so a
run allocates nothing per step up front.  Each RK4 stage evaluates the
plant terms T(q), dT/dq, grad V(q) and G(q) u once (model.stage_terms), and
the plant right-hand side and the observer derivative both read them.  The
observer never feeds back into the plant input; enabling it cannot change
the plant trajectory.

Lockstep groups.  share_plant groups scenarios that integrate the same
plant with observers of one kind.  The first run of a group integrates all
of them in one RK4 loop over [q, mom, z_1, ..., z_B]: each stage evaluates
the plant terms and the plant rate once and every observer's rate in one
stacked derivative call, whose rows equal the observers' own derivatives
bit for bit.  RK4 combines stage rates elementwise, so each scenario's
series is the one it gets alone.  A group that diverges or raises anywhere
is discarded, and each scenario then runs alone.  A series is read out from
its sampled states in one diagnostics call on their (S, dim) stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .adaptive import AdaptiveObserver
from .model import DisturbanceSchedule, MechanicalModel, ModelError, _plant_rhs, stage_terms
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
            raise ValueError(f"waveform must be 'cos' or 'sin', got {self.waveform!r}")
        if not np.isfinite([self.amplitude, self.frequency, self.phase]).all():
            raise ValueError("input channel parameters must be finite")

    def value(self, t: float) -> float:
        angle = self.frequency * t + self.phase
        wave = math.cos(angle) if self.waveform == "cos" else math.sin(angle)
        return self.amplitude * wave


def whole_steps(t_final: float, dt: float) -> int:
    """t_final / dt RK4 steps; ValueError unless that is a whole number >= 1 to 1e-9 relative.

    0.3 / 0.1 passes as 3.  Rounding would run 0.0015 and 0.0025 at dt = 0.001 both to 0.002.
    Past 2**53 steps (or inf), k * dt cannot tell consecutive steps apart: refused too.
    """
    quotient = t_final / dt
    if not quotient <= 2.0**53:
        raise ValueError(f"t_final = {t_final!r} over dt = {dt!r} is not a step count the "
                         f"time grid resolves (finite, at most 2**53)")
    steps = round(quotient)
    if steps < 1 or abs(quotient - steps) > 1e-9 * steps:
        raise ValueError(f"t_final = {t_final!r} is not a positive whole number of "
                         f"dt = {dt!r} steps")
    return steps


def spelled_index(text: str) -> Optional[int]:
    """The index text spells, or None: ASCII digits, no leading zero, so one spelling per index."""
    return int(text) if re.fullmatch(r"0|[1-9][0-9]*", text) else None


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
    put it in a lockstep group with other scenarios; a copy starts in none.
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
        whole_steps(self.t_final, self.dt)
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
        for i, ch in enumerate(self.inputs, start=1):  # the angle must stay finite up to t_final
            if not math.isfinite(abs(ch.frequency) * self.t_final + abs(ch.phase)):
                raise ValueError(f"input channel {i}: angle frequency * t + phase overflows "
                                 f"before t_final = {self.t_final!r}")
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
        object.__setattr__(self, "_lockstep", None)

    @property
    def steps(self) -> int:
        """RK4 steps of a run: t_final / dt, a whole number (whole_steps)."""
        return whole_steps(self.t_final, self.dt)

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


@dataclass
class _Lockstep:
    """One share_plant group: its scenarios and the series of its lockstep run not yet handed out.

    series is None until the group's first integrate_scenario call runs the lockstep; then it
    maps id(scenario) to its series, and is empty if the run diverged or raised.
    """

    scenarios: List[Scenario]
    series: Optional[dict] = None


def share_plant(scenarios: Sequence[Scenario]) -> None:
    """Group the scenarios that integrate one plant with one observer kind, to step in lockstep.

    The same plant means the same model object, equal q0, mom0, inputs and
    snapped disturbance schedule (floats by their bits), and equal dt, step
    count and sample stride (a group's series share one sampling); the
    observers' gains and starts may differ.  A scenario that shares with
    no other joins no group, and its runs integrate alone.
    """
    groups = {}
    for sc in scenarios:
        key = (id(sc.model), sc.observer, sc.q0.tobytes(), sc.mom0.tobytes(), repr(sc.inputs),
               sc._schedule.times.tobytes(), sc._schedule.levels.tobytes(), sc.dt, sc.steps,
               sc.stride)
        groups.setdefault(key, []).append(sc)
    for group in groups.values():
        lockstep = _Lockstep(group) if len(group) > 1 else None
        for sc in group:
            object.__setattr__(sc, "_lockstep", lockstep)


def integrate_scenario(sc: Scenario) -> TimeSeries:
    """Run the coupled plant and observer system.

    Divergence does not raise: a non-finite state, or a LinAlgError,
    FloatingPointError or OverflowError inside a step, truncates the series
    and flags it, with a message saying in the step from which time the run
    blew up and what was raised.  The series ends with the state at that
    time, the last finite one, even off the stride.
    The first call on a scenario of a share_plant group integrates the
    whole group in lockstep and returns this scenario's series; later calls
    return the others' series, each once.  If the lockstep diverges or
    raises, each scenario integrates alone on its own call instead.
    """
    group = sc._lockstep
    if group is None:
        return _integrate([sc])[0]
    if group.series is None:
        try:
            series = _integrate(group.scenarios)
        except ValueError:  # a ModelError at some member's state, say; each raises its own alone
            series = None
        group.series = {} if series is None else dict(zip(map(id, group.scenarios), series))
    series = group.series.pop(id(sc), None)
    return _integrate([sc])[0] if series is None else series


def _group_rate(observers, q0):
    """The observers' rate of their states z, or of the (B, dim) stack of a lockstep group's states.

    A stacking observer takes the stack in one derivative call; otherwise the rows run one by one.
    q0, the plant's start, is where the observer may probe its model for stacking.
    """
    obs = observers[0]
    if obs is None or len(observers) == 1:
        return None if obs is None else obs.derivative
    stacked = obs._stacked(observers, q0)
    if stacked is not None:
        return stacked.derivative
    return lambda zs, terms: np.array([o.derivative(z, terms) for o, z in zip(observers, zs)])


def _integrate(scenarios) -> Optional[List[TimeSeries]]:
    """Integrate scenarios of one plant, one share_plant group or a scenario alone, in lockstep.

    One RK4 loop over x = [q, mom, z_1, ..., z_B]: each stage evaluates the
    plant terms and the plant rate once, and the observer rates in one call.
    RK4 combines stage rates elementwise and each row's rate is its own
    observer's, bit for bit, so a row's trajectory is its scenario's alone.
    Returns the series in order; for a group, None if any state went
    non-finite or a step raised what a run alone reports as divergence.
    Anything else a group raises propagates to integrate_scenario.
    """
    sc = scenarios[0]
    model = sc.model
    n = model.n
    observers = [s.build_observer() for s in scenarios]
    obs = observers[0]
    rows, dim = len(scenarios), sc._z0.size
    steps = sc.steps
    dt = sc.dt
    levels = sc._schedule.levels
    # level j + 1 is in force from the first step whose midpoint reaches switches[j]
    switches, level = [*sc._schedule.times[1:].tolist(), math.inf], 0

    x = np.concatenate([sc.q0, sc.mom0, *(s._z0 for s in scenarios)])

    rate = _group_rate(observers, sc.q0)
    project = getattr(obs, "project", None)
    input_value = sc.input_value

    def observer_states(state):  # a view: the one state, or the (B, dim) stack of a group's
        return state[2 * n :] if rows == 1 else state[2 * n :].reshape(rows, dim)

    def rhs(t, state, d):
        terms = stage_terms(model, state[:n], input_value(t))
        qd, momd = _plant_rhs(model, terms, state[n : 2 * n], d)
        if rate is None:
            return np.concatenate([qd, momd])
        return np.concatenate([qd, momd, rate(observer_states(state), terms).ravel()])

    samples = [(0.0, x.copy())]
    message = ""
    for k in range(steps):
        t = k * dt
        while switches[level] <= t + 0.5 * dt:  # DisturbanceSchedule.value's rule
            level += 1
        d = levels[level]
        f = lambda tt, xx: rhs(tt, xx, d)
        last = x  # rk4_step returns a new array, so this stays the state at t
        try:
            x = rk4_step(f, t, x, dt)
            if project is not None:
                project(observer_states(x))
            if not np.isfinite(x).all():
                message = f"state became non-finite in the step from t = {t:.6g}"
        except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
            message = f"{type(exc).__name__} in the step from t = {t:.6g}: {exc}"
        if message:
            if rows > 1:
                return None
            if k % sc.stride:
                samples.append((t, last))
            break
        if (k + 1) % sc.stride == 0 or k + 1 == steps:
            samples.append(((k + 1) * dt, x.copy()))

    ts = np.array([s[0] for s in samples])
    return _assemble_series(scenarios, observers, ts, np.array([s[1] for s in samples]), message)


def _assemble_series(scenarios, observers, ts, states, message) -> List[TimeSeries]:
    """Each scenario's series from the sampled states [q, mom, z_1, ..., z_B] of a lockstep run.

    The samples' true momenta, disturbances and each observer's read-out take one call each.
    """
    sc = scenarios[0]
    n = sc.model.n
    plant = states[:, : 2 * n]
    zs = states[:, 2 * n :].reshape(len(ts), len(scenarios), sc._z0.size)
    if observers[0] is not None:
        p_true = np.matvec(sc.model.factor(plant[:, :n]).mT, plant[:, n:])  # T^T mom per sample
        d_true = sc._schedule.value(ts)
    out = []
    for b, obs in enumerate(observers):
        own = np.hstack([plant, zs[:, b]])
        q, z = own[:, :n], own[:, 2 * n :]
        columns = {} if obs is None else dict(obs=z, **obs.diagnostics(z, q, p_true, d_true))
        out.append(TimeSeries(t=ts.copy(), q=q, mom=own[:, n : 2 * n], diverged=bool(message),
                              message=message, **columns))
    return out


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

    sc is a Scenario, or a parsed RunConfig (its q0 and mom0 are vectors).  Raises
    ValueError for an unknown name, an index that is not one of 0..n-1 spelled
    as spelled_index reads it and, for a Scenario, a gain its observer does
    not read (the Scenario refuses it).
    """
    if param in _GAIN_KEYS:
        return replace(sc, gains={**sc.gains, param: float(value)})
    for name in ("q0", "mom0"):
        if param.startswith(name + "[") and param.endswith("]"):
            index = spelled_index(param[len(name) + 1 : -1])
            vec = [float(v) for v in getattr(sc, name)]
            if index is None or index >= len(vec):
                raise ValueError(f"sweep index {param!r} is not one of 0..{len(vec) - 1}")
            vec[index] = value
            return replace(sc, **{name: vec})
    raise ValueError(f"unknown sweep parameter {param!r}")
