"""Sectioned key=value run configuration.

The format is deliberately plain text: `[section]` headers, one `key =
value` per line, `#` comments.  Vectors are comma separated, matrices use
semicolons between rows.  Every number must be finite.  Unknown sections
or keys are rejected, and every parse error carries the offending line
number.  [input] and [disturbance] keys are numbered from 1 with no leading zeros.

Sections:

  [model]        name plus numeric parameters, friction vector, known mask
  [observer]     kind = prop1 | prop2 | none, and any of the gains that kind
                 reads (prop1: lambda; prop2: psi3_const, psi4_extra,
                 psi5_extra); each must be positive, and a gain left out
                 takes the observer's default
  [initial]      plant q / mom (one number per degree of freedom of the
                 model) and optional overrides of the configured
                 observer's state fields (prop1: p_i, ru_i, d_i; prop2:
                 qbar, pbar, p_i, d_i, r), each a vector with as many
                 numbers as its field (one for r, which must be at least 1)
  [input]        u1, u2, ... = amplitude, frequency, phase, cos|sin, up to
                 the model's number of inputs
  [disturbance]  step1, step2, ... = switch_time, d1, ..., dn, with n the
                 model's degrees of freedom
  [sim]          t_final, dt, stride (a positive integer)
  [output]       directory, emit_svg
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Tuple

from .adaptive import checked_gains
from .harness import OBSERVER_KINDS, InputChannel, Scenario, observer_keys, whole_steps
from .model import DisturbanceSchedule, MechanicalModel
from .systems import build_named_model


class ConfigError(ValueError):
    """Configuration problem; carries the source line number (0 = global)."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


_MODEL_KEYS = {
    "constant": {"name", "M", "K", "friction", "known"},
    "manipulator": {"name", "I", "M", "m", "l", "friction", "known"},
    "spider-crane": {"name", "m_r", "m", "L3", "g", "friction", "known"},
    "spider-crane-cholesky": {"name", "m_r", "m", "L3", "g", "friction", "known"},
}
_SIM_KEYS = {"t_final", "dt", "stride"}
_OUTPUT_KEYS = {"directory", "emit_svg"}
_SECTIONS = {"model", "observer", "initial", "input", "disturbance", "sim", "output"}


@dataclass
class RunConfig:
    """Parsed configuration; build_scenario turns it into a runnable Scenario.

    inputs holds InputChannels; after parsing, q0 and mom0 are always vectors (zeros if unset).
    _built is config_model's cache: the model and the repr of the fields it was built from.
    """

    model_name: str
    model_params: Dict[str, object] = field(default_factory=dict)
    friction: Optional[List[float]] = None
    known: Optional[List[bool]] = None
    observer_kind: str = "none"
    gains: Dict[str, float] = field(default_factory=dict)
    q0: List[float] = field(default_factory=list)
    mom0: List[float] = field(default_factory=list)
    overrides: Dict[str, object] = field(default_factory=dict)
    inputs: List[InputChannel] = field(default_factory=list)
    disturbance: List[Tuple[float, List[float]]] = field(default_factory=list)
    t_final: float = 10.0
    dt: float = 1e-3
    stride: int = 10
    directory: Optional[str] = None
    emit_svg: bool = False
    _built: Optional[Tuple[str, MechanicalModel]] = field(default=None, repr=False, compare=False)


def _parse_float(raw, line, key):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(line, f"{key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(line, f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_vector(raw, line, key):
    return [_parse_float(part.strip(), line, key) for part in raw.split(",") if part.strip() != ""]


def _parse_matrix(raw, line, key):
    rows = [r.strip() for r in raw.split(";") if r.strip() != ""]
    mat = [_parse_vector(r, line, key) for r in rows]
    if len({len(r) for r in mat}) > 1:
        raise ConfigError(line, "matrix rows have unequal lengths")
    return mat


def _parse_bool(raw, line):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(line, f"expected a boolean, got {raw!r}")


def _split_sections(text: str):
    sections: Dict[str, List[Tuple[int, str, str]]] = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(lineno, f"unknown section [{current}]")
            if current in sections:
                raise ConfigError(lineno, f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ConfigError(lineno, "key outside of any section")
        if "=" not in stripped:
            raise ConfigError(lineno, "expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if any(k == key for _, k, _ in sections[current]):
            raise ConfigError(lineno, f"duplicate key {key!r} in [{current}]")
        sections[current].append((lineno, key, value))
    return sections


def _numbered(entries, prefix):
    """{index: (line, key, value)} of keys prefix1, prefix2, ...: one spelling per index."""
    numbered = {}
    for ln, key, value in entries:
        index = key[len(prefix):] if key.startswith(prefix) else ""
        if not re.fullmatch(r"[1-9][0-9]*", index):
            raise ConfigError(ln, f"expected {prefix}1, {prefix}2, ... without leading zeros, "
                                  f"got {key!r}")
        numbered[int(index)] = (ln, key, value)
    return numbered


def parse_config(text: str, require_sim: bool = True) -> RunConfig:
    sections = _split_sections(text)
    if "model" not in sections:
        raise ConfigError(0, "missing required section [model]")
    model_entries = {k: (ln, v) for ln, k, v in sections["model"]}
    if "name" not in model_entries:
        raise ConfigError(0, "missing required key 'name' in [model]")
    name_line, name = model_entries["name"]
    if name not in _MODEL_KEYS:
        raise ConfigError(name_line, f"unknown model name {name!r}")

    cfg = RunConfig(model_name=name)
    for ln, key, value in sections["model"]:
        if key not in _MODEL_KEYS[name]:
            raise ConfigError(ln, f"unknown key {key!r} in [model] for model {name!r}")
        if key == "friction":
            cfg.friction = _parse_vector(value, ln, key)
        elif key == "known":
            cfg.known = [_parse_bool(b, ln) for b in value.split(",") if b.strip() != ""]
        elif name == "constant" and key in ("M", "K"):
            cfg.model_params[key] = _parse_matrix(value, ln, key)
        elif key != "name":
            cfg.model_params[key] = _parse_float(value, ln, key)
    try:  # [initial], [input] and [disturbance] must fit its sizes
        model = config_model(cfg)
    except ValueError as exc:  # ModelError included
        raise ConfigError(name_line, f"model {name}: {exc}") from None

    observer = {k: (ln, v) for ln, k, v in sections.get("observer", [])}
    kind_line, kind = observer.pop("kind", (0, cfg.observer_kind))
    if kind not in OBSERVER_KINDS:
        raise ConfigError(kind_line, f"unknown observer kind {kind!r}")
    cfg.observer_kind = kind
    for key, (ln, value) in observer.items():
        gain = {key: _parse_float(value, ln, key)}
        try:  # the observers' own rule: a gain the kind reads, and positive
            checked_gains(observer_keys(kind, "default_gains"), gain)
        except ValueError as exc:
            raise ConfigError(ln, str(exc)) from None
        cfg.gains.update(gain)

    cfg.q0, cfg.mom0 = [0.0] * model.n, [0.0] * model.n
    for ln, key, value in sections.get("initial", []):
        if key in ("q", "mom"):
            vec = _parse_vector(value, ln, key)
            if len(vec) != model.n:
                raise ConfigError(ln, f"{key}: expected {model.n} numbers, got {len(vec)}")
            setattr(cfg, f"{key}0", vec)
        elif key not in observer_keys(kind, "state_fields"):
            raise ConfigError(ln, f"{key!r} in [initial] is not a state field of observer {kind}")
        else:
            cfg.overrides[key] = _parse_vector(value, ln, key)

    channels = {}
    for idx, (ln, key, value) in _numbered(sections.get("input", []), "u").items():
        if idx > model.m:
            raise ConfigError(ln, f"{key}: input channel {idx}, the model has {model.m} inputs")
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 4:
            raise ConfigError(ln, "input channel needs amplitude, frequency, phase, waveform")
        amp, freq, phase = (_parse_float(p, ln, key) for p in parts[:3])
        try:  # the channel's own rule on its waveform
            channels[idx] = InputChannel(amp, freq, phase, parts[3])
        except ValueError as exc:
            raise ConfigError(ln, f"{key}: {exc}") from None
    top = max(channels, default=0)  # a channel left out of 1..top is zero
    cfg.inputs = [channels.get(i, InputChannel(0.0, 0.0)) for i in range(1, top + 1)]

    for _, (ln, key, value) in sorted(_numbered(sections.get("disturbance", []), "step").items()):
        vec = _parse_vector(value, ln, key)
        if len(vec) != model.n + 1:
            raise ConfigError(ln, f"{key}: expected a switch time and {model.n} levels, "
                                  f"got {len(vec)} numbers")
        cfg.disturbance.append((vec[0], vec[1:]))
        try:  # the schedule's own rule on the steps so far, cited at the last one's line
            DisturbanceSchedule(*zip(*cfg.disturbance))
        except ValueError as exc:
            raise ConfigError(ln, str(exc)) from None

    sim = sections.get("sim", [])
    missing = [k for k in ("t_final", "dt") if k not in {key for _, key, _ in sim}]
    if missing and (require_sim or sim):  # only a structure check may leave [sim] out
        raise ConfigError(0, f"missing required key {missing[0]!r} in [sim]")
    for ln, key, value in sim:
        if key not in _SIM_KEYS:
            raise ConfigError(ln, f"unknown key {key!r} in [sim]")
        if key == "stride":
            stride = _parse_float(value, ln, key)
            if not (stride.is_integer() and stride >= 1):
                raise ConfigError(ln, f"stride must be a positive integer, got {value!r}")
            cfg.stride = int(stride)
        else:
            val = _parse_float(value, ln, key)
            if val <= 0:
                raise ConfigError(ln, f"{key} must be positive")
            setattr(cfg, key, val)
    try:
        whole_steps(cfg.t_final, cfg.dt)
    except ValueError as exc:  # cited at the t_final line
        raise ConfigError(next((ln for ln, k, _ in sim if k == "t_final"), 0), str(exc)) from None

    for ln, key, value in sections.get("output", []):
        if key not in _OUTPUT_KEYS:
            raise ConfigError(ln, f"unknown key {key!r} in [output]")
        if key == "directory":
            cfg.directory = value
        else:
            cfg.emit_svg = _parse_bool(value, ln)
    return cfg


def load_config(path, require_sim: bool = True) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), require_sim=require_sim)


def _fmt_vec(values):
    return ", ".join(f"{v:.17g}" for v in values)


def dump_config(cfg: RunConfig) -> str:
    """Canonical text for a RunConfig; parsing it back gives an equal config."""
    lines = ["[model]", f"name = {cfg.model_name}"]
    for key, value in cfg.model_params.items():
        if isinstance(value, list):
            lines.append(f"{key} = " + "; ".join(_fmt_vec(row) for row in value))
        else:
            lines.append(f"{key} = {value:.17g}")
    if cfg.friction is not None:
        lines.append(f"friction = {_fmt_vec(cfg.friction)}")
    if cfg.known is not None:
        lines.append("known = " + ", ".join(str(b).lower() for b in cfg.known))
    lines += ["", "[observer]", f"kind = {cfg.observer_kind}"]
    for key, value in cfg.gains.items():
        lines.append(f"{key} = {value:.17g}")
    lines += ["", "[initial]"]
    if cfg.q0:
        lines.append(f"q = {_fmt_vec(cfg.q0)}")
    if cfg.mom0:
        lines.append(f"mom = {_fmt_vec(cfg.mom0)}")
    for key, value in cfg.overrides.items():
        lines.append(f"{key} = {_fmt_vec(value)}")
    if cfg.inputs:
        lines += ["", "[input]"]
        for i, (amp, freq, phase, waveform) in enumerate(map(astuple, cfg.inputs), start=1):
            lines.append(f"u{i} = {amp:.17g}, {freq:.17g}, {phase:.17g}, {waveform}")
    if cfg.disturbance:
        lines += ["", "[disturbance]"]
        for i, (t, level) in enumerate(cfg.disturbance, start=1):
            lines.append(f"step{i} = {t:.17g}, {_fmt_vec(level)}")
    lines += ["", "[sim]", f"t_final = {cfg.t_final:.17g}", f"dt = {cfg.dt:.17g}",
              f"stride = {cfg.stride}"]
    lines += ["", "[output]"]
    if cfg.directory is not None:
        lines.append(f"directory = {cfg.directory}")
    lines.append(f"emit_svg = {str(cfg.emit_svg).lower()}")
    return "\n".join(lines) + "\n"


def build_model(cfg: RunConfig) -> MechanicalModel:
    """The configured model; the config's `known` is the factories' known_mask."""
    params = dict(cfg.model_params)
    if cfg.friction is not None:
        params["friction"] = tuple(cfg.friction)
    if cfg.known is not None:
        params["known_mask"] = tuple(cfg.known)
    return build_named_model(cfg.model_name, **params)


def config_model(cfg: RunConfig) -> MechanicalModel:
    """cfg's model, built by build_model once and again only after a model field changed.

    The fields' repr is the key: floats repr exactly, so an equal key means equal fields.
    """
    key = repr((cfg.model_name, cfg.model_params, cfg.friction, cfg.known))
    if cfg._built is None or cfg._built[0] != key:
        cfg._built = (key, build_model(cfg))
    return cfg._built[1]


def build_scenario(cfg: RunConfig) -> Scenario:
    """Construct the Scenario, which builds and checks its observer and start.

    Observer state overrides become its obs_init fields.
    """
    disturbance = DisturbanceSchedule(*zip(*cfg.disturbance)) if cfg.disturbance else None
    return Scenario(
        model=config_model(cfg),
        observer=cfg.observer_kind,
        gains=dict(cfg.gains),
        q0=cfg.q0,
        mom0=cfg.mom0,
        inputs=tuple(cfg.inputs),
        disturbance=disturbance,
        t_final=cfg.t_final,
        dt=cfg.dt,
        stride=cfg.stride,
        obs_init=dict(cfg.overrides),
    )
