"""Per-layer timing for the benchmark, installed from outside the package.

Each traced function is replaced, where its callers look it up, by a wrapper
that records a span.  Spans are not kept one by one: they are aggregated in
memory by (name, parent) into call count, inclusive time and self time,
where self time is the span's duration minus the time its child spans
cover.  Wrappers only record while the tracer is enabled, so operations
that must not count (the divergence probe) can run between traced ones.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

import momobs.adaptive
import momobs.cli
import momobs.config
import momobs.geometry
import momobs.scaled
from momobs.adaptive import AdaptiveObserver
from momobs.harness import TimeSeries
from momobs.model import MechanicalModel
from momobs.scaled import ScaledObserver

# (metric prefix, owner, attribute).  Module-level functions are patched in the
# module that calls them, so the package's own references pick up the wrapper.
TRACED = (
    ("model.factor_inverse", MechanicalModel, "factor_inverse"),
    ("model.factor_jacobian", MechanicalModel, "factor_jacobian"),
    ("geometry.factor_brackets", momobs.geometry, "factor_brackets"),
    ("geometry.gyro_matrix", momobs.scaled, "gyro_matrix"),
    ("geometry.gyro_swapped", momobs.scaled, "gyro_swapped"),
    ("geometry.check_zrs", momobs.adaptive, "check_zrs"),
    ("adaptive.AdaptiveObserver.__init__", AdaptiveObserver, "__init__"),
    ("adaptive.AdaptiveObserver.derivative", AdaptiveObserver, "derivative"),
    ("adaptive.AdaptiveObserver.output", AdaptiveObserver, "output"),
    ("scaled.ScaledObserver.derivative", ScaledObserver, "derivative"),
    ("scaled.ScaledObserver.mapping_h", ScaledObserver, "mapping_h"),
    ("scaled.ScaledObserver.delta_bounds", ScaledObserver, "delta_bounds"),
    ("scaled.ScaledObserver.output", ScaledObserver, "output"),
    ("harness.integrate_scenario", momobs.cli, "integrate_scenario"),
    ("harness.compute_metrics", momobs.cli, "compute_metrics"),
    ("harness.TimeSeries.to_csv", TimeSeries, "to_csv"),
    ("config.load_config", momobs.cli, "load_config"),
    ("config.build_scenario", momobs.cli, "build_scenario"),
    ("svgplot.write_line_svg", momobs.cli, "write_line_svg"),
)
# The model's own evaluators are per-instance callables, wrapped on each model
# as it is built.
MODEL_CALLABLES = (("model.factor", "factor"), ("model.factor_inv", "factor_inv"))

LAYER_NAMES = tuple(name for name, _ in MODEL_CALLABLES) + tuple(name for name, _, _ in TRACED)


class Tracer:
    """Aggregates spans by (name, parent): [calls, inclusive seconds, self seconds]."""

    def __init__(self):
        self.enabled = False
        self._stack = []  # [name, seconds covered by child spans]
        self.spans = {}

    def wrap(self, name, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                rec = spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]

        return traced

    def totals(self):
        """Per name: [calls, inclusive seconds, self seconds], summed over parents."""
        out = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        for (name, _), (calls, incl, self_s) in self.spans.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        return out


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced layer function; undo with patches.restore()."""
    for name, owner, attr in TRACED:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    build_model = momobs.config.build_model

    def traced_build_model(cfg):
        model = build_model(cfg)
        changes = {
            attr: tracer.wrap(name, getattr(model, attr))
            for name, attr in MODEL_CALLABLES
            if getattr(model, attr) is not None
        }
        return dataclasses.replace(model, **changes)

    patches.set(momobs.config, "build_model", traced_build_model)
