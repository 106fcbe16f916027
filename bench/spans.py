"""In-memory span tracer for the benchmark's per-layer metrics.

The tracer wraps the public functions of the vflkit layer modules from
outside the package; nothing under ``src/`` changes. Every ``vflkit.*``
module namespace is swept by identity, so an alias bound by ``from .model
import forward`` (``synthesis.forward``, ``fuzzer.model_forward``) gets the
same wrapper as the original. ``JointEvaluator`` methods are wrapped on the
class. Spans nest on a stack: a span's self time is its duration minus the
time its child spans cover. Only per-name aggregates are kept (calls, rows,
self time), because one fuzz attack makes hundreds of thousands of calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

LAYER_MODULES = ("model", "protocol", "synthesis", "fuzzer", "assessment",
                 "data", "synth_data")
EVALUATOR_METHODS = ("__init__", "probs_for", "labels_for", "attack_accuracy",
                     "majority_label")
# Spans split by the identity of their model argument: the coordinator's top
# model versus any participant's local model.
SPLIT_BY_MODEL = ("model.forward", "model.backward")


def _n_rows(x) -> int:
    return len(x) if np.ndim(x) == 2 else 1


# Row counters for the spans whose batch size is a per-layer metric.
ROWS = {
    "model.forward": lambda args: _n_rows(args[1]),
    "protocol.joint_forward": lambda args: _n_rows(args[1][0]),
    "synthesis.fdm_gradient": lambda args: int(args[1].shape[0]) + 1,
}


class SpanStat:
    __slots__ = ("calls", "rows", "self_s")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0


def vflkit_modules(package) -> list:
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def layer_functions(package) -> dict[int, tuple[object, str]]:
    """id(function) -> (function, span name) for the public functions each
    layer module defines."""
    out = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"{package.__name__}.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[id(obj)] = (obj, f"{short}.{name}")
    return out


class Tracer:
    """Install with ``with Tracer(package, top_models):``; read ``stats``.

    ``clock`` is the zero-argument timer the spans read."""

    def __init__(self, package, top_models=(), clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.top_ids = {id(m) for m in top_models}
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats = {}

    def _record(self, key: str, self_s: float, rows: int):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = SpanStat()
        stat.calls += 1
        stat.rows += rows
        stat.self_s += self_s

    def wrap(self, fn, name: str):
        """Wrap ``fn`` to record one span per call under ``name``."""
        stack = self._stack
        record = self._record
        clock = self.clock
        rows_of = ROWS.get(name)
        split = name in SPLIT_BY_MODEL
        top_ids = self.top_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                key = name
                if split:
                    key += ".top" if id(args[0]) in top_ids else ".local"
                record(key, duration - child,
                       rows_of(args) if rows_of else 0)

        traced.bench_span = name
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = layer_functions(self.package)
        wrappers = {key: (fn, self.wrap(fn, name))
                    for key, (fn, name) in targets.items()}
        for mod in vflkit_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = importlib.import_module(
            f"{self.package.__name__}.synthesis").JointEvaluator
        for method in EVALUATOR_METHODS:
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            label = f"synthesis.JointEvaluator.{method.strip('_')}"
            setattr(cls, method, self.wrap(original, label))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
