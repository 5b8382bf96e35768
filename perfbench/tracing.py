"""Spans around the calls into posthoc's public functions.

The tracer lives in the benchmark, not in the program: ``instrument``
replaces every public module-level function of the traced modules (and a
few named methods) with a wrapper that records a span, in every posthoc
module namespace that binds it, and ``restore`` puts the originals back.
Spans are kept in memory as tuples and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

TRACED_MODULES = ("core", "design", "pfunctions", "merging", "calibration",
                  "distortion", "sequential")
TRACED_METHODS = (("core", "DiscreteSpace", "prob"),
                  ("pfunctions", "PCurve", "statistic"))


def _utility_label(pair, U, *args, **kwargs):
    if U.kind == "POWER":
        return {2: "power2", Fraction(1, 2): "power_half"}.get(
            U.param, f"power{U.param}")
    return U.kind.lower()


# span name -> callable(args) giving a suffix that splits the span by input
LABELS = {"design.utility_optimal": _utility_label}


def _product_terms(result, *args, **kwargs):
    return sum(len(terms) for _, terms in result.segments)


def _path_bytes(result, model, n, *args, **kwargs):
    # computed from the arguments, n * (T + 1) float64 values
    return n * (model.horizon + 1) * 8


# span name -> (counter name, callable(result, args) giving the count)
COUNTERS = {"pfunctions.product_combine": ("pfunctions.product_combine.terms",
                                           _product_terms),
            "sequential.simulate_paths": ("sequential.path_bytes", _path_bytes)}


class Tracer:
    """In-memory span recorder with per-pass self-time aggregation.

    A span is (id, parent id, operation id, name, start, end).  A span's
    self time is its duration minus the durations of its direct children;
    calls are single-threaded, so children nest inside their parent.
    """

    def __init__(self):
        self.spans = []
        self.ops = {}
        self._stack = []  # [span id, child time] of each open span
        self._next_id = 0
        self._op_id = None
        self._op_labels = {}
        self._originals = []
        self.reset_pass()

    def reset_pass(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _keys(self, name):
        size = self._op_labels.get("size")
        return (name,) if size is None else (name, f"{name}.{size}")

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        return self._next_id, parent

    def _close(self, span_id, parent, name, start, end):
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((span_id, parent, self._op_id, name, start, end))
        for key in self._keys(name):
            self.self_s[key] += end - start - child
            self.calls[key] += 1

    def span(self, name):
        return _Span(self, name)

    def begin_op(self, op_id, name, labels):
        self._op_id = op_id
        self._op_labels = labels
        self.ops[op_id] = {"name": name, **labels}

    def end_op(self):
        self._op_id = None
        self._op_labels = {}

    def wrap(self, name, fn):
        label = LABELS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{label(*args, **kwargs)}" if label else name
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, span_name, start,
                            time.perf_counter())
            if counter:
                counter_name, count = counter
                for key in self._keys(counter_name):
                    self.counts[key] += count(result, *args, **kwargs)
            return result

        return traced

    def instrument(self):
        """Wrap the traced functions wherever posthoc modules bind them."""
        wrapped = {}
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(f"posthoc.{mod_name}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{mod_name}.{attr}", obj))
        for mod in [m for k, m in sys.modules.items()
                    if k == "posthoc" or k.startswith("posthoc.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"posthoc.{mod_name}"), cls_name)
            orig = cls.__dict__[meth]
            self._originals.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", orig))

    def restore(self):
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    def pass_metrics(self) -> dict:
        """This pass's self time and call count per span name, and counts."""
        out = {}
        for key, secs in self.self_s.items():
            out[f"{key}_s"] = secs
            out[f"{key}.calls"] = self.calls[key]
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    """A span opened by the benchmark itself, around a CLI call."""

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.id, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.id, self.parent, self.name, self.start,
                           time.perf_counter())
        return False


def import_layers(python, env, cwd) -> dict:
    """Self time of each top-level package's modules during `import posthoc`,
    from one ``python -X importtime`` interpreter."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import posthoc"],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          check=True)
    self_us = defaultdict(int)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, module = line[len("import time:"):].split("|")
        self_us[module.strip().split(".")[0]] += int(own)
    return {f"import.{pkg}_s": self_us[pkg] / 1e6
            for pkg in ("posthoc", "scipy", "numpy")}
