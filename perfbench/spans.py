"""Span tracing of k3lat's layers, installed from outside the package.

`install()` replaces, in place, every public function of the layer
modules and every public method of `Lattice` and `Isometry` with a
wrapper that records one span per call: name, start, end and the span
that was open when it was called. Aliases made by `from .x import f` in
other k3lat modules are replaced too, so a call through any name is
seen. Spans are kept in flat arrays in memory and written out by
`Tracer.dump` when the run ends; nothing under src/ changes.

Per-layer metrics are derived from the spans: for a function, its call
count, the inclusive time of its outermost calls and its self time (the
span minus its direct child spans); for a layer, the same over the calls
that enter it from another layer. Each value is the set-up total plus
the mean over the timed operations, so it does not grow with the number
of operations that fit in a run.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("linalg", "lattice", "enumeration", "discforms", "isometries",
          "catalog", "walls")

# Methods are named "<layer>.<method>" for the layer's own lattice class.
CLASSES = (("lattice", "Lattice", "lattice"),
           ("isometries", "Isometry", "isometries.Isometry"))

# Private functions wrapped because a counter is read from their results.
PRIVATE = (("enumeration", "_enumerate_reduced"),)

# name of the wrapped function -> (tally, value taken from args, result)
TALLIES = {
    "enumeration._enumerate_reduced":
        ("enumeration.vectors", lambda args, res: len(res)),
    "discforms.find_anti_isometry":
        ("discforms.find_anti_isometry.none", lambda args, res: res is None),
    "discforms.glue_overlattice":
        ("discforms.glue_overlattice.index", lambda args, res: res.index),
    "discforms.milgram_signature":
        ("discforms.milgram_signature.order",
         lambda args, res: args[0].order()),
    "walls.numerical_wall_in":
        ("walls.witnesses", lambda args, res: res is not None),
}

SETUP, OPS = 0, 1
_NAME_OUTER, _LAYER_OUTER = 1, 2


def _targets():
    """(span name, layer, owner, attribute) of every function to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"k3lat.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)):
                yield f"{layer}.{attr}", layer, module, attr
    for layer, cls_name, prefix in CLASSES:
        cls = getattr(importlib.import_module(f"k3lat.{layer}"), cls_name)
        for attr, obj in vars(cls).items():
            if not attr.startswith("_") and inspect.isfunction(obj):
                yield f"{prefix}.{attr}", layer, cls, attr
    for layer, attr in PRIVATE:
        yield f"{layer}.{attr}", layer, importlib.import_module(
            f"k3lat.{layer}"), attr


class Tracer:
    """Spans and tallies of one traced run, split into set-up and ops."""

    def __init__(self):
        self.names = []
        self.layer_of = []          # name id -> layer id
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.phase_of = array("b")
        self.stack = [-1]
        self.name_depth = []
        self.layer_depth = [0] * (len(LAYERS) + 1)
        self.phase = SETUP
        self.ops = 0
        self.tallies = [{}, {}]
        self.bench_ids = {}

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer) if layer in LAYERS
                             else len(LAYERS))
        self.name_depth.append(0)
        return len(self.names) - 1

    def wrap(self, name, layer, fn):
        nid = self._name_id(name, layer)
        lid = self.layer_of[nid]
        tally = TALLIES.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            flags = ((_NAME_OUTER if not tracer.name_depth[nid] else 0)
                     | (_LAYER_OUTER if not tracer.layer_depth[lid] else 0))
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.flags.append(flags)
            tracer.phase_of.append(tracer.phase)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.name_depth[nid] += 1
            tracer.layer_depth[lid] += 1
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.layer_depth[lid] -= 1
                tracer.name_depth[nid] -= 1
                tracer.stack.pop()
            if tally is not None:
                key, value = tally
                bucket = tracer.tallies[tracer.phase]
                bucket[key] = bucket.get(key, 0) + int(value(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side root span (set-up, one operation)."""
        if name not in self.bench_ids:
            self.bench_ids[name] = self._name_id(name, "bench")
        idx = len(self.start)
        self.name.append(self.bench_ids[name])
        self.parent.append(self.stack[-1])
        self.flags.append(0)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def metrics(self):
        """Per-layer metrics: set-up total plus the mean per timed op."""
        acc = [{}, {}]

        def add(phase, key, value):
            acc[phase][key] = acc[phase].get(key, 0) + value

        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            name = self.names[self.name[i]]
            lid = self.layer_of[self.name[i]]
            if lid == len(LAYERS):
                continue
            layer = LAYERS[lid]
            phase = self.phase_of[i]
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            add(phase, f"{name}.calls", 1)
            add(phase, f"{name}.self_s", own)
            add(phase, f"{layer}.self_s", own)
            if self.flags[i] & _NAME_OUTER:
                add(phase, f"{name}.s", dur)
            if self.flags[i] & _LAYER_OUTER:
                add(phase, f"{layer}.calls", 1)
                add(phase, f"{layer}.s", dur)
        for phase in (SETUP, OPS):
            for key, value in self.tallies[phase].items():
                add(phase, key, value)
        ops = max(self.ops, 1)
        keys = set(acc[SETUP]) | set(acc[OPS])
        out = {k: acc[SETUP].get(k, 0) + acc[OPS].get(k, 0) / ops
               for k in keys}
        attempts = out.get("walls.is_wall_divisor.calls", 0)
        out["walls.witness_yield"] = (out.get("walls.witnesses", 0) / attempts
                                      if attempts else 0.0)
        return out

    def dump(self, path, extra):
        """Write every span and the derived metrics as one JSON file."""
        obj = dict(extra)
        obj["names"] = self.names
        obj["spans"] = {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t, 7) for t in self.start],
            "end": [round(t, 7) for t in self.end],
            "phase": self.phase_of.tolist(),
        }
        obj["ops"] = self.ops
        obj["per_layer"] = self.metrics()
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))


def install():
    """Wrap every target in the imported k3lat modules; return the tracer."""
    tracer = Tracer()
    targets = list(_targets())
    modules = [m for key, m in sys.modules.items()
               if key == "k3lat" or key.startswith("k3lat.")]
    for name, layer, owner, attr in targets:
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, layer, original)
        setattr(owner, attr, wrapped)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)
    return tracer
