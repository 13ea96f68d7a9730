"""Span tracing of nlocality's layers, installed from outside the program.

The program's modules import functions by name (`from .network import
behavior`), so a call goes through the name bound in the caller's module.
`Tracer.install` therefore replaces every public function at every name
through which nlocality reaches it: each nlocality module's own public
functions and the ones it imported from another nlocality module, plus
scipy's `minimize` as bound in `nlocality.optimize`.  Spans (name, start,
end, parent) are kept in memory; `layer_metrics` derives self times and
counts from them and `write` saves them when the run ends.

Only the traced run imports this module.
"""

import gzip
import importlib
import inspect
import json
import time

# nlocality module -> layer; families and states form one layer
LAYERS = {
    "cli": "cli",
    "optimize": "optimize",
    "network": "network",
    "linalg": "linalg",
    "families": "states",
    "states": "states",
    "measurements": "measurements",
    "analysis": "analysis",
    "lhv": "lhv",
}
# restarts ending within this distance of their call's best share its basin
BASIN_TOL = 1e-6


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("nlocality."):
        return LAYERS.get(module.split(".")[1])
    return None


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        # span i: [name, layer, start, end, parent index, outermost in layer]
        self.spans = []
        # span index -> (nfev, final value) of each scipy minimize call
        self.restarts = {}
        self._stack = []
        self._depth = {layer: 0 for layer in set(LAYERS.values())}
        self._patches = []
        self._wrappers = {}

    def _wrap(self, fn, layer, is_minimize):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = "%s.%s" % (layer, fn.__name__)
        spans, stack, depth = self.spans, self._stack, self._depth
        restarts = self.restarts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    depth[layer] == 0]
            spans.append(span)
            stack.append(index)
            depth[layer] += 1
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[layer] -= 1
                stack.pop()
            if is_minimize:
                # nlocality minimizes the negated score
                restarts[index] = (int(out.nfev), -float(out.fun))
            return out

        wrapper.__wrapped__ = fn
        self._wrappers[key] = wrapper
        return wrapper

    def install(self):
        for module_name in LAYERS:
            module = importlib.import_module("nlocality." + module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                is_minimize = (module_name == "optimize"
                               and attr == "minimize")
                layer = "optimize" if is_minimize else _layer_of(obj)
                if layer is None:
                    continue
                self._patches.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, layer, is_minimize))

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def mark(self):
        """Position in the span list; metrics are taken between two marks."""
        return len(self.spans)

    def layer_metrics(self, begin, end):
        """Per-layer self times, layer times and counts of spans[begin:end].

        `<layer>.self_s` is the time inside the layer's functions minus the
        time of the wrapped calls they make; `<layer>.s` is the time of the
        layer's outermost calls, callees included.
        """
        spans = self.spans[begin:end]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[4] - begin
            if parent >= 0:
                child_time[parent] += span[3] - span[2]
        self_s = {layer: 0.0 for layer in set(LAYERS.values())}
        total_s = dict(self_s)
        by_name = {}
        for span, inner in zip(spans, child_time):
            duration = span[3] - span[2]
            self_s[span[1]] += duration - inner
            if span[5]:
                total_s[span[1]] += duration
            entry = by_name.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        return self_s, total_s, by_name

    def restart_groups(self, begin, end):
        """(parent span, [(nfev, final value)]) of each optimizer call.

        The restarts of one multistart are consecutive minimize spans under
        one parent; any other call between them (a transfer build of the
        next threshold point) starts a new group.
        """
        groups = []
        last = None
        siblings = {}
        for index in range(begin, end):
            parent = self.spans[index][4]
            previous = siblings.get(parent)
            siblings[parent] = index
            if index not in self.restarts:
                continue
            if last is None or previous != last:
                groups.append((parent, []))
            groups[-1][1].append(self.restarts[index])
            last = index
        return groups

    def write(self, path, machine):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"machine": machine,
                       "fields": ["name", "layer", "start_s", "end_s",
                                  "parent", "outermost_in_layer"],
                       "spans": self.spans,
                       "minimize": {str(k): v
                                    for k, v in self.restarts.items()}}, fh)
