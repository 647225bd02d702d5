"""Spans and counts around the library's public functions, for traced runs.

The tracer wraps each target from outside the library: a module-level
function is replaced at every binding in every loaded module (so
``is_trivial`` is caught whether it is called as ``branchgroups.is_trivial``,
``decision.is_trivial`` or from ``conjugacy`` and ``presentations``); a
method is replaced on its class.  Each span records its parent, so a
layer's self time is its duration minus the time of its child spans.
Spans are kept in memory (up to ``keep`` of them) and written out once,
at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.active = False
        self.keep = keep
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.depth: list = []
        self.stack: list = []
        self.pairs: dict = {}
        self.totals: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._inside: dict = {}

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def count_inside(self, inner: int, outer: int, key: str):
        """Count calls of ``inner`` made while an ``outer`` span is open."""
        self._inside.setdefault(inner, []).append((outer, key))
        self.pairs[key] = 0

    def wrap(self, name: str, fn, span: bool = True, on_result=None):
        nid = self._id(name)
        tracer = self
        calls, self_s, depth, stack = self.calls, self.self_s, self.depth, self.stack
        inside = self._inside
        pairs = self.pairs

        if not span:
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[nid] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return nid, counted

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            for outer, key in inside.get(nid, ()):
                if depth[outer]:
                    pairs[key] += 1
            idx = len(tracer.span_name)
            if idx < tracer.keep:
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][2] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            depth[nid] += 1
            frame = [0.0, perf_counter(), idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                dur = end - frame[1]
                self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    tracer.span_start[idx] = frame[1]
                    tracer.span_end[idx] = end
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        return nid, traced

    def add(self, key: str, value):
        self.totals[key] = self.totals.get(key, 0) + value

    def install(self, targets):
        """Wrap every (name, owner, attribute, options) target.

        Returns a name -> id map.  A class owner gets the wrapper on the
        class; a module owner gets it at every binding of the original
        function in every loaded module.
        """
        ids = {}
        rebind = {}
        for name, owner, attr, opts in targets:
            original = owner.__dict__[attr]
            nid, wrapper = self.wrap(name, original, **opts)
            ids[name] = nid
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                rebind[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
        return ids

    def write(self, path):
        """Write the kept spans as one gzipped JSON document: per span the
        name index, the parent span index (-1 for none), and start and end
        in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "dropped": self.dropped,
            "spans": [
                [self.span_name[i], self.span_parent[i],
                 round((self.span_start[i] - t0) * 1e6, 1),
                 round((self.span_end[i] - t0) * 1e6, 1)]
                for i in range(len(self.span_name))
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
