"""Span tracer that wraps the program's public functions from outside.

While a traced request runs, every public module-level function of a
traced layer is replaced, in every ``survsteiner`` module that holds a
reference to it, by a wrapper that records a span. A span opens only
where a call crosses into another layer, so a layer calling itself costs
nothing and ``<layer>.calls`` counts boundary crossings. Spans stay in
memory for the request in flight and are folded into per-layer totals
when it ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover. A span opened on a worker thread (the
solvers' ``--threads`` pools) takes the request thread's innermost open
span as its parent, so the waiting parent is not charged for the
workers' time. Concurrent worker spans each count their own wall time;
``overlap_s`` is how far the self times then exceed the request time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = ("cli", "instance_io", "report", "graph", "cycles", "scaling", "twonc", "kfst")
CYCLE_SEARCHES = frozenset({"search_min_cycle", "min_steiner_cycle"})
PATH_SEARCHES = frozenset({"search_min_path", "min_steiner_path"})


class _Span:
    __slots__ = ("layer", "func", "parent", "start", "end")

    def __init__(self, layer: str, func: str, parent: "_Span | None"):
        self.layer = layer
        self.func = func
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    """Installs the wrappers and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.cycle_calls = 0
        self.path_calls = 0
        self.unattributed_s = 0.0
        self.overlap_s = 0.0
        self.request_s = 0.0
        self._local = threading.local()
        self._request_stack: list[_Span] | None = None
        self._spans: list[_Span] = []
        self._patches = self._plan()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._request_stack and stack is not self._request_stack:
                parent = self._request_stack[-1]
            else:
                parent = None
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            span = _Span(layer, name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._spans.append(span)

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every reference to a
        public function of a layer, in every loaded package module."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "survsteiner" or name.startswith("survsteiner.")
        ]
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"survsteiner.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(layer, fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            plan.append((holder, attr, fn, wrapper))
        return plan

    def run_request(self, call):
        """Run one request with the wrappers in place; returns
        (result, seconds). The wrappers are removed again afterwards."""
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        self._spans = []
        self._request_stack = self._stack()
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            self._request_stack = None
            for holder, attr, fn, _ in self._patches:
                setattr(holder, attr, fn)
            self._fold(elapsed)
        return result, elapsed

    def _fold(self, elapsed: float) -> None:
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self._spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append((span.start, span.end))
        attributed = 0.0
        roots = 0.0
        for span in self._spans:
            inner = [
                (max(a, span.start), min(b, span.end))
                for a, b in children.get(id(span), ())
                if b > span.start and a < span.end
            ]
            own = (span.end - span.start) - _covered(inner)
            self.self_s[span.layer] += own
            self.calls[span.layer] += 1
            attributed += own
            if span.parent is None:
                roots += span.end - span.start
            if span.func in CYCLE_SEARCHES:
                self.cycle_calls += 1
            elif span.func in PATH_SEARCHES:
                self.path_calls += 1
        unattributed = elapsed - roots
        self.unattributed_s += unattributed
        self.overlap_s += attributed + unattributed - elapsed
        self.request_s += elapsed
        self._spans = []
