"""Spans and counters for skewlab, installed from outside the package.

``Tracer.install`` replaces every public module-level function of every
``skewlab`` module with a timing wrapper, in every module namespace (and
module-level dict) that binds it, plus a few named methods on their
classes.  The package source is not edited: the wrappers sit at the
boundaries between modules, which are the layers the benchmark reports.

Each wrapped call pushes a frame on one stack.  On return the call's
elapsed time is added to its parent's child time, so a function's self
time is its elapsed time minus the elapsed time of wrapped calls made
inside it, and the self times of one case sum to the root call's wall
time.  Calls of functions in ``counter_only`` update only the per-name
totals; every other call also records a span
``(trace_id, span_id, parent_span_id, name, start, end)`` in memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

_clock = time.perf_counter


def _is_traceable(obj, module_name: str) -> bool:
    """Plain or ``lru_cache``-wrapped function defined in the module."""
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module_name


class Tracer:
    """Per-name call counts and self times, spans and parent/child edges.

    ``probes`` maps a traced name to ``fn(tracer, args, kwargs, result)``,
    run after a successful call, for counts read from arguments or
    results; its time is charged to the caller.  Every span is kept.
    """

    def __init__(self, counter_only=(), probes=None):
        self.counter_only = frozenset(counter_only)
        self.probes = dict(probes or {})
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.case_self_s = 0.0
        self.case_state: dict = {}
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []
        self._next_span = 1
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def start_case(self, trace_id: int) -> None:
        """Begin a new trace id; per-case totals and state restart."""
        self.trace_id = trace_id
        self.case_self_s = 0.0
        self.case_state = {}

    def wrap(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        edges = self.edges
        keep_span = name not in self.counter_only
        probe = self.probes.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = tracer._next_span
                tracer._next_span = span_id + 1
            else:
                span_id = parent[3] if parent else 0
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[2]
                self_s[name] = self_s.get(name, 0.0) + own
                calls[name] = calls.get(name, 0) + 1
                tracer.case_self_s += own
                if parent is not None:
                    parent[2] += elapsed
                    edge = (parent[0], name)
                else:
                    edge = ("", name)
                edges[edge] = edges.get(edge, 0) + 1
                if keep_span:
                    tracer.spans.append(
                        (tracer.trace_id, span_id, parent[3] if parent else 0, name, start, end)
                    )
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, modules, methods=()) -> None:
        """Wrap public functions of ``modules`` and the named ``methods``.

        ``modules`` maps a layer name to a module; ``methods`` lists
        ``(layer, class, attribute)``.  Every module namespace and every
        module-level dict that binds an original is rebound to its
        wrapper, so calls through ``from .x import f`` copies and
        dispatch tables are traced too.
        """
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_traceable(obj, mod.__name__):
                    continue
                if id(obj) in wrappers:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = self.wrap(name, obj)
        for mod in modules.values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                if id(obj) in wrappers:
                    self._patch(space, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patch(obj, key, wrappers[id(val)])
        for layer, cls, attr in methods:
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self.originals[name] = raw.__func__
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                self.originals[name] = raw
                wrapped = self.wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _patch(self, space: dict, key, new) -> None:
        self._patches.append((space, key, space[key]))
        space[key] = new

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        while self._patches:
            target, key, old = self._patches.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str, meta: dict) -> None:
        keys = ("trace_id", "span_id", "parent_id", "name", "start", "end")
        doc = {"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def leftover_originals(tracer: Tracer, modules, methods=()) -> list[str]:
    """Bindings that still reach an original after ``install``.

    Scans every module namespace and module-level dict, and each named
    method, and returns a description of every binding whose value is
    one of the originals the tracer wrapped.
    """
    originals = {id(fn): name for name, fn in tracer.originals.items()}
    found = []
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if id(val) in originals:
                        found.append(f"{mod.__name__}.{attr}[{key!r}]")
    for _layer, cls, attr in methods:
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if id(fn) in originals:
            found.append(f"{cls.__qualname__}.{attr}")
    return found
