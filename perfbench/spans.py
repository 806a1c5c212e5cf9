"""Span recorder for the traced run.

Timing wrappers are installed around the program's public functions as they
are bound in their calling modules, only while a traced pass runs. Each span
keeps its name, start, end, parent span and query; spans stay in memory, in
flat arrays, and are written out once at the end.

A layer is the part of a span name before the dot. A span's layer self time
is its duration minus its direct children of other layers, so adapter work
inside ``translate.doc`` counts as translation while ``corpus.analyze`` inside
``rerank.rerank`` does not count as re-ranking.
"""

import functools
import gc
import importlib
import json
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name): the calls into each layer
WRAPPED = (
    ("clir.pipeline", "translate_query", "translate.query"),
    ("clir.pipeline", "search", "index.search"),
    ("clir.pipeline", "translate_document", "translate.doc"),
    ("clir.pipeline", "rerank", "rerank.rerank"),
    # the benchmark's own query loops call these through clir.pipeline
    ("clir.pipeline", "run_two_stage", "pipeline.run"),
    ("clir.pipeline", "run_first_stage", "pipeline.run"),
    ("clir.evaluation", "run_two_stage", "pipeline.run"),
    ("clir.evaluation", "run_first_stage", "pipeline.run"),
    ("clir.evaluation", "evaluate_run", "evaluation.evaluate"),
    ("clir.rerank", "analyze", "corpus.analyze"),
    ("clir.index", "analyze", "corpus.analyze"),
)


def _layer(name):
    return name.split(".", 1)[0]


def _query_id(name, args):
    if name == "pipeline.run" and args:
        return getattr(args[0], "query_id", None)
    return None


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.query_ids = []
        self._query_index = {}
        self._stack = []
        self.counts = {}
        self.missing = []
        self._installed = []

    def begin(self, name, query_id=None):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        if query_id is None:
            query = self.query[parent] if parent >= 0 else -1
        else:
            query = self._query_index.get(query_id)
            if query is None:
                query = self._query_index[query_id] = len(self.query_ids)
                self.query_ids.append(query_id)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.query.append(query)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, _query_id(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, after=None):
        """Wrap every function in WRAPPED; a name that no longer exists is
        recorded in ``missing`` instead. ``after`` maps a span name to a
        callback run with (tracer, args, result) after each call."""
        after = after or {}
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, after.get(name)))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    @contextmanager
    def installed(self, after=None):
        self.install(after)
        try:
            yield self
        finally:
            self.uninstall()

    def mark(self):
        """Position in the span arrays, to summarise a phase later."""
        return len(self.start)

    def summary(self, lo=0, hi=None):
        """Per span name over spans [lo, hi): count, total duration, layer self
        time, and strict self time (duration minus every direct child)."""
        hi = len(self.start) if hi is None else hi
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        other = [0.0] * (hi - lo)
        children = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                children[p - lo] += dur[i - lo]
                if _layer(self.names[self.name_id[i]]) != _layer(self.names[self.name_id[p]]):
                    other[p - lo] += dur[i - lo]
        out = {}
        for i in range(lo, hi):
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0, "strict_self_s": 0.0,
                                  "children_s": 0.0})
            k = i - lo
            row["count"] += 1
            row["total_s"] += dur[k]
            row["self_s"] += dur[k] - other[k]
            row["strict_self_s"] += dur[k] - children[k]
            row["children_s"] += children[k]
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                q = self.query[i]
                fh.write(json.dumps({
                    "span": i,
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "query": self.query_ids[q] if q >= 0 else None,
                }))
                fh.write("\n")


class GcClock:
    """Collections and pause time of the garbage collector, from
    ``gc.callbacks``, while used as a context manager."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase, _info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc):
        gc.callbacks.remove(self)
