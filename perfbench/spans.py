"""Span tracing of the ranrec package, installed from outside the program.

``Tracer`` finds the functions and methods of every ``ranrec`` module and,
while ``active()``, replaces each one at every name a caller resolves: the
attribute of its defining module, the same object imported into other
modules (``ranrec.cli.fit_forest``), and the class attribute for methods.
Each call records one span ``[name, start, end, parent, root, error, count]``; a
span's self time is its duration minus the durations of its child spans
(calls run in one thread, so children never overlap). Spans stay in memory
and are written once by ``dump``.

A function that a later commit renames or deletes is simply not found: its
metrics come out as ``None`` ("unmeasured") instead of failing the run.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import pkgutil
import time
from contextlib import contextmanager
from pathlib import Path

# Private helpers that are layer boundaries in their own right.
ALWAYS = frozenset(
    {"autodiff.Tape.backward", "cli._canonical_json", "cli._atomic_write", "cli._write_manifest"}
)

# Per-element helpers below the reported boundaries, called once per tape op,
# tree, vector slot, edge or cell. A span there costs about as much as the work
# it times and would move that work out of the boundary that owns it (the
# forward pass out of gnn.layer_forward, tree walks out of
# anomaly.anomaly_score, slot normalization out of graph.feature_map).
INNER = (
    "autodiff.Tape.*",
    "autodiff.leaky_relu_values",
    "autodiff.masked_softmax",
    "autodiff.l2_distance",
    "autodiff.cosine",
    "anomaly.path_length",
    "anomaly.expected_path_length",
    "anomaly.average_path_length",
    "gnn.attention_mask",
    "gnn.attention_scores",
    "graph.vectorize",
    "graph.SlotStats.*",
    "graph.CellRecord.*",
    "graph.AttributeSchema.layout",
    "graph.RanGraph.cell",
    "graph.RanGraph.has_cell",
    "graph.RanGraph.neighbors",
    "graph.RanGraph.edge_kind",
    "rng.*",
    "sampler.neighbors",
    "training.config_similarity",
)

# Counts read from a traced function's return value: function -> (metric, measure).
COUNTERS = {"training.mine_informative_pairs": ("training.pairs_mined", len)}


def traced(name: str) -> bool:
    if name in ALWAYS:
        return True
    if name.rsplit(".", 1)[-1].startswith("_"):
        return False
    return not any(fnmatch.fnmatchcase(name, pattern) for pattern in INNER)


def _members(module):
    """(qualified name, holder, attribute, descriptor, function) of one module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{short}.{attr}", module, attr, obj, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for meth, desc in vars(obj).items():
                if meth.startswith("__"):
                    continue
                fn = desc.__func__ if isinstance(desc, (classmethod, staticmethod)) else desc
                if inspect.isfunction(fn):
                    yield f"{short}.{obj.__name__}.{meth}", obj, meth, desc, fn


class Tracer:
    def __init__(self, package) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        for module in modules:
            for name, holder, attr, desc, fn in _members(module):
                if not traced(name):
                    continue
                wrapper = self._wrap(name, fn)
                wrappers[id(fn)] = wrapper
                if isinstance(desc, (classmethod, staticmethod)):
                    wrapper = type(desc)(wrapper)
                self._patches.append((holder, attr, desc, wrapper))
        # The same function objects imported under other modules' names.
        for module in modules:
            for attr, obj in vars(module).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj.__module__ != module.__name__:
                    self._patches.append((module, attr, obj, wrapper))

    @property
    def wrapped(self) -> set[str]:
        return set(self.names)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = COUNTERS[name][1] if name in COUNTERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            root = spans[parent][4] if parent >= 0 else index
            span = [name_id, clock(), 0.0, parent, root, False, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[6] = measure(result)
            return result

        return wrapper

    @contextmanager
    def active(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)

    def totals(self, ranges) -> dict[str, dict[str, float]]:
        """Calls, errors, counts, total and self seconds per function over span index ranges."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for start, stop in ranges:
            for index in range(start, stop):
                name_id, t0, t1, _, _, error, count = self.spans[index]
                row = out.setdefault(
                    self.names[name_id],
                    {"calls": 0, "errors": 0, "count": 0, "s": 0.0, "self_s": 0.0},
                )
                row["calls"] += 1
                row["errors"] += int(error)
                row["count"] += count
                row["s"] += t1 - t0
                row["self_s"] += t1 - t0 - child[index]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "root", "error", "count"],
            "spans": [[self.names[s[0]], *s[1:]] for s in self.spans],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
