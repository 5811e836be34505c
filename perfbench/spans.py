"""Layer spans recorded from outside the program.

Each layer entry point is replaced, for the length of one traced pass, by a
wrapper in the namespace of the module that calls it: callers bind names at
import (`from .clustering import build_hierarchy`), so patching the defining
module alone would record nothing. A span is (key, start, end, parent index);
spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _positive_cuts(dual) -> int:
    return sum(1 for val in dual.cuts.values() if val > 0)


# (calling module, public name, span key, optional count of the return value).
# A span key is "<layer>.<entry>"; the layers are the package modules.
ENTRY_POINTS = (
    ("sfonline.cli", "load_instance_file", "metric.load", None),
    ("sfonline.trace", "load_instance_file", "metric.load", None),
    ("sfonline.metric", "validate_metric", "metric.validate", None),
    ("sfonline.forest", "build_hierarchy", "clustering.build_hierarchy", None),
    ("sfonline.oracles", "build_hierarchy", "clustering.build_hierarchy", None),
    ("sfonline.forest", "cluster_distance", "clustering.cluster_distance", None),
    ("sfonline.oracles", "cluster_distance", "clustering.cluster_distance", None),
    ("sfonline.forest", "contract_clustering", "clustering.contract", None),
    ("sfonline.certify", "contract_clustering", "clustering.contract", None),
    ("sfonline.trace", "advance", "forest.advance", None),
    ("sfonline.forest", "classify_inheritance", "forest.inherit", None),
    ("sfonline.forest", "select_spanning_forest", "forest.inherit", None),
    ("sfonline.oracles", "select_spanning_forest", "forest.inherit", None),
    ("sfonline.forest", "pin_and_realize", "forest.pin", None),
    ("sfonline.cli", "save_trace", "trace.save", None),
    ("sfonline.cli", "load_trace", "trace.load", None),
    ("sfonline.cli", "check_run", "certify.check_run", None),
    ("sfonline.certify", "build_dual_witness", "certify.witness", None),
    ("sfonline.certify", "grow_balls", "certify.witness", _positive_cuts),
    ("sfonline.certify", "check_dual_feasibility", "certify.dual_feasibility", None),
    ("sfonline.cli", "exact_optimum", "oracles.exact_optimum", None),
    ("sfonline.cli", "offline_gluttonous_forest", "oracles.offline", None),
    ("sfonline.cli", "run_baseline", "oracles.baselines", None),
)

COMMAND = "cli.command"


class MissingEntryPoint(RuntimeError):
    """A wrapped public name is gone, so its layer would silently read zero."""


def resolve(entry_points=ENTRY_POINTS):
    """(module, name, key, count) per entry point; raise if a name is gone."""
    out = []
    for modname, name, key, count in entry_points:
        module = importlib.import_module(modname)
        if not callable(getattr(module, name, None)):
            raise MissingEntryPoint(
                f"{modname}.{name} no longer exists; span {key!r} would read zero. "
                "Update perfbench/spans.py ENTRY_POINTS to the new entry point.")
        out.append((module, name, key, count))
    return out


class Tracer:
    """Records nested spans around the resolved entry points.

    `spans` holds [key, start, end, parent] lists (parent -1 at the root);
    `counts` holds the per-key sums of the count functions.
    """

    def __init__(self, entry_points):
        self.entry_points = entry_points
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, key, count, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `key`; `count`, if given,
        maps the result to a number added to counts[key]."""
        idx = len(self.spans)
        rec = [key, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            self.counts[key] = self.counts.get(key, 0) + count(result)
        return result

    def _wrap(self, fn, key, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(key, count, fn, *args, **kwargs)
        return wrapper

    def __enter__(self):
        self._saved = []
        for module, name, key, count in self.entry_points:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, key, count))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved = []
        return False


def self_times(spans) -> dict[str, float]:
    """Per key: sum of span durations minus the parts their children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (key, start, end, _), covered in zip(spans, child):
        out[key] = out.get(key, 0.0) + (end - start - covered)
    return out


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for key, *_ in spans:
        out[key] = out.get(key, 0) + 1
    return out


def write_spans(path, passes) -> None:
    """One JSON line per span: pass index, key, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for key, start, end, parent in spans:
                fh.write(json.dumps({"pass": k, "name": key, "start": start,
                                     "end": end, "parent": parent}) + "\n")
