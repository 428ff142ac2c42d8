"""Outside-in span tracing for the benchmark's traced pass.

The tracer wraps public functions and methods of each ``trajindex`` module
from here, so the program itself is not changed.  A span is
``(phase, query id, name, start ns, end ns, parent span)``; spans and the
counters recorded at the same boundaries stay in memory until the run
writes them out.  A wrap target that does not exist (renamed or removed
on a later commit) is skipped and the metrics derived from it are
reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

_MARK = "__perfbench_wrapper__"


def _probe(tracer, args, result):
    n = len(result)
    tracer.count("temporal.probes")
    tracer.count("temporal.probe_hits", n > 0)
    tracer.count("temporal.rows", n)


def _refine(tracer, args, result):
    tracer.count("core.refine_in", len(result))
    tracer.count("core.refine_kept", int(result.sum()))


def _query_slice(tracer, args, result):
    first, last = result
    tracer.count("iis.set_hits", first < last)


def _temporal_build(tracer, args, result):
    tracer.count("temporal.fallback_builds", getattr(result, "backend", None) == "linear")


def _range_query(tracer, args, result):
    tracer.count("index.unique_ids", len(result.object_ids))


# (module, attribute path, span name, counter hook)
TARGETS = [
    ("trajindex.index", "TrajIndex.build", "index.build", None),
    ("trajindex.index", "TrajIndex.range_query", "index.range_query", _range_query),
    ("trajindex.index", "TrajIndex.save", "index.save", None),
    ("trajindex.index", "TrajIndex.load", "index.load", None),
    ("trajindex.rtree", "build_rtree", "rtree.build", None),
    ("trajindex.rtree", "RTree.window_query", "rtree.window_query",
     lambda t, a, r: t.count("rtree.candidates", len(r))),
    ("trajindex.rtree", "RTree.to_bytes", "rtree.to_bytes", None),
    ("trajindex.rtree", "RTree.from_bytes", "rtree.from_bytes", None),
    ("trajindex.core", "segments_intersect_window", "core.refine", _refine),
    ("trajindex.temporal", "build_temporal_index", "temporal.build", _temporal_build),
    ("trajindex.temporal.iis", "IndependentIntervalSet.query_slice", "iis.query_slice", _query_slice),
    ("trajindex.temporal.iis", "decompose_independent_sets", "iis.decompose", None),
    ("trajindex.temporal.iis", "IISIndex.to_bytes", "iis.to_bytes", None),
    ("trajindex.temporal.iis", "IISIndex.from_bytes", "iis.from_bytes", None),
    ("trajindex.eliasfano", "EliasFanoSeq.rank", "eliasfano.rank", None),
    ("trajindex.eliasfano", "EliasFanoSeq.from_values", "eliasfano.from_values", None),
]


def backend_targets(tj) -> list:
    """One ``query`` target per temporal backend registered at run time."""
    return [
        (cls.__module__, f"{cls.__qualname__}.query", f"temporal.{name}.query", _probe)
        for name, cls in tj.temporal.BACKENDS.items()
    ]


def _trajindex_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "trajindex" or name.startswith("trajindex."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)   # (phase, counter) -> value
        self.phase: str | None = None             # None records nothing
        self.qid = -1
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []                  # (owner, attr, original, owned)

    def count(self, key: str, value=1) -> None:
        self.counts[(self.phase, key)] += value

    # -- installing and removing wrappers ---------------------------------

    def install(self, targets) -> None:
        for module_name, path, name, hook in targets:
            if not self._wrap(module_name, path, name, hook):
                self.missing.append(name)

    def _wrap(self, module_name: str, path: str, name: str, hook) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        if not callable(func):
            return False
        wrapper = self._make_wrapper(func, name, hook)
        replacement = binder(wrapper) if binder else wrapper
        if isinstance(owner, type):
            locations = [(owner, attr)]
        else:
            # a module function is also bound by name in every module that
            # imported it, and callers look it up there
            locations = [(m, key) for m in _trajindex_modules()
                         for key, value in list(vars(m).items()) if value is func]
        for loc_owner, loc_attr in locations:
            owned = loc_attr in vars(loc_owner)
            original = vars(loc_owner)[loc_attr] if owned else None
            self._patches.append((loc_owner, loc_attr, original, owned))
            setattr(loc_owner, loc_attr, replacement)
        self.wrapped.add(name)
        return True

    def _make_wrapper(self, func, name: str, hook):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return func(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (phase, tracer.qid, name, start, end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.phase = None

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tphase\tquery\tname\tstart_ns\tend_ns\tparent\n")
            for sid, (phase, qid, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid}\t{phase}\t{qid}\t{name}\t{start}\t{end}\t{parent}\n")

    def totals(self, phase: str):
        """Per span name: (calls, inclusive ns, self ns) within one phase.

        Self time is a span's duration minus the durations of its direct
        children."""
        child_ns: dict[int, int] = defaultdict(int)
        for phase_, _, _, start, end, parent in self.spans:
            if phase_ == phase and parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for sid, (phase_, _, name, start, end, _) in enumerate(self.spans):
            if phase_ != phase:
                continue
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns.get(sid, 0)
        return calls, incl, self_ns


def assert_unwrapped() -> None:
    """Fail if any tracing wrapper is still installed in a trajindex module."""
    for module in _trajindex_modules():
        for key, value in list(vars(module).items()):
            holders = [value]
            if isinstance(value, type) and value.__module__.startswith("trajindex"):
                holders = list(vars(value).values())
            for holder in holders:
                func = getattr(holder, "__func__", holder)
                if getattr(func, _MARK, False):
                    raise AssertionError(f"tracing wrapper left installed on {module.__name__}.{key}")
