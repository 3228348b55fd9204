"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent) while the tracer is
active.  Modules call each other through module attributes
(`core.find_cycle(...)`) and call their own functions through module globals,
so one `setattr` on the module object catches both kinds of call.  Private
helpers, class methods and generator functions are not wrapped: their time
counts as self time of the nearest wrapped caller.

Spans live in flat arrays while the run lasts and are written out at the end;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import Counter


class Spans:
    """Flat span arrays: span k is named names[ids[k]] and its parent is span
    parents[k] (-1 for none)."""

    def __init__(self):
        self.names: list[str] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def name(self, k: int) -> str:
        return self.names[self.ids[k]]

    def write(self, path) -> None:
        """gzip'd tab-separated rows: name, start, end, parent; the row
        number (from 0, after the header) is the span index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# name\tstart_s\tend_s\tparent\n")
            names, ids, starts, ends, parents = (
                self.names, self.ids, self.starts, self.ends, self.parents)
            fh.writelines(
                f"{names[ids[k]]}\t{starts[k]!r}\t{ends[k]!r}\t{parents[k]}\n"
                for k in range(len(ids))
            )

    @classmethod
    def read(cls, path) -> "Spans":
        spans = cls()
        index: dict = {}
        with gzip.open(path, "rt") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                name, start, end, parent = line.rstrip("\n").split("\t")
                if name not in index:
                    index[name] = len(spans.names)
                    spans.names.append(name)
                spans.ids.append(index[name])
                spans.starts.append(float(start))
                spans.ends.append(float(end))
                spans.parents.append(int(parent))
        return spans


class Tracer:
    """Records a span per call of a wrapped function while `active` is set."""

    def __init__(self, modules: dict, returned: dict | None = None):
        """modules: layer name -> module object.  returned: span name -> a
        function of the result whose value is added to the counter
        "<span name>.returned" on every traced call."""
        self.modules = modules
        self.returned = returned or {}
        self.spans = Spans()
        self.counters: Counter = Counter()
        self.active = False
        self._stack = [-1]
        self._originals: list = []

    def install(self) -> None:
        for layer, module in self.modules.items():
            for attr, fn in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        fid = len(spans.names)
        spans.names.append(name)
        ids, parents, starts, ends = spans.ids, spans.parents, spans.starts, spans.ends
        stack, clock = self._stack, time.perf_counter
        sizer = self.returned.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(ids)
            ids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sizer is not None:
                tracer.counters[name + ".returned"] += sizer(result)
            return result

        return traced


def summarize(spans: Spans, first: int = 0, last: int | None = None) -> dict:
    """Per span name over spans first..last-1: calls, self and inclusive
    seconds.  Self time is the duration minus that of the direct children."""
    last = len(spans) if last is None else last
    incl = [spans.ends[k] - spans.starts[k] for k in range(first, last)]
    own = list(incl)
    for k in range(first, last):
        p = spans.parents[k]
        if first <= p < last:
            own[p - first] -= incl[k - first]
    out: dict = {}
    for k in range(first, last):
        row = out.setdefault(spans.name(k), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[k - first]
        row[2] += incl[k - first]
    return {name: {"calls": c, "self_s": s, "incl_s": i} for name, (c, s, i) in out.items()}


def child_time(spans: Spans, children, parent: str, first: int = 0, last: int | None = None) -> float:
    """Inclusive seconds of the spans named in `children` whose direct parent
    is a span named `parent`, over spans first..last-1."""
    last = len(spans) if last is None else last
    total = 0.0
    for k in range(first, last):
        p = spans.parents[k]
        if p >= 0 and spans.name(k) in children and spans.name(p) == parent:
            total += spans.ends[k] - spans.starts[k]
    return total
