"""Span tracer that wraps a package's public functions from outside.

``Tracer.install`` replaces, in every loaded module of the package, each
attribute that *is* one of the package's public functions (compared by
identity) with a wrapper that records a span.  Modules that import a function
by name (``from .correlations import gqd_min``) therefore hit the wrapper too.
Object construction is traced by wrapping ``__init__`` of the classes named in
``classes``.

A span is (id, name, start, end, parent, item, thread).  Parents come from a
per-thread stack; a span that starts on an empty stack in a thread other than
the installing one is parented to the innermost open span of the installing
thread, which is the call that fanned the work out.  Spans stay in memory, in
compact per-thread arrays (a traced pass can record millions), until
``spans()`` gathers them for analysis and writing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Iterable

import numpy as np


class _Buffer:
    """Open-span stack and finished spans of one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.id = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("H")
        self.tags: dict[int, dict] = {}


class Tracer:
    def __init__(
        self,
        package: str,
        classes: Iterable[str] = (),
        taggers: dict[str, Callable[[tuple, Any], dict | None]] | None = None,
    ):
        self.package = package
        self.classes = tuple(classes)
        self.taggers = taggers or {}
        self.names: list[str] = []
        self.items: list[str] = [""]
        self._item = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._home = self._buffer()
        self._patched: list[tuple[Any, str, Any]] = []

    def set_item(self, label: str) -> None:
        """Label every span that ends from now on with ``label``."""
        self.items.append(label)
        self._item = len(self.items) - 1

    # -- span recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        return buf

    def _wrap(self, name: str, fn: Callable) -> Callable:
        code = len(self.names)
        self.names.append(name)
        tagger = self.taggers.get(name)
        home = self._home

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif buf is not home and home.stack:
                try:
                    parent = home.stack[-1]
                except IndexError:  # the home thread closed its span meanwhile
                    parent = -1
            else:
                parent = -1
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                buf.id.append(sid)
                buf.name.append(code)
                buf.start.append(start)
                buf.end.append(end)
                buf.parent.append(parent)
                buf.item.append(self._item)
                if tagger is not None:
                    buf.tags[sid] = tagger(args, result)

        return functools.wraps(fn)(traced)

    # -- patching ---------------------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]

    def _short(self, module_name: str) -> str:
        return module_name[len(self.package) + 1 :] or self.package

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for m in modules:
            for attr, obj in vars(m).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == m.__name__
                ):
                    name = f"{self._short(m.__name__)}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for m in modules:
            for attr, obj in list(vars(m).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((m, attr, obj))
                    setattr(m, attr, hit[1])
        for qual in self.classes:
            mod_name, cls_name = qual.rsplit(".", 1)
            cls = getattr(sys.modules[f"{self.package}.{mod_name}"], cls_name)
            init = cls.__dict__["__init__"]
            self._patched.append((cls, "__init__", init))
            cls.__init__ = self._wrap(qual, init)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def spans(self) -> "Spans":
        bufs = self._buffers
        cat = lambda field, dtype: np.concatenate(  # noqa: E731
            [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs])
        tags = {}
        for b in bufs:
            tags.update(b.tags)
        return Spans(
            names=list(self.names),
            items=list(self.items),
            id=cat("id", np.int64),
            name=cat("name", np.uint16),
            start=cat("start", np.float64),
            end=cat("end", np.float64),
            parent=cat("parent", np.int64),
            item=cat("item", np.uint16),
            thread=np.concatenate([np.full(len(b.id), b.thread, np.uint16) for b in bufs]),
            tags=tags,
        )


class Spans:
    """All recorded spans as parallel arrays, with per-name aggregates.

    Busy time of a name counts only spans with no ancestor of the same name,
    so recursion is not counted twice.  Self time is a span's duration minus
    the part of it its children cover; children from other threads may
    overlap each other, so their union is subtracted.
    """

    def __init__(self, names, items, id, name, start, end, parent, item, thread, tags):
        self.names, self.items = names, items
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.item, self.thread, self.tags = parent, item, thread, tags
        n = len(id)
        index = np.full(int(id.max()) + 1 if n else 1, -1, dtype=np.int64)
        index[id] = np.arange(n)
        safe = np.where(parent >= 0, parent, 0)
        self.pidx = np.where(parent >= 0, index[safe], -1)
        self.duration = end - start

    def __len__(self) -> int:
        return len(self.id)

    def code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def count(self, name: str) -> int:
        code = self.code(name)
        return int(np.count_nonzero(self.name == code)) if code >= 0 else 0

    def nesting_errors(self) -> list[str]:
        """Spans whose parent never closed or that do not lie inside their parent."""
        has_parent = self.parent >= 0
        orphan = has_parent & (self.pidx < 0)
        p = np.where(self.pidx >= 0, self.pidx, 0)
        outside = (self.pidx >= 0) & ((self.start < self.start[p]) | (self.end > self.end[p]))
        bad = np.flatnonzero(orphan | outside)
        return [f"{self.names[self.name[i]]}#{self.id[i]} not inside parent #{self.parent[i]}"
                for i in bad[:10]]

    def outermost(self) -> np.ndarray:
        """Mask of spans with no ancestor of the same name."""
        nested = np.zeros(len(self), dtype=bool)
        anc = self.pidx.copy()
        live = anc >= 0
        while live.any():
            rows = np.flatnonzero(live)
            nested[rows] |= self.name[anc[rows]] == self.name[rows]
            anc[rows] = self.pidx[anc[rows]]
            live = anc >= 0
        return ~nested

    def self_times(self) -> np.ndarray:
        n = len(self)
        has = self.pidx >= 0
        p = np.where(has, self.pidx, 0)
        same = has & (self.thread == self.thread[p])
        covered = np.bincount(self.pidx[same], weights=self.duration[same], minlength=n)
        cross_parents = np.unique(self.pidx[has & ~same])
        if len(cross_parents):
            kids = np.flatnonzero(has & np.isin(self.pidx, cross_parents))
            by_parent: dict[int, list[tuple[float, float]]] = {}
            for k in kids:
                by_parent.setdefault(int(self.pidx[k]), []).append((self.start[k], self.end[k]))
            for par, ivals in by_parent.items():
                covered[par] = _union_length(ivals, self.start[par], self.end[par])
        return self.duration - covered

    def per_name(self, values: np.ndarray, mask: np.ndarray | None = None) -> dict[str, float]:
        names = self.name if mask is None else self.name[mask]
        vals = values if mask is None else values[mask]
        sums = np.bincount(names, weights=vals, minlength=len(self.names))
        return {nm: float(sums[i]) for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), items=np.array(self.items), id=self.id,
            name=self.name, start=self.start, end=self.end, parent=self.parent,
            item=self.item, thread=self.thread)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
