"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark side only: the benchmark opens a
span around each operation it issues, and :func:`install` wraps public
library entry points (functions and methods) so that every call into a
layer opens a child span.  Nothing inside ``src/`` is edited; a wrapper
whose target no longer exists is reported in :attr:`Tracer.missing`
instead of failing the run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Summed over every
span of an operation, self times add up to the operation's root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Observer called after a wrapped call returns:
#: ``observe(tracer, args, kwargs, result)``.
Observer = Callable[["Tracer", tuple, dict, Any], None]


@dataclass
class Span:
    """One timed interval at a layer boundary.

    Attributes:
        span_id: sequence number, unique within one tracer.
        name: layer span name (``"dram.sched"``, ``"mapping.addr"``, ...).
        op: identifier of the benchmark operation the span belongs to;
            every span of one operation shares it.
        parent: ``span_id`` of the enclosing span, ``None`` for a root.
        start: host clock at entry (seconds).
        end: host clock at exit (seconds).
    """

    span_id: int
    name: str
    op: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds between entry and exit."""
        return self.end - self.start


class Tracer:
    """Collects spans and exact counts in memory.

    Args:
        clock: monotonic clock returning seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.op = ""
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), name, self.op, parent, self.clock())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` encloses the current point."""
        return any(open_span.name == name for open_span in self._stack)

    def count(self, key: str, value: float = 1) -> None:
        """Add ``value`` to the exact counter ``key``."""
        self.counts[key] += value

    def reset(self) -> None:
        """Drop recorded spans and counts (keeps :attr:`missing`)."""
        self.spans = []
        self.counts = Counter()
        self._stack = []


def self_times(spans: Sequence[Span],
               child_filter: Optional[Callable[[Span], bool]] = None
               ) -> Dict[int, float]:
    """Self time of every span: its duration minus what children cover.

    Children are the spans whose ``parent`` is the span; overlapping
    children are merged, so coverage never exceeds the parent.  With
    ``child_filter`` only the children it accepts are subtracted.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = [kid for kid in children.get(span.span_id, ())
                if child_filter is None or child_filter(kid)]
        result[span.span_id] = span.duration - _covered(
            span, sorted((kid.start, kid.end) for kid in kids))
    return result


def _covered(parent: Span, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``parent``."""
    total = 0.0
    cursor = parent.start
    for start, end in intervals:
        start = max(start, cursor)
        end = min(end, parent.end)
        if end > start:
            total += end - start
            cursor = end
    return total


@dataclass(frozen=True)
class Target:
    """A public library entry point to wrap in the traced run.

    Attributes:
        path: ``"package.module:function"`` or
            ``"package.module:Class.method"``.
        span: span name each call records.
        observe: optional counter hook run on every returned value
            (for ``iterator`` targets: on every yielded item).
        iterator: the target returns an iterator that does its work
            lazily; each ``next`` is timed instead of the call.
    """

    path: str
    span: str
    observe: Optional[Observer] = None
    iterator: bool = False


def _wrap(tracer: Tracer, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
    """The traced replacement of ``fn``."""
    if target.iterator:
        @functools.wraps(fn)
        def lazy(*args: Any, **kwargs: Any) -> Any:
            return _timed_iter(tracer, target, iter(fn(*args, **kwargs)))
        return lazy

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.is_open(target.span):  # re-entry into the same layer
            return fn(*args, **kwargs)
        with tracer.span(target.span):
            result = fn(*args, **kwargs)
        if target.observe is not None:
            target.observe(tracer, args, kwargs, result)
        return result
    return traced


def _timed_iter(tracer: Tracer, target: Target, iterator: Iterator[Any]) -> Iterator[Any]:
    """Re-yield ``iterator`` with one span around each ``next``."""
    while True:
        with tracer.span(target.span):
            try:
                item = next(iterator)
            except StopIteration:
                return
        if target.observe is not None:
            target.observe(tracer, (), {}, item)
        yield item


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every loaded subclass of it, recursively."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals.

    A method target is wrapped on its class and on every loaded
    subclass that overrides it.  A function target is replaced in its
    module and in every loaded ``repro`` module that imported it by
    name.  Targets that cannot be resolved are appended to
    ``tracer.missing``.
    """
    patches: List[Tuple[Any, str, Any]] = []
    for target in targets:
        module_name, _, attr_path = target.path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *owners, name = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            tracer.missing.append(target.path)
            continue
        if isinstance(owner, type):
            holders = [(cls, cls.__dict__[name]) for cls in _subclasses(owner)
                       if name in cls.__dict__]
        else:
            holders = [(module, original) for module in list(sys.modules.values())
                       if getattr(module, "__name__", "").startswith("repro")
                       and getattr(module, name, None) is original]
        if not holders:
            tracer.missing.append(target.path)
        wrappers: Dict[int, Callable[..., Any]] = {}
        for holder, fn in holders:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = _wrap(tracer, target, fn)
            patches.append((holder, name, fn))
            setattr(holder, name, wrappers[id(fn)])

    def uninstall() -> None:
        for holder, name, fn in reversed(patches):
            setattr(holder, name, fn)
    return uninstall
