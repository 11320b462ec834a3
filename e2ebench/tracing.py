"""Span recorder that times the program's layers from the outside.

Nothing under ``src/`` knows about this module. Each layer is timed by
temporarily replacing one public function of that layer's module with
a wrapper that records a span (name, layer, start, end, parent) around
the original call. Wrappers are installed only around traced rounds
and restored afterwards, so untraced rounds run the program unchanged.

A span's self time is its duration minus the part of its interval that
its child spans cover. Spans nest per thread; a thread the benchmark
starts on behalf of a span (a service client) is adopted under that
span with :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layer the benchmark's own spans (rounds, poll sleeps) belong to.
BENCH_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span buffer plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: int) -> None:
        """Parent the calling thread's top-level spans under ``parent``."""
        self._local.stack = [parent]

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def begin(self, name: str, layer: str) -> Tuple[int, Span]:
        span = Span(
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=self.current(),
            thread=threading.current_thread().name,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        self._stack().append(index)
        return index, span

    def end(self, index: int, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str, layer: str = BENCH_LAYER) -> "_SpanContext":
        return _SpanContext(self, name, layer)

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(span, args, kwargs, result)`` runs once the span has
        closed, so what it computes is not charged to the layer.
        """
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index, span = tracer.begin(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index, span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children."""
        kids = self.children()
        return [
            span.duration - covered(span, [self.spans[k] for k in kids.get(i, [])])
            for i, span in enumerate(self.spans)
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (start/end relative)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "layer": span.layer,
                            "parent": span.parent,
                            "thread": span.thread,
                            "start_s": span.start - origin,
                            "end_s": span.end - origin,
                            "attrs": {
                                key: value
                                for key, value in span.attrs.items()
                                if isinstance(value, (bool, int, float, str, tuple))
                            },
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self) -> Tuple[int, Span]:
        self._index, self._span = self._tracer.begin(self._name, self._layer)
        return self._index, self._span

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index, self._span)


def covered(parent: Span, kids: Sequence[Span]) -> float:
    """Seconds of ``parent``'s interval covered by any of ``kids``."""
    intervals = sorted(
        (max(k.start, parent.start), min(k.end, parent.end)) for k in kids
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
