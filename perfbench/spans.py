"""In-memory spans recorded around the program's public calls.

A :class:`Tracer` replaces functions and methods of ``repro`` modules with
wrappers that record one span per call: its name, start, end, the span
that caused it, and the item span (one ``STMaker.summarize`` call) it
serves.  Nothing inside the program changes; :meth:`Tracer.uninstall`
puts every original back.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: The enclosing item span (itself, for an item span); None outside items.
    item: int | None


def covered_length(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start)
        - covered_length(s.start, s.end, children.get(s.span_id, ()))
        for s in spans
    }


#: ``note(tracer, span_id, args, kwargs, result, error)`` inspects a call
#: after its span has closed, so its own cost is not charged to the span.
Note = Callable[["Tracer", int, tuple, dict, object, BaseException | None], None]


class Tracer:
    """Wraps calls, records spans and counts, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Free-form per-item facts recorded by notes, e.g. trajectory ids.
        self.item_tags: dict[int, object] = {}
        #: Objects notes keep for analysis after the run (match results).
        self.kept: list[tuple[int | None, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, *, item: bool = False,
             note: Note | None = None) -> Callable:
        """A wrapper of *fn* that records a span named *name* per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_item = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            item_id = span_id if item else parent_item
            stack.append((span_id, item_id))
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        Span(span_id, name, start, end, parent, item_id)
                    )
                if note is not None:
                    note(tracer, span_id, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def current_item(self) -> int | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def count_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def keep(self, obj: object) -> None:
        """Keep *obj* for analysis after the run, under the current item."""
        item = self.current_item()
        with self._lock:
            self.kept.append((item, obj))

    # -- installing ----------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` with a recording wrapper until uninstall."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **kwargs))
        else:
            replacement = self.wrap(raw, name, **kwargs)
        self._patches.append((owner, attr, raw, replacement))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, _ = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own calls into the program unrecorded.

        Only safe while no wrapped call is in progress on any thread.
        """
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)
        try:
            yield
        finally:
            for owner, attr, _, replacement in self._patches:
                setattr(owner, attr, replacement)

    def reset(self) -> None:
        """Forget recorded spans and counts; keep the wrappers installed."""
        with self._lock:
            self.spans = []
            self.counts = Counter()
            self.item_tags = {}
            self.kept = []

    # -- reading -------------------------------------------------------------------

    def totals(self, *, self_time: bool = False) -> dict[str, tuple[int, float]]:
        """``name -> (calls, seconds)``, inclusive or self time."""
        own = self_times(self.spans) if self_time else None
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            entry = out[s.name]
            entry[0] += 1
            entry[1] += own[s.span_id] if own is not None else s.end - s.start
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def dump(self, path) -> None:
        rows = [
            {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "item": s.item}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
