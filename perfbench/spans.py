"""In-memory spans recorded by wrappers around the program's public calls.

A :class:`Tracer` replaces an attribute (a module function or a class
method) with a wrapper that records one span per call: name, start, end,
parent span and run id, plus any counters the span's ``on_exit`` hook
derives from the call's arguments and result.  Each wrapper is installed at
the attribute its caller looks up, so the program itself is unchanged.
Spans stay in memory; :meth:`Tracer.dump` writes them out when a run ends.

The tracer is single-threaded: every traced call happens in the benchmark
process.  Pool workers are never traced (see ``worker.py``).
"""

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the wrappers it has installed."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._installed: List[tuple] = []
        self.enabled = False
        # time the wrappers spend outside the calls they wrap: span
        # bookkeeping and the ``on_exit`` hooks
        self.own_s = 0.0

    # -- recording ---------------------------------------------------------

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def call(self, name: str, func: Callable, args, kwargs,
             on_exit: Optional[Callable] = None,
             only_under: Optional[str] = None):
        """Run ``func`` inside a span named ``name``.

        ``only_under`` restricts recording to calls whose innermost open span
        has that name; other calls pass straight through.
        """
        parent = self.current()
        if not self.enabled or (only_under is not None and
                                (parent is None or parent.name != only_under)):
            return func(*args, **kwargs)
        entered = self.clock()
        span = Span(len(self.spans), name, 0.0, 0.0,
                    parent.span_id if parent else None, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if on_exit is not None:
            span.counters.update(on_exit(args, kwargs, result))
        self.own_s += (span.start - entered) + (self.clock() - span.end)
        return result

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             on_exit: Optional[Callable] = None,
             only_under: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, on_exit, only_under)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def children(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part of it its child spans cover.

        Calls are single-threaded, so children of one span never overlap and
        the covered part is the sum of their durations.
        """
        kids = self.children()
        return {s.span_id: s.duration - sum(c.duration for c in kids.get(s.span_id, ()))
                for s in self.spans}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
