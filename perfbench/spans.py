"""Spans recorded from outside the program, around the public functions
each layer exposes.

A span has a name, a start and an end, the span that caused it, and the
trace (one build, one sweep, one query) it belongs to. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory; ``own_s`` is the time spent in the tracer's own code
    (span bookkeeping and the wrappers' hooks), i.e. what tracing adds."""

    def __init__(self):
        self.own_s = 0.0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trace = "run"
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs):
        """Record a span; ``trace`` starts a new trace when given."""
        enter = time.perf_counter()
        if trace is not None:
            self._trace = trace
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        self.own_s += start - enter
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._trace, name, start, end, attrs))
            self.own_s += time.perf_counter() - end

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``before(attrs)`` runs inside the span before the call and
        ``after(attrs, result)`` after it; ``unwrap`` restores the original.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                t = time.perf_counter()
                if before is not None:
                    before(attrs)
                self.own_s += time.perf_counter() - t
                result = orig(*args, **kwargs)
                t = time.perf_counter()
                if after is not None:
                    after(attrs, result)
                self.own_s += time.perf_counter() - t
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def by_parent(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        covered, reach = 0.0, span.start
        for c in sorted(self.by_parent().get(span.sid, []), key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.sid):
                f.write(json.dumps(asdict(s), default=str) + "\n")


def stage_tasks(sc, group: str) -> list[int]:
    """Task count of every Spark stage that ran a task for a job group, in
    stage order (read from the status tracker after the jobs end)."""
    tracker = sc.statusTracker()
    stages = set()
    for job in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(job)
        if info is not None:
            stages.update(info.stageIds)
    out = []
    for sid in sorted(stages):
        st = tracker.getStageInfo(sid)
        if st is not None and st.numCompletedTasks > 0:
            out.append(int(st.numTasks))
    return out
