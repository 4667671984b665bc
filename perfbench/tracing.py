"""In-memory spans for the traced benchmark run.

A span records one call into a layer of the program, made from the
benchmark's own code: its name (``<layer>.<call>``), start and end times,
the span that caused it and the request it belongs to. Spans stay in memory
until the run ends. A disabled tracer records nothing, so the untraced run
pays only for entering a no-op context manager.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, request: int | None = None):
        """Context manager timing one call; `request` starts a new request's tree."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, request)

    @contextlib.contextmanager
    def _record(self, name: str, request: int | None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        span = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer over the spans that belong to a request.

        A span's self time is its duration minus its children's. The closed
        loop makes one call at a time, so children never overlap and their
        union is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.request is not None:
                own = span.duration - child_time[index]
                totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals
