"""Per-request tracing: spans, the slowest-N ring, and stage capture.

A :class:`Trace` follows one request id through the serving stack —
queue wait, batch assembly, shard dispatch, compiled-plan descent, WAL
append/fsync — as a flat ``stage -> seconds`` span map.  Completed
traces are offered to a :class:`TraceBuffer`, which keeps only the
slowest N by total latency; that buffer is what ``GET /trace`` serves.

Deep layers do not see the request: they call :func:`record_stage`,
which always feeds the process-global stage histogram
(``stage.<name>_s`` in :data:`repro.obs.runtime.RUNTIME`) and, when the
executing thread has a :func:`collect_stages` context installed (a
serving worker wraps every batch dispatch in one), also accumulates into
that context so the worker can attribute the batch's deep spans to the
batch's trace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from repro.obs.runtime import RUNTIME

__all__ = [
    "Trace",
    "TraceBuffer",
    "collect_stages",
    "record_stage",
]

_ACTIVE = threading.local()


def record_stage(stage: str, seconds: float) -> None:
    """Record one deep-layer span duration.

    Always observes the runtime histogram ``stage.<stage>_s``; also
    adds into the innermost :func:`collect_stages` context on this
    thread, if any.
    """
    seconds = float(seconds)
    RUNTIME.observe(f"stage.{stage}_s", seconds)
    sink = getattr(_ACTIVE, "sink", None)
    if sink is not None:
        sink[stage] = sink.get(stage, 0.0) + seconds


@contextmanager
def collect_stages():
    """Capture :func:`record_stage` calls on this thread into a dict.

    Yields the ``stage -> seconds`` dict being filled; nesting restores
    the previous sink on exit.
    """
    sink: dict[str, float] = {}
    previous = getattr(_ACTIVE, "sink", None)
    _ACTIVE.sink = sink
    try:
        yield sink
    finally:
        _ACTIVE.sink = previous


class Trace:
    """Span record for one request (id, op, per-stage durations)."""

    __slots__ = ("request_id", "op", "name", "started_at", "spans",
                 "total_s")

    def __init__(self, request_id, op: str, name: str | None = None):
        self.request_id = request_id
        self.op = op
        self.name = name
        self.started_at = perf_counter()
        self.spans: dict[str, float] = {}
        self.total_s: float | None = None

    def add_span(self, stage: str, seconds: float) -> None:
        """Accumulate one span duration under ``stage``."""
        self.spans[stage] = self.spans.get(stage, 0.0) + float(seconds)

    def finish(self, total_s: float | None = None) -> "Trace":
        """Stamp the end-to-end latency (wall clock since construction)."""
        self.total_s = (
            perf_counter() - self.started_at if total_s is None
            else float(total_s)
        )
        return self

    def to_dict(self) -> dict:
        """JSON-able form (what ``/trace`` serves)."""
        total = self.total_s
        if total is None:
            total = perf_counter() - self.started_at
        return {
            "id": self.request_id,
            "op": self.op,
            "name": self.name,
            "total_s": round(total, 6),
            "spans": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(self.spans.items())
            },
        }


class TraceBuffer:
    """Thread-safe ring of the slowest-N completed traces."""

    def __init__(self, capacity: int = 32):
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._traces: list[dict] = []

    def offer(self, trace) -> None:
        """Add a finished trace (or its dict) if it ranks in the slowest N."""
        data = trace.to_dict() if isinstance(trace, Trace) else dict(trace)
        total = data.get("total_s") or 0.0
        with self._lock:
            if len(self._traces) >= self.capacity and \
                    total <= self._traces[-1].get("total_s", 0.0):
                return
            self._traces.append(data)
            self._traces.sort(
                key=lambda t: t.get("total_s") or 0.0, reverse=True)
            del self._traces[self.capacity:]

    def snapshot(self) -> list[dict]:
        """The retained traces, slowest first."""
        with self._lock:
            return [dict(t) for t in self._traces]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
