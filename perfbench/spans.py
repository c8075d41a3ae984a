"""Forwarding timing proxies and the self-time arithmetic over their spans.

The traced run wraps each layer boundary in a proxy that forwards every
call unchanged and appends one span (name, start, duration, thread and
the trace ids active in the caller's context) to an in-memory list.
Nothing is written until the run ends, when :func:`write_trace` hands
the spans to :func:`repro.obs.write_chrome_trace`; the driver reads the
Chrome trace back and computes self times from it, so the numbers it
reports are exactly what the trace file shows.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from repro.obs import write_chrome_trace
from repro.obs.context import current_trace_ids
from repro.obs.tracing import SpanRecord


class SpanLog:
    """An append-only in-memory span list; proxies record only while enabled."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[tuple] = []

    def timed(self, name: str, call, *args, **kwargs):
        if not self.enabled:
            return call(*args, **kwargs)
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.spans.append(
                (
                    name,
                    started,
                    time.perf_counter() - started,
                    threading.get_ident(),
                    current_trace_ids(),
                )
            )


class Proxy:
    """Forward every attribute to ``inner``; time the ``timed`` methods.

    ``hasattr`` on the proxy answers exactly as on the wrapped object, so
    the server still sees a read-only service as read-only.  While the
    log is disabled the timed methods are handed out unwrapped, so the
    proxy costs one attribute lookup per call.
    """

    def __init__(self, inner, log: SpanLog, prefix: str, timed: tuple[str, ...]):
        self._inner = inner
        self._log = log
        self._prefix = prefix
        self._timed = frozenset(timed)

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if name not in self._timed or not self._log.enabled:
            return value
        label = f"{self._prefix}.{name}"
        return lambda *args, **kwargs: self._log.timed(label, value, *args, **kwargs)


def write_trace(path: Path, log: SpanLog, process_name: str) -> Path:
    """Write the logged spans as Chrome trace-event JSON."""
    records = [
        SpanRecord(
            name=name,
            depth=0,
            started=started,
            elapsed=elapsed,
            thread=thread,
            attributes={"traces": list(traces)} if traces else {},
        )
        for name, started, elapsed, thread, traces in log.spans
    ]
    return write_chrome_trace(path, records, process_name=process_name)


def read_trace(path: Path) -> list[dict]:
    """The complete (``ph`` = ``X``) events of a Chrome trace file."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def by_name(events: list[dict], name: str) -> list[dict]:
    return [e for e in events if e["name"] == name]


def child_time(parents: list[dict], children: list[dict]) -> list[tuple[dict, float, int]]:
    """For each parent, the time its same-thread children cover.

    Returns ``(parent, covered_us, n_children)``.  Children of one
    thread never overlap (each proxy call is synchronous), so covered
    time is the sum of the contained durations.
    """
    per_thread: dict[int, list[dict]] = {}
    for child in children:
        per_thread.setdefault(child["tid"], []).append(child)
    starts: dict[int, list[float]] = {}
    for tid, items in per_thread.items():
        items.sort(key=lambda e: e["ts"])
        starts[tid] = [e["ts"] for e in items]
    out = []
    for parent in parents:
        items = per_thread.get(parent["tid"], [])
        keys = starts.get(parent["tid"], [])
        lo = bisect_left(keys, parent["ts"])
        hi = bisect_right(keys, parent["ts"] + parent["dur"])
        inside = [
            e for e in items[lo:hi] if e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        ]
        out.append((parent, sum(e["dur"] for e in inside), len(inside)))
    return out


def service_time_by_trace(events: list[dict], names: tuple[str, ...]) -> dict[str, float]:
    """Trace id -> duration (µs) of the service call that answered it.

    A coalesced batch answers every member at once, so each member is
    attributed the whole call: that is the time it waited on the layer.
    """
    out: dict[str, float] = {}
    for event in events:
        if event["name"] in names:
            for trace in event.get("args", {}).get("traces", []):
                out[trace] = event["dur"]
    return out
