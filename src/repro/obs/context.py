"""Request/trace context: end-to-end attribution across the serve path.

A *trace id* names one client request.  :class:`~repro.serve.client.Client`
generates one per request (``c-...``), sends it as the optional ``trace``
field of the wire protocol, and the server restores it into a
:mod:`contextvars` context before executing the request.  From there,
:class:`ContextRecorder` — a transparent wrapper around any
:class:`~repro.obs.recorder.Recorder` — stamps the active trace id(s)
onto the ``attrs`` of **every** recorder event the request touches: the
core descent counters, the hot-region cache hits, the storage pager
reads, the serving spans.  A coalesced batch executes under *all* of its
member ids at once, so ``serve.batches`` and the core ``rji.*`` events
of its queries carry a ``traces`` list naming exactly which requests
the call covered.

Contextvars (not thread-locals) propagate the ids, so the discipline
survives whatever execution substrate the serving tier grows next
(thread pools today, async or a scatter-gather cluster tomorrow), and
nested scopes restore the outer trace on exit.

Determinism: :class:`TraceIdGenerator` is a seeded splitmix64 stream —
pass a ``seed`` under test and the ids are reproducible byte-for-byte;
without one the seed comes from ``os.urandom``.  The stdlib ``random``
module is deliberately not used (RJI003: hidden global state).

Zero-overhead-when-unobserved is preserved: ``ContextRecorder.enabled``
is false while the inner recorder is disabled and no capture is active,
so guarded hot loops (``if recorder.enabled:``) skip instrumentation
exactly as before.
"""

from __future__ import annotations

import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from types import TracebackType
from typing import ContextManager, Mapping

from .recorder import Recorder

__all__ = [
    "CapturedEvent",
    "ContextRecorder",
    "RequestCapture",
    "TraceIdGenerator",
    "current_trace_id",
    "current_trace_ids",
    "trace_scope",
]

_MASK64 = (1 << 64) - 1

#: The trace ids active in this context: empty outside any request,
#: one id for a direct request, several for a coalesced batch.
_TRACE_IDS: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_trace_ids", default=()
)

#: The per-request event capture, when one is active (serving tier only).
_CAPTURE: ContextVar["RequestCapture | None"] = ContextVar(
    "repro_trace_capture", default=None
)


def _splitmix64(x: int) -> int:
    """One splitmix64 step: a well-mixed 64-bit value from ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TraceIdGenerator:
    """A thread-safe, optionally seeded stream of unique trace ids.

    Ids look like ``c-0001-9bb91f2b581a6c3e``: prefix, sequence number,
    and a seed-mixed 64-bit token.  The same ``seed`` reproduces the
    same stream, which is what makes traced tests deterministic; the
    sequence number alone already guarantees uniqueness per generator.
    """

    __slots__ = ("prefix", "seed", "_lock", "_seq")

    def __init__(self, prefix: str = "t", *, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
        self.prefix = prefix
        self.seed = seed & _MASK64
        self._lock = threading.Lock()
        self._seq = 0

    def next(self) -> str:
        """The next trace id in the stream."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        token = _splitmix64(self.seed ^ seq)
        return f"{self.prefix}-{seq:04x}-{token:016x}"


def current_trace_ids() -> tuple[str, ...]:
    """The trace ids active in this context (empty outside a request)."""
    return _TRACE_IDS.get()


def current_trace_id() -> str | None:
    """The primary active trace id, or ``None`` outside a request."""
    ids = _TRACE_IDS.get()
    return ids[0] if ids else None


class trace_scope:
    """Context manager activating trace ids (and optionally a capture).

    ``None`` ids are skipped, so callers can pass ``request.trace``
    unconditionally.  Scopes nest: the previous ids/capture are restored
    on exit, even across exceptions.
    """

    __slots__ = ("_ids", "_capture", "_ids_token", "_capture_token")

    def __init__(
        self,
        *trace_ids: str | None,
        capture: "RequestCapture | None" = None,
    ):
        self._ids = tuple(t for t in trace_ids if t)
        self._capture = capture

    def __enter__(self) -> None:
        self._ids_token = _TRACE_IDS.set(self._ids)
        self._capture_token = _CAPTURE.set(self._capture)
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        _CAPTURE.reset(self._capture_token)
        _TRACE_IDS.reset(self._ids_token)
        return False


@dataclass(frozen=True, slots=True)
class CapturedEvent:
    """One recorder event captured inside a request scope."""

    verb: str
    name: str
    value: float | None
    attrs: Mapping[str, object] | None


class RequestCapture:
    """A bounded per-request sink of the recorder events a request made.

    The serving tier opens one per directly-executed request (one per
    coalesced group) so the flight recorder can read EXPLAIN-grade
    facts — descent depth, cache hit, pages touched — without the core
    knowing flight records exist.  Bounded at ``max_events`` with a
    ``dropped`` tally, mirroring the series-retention discipline of
    :class:`~repro.obs.metrics.MetricsRecorder`.
    """

    __slots__ = ("max_events", "events", "dropped", "_lock")

    def __init__(self, max_events: int = 128):
        self.max_events = max_events
        self.events: list[CapturedEvent] = []
        self.dropped = 0
        self._lock = threading.Lock()

    def add(
        self,
        verb: str,
        name: str,
        value: float | None,
        attrs: Mapping[str, object] | None,
    ) -> None:
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append(CapturedEvent(verb, name, value, attrs))
            else:
                self.dropped += 1

    def last_value(self, name: str) -> float | None:
        """The value of the most recent event named ``name``, if any."""
        with self._lock:
            for event in reversed(self.events):
                if event.name == name:
                    return event.value
        return None

    def total(self, name: str) -> float:
        """Sum of the values of every event named ``name``."""
        with self._lock:
            return sum(
                event.value
                for event in self.events
                if event.name == name and event.value is not None
            )

    def detail(self) -> dict:
        """The captured events as a JSON-ready flight-record detail."""
        with self._lock:
            return {
                "events": [
                    {
                        "verb": event.verb,
                        "name": event.name,
                        "value": event.value,
                        "attrs": dict(event.attrs) if event.attrs else None,
                    }
                    for event in self.events
                ],
                "dropped": self.dropped,
            }


def _with_trace(
    attrs: Mapping[str, object] | None, ids: tuple[str, ...]
) -> Mapping[str, object] | None:
    """``attrs`` with the active trace id(s) merged in."""
    if not ids:
        return attrs
    merged: dict[str, object] = dict(attrs) if attrs else {}
    if len(ids) == 1:
        merged["trace"] = ids[0]
    else:
        merged["traces"] = list(ids)
    return merged


class ContextRecorder(Recorder):
    """Wraps any recorder, stamping active trace ids onto every event.

    Transparent when no trace is active: events pass through with their
    attrs untouched.  Inside a :class:`trace_scope`, every ``count`` /
    ``observe`` / ``span`` gains a ``trace`` (or ``traces``) attribute
    and, when the scope carries a :class:`RequestCapture`, is mirrored
    into it — which is how the flight recorder sees per-request detail
    even when the inner recorder is the null one.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Recorder):
        self.inner = inner

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return self.inner.enabled or _CAPTURE.get() is not None

    def count(
        self,
        name: str,
        value: int = 1,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        attrs = _with_trace(attrs, _TRACE_IDS.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("count", name, value, attrs)
        self.inner.count(name, value, attrs)

    def observe(
        self,
        name: str,
        value: float,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        attrs = _with_trace(attrs, _TRACE_IDS.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("observe", name, value, attrs)
        self.inner.observe(name, value, attrs)

    def timer(self, name: str) -> ContextManager[None]:
        return self.inner.timer(name)

    def span(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> ContextManager[None]:
        attrs = _with_trace(attrs, _TRACE_IDS.get())
        capture = _CAPTURE.get()
        if capture is not None:
            capture.add("span", name, None, attrs)
        return self.inner.span(name, attrs)
