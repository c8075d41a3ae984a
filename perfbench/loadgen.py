"""A single-threaded load generator for the ``repro.serve`` wire protocol.

One process, one thread, one selector and at most two connections (the
host has two CPUs).  Requests are pipelined on each connection and
matched to responses by the protocol's ``id`` field; the server reads
ahead per connection, so several requests can be in flight on one
socket.

* :func:`open_loop` sends each request at its scheduled due time,
  whether or not earlier ones were answered, and records when it was
  actually sent, so latency can be taken from the due time (a stall
  delays every request behind it) and the generator's own lateness is
  known.
* :func:`closed_loop` keeps a fixed number of requests outstanding per
  connection and reports what completed: the saturated capacity.

A ``select()``-based selector is used on purpose: its timeout has
microsecond resolution, where ``epoll`` rounds up to whole milliseconds
and would make the generator up to 1 ms late on every request.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

_HEADER = 4
#: How long a phase waits for answers after its last request went out.
_DRAIN_TIMEOUT_S = 30.0


def frame(payload: dict) -> bytes:
    """One length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(_HEADER, "big") + body


def connect(address: tuple[str, int], n: int) -> list[socket.socket]:
    socks = []
    for _ in range(n):
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        socks.append(sock)
    return socks


class _Channel:
    """One connection's receive buffer, split into frame bodies."""

    def __init__(self, index: int, sock: socket.socket):
        self.index = index
        self.sock = sock
        self.buffer = bytearray()

    def drain(self) -> list[bytes]:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-phase")
        self.buffer += chunk
        bodies = []
        buffer = self.buffer
        while len(buffer) >= _HEADER:
            length = int.from_bytes(buffer[:_HEADER], "big")
            end = _HEADER + length
            if len(buffer) < end:
                break
            bodies.append(bytes(buffer[_HEADER:end]))
            del buffer[:end]
        return bodies


@dataclass
class PhaseResult:
    """What one phase sent and got back, on the ``perf_counter`` clock."""

    origin: float
    ended: float
    #: Per request index: when it was sent (``nan`` if never sent).
    sent: list[float]
    #: Request id -> (receive time, decoded response object).
    replies: dict[int, tuple[float, dict]] = field(default_factory=dict)

    @classmethod
    def collect(cls, origin, ended, sent, arrivals) -> "PhaseResult":
        result = cls(origin, ended, sent)
        for received, body in arrivals:
            response = json.loads(body)
            result.replies[int(response["id"])] = (received, response)
        return result


def _selector(socks) -> selectors.BaseSelector:
    selector = selectors.SelectSelector()
    for i, sock in enumerate(socks):
        selector.register(sock, selectors.EVENT_READ, _Channel(i, sock))
    return selector


def open_loop(
    socks: list[socket.socket],
    frames: list[bytes],
    due: list[float],
    conn_of: list[int],
) -> PhaseResult:
    """Send ``frames[i]`` on ``socks[conn_of[i]]`` at ``origin + due[i]``.

    ``due`` is ascending, in seconds from the phase origin.  Request
    ``i`` must carry ``id`` = ``i``.  Returns once every request is
    answered, or ``_DRAIN_TIMEOUT_S`` after the last one was sent.
    """
    clock = time.perf_counter
    selector = _selector(socks)
    n = len(frames)
    sent = [math.nan] * n
    arrivals: list[tuple[float, bytes]] = []
    origin = clock() + 0.005
    give_up = math.inf
    i = 0
    try:
        while len(arrivals) < n:
            now = clock()
            if i < n and origin + due[i] <= now:
                batches: dict[int, list[bytes]] = {}
                while i < n and origin + due[i] <= now:
                    batches.setdefault(conn_of[i], []).append(frames[i])
                    sent[i] = now
                    i += 1
                for conn, items in batches.items():
                    socks[conn].sendall(b"".join(items))
                if i == n:
                    give_up = clock() + _DRAIN_TIMEOUT_S
            if i < n:
                timeout = max(0.0, origin + due[i] - clock())
            else:
                timeout = give_up - clock()
                if timeout <= 0:
                    break
            for key, _ in selector.select(timeout):
                received = clock()
                for body in key.data.drain():
                    arrivals.append((received, body))
    finally:
        selector.close()
    return PhaseResult.collect(origin, clock(), sent, arrivals)


def closed_loop(
    socks: list[socket.socket],
    make_frame: Callable[[int], bytes],
    *,
    depth: int,
    duration_s: float,
) -> PhaseResult:
    """Keep ``depth`` requests outstanding per connection for ``duration_s``.

    ``make_frame(i)`` builds request ``i`` (with ``id`` = ``i``).  No
    request is sent after the window closes; the ones still in flight
    are drained so every sent request is accounted for.
    """
    clock = time.perf_counter
    selector = _selector(socks)
    sent: list[float] = []
    arrivals: list[tuple[float, bytes]] = []
    outstanding = [0] * len(socks)

    def issue(conn: int, count: int) -> None:
        items = []
        for _ in range(count):
            items.append(make_frame(len(sent)))
            sent.append(clock())
        socks[conn].sendall(b"".join(items))
        outstanding[conn] += count

    origin = clock()
    end = origin + duration_s
    try:
        for conn in range(len(socks)):
            issue(conn, depth)
        give_up = end + _DRAIN_TIMEOUT_S
        while sum(outstanding):
            timeout = give_up - clock()
            if timeout <= 0:
                break
            for key, _ in selector.select(timeout):
                received = clock()
                bodies = key.data.drain()
                arrivals.extend((received, body) for body in bodies)
                outstanding[key.data.index] -= len(bodies)
                if bodies and received < end:
                    issue(key.data.index, len(bodies))
    finally:
        selector.close()
    return PhaseResult.collect(origin, end, sent, arrivals)
