"""Self-tests of the benchmark: its checks must catch what they claim to.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math

import pytest

import inputs
import loadgen
from bench import Tally, check_replies, query_frames, schedule
from spans import Proxy, SpanLog, child_time, read_trace, service_time_by_trace, write_trace

from repro.core.index import RankedJoinIndex
from repro.datagen.synthetic import uniform_pairs
from repro.obs.context import trace_scope
from repro.serve import QueryServer
from repro.serve.protocol import encode_results


@pytest.fixture(scope="module")
def index():
    return RankedJoinIndex.build(uniform_pairs(400, seed=3), 10)


@pytest.fixture()
def server(index):
    with QueryServer(index) as srv:
        yield srv


def served(server, angles, k=5):
    socks = loadgen.connect(server.address, 2)
    try:
        return loadgen.open_loop(socks, query_frames(angles, k, "x"), *schedule(len(angles), 2000.0))
    finally:
        for sock in socks:
            sock.close()


def test_served_answers_match_a_true_reference(server, index):
    angles = [0.1 + 0.013 * i for i in range(60)]
    result = served(server, angles)
    tally = Tally()
    check_replies(result, lambda i: encode_results(index.query(angles[i], 5)), tally, "read")
    assert (tally.attempted, tally.failed) == (60, 0)


def test_a_corrupted_reference_is_caught(server, index):
    angles = [0.1 + 0.013 * i for i in range(60)]
    result = served(server, angles)

    def corrupted(i):
        want = encode_results(index.query(angles[i], 5))
        if i == 17:
            want[2][1] = math.nextafter(want[2][1], math.inf)  # one score, one ulp off
        return want

    tally = Tally()
    check_replies(result, corrupted, tally, "read")
    assert (tally.attempted, tally.failed) == (60, 1)
    assert "read 17: wrong answer" in tally.notes


def test_missing_and_typed_error_replies_count_as_failed(server):
    # k above the index's bound K=10 comes back as a typed error.
    socks = loadgen.connect(server.address, 1)
    try:
        result = loadgen.open_loop(socks, query_frames([0.3, 0.4], 99, "e"), [0.0, 0.001], [0, 0])
    finally:
        socks[0].close()
    result.replies.pop(1)
    tally = Tally()
    check_replies(result, lambda i: None, tally, "read")
    assert tally.failed == 2
    assert "InvalidQueryError" in tally.notes[0] and "no response" in tally.notes[1]


def test_closed_loop_keeps_every_request_accounted(server):
    socks = loadgen.connect(server.address, 2)
    try:
        result = loadgen.closed_loop(
            socks,
            lambda i: loadgen.frame({"op": "query", "id": i, "preference": 0.5, "k": 3}),
            depth=4,
            duration_s=0.2,
        )
    finally:
        for sock in socks:
            sock.close()
    assert len(result.sent) >= 8
    assert sorted(result.replies) == list(range(len(result.sent)))


def test_write_stream_deletes_only_live_tids():
    writes, pool = inputs.write_stream(5, 501)
    live = {int(t.tid) for t in inputs.mixed_tuples(5)}
    fresh = max(live) + 1
    for op in writes:
        if op[0] == "insert":
            assert op[1] == fresh and op[1] not in live
            live.add(op[1])
            fresh += 1
        else:
            assert op[1] in live
            live.remove(op[1])
    assert live == set(pool)
    assert writes == inputs.write_stream(5, 501)[0]


def test_read_angles_are_seeded_and_distinct_never_repeats():
    a = inputs.read_angles("distinct", 4, 0, 5000)
    assert a == inputs.read_angles("distinct", 4, 0, 5000)
    assert len(set(a)) == len(a)
    assert a != inputs.read_angles("distinct", 4, 1, 5000)
    repeated = inputs.read_angles("repeated", 4, 0, 5000)
    assert set(repeated) <= set(inputs.probe_angles(4))


def test_proxy_forwards_and_keeps_read_only_services_read_only(index):
    log = SpanLog()
    proxy = Proxy(index, log, "service", ("query", "insert"))
    assert not hasattr(proxy, "insert")
    assert proxy.k_bound == index.k_bound
    with trace_scope("a", "b"):
        assert proxy.query(0.4, 3) == index.query(0.4, 3)
    assert [(span[0], span[4]) for span in log.spans] == [("service.query", ("a", "b"))]
    log.enabled = False
    proxy.query(0.4, 3)
    assert len(log.spans) == 1


def test_self_time_arithmetic_from_a_written_trace(tmp_path, index):
    log = SpanLog()
    disk = Proxy(index, log, "disk", ("query",))

    def batch(angles):
        return [disk.query(a, 3) for a in angles]

    with trace_scope("r1", "r2"):
        log.timed("service.query_batch", batch, [0.2, 0.7])
    events = read_trace(write_trace(tmp_path / "t.json", log, "test"))
    service = service_time_by_trace(events, ("service.query_batch",))
    assert set(service) == {"r1", "r2"} and service["r1"] == service["r2"]
    parents = [e for e in events if e["name"] == "service.query_batch"]
    children = [e for e in events if e["name"] == "disk.query"]
    [(parent, covered, n)] = child_time(parents, children)
    assert n == 2
    assert covered == pytest.approx(sum(e["dur"] for e in children))
    assert 0 < covered <= parent["dur"]
