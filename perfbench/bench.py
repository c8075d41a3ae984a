"""The repository benchmark: served reads, served durable writes, in-process build/query.

Every run measures the three ways the index is used, one phase each:

* **serve-read** — the shipped read deployment (the stack
  ``repro.cli serve --mmap`` builds) in a server child: an open-loop
  phase at a fixed offered rate for latency, then a saturated
  closed-loop phase for capacity;
* **serve-mixed** — a ``DurableRankedJoinIndex`` server child taking
  open-loop reads beside a live-set-aware insert/delete stream (WAL with
  fsync, synchronous compaction);
* **inproc** — repeated ``RankedJoinIndex.build``, then single ``query``
  against ``query_batch`` calls, in this process;

and ``DurableRankedJoinIndex.recover`` of copies of the mixed directory.
The phases run interleaved, in rounds, and every bounded timing is
rescaled to a reference host speed (``README.md``, "Host speed").  The
workload (``distinct`` or ``repeated``) picks the read angles and
whether the read deployments get a hot-region cache.

Every answer is checked: served reads against an in-process reference
index, the mixed deployment by probing it after the load and again after
``recover`` against a rebuild from the generator's shadow pool,
``query_batch`` against single ``query`` calls.  Any failed or wrong
answer makes the run exit 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs forwarding timing proxies at the layer
boundaries, writes Chrome traces to ``perfbench/traces/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Percentiles are
linear-interpolated (``numpy.percentile``'s default) over every sample
of a round.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import loadgen
from spans import Proxy, SpanLog, by_name, child_time, read_trace, service_time_by_trace, write_trace

from repro.bench.mixed import _mismatches
from repro.core.index import RankedJoinIndex
from repro.errors import ServerConnectionError
from repro.serve import Client
from repro.serve.protocol import encode_results
from repro.storage import DiskRankedJoinIndex
from repro.storage.durable import DurableRankedJoinIndex

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"
WORK = HERE / ".work"
TRACES = HERE / "traces"

#: Offered rates of the open-loop phases; the read deployment's
#: saturated capacity on a 2-CPU host is 2.5-4x this.
READ_RATE = 500.0
MIXED_RATE = 500.0
N_CONNS = 2
SATURATION_DEPTH = 16
SETUP_ROUNDS = 3
ROUNDS = 5
RECOVERS_PER_ROUND = 4
BATCH = 64
WARMUP_S = 1.0
#: A run whose generator sent its 99th-percentile request later than
#: this after the due time is rejected: it fell fifty request intervals
#: behind its schedule, so it no longer offered the stated rate.  Bursts
#: of host load put the p99 at 20-40 ms in about one run in ten on a
#: shared 2-CPU VM; on a quiet host it is about 0.2 ms.
LATENESS_P99_LIMIT_MS = 100.0
#: Shares of ``--seconds`` given to each measured phase.
SHARES = {"read_open": 0.25, "read_saturated": 0.20, "mixed": 0.35, "inproc": 0.20}
#: The host-speed reference: a loop of this many iterations, and the time
#: it takes on a 2-CPU cloud VM in its usual (slower) state.  Timings are
#: reported as they would read at that speed.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 0.008
#: Metrics that are rates (higher on a faster host), not times.
RATES = frozenset({"read_capacity_qps"})
#: The service calls that answer reads (coalesced singles use the batch).
READ_CALLS = ("service.query", "service.query_batch")


def reference_loop_s() -> float:
    """How long a fixed pure-Python loop takes right now: the host's speed.

    Median of three timings.  Every timing the benchmark bounds is
    rescaled by ``REF_NOMINAL_S`` / this, taken around the slice that
    produced it.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class RunRejected(RuntimeError):
    """The run cannot produce trustworthy numbers (not a wrong answer)."""


def pct(values, q: float) -> float:
    if not len(values):
        raise RunRejected("a percentile was asked of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Tally:
    """Operations attempted and failed (typed errors, shed, missing, wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(reason)


class Child:
    """One launcher process; see ``launcher.py`` for its line protocol."""

    def __init__(self, mode: str, path: Path, seed: int, cache_size: int, trace_out):
        command = [
            sys.executable, str(LAUNCHER), "--mode", mode, "--path", str(path),
            "--seed", str(seed), "--cache-size", str(cache_size),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.mode = mode
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RunRejected(f"{mode} server exited before listening")
        self.port = int(json.loads(line)["port"])
        self.stopped = False

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        """Ask the child to shut down; it runs on until :meth:`finish`."""
        if not self.stopped:
            self.command("stop")
            self.stopped = True

    def finish(self) -> dict:
        """Wait for the child to exit; its report."""
        self.stop()
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RunRejected(f"{self.mode} server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def check_replies(result, expected, tally: Tally, what: str) -> None:
    """Count a failure for every missing, typed-error or wrong answer.

    ``expected(i)`` is the exact wire results request ``i`` must get,
    or ``None`` when only success is checked.
    """
    for i, sent in enumerate(result.sent):
        if math.isnan(sent):
            continue
        tally.attempted += 1
        reply = result.replies.get(i)
        if reply is None:
            tally.fail(f"{what} {i}: no response")
            continue
        response = reply[1]
        if not response.get("ok"):
            tally.fail(f"{what} {i}: {response.get('error')}")
            continue
        want = expected(i)
        if want is not None and response.get("results") != want:
            tally.fail(f"{what} {i}: wrong answer")


def query_frames(angles, k: int, tag: str) -> list[bytes]:
    return [
        loadgen.frame({"op": "query", "id": i, "preference": a, "k": k, "trace": f"{tag}{i}"})
        for i, a in enumerate(angles)
    ]


def schedule(n: int, rate: float) -> tuple[list[float], list[int]]:
    """Evenly spaced due times, alternating over the connections."""
    return [i / rate for i in range(n)], [i % N_CONNS for i in range(n)]


class Run:
    """One benchmark run; :meth:`execute` fills ``end_to_end`` and ``per_layer``."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.seconds = {name: share * seconds for name, share in SHARES.items()}
        self.cache = inputs.cache_size(workload)
        self.tally = Tally()
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.lines: list[str] = []
        self.late_ms: list[float] = []
        self.log = SpanLog()
        self.log.enabled = traced
        self.children: list[Child] = []
        self.work = WORK / f"{workload}-{seed}-{time.time_ns()}"
        self.traces = {m: TRACES / f"{workload}-{m}.json" for m in ("read", "mixed", "bench")}
        self.probes = inputs.probe_angles(seed)

    # -- plumbing ----------------------------------------------------------

    def launch(self, mode: str, path: Path, cache_size: int, traced: bool) -> tuple[Child, float]:
        """Start a deployment; seconds from launch to the first ``health`` answer."""
        started = time.perf_counter()
        child = Child(mode, path, self.seed, cache_size, self.traces[mode] if traced else None)
        self.children.append(child)
        with Client("127.0.0.1", child.port) as client:
            client.health()
        return child, time.perf_counter() - started

    def finish(self, child: Child) -> dict:
        report = child.finish()
        self.children.remove(child)
        return report

    def open_loop(self, port: int, frames, due, conn_of, what: str, *, measured: bool = True):
        socks = loadgen.connect(("127.0.0.1", port), N_CONNS)
        gc.disable()
        try:
            result = loadgen.open_loop(socks, frames, due, conn_of)
        finally:
            gc.enable()
            for sock in socks:
                sock.close()
        late = [(sent - result.origin - d) * 1e3 for sent, d in zip(result.sent, due)]
        if measured:
            self.late_ms += late
        self.lines.append(
            f"{what}: offered {len(due) / due[-1]:.0f}/s, achieved "
            f"{len(result.replies) / (result.ended - result.origin):.1f}/s, n={len(due)}, "
            f"lateness p50/p99/max {pct(late, 50):.3f}/{pct(late, 99):.3f}/{max(late):.3f} ms"
        )
        return result

    def timed_build(self):
        started = time.perf_counter()
        index = self.log.timed(
            "core.build", RankedJoinIndex.build, self.read_set, inputs.READ_K, cache_size=self.cache
        )
        self.builds.append(time.perf_counter() - started)
        self.build_stats.append(index.stats)
        return index

    def expected_read(self, angle: float) -> list:
        if angle not in self.expected:
            self.expected[angle] = encode_results(self.reference.query(angle, inputs.READ_QK))
        return self.expected[angle]

    # -- phases ------------------------------------------------------------

    def execute(self) -> None:
        self.work.mkdir(parents=True)
        try:
            self.prepare()
            self.setup()
            # The phases are interleaved in rounds, so every metric
            # samples the whole run instead of one stretch of it, and each
            # slice is bracketed by the reference loop that tells how fast
            # the host ran meanwhile.
            for r in range(ROUNDS):
                for phase in (
                    self.read_open, self.read_saturated, self.mixed, self.recover_copy, self.inproc
                ):
                    before = reference_loop_s()
                    measured = phase(r)
                    ref_s = (before + reference_loop_s()) / 2
                    self.ref_s.append(ref_s)
                    for name, value in measured.items():
                        speed = REF_NOMINAL_S / ref_s
                        self.raw[name].append(value)
                        self.per_round[name].append(
                            value / speed if name in RATES else value * speed
                        )
            self.shut_down()
            self.summarize()
        except (OSError, ServerConnectionError) as exc:
            states = ", ".join(
                f"{child.mode} server "
                + ("running" if child.proc.poll() is None else f"exited with {child.proc.returncode}")
                for child in self.children
            )
            raise RunRejected(f"lost a connection ({exc}); {states}") from exc
        finally:
            gc.enable()
            for child in self.children:
                child.kill()
            shutil.rmtree(self.work, ignore_errors=True)

    def prepare(self) -> None:
        """Inputs, the offline image (what ``repro.cli index-build`` writes), the write stream."""
        self.read_set = inputs.read_tuples(self.seed)
        self.reference = RankedJoinIndex.build(self.read_set, inputs.READ_K)
        self.image = self.work / "read.rji"
        DiskRankedJoinIndex(self.reference).save(self.image)
        self.expected: dict[float, list] = {}
        self.builds: list[float] = []
        self.build_stats = []
        self.read_latency_ms: dict[str, list[float]] = {"u": [], "t": []}
        self.read_client_us: dict[str, float] = {}
        self.saturated = [0, 0.0]  # answered, seconds
        self.mixed_latency_ms: dict[str, list[float]] = {"read": [], "insert": [], "delete": []}
        self.mixed_client_us: dict[str, float] = {}
        self.mixed_wall = 0.0
        self.per_round: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.ref_s: list[float] = []
        self.direct_s: list[float] = []
        self.proxied_s: list[float] = []
        self.batch_s: list[float] = []

        n = ROUNDS * int(MIXED_RATE * self.seconds["mixed"] / ROUNDS)
        is_write = [j % (inputs.READS_PER_WRITE + 1) == inputs.READS_PER_WRITE for j in range(n)]
        writes, self.pool = inputs.write_stream(self.seed, sum(is_write))
        angles = inputs.read_angles(self.workload, self.seed, 3, n)
        pending = iter(writes)
        self.mixed_ops: list[tuple[str, dict]] = []
        for j in range(n):
            if is_write[j]:
                op = next(pending)
                body = (
                    {"op": "insert", "tuple": list(op[1:])}
                    if op[0] == "insert"
                    else {"op": "delete", "tid": op[1]}
                )
                self.mixed_ops.append((op[0], body))
            else:
                self.mixed_ops.append(
                    ("read", {"op": "query", "preference": angles[j], "k": inputs.MIX_QK})
                )

    def setup(self) -> None:
        """Launch -> first operation can be issued, for each deployment, several times.

        A round brings up the read server, the mixed server and one
        in-process build; ``setup_s`` is the median round total.  Only
        the last round's servers carry load, and only they are traced.
        """
        totals = []
        spare = []
        for r in range(SETUP_ROUNDS):
            last = r == SETUP_ROUNDS - 1
            read_child, read_s = self.launch("read", self.image, self.cache, self.traced and last)
            mixed_child, mixed_s = self.launch(
                "mixed", self.work / f"durable{r}", 0, self.traced and last
            )
            self.timed_build()
            totals.append(read_s + mixed_s + self.builds[-1])
            if not last:
                read_child.stop()
                mixed_child.stop()
                spare += [read_child, mixed_child]
        self.read_child, self.mixed_child = read_child, mixed_child
        self.mixed_dir = self.work / f"durable{SETUP_ROUNDS - 1}"
        self.end_to_end["setup_s"] = statistics.median(totals)
        self.lines.append(f"setup rounds: {', '.join(f'{t:.3f}' for t in totals)} s")
        # Warm both servers (lazy page verification, first-touch code
        # paths) while the spare servers shut down, so no process exit
        # lands in a measured phase.  The mixed warm-up only reads:
        # writes would shift the WAL and compaction counts.
        for child, stream, k, rate, check in (
            (read_child, 9, inputs.READ_QK, READ_RATE, self.expected_read),
            (mixed_child, 8, inputs.MIX_QK, MIXED_RATE, lambda angle: None),
        ):
            angles = inputs.read_angles(self.workload, self.seed, stream, int(rate * WARMUP_S))
            result = self.open_loop(
                child.port, query_frames(angles, k, "w"), *schedule(len(angles), rate),
                f"{child.mode} warm-up", measured=False,
            )
            check_replies(result, lambda i: check(angles[i]), self.tally, "warm-up read")
        for child in spare:
            self.finish(child)

    def read_open(self, r: int) -> dict[str, float]:
        """One slice of the open-loop read phase.

        Traced runs alternate untraced and traced slices; end-to-end
        latencies come from the untraced ones only.
        """
        tag = "t" if self.traced and r % 2 else "u"
        self.read_child.command("trace on" if tag == "t" else "trace off")
        n = int(READ_RATE * self.seconds["read_open"] / ROUNDS)
        angles = inputs.read_angles(self.workload, self.seed, 10 + r, n)
        due, conn_of = schedule(n, READ_RATE)
        result = self.open_loop(
            self.read_child.port, query_frames(angles, inputs.READ_QK, f"{tag}{r}-"), due,
            conn_of, f"read open loop {r} [{tag}]",
        )
        self.read_child.command("trace off")
        check_replies(result, lambda i: self.expected_read(angles[i]), self.tally, "read")
        latency = []
        for i, (t, response) in result.replies.items():
            if response.get("ok"):
                latency.append((t - result.origin - due[i]) * 1e3)
                if tag == "t":
                    self.read_client_us[f"t{r}-{i}"] = (t - result.sent[i]) * 1e6
        self.read_latency_ms[tag] += latency
        return {"read_p50_ms": pct(latency, 50)} if tag == "u" else {}

    def read_saturated(self, r: int) -> dict[str, float]:
        duration = self.seconds["read_saturated"] / ROUNDS
        angles = inputs.read_angles(self.workload, self.seed, 20 + r, int(8000 * duration) + 1)

        def make_frame(i: int) -> bytes:
            return loadgen.frame(
                {"op": "query", "id": i, "preference": angles[i % len(angles)],
                 "k": inputs.READ_QK, "trace": f"s{r}-{i}"}
            )

        socks = loadgen.connect(("127.0.0.1", self.read_child.port), N_CONNS)
        gc.disable()
        try:
            result = loadgen.closed_loop(
                socks, make_frame, depth=SATURATION_DEPTH, duration_s=duration
            )
        finally:
            gc.enable()
            for sock in socks:
                sock.close()
        check_replies(
            result, lambda i: self.expected_read(angles[i % len(angles)]), self.tally,
            "saturated read",
        )
        done = sum(
            1 for t, response in result.replies.values() if t <= result.ended and response.get("ok")
        )
        self.saturated[0] += done
        self.saturated[1] += result.ended - result.origin
        return {"read_capacity_qps": done / (result.ended - result.origin)}

    def mixed(self, r: int) -> dict[str, float]:
        """One slice of the mixed phase: the next stretch of the op stream."""
        per = len(self.mixed_ops) // ROUNDS
        ops = self.mixed_ops[r * per:(r + 1) * per]
        frames = [
            loadgen.frame({**body, "id": i, "trace": f"m{r}-{i}"})
            for i, (_, body) in enumerate(ops)
        ]
        due = [i / MIXED_RATE for i in range(len(ops))]
        # Every write on one connection, so they apply in generation
        # order and the WAL, delta and compaction counts repeat exactly.
        conn_of = [1 if kind == "read" else 0 for kind, _ in ops]
        self.mixed_child.command("trace on" if self.traced else "trace off")
        result = self.open_loop(
            self.mixed_child.port, frames, due, conn_of, f"mixed open loop {r}"
        )
        self.mixed_wall += result.ended - result.origin
        check_replies(result, lambda i: None, self.tally, "mixed op")
        latency = {"read": [], "insert": [], "delete": []}
        for i, (t, response) in result.replies.items():
            if response.get("ok"):
                kind = ops[i][0]
                latency[kind].append((t - result.origin - due[i]) * 1e3)
                if kind == "read":
                    self.mixed_client_us[f"m{r}-{i}"] = (t - result.sent[i]) * 1e6
        for kind, values in latency.items():
            self.mixed_latency_ms[kind] += values
        return {
            "mixed_read_p50_ms": pct(latency["read"], 50),
            "write_p50_ms": pct(latency["insert"] + latency["delete"], 50),
        }

    def recover_copy(self, r: int) -> dict[str, float]:
        """Time ``recover`` of a copy of the mixed directory, taken between slices.

        Every write of the slice has been acknowledged, so the copy holds
        exactly what a crash at this point would leave behind.
        """
        copy = self.work / f"copy{r}"
        shutil.copytree(self.mixed_dir, copy)
        times = []
        for _ in range(RECOVERS_PER_ROUND):
            started = time.perf_counter()
            self.log.timed("durable.recover", DurableRankedJoinIndex.recover, copy).close()
            times.append(time.perf_counter() - started)
        return {"recover_s": statistics.median(times)}

    def inproc(self, r: int) -> dict[str, float]:
        """One slice of the in-process phase: builds, then query chunks."""
        end = time.perf_counter() + self.seconds["inproc"] / ROUNDS
        builds_end = time.perf_counter() + 0.4 * self.seconds["inproc"] / ROUNDS
        first_build = len(self.builds)
        index = self.timed_build()
        while time.perf_counter() < builds_end:
            index = self.timed_build()
        angles = inputs.read_angles(self.workload, self.seed, 30 + r, 100_000)
        proxy = Proxy(index, self.log, "core", ("query", "query_batch"))
        direct: list[float] = []
        batch: list[float] = []
        for n_chunk, at in enumerate(range(0, len(angles), BATCH)):
            if n_chunk > 1 and time.perf_counter() >= end:
                break
            chunk = angles[at:at + BATCH]
            # Traced runs alternate direct and proxied chunks; the
            # difference is the tracing overhead on one query.
            via = self.traced and n_chunk % 2 == 1
            target = proxy if via else index
            answers = []
            for angle in chunk:
                started = time.perf_counter()
                answers.append(target.query(angle, inputs.READ_QK))
                (self.proxied_s if via else direct).append(time.perf_counter() - started)
            started = time.perf_counter()
            batched = target.query_batch(chunk, inputs.READ_QK)
            batch.append((time.perf_counter() - started) / len(chunk))
            self.tally.attempted += 2 * len(chunk)
            for got, want in zip(batched, answers):
                if got != want:
                    self.tally.fail("query_batch answer differs from query")
        self.direct_s += direct
        self.batch_s += batch
        return {
            "build_s": statistics.fmean(self.builds[first_build:]),
            "query_p50_us": pct(direct, 50) * 1e6,
            "query_p99_us": pct(direct, 99) * 1e6,
            "batch_query_us": statistics.fmean(batch) * 1e6,
        }

    def shut_down(self) -> None:
        """Probe the mixed server, close both servers, recover the real directory.

        After the load, served answers and the recovered index's answers
        must equal a scalar rebuild of the generator's shadow pool.
        """
        with Client("127.0.0.1", self.mixed_child.port) as client:
            self.check_probes(client, "mixed")
        with Client("127.0.0.1", self.read_child.port) as client:
            self.read_stats = client.stats()["lifetime"]
        # Shutdown is outside every end-to-end metric; both servers close
        # at once so their shutdown waits overlap.
        self.read_child.stop()
        self.mixed_child.stop()
        self.read_report = self.finish(self.read_child)
        self.mixed_report = self.finish(self.mixed_child)

        recovered = self.log.timed(
            "durable.recover", DurableRankedJoinIndex.recover, self.mixed_dir
        )
        self.replayed = recovered.last_recovery.replayed
        self.tally.attempted += 1
        if {t.tid for t in recovered.live_tuples()} != set(self.pool):
            self.tally.fail("recovered live set differs from the shadow pool")
        self.check_probes(recovered, "recovered")
        recovered.close()

    def check_probes(self, index, what: str) -> None:
        """``repro.bench --mixed``'s check: probe answers vs a rebuild of the shadow pool."""
        wrong = _mismatches(index, self.pool, self.probes, inputs.MIX_QK, inputs.MIX_K)
        self.tally.attempted += len(self.probes)
        for _ in range(wrong):
            self.tally.fail(f"{what} probe: wrong answer")

    def summarize(self) -> None:
        e2e = self.end_to_end
        # Each metric is taken per round, at the reference host speed;
        # the median over rounds drops a round that a burst of host load
        # hit (see README.md, "Host speed").
        for name, values in self.per_round.items():
            e2e[name] = statistics.median(values)
        self.lines.append(
            f"host speed: reference loop {statistics.fmean(self.ref_s) * 1e3:.2f} ms on average "
            f"(nominal {REF_NOMINAL_S * 1e3:.1f} ms); unadjusted: "
            + ", ".join(f"{name} {statistics.median(v):.6g}" for name, v in self.raw.items())
        )
        latency = self.mixed_latency_ms
        writes = latency["insert"] + latency["delete"]
        self.n_writes = len(writes)
        e2e["peak_rss_mb"] = self.read_report["peak_rss_mb"]
        e2e["mixed_peak_rss_mb"] = self.mixed_report["peak_rss_mb"]
        self.lines.append(
            f"samples: {len(self.read_latency_ms['u'])} open-loop reads, "
            f"{self.saturated[0]} saturated reads in {self.saturated[1]:.2f} s, "
            f"{len(latency['read'])} mixed reads, {self.n_writes} writes, "
            f"{ROUNDS * RECOVERS_PER_ROUND} recovers, {len(self.builds)} builds, "
            f"{len(self.direct_s)} single queries, {len(self.batch_s)} batches of {BATCH}"
        )

        late_p99 = pct(self.late_ms, 99)
        self.lines.append(
            f"generator lateness: p99 {late_p99:.3f} ms, max {max(self.late_ms):.3f} ms "
            f"(limit p99 {LATENESS_P99_LIMIT_MS} ms)"
        )
        if late_p99 > LATENESS_P99_LIMIT_MS:
            raise RunRejected(f"generator lateness p99 {late_p99:.3f} ms is over the limit")
        if self.traced:
            self.layers_from_traces()
            # Tails of the served phases: reported, but too unsteady on a
            # shared 2-CPU host (steal, fsync jitter) to carry a bound.
            self.per_layer["tail.read_p99_ms"] = pct(self.read_latency_ms["u"], 99)
            self.per_layer["tail.mixed_read_p99_ms"] = pct(latency["read"], 99)
            self.per_layer["tail.write_p99_ms"] = pct(writes, 99)
            self.per_layer["bench.host_ref_ms"] = statistics.fmean(self.ref_s) * 1e3
            for name, values in self.raw.items():
                self.per_layer[f"raw.{name}"] = statistics.median(values)
            self.per_layer["bench.lateness_p99_ms"] = late_p99
            self.per_layer["bench.lateness_max_ms"] = max(self.late_ms)
            self.per_layer["bench.trace_overhead_query"] = (
                pct(self.proxied_s, 50) / pct(self.direct_s, 50) - 1
            )

    # -- per-layer numbers from the traces ---------------------------------

    def layers_from_traces(self) -> None:
        write_trace(self.traces["bench"], self.log, "perfbench-bench")
        read_events = read_trace(self.traces["read"])
        mixed_events = read_trace(self.traces["mixed"])
        layer = self.per_layer
        read, mixed = self.read_report, self.mixed_report

        service = service_time_by_trace(read_events, READ_CALLS)
        client = self.read_client_us
        answered = [t for t in client if t in service]
        layer["serve.self_ms_p50"] = pct([(client[t] - service[t]) / 1e3 for t in answered], 50)
        layer["serve.index_share"] = pct([service[t] / client[t] for t in answered], 50)
        layer["serve.batch_calls"] = self.read_stats["batches"]
        # The request count includes two admin requests: the setup
        # ``health`` and the ``stats`` that read these counters.
        layer["serve.batch_mean"] = (self.read_stats["requests"] - 2) / self.read_stats["batches"]
        layer["serve.shed"] = read["serve"]["shed"]
        layer["serve.errors"] = read["serve"]["errors"]
        layer["serve.queue_depth_max"] = read["queue_depth_max"]
        layer["serve.close_s"] = read["close_s"]
        layer["bench.trace_overhead_read"] = (
            pct(self.read_latency_ms["t"], 50) / pct(self.read_latency_ms["u"], 50) - 1
        )

        disk = by_name(read_events, "disk.query")
        layer["storage.disk_query_us_p50"] = pct([e["dur"] for e in disk], 50)
        layer["storage.disk_query_us_p99"] = pct([e["dur"] for e in disk], 99)
        calls = [e for e in read_events if e["name"] in READ_CALLS]
        layer["storage.resilient_us_p50"] = pct(
            [(p["dur"] - covered) / n for p, covered, n in child_time(calls, disk) if n], 50
        )
        layer["storage.pager_reads_per_query"] = read["pager_reads"] / read["disk_queries"]
        layer["storage.buffer_hit_rate"] = read["pool_hits"] / (read["pool_hits"] + read["pool_misses"])
        layer["storage.open_ms"] = read["open_ms"]
        layer["storage.cache_hits"] = read["cache_hits"]

        stats = self.build_stats
        layer["core.build.dominating_s"] = statistics.median(s.time_dominating for s in stats)
        layer["core.build.separating_s"] = statistics.median(s.time_separating for s in stats)
        layer["core.build.load_s"] = statistics.median(s.time_load for s in stats)
        layer["core.build.pairs_considered"] = stats[-1].pairs_considered
        layer["core.build.n_events"] = stats[-1].n_events
        layer["core.build.n_regions"] = stats[-1].n_regions
        layer["core.batch_over_single"] = (
            self.end_to_end["batch_query_us"] / self.end_to_end["query_p50_us"]
        )

        reads = [e for e in mixed_events if e["name"] in READ_CALLS]
        layer["core.query_us_p50"] = pct([e["dur"] / len(e["args"]["traces"]) for e in reads], 50)
        service = service_time_by_trace(mixed_events, READ_CALLS)
        client = self.mixed_client_us
        answered = [t for t in client if t in service]
        layer["mixed.serve.self_ms_p50"] = pct(
            [(client[t] - service[t]) / 1e3 for t in answered], 50
        )
        layer["mixed.serve.queue_depth_max"] = mixed["queue_depth_max"]
        for op in ("insert", "delete"):
            spans = [e["dur"] / 1e3 for e in by_name(mixed_events, f"service.{op}")]
            layer[f"durable.{op}_ms_p50"] = pct(spans, 50)
            layer[f"durable.{op}_ms_p99"] = pct(spans, 99)
        pauses, counters = mixed["pauses_s"], mixed["counters"]
        layer["compaction.runs"] = counters["compaction.runs"]
        layer["compaction.pause_ms_total"] = sum(pauses) * 1e3
        layer["compaction.pause_ms_max"] = max(pauses) * 1e3
        layer["compaction.share"] = sum(pauses) / self.mixed_wall
        layer["wal.appends"] = counters["wal.appends"]
        layer["wal.fsyncs_per_write"] = counters["wal.fsyncs"] / self.n_writes
        layer["delta.merged_queries"] = counters["delta.merged_queries"]
        layer["recover.replayed"] = self.replayed
        self.lines.append(
            "traces: " + ", ".join(str(p.relative_to(ROOT)) for p in self.traces.values())
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except RunRejected as exc:
        print("\n".join(run.lines), file=sys.stderr)
        print(f"perfbench: run rejected: {exc}", file=sys.stderr)
        return 3
    values = run.per_layer if args.trace else run.end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}", file=sys.stderr)
        return 4
    for line in run.lines:
        print(line)
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:>14.6g} {m['unit']}")
    for note in run.tally.notes:
        print(f"failure: {note}")
    correct = run.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
