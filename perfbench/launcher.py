"""Server child of the benchmark: one deployment behind a ``QueryServer``.

``read`` builds the stack ``python -m repro.cli serve --mmap`` builds: a
``DiskRankedJoinIndex`` opened zero-copy, wrapped in
``ResilientDiskRankedJoinIndex``, sharing one ``ContextRecorder`` with
the server.  ``mixed`` serves a ``DurableRankedJoinIndex`` (WAL with
fsync, threshold compaction) created from the seeded mixed base set.

With ``--trace 1`` the layer boundaries are wrapped in the forwarding
timing proxies of :mod:`spans`: the service the server calls, and for
``read`` the disk index handed to the resilient wrapper.

Protocol with the driver: the child prints one JSON line
``{"port": ...}`` when it listens, then reads commands on stdin
(``trace on``, ``trace off``, ``stop``).  On ``stop`` or end of input it
closes the server (timing ``QueryServer.close()``), closes the index,
writes its Chrome trace when traced, prints one JSON report line and
exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
from spans import Proxy, SpanLog, write_trace  # noqa: E402

from repro.obs import ContextRecorder, MetricsRecorder  # noqa: E402
from repro.serve import QueryServer  # noqa: E402
from repro.storage import DiskRankedJoinIndex  # noqa: E402
from repro.storage.durable import DurableRankedJoinIndex  # noqa: E402
from repro.storage.resilient import ResilientDiskRankedJoinIndex  # noqa: E402


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``), in MB.

    Not ``getrusage``: its ``ru_maxrss`` carries the driver's high-water
    mark over the fork that started this process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("read", "mixed"), required=True)
    parser.add_argument("--path", required=True, help="image file or durable directory")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-size", type=int, default=0)
    parser.add_argument("--trace-out", default=None, help="traced run: Chrome trace path")
    args = parser.parse_args()

    traced = args.trace_out is not None
    log = SpanLog()
    log.enabled = False
    metrics = MetricsRecorder()
    recorder = ContextRecorder(metrics)
    report: dict = {"mode": args.mode}
    if args.mode == "read":
        started = time.perf_counter()
        disk = DiskRankedJoinIndex.open(
            args.path, mmap=True, cache_size=args.cache_size, recorder=recorder
        )
        if traced:
            disk.query(inputs.probe_angles(args.seed)[0], inputs.READ_QK)
            report["open_ms"] = (time.perf_counter() - started) * 1e3
        resilient = ResilientDiskRankedJoinIndex(
            Proxy(disk, log, "disk", ("query",)) if traced else disk
        )
        service = (
            Proxy(resilient, log, "service", ("query", "query_batch"))
            if traced
            else resilient
        )
    else:
        durable = DurableRankedJoinIndex.create(
            args.path,
            inputs.mixed_tuples(args.seed),
            inputs.MIX_K,
            compaction_threshold=inputs.MIX_COMPACTION_THRESHOLD,
            fsync=True,
            recorder=recorder,
        )
        service = (
            Proxy(durable, log, "service", ("query", "query_batch", "insert", "delete"))
            if traced
            else durable
        )
    server = QueryServer(service, queue_bound=1024, batch_max=64, recorder=recorder)
    server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command in ("trace on", "trace off"):
            log.enabled = traced and command == "trace on"

    report["peak_rss_mb"] = peak_rss_mb()
    started = time.perf_counter()
    server.close()
    report["close_s"] = time.perf_counter() - started
    report["serve"] = server.stats()
    report["queue_depth_max"] = metrics.series("serve.queue_depth").maximum
    if args.mode == "read":
        report["disk_queries"] = resilient.health().disk_queries
        report["pager_reads"] = disk.pager.counters.reads
        report["pool_hits"] = disk.pool.hits
        report["pool_misses"] = disk.pool.misses
        report["cache_hits"] = disk.cache.hits if disk.cache is not None else 0
    else:
        report["pauses_s"] = list(durable.compaction_pauses)
        report["counters"] = {
            name: metrics.counter(name)
            for name in (
                "wal.appends",
                "wal.fsyncs",
                "delta.inserts",
                "delta.deletes",
                "delta.merged_queries",
                "compaction.runs",
            )
        }
        durable.close()
    if traced:
        write_trace(Path(args.trace_out), log, f"perfbench-{args.mode}")
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
