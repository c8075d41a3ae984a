"""A thread-safe facade over the write engine.

:class:`ConcurrentRankedJoinIndex` wraps
:class:`~repro.core.writer.DeltaWriter` in a readers-writer lock so many
query threads proceed concurrently while inserts/deletes/rebuilds take
exclusive ownership — the standard discipline a database system would
put around a shared index — and compacts the delta on a background
thread, so only the O(1) swap takes the write lock.

Writer preference: once a writer is waiting, new readers block, so
maintenance cannot starve under a heavy query load.

Queries optionally take a ``deadline`` (a
:class:`~repro.core.deadline.Deadline` or seconds): the read-lock wait
and the wrapped query share one cooperative deadline, so a query stuck
behind a long rebuild fails fast with
:class:`~repro.errors.QueryTimeoutError` instead of queueing forever.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import ContextManager, Iterable, Iterator

from ..errors import LockDisciplineError, QueryTimeoutError
from .deadline import Deadline
from .delta import SupportsWal
from .index import RankedJoinIndex
from .tuples import RankTuple, RankTupleSet
from .writer import CompactionSnapshot, DeltaWriter, WriteTier

__all__ = ["ReadWriteLock", "ConcurrentRankedJoinIndex"]


class ReadWriteLock:
    """A writer-preferring readers-writer lock."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Acquire shared ownership; returns False on timeout.

        ``timeout=None`` blocks indefinitely (and always returns True),
        preserving the original semantics for existing callers.  The
        timeout bounds the *total* wait across wakeups, not each one.
        """
        with self._condition:
            if timeout is None:
                while self._writer_active or self._writers_waiting:
                    self._condition.wait()
                self._readers += 1
                return True
            expires = time.monotonic() + timeout
            while self._writer_active or self._writers_waiting:
                remaining = expires - time.monotonic()
                if remaining <= 0 or not self._condition.wait(remaining):
                    return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._condition:
            if self._readers <= 0:
                raise LockDisciplineError(
                    "release_read without a matching successful acquire_read"
                )
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise LockDisciplineError(
                    "release_write without a matching acquire_write"
                )
            self._writer_active = False
            self._condition.notify_all()

    class _ReadGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()

        def __exit__(self, *exc):
            self._lock.release_read()
            return False

    class _WriteGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_write()

        def __exit__(self, *exc):
            self._lock.release_write()
            return False

    def reading(self) -> "_ReadGuard":
        return self._ReadGuard(self)

    def writing(self) -> "_WriteGuard":
        return self._WriteGuard(self)


class ConcurrentRankedJoinIndex(WriteTier):
    """Shared-read / exclusive-write wrapper around the write engine.

    Writes need the full live tuple set, because every compaction
    rebuilds the base from it.  :meth:`build` supplies it; wrapping an
    existing index takes it as ``pool=`` (with the ``build_options`` the
    index was built with).  Without ``pool=`` the wrapper serves queries
    only: ``n_live`` is 0 and writes raise
    :class:`~repro.errors.MaintenanceError` until :meth:`rebuild`
    supplies a tuple set.  The index's own dominating set is no
    substitute, since the build pruned the K-dominated tuples a later
    delete can bring back into a top-k.
    """

    def __init__(
        self,
        index: RankedJoinIndex,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        pool: Iterable[RankTuple] | None = None,
        build_options: dict | None = None,
    ):
        self._lock = ReadWriteLock()
        # Writes commit to the log (in-memory unless ``wal`` is given),
        # land in a DeltaStore merged by every query, and a *background*
        # thread compacts the delta into a fresh base once it is due —
        # readers keep draining on the old store while the replacement
        # builds; only the swap takes the write lock.
        self._writer = DeltaWriter(
            index,
            None
            if pool is None
            else {
                int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
                for t in pool
            },
            wal,
            threshold=delta_threshold,
            build_options=build_options,
            on_due=self._start_compaction,
        )
        self._compacting = False
        self._compaction_thread: threading.Thread | None = None

    @classmethod
    def build(
        cls,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **options,
    ) -> "ConcurrentRankedJoinIndex":
        """Build the wrapped index; ``options`` are forwarded verbatim to
        :meth:`RankedJoinIndex.build` (including the ``workers`` and
        ``block_rows`` construction-tuning knobs) and to every
        compaction.  The full input tuple set becomes the live pool."""
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        index = RankedJoinIndex.build(tuples, k, **options)
        return cls(
            index,
            wal=wal,
            delta_threshold=delta_threshold,
            pool=tuples,
            build_options=options,
        )

    # -- lock discipline -----------------------------------------------------

    @contextmanager
    def _reading(self, deadline: Deadline | None = None) -> Iterator[None]:
        """Hold the read lock, taken within the deadline's budget (so a
        query stuck behind a long rebuild fails fast)."""
        if deadline is None:
            self._lock.acquire_read()
        else:
            remaining = deadline.remaining()
            if remaining <= 0 or not self._lock.acquire_read(remaining):
                raise QueryTimeoutError(
                    "query deadline expired while waiting for the read lock"
                )
        try:
            yield
        finally:
            self._lock.release_read()

    def _writing(self) -> ContextManager:
        return self._lock.writing()

    @property
    def n_regions(self) -> int:
        with self._lock.reading():
            return self._writer.index.n_regions

    def snapshot_stats(self):
        with self._lock.reading():
            return self._writer.index.stats

    # -- background compaction --------------------------------------------------

    def _start_compaction(self) -> None:
        """Kick off a background compaction unless one is in flight.

        Caller holds the write lock.  The snapshot (live pool copy +
        current log position) is taken here, under the lock, so the
        builder thread never touches shared mutable state."""
        if self._compacting:
            return
        self._compacting = True
        worker = threading.Thread(
            target=self._compact_from,
            args=(self._writer.snapshot(),),
            name="rji-compaction",
            daemon=True,
        )
        self._compaction_thread = worker
        worker.start()

    def _compact_from(self, snapshot: CompactionSnapshot) -> None:
        """Build a fresh base from ``snapshot`` and swap it in.

        Runs on the compaction thread.  The build happens outside any
        lock (old readers drain on the old store); the swap takes the
        write lock and is O(1): entries the delta absorbed after the
        snapshot stay buffered.  A failure is kept for the next write,
        :meth:`compact` or :meth:`drain_compaction` to raise."""
        try:
            self._writer.compact(snapshot, swap=self._lock.writing)
        except Exception as exc:  # noqa: BLE001 - surfaced to the next caller
            with self._lock.writing():
                self._writer.record_failure(exc)
        finally:
            with self._lock.writing():
                self._compacting = False

    def compact(self) -> None:
        """Merge everything written so far into a fresh base; blocks.

        Any run started after the first drain snapshots at least the
        current log position, so waiting for it suffices."""
        self.drain_compaction()
        with self._lock.writing():
            if not self._writer.delta.is_empty:
                self._start_compaction()
        self.drain_compaction()

    def drain_compaction(self, timeout: float | None = None) -> bool:
        """Wait for an in-flight background compaction; True when idle.

        Raises the :class:`~repro.errors.CompactionError` of a failed
        run (once)."""
        worker = self._compaction_thread
        if worker is not None:
            worker.join(timeout)
            if worker.is_alive():
                return False
        with self._lock.writing():
            self._writer.raise_failure()
        return True

    def close(self) -> None:
        """Join the compaction thread; raises a failure it left behind."""
        self.drain_compaction()

    def rebuild(
        self, tuples: RankTupleSet | Iterable[RankTuple], **options
    ) -> None:
        """Replace the underlying index atomically (restores slack).

        The build runs *outside* the write lock, so readers keep being
        served from the old index while the replacement is constructed —
        pass ``workers=N`` to speed the event pass up without extending
        the swap's exclusive section, which stays O(1).  The given
        tuples become the new live pool and the delta restarts empty
        (an explicit administrative reset, not a logged write); an
        in-flight background compaction of the old pool is discarded.
        """
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        fresh = RankedJoinIndex.build(tuples, self.k_bound, **options)
        with self._lock.writing():
            self._writer.reset(fresh, {t.tid: t for t in tuples})
