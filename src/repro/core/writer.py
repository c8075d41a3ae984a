"""The one WAL-then-delta write engine behind every mutable tier.

The paper leaves maintenance to future work.  :class:`DeltaWriter`
owns the live tuple pool, the :class:`~repro.core.delta.DeltaStore` the
base :class:`~repro.core.index.RankedJoinIndex` merges, and a
:class:`~repro.core.delta.SupportsWal`.  A write runs validate → append
→ ``commit()`` (the acknowledgement point) → apply hook → delta + pool
→ compaction trigger.  A compaction runs snapshot(pool, LSN) → build →
persist hook → install, where install is ``clear_upto(LSN)``, attach
the delta to the fresh base, swap; writes that raced the build keep
merging.  Without a WAL the engine numbers records in a
:class:`MemoryWal`.

The engine is not thread-safe.  :class:`WriteTier` is the surface the
tiers share, each supplying its own lock discipline:
:class:`~repro.core.managed.ManagedRankedJoinIndex` (none, synchronous
compaction), :class:`~repro.core.concurrent.ConcurrentRankedJoinIndex`
(a readers-writer lock, background compaction) and
:class:`~repro.storage.durable.DurableRankedJoinIndex` (one reentrant
lock, a persist hook that checkpoints the real WAL).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Callable, ContextManager, NamedTuple, Sequence

from ..errors import CompactionError, MaintenanceError
from ..obs import NULL_RECORDER, Recorder
from .deadline import Deadline, DeadlineLike
from .delta import DeltaStore, SupportsWal
from .index import QueryResult, RankedJoinIndex
from .scoring import PreferenceLike
from .tuples import RankTuple

__all__ = ["CompactionSnapshot", "DeltaWriter", "MemoryWal", "WriteTier"]


class MemoryWal:
    """A :class:`SupportsWal` that keeps nothing: it numbers records."""

    def __init__(self) -> None:
        self._lsn = 0

    def append_insert(self, tid: int, s1: float, s2: float) -> int:
        self._lsn += 1
        return self._lsn

    def append_delete(self, tid: int) -> int:
        self._lsn += 1
        return self._lsn

    def commit(self) -> int:
        return self._lsn

    @property
    def last_lsn(self) -> int:
        return self._lsn


class CompactionSnapshot(NamedTuple):
    """The tid-sorted live pool at one LSN, the input of a compaction."""

    tuples: list[RankTuple]
    lsn: int
    generation: int


class DeltaWriter:
    """Pool + delta + WAL + base index, and the rules that bind them.

    ``pool`` maps tid to the live tuple and is owned by the engine from
    here on.  It must be the *full* live population, since every
    compaction rebuilds from it; ``None`` means it is unknown (a wrapped
    index whose build may have pruned K-dominated tuples), and writes
    are then refused until :meth:`reset` supplies one.  ``build_options`` are forwarded verbatim to every
    compaction build; their ``recorder`` (if any) also receives the
    ``delta.*`` and ``compaction.*`` metrics.  ``persist`` runs on the
    fresh base just before the install.  ``on_due`` runs after a write
    leaves the delta due for compaction; the default compacts
    synchronously.
    """

    def __init__(
        self,
        index: RankedJoinIndex,
        pool: dict[int, RankTuple] | None,
        wal: SupportsWal | None = None,
        *,
        threshold: int = 64,
        build_options: dict | None = None,
        persist: Callable[[RankedJoinIndex, CompactionSnapshot], None]
        | None = None,
        on_due: Callable[[], None] | None = None,
    ):
        self.k_bound = index.k_bound
        self.wal: SupportsWal = wal if wal is not None else MemoryWal()
        self.delta = DeltaStore()
        self._generation = 0
        self.reset(index, pool if pool is not None else {})
        self.writable = pool is not None
        self.threshold = max(1, threshold)
        self.build_options = dict(build_options or {})
        self.recorder: Recorder = self.build_options.get(
            "recorder", NULL_RECORDER
        )
        self._persist = persist
        self._on_due = on_due if on_due is not None else self.compact
        #: Duck-typed chaos hook (see repro.faults.inject.arm).
        self.faults = None
        #: Wall time of each compaction, in seconds.
        self.compaction_pauses: list[float] = []
        self._failure: Exception | None = None

    @property
    def k_effective(self) -> int:
        """Largest exact ``k`` right now (tombstones consume slack)."""
        return max(0, self.index.k_effective - self.delta.n_tombstones)

    @property
    def due(self) -> bool:
        """Whether to compact: the buffer outgrew the threshold, or
        tombstones ate half the exact-merge slack (queries at moderate
        ``k`` would soon fail validation)."""
        return (
            self.delta.n_ops >= self.threshold
            or self.delta.n_tombstones * 2 >= self.index.k_effective
        )

    # -- writes ------------------------------------------------------------

    def insert(self, tuple_: RankTuple | tuple) -> None:
        """Log, acknowledge and buffer one new tuple."""
        self._check_writable()
        tid, s1, s2 = tuple_
        candidate = RankTuple(int(tid), float(s1), float(s2))
        if candidate.tid in self.pool:
            raise MaintenanceError(f"tuple id {candidate.tid} already live")
        if not (math.isfinite(candidate.s1) and math.isfinite(candidate.s2)):
            raise MaintenanceError("rank values must be finite")
        lsn = self.wal.append_insert(*candidate)
        self._commit()
        self.delta.insert(candidate, lsn)
        self.pool[candidate.tid] = candidate
        self._applied("delta.inserts")

    def delete(self, tid: int) -> int:
        """Log, acknowledge and tombstone one live tuple; returns the
        effective bound left (after any synchronous compaction)."""
        self._check_writable()
        tid = int(tid)
        if tid not in self.pool:
            raise MaintenanceError(f"tuple id {tid} is not in the index")
        if len(self.pool) == 1:
            raise MaintenanceError(
                "deleting the last live tuple; an index cannot be empty"
            )
        lsn = self.wal.append_delete(tid)
        self._commit()
        self.delta.delete(tid, lsn)
        del self.pool[tid]
        self._applied("delta.deletes")
        return self.k_effective

    def _check_writable(self) -> None:
        self.raise_failure()
        if not self.writable:
            raise MaintenanceError(
                "this index was wrapped without its full live tuple pool, "
                "so a compaction could drop tuples the build pruned; pass "
                "pool= (or build through the tier) before writing"
            )

    def _commit(self) -> None:
        self.wal.commit()
        # Acknowledgement point: the record is durable.  A crash on
        # apply (hook below) must be recovered, never lost.
        if self.faults is not None:
            self.faults.on_durable_apply()

    def _applied(self, counter: str) -> None:
        if self.recorder.enabled:
            self.recorder.count(counter)
            self.recorder.observe("delta.size", self.delta.n_ops)
        if self.due:
            self._on_due()

    def record_failure(self, exc: Exception) -> None:
        """Keep a background compaction failure for the next caller."""
        self._failure = exc

    def raise_failure(self) -> None:
        """Raise a recorded background failure once, as CompactionError."""
        failure, self._failure = self._failure, None
        if failure is not None:
            raise CompactionError(
                f"background compaction failed: {failure!r}"
            ) from failure

    # -- compaction --------------------------------------------------------

    def snapshot(self) -> CompactionSnapshot:
        return CompactionSnapshot(
            sorted(self.pool.values()), self.wal.last_lsn, self._generation
        )

    def compact(
        self,
        snapshot: CompactionSnapshot | None = None,
        *,
        swap: Callable[[], ContextManager] = nullcontext,
    ) -> None:
        """Build a fresh base from ``snapshot`` (default: now) and
        install it.  Only the persist hook and the install run inside
        ``swap`` (e.g. a write lock).  An installed run is counted as
        ``compaction.runs`` and its wall time kept; a failure is counted
        as ``compaction.failures`` and re-raised; a run superseded by
        :meth:`reset` is neither.  The chaos hook fires before and after
        the build; the persist hook adds its own."""
        recorder = self.recorder
        with recorder.span("compaction"):
            started = time.perf_counter()
            try:
                self.chaos_step()  # before anything: WAL replay covers all
                if snapshot is None:
                    snapshot = self.snapshot()
                fresh = RankedJoinIndex.build(
                    snapshot.tuples, self.k_bound, **self.build_options
                )
                self.chaos_step()  # built, nothing durable changed yet
                with swap():
                    # A reset() while this built makes the snapshot stale.
                    if snapshot.generation != self._generation:
                        return
                    if self._persist is not None:
                        self._persist(fresh, snapshot)
                    self.delta.clear_upto(snapshot.lsn)
                    fresh.attach_delta(self.delta)
                    self.index = fresh
            except Exception:
                recorder.count("compaction.failures")
                raise
            recorder.count("compaction.runs")
            self.compaction_pauses.append(time.perf_counter() - started)

    def chaos_step(self) -> None:
        """Fire the compaction chaos hook (persist hooks call it too)."""
        if self.faults is not None:
            self.faults.on_compaction()

    def reset(
        self, index: RankedJoinIndex, pool: dict[int, RankTuple]
    ) -> None:
        """Replace base and pool outright and empty the delta: an
        administrative reset, not a logged write.  ``pool`` is the full
        live population from here on.  A compaction that snapshotted the
        old pool is discarded at install."""
        self._generation += 1
        self.writable = True
        self.pool = pool
        self.delta.clear()
        index.attach_delta(self.delta)
        self.index = index


class WriteTier:
    """The read/write surface every tier shares over its ``_writer``.

    A tier overrides :meth:`_reading` and :meth:`_writing` with its lock
    discipline; the default is none.
    """

    _writer: DeltaWriter

    def _reading(self, deadline: Deadline | None = None) -> ContextManager:
        return nullcontext()

    def _writing(self) -> ContextManager:
        return nullcontext()

    def query(
        self,
        preference: PreferenceLike,
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[QueryResult]:
        """Merged top-k over the live population.  ``deadline`` (a
        :class:`~repro.core.deadline.Deadline` or seconds) covers any
        lock wait *and* the query; past it
        :class:`~repro.errors.QueryTimeoutError` is raised."""
        deadline = Deadline.of(deadline)
        with self._reading(deadline):
            return self._writer.index.query(preference, k, deadline=deadline)

    def query_batch(
        self,
        preferences: Sequence[PreferenceLike],
        k: int,
        *,
        deadline: DeadlineLike = None,
    ) -> list[list[QueryResult]]:
        deadline = Deadline.of(deadline)
        with self._reading(deadline):
            return self._writer.index.query_batch(
                preferences, k, deadline=deadline
            )

    def insert(self, tuple_: RankTuple | tuple) -> bool:
        """Add a tuple; always ``True`` (every query merges the delta).

        The record is committed to the log *before* any in-memory state
        changes, so with a durable log an acknowledged insert survives
        any later crash.  Raises
        :class:`~repro.errors.MaintenanceError` for a duplicate live tid
        or non-finite rank values, and a pending
        :class:`~repro.errors.CompactionError` instead of writing."""
        with self._writing():
            self._writer.insert(tuple_)
            return True

    def delete(self, tid: int) -> int:
        """Remove a live tuple; returns the effective bound that remains.

        Raises :class:`~repro.errors.MaintenanceError` when ``tid`` is
        not live or the delete would empty the index."""
        with self._writing():
            return self._writer.delete(tid)

    @property
    def k_bound(self) -> int:
        return self._writer.k_bound

    @property
    def k_effective(self) -> int:
        """Largest exact ``k`` right now (tombstones consume slack)."""
        with self._reading():
            return self._writer.k_effective

    @property
    def n_live(self) -> int:
        """Number of live tuples."""
        with self._reading():
            return len(self._writer.pool)

    @property
    def delta(self) -> DeltaStore:
        """The live write buffer every query merges."""
        with self._reading():
            return self._writer.delta

    @property
    def faults(self):
        """Duck-typed chaos hook (see repro.faults.inject.arm)."""
        with self._reading():
            return self._writer.faults

    @faults.setter
    def faults(self, injector) -> None:
        with self._writing():
            self._writer.faults = injector

    @property
    def compaction_pauses(self) -> list[float]:
        """Wall time of each installed compaction, in seconds."""
        with self._reading():
            return self._writer.compaction_pauses

    def live_tuples(self) -> list[RankTuple]:
        """The full live pool, tid-sorted — the rebuild reference set."""
        with self._reading():
            return self._writer.snapshot().tuples
