"""The durable write path: WAL-then-delta maintenance with recovery.

:class:`DurableRankedJoinIndex` owns a directory::

    <dir>/wal/wal-*.seg   append-only log (repro.storage.wal)
    <dir>/pool.rjp        pager-v2 snapshot of the full live tuple pool
                          plus the checkpoint LSN it reflects
    <dir>/base.rji        disk image of the base index at the same
                          checkpoint (DiskRankedJoinIndex.recover opens
                          this and replays the same WAL)

Writes run through the core write engine,
:class:`~repro.core.writer.DeltaWriter`, with this log as its
``SupportsWal``: validate, append the record, ``commit()`` (fsync — the
acknowledgement point), then apply to the in-memory
:class:`~repro.core.delta.DeltaStore` and the live pool.  Queries run
against the immutable base :class:`RankedJoinIndex` with the delta
attached, so merged answers stay bit-identical to a rebuild from
scratch over the same logical tuple set (see :mod:`repro.core.delta`
for the exactness argument).

Once the delta is due the engine rebuilds the whole pool into a fresh
base (the snapshot keeps the *full* pool, not just the dominating set:
tuples K-dominated today can resurface after deletes).  This tier's
persist hook then saves the image and the pool snapshot atomically and
checkpoints and prunes the WAL, and the engine swaps the fresh base
in.  A crash between any two of those steps is recoverable because
replaying the WAL over the last durable snapshot is idempotent.

:meth:`DurableRankedJoinIndex.recover` is the crash side of the
contract: load the pool snapshot, open the WAL (the open itself
truncates a torn tail), replay records past the snapshot's checkpoint
LSN, rebuild, and report what happened in a :class:`RecoveryReport`.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Iterable, Sequence

import numpy as np

from ..core import RankedJoinIndex
from ..core.deadline import Deadline
from ..core.scoring import PreferenceLike
from ..core.tuples import RankTuple
from ..core.writer import CompactionSnapshot, DeltaWriter, WriteTier
from ..errors import CorruptPageError, StorageError
from ..obs import NULL_RECORDER, QueryExplain, Recorder
from .diskindex import DiskRankedJoinIndex
from .pager import Pager
from .pages import Page
from .wal import WriteAheadLog

__all__ = ["DurableRankedJoinIndex", "RecoveryReport"]

_POOL_MAGIC = b"RJIPOOL1"
#: magic, checkpoint LSN, n_tuples, payload bytes, k_bound.
_POOL_META = struct.Struct("<8sQQQI")
_POOL_DTYPE = np.dtype([("tid", "<i8"), ("s1", "<f8"), ("s2", "<f8")])

_POOL_FILE = "pool.rjp"
_BASE_FILE = "base.rji"
_WAL_DIR = "wal"


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one crash-recovery replay found and did."""

    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    torn_tails: int
    n_live: int


def _write_pool_snapshot(
    path: Path,
    ordered: Sequence[RankTuple],
    checkpoint_lsn: int,
    k_bound: int,
    *,
    page_size: int = 4096,
) -> None:
    """Persist the tid-sorted live pool atomically (pager-v2 CRCs)."""
    records = np.empty(len(ordered), dtype=_POOL_DTYPE)
    records["tid"] = [t.tid for t in ordered]
    records["s1"] = [t.s1 for t in ordered]
    records["s2"] = [t.s2 for t in ordered]
    payload = records.tobytes()

    pager = Pager(page_size)
    meta_id = pager.allocate()
    for start in range(0, len(payload), page_size):
        chunk = payload[start : start + page_size]
        page = Page(page_size)
        page.write_bytes(0, chunk)
        pager.write(pager.allocate(), page)
    meta = Page(page_size)
    meta.write_bytes(
        0,
        _POOL_META.pack(
            _POOL_MAGIC, checkpoint_lsn, len(ordered), len(payload), k_bound
        ),
    )
    pager.write(meta_id, meta)
    pager.save(path)


def _recover_pool_snapshot(
    path: Path,
) -> tuple[dict[int, RankTuple], int, int]:
    """Load a pool snapshot; returns (pool, checkpoint_lsn, k_bound)."""
    pager = Pager.load(path)
    header = pager.read(0).read_bytes(0, _POOL_META.size)
    try:
        magic, checkpoint_lsn, n_tuples, payload_bytes, k_bound = (
            _POOL_META.unpack(header)
        )
    except struct.error as exc:
        raise CorruptPageError(
            f"{path}: pool snapshot metadata is unreadable", page_id=0
        ) from exc
    if magic != _POOL_MAGIC:
        raise StorageError(f"{path} is not a pool snapshot")
    data = b"".join(
        pager.read(page_id).to_bytes()
        for page_id in range(1, pager.n_pages)
    )[:payload_bytes]
    if len(data) != payload_bytes:
        raise CorruptPageError(
            f"{path}: pool snapshot payload is short "
            f"({len(data)} of {payload_bytes} bytes)"
        )
    records = np.frombuffer(data, dtype=_POOL_DTYPE)
    if len(records) != n_tuples:
        raise CorruptPageError(
            f"{path}: pool snapshot holds {len(records)} tuples, "
            f"metadata promises {n_tuples}"
        )
    pool = {
        int(tid): RankTuple(int(tid), float(s1), float(s2))
        for tid, s1, s2 in records
    }
    return pool, checkpoint_lsn, k_bound


class DurableRankedJoinIndex(WriteTier):
    """A Ranked Join Index whose writes survive crashes.

    Construct with :meth:`create` (fresh directory) or :meth:`recover`
    (after a crash or clean shutdown — recovery of a clean directory is
    a no-op replay).  Satisfies the :class:`repro.serve.IndexService`
    protocol plus the write surface (``insert`` / ``delete``, from
    :class:`~repro.core.writer.WriteTier`), so it plugs straight into
    :class:`repro.serve.QueryServer`.

    Thread-safe by a single reentrant lock over reads and writes: the
    durable tier optimizes for recoverability, not parallel read
    throughput (wrap in :class:`~repro.core.concurrent.
    ConcurrentRankedJoinIndex` semantics when that matters).
    """

    def __init__(
        self,
        directory: str | Path,
        index: RankedJoinIndex,
        pool: dict[int, RankTuple],
        wal: WriteAheadLog,
        *,
        compaction_threshold: int = 64,
        recorder: Recorder = NULL_RECORDER,
        build_options: dict | None = None,
    ):
        self._dir = Path(directory)
        self._wal = wal
        self._writer = DeltaWriter(
            index,
            pool,
            wal,
            threshold=compaction_threshold,
            build_options={**(build_options or {}), "recorder": recorder},
            persist=self._persist,
        )
        self._lock = threading.RLock()
        self.last_recovery: RecoveryReport | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        tuples: Iterable[RankTuple],
        k: int,
        *,
        compaction_threshold: int = 64,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
        recorder: Recorder = NULL_RECORDER,
        **build_options,
    ) -> "DurableRankedJoinIndex":
        """Initialize a fresh durable index directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pool = {t.tid: RankTuple(*t) for t in tuples}
        ordered = sorted(pool.values())
        index = RankedJoinIndex.build(
            ordered, k, recorder=recorder, **build_options
        )
        wal = WriteAheadLog(
            directory / _WAL_DIR,
            segment_bytes=segment_bytes,
            fsync=fsync,
            recorder=recorder,
        )
        _write_pool_snapshot(directory / _POOL_FILE, ordered, 0, k)
        DiskRankedJoinIndex(index).save(directory / _BASE_FILE)
        return cls(
            directory,
            index,
            pool,
            wal,
            compaction_threshold=compaction_threshold,
            recorder=recorder,
            build_options=build_options,
        )

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        compaction_threshold: int = 64,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
        recorder: Recorder = NULL_RECORDER,
        **build_options,
    ) -> "DurableRankedJoinIndex":
        """Reopen after a crash (or clean shutdown) and replay the WAL.

        Loads the pool snapshot, opens the WAL — the open-time scan
        truncates a torn tail — and re-applies every record past the
        snapshot's checkpoint LSN to the pool (idempotent: inserts
        overwrite, deletes are pop-if-present, so records that are both
        in the snapshot and still in the log converge).  ``build_options``
        must match the ones the index was created with for merged
        answers to stay bit-identical to the pre-crash index.
        """
        directory = Path(directory)
        pool, checkpoint_lsn, k_bound = _recover_pool_snapshot(
            directory / _POOL_FILE
        )
        wal = WriteAheadLog(
            directory / _WAL_DIR,
            segment_bytes=segment_bytes,
            fsync=fsync,
            recorder=recorder,
        )
        replayed = 0
        for record in wal.records(after_lsn=checkpoint_lsn):
            if record.op == "insert":
                pool[record.tid] = RankTuple(
                    record.tid, record.s1, record.s2
                )
            elif record.op == "delete":
                pool.pop(record.tid, None)
            else:  # checkpoint marker: replay no-op
                continue
            replayed += 1
        index = RankedJoinIndex.build(
            sorted(pool.values()), k_bound, recorder=recorder, **build_options
        )
        instance = cls(
            directory,
            index,
            pool,
            wal,
            compaction_threshold=compaction_threshold,
            recorder=recorder,
            build_options=build_options,
        )
        instance.last_recovery = RecoveryReport(
            checkpoint_lsn=checkpoint_lsn,
            last_lsn=wal.last_lsn,
            replayed=replayed,
            torn_tails=wal.torn_tails,
            n_live=len(pool),
        )
        return instance

    # -- one reentrant lock over reads and writes --------------------------

    def _reading(self, deadline: Deadline | None = None) -> ContextManager:
        return self._lock

    def _writing(self) -> ContextManager:
        return self._lock

    def explain(
        self, preference: PreferenceLike, k: int, *, record: bool = True
    ) -> QueryExplain:
        with self._lock:
            return self._writer.index.explain(preference, k, record=record)

    # -- compaction --------------------------------------------------------

    def compact(self) -> None:
        """Merge the delta into a fresh base and advance the checkpoint."""
        with self._lock:
            self._writer.compact()

    def _persist(
        self, fresh: RankedJoinIndex, snapshot: CompactionSnapshot
    ) -> None:
        """The engine's persist hook: image → checkpoint + pool → prune.

        Step order is the crash-safety argument: nothing destructive
        happens before the new image, checkpoint, and pool snapshot are
        durable, and the WAL prune at the end only drops segments the
        snapshot fully covers.  The chaos hook fires between steps so
        fault plans can kill the process at each boundary (the engine
        fires the two around the build).  Every caller already holds the
        reentrant lock: :meth:`compact` takes it, and a write-triggered
        compaction runs inside the write's hold.
        """
        DiskRankedJoinIndex(fresh).save(self._dir / _BASE_FILE)
        self._writer.chaos_step()  # image saved; checkpoint not yet cut
        checkpoint_lsn = self._wal.checkpoint()
        _write_pool_snapshot(
            self._dir / _POOL_FILE,
            snapshot.tuples,
            checkpoint_lsn,
            fresh.k_bound,
        )
        self._writer.chaos_step()  # snapshot durable; prune pending
        self._wal.prune()

    # -- introspection -----------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    def close(self) -> None:
        self._wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"DurableRankedJoinIndex({str(self._dir)!r}, "
                f"live={len(self._writer.pool)}, "
                f"delta={self._writer.delta.n_ops}, "
                f"wal_lsn={self._wal.last_lsn})"
            )
