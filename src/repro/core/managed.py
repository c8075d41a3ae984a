"""A managed index: the write engine with synchronous compaction.

:class:`ManagedRankedJoinIndex` is the single-threaded tier over
:class:`~repro.core.writer.DeltaWriter`: writes commit to a log (any
:class:`~repro.core.delta.SupportsWal`, an in-memory one by default),
land in the delta every query merges, and the base index is rebuilt
from the full live pool as soon as the delta is due — the
build-fast/degrade-slowly lifecycle a deployment would actually run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import MaintenanceError
from .delta import SupportsWal
from .index import RankedJoinIndex
from .tuples import RankTuple, RankTupleSet
from .writer import DeltaWriter, WriteTier

__all__ = ["MaintenanceLog", "ManagedRankedJoinIndex"]


@dataclass
class MaintenanceLog:
    """Lifetime counters of a managed index."""

    inserts_applied: int = 0
    deletes: int = 0
    rebuilds: int = 0
    events: list[str] = field(default_factory=list)


class ManagedRankedJoinIndex(WriteTier):
    """Index + tuple pool + rebuild once the delta is due."""

    def __init__(
        self,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **build_options,
    ):
        # build_options are forwarded verbatim to RankedJoinIndex.build
        # on the initial build AND every compaction, so construction
        # tuning (workers=, block_rows=, merge_slack=, ...) sticks for
        # the lifetime of the managed index.
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        self.log = MaintenanceLog()
        self._writer = DeltaWriter(
            RankedJoinIndex.build(tuples, k, **build_options),
            {t.tid: t for t in tuples},
            wal,
            threshold=delta_threshold,
            build_options=build_options,
            on_due=self.compact,
        )

    @property
    def index(self) -> RankedJoinIndex:
        """The currently active underlying index."""
        return self._writer.index

    def insert(self, tuple_: RankTuple | tuple) -> bool:
        changed = super().insert(tuple_)
        self.log.inserts_applied += 1
        return changed

    def delete(self, tid: int) -> int:
        remaining = super().delete(tid)
        self.log.deletes += 1
        return remaining

    def compact(self) -> None:
        """Merge the delta into a fresh base index and start it empty.

        The managed index keeps no durable snapshot of its own, so the
        log is *not* checkpointed here — replaying the full log over the
        original tuple set reconstructs this state after a crash.
        Durable checkpoint/prune lives in
        :class:`repro.storage.durable.DurableRankedJoinIndex`.
        """
        self.rebuild(reason="delta due")

    def rebuild(self, *, reason: str = "requested") -> None:
        """Rebuild the index from the live pool, restoring full slack."""
        self._writer.compact()
        self.log.rebuilds += 1
        self.log.events.append(
            f"rebuild ({reason}); pool={len(self._writer.pool)}"
        )

    def check_invariants(self) -> None:
        """Index structure valid and the delta consistent with the pool.

        A base tuple may be dead *if* a tombstone hides it — the delta
        is part of the logical state — and every buffered insert must be
        live."""
        writer = self._writer
        writer.index.check_invariants()
        for tid in writer.index.dominating.tids:
            tid = int(tid)
            if tid not in writer.pool and not writer.delta.tombstoned(tid):
                raise MaintenanceError(
                    f"indexed tuple {tid} is not in the live pool"
                )
        for pending in writer.delta.pending_inserts():
            if pending.tid not in writer.pool:
                raise MaintenanceError(
                    f"buffered insert {pending.tid} is not in the live pool"
                )
