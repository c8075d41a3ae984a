"""The one WAL-then-delta write engine, on every tier that wraps it.

The managed and concurrent tiers run on the core in-memory log
(:class:`~repro.core.writer.MemoryWal`) so most of these tests stay
free of disk I/O (the real :class:`repro.storage.wal.WriteAheadLog` is
covered in ``tests/storage``); what matters here is the ordering
contract — records are committed *before* any in-memory state changes —
that merged answers track a rebuild exactly across writes and
compactions, and that every tier keeps the same write contract.
"""

import threading

import numpy as np
import pytest

from repro.core.concurrent import ConcurrentRankedJoinIndex
from repro.core.delta import SupportsWal
from repro.core.index import RankedJoinIndex
from repro.core.maintenance import delete_tuple
from repro.core.managed import ManagedRankedJoinIndex
from repro.core.tuples import RankTuple
from repro.core.workloads import random_preferences
from repro.core.writer import MemoryWal
from repro.errors import CompactionError, MaintenanceError
from repro.obs import MetricsRecorder
from repro.storage.durable import DurableRankedJoinIndex


class RecordingWal(MemoryWal):
    """The core in-memory log, additionally recording the call order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def append_insert(self, tid, s1, s2):
        lsn = super().append_insert(tid, s1, s2)
        self.calls.append(("insert", tid, lsn))
        return lsn

    def append_delete(self, tid):
        lsn = super().append_delete(tid)
        self.calls.append(("delete", tid, lsn))
        return lsn

    def commit(self):
        lsn = super().commit()
        self.calls.append(("commit", None, lsn))
        return lsn


def _tuples(n=120, seed=3):
    rng = np.random.default_rng(seed)
    return [
        RankTuple(i, float(a), float(b))
        for i, (a, b) in enumerate(zip(rng.random(n), rng.random(n)))
    ]


def _assert_matches_rebuild(index, pool, k_bound, k, seed=9):
    reference = RankedJoinIndex.build(sorted(pool.values()), k_bound)
    for preference in random_preferences(20, seed=seed):
        assert index.query(preference, k) == reference.query(preference, k)


class TestManagedWalMode:
    def test_writes_merge_exactly(self):
        wal = RecordingWal()
        tuples = _tuples()
        managed = ManagedRankedJoinIndex(
            tuples, 12, wal=wal, delta_threshold=1000
        )
        assert isinstance(wal, SupportsWal)
        pool = {t.tid: t for t in tuples}
        rng = np.random.default_rng(5)
        for step in range(12):
            if step % 3 == 2:
                victim = int(rng.choice(sorted(pool)))
                managed.delete(victim)
                del pool[victim]
            else:
                t = RankTuple(
                    1000 + step, float(rng.random()), float(rng.random())
                )
                assert managed.insert(t) is True
                pool[t.tid] = t
            managed.check_invariants()
        _assert_matches_rebuild(managed, pool, 12, 6)

    def test_commit_precedes_state_change(self):
        wal = RecordingWal()
        managed = ManagedRankedJoinIndex(_tuples(), 10, wal=wal)
        managed.insert(RankTuple(999, 0.5, 0.5))
        managed.delete(999)
        kinds = [c[0] for c in wal.calls]
        assert kinds == ["insert", "commit", "delete", "commit"]
        assert wal.calls[-1] == ("commit", None, 2)

    def test_compaction_resets_delta_and_keeps_answers(self):
        wal = RecordingWal()
        tuples = _tuples()
        managed = ManagedRankedJoinIndex(
            tuples, 12, wal=wal, delta_threshold=4
        )
        pool = {t.tid: t for t in tuples}
        for i in range(9):
            t = RankTuple(2000 + i, 0.3 + 0.05 * i, 0.4)
            managed.insert(t)
            pool[t.tid] = t
        assert managed.log.rebuilds >= 2  # threshold=4 forced compactions
        assert managed.delta.n_ops < 4
        _assert_matches_rebuild(managed, pool, 12, 6)

    def test_tombstone_pressure_forces_compaction(self):
        wal = RecordingWal()
        tuples = _tuples(40)
        managed = ManagedRankedJoinIndex(
            tuples, 8, wal=wal, delta_threshold=1000
        )
        for tid in range(6):
            managed.delete(tid)
        # tombstones * 2 >= k_effective would have broken exact merges;
        # the write path compacted before letting that happen.
        assert managed.delta.n_tombstones * 2 < managed.index.k_effective
        assert managed.k_effective == (
            managed.index.k_effective - managed.delta.n_tombstones
        )


TIERS = ["managed", "concurrent", "durable"]


@pytest.fixture()
def make_tier(tmp_path):
    """Factory of write tiers that never compact on op count."""
    made = []

    def make(kind, tuples, k, recorder=None):
        recorder = recorder if recorder is not None else MetricsRecorder()
        if kind == "managed":
            index = ManagedRankedJoinIndex(
                tuples, k, delta_threshold=1000, recorder=recorder
            )
        elif kind == "concurrent":
            index = ConcurrentRankedJoinIndex.build(
                tuples, k, delta_threshold=1000, recorder=recorder
            )
        else:
            index = DurableRankedJoinIndex.create(
                tmp_path / f"durable-{len(made)}", tuples, k,
                compaction_threshold=1000, fsync=False, recorder=recorder,
            )
        made.append(index)
        return index

    yield make
    for index in made:
        if not isinstance(index, ManagedRankedJoinIndex):
            index.close()


def _settle(index):
    """Wait out a background compaction the last write started."""
    if isinstance(index, ConcurrentRankedJoinIndex):
        assert index.drain_compaction(timeout=10.0)


class TestMaintenanceEdgeCases:
    """One write contract, checked on every tier."""

    @pytest.fixture(params=TIERS)
    def tier(self, request, make_tier):
        recorder = MetricsRecorder()
        return make_tier(request.param, _tuples(), 10, recorder), recorder

    def test_duplicate_tid_insert_is_typed(self, tier):
        index, _ = tier
        with pytest.raises(MaintenanceError, match="already live"):
            index.insert(RankTuple(0, 0.9, 0.9))
        # The failed insert left no trace: delete of tid 0 still works.
        index.delete(0)
        assert index.n_live == len(_tuples()) - 1

    def test_delete_of_absent_tid_is_typed(self, tier):
        index, _ = tier
        with pytest.raises(MaintenanceError, match="is not in the index"):
            index.delete(10_000)
        assert index.n_live == len(_tuples())

    def test_refuses_to_delete_the_last_live_tuple(self, make_tier):
        for kind in TIERS:
            index = make_tier(kind, _tuples(2), 1)
            index.delete(0)
            with pytest.raises(MaintenanceError, match="last live tuple"):
                index.delete(1)
            assert index.n_live == 1, kind

    def test_insert_on_region_boundary_angle(self, tier):
        # Duplicate the rank values of a live tuple: the new tuple ties
        # with it at *every* angle, including exact region boundaries,
        # exercising the canonical tid tie-break end to end.
        index, _ = tier
        twin_of = _tuples()[0]
        index.insert(RankTuple(5555, twin_of.s1, twin_of.s2))
        pool = _tuples() + [RankTuple(5555, twin_of.s1, twin_of.s2)]
        reference = RankedJoinIndex.build(sorted(pool), 10)
        for region in reference.regions:
            angle = region.lo
            pref = (np.cos(angle), np.sin(angle))
            assert index.query(pref, 5) == reference.query(pref, 5)

    def test_delete_returns_k_effective(self, tier):
        index, _ = tier
        remaining = index.delete(3)
        assert isinstance(remaining, int)
        assert remaining == index.k_effective == 9

    def test_writes_are_counted(self, tier):
        index, recorder = tier
        index.insert(RankTuple(777, 0.5, 0.5))
        index.delete(777)
        index.delete(0)
        assert recorder.counter("delta.inserts") == 1
        assert recorder.counter("delta.deletes") == 2

    def test_delete_emptying_a_region(self, make_tier):
        # k_bound=1: each region holds exactly one tuple, so deleting a
        # region winner empties the region outright.  In-place surgery
        # (the paper-extension algorithm in repro.core.maintenance)
        # cannot represent an empty region and refuses with the typed
        # "rebuild" remedy; the write engine merges around the
        # tombstone and keeps serving exact answers — the robustness
        # win the delta store buys.
        tuples = [
            RankTuple(0, 1.0, 0.1),
            RankTuple(1, 0.1, 1.0),
            RankTuple(2, 0.5, 0.5),
        ]
        in_place = RankedJoinIndex.build(tuples, 1)
        victim = sorted(
            tid for region in in_place.regions for tid in region.tids
        )[0]
        with pytest.raises(MaintenanceError, match="rebuild"):
            delete_tuple(in_place, victim)

        pool = {t.tid: t for t in tuples if t.tid != victim}
        for kind in TIERS:
            index = make_tier(kind, tuples, 1)
            index.delete(victim)
            _settle(index)
            _assert_matches_rebuild(index, pool, 1, 1)


class TestConcurrentWalMode:
    def test_writes_merge_exactly(self):
        wal = RecordingWal()
        tuples = _tuples()
        concurrent = ConcurrentRankedJoinIndex.build(
            tuples, 12, wal=wal, delta_threshold=1000
        )
        pool = {t.tid: t for t in tuples}
        rng = np.random.default_rng(17)
        for step in range(10):
            if step % 4 == 3:
                victim = int(rng.choice(sorted(pool)))
                remaining = concurrent.delete(victim)
                del pool[victim]
                assert remaining == concurrent.k_effective
            else:
                t = RankTuple(
                    3000 + step, float(rng.random()), float(rng.random())
                )
                assert concurrent.insert(t) is True
                pool[t.tid] = t
        assert concurrent.n_live == len(pool)
        _assert_matches_rebuild(concurrent, pool, 12, 6)

    def test_background_compaction_preserves_answers(self):
        wal = RecordingWal()
        tuples = _tuples()
        concurrent = ConcurrentRankedJoinIndex.build(
            tuples, 12, wal=wal, delta_threshold=5
        )
        pool = {t.tid: t for t in tuples}
        for i in range(23):
            t = RankTuple(4000 + i, 0.2 + 0.03 * i, 0.6)
            concurrent.insert(t)
            pool[t.tid] = t
        assert concurrent.drain_compaction(timeout=10.0)
        assert concurrent.delta.n_ops < 23  # compaction drained the buffer
        _assert_matches_rebuild(concurrent, pool, 12, 6)

    def test_explicit_compact_empties_the_delta(self):
        wal = RecordingWal()
        concurrent = ConcurrentRankedJoinIndex.build(
            _tuples(), 12, wal=wal, delta_threshold=1000
        )
        concurrent.insert(RankTuple(7000, 0.9, 0.9))
        concurrent.delete(0)
        concurrent.compact()
        assert concurrent.drain_compaction(timeout=10.0)
        assert concurrent.delta.is_empty
        _assert_matches_rebuild(
            concurrent,
            {t.tid: t for t in _tuples() if t.tid != 0}
            | {7000: RankTuple(7000, 0.9, 0.9)},
            12,
            6,
        )

    def test_duplicate_insert_and_absent_delete_are_typed(self):
        concurrent = ConcurrentRankedJoinIndex.build(
            _tuples(), 10, wal=RecordingWal(), delta_threshold=1000
        )
        with pytest.raises(MaintenanceError, match="already live"):
            concurrent.insert(RankTuple(0, 0.9, 0.9))
        with pytest.raises(MaintenanceError, match="not in the index"):
            concurrent.delete(10_000)


def _gate_compaction_builds(monkeypatch, action):
    """Run ``action()`` inside every build made on the compaction thread."""
    original = RankedJoinIndex.build

    def build(tuples, k, **options):
        if threading.current_thread().name == "rji-compaction":
            action()
        return original(tuples, k, **options)

    monkeypatch.setattr(RankedJoinIndex, "build", build)


class TestConcurrentCompaction:
    def test_rebuild_supersedes_an_in_flight_compaction(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            release.wait(timeout=30.0)

        _gate_compaction_builds(monkeypatch, hold)
        recorder = MetricsRecorder()
        concurrent = ConcurrentRankedJoinIndex.build(
            _tuples(), 12, delta_threshold=3, recorder=recorder
        )
        for i in range(3):
            concurrent.insert(RankTuple(8000 + i, 0.5, 0.5 + 0.01 * i))
        assert entered.wait(timeout=10.0)  # the build of the old pool
        fresh = [
            RankTuple(20_000 + t.tid, t.s1, t.s2) for t in _tuples(50, seed=8)
        ]
        concurrent.rebuild(fresh)
        release.set()
        assert concurrent.drain_compaction(timeout=10.0)
        assert concurrent.n_live == 50
        _assert_matches_rebuild(
            concurrent, {t.tid: t for t in fresh}, 12, 5
        )
        # The superseded run installed nothing, so it is not a run.
        assert recorder.counter("compaction.runs") == 0
        assert concurrent.compaction_pauses == []
        concurrent.close()

    def test_failed_background_build_surfaces(self, monkeypatch):
        def fail():
            raise RuntimeError("disk full")

        _gate_compaction_builds(monkeypatch, fail)
        recorder = MetricsRecorder()
        concurrent = ConcurrentRankedJoinIndex.build(
            _tuples(), 12, delta_threshold=3, recorder=recorder
        )
        pool = {t.tid: t for t in _tuples()}
        for i in range(3):
            t = RankTuple(8000 + i, 0.5, 0.5 + 0.01 * i)
            concurrent.insert(t)
            pool[t.tid] = t
        concurrent._compaction_thread.join(timeout=10.0)
        assert recorder.counter("compaction.failures") == 1

        # The next write raises the typed failure and is not applied.
        with pytest.raises(CompactionError, match="disk full"):
            concurrent.insert(RankTuple(9000, 0.1, 0.1))
        assert concurrent.n_live == len(pool)
        _assert_matches_rebuild(concurrent, pool, 12, 6)

        # The failure is raised once; with the build healed, the next
        # write retries the compaction and close() joins its thread.
        monkeypatch.undo()
        concurrent.insert(RankTuple(9000, 0.1, 0.1))
        pool[9000] = RankTuple(9000, 0.1, 0.1)
        concurrent.close()
        assert concurrent.delta.n_ops == 0
        assert not concurrent._compaction_thread.is_alive()
        _assert_matches_rebuild(concurrent, pool, 12, 6)

    def test_drain_and_compact_raise_a_pending_failure(self, monkeypatch):
        def fail():
            raise RuntimeError("disk full")

        _gate_compaction_builds(monkeypatch, fail)
        concurrent = ConcurrentRankedJoinIndex.build(
            _tuples(), 12, delta_threshold=3
        )
        for i in range(3):
            concurrent.insert(RankTuple(8000 + i, 0.5, 0.5 + 0.01 * i))
        with pytest.raises(CompactionError):
            concurrent.drain_compaction(timeout=10.0)
        with pytest.raises(CompactionError):
            concurrent.compact()
        monkeypatch.undo()
        concurrent.compact()
        assert concurrent.delta.is_empty
        concurrent.close()


class TestWrappedIndex:
    """``ConcurrentRankedJoinIndex(index)`` over an already-built index."""

    def test_without_a_pool_it_refuses_writes(self):
        tuples = _tuples()
        index = RankedJoinIndex.build(tuples, 4)
        shared = ConcurrentRankedJoinIndex(index)
        assert shared.query(0.7, 4) == index.query(0.7, 4)
        with pytest.raises(MaintenanceError, match="pool="):
            shared.insert(RankTuple(9000, 0.5, 0.5))
        with pytest.raises(MaintenanceError, match="pool="):
            shared.delete(int(index.dominating.tids[0]))
        assert shared.delta.is_empty
        # A rebuild supplies the full live set, and writes work again.
        shared.rebuild(tuples)
        shared.insert(RankTuple(9000, 0.5, 0.5))
        shared.close()

    def test_compaction_keeps_the_tuples_the_build_pruned(self):
        # A tuple pruned for having exactly K dominators: once two of
        # them are deleted it belongs to some top-3 again, so the
        # compaction the deletes trigger must rebuild from the full set.
        tuples, k_bound = _tuples(), 4
        index = RankedJoinIndex.build(tuples, k_bound)
        kept = {int(tid) for tid in index.dominating.tids}
        for pruned in (t for t in tuples if t.tid not in kept):
            dominators = [
                u.tid
                for u in tuples
                if u.tid != pruned.tid
                and u.s1 >= pruned.s1
                and u.s2 >= pruned.s2
            ]
            if len(dominators) != k_bound:
                continue
            pool = {
                t.tid: t for t in tuples if t.tid not in dominators[:2]
            }
            reference = RankedJoinIndex.build(sorted(pool.values()), k_bound)
            if any(
                hit.tid == pruned.tid
                for preference in random_preferences(20, seed=9)
                for hit in reference.query(preference, 3)
            ):
                break
        else:
            pytest.fail("no pruned tuple re-enters a top-3")
        shared = ConcurrentRankedJoinIndex(index, pool=tuples)
        for tid in dominators[:2]:
            shared.delete(tid)
        assert shared.drain_compaction(timeout=10.0)
        assert shared.delta.is_empty  # 2 tombstones >= K/2: compacted
        _assert_matches_rebuild(shared, pool, k_bound, 3)
        shared.close()
