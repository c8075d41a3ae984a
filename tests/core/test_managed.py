"""Tests for the managed index (synchronous-compaction lifecycle)."""

import numpy as np
import pytest

from repro.core.managed import ManagedRankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.errors import MaintenanceError, QueryError


def _tuples(n, seed=0, offset=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet(
        np.arange(offset, offset + n),
        rng.uniform(0, 100, n),
        rng.uniform(0, 100, n),
    )


def _assert_matches_pool(managed, k, seed=0):
    rng = np.random.default_rng(seed)
    live = list(managed._writer.pool.values())
    s1 = np.array([t.s1 for t in live])
    s2 = np.array([t.s2 for t in live])
    for _ in range(25):
        pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
        got = [r.score for r in managed.query(pref, k)]
        expected = np.sort(pref.p1 * s1 + pref.p2 * s2)[::-1][:k]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestLifecycle:
    def test_insert_dedup(self):
        managed = ManagedRankedJoinIndex(_tuples(30), 4)
        with pytest.raises(MaintenanceError, match="already live"):
            managed.insert(RankTuple(0, 1.0, 1.0))

    def test_delete_unknown(self):
        managed = ManagedRankedJoinIndex(_tuples(30), 4)
        with pytest.raises(MaintenanceError, match="not in the index"):
            managed.delete(10**9)

    def test_insert_counters(self):
        managed = ManagedRankedJoinIndex(_tuples(200, seed=1), 3)
        managed.insert(RankTuple(10_000, 1000.0, 1000.0))  # new champion
        managed.insert(RankTuple(10_001, 0.001, 0.001))  # surely dominated
        assert managed.log.inserts_applied == 2
        assert managed.n_live == 202

    def test_auto_rebuild_restores_guarantee(self):
        k = 4
        managed = ManagedRankedJoinIndex(_tuples(300, seed=3), k)
        # Delete current winners until the tombstones force a rebuild.
        deletions = 0
        while managed.log.rebuilds == 0:
            winner = managed.query(Preference(1.0, 1.0), 1)[0].tid
            managed.delete(winner)
            deletions += 1
            assert deletions < 50, "rebuild never triggered"
        assert managed.k_effective == k  # restored
        managed.check_invariants()
        _assert_matches_pool(managed, k)

    def test_mixed_stream_stays_exact(self):
        k = 5
        managed = ManagedRankedJoinIndex(_tuples(150, seed=4), k)
        extra = _tuples(100, seed=5, offset=10_000)
        rng = np.random.default_rng(6)
        inserted = 0
        for step in range(120):
            if inserted < 100 and rng.uniform() < 0.6:
                managed.insert(extra.row(inserted))
                inserted += 1
            else:
                victim = managed.query(
                    Preference.from_angle(float(rng.uniform(0, np.pi / 2))), 1
                )[0].tid
                managed.delete(victim)
        managed.check_invariants()
        _assert_matches_pool(managed, min(k, managed.k_effective), seed=7)

    def test_manual_rebuild(self):
        managed = ManagedRankedJoinIndex(_tuples(80, seed=8), 4)
        managed.rebuild()
        assert managed.log.rebuilds == 1
        assert managed.log.events[-1].startswith("rebuild (requested)")

    def test_query_beyond_degraded_bound_raises(self):
        managed = ManagedRankedJoinIndex(_tuples(200, seed=9), 4)
        winner = managed.query(Preference(1.0, 1.0), 1)[0].tid
        managed.delete(winner)
        assert managed.k_effective == 3
        with pytest.raises(QueryError, match="effective"):
            managed.query(Preference(1.0, 1.0), 4)
