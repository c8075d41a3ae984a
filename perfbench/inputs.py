"""Seeded inputs shared by the benchmark driver and its server launcher.

Every input is a pure function of ``--seed``: the tuple sets, the read
angles of each workload and the write stream of the mixed phase.  The
launcher regenerates the mixed base set from the same seed, so the
program only ever receives generated inputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.tuples import RankTuple
from repro.datagen.synthetic import correlated_pairs, uniform_pairs

#: Read deployment: an anticorrelated image whose 224 pages overflow the
#: 16-page buffer pool of ``DiskRankedJoinIndex.open`` (Lemma-1-heavy build).
READ_N, READ_K, READ_QK = 20_000, 80, 20
#: Writable deployment: ``DurableRankedJoinIndex`` over a uniform set.
MIX_N, MIX_K, MIX_QK = 5_000, 20, 10
MIX_COMPACTION_THRESHOLD = 64
#: The ``repeated`` workload reads zipf-skewed from this many fixed angles
#: and gives the read deployment a hot-region cache of the same size.
N_PROBES = 64
ZIPF_S = 1.2
#: One write per ``READS_PER_WRITE`` reads in the mixed phase.
READS_PER_WRITE = 5

WORKLOADS = ("distinct", "repeated")


def read_tuples(seed: int):
    return correlated_pairs(READ_N, rho=-0.6, seed=seed)


def mixed_tuples(seed: int):
    return uniform_pairs(MIX_N, seed=seed + 1)


def probe_angles(seed: int) -> list[float]:
    """The fixed probe angles: zipf targets and post-load check points."""
    rng = np.random.default_rng(seed + 2)
    return [float(a) for a in rng.uniform(0.0, math.pi / 2.0, N_PROBES)]


def cache_size(workload: str) -> int:
    """Hot-region cache capacity the workload's deployments are given."""
    return N_PROBES if workload == "repeated" else 0


def read_angles(workload: str, seed: int, stream: int, n: int) -> list[float]:
    """``n`` read angles for one phase (``stream`` separates phases).

    ``distinct`` draws continuous uniform angles, so no angle repeats and
    no cache can help; ``repeated`` draws zipf-skewed among the probes.
    """
    rng = np.random.default_rng([seed, 100 + stream])
    if workload == "distinct":
        return [float(a) for a in rng.uniform(0.0, math.pi / 2.0, n)]
    ranks = np.arange(1, N_PROBES + 1, dtype=np.float64)
    weights = ranks ** (-ZIPF_S)
    weights /= weights.sum()
    probes = probe_angles(seed)
    return [probes[int(i)] for i in rng.choice(N_PROBES, size=n, p=weights)]


def write_stream(seed: int, n: int) -> tuple[list[tuple], dict[int, RankTuple]]:
    """``n`` live-set-aware writes and the pool they leave behind.

    Writes alternate a fresh-tid insert with a delete of a tid the
    shadow pool knows is live, so no write can fail for a workload
    reason.  Returns ``(writes, pool)`` where each write is
    ``("insert", tid, s1, s2)`` or ``("delete", tid)``.
    """
    pool = {
        int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
        for t in mixed_tuples(seed)
    }
    live = sorted(pool)
    slot = {tid: i for i, tid in enumerate(live)}
    next_tid = live[-1] + 1
    rng = np.random.default_rng([seed, 7])
    writes: list[tuple] = []
    for step in range(n):
        if step % 2 == 0:
            s1, s2 = (float(v) for v in rng.uniform(0.0, 100.0, 2))
            pool[next_tid] = RankTuple(next_tid, s1, s2)
            slot[next_tid] = len(live)
            live.append(next_tid)
            writes.append(("insert", next_tid, s1, s2))
            next_tid += 1
        else:
            victim = live[int(rng.integers(len(live)))]
            last = live.pop()
            if last != victim:
                live[slot[victim]] = last
                slot[last] = slot[victim]
            del slot[victim], pool[victim]
            writes.append(("delete", victim))
    return writes, pool
