"""Unit tests for the wave-4 operators: corpus-bigram LM scoring,
integer-exact k-means assign/update, bounded SCC labels."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from parallel_louvain_method_ray.algos.scc import reach2_pairs, scc2_labels
from parallel_louvain_method_ray.sim.kmeans import (
    _assign_block,
    kmeans_assign,
    kmeans_update,
    quantize_matrix,
)
from parallel_louvain_method_ray.textops.lm import bigram_model, score_docs


def _docs(texts, parts=3):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(parts)


def test_lm_score_matches_sequential(ray_session):
    texts = [
        "a b a b c",      # bigrams: ab, ba, ab, bc
        "a b",            # ab
        "c",              # none -> absent from output
        "b c a",          # bc, ca
    ]
    # corpus counts: ab=3, ba=1, bc=2, ca=1
    got = {
        r["doc_id"]: (r["n_bigrams"], r["lm_score"])
        for r in score_docs(_docs(texts), bigram_model(_docs(texts))).take_all()
    }
    assert got == {
        0: (4, 3 + 1 + 3 + 2),
        1: (1, 3),
        3: (2, 2 + 1),
    }


def _emb_ds(M, parts=3):
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(M)), pa.int64()),
                "embedding": pa.array(
                    [row.tolist() for row in M], pa.list_(pa.float32())
                ),
            }
        )
    ).repartition(parts)


def test_kmeans_assign_exact_and_tiebreak(ray_session):
    rng = np.random.RandomState(3)
    M = rng.randn(40, 8).astype(np.float32)
    M[7] = M[1]  # duplicate of centroid 1 -> dist 0, must pick cid 1
    ds = _emb_ds(M)
    cids = np.arange(4, dtype=np.int64)
    C = quantize_matrix(M[:4].astype(np.float64))
    got = {
        r["vec_id"]: (r["centroid_id"], r["dist2"])
        for r in kmeans_assign(ds, cids, C).take_all()
    }
    Q = quantize_matrix(M.astype(np.float64))
    for i in range(len(M)):
        d2 = ((Q[i] - C) ** 2).sum(axis=1)
        k = int(np.argmin(d2))  # np.argmin takes first min = lowest cid
        assert got[i] == (k, int(d2[k]))
    assert got[7] == (1, 0)


def test_kmeans_update_partials_sum_exactly(ray_session):
    rng = np.random.RandomState(5)
    M = rng.randn(30, 4).astype(np.float32)
    ds = _emb_ds(M, parts=5)
    cids = np.arange(3, dtype=np.int64)
    C = quantize_matrix(M[:3].astype(np.float64))
    rows = kmeans_update(ds, cids, C).take_all()
    Q = quantize_matrix(M.astype(np.float64))
    best, _ = _assign_block(Q, cids, C)
    for r in rows:
        sel = best == r["centroid_id"]
        assert r["n"] == int(sel.sum())
        assert r["sum_q"] == int(Q[sel, r["dim"]].sum())
    # every (centroid with members) x dim present
    assert len(rows) == len(np.unique(best)) * 4


def _edges_ds(pairs, parts=2):
    s, d = zip(*pairs) if pairs else ((), ())
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(list(s), pa.int64()),
                "dst": pa.array(list(d), pa.int64()),
            }
        )
    ).repartition(parts)


def _scc2_ref(pairs, n):
    adj = [set() for _ in range(n)]
    for s, d in pairs:
        if s != d:
            adj[s].add(d)
    reach = []
    for u in range(n):
        r = {u} | adj[u]
        for v in list(adj[u]):
            r |= adj[v]
        reach.append(r)
    return {
        u: min(v for v in reach[u] if u in reach[v] and v in reach[u])
        for u in range(n)
    }


def test_scc2_matches_reference(ray_session):
    rng = np.random.RandomState(9)
    n = 30
    pairs = list(
        {(int(rng.randint(n)), int(rng.randint(n))) for _ in range(80)}
    )
    got = {
        r["vid"]: r["scc2_label"]
        for r in scc2_labels(_edges_ds(pairs), n, num_partitions=2).take_all()
    }
    assert got == _scc2_ref(pairs, n)


def test_scc2_cycle_and_isolates(ray_session):
    # 0->1->2->0 is a directed triangle: all mutual within 2 hops
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4)]
    got = {
        r["vid"]: r["scc2_label"]
        for r in scc2_labels(_edges_ds(pairs), 6, num_partitions=1).take_all()
    }
    assert got[0] == 0 and got[1] == 0 and got[2] == 0
    assert got[3] == 3 and got[4] == 4 and got[5] == 5


def test_reach2_pairs_rejects_packing_overflow(ray_session):
    # u*n+v packs into int64 only while n^2 < 2^63; the guard must also
    # hold under `python -O`, which strips asserts
    with pytest.raises(ValueError):
        reach2_pairs(_edges_ds([(0, 1)]), 3_037_000_499)


def test_scc2_hub_cap_drops_middle(ray_session):
    # star: hub 0 -> {1..5}, and 1 -> 0 back-edge; mutual(1,0) exact.
    # With max_out_degree=2 the hub is dropped as a MIDDLE, so 2-hop
    # pairs THROUGH 0 vanish but 1-hop stays exact.
    pairs = [(0, k) for k in range(1, 6)] + [(1, 0)]
    exact = {
        r["vid"]: r["scc2_label"]
        for r in scc2_labels(_edges_ds(pairs), 6).take_all()
    }
    capped = {
        r["vid"]: r["scc2_label"]
        for r in scc2_labels(_edges_ds(pairs), 6, max_out_degree=2).take_all()
    }
    assert exact[1] == 0 and capped[1] == 0  # 1-hop mutuality survives
    assert all(capped[v] >= exact[v] for v in range(6))
