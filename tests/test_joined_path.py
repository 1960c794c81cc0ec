"""Sharded-tier (state/spmv_pool.py) iterative algorithms vs the
broadcast engine. The sharded tier keeps no O(V) state on the driver
(SURVEY §4.3); on integer-weight fixtures its Louvain must match the
pure-Jacobi kernel loop BIT-FOR-BIT at every pool size, and
PageRank/CC/LPA must match the broadcast engine."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from parallel_louvain_method_ray.algos.components import connected_components
from parallel_louvain_method_ray.algos.joined import (
    _collect,
    joined_graph_from_handle,
    louvain_jacobi_numpy,
    louvain_joined,
)
from parallel_louvain_method_ray.algos.lpa import label_propagation
from parallel_louvain_method_ray.algos.pagerank import pagerank
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.graph.csr import shard_to_entries, unpack_shards
from parallel_louvain_method_ray.state.spmv_pool import (
    bfs_partitioned,
    cc_partitioned,
    hits_partitioned,
    katz_partitioned,
    kcore_peel_partitioned,
    lpa_partitioned,
    pagerank_partitioned,
    sssp_partitioned,
)
from tests.fixtures import planted_partition_graph, random_graph


def _graph(src, dst, w, P=3):
    return graph_from_entry_arrays(
        np.asarray(src, np.int64),
        np.asarray(dst, np.int64),
        np.asarray(w, np.float64),
        EngineConfig(num_partitions=P),
    )


def _entries_of(g):
    srcs, dsts, ws = [], [], []
    for b in g.shards.iter_batches(batch_format="pyarrow"):
        for sh in unpack_shards(pa.table(b)):
            s, d, w = shard_to_entries(sh)
            srcs.append(s)
            dsts.append(d)
            ws.append(w)
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(ws)


def _col(ds, col):
    t = _collect(ds.sort("vid"))
    return t.column(col).to_numpy(zero_copy_only=False)


@pytest.mark.parametrize("partitions", [None, 2, 5])
def test_louvain_joined_bitwise_matches_jacobi_kernel(partitions):
    # planted community structure, integer weights -> every float sum is
    # exact, so the sharded sweeps must reproduce the numpy Jacobi kernel
    # loop bit-for-bit (assignments AND Q). None is the size-aware pool
    # (one actor on this fixture); 2 and 5 run the cross-actor exchange
    # and a level with fewer communities than blocks.
    src, dst, w, _ = planted_partition_graph(48, 4, 6, 1, seed=11)
    g = _graph(src, dst, np.ones(len(src)), P=4)
    jg = joined_graph_from_handle(g)
    mem_ds, q, levels = louvain_joined(
        jg, max_sweeps=4, max_levels=2, partitions=partitions
    )
    mem = _col(mem_ds, "comm")
    es, ed, ew = _entries_of(g)
    mem_ref, q_ref = louvain_jacobi_numpy(
        es, ed, ew, g.n, max_sweeps=4, max_levels=2
    )
    np.testing.assert_array_equal(mem, mem_ref)
    assert q == q_ref  # bitwise: identical float
    assert levels  # at least one level of actual moves


def test_pagerank_joined_matches_broadcast():
    src, dst, w = random_graph(70, 5, seed=9, weights=True)
    g = _graph(src, dst, w, P=3)
    jg = joined_graph_from_handle(g)
    ranks_ds, meta = pagerank_partitioned(jg.edges, jg.n, tol=0.0, max_iter=5)
    rj = _col(ranks_ds, "rank")
    rb, _ = pagerank(g, tol=0.0, max_iter=5)
    np.testing.assert_allclose(rj, rb, atol=1e-12)
    assert meta["iterations"] == 5


def test_cc_joined_exact():
    # two components
    src = np.array([0, 1, 2, 5, 6], dtype=np.int64)
    dst = np.array([1, 2, 3, 6, 7], dtype=np.int64)
    g = _graph(src, dst, np.ones(5), P=2)
    jg = joined_graph_from_handle(g)
    lab_ds, meta = cc_partitioned(jg.edges, jg.n)
    lj = _col(lab_ds, "label")
    lb, _ = connected_components(g)
    np.testing.assert_array_equal(lj, lb)


def test_cc_joined_pointer_doubling_on_path_graph():
    # a 48-vertex path: plain min-label propagation needs ~47 rounds (the
    # min label travels one hop per round); with pointer doubling the jump
    # label(v) <- label(label(v)) contracts chains, so rounds stay
    # O(log diameter). Labels must be identical either way. partitions=3
    # runs the jump's request / serve / apply gather across actors.
    n = 48
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    g = _graph(src, dst, np.ones(n - 1), P=2)
    jg = joined_graph_from_handle(g)
    lb, _ = connected_components(g)
    for partitions in (None, 3):
        lab_ds, meta = cc_partitioned(
            jg.edges, jg.n, partitions=partitions, pointer_doubling_after=2
        )
        lj = _col(lab_ds, "label")
        np.testing.assert_array_equal(lj, np.zeros(n, dtype=np.int64))
        # plain propagation would need n-1 = 47 rounds on this path (min
        # label travels one hop per round); doubling must stay logarithmic
        assert meta["rounds"] <= 14, meta
        assert meta["jumps"] >= 1, meta
        np.testing.assert_array_equal(lj, lb)


def test_lpa_joined_matches_broadcast():
    src, dst, w, _ = planted_partition_graph(36, 3, 5, 1, seed=4)
    g = _graph(src, dst, np.ones(len(src)), P=3)
    jg = joined_graph_from_handle(g)
    lab_ds, meta = lpa_partitioned(jg.edges, jg.n, max_sweeps=3)
    lj = _col(lab_ds, "label")
    lb, _ = label_propagation(g, max_sweeps=3)
    np.testing.assert_array_equal(lj, lb)


def test_louvain_joined_hub_fixture_bitwise():
    # hub fixture: a star center with high degree. (The r4 all-Dataset
    # sweep salted its neighbor-weight groupby for hubs; the sharded pool
    # pre-combines per-(src, comm) partials per sender instead.) Result
    # must be bit-identical to the Jacobi kernel (integer weights).
    src, dst, w, _ = planted_partition_graph(30, 3, 4, 1, seed=7)
    hub_src = np.zeros(29, dtype=np.int64)
    hub_dst = np.arange(1, 30, dtype=np.int64)
    src = np.concatenate([src, hub_src])
    dst = np.concatenate([dst, hub_dst])
    g = _graph(src, dst, np.ones(len(src)), P=3)
    jg = joined_graph_from_handle(g)
    es, ed, ew = _entries_of(g)
    assert np.bincount(es).max() > 3
    mem_s, q_s, _ = louvain_joined(jg, max_sweeps=3, max_levels=1)
    mem_ref, q_ref = louvain_jacobi_numpy(es, ed, ew, g.n, max_sweeps=3, max_levels=1)
    np.testing.assert_array_equal(_col(mem_s, "comm"), mem_ref)
    assert q_s == q_ref


def test_bfs_joined_matches_broadcast():
    from parallel_louvain_method_ray.algos.bfs import bfs_distances

    src, dst, w = random_graph(60, 4, seed=21)
    g = _graph(src, dst, w, P=3)
    jg = joined_graph_from_handle(g)
    seeds = np.array([0, 19, 44])
    dist_ds, meta = bfs_partitioned(jg.edges, jg.n, seeds)
    dj = _col(dist_ds, "dist")
    db, _ = bfs_distances(g, seeds)
    np.testing.assert_array_equal(dj, db)
    assert meta["rounds"] >= 2


def test_kcore_joined_matches_broadcast():
    """VERDICT r3 #4: the peel on the join path (alive as a Dataset) must
    equal the broadcast peel round-for-round — at the fixpoint AND at a
    pre-convergence round bound."""
    from parallel_louvain_method_ray.algos.kcore import kcore_bounded

    src, dst, w = random_graph(80, 6, seed=33)
    edges = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst})
    ).repartition(3)
    for k, rounds in ((3, 16), (4, 2), (5, 16)):
        alive_b, _ = kcore_bounded(edges, 80, k=k, rounds=rounds)
        alive_ds, meta = kcore_peel_partitioned(edges, k=k, rounds=rounds)
        t = _collect(alive_ds)
        got = (
            np.sort(t.column("vid").to_numpy(zero_copy_only=False))
            if t.num_rows
            else np.array([], dtype=np.int64)
        )
        np.testing.assert_array_equal(got, np.flatnonzero(alive_b))
        assert meta["n_alive"] == int(alive_b.sum())


def test_kcore_joined_peels_to_empty():
    # a path graph has no 2-core
    n = 10
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": np.arange(n - 1, dtype=np.int64),
                "dst": np.arange(1, n, dtype=np.int64),
            }
        )
    )
    alive_ds, meta = kcore_peel_partitioned(edges, k=2, rounds=16)
    assert meta["n_alive"] == 0
    assert alive_ds.count() == 0


def test_katz_joined_matches_broadcast():
    from parallel_louvain_method_ray.algos.pagerank import katz_centrality

    src, dst, w = random_graph(70, 5, seed=41, weights=True)
    g = _graph(src, dst, w, P=3)
    jg = joined_graph_from_handle(g)
    xj_ds, _ = katz_partitioned(
        jg.edges, jg.n, alpha=0.005, beta=1.0, iters=5, weight_col="weight"
    )
    xj = _col(xj_ds, "katz")
    xb, _ = katz_centrality(g, alpha=0.005, beta=1.0, iters=5)
    np.testing.assert_allclose(xj, xb, rtol=1e-9)


def test_sssp_joined_matches_broadcast():
    from parallel_louvain_method_ray.algos.bfs import sssp_hops

    src, dst, w = random_graph(60, 4, seed=51, weights=True)
    g = _graph(src, dst, w, P=3)
    jg = joined_graph_from_handle(g)
    seeds = np.array([0, 33])
    for hops in (2, 8):  # pre-convergence bound AND (likely) fixpoint
        dj_ds, _ = sssp_partitioned(jg.edges, jg.n, seeds, hops=hops)
        dj = _col(dj_ds, "dist")
        db, _ = sssp_hops(g, seeds, hops=hops)
        np.testing.assert_allclose(dj, db, rtol=1e-12)


def test_hits_joined_matches_broadcast():
    from parallel_louvain_method_ray.algos.hits import hits

    src, dst, w = random_graph(50, 4, seed=61, weights=True)
    # directed edges with weights
    edges = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst, "n_anchors": w})
    ).repartition(3)
    hb, ab, _ = hits(edges, 50, iters=3, weight_col="n_anchors")
    out_ds, _ = hits_partitioned(edges, 50, iters=3, weight_col="n_anchors")
    t = _collect(out_ds.sort("vid"))
    np.testing.assert_allclose(
        t.column("hub").to_numpy(zero_copy_only=False), hb, rtol=1e-9
    )
    np.testing.assert_allclose(
        t.column("authority").to_numpy(zero_copy_only=False), ab, rtol=1e-9
    )
