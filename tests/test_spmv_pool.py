"""BSP SpMV pool (state/spmv_pool.py): partition-count sweep parity of
hits_partitioned / katz_partitioned against the broadcast twins
(algos.hits.hits / algos.pagerank.katz_centrality), plus edge cases
(isolated vertices, unweighted input, iters validation)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from parallel_louvain_method_ray.state.spmv_pool import (
    hits_partitioned,
    katz_partitioned,
)


def _directed_edges(seed=7, n=60, m=400, blocks=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    w = rng.integers(1, 5, m).astype(np.float64)
    ds = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst, "n_anchors": w})
    ).repartition(blocks)
    return ds, src, dst, w


def _col(ds, name):
    t = pa.concat_tables(
        pa.table(b) for b in ds.sort("vid").iter_batches(batch_format="pyarrow")
    )
    return t.column(name).to_numpy(zero_copy_only=False)


@pytest.mark.parametrize("P", [1, 2, 5])
def test_hits_partitioned_matches_broadcast(P):
    from parallel_louvain_method_ray.algos.hits import hits

    n = 60
    edges, *_ = _directed_edges(n=n)
    hb, ab, _ = hits(edges, n, iters=3, weight_col="n_anchors")
    out, info = hits_partitioned(
        edges, n, iters=3, weight_col="n_anchors", partitions=P
    )
    assert info["iterations"] == 3
    assert out.count() == n
    np.testing.assert_array_equal(_col(out, "vid"), np.arange(n))
    np.testing.assert_allclose(_col(out, "hub"), hb, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        _col(out, "authority"), ab, rtol=1e-12, atol=1e-15
    )


@pytest.mark.parametrize("P", [1, 3])
def test_katz_partitioned_matches_broadcast(P):
    from parallel_louvain_method_ray.algos.pagerank import katz_centrality
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays

    # katz_centrality runs on the symmetrized graph: build entries both
    # ways so the pool sees the same A as the broadcast engine
    rng = np.random.default_rng(3)
    n, m = 40, 150
    a = rng.integers(0, n, m).astype(np.int64)
    b = rng.integers(0, n, m).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    g = graph_from_entry_arrays(
        a, b, np.ones(len(a)), EngineConfig(num_partitions=4)
    )
    xb, _ = katz_centrality(g, alpha=0.005, beta=1.0, iters=5)
    # pool input: the symmetrized entry table (src, dst, weight)
    from parallel_louvain_method_ray.graph.csr import (
        shard_to_entries,
        unpack_shards,
    )

    srcs, dsts, ws = [], [], []
    for bt in g.shards.iter_batches(batch_format="pyarrow"):
        for sh in unpack_shards(pa.table(bt)):
            s, d, w = shard_to_entries(sh)
            srcs.append(np.asarray(s, np.int64))
            dsts.append(np.asarray(d, np.int64))
            ws.append(np.asarray(w, np.float64))
    entries = ray.data.from_arrow(
        pa.table(
            {
                "src": np.concatenate(srcs),
                "dst": np.concatenate(dsts),
                "weight": np.concatenate(ws),
            }
        )
    ).repartition(3)
    out, _ = katz_partitioned(
        entries, g.n, alpha=0.005, beta=1.0, iters=5,
        weight_col="weight", partitions=P,
    )
    np.testing.assert_allclose(_col(out, "katz"), xb, rtol=1e-12, atol=1e-15)


def test_hits_partitioned_isolated_vertices_and_unweighted():
    """vids past every edge endpoint get hub=authority=0; weight_col=None
    counts each edge once."""
    from parallel_louvain_method_ray.algos.hits import hits

    n = 12
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": np.array([0, 1, 2, 0], dtype=np.int64),
                "dst": np.array([3, 3, 4, 4], dtype=np.int64),
            }
        )
    )
    hb, ab, _ = hits(edges, n, iters=2)
    out, _ = hits_partitioned(edges, n, iters=2, partitions=3)
    np.testing.assert_allclose(_col(out, "hub"), hb, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        _col(out, "authority"), ab, rtol=1e-12, atol=1e-15
    )
    assert _col(out, "hub")[5:].sum() == 0.0


@pytest.mark.parametrize("P", [1, 4])
def test_cc_partitioned_matches_broadcast(P):
    from parallel_louvain_method_ray.algos.components import (
        connected_components,
    )
    from parallel_louvain_method_ray.algos.joined import joined_graph_from_handle
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
    from parallel_louvain_method_ray.state.spmv_pool import cc_partitioned

    # three components incl. isolated vid 10
    src = np.array([0, 1, 2, 5, 6, 8], dtype=np.int64)
    dst = np.array([1, 2, 3, 6, 7, 9], dtype=np.int64)
    g = graph_from_entry_arrays(
        src, dst, np.ones(6), EngineConfig(num_partitions=2)
    )
    lb, _ = connected_components(g)
    out, meta = cc_partitioned(joined_graph_from_handle(g).edges, g.n, partitions=P)
    np.testing.assert_array_equal(_col(out, "label"), lb)
    assert _col(out, "label").dtype == np.int64
    assert meta["rounds"] >= 2


def test_sssp_partitioned_hop_bound_matches_broadcast():
    from parallel_louvain_method_ray.algos.bfs import sssp_hops
    from parallel_louvain_method_ray.algos.joined import joined_graph_from_handle
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
    from parallel_louvain_method_ray.state.spmv_pool import sssp_partitioned

    rng = np.random.default_rng(9)
    n, m = 50, 120
    a = rng.integers(0, n, m).astype(np.int64)
    b = rng.integers(0, n, m).astype(np.int64)
    keep = a != b
    w = rng.uniform(0.5, 2.0, keep.sum())
    g = graph_from_entry_arrays(
        a[keep], b[keep], w, EngineConfig(num_partitions=3)
    )
    seeds = np.array([0, 17])
    for hops in (2, 8):  # pre-convergence bound AND (likely) fixpoint
        db, _ = sssp_hops(g, seeds, hops=hops)
        out, _ = sssp_partitioned(
            joined_graph_from_handle(g).edges, g.n, seeds, hops=hops,
            partitions=3,
        )
        np.testing.assert_allclose(
            _col(out, "dist"), db, rtol=1e-12, atol=0
        )


@pytest.mark.parametrize("P", [1, 4])
def test_pagerank_partitioned_matches_broadcast(P):
    from parallel_louvain_method_ray.algos.joined import (
        joined_graph_from_handle,
    )
    from parallel_louvain_method_ray.algos.pagerank import pagerank
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
    from parallel_louvain_method_ray.state.spmv_pool import (
        pagerank_partitioned,
    )

    rng = np.random.default_rng(21)
    n, m = 45, 160
    a = rng.integers(0, n, m).astype(np.int64)
    b = rng.integers(0, n, m).astype(np.int64)
    keep = a != b
    g = graph_from_entry_arrays(
        a[keep], b[keep], np.ones(keep.sum()), EngineConfig(num_partitions=3)
    )
    rb, _ = pagerank(g, tol=0.0, max_iter=5)
    out, info = pagerank_partitioned(
        joined_graph_from_handle(g).edges, g.n, tol=0.0, max_iter=5,
        partitions=P,
    )
    assert info["iterations"] == 5
    np.testing.assert_allclose(_col(out, "rank"), rb, rtol=1e-12, atol=1e-16)
    # tol>0 path: early exit triggers and deltas agree across P
    out2, info2 = pagerank_partitioned(
        joined_graph_from_handle(g).edges, g.n, tol=1e-3, max_iter=50,
        partitions=P,
    )
    assert info2["iterations"] < 50
    assert info2["l1_delta"] < 1e-3


@pytest.mark.parametrize("P", [1, 4])
def test_lpa_partitioned_matches_broadcast(P):
    from parallel_louvain_method_ray.algos.joined import (
        joined_graph_from_handle,
    )
    from parallel_louvain_method_ray.algos.lpa import label_propagation
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
    from parallel_louvain_method_ray.state.spmv_pool import lpa_partitioned
    from tests.fixtures import planted_partition_graph

    src, dst, w, _ = planted_partition_graph(40, 4, 6, 1, seed=17)
    g = graph_from_entry_arrays(
        np.asarray(src, np.int64), np.asarray(dst, np.int64),
        np.ones(len(src)), EngineConfig(num_partitions=3),
    )
    for sweeps in (1, 3):
        lb, _ = label_propagation(g, max_sweeps=sweeps)
        out, meta = lpa_partitioned(
            joined_graph_from_handle(g).edges, g.n, max_sweeps=sweeps,
            partitions=P,
        )
        np.testing.assert_array_equal(_col(out, "label"), lb)
        assert meta["sweeps"] <= sweeps


def test_pool_hub_skew_star_graph():
    """A star hub (one vertex on every edge) concentrates one partition's
    work but must not change results: HITS, PageRank, CC and LPA on a
    star-plus-ring fixture match their broadcast twins at P=4."""
    from parallel_louvain_method_ray.algos.components import (
        connected_components,
    )
    from parallel_louvain_method_ray.algos.hits import hits
    from parallel_louvain_method_ray.algos.joined import (
        joined_graph_from_handle,
    )
    from parallel_louvain_method_ray.algos.lpa import label_propagation
    from parallel_louvain_method_ray.algos.pagerank import pagerank
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
    from parallel_louvain_method_ray.state.spmv_pool import (
        cc_partitioned,
        hits_partitioned,
        lpa_partitioned,
        pagerank_partitioned,
    )

    n = 101  # vertex 0 is the hub of a 100-leaf star; leaves form a ring
    leaves = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([np.zeros(n - 1, dtype=np.int64), leaves])
    dst = np.concatenate([leaves, np.roll(leaves, -1)])
    g = graph_from_entry_arrays(
        src, dst, np.ones(len(src)), EngineConfig(num_partitions=4)
    )
    edges = joined_graph_from_handle(g).edges

    rb, _ = pagerank(g, tol=0.0, max_iter=5)
    out, _ = pagerank_partitioned(edges, g.n, tol=0.0, max_iter=5, partitions=4)
    np.testing.assert_allclose(_col(out, "rank"), rb, rtol=1e-12)

    lb, _ = connected_components(g)
    out, _ = cc_partitioned(edges, g.n, partitions=4)
    np.testing.assert_array_equal(_col(out, "label"), lb)

    ll, _ = label_propagation(g, max_sweeps=2)
    out, _ = lpa_partitioned(edges, g.n, max_sweeps=2, partitions=4)
    np.testing.assert_array_equal(_col(out, "label"), ll)

    hb, ab, _ = hits(edges, g.n, iters=2, weight_col="weight")
    out, _ = hits_partitioned(
        edges, g.n, iters=2, weight_col="weight", partitions=4
    )
    np.testing.assert_allclose(_col(out, "hub"), hb, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        _col(out, "authority"), ab, rtol=1e-12, atol=1e-15
    )


def test_hits_joined_delegates_and_validates():
    edges, *_ = _directed_edges(n=20, m=60, blocks=2)
    with pytest.raises(ValueError):
        hits_partitioned(edges, 20, iters=0)
    out, info = hits_partitioned(edges, 20, iters=1, weight_col="n_anchors")
    assert out.count() == 20
    assert info["iterations"] == 1


@pytest.mark.parametrize("P", [1, 2])
def test_pool_rejects_out_of_range_vids(P):
    """A vid outside [0, n) must raise ValueError at ingest / seed init:
    `v - pid` for v = -1 is slice index -1, which numpy wraps onto the
    last vid homed on actor P-1. The peel rejects a negative vid always
    and one >= n when given n."""
    from parallel_louvain_method_ray.state.spmv_pool import (
        bfs_partitioned,
        kcore_peel_partitioned,
        pagerank_partitioned,
    )

    n = 6
    bad = ray.data.from_arrow(
        pa.table(
            {
                "src": np.array([0, 1, 2, 3, -1], dtype=np.int64),
                "dst": np.array([1, 2, 3, 4, 0], dtype=np.int64),
                "weight": np.ones(5),
            }
        )
    )
    with pytest.raises(ValueError):
        hits_partitioned(bad, n, iters=2, partitions=P)
    with pytest.raises(ValueError):
        pagerank_partitioned(bad, n, tol=0.0, max_iter=2, partitions=P)
    too_big = ray.data.from_arrow(
        pa.table(
            {
                "src": np.array([0, 1], dtype=np.int64),
                "dst": np.array([1, n], dtype=np.int64),
            }
        )
    )
    with pytest.raises(ValueError):
        hits_partitioned(too_big, n, iters=2, partitions=P)
    ok = ray.data.from_arrow(
        pa.table(
            {
                "src": np.array([0, 1, 2], dtype=np.int64),
                "dst": np.array([1, 2, 3], dtype=np.int64),
            }
        )
    )
    with pytest.raises(ValueError):
        bfs_partitioned(ok, n, seeds=[-1], partitions=P)
    with pytest.raises(ValueError):
        kcore_peel_partitioned(bad, k=1, rounds=2, partitions=P)
    with pytest.raises(ValueError):
        kcore_peel_partitioned(too_big, k=1, rounds=2, n=n, partitions=P)
    alive, _ = kcore_peel_partitioned(too_big, k=1, rounds=2, partitions=P)
    assert alive.count() == 3


def test_pool_reuses_idle_actors():
    """A clean pool exit keeps its emptied actors for the next pool of the
    same class, which resets them (same results as fresh actors); an actor
    that died while idle is replaced, and a pool that fails keeps none."""
    import ray

    from parallel_louvain_method_ray.algos.hits import hits
    from parallel_louvain_method_ray.state import spmv_pool as sp

    n = 60
    edges, *_ = _directed_edges(n=n)
    hb, ab, _ = hits(edges, n, iters=3, weight_col="n_anchors")
    sp._idle.clear()
    for _ in range(2):
        out, _ = hits_partitioned(
            edges, n, iters=3, weight_col="n_anchors", partitions=2
        )
        np.testing.assert_allclose(_col(out, "hub"), hb, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            _col(out, "authority"), ab, rtol=1e-12, atol=1e-15
        )
        (idle,) = sp._idle.values()
        assert len(idle) == 2
        idle.reverse()  # the next pool gives each actor the other pid
    ray.kill(idle[0])
    out, _ = hits_partitioned(edges, n, iters=3, weight_col="n_anchors", partitions=2)
    np.testing.assert_allclose(_col(out, "hub"), hb, rtol=1e-12, atol=1e-15)
    bad = ray.data.from_arrow(
        pa.table({"src": np.array([0, -1]), "dst": np.array([1, 0])})
    )
    with pytest.raises(ValueError):
        hits_partitioned(bad, n, iters=1, partitions=2)
    assert sum(len(v) for v in sp._idle.values()) == 0
