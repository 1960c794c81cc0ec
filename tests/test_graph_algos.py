"""PageRank / CC / LPA / triangle tests against hand oracles (FIXTURES.md §4)."""

import numpy as np
import pytest

from parallel_louvain_method_ray.algos.components import (
    components_oracle,
    connected_components,
)
from parallel_louvain_method_ray.algos.louvain import canonicalize_labels
from parallel_louvain_method_ray.algos.lpa import label_propagation, lpa_oracle
from parallel_louvain_method_ray.algos.pagerank import pagerank, pagerank_oracle
from parallel_louvain_method_ray.algos.triangles import (
    triangle_counts,
    triangles_oracle,
)
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from tests.fixtures import random_graph


def _graph(src, dst, w=None, P=3, **kw):
    w = np.ones(len(src), dtype=np.float64) if w is None else w
    return graph_from_entry_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        EngineConfig(num_partitions=P),
        **kw,
    )


# ---------------------------------------------------------------- PageRank
def test_pagerank_cycle_uniform():
    # 4-cycle: symmetric -> uniform 0.25
    g = _graph([0, 1, 2, 3], [1, 2, 3, 0])
    ranks, meta = pagerank(g)
    np.testing.assert_allclose(ranks, 0.25, atol=1e-6)


def test_pagerank_star_with_dangling():
    # directed star 1..4 -> 0; 0 is dangling (no out-edges)
    src = np.array([1, 2, 3, 4], dtype=np.int64)
    dst = np.zeros(4, dtype=np.int64)
    w = np.ones(4)
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=2),
        already_symmetrized=True, n_vertices=5,
    )
    ranks, _ = pagerank(g)
    oracle = pagerank_oracle(src, dst, w, 5)
    np.testing.assert_allclose(ranks, oracle, atol=1e-9)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-9)
    assert ranks[0] > ranks[1]


def test_pagerank_random_graph_matches_oracle():
    src, dst, w = random_graph(150, 6, seed=5, weights=True)
    g = _graph(src, dst, w, P=4)
    ranks, _ = pagerank(g, tol=1e-12)
    # oracle over the SAME symmetrized deduped entry list
    from parallel_louvain_method_ray.algos.louvain_seq import SequentialCSR

    csr = SequentialCSR(src, dst, w)
    oracle = pagerank_oracle(csr.src, csr.cols, csr.weights, g.n, tol=1e-12)
    np.testing.assert_allclose(ranks, oracle, atol=1e-6)


# ---------------------------------------------------------- components
def test_cc_two_components_and_isolated():
    # component {0,1,2}, component {3,4}, isolated 5
    src = [0, 1, 3]
    dst = [1, 2, 4]
    g = _graph(src, dst, P=2)
    g = graph_from_entry_arrays(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.ones(3),
        EngineConfig(num_partitions=2),
        n_vertices=6,
    )
    labels, meta = connected_components(g)
    np.testing.assert_array_equal(labels, [0, 0, 0, 3, 3, 5])


def test_cc_random_matches_union_find():
    src, dst, w = random_graph(400, 3, seed=9)
    # break density: drop the ring edges for some isolated-ish structure
    g = _graph(src, dst, w, P=4)
    labels, _ = connected_components(g)
    oracle = components_oracle(src, dst, g.n)
    np.testing.assert_array_equal(labels, oracle)


# ----------------------------------------------------------------- LPA
def test_lpa_two_cliques_bridge():
    # two 4-cliques joined by one bridge edge
    def clique(vs):
        return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]

    e = clique([0, 1, 2, 3]) + clique([4, 5, 6, 7]) + [(3, 4)]
    src = np.array([a for a, _ in e], dtype=np.int64)
    dst = np.array([b for _, b in e], dtype=np.int64)
    g = _graph(src, dst, P=2)
    labels, _ = label_propagation(g)
    canon = canonicalize_labels(labels)
    np.testing.assert_array_equal(canon[:4], [0, 0, 0, 0])
    np.testing.assert_array_equal(canon[4:], [1, 1, 1, 1])


def test_lpa_matches_dense_oracle():
    src, dst, w = random_graph(60, 6, seed=21)
    g = _graph(src, dst, w, P=1)
    labels, _ = label_propagation(g, max_sweeps=8)
    from parallel_louvain_method_ray.algos.louvain_seq import SequentialCSR

    csr = SequentialCSR(src, dst, w)
    half = csr.src < csr.cols  # oracle symmetrizes internally
    oracle = lpa_oracle(
        csr.src[half], csr.cols[half], csr.weights[half], g.n, max_sweeps=8
    )
    np.testing.assert_array_equal(labels, oracle)


# ------------------------------------------------------------- triangles
def test_triangles_k4():
    # K4: 4 triangles total, 3 per vertex
    e = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = _graph([a for a, _ in e], [b for _, b in e], P=2)
    per_vertex, total = triangle_counts(g)
    assert total == 4
    np.testing.assert_array_equal(per_vertex, [3, 3, 3, 3])


def test_triangles_bipartite_zero():
    e = [(0, 2), (0, 3), (1, 2), (1, 3)]
    g = _graph([a for a, _ in e], [b for _, b in e], P=2)
    per_vertex, total = triangle_counts(g)
    assert total == 0
    assert per_vertex.sum() == 0


def test_triangles_random_matches_dense_oracle():
    src, dst, w = random_graph(80, 8, seed=13)
    g = _graph(src, dst, w, P=3)
    per_vertex, total = triangle_counts(g)
    oracle = triangles_oracle(src, dst, g.n)
    np.testing.assert_array_equal(per_vertex, oracle)
    assert total == oracle.sum() // 3


def test_triangles_join_path_matches_broadcast(monkeypatch):
    # the distributed wedge⋈edge probe (100 TB path, no O(E) broadcast)
    # must count exactly like the broadcast probe
    import parallel_louvain_method_ray.algos.triangles as triangles

    src, dst, w = random_graph(60, 7, seed=21)
    g = _graph(src, dst, w, P=3)
    pv_b, tot_b = triangle_counts(g)  # small graph: broadcast probe
    monkeypatch.setattr(triangles, "JOIN_THRESHOLD_ENTRIES", 0)
    pv_j, tot_j = triangle_counts(g)
    np.testing.assert_array_equal(pv_b, pv_j)
    assert tot_b == tot_j


def test_triangles_reject_n_beyond_pair_key_bound():
    """a*n + b pair keys wrap int64 from n = 3e9 on: refuse before any
    degree array is allocated or any task runs."""

    class _Huge:
        n = 3_000_000_000
        n_entries = 0

        @property
        def shards(self):
            raise AssertionError("touched the graph")

    with pytest.raises(ValueError, match="n < 3e9"):
        triangle_counts(_Huge())


# ---------------------------------------------------------- bfs
def test_bfs_path_graph_multi_round():
    from parallel_louvain_method_ray.algos.bfs import bfs_distances

    n = 24  # path 0-1-2-...-23, seed at 0: dist == vid
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    g = graph_from_entry_arrays(
        src, dst, np.ones(n - 1), EngineConfig(num_partitions=3), n_vertices=n
    )
    dist, meta = bfs_distances(g, np.array([0]))
    np.testing.assert_array_equal(dist, np.arange(n))
    assert meta["rounds"] >= 2  # crosses partitions, not a 1-round toy


def test_bfs_multi_source_random_vs_oracle():
    from parallel_louvain_method_ray.algos.bfs import bfs_distances, bfs_oracle

    src, dst, w = random_graph(60, 4, seed=11)
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=4), n_vertices=60
    )
    seeds = np.array([0, 17, 41])
    dist, _ = bfs_distances(g, seeds)
    # oracle walks the symmetrized edge set like the engine
    s2 = np.concatenate([src, dst])
    d2 = np.concatenate([dst, src])
    want = bfs_oracle(s2, d2, 60, seeds)
    np.testing.assert_array_equal(dist, want)


def test_bfs_unreachable_keeps_inf_sentinel():
    from parallel_louvain_method_ray.algos.bfs import bfs_distances

    # two components: {0,1}, {2,3}; seed only in the first
    g = graph_from_entry_arrays(
        np.array([0, 2], dtype=np.int64),
        np.array([1, 3], dtype=np.int64),
        np.ones(2),
        EngineConfig(num_partitions=2),
        n_vertices=4,
    )
    dist, _ = bfs_distances(g, np.array([0]))
    np.testing.assert_array_equal(dist, [0, 1, 4, 4])


def test_personalized_pagerank_mass_and_locality():
    from tests.fixtures import random_graph as _rg

    src, dst, w = _rg(50, 4, seed=5, weights=True)
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=3), n_vertices=50
    )
    p = np.zeros(50)
    p[[3, 7]] = 1.0
    ranks, _ = pagerank(g, tol=0.0, max_iter=30, personalization=p)
    assert abs(ranks.sum() - 1.0) < 1e-9  # probability mass conserved
    # seeds outrank the median vertex (restart concentrates mass there)
    assert ranks[3] > np.median(ranks) and ranks[7] > np.median(ranks)
    # uniform personalization == classic pagerank
    r_uni, _ = pagerank(
        g, tol=0.0, max_iter=15, personalization=np.ones(50)
    )
    r_classic, _ = pagerank(g, tol=0.0, max_iter=15)
    np.testing.assert_allclose(r_uni, r_classic, atol=1e-12)


def test_sssp_hops_bounded_semantics():
    from parallel_louvain_method_ray.algos.bfs import sssp_hops

    # path 0-1-2-3 with weight 1 per edge, plus a heavy shortcut 0-3 (w=10)
    src = np.array([0, 1, 2, 0], dtype=np.int64)
    dst = np.array([1, 2, 3, 3], dtype=np.int64)
    w = np.array([1.0, 1.0, 1.0, 10.0])
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=2), n_vertices=4
    )
    # 1 hop: vertex 3 only reachable via the shortcut (10.0), not the path
    d1, _ = sssp_hops(g, np.array([0]), hops=1)
    np.testing.assert_allclose(d1, [0.0, 1.0, np.inf, 10.0])
    # 3 hops: the cheap 3-edge path wins
    d3, _ = sssp_hops(g, np.array([0]), hops=3)
    np.testing.assert_allclose(d3, [0.0, 1.0, 2.0, 3.0])


def test_sssp_hops_matches_dijkstra_when_converged():
    from parallel_louvain_method_ray.algos.bfs import sssp_hops
    import heapq
    from tests.fixtures import random_graph as _rg

    src, dst, w = _rg(40, 4, seed=13, weights=True)
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=3), n_vertices=40
    )
    dist, _ = sssp_hops(g, np.array([0]), hops=40)  # >= diameter: converged
    # dijkstra over the symmetrized multigraph
    adj = [[] for _ in range(40)]
    for u, v, wt in zip(src.tolist(), dst.tolist(), w.tolist()):
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    want = np.full(40, np.inf)
    want[0] = 0.0
    pq = [(0.0, 0)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > want[u]:
            continue
        for v, wt in adj[u]:
            if d + wt < want[v]:
                want[v] = d + wt
                heapq.heappush(pq, (d + wt, v))
    np.testing.assert_allclose(dist, want)


def test_kcore_bounded_peel_semantics():
    import pyarrow as pa
    import ray.data
    from parallel_louvain_method_ray.algos.kcore import kcore_bounded

    # triangle {0,1,2} (2-core) + pendant chain 2-3-4 (peels off)
    src = [0, 1, 2, 2, 3, 3]  # includes a duplicate edge + self loop
    dst = [1, 2, 0, 3, 4, 3]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )
    )
    alive, meta = kcore_bounded(edges, n=5, k=2, rounds=16)
    # synchronous peel: round 1 drops 4 (deg 1); round 2 drops 3
    np.testing.assert_array_equal(alive, [True, True, True, False, False])
    assert meta["rounds"] <= 4  # converged well before the bound
    # k=1: everything incident survives
    alive1, _ = kcore_bounded(edges, n=5, k=1, rounds=16)
    np.testing.assert_array_equal(alive1, [True] * 5)


def test_hits_matches_dense_oracle(monkeypatch):
    """The driver-local path, the SpmvPool path (gate forced to 0) and a
    dense oracle agree, and both paths reject iters < 1."""
    import pyarrow as pa
    import ray.data
    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos.hits import hits

    rng = np.random.default_rng(4)
    n, m = 30, 120
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    edges = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst})
    ).repartition(3)
    h, a, _ = hits(edges, n, iters=4)
    with pytest.raises(ValueError):
        hits(edges, n, iters=0)
    monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
    h_pool, a_pool, meta = hits(edges, n, iters=4)
    assert meta == {"iterations": 4}
    with pytest.raises(ValueError):
        hits(edges, n, iters=0)
    # dense oracle: same fixed-iteration L1-normalized recurrence
    A = np.zeros((n, n))
    for u, v in zip(src.tolist(), dst.tolist()):
        A[u, v] += 1.0
    ho = np.ones(n)
    for _ in range(4):
        ao = A.T @ ho
        ao /= ao.sum()
        ho = A @ ao
        ho /= ho.sum()
    for hh, aa in ((h, a), (h_pool, a_pool)):
        np.testing.assert_allclose(hh, ho, atol=1e-12)
        np.testing.assert_allclose(aa, ao, atol=1e-12)
    np.testing.assert_allclose(h_pool, h, atol=1e-12)
    np.testing.assert_allclose(a_pool, a, atol=1e-12)


@pytest.mark.parametrize("gate", [None, 0])
def test_hits_rejects_out_of_range_endpoint(monkeypatch, gate):
    """Both HITS paths raise ValueError on an endpoint outside [0, n):
    driver-local (gate open) and SpmvPool (gate forced to 0)."""
    import pyarrow as pa
    import ray.data
    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos.hits import hits

    if gate is not None:
        monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", gate)
    for bad in (-1, 6):
        edges = ray.data.from_arrow(
            pa.table(
                {
                    "src": np.array([0, 1, 2, 3, bad], dtype=np.int64),
                    "dst": np.array([1, 2, 3, 4, 0], dtype=np.int64),
                }
            )
        )
        with pytest.raises(ValueError):
            hits(edges, 6, iters=2)


@pytest.mark.parametrize("gate", [None, 0])
def test_bfs_sssp_reject_out_of_range_seed(monkeypatch, gate):
    """A seed outside [0, n) raises ValueError on both paths (numpy would
    wrap -1 onto vertex n-1 on the driver-local one)."""
    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos.bfs import bfs_distances, sssp_hops

    if gate is not None:
        monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", gate)
    g = graph_from_entry_arrays(
        np.array([0, 1, 2], dtype=np.int64),
        np.array([1, 2, 3], dtype=np.int64),
        np.ones(3),
        EngineConfig(num_partitions=2),
        n_vertices=4,
    )
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            bfs_distances(g, np.array([0, bad]))
        with pytest.raises(ValueError):
            sssp_hops(g, np.array([bad]), hops=2)


def test_bfs_sssp_parents_driver_local_matches_distributed(monkeypatch):
    """Small graphs route BFS/SSSP/parents to the driver-local CSR path;
    forcing the gate to 0 must reproduce identical results from the
    SpmvPool rounds (unique fixpoint / same Jacobi rounds / same min-vid
    parent rule)."""
    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos import bfs as bfs_mod

    src, dst, w = random_graph(70, 4, seed=33, weights=True)
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=4), n_vertices=70
    )
    seeds = np.array([0, 23, 55])
    d_loc, _ = bfs_mod.bfs_distances(g, seeds)
    s_loc, _ = bfs_mod.sssp_hops(g, seeds, hops=3)
    p_loc, pd_loc, _ = bfs_mod.bfs_parents(g, root=0)
    monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
    d_dist, _ = bfs_mod.bfs_distances(g, seeds)
    s_dist, _ = bfs_mod.sssp_hops(g, seeds, hops=3)
    p_dist, pd_dist, _ = bfs_mod.bfs_parents(g, root=0)
    np.testing.assert_array_equal(d_loc, d_dist)
    np.testing.assert_allclose(s_loc, s_dist, rtol=0, atol=0)
    np.testing.assert_array_equal(p_loc, p_dist)
    np.testing.assert_array_equal(pd_loc, pd_dist)


def test_kcore_bounded_dedups_raw_edges_on_both_paths(monkeypatch):
    """Neither path runs a distinct-pair shuffle: the driver path dedups
    the collected pairs, the pool path hands the raw edges to the peel
    actors. Duplicate and reversed copies of a pair count once and
    self-loops not at all, so vertex 3 (one distinct neighbor, four
    copies of the pair plus a self-loop) peels at k=2 and vertex 4
    (self-loop only) is never alive."""
    import pyarrow as pa
    import ray.data

    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos import kcore as kc

    src = np.array([0, 1, 1, 2, 0, 2, 0, 2, 3, 3, 2, 3, 4, 1], dtype=np.int64)
    dst = np.array([1, 0, 2, 1, 2, 0, 1, 3, 2, 3, 3, 2, 4, 2], dtype=np.int64)
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    expected = np.array([True, True, True, False, False, False])
    for gate in (None, 0):
        if gate is not None:
            monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", gate)
        alive, meta = kc.kcore_bounded(edges, n=6, k=2, rounds=16)
        np.testing.assert_array_equal(alive, expected)
        assert meta["rounds"] == 2
        # rounds=0: the edge-incident vertices, self-loop-only ones excluded
        alive0, meta0 = kc.kcore_bounded(edges, n=6, k=2, rounds=0)
        np.testing.assert_array_equal(alive0, [True] * 4 + [False] * 2)
        assert meta0["rounds"] == 0
        monkeypatch.undo()


def test_kcore_bounded_driver_local_matches_distributed(monkeypatch):
    """Forcing the driver-local peel gate to 0 must reproduce identical
    alive sets and round counts from the SpmvPool peel (same Jacobi
    semantics, including a pre-fixpoint rounds bound), and the same
    ValueError on an out-of-range endpoint."""
    import pyarrow as pa
    import ray.data

    from parallel_louvain_method_ray import config
    from parallel_louvain_method_ray.algos import kcore as kc

    rng = np.random.default_rng(12)
    m = 600
    src = rng.integers(0, 80, m).astype(np.int64)
    dst = rng.integers(0, 80, m).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    for k, rounds in ((3, 16), (3, 2), (5, 16)):
        a_loc, m_loc = kc.kcore_bounded(edges, n=80, k=k, rounds=rounds)
        monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
        a_dist, m_dist = kc.kcore_bounded(edges, n=80, k=k, rounds=rounds)
        monkeypatch.undo()
        np.testing.assert_array_equal(a_loc, a_dist)
        assert m_loc["rounds"] == m_dist["rounds"]
    # both paths reject an endpoint outside [0, n): on the pool path a
    # surviving vid -1 would otherwise mark vertex n-1 alive
    for bad in (-1, 80):
        e_bad = ray.data.from_arrow(
            pa.table(
                {
                    "src": np.array([0, 1, 2, bad], dtype=np.int64),
                    "dst": np.array([1, 2, 0, 0], dtype=np.int64),
                }
            )
        )
        for gate in (None, 0):
            if gate is not None:
                monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", gate)
            with pytest.raises(ValueError):
                kc.kcore_bounded(e_bad, n=80, k=1, rounds=4)
            monkeypatch.undo()
