"""Delta-broadcast sweep rounds must be move-for-move identical to
full-broadcast rounds: the delta path replaces the O(V) assignment put +
per-worker bincounts with an O(moves) in-place update, and on integer
edge weights the incremental tot/csize updates are float-exact, so the
two protocols must produce the same sweep trajectory bit for bit."""

import numpy as np

from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.state.shard_pool import ShardPool
from tests.fixtures import planted_partition_graph


def _trajectory(graph, use_delta: bool, n_sweeps: int = 6):
    pool = ShardPool(graph, num_workers=2)
    try:
        assign = np.arange(graph.n, dtype=np.int64)
        m2 = 2.0 * graph.m
        traj = []
        pending = None
        for _ in range(n_sweeps):
            cv, cc, moves = pool.sweep(
                assign, m2, "canonical",
                delta=pending if use_delta else None,
            )
            order = np.argsort(cv)
            traj.append((cv[order].copy(), cc[order].copy()))
            if moves:
                assign[cv] = cc
            pending = (cv, cc) if moves else None
        return traj, assign
    finally:
        pool.shutdown()


def test_delta_sweep_matches_full_broadcast():
    src, dst, w, _ = planted_partition_graph(160, 4, 6, 1, seed=5)
    g = graph_from_entry_arrays(
        np.asarray(src, np.int64), np.asarray(dst, np.int64),
        np.ones(len(src)), EngineConfig(num_partitions=4),
    )
    t_full, a_full = _trajectory(g, use_delta=False)
    t_delta, a_delta = _trajectory(g, use_delta=True)
    assert len(t_full) == len(t_delta)
    for (v1, c1), (v2, c2) in zip(t_full, t_delta):
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(a_full, a_delta)


def _directed_test_graph(seed=7, n=800, E=6000, n_dangling=40):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, E)
    dst = rng.integers(0, n, E)
    keep = (src != dst) & (src < n - n_dangling)  # tail vids dangling
    pairs = np.unique(src[keep] * n + dst[keep])  # builder-dedup parity
    src = (pairs // n).astype(np.int64)
    dst = (pairs % n).astype(np.int64)
    g = graph_from_entry_arrays(
        src, dst, np.ones(src.shape[0]),
        EngineConfig(num_partitions=4),
        already_symmetrized=True, n_vertices=n,
    )
    return g, src, dst


def test_pagerank_power_matches_per_iter_loop_and_oracle():
    """The fully-sharded power iteration (rank slices in plasma, sparse
    partials, reducer-produced next-round slices) must match both the
    per-iteration pool loop and the dense driver oracle, including
    dangling-mass redistribution and the L1 stopping rule."""
    from parallel_louvain_method_ray.algos.pagerank import pagerank_oracle

    g, src, dst = _directed_test_graph()
    n = g.n
    out_w = g.degrees()
    dangling = out_w <= 0.0
    assert dangling.sum() > 0  # the fixture must exercise dangling mass
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_w[~dangling]

    for n_workers in (1, 3):
        pool = ShardPool(g, num_workers=n_workers)
        try:
            ranks, info = pool.pagerank_power(
                inv_out, dangling, damping=0.85, tol=1e-10, max_iter=60
            )
            # per-iteration pool loop (the pre-existing engine path)
            r = np.full(n, 1.0 / n)
            for _ in range(info["iterations"]):
                incoming = pool.pagerank_iter(r * inv_out)
                dm = float(r[dangling].sum())
                r = 0.15 / n + 0.85 * (incoming + dm / n)
            np.testing.assert_allclose(ranks, r, rtol=0, atol=1e-15)
            oracle = pagerank_oracle(
                src, dst, np.ones(src.shape[0]), n,
                max_iter=info["iterations"], tol=0.0,
            )
            np.testing.assert_allclose(ranks, oracle, rtol=0, atol=1e-12)
        finally:
            pool.shutdown()


def test_pagerank_power_personalized():
    g, _, _ = _directed_test_graph(seed=11)
    n = g.n
    out_w = g.degrees()
    dangling = out_w <= 0.0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_w[~dangling]
    p = np.zeros(n)
    p[:7] = 1.0
    p /= p.sum()
    pool = ShardPool(g, num_workers=2)
    try:
        ranks, _ = pool.pagerank_power(
            inv_out, dangling, damping=0.85, tol=0.0, max_iter=9, p=p
        )
        r = p.copy()
        for _ in range(9):
            incoming = pool.pagerank_iter(r * inv_out)
            dm = float(r[dangling].sum())
            r = 0.15 * p + 0.85 * (incoming + dm * p)
        np.testing.assert_allclose(ranks, r, rtol=0, atol=1e-15)
    finally:
        pool.shutdown()


def test_pagerank_routes_through_sharded_power(monkeypatch):
    """algos.pagerank must take the fully-sharded path above
    DRIVER_REDUCE_MAX_N and return the same ranks as the driver loop."""
    import importlib

    # algos/__init__ re-exports the pagerank FUNCTION under the same name
    # as the submodule, so a plain `import ... as` resolves to the function
    pr_mod = importlib.import_module(
        "parallel_louvain_method_ray.algos.pagerank"
    )

    g, _, _ = _directed_test_graph(seed=3)
    r_loop, m_loop = pr_mod.pagerank(g, tol=1e-12, max_iter=40)
    monkeypatch.setattr(ShardPool, "DRIVER_REDUCE_MAX_N", 10)
    r_shard, m_shard = pr_mod.pagerank(g, tol=1e-12, max_iter=40)
    assert m_shard["iterations"] == m_loop["iterations"]
    np.testing.assert_allclose(r_shard, r_loop, rtol=0, atol=1e-15)


def test_unit_weight_kernel_path_bit_identical():
    """unit_weights=True (count bincounts, no weights stream) must be
    bit-identical to the weighted path on an all-1.0 graph: summing 1.0s
    in float64 IS counting."""
    from parallel_louvain_method_ray.algos._local_move import (
        chunked_local_move_sweep,
    )

    rng = np.random.default_rng(13)
    n = 3000
    src = rng.integers(0, n, 25000)
    dst = rng.integers(0, n, 25000)
    keep = src != dst
    pairs = np.unique(src[keep] * n + dst[keep])
    s = np.concatenate([pairs // n, pairs % n]).astype(np.int64)
    d = np.concatenate([pairs % n, pairs // n]).astype(np.int64)
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    w = np.ones(s.shape[0])
    vids, counts = np.unique(s, return_counts=True)
    indptr = np.zeros(vids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    deg = np.bincount(s, weights=w, minlength=n)
    m2 = float(w.sum())

    states = []
    for unit in (False, True):
        comm = np.arange(n, dtype=np.int32)
        tot = deg.copy()
        csize = np.ones(n, dtype=np.int32)
        moves = 0
        for _ in range(3):  # a few sweeps so paths diverge if wrong
            moves += chunked_local_move_sweep(
                vids, indptr, d, w, comm, tot, deg, m2,
                csize=csize, chunk=256, unit_weights=unit,
            )
        states.append((comm, tot, csize, moves))
    (c0, t0, s0, m0), (c1, t1, s1, m1) = states
    assert m0 == m1
    np.testing.assert_array_equal(c0, c1)
    np.testing.assert_array_equal(s0, s1)
    np.testing.assert_array_equal(t0, t1)  # bit-identical, not allclose


def test_pagerank_power_pipelined_matches_sync():
    """tol=0 / W>1 routes through the PIPELINED power iteration (the
    previous round's scalar refs feed the next round's reducers, no
    driver sync mid-round). Ranks must be bit-identical to the
    synchronous path (tol>0) at the same iteration count."""
    g, src, dst = _directed_test_graph(seed=13)
    n = g.n
    out_w = g.degrees()
    dangling = out_w <= 0.0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_w[~dangling]
    pool = ShardPool(g, num_workers=3)
    try:
        r_pipe, info_pipe = pool.pagerank_power(
            inv_out, dangling, damping=0.85, tol=0.0, max_iter=7,
            pipeline=True,  # force: the auto gate needs >=4M entries/worker
        )
        # the synchronous loop: tol>0 small enough never to trigger
        r_sync, info_sync = pool.pagerank_power(
            inv_out, dangling, damping=0.85, tol=1e-300, max_iter=7
        )
        assert info_pipe["iterations"] == info_sync["iterations"] == 7
        np.testing.assert_array_equal(r_pipe, r_sync)
        assert abs(info_pipe["l1_delta"] - info_sync["l1_delta"]) < 1e-15
    finally:
        pool.shutdown()
