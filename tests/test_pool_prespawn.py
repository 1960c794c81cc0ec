"""Prespawned ShardPool (graph=None) must behave exactly like a pool
constructed from a graph: reload() attaches the level, the plasma
keepalive thread stops at first attach, and louvain(pool=...) with a
caller-owned pool returns bit-identical results to the self-managed path
while leaving the caller's pool alive."""

import numpy as np

from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.state.shard_pool import ShardPool
from tests.fixtures import planted_partition_graph


def _planted(seed=11, n=160):
    src, dst, w, _ = planted_partition_graph(n, 4, 6, 1, seed=seed)
    return graph_from_entry_arrays(
        np.asarray(src, np.int64), np.asarray(dst, np.int64),
        np.ones(len(src)), EngineConfig(num_partitions=4),
    )


def test_prespawn_reload_matches_direct_pool():
    g = _planted()
    direct = ShardPool(g, num_workers=2)
    pre = ShardPool(num_workers=2)  # prespawn: no graph yet
    try:
        assert pre.graph is None
        assert pre._keepalive_thread is not None
        pre.reload(g)
        assert pre.graph is g
        # keepalive must be stopped by the first attach
        assert pre._keepalive_thread is None
        assign = np.arange(g.n, dtype=np.int64)
        m2 = 2.0 * g.m
        cv1, cc1, mv1 = direct.sweep(assign.copy(), m2, "canonical")
        cv2, cc2, mv2 = pre.sweep(assign.copy(), m2, "canonical")
        assert mv1 == mv2
        o1, o2 = np.argsort(cv1), np.argsort(cv2)
        np.testing.assert_array_equal(cv1[o1], cv2[o2])
        np.testing.assert_array_equal(cc1[o1], cc2[o2])
        np.testing.assert_allclose(
            direct.intra_weight(assign), pre.intra_weight(assign)
        )
    finally:
        direct.shutdown()
        pre.shutdown()


def test_prespawn_shutdown_before_attach_is_clean():
    pre = ShardPool(num_workers=2)
    pre.shutdown()  # must stop the keepalive thread and kill workers
    assert pre._keepalive_thread is None
    assert pre.workers == []


def test_louvain_external_pool_parity_and_survival():
    from parallel_louvain_method_ray.algos.louvain import louvain

    g = _planted(seed=23, n=200)
    cfg = EngineConfig(
        num_partitions=4,
        driver_local_entries=0,  # force the distributed pool path
        driver_local_vertices=0,
    )
    res_own = louvain(g, cfg, m_mode="weight")
    pool = ShardPool(num_workers=2)  # caller-owned, prespawned
    try:
        res_ext = louvain(g, cfg, m_mode="weight", pool=pool)
        np.testing.assert_array_equal(res_own.assignments, res_ext.assignments)
        assert abs(res_own.modularity - res_ext.modularity) < 1e-12
        # the caller's pool must survive louvain (not be shut down) and
        # still serve waves
        assert pool.workers
        assert pool.intra_weight(np.arange(g.n, dtype=np.int64)) >= 0.0
    finally:
        pool.shutdown()
