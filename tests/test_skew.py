"""Skew fixtures (FIXTURES.md §6): hub vertex with ~30% of all edges."""

import numpy as np
import pyarrow as pa
import pytest

from parallel_louvain_method_ray.algos.pagerank import pagerank, pagerank_oracle
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.graph.csr import pack_shard_table, unpack_shards


def _hub_edges(n=300, hub_frac=0.3, seed=5):
    rng = np.random.default_rng(seed)
    n_norm = int(n * 3)
    src = rng.integers(1, n, n_norm, dtype=np.int64)
    dst = rng.integers(1, n, n_norm, dtype=np.int64)
    n_hub = int(n_norm * hub_frac / (1 - hub_frac))
    hub_src = np.zeros(n_hub, dtype=np.int64)  # vertex 0 is the hub
    hub_dst = rng.integers(1, n, n_hub, dtype=np.int64)
    src = np.concatenate([src, hub_src])
    dst = np.concatenate([dst, hub_dst])
    keep = src != dst
    return src[keep], dst[keep], np.ones(int(keep.sum()), dtype=np.float64)


def test_shard_splitting_on_hub_partition():
    src, dst, w = _hub_edges()
    # tiny max_entries forces splits; results must be identical
    cfg_split = EngineConfig(num_partitions=4, max_entries_per_shard=100)
    cfg_plain = EngineConfig(num_partitions=4)
    g1 = graph_from_entry_arrays(src, dst, w, cfg_split)
    g2 = graph_from_entry_arrays(src, dst, w, cfg_plain)
    assert g1.n_entries == g2.n_entries and g1.m == g2.m
    np.testing.assert_allclose(g1.degrees(), g2.degrees())
    # the split graph really has more shard rows
    assert g1.shards.count() > g2.shards.count()
    # no sub-shard exceeds the cap by more than one vertex's row
    for b in g1.shards.iter_batches(batch_format="pyarrow"):
        for shard in unpack_shards(pa.table(b)):
            if shard.vids.shape[0] > 1:
                assert shard.n_entries <= 100 + int(np.diff(shard.indptr).max())

    # algorithms agree across the two layouts
    r1, _ = pagerank(g1, tol=0.0, max_iter=5)
    r2, _ = pagerank(g2, tol=0.0, max_iter=5)
    np.testing.assert_allclose(r1, r2, atol=1e-12)
