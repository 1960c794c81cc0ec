"""Partitioned BSP k-core peel (state/spmv_pool.py): parity with the
broadcast peel at several partition counts, the rounds<1 edge case, and
the absorbed pair-dedup semantics."""

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.algos.kcore import kcore_bounded
from parallel_louvain_method_ray.state.spmv_pool import kcore_peel_partitioned
from tests.fixtures import random_graph


def _collect_vids(ds):
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(parts) if parts else pa.table({"vid": []})
    arr = t.column("vid").to_numpy(zero_copy_only=False)
    return np.sort(arr) if len(arr) else np.array([], dtype=np.int64)


def test_partitioned_peel_matches_bounded_across_P():
    src, dst, _ = random_graph(60, 5, seed=7)
    edges = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst})
    ).repartition(4)
    for P in (1, 2, 5):
        for k, rounds in ((2, 16), (3, 3), (4, 16)):
            alive_b, meta_b = kcore_bounded(edges, 60, k=k, rounds=rounds)
            alive_ds, meta = kcore_peel_partitioned(
                edges, k=k, rounds=rounds, partitions=P
            )
            np.testing.assert_array_equal(
                _collect_vids(alive_ds), np.flatnonzero(alive_b)
            )
            assert meta["n_alive"] == int(alive_b.sum())


def test_partitioned_peel_duplicate_and_reverse_edges():
    """(a,b), (b,a) and repeated rows must collapse to ONE undirected
    edge before degree counting (undirected_dedup semantics)."""
    pairs = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 0), (2, 0), (3, 3)]
    arr = np.asarray(pairs, dtype=np.int64)
    edges = ray.data.from_arrow(pa.table({"src": arr[:, 0], "dst": arr[:, 1]}))
    # triangle 0-1-2: every vertex has exactly 2 distinct neighbors
    alive_ds, meta = kcore_peel_partitioned(edges, k=2, rounds=16, partitions=2)
    np.testing.assert_array_equal(_collect_vids(alive_ds), [0, 1, 2])
    # k=3 would need degree 3 -> empty
    alive_ds, meta = kcore_peel_partitioned(edges, k=3, rounds=16, partitions=2)
    assert meta["n_alive"] == 0


def test_partitioned_peel_rounds_zero():
    """rounds<1 returns round 0's alive set: every edge-incident vertex
    (kcore_bounded with rounds=0 semantics), done=0."""
    pairs = [(0, 1), (2, 3)]
    arr = np.asarray(pairs, dtype=np.int64)
    edges = ray.data.from_arrow(pa.table({"src": arr[:, 0], "dst": arr[:, 1]}))
    alive_ds, meta = kcore_peel_partitioned(edges, k=5, rounds=0, partitions=2)
    np.testing.assert_array_equal(_collect_vids(alive_ds), [0, 1, 2, 3])
    assert meta["rounds"] == 0
