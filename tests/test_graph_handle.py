"""GraphHandle metadata, shard-row sizes, the driver's entry sort and the
local build of driver-held entry arrays (coarse levels)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from parallel_louvain_method_ray.algos.louvain import _collect_entries, _sorted_entries
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import (
    build_graph,
    graph_from_entry_arrays,
)
from parallel_louvain_method_ray.graph.csr import (
    CSRShard,
    shard_to_entries,
    shards_to_entries,
    sum_by_key,
    unpack_shards,
)
from parallel_louvain_method_ray.state.shard_pool import _row_assignment


def _edges(n=400, m=2400, seed=3):
    """Random multigraph edges with self-loops and duplicate (src, dst)
    pairs of different weights; dyadic weights so every sum is exact."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m, dtype=np.int64)
    dst = rng.integers(0, n, m, dtype=np.int64)
    dst[:40] = src[:40]  # self-loops
    src[40:80], dst[40:80] = src[80:120], dst[80:120]  # repeated pairs
    w = rng.integers(1, 8, m).astype(np.float64) / 4
    return src, dst, w


def _shards(graph):
    return [
        s
        for b in graph.shards.iter_batches(batch_format="pyarrow", batch_size=None)
        for s in unpack_shards(pa.table(b))
    ]


def _old_row_sizes(graph):
    """The per-row scan `_row_assignment` ran before GraphHandle kept sizes."""
    sizes = []
    for b in graph.shards.select_columns(["n_entries"]).iter_batches(
        batch_format="pyarrow"
    ):
        sizes.extend(pa.table(b).column("n_entries").to_pylist())
    return sizes


@pytest.mark.parametrize("range_parts", [True, False])
@pytest.mark.parametrize("max_entries", [4_000_000, 300])
def test_sorted_entries_equals_lexsort_on_shuffled_shards(range_parts, max_entries):
    src, dst, w = _edges()
    cfg = EngineConfig(num_partitions=5, max_entries_per_shard=max_entries)
    g = graph_from_entry_arrays(
        src, dst, w, cfg, n_vertices=400 if range_parts else None
    )
    parts = [shard_to_entries(s) for s in _shards(g)]
    assert len(parts) >= 5
    rng = np.random.default_rng(0)
    for _ in range(3):
        order = rng.permutation(len(parts))
        entries = [np.concatenate([parts[i][k] for i in order]) for k in range(3)]
        want = np.lexsort(entries[::-1])
        expect = [a[want] for a in entries]
        got = _sorted_entries(list(entries))
        for a, b in zip(got, expect):
            np.testing.assert_array_equal(a, b)
    # the driver collect feeds the same order
    got = _sorted_entries(list(_collect_entries(g)))
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("max_entries", [4_000_000, 250])
def test_graph_handle_row_entries_and_assignment(max_entries):
    src, dst, w = _edges()
    g = graph_from_entry_arrays(
        src, dst, w, EngineConfig(num_partitions=4, max_entries_per_shard=max_entries)
    )
    assert g.row_entries == [s.n_entries for s in _shards(g)]
    assert g.row_entries == _old_row_sizes(g)
    assert sum(g.row_entries) == g.n_entries
    refs, assignment = _row_assignment(g, 3)
    assert len(refs) == g.shards.num_blocks()
    assert sorted(r for rows in assignment for r in rows) == list(range(len(g.row_entries)))
    # the LPT schedule over the old scan's sizes
    sizes = _old_row_sizes(g)
    loads, want = [0] * 3, [[] for _ in range(3)]
    for row in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        j = min(range(3), key=lambda k: loads[k])
        want[j].append(row)
        loads[j] += max(sizes[row], 1)
    assert assignment == want


def _task_build(src, dst, w, cfg, **kw):
    """`build_graph` on a two-block Dataset: the split and pack tasks."""
    h = src.shape[0] // 2
    blocks = [
        pa.table({"src": src[a:b], "dst": dst[a:b], "weight": w[a:b]})
        for a, b in ((0, h), (h, src.shape[0]))
    ]
    return build_graph(ray.data.from_arrow(blocks), cfg, **kw)


@pytest.mark.parametrize("max_entries", [4_000_000, 200])
def test_local_build_matches_build_graph(max_entries):
    s, d, w = _edges(n=300, m=1500, seed=9)
    # a symmetric entry list with duplicate triples, as coarsening emits
    src = np.concatenate([s, d[s != d], s[:50]])
    dst = np.concatenate([d, s[s != d], d[:50]])
    ww = np.concatenate([w, w[s != d], w[:50]])
    cfg = EngineConfig(num_partitions=4, max_entries_per_shard=max_entries)
    big = _task_build(src, dst, ww, cfg, already_symmetrized=True, n_vertices=300)
    small = graph_from_entry_arrays(
        src, dst, ww, cfg, already_symmetrized=True, n_vertices=300
    )
    assert (small.n, small.m, small.n_entries) == (big.n, big.m, big.n_entries)
    assert small.total_weight == big.total_weight
    np.testing.assert_array_equal(small.degrees(), big.degrees())
    a, b = _shards(small), _shards(big)
    assert len(a) == len(b) == small.shards.num_blocks()
    for x, y in zip(a, b):
        assert x.pid == y.pid
        for f in ("vids", "indptr", "cols", "weights"):
            np.testing.assert_array_equal(getattr(x, f), getattr(y, f))
    assert small.row_entries == [x.n_entries for x in a] == _old_row_sizes(small)


def test_local_build_metadata_bitwise_non_dyadic():
    """Non-dyadic weights, rows of 64+ entries: the local build must
    add degrees and the total weight exactly as `graph_from_shards` does
    (per-row reduceat, rows in order), so a coarse level resumed from its
    shard rows has the same metadata as the level first built."""
    rng = np.random.default_rng(17)
    n = 120
    s = rng.integers(0, n, 6000, dtype=np.int64)
    d = rng.integers(0, n, 6000, dtype=np.int64)
    w = rng.uniform(0.1, 1.0, 6000)
    src, dst, ww = np.concatenate([s, d]), np.concatenate([d, s]), np.concatenate([w, w])
    assert np.bincount(src).min() >= 64
    cfg = EngineConfig(num_partitions=4)
    big = _task_build(src, dst, ww, cfg, already_symmetrized=True, n_vertices=n)
    small = graph_from_entry_arrays(
        src, dst, ww, cfg, already_symmetrized=True, n_vertices=n
    )
    assert small.total_weight == big.total_weight
    np.testing.assert_array_equal(small.degrees(), big.degrees())
    assert small.row_entries == big.row_entries


def test_local_build_empty():
    e = np.empty(0, np.int64)
    g = graph_from_entry_arrays(
        e, e, np.empty(0, np.float64), already_symmetrized=True, n_vertices=3
    )
    assert (g.n_entries, g.m, g.total_weight) == (0, 0, 0.0)
    assert g.row_entries == [] and g.shards.count() == 0
    np.testing.assert_array_equal(g.degrees(), np.zeros(3))
    refs, _ = _row_assignment(g, 2)
    assert ray.get(refs[0]).num_rows == 0


def _int32(sh: CSRShard) -> CSRShard:
    """The int32 id copy `ShardWorker.load` keeps of a shard."""
    return CSRShard(
        sh.pid, sh.vids.astype(np.int32), sh.indptr, sh.cols.astype(np.int32),
        sh.weights,
    )


@pytest.mark.parametrize("worker_ids", [False, True])
def test_shards_to_entries_equals_per_shard_concat(worker_ids):
    src, dst, w = _edges()  # holds self-loops
    g = graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=4))
    empty_row = CSRShard(
        9, np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0, np.int64),
        np.empty(0, np.float64),
    )
    shards = _shards(g)
    shards = shards[:2] + [empty_row] + shards[2:]
    if worker_ids:
        shards = [_int32(sh) for sh in shards]
    got = shards_to_entries(shards)
    parts = [shard_to_entries(sh) for sh in shards]
    id_type = np.int32 if worker_ids else np.int64
    for i, dtype in enumerate((id_type, id_type, np.float64)):
        want = np.concatenate([p[i] for p in parts])
        assert got[i].dtype == dtype  # no cast added on worker shards
        np.testing.assert_array_equal(got[i], want)
    assert int((got[0] == got[1]).sum()) > 0  # self-loops survive
    assert got[0].shape[0] == g.n_entries

    none = shards_to_entries([])
    assert [a.dtype for a in none] == [np.int64, np.int64, np.float64]
    assert all(a.shape == (0,) for a in none)
    only_empty = shards_to_entries([empty_row])
    assert [a.shape[0] for a in only_empty] == [0, 0, 0]


def test_sum_by_key_sums_in_input_order():
    key = np.array([7, 3, 7, 7, 3, 1], dtype=np.int64)
    w = np.array([0.1, 0.2, 0.3, 1e16, -1e16, 0.5])
    uk, ws = sum_by_key(key, w)
    np.testing.assert_array_equal(uk, [1, 3, 7])
    assert ws.tolist() == [0.5, 0.2 + -1e16, (0.1 + 0.3) + 1e16]
