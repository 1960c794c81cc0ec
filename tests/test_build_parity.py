"""`build_graph` (split tasks + pack tasks) and `graph_from_entry_arrays`
(the same split and pack, run locally) against a frozen copy of the Ray
Data groupby build they replaced: the packed rows, every SHARD_SCHEMA
column in row order, and the graph metadata must be bit-identical."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph import build
from parallel_louvain_method_ray.graph.build import (
    build_graph,
    graph_from_entry_arrays,
    graph_from_shards,
)
from parallel_louvain_method_ray.graph.csr import SHARD_SCHEMA, pack_shard_table


def _frozen_build_graph(edges, cfg, *, already_symmetrized=False, n_vertices=None):
    """The groupby build: pid column, `groupby(pid).map_groups(pack)`,
    `repartition(P)`, metadata in one task per block. Its functions are
    nested so that workers unpickle them by value."""
    P = cfg.num_partitions
    use_range = n_vertices is not None
    n_for_range = n_vertices or 0

    def symmetrize(batch: pa.Table) -> pa.Table:
        src, dst, w = batch.column("src"), batch.column("dst"), batch.column("weight")
        fwd = pa.table({"src": src, "dst": dst, "weight": w})
        not_self = pa.compute.invert(pa.compute.equal(src, dst))
        rev = pa.table({"src": dst, "dst": src, "weight": w}).filter(not_self)
        return pa.concat_tables([fwd, rev])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch if already_symmetrized else symmetrize(batch)
        src = t.column("src").to_numpy(zero_copy_only=False)
        if use_range:
            pid = np.minimum(src * P // max(n_for_range, 1), P - 1).astype(np.int64)
        else:
            pid = (src % P).astype(np.int64)
        return t.append_column("pid", pa.array(pid, type=pa.int64()))

    max_entries = cfg.max_entries_per_shard

    def pack(group: pa.Table) -> pa.Table:
        return pack_shard_table(group, max_entries_per_shard=max_entries)

    shards = (
        edges.map_batches(prep, batch_format="pyarrow")
        .groupby("pid")
        .map_groups(pack, batch_format="pyarrow")
        .repartition(P)
        .materialize()
    )
    return graph_from_shards(shards, cfg, n_vertices=n_vertices)


def _rows(graph) -> pa.Table:
    """Every packed row of the graph, in row order."""
    parts = [
        pa.table(b)
        for b in graph.shards.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    return pa.concat_tables(parts or [SHARD_SCHEMA.empty_table()]).combine_chunks()


def _assert_same(got, want):
    a, b = _rows(got), _rows(want)
    assert a.schema.equals(SHARD_SCHEMA) and b.schema.equals(SHARD_SCHEMA)
    for name in SHARD_SCHEMA.names:
        assert a.column(name).equals(b.column(name)), name
    assert got.row_entries == want.row_entries
    assert (got.n, got.m, got.n_entries) == (want.n, want.m, want.n_entries)
    assert got.total_weight == want.total_weight
    np.testing.assert_array_equal(got.degrees(), want.degrees())


def _edges(n=300, m=1800, seed=5):
    """Multigraph edges with self-loops, repeated pairs and non-dyadic
    weights."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m, dtype=np.int64)
    dst = rng.integers(0, n, m, dtype=np.int64)
    dst[:30] = src[:30]
    src[30:60], dst[30:60] = src[60:90], dst[60:90]
    w = rng.uniform(0.1, 2.0, m)
    w[30:45] = w[60:75]  # duplicate triples
    return src, dst, w


def _symmetric(src, dst, w):
    ns = src != dst
    return (
        np.concatenate([src, dst[ns]]),
        np.concatenate([dst, src[ns]]),
        np.concatenate([w, w[ns]]),
    )


def _table(src, dst, w) -> pa.Table:
    return pa.table({"src": src, "dst": dst, "weight": w})


def _both_builds(tables, cfg, **kw):
    """(new, frozen) graphs of the same multi-block input."""
    new = build_graph(ray.data.from_arrow(tables), cfg, **kw)
    old = _frozen_build_graph(ray.data.from_arrow(tables), cfg, **kw)
    return new, old


def _blocks(src, dst, w, k=3):
    cuts = np.linspace(0, src.shape[0], k + 1).astype(int)
    return [_table(src[a:b], dst[a:b], w[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


@pytest.mark.parametrize("already_symmetrized", [False, True])
@pytest.mark.parametrize(
    "P,max_entries,range_parts",
    [(4, 4_000_000, True), (4, 4_000_000, False), (3, 40, True), (1, 4_000_000, True)],
    ids=["range", "mod", "hub-split", "P1"],
)
def test_build_matches_frozen_groupby_build(
    P, max_entries, range_parts, already_symmetrized
):
    src, dst, w = _edges()
    if already_symmetrized:
        src, dst, w = _symmetric(src, dst, w)
    cfg = EngineConfig(num_partitions=P, max_entries_per_shard=max_entries)
    kw = dict(
        already_symmetrized=already_symmetrized,
        n_vertices=300 if range_parts else None,
    )
    new, old = _both_builds(_blocks(src, dst, w), cfg, **kw)
    _assert_same(new, old)
    if max_entries < 4_000_000:
        assert len(old.row_entries) > P  # a partition was split
    _assert_same(graph_from_entry_arrays(src, dst, w, cfg, **kw), old)


def test_build_hub_split_on_a_star():
    """A hub whose row alone exceeds `max_entries_per_shard`."""
    n = 60
    s = np.concatenate([np.zeros(n - 1, np.int64), np.arange(1, n)])
    d = np.concatenate([np.arange(1, n), np.r_[2:n, 1]])
    w = np.ones(s.shape[0])
    cfg = EngineConfig(num_partitions=3, max_entries_per_shard=20)
    new, old = _both_builds(_blocks(s, d, w), cfg, n_vertices=n)
    _assert_same(new, old)
    assert len(new.row_entries) > 3
    _assert_same(graph_from_entry_arrays(s, d, w, cfg, n_vertices=n), old)


def test_build_empty_input():
    e = np.empty(0, np.int64)
    cfg = EngineConfig(num_partitions=4)
    new, old = _both_builds([_table(e, e, np.empty(0))], cfg)
    _assert_same(new, old)
    assert new.row_entries == []
    # one typed empty block
    assert new.shards.num_blocks() == 1 and new.shards.schema() is not None
    local = graph_from_entry_arrays(e, e, np.empty(0), cfg, n_vertices=3)
    assert (local.n, local.n_entries, local.row_entries) == (3, 0, [])
    assert local.shards.count() == 0


def test_build_pids_without_entries():
    """10 vids in an id space of 100: one of four range partitions has
    entries."""
    rng = np.random.default_rng(1)
    src = rng.integers(0, 10, 40, dtype=np.int64)
    dst = rng.integers(0, 10, 40, dtype=np.int64)
    w = np.ones(40)
    cfg = EngineConfig(num_partitions=4)
    new, old = _both_builds(_blocks(src, dst, w), cfg, n_vertices=100)
    _assert_same(new, old)
    assert len(new.row_entries) == 1 and new.shards.num_blocks() == 1
    _assert_same(graph_from_entry_arrays(src, dst, w, cfg, n_vertices=100), old)


def test_build_lazy_input_with_an_empty_block():
    src, dst, w = _edges(seed=8)
    e = np.empty(0, np.int64)
    parts = _blocks(src, dst, w, 2)
    tables = [parts[0], _table(e, e, np.empty(0)), parts[1]]

    def lazy():
        return ray.data.from_arrow(tables).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=None
        )

    cfg = EngineConfig(num_partitions=4)
    new = build_graph(lazy(), cfg, n_vertices=300)
    _assert_same(new, _frozen_build_graph(lazy(), cfg, n_vertices=300))


class _Counting:
    def __init__(self, task):
        self.task, self.calls = task, 0

    def remote(self, *args):
        self.calls += 1
        return self.task.remote(*args)


def test_build_runs_one_task_per_block_and_per_pid(monkeypatch):
    split = _Counting(build._split_task)
    pack = _Counting(build._pack_task)
    monkeypatch.setattr(build, "_split_task", split)
    monkeypatch.setattr(build, "_pack_task", pack)
    src, dst, w = _edges()
    g = build_graph(
        ray.data.from_arrow(_blocks(src, dst, w, 5)), EngineConfig(num_partitions=4)
    )
    assert (split.calls, pack.calls) == (5, 4)
    assert g.shards.num_blocks() == 4
