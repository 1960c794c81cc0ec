"""Distributed graph construction.

Replaces the reference's parse → MPI alltoallv edge shuffle → per-rank CSR
(`/root/reference/src/graph.cpp:106-227`) with one all-to-all of Ray tasks
and no Ray Data shuffle: `_split_block` sorts one input block's entries by
pid (a range of the dense ids when n is known, else `src % P`; neither has
the reference's N%P==0 constraint, `src/graph.cpp:131-134`), and
`_pack_pid` packs one pid's runs, zero-copy slices of every sorted block,
into CSR shard rows. `build_graph` runs them as one task per input block
and one per pid; `graph_from_entry_arrays` runs them locally on driver
arrays (coarse Louvain levels). The pools (`state/`) hold the rows for a
whole level and run every sweep and iteration against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from parallel_louvain_method_ray.config import DEFAULT_CONFIG, EngineConfig
from parallel_louvain_method_ray.graph.csr import (
    SHARD_SCHEMA,
    pack_shard_table,
    shards_to_entries,
    unpack_shards,
)


# ---------------------------------------------------------------------------
# per-batch transforms (pure, vectorized)
# ---------------------------------------------------------------------------


def _symmetrize_batch(batch: pa.Table) -> pa.Table:
    """Emit both directions of every edge (reference `Graph(EdgeList)`,
    `src/graph.cpp:78-85`). Self-loops are emitted once (both directions of
    (v,v,w) are identical triples; the set-dedup collapses them)."""
    src = batch.column("src")
    dst = batch.column("dst")
    w = batch.column("weight")
    fwd = pa.table({"src": src, "dst": dst, "weight": w})
    not_self = pa.compute.invert(pa.compute.equal(src, dst))
    rev = pa.table({"src": dst, "dst": src, "weight": w}).filter(not_self)
    return pa.concat_tables([fwd, rev])


def symmetrize(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Dataset-level symmetrize (no dedup — see dedup_entries)."""
    return edges.map_batches(_symmetrize_batch, batch_format="pyarrow")


def dedup_entries(entries: ray.data.Dataset) -> ray.data.Dataset:
    """Global exact dedup of (src, dst, weight) triples via hash shuffle.

    Used by the standalone `queries()` surface; `build_graph` instead dedups
    inside the per-partition CSR pack (same result, no Ray Data shuffle).
    """
    return (
        entries.groupby(["src", "dst", "weight"])
        .count()
        .select_columns(["src", "dst", "weight"])
    )


# ---------------------------------------------------------------------------
# renumbering (reference renumber.py: sorted raw ids -> dense 0..N-1)
# ---------------------------------------------------------------------------


def _key_type(*types: pa.DataType) -> pa.DataType:
    """The one Arrow type both endpoint columns are compared in: `string`
    for text keys, int64 for signed integers (the raw-id width of the
    vertices table), else the first column's type (Arrow's safe cast
    raises on a lossy mismatch)."""
    if any(pa.types.is_string(t) or pa.types.is_large_string(t) for t in types):
        return pa.string()
    if all(pa.types.is_signed_integer(t) for t in types):
        return pa.int64()
    return types[0]


def renumber(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    weight: str = "weight",
    key: str = "raw_id",
    max_driver_ids: int = 20_000_000,
) -> tuple[ray.data.Dataset, ray.data.Dataset, int]:
    """Densify vertex keys of any Arrow type (integer ids, url strings):
    every key appearing in `src` or `dst` maps to its rank in sorted
    order (reference `renumber.py:25-34`; Arrow sorts strings by UTF-8
    bytes, which is code-point order).

    Returns (edges(src, dst, weight:float64), vertices(key, vid),
    n_vertices).

    One distributed pass takes the per-block distinct keys. Their summed
    count bounds the global distinct count, and gates two tiers with
    IDENTICAL vid assignment (tested):
    - driver tier (bound <= max_driver_ids): the driver dedupes and sorts
      the keys with Arrow kernels, broadcasts them, and each edge block is
      rewritten with `index_in` — no groupby, whose Ray Data combine pays
      Python per distinct key;
    - scale tier: a distinct groupby, `assign_dense_ids` (sort + per-block
      offsets, no O(V) driver array) and two hash joins (src, then dst)
      against the vertices Dataset — the 10^12-url web-graph route.
    """

    def keys_of(batch: pa.Table) -> pa.Table:
        cols = [batch.column(src), batch.column(dst)]
        t = _key_type(*(c.type for c in cols))
        both = pa.chunked_array(
            [chunk for c in cols for chunk in c.cast(t).chunks], type=t
        )
        return pa.table({key: pc.unique(both)})

    blk_distinct = edges.map_batches(keys_of, batch_format="pyarrow").materialize()
    if blk_distinct.count() > max_driver_ids:
        distinct = blk_distinct.groupby(key).count().select_columns([key])
        vertices = assign_dense_ids(distinct, key)
        return (
            _renumber_join(edges, vertices, src, dst, weight, key),
            vertices,
            vertices.count(),
        )

    chunks = [
        chunk
        for b in blk_distinct.iter_batches(batch_format="pyarrow")
        for chunk in pa.table(b).column(key).chunks
    ]
    # an empty input has no typed block; its null-typed key set casts to
    # whatever the (empty) edge blocks hold
    ids = pc.unique(
        pa.chunked_array(chunks, type=chunks[0].type if chunks else pa.null())
    )
    ids = ids.take(pc.sort_indices(ids))
    ref = ray.put(ids)

    def rewrite(batch: pa.Table) -> pa.Table:
        t = _key_type(batch.column(src).type, batch.column(dst).type)
        u = ray.get(ref).cast(t)  # zero-copy when the types already agree

        def vid(col: str) -> pa.Array:
            return pc.index_in(batch.column(col).cast(t), value_set=u).cast(
                pa.int64()
            )

        return pa.table(
            {
                "src": vid(src),
                "dst": vid(dst),
                "weight": batch.column(weight).cast(pa.float64()),
            }
        )

    vertices = ray.data.from_arrow(
        pa.table({key: ids, "vid": np.arange(len(ids), dtype=np.int64)})
    )
    return edges.map_batches(rewrite, batch_format="pyarrow"), vertices, len(ids)


def assign_dense_ids(
    distinct: ray.data.Dataset, key: str
) -> ray.data.Dataset:
    """(key, vid) with vid = rank of key in global sorted order, computed
    WITHOUT collecting the key set: global `sort(key)` (range shuffle),
    then each sorted block numbers its rows from a prefix offset; the
    driver holds only the per-block row counts (O(num_blocks)). A sort
    with fewer keys than blocks leaves schema-less empty blocks; those
    are skipped."""
    sorted_ds = distinct.sort(key).materialize()
    refs = [
        ref
        for bundle in sorted_ds.iter_internal_ref_bundles()
        for ref, _ in bundle.blocks
    ]

    @ray.remote
    def _nrows(block) -> int:
        return (block if isinstance(block, pa.Table) else pa.table(block)).num_rows

    counts = ray.get([_nrows.remote(r) for r in refs])
    refs = [r for r, c in zip(refs, counts) if c]
    counts = [c for c in counts if c]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

    @ray.remote
    def _number(block, offset: int) -> pa.Table:
        t = block if isinstance(block, pa.Table) else pa.table(block)
        return pa.table(
            {
                key: t.column(key),
                "vid": np.arange(offset, offset + t.num_rows, dtype=np.int64),
            }
        )

    out_refs = [_number.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def join_partitions(requested: int | None = None, cap: int = 64) -> int:
    """Join fan-out bounded by HALF the cluster CPU count — a join whose
    aggregator-actor demand exceeds the cluster deadlocks small clusters
    (observed at num_partitions=16 on 4 CPUs), and two joins in flight at
    num_partitions == cpus leave zero headroom and deadlock each other
    (observed as the round-2 lpa_one_sweep_joined hang at 32 CPUs: three
    chained lazy joins x 32 aggregator actors, 234 spawned workers all
    blocked in ray.get)."""
    if requested is not None:
        return requested
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(2, min(cap, cpus // 2))


def _renumber_join(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    src: str,
    dst: str,
    weight: str,
    key: str,
) -> ray.data.Dataset:
    """Scale-tier rewrite of `renumber`: two hash joins against the
    (key, vid) vertices table, no broadcast. The endpoint columns are cast
    to the key type first: a join on mismatched types (int32 ids against
    the int64 key) fails in the aggregator."""
    num_partitions = join_partitions()

    def as_key(batch: pa.Table) -> pa.Table:
        t = _key_type(batch.column(src).type, batch.column(dst).type)
        return pa.table(
            {
                src: batch.column(src).cast(t),
                dst: batch.column(dst).cast(t),
                weight: batch.column(weight),
            }
        )

    def side(vid_col: str) -> ray.data.Dataset:
        return vertices.map_batches(
            lambda b: b.rename_columns([key, vid_col]), batch_format="pyarrow"
        )

    # materialize between the two joins: two lazy JoinOperators in flight
    # double the aggregator-actor demand and can deadlock a small cluster
    j = edges.map_batches(as_key, batch_format="pyarrow").join(
        side("src_vid"), join_type="inner", num_partitions=num_partitions,
        on=(src,), right_on=(key,),
    ).materialize().join(
        side("dst_vid"), join_type="inner", num_partitions=num_partitions,
        on=(dst,), right_on=(key,),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src_vid"),
                "dst": batch.column("dst_vid"),
                "weight": batch.column(weight).cast(pa.float64()),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# the partitioned graph handle
# ---------------------------------------------------------------------------


@dataclass
class GraphHandle:
    """A built, materialized level-graph.

    `shards` is a Dataset of packed CSR rows (csr.SHARD_SCHEMA), at least
    one per pid with entries.
    `degrees_ref` is a ray.put ObjectRef to the dense weighted-degree array
    (`float64[n]`), computed once per level (fixes the reference's
    recompute-on-every-call TODO at `src/graph.cpp:237`).
    """

    shards: ray.data.Dataset
    n: int  # vertex id space size (dense 0..n-1)
    m: int  # edge count = n_entries // 2 (reference sparsify semantics)
    n_entries: int
    row_entries: list[int]  # n_entries of each shard row, in block order
    total_weight: float  # sum of entry weights (= 2 * undirected weight)
    degrees_ref: "ray.ObjectRef"
    config: EngineConfig

    def degrees(self) -> np.ndarray:
        return ray.get(self.degrees_ref)


def _split_block(
    block, P: int, n_vertices: int | None, already_symmetrized: bool
) -> tuple[pa.Table, np.ndarray]:
    """One input block's (src:int64, dst:int64, weight:float64) entries,
    symmetrized unless `already_symmetrized`, sorted by pid, and the P+1
    bounds of the pid runs. With n known, pid is the contiguous range
    `src * P // n`: ids from SORTED url renumbering keep hostname locality,
    so most Louvain moves are partition-local. Else it is `src % P`."""
    t = block if isinstance(block, pa.Table) else pa.table(block)
    if t.num_rows and not already_symmetrized:
        t = _symmetrize_batch(t)

    def col(name: str, dtype) -> np.ndarray:
        if not t.num_rows:  # an empty block may carry no schema
            return np.empty(0, dtype)
        return t.column(name).to_numpy(zero_copy_only=False).astype(dtype, copy=False)

    src = col("src", np.int64)
    if n_vertices is not None:
        pid = np.minimum(src * P // max(n_vertices, 1), P - 1)
    else:
        pid = src % P
    order = np.argsort(pid, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(pid, minlength=P))]
    return pa.table(
        {
            "src": src[order],
            "dst": col("dst", np.int64)[order],
            "weight": col("weight", np.float64)[order],
        }
    ), bounds


def _pack_pid(pid: int, max_entries: int, *parts) -> tuple[pa.Table, tuple]:
    """Packed CSR row(s) of partition `pid` and their `_shard_block_meta`,
    from the `_split_block` outputs of every input block: each block's run
    is a zero-copy slice. A pid with no entries gives no rows."""
    runs = [
        t.slice(b[pid], b[pid + 1] - b[pid]) for t, b in parts if b[pid + 1] > b[pid]
    ]
    if not runs:
        return SHARD_SCHEMA.empty_table(), ([], -1, [], [])
    entries = pa.concat_tables(runs)
    pids = np.full(entries.num_rows, pid, dtype=np.int64)
    rows = pack_shard_table(
        entries.append_column("pid", pa.array(pids)), max_entries_per_shard=max_entries
    )
    return rows, _shard_block_meta(rows)


_split_task = ray.remote(_split_block)
_pack_task = ray.remote(num_returns=2)(_pack_pid)


def _publish(blocks: list, metas: list, cfg: EngineConfig, n_vertices) -> GraphHandle:
    """GraphHandle over `blocks`, refs of non-empty packed-row tables whose
    `_shard_block_meta`s, in row order, are `metas`; one typed empty block
    when there are no rows."""
    shards = ray.data.from_arrow_refs(blocks or [ray.put(SHARD_SCHEMA.empty_table())])
    return _graph_from_metas(shards, metas, cfg, n_vertices)


def build_graph(
    edges: ray.data.Dataset,
    config: EngineConfig | None = None,
    *,
    already_symmetrized: bool = False,
    n_vertices: int | None = None,
) -> GraphHandle:
    """edges(src:int64, dst:int64, weight:float64) -> GraphHandle.

    Vertex ids must be dense 0..N-1 (use `renumber` first otherwise —
    the reference makes the same assumption, `src/graph.cpp:107-108`).
    One `_split_block` task per input block, then one `_pack_pid` task per
    pid: no Ray Data shuffle. The shard Dataset has one block per pid with
    entries.
    """
    cfg = config or DEFAULT_CONFIG
    P = cfg.num_partitions
    parts = [
        _split_task.remote(ref, P, n_vertices, already_symmetrized)
        for bundle in edges.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    packed = [
        _pack_task.remote(p, cfg.max_entries_per_shard, *parts) for p in range(P)
    ]
    metas = ray.get([meta for _, meta in packed])
    blocks = [rows for (rows, _), meta in zip(packed, metas) if meta[0]]
    return _publish(blocks, metas, cfg, n_vertices)


def _shard_block_meta(block) -> tuple:
    """(n_entries per row, max_vid, vids per shard, degrees per shard) of
    one packed shard block: a task per block in `graph_from_shards`, and
    part of every `_pack_pid` result, so the driver never pulls the CSR
    arrays."""
    t = block if isinstance(block, pa.Table) else pa.table(block)
    if t.num_rows == 0:  # an empty block may carry no schema
        return [], -1, [], []
    shards = unpack_shards(t)
    return (
        t.column("n_entries").to_pylist(),
        max(t.column("max_vid").to_pylist(), default=-1),
        [s.vids for s in shards],
        [s.degrees() for s in shards],
    )


_shard_block_meta_task = ray.remote(_shard_block_meta)


def graph_from_shards(
    shards: ray.data.Dataset,
    config: EngineConfig | None = None,
    *,
    n_vertices: int | None = None,
) -> GraphHandle:
    """GraphHandle over a MATERIALIZED packed-shard Dataset: metadata,
    degrees and total weight in one small task per block."""
    refs = [
        ref for bundle in shards.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    metas = ray.get([_shard_block_meta_task.remote(r) for r in refs])
    return _graph_from_metas(shards, metas, config, n_vertices)


def _graph_from_metas(shards, metas: list, config, n_vertices) -> GraphHandle:
    """GraphHandle from the `_shard_block_meta`s of the rows of `shards`,
    in row order. Degrees and the weight sum are added in row order: they
    depend on the shard rows only, not on how they were built or blocked."""
    row_entries = [e for meta in metas for e in meta[0]]
    max_vid = max((meta[1] for meta in metas), default=-1)
    n = n_vertices if n_vertices is not None else max_vid + 1
    degrees = np.zeros(n, dtype=np.float64)
    total_weight = 0.0
    for _, _, vids, degs in metas:
        for vid, deg in zip(vids, degs):
            degrees[vid] = deg  # vids are disjoint across shards
            total_weight += float(deg.sum())
    n_entries = sum(row_entries)
    return GraphHandle(
        shards=shards,
        n=n,
        m=n_entries // 2,
        n_entries=n_entries,
        row_entries=row_entries,
        total_weight=total_weight,
        degrees_ref=ray.put(degrees),
        config=config or DEFAULT_CONFIG,
    )


def graph_from_entry_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    config: EngineConfig | None = None,
    *,
    already_symmetrized: bool = False,
    n_vertices: int | None = None,
) -> GraphHandle:
    """`build_graph` over driver-held entry arrays (coarse Louvain levels,
    small inputs), run locally: the same split and pack as the task path,
    each shard row `ray.put` as its own block, with no Ray Data execution."""
    cfg = config or DEFAULT_CONFIG
    entries = {
        "src": np.asarray(src, dtype=np.int64),
        "dst": np.asarray(dst, dtype=np.int64),
        "weight": np.asarray(w, dtype=np.float64),
    }
    P = cfg.num_partitions
    part = _split_block(pa.table(entries), P, n_vertices, already_symmetrized)
    packed = [_pack_pid(p, cfg.max_entries_per_shard, part) for p in range(P)]
    blocks = [ray.put(t.slice(i, 1)) for t, _ in packed for i in range(t.num_rows)]
    return _publish(blocks, [meta for _, meta in packed], cfg, n_vertices)


def entries_dataset(graph: GraphHandle) -> ray.data.Dataset:
    """The graph's (src, dst, weight) entry list as a Dataset, expanded
    from its CSR shards (symmetrized and deduped, like `build_graph`'s
    input to the pack)."""

    def expand(batch: pa.Table) -> pa.Table:
        s, d, w = shards_to_entries(unpack_shards(batch))
        return pa.table({"src": s, "dst": d, "weight": w})

    return graph.shards.map_batches(expand, batch_format="pyarrow")


def graph_meta(graph: GraphHandle) -> dict:
    return {
        "n_vertices": graph.n,
        "n_entries": graph.n_entries,
        "m": graph.m,
        "total_weight": graph.total_weight,
    }
