"""Distributed graph construction on Ray Data.

Replaces the reference's parse → MPI alltoallv edge shuffle → per-rank CSR
(`/root/reference/src/graph.cpp:106-227`) with ONE Ray Data hash shuffle:

    edges --map_batches--> symmetrized entries + pid(src)
          --groupby('pid').map_groups--> packed CSR shard rows (P rows)
          --materialize once per level-->

Everything downstream (Louvain sweeps, PageRank iterations, modularity,
coarsening) re-scans the materialized shard Dataset with shuffle-free
map_batches, reading per-sweep O(V) state (assignments / community totals /
degrees) from the object store via ray.put broadcast — zero-copy numpy.

Scale notes (100 TB / 256 nodes):
- the single shuffle is the unavoidable all-to-all; partition key is
  `src % P` over dense renumbered ids (balanced; no N%P==0 constraint like
  the reference's block partition, `src/graph.cpp:131-134`);
- broadcast state is O(V) — fine while V << E (web graphs: ~50 edges/page).
  For V beyond single-node RAM the same sweeps run with the ghost-restricted
  variant: join edges⋈assignments on dst per sweep (SURVEY §4.3) instead of
  broadcast; the kernel is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray.config import DEFAULT_CONFIG, EngineConfig
from parallel_louvain_method_ray.graph.csr import (
    CSRShard,
    pack_shard_table,
    shard_to_entries,
    unpack_shards,
)

EDGE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("weight", pa.float64())]
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
    inside the per-partition CSR pack (same result, one shuffle total).
    """
    return (
        entries.groupby(["src", "dst", "weight"])
        .count()
        .select_columns(["src", "dst", "weight"])
    )


# ---------------------------------------------------------------------------
# renumbering (reference renumber.py: sorted raw ids -> dense 0..N-1)
# ---------------------------------------------------------------------------


def renumber(
    edges: ray.data.Dataset,
    max_driver_ids: int = 20_000_000,
) -> tuple[ray.data.Dataset, ray.data.Dataset, int]:
    """Densify vertex ids: every id appearing in src or dst is mapped to its
    rank in the sorted distinct-id order (reference `renumber.py:25-34`).

    Returns (renumbered_edges, vertices(raw_id, vid), n_vertices).

    Two execution paths with IDENTICAL vid assignment (tested):
    - driver path (distinct count <= max_driver_ids): the distinct-id set
      is collected to the driver as a sorted numpy array and broadcast;
      the edge rewrite is a shuffle-free map_batches + np.searchsorted;
    - scale path: `Dataset.sort` on the distinct ids + per-block prefix
      offsets assigns dense vids without any O(V) driver array, and the
      edge rewrite becomes two hash joins (src, then dst) against the
      vertices Dataset — the 10^12-url web-graph route.
    """

    def ids_of(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"raw_id": np.unique(np.concatenate([s, d]))})

    distinct = (
        edges.map_batches(ids_of, batch_format="pyarrow")
        .groupby("raw_id")
        .count()
        .select_columns(["raw_id"])
        .materialize()
    )
    n = distinct.count()
    if n > max_driver_ids:
        vertices = assign_dense_ids(distinct, "raw_id")
        return renumber_with_join(edges, vertices), vertices, n

    raw_ids = np.sort(
        pa.concat_tables(
            [pa.table(b) for b in distinct.iter_batches(batch_format="pyarrow")]
        )
        .column("raw_id")
        .to_numpy(zero_copy_only=False)
    )
    ref = ray.put(raw_ids)

    def rewrite(batch: pa.Table) -> pa.Table:
        ids = ray.get(ref)
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": np.searchsorted(ids, s).astype(np.int64),
                "dst": np.searchsorted(ids, d).astype(np.int64),
                "weight": batch.column("weight"),
            }
        )

    vertices = ray.data.from_arrow(
        pa.table(
            {"raw_id": raw_ids, "vid": np.arange(raw_ids.shape[0], dtype=np.int64)}
        )
    )
    return (
        edges.map_batches(rewrite, batch_format="pyarrow"),
        vertices,
        int(raw_ids.shape[0]),
    )


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


def renumber_with_join(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Rewrite (src, dst, weight) to dense vids via two hash joins against
    the vertices table — no broadcast, the scale path."""
    num_partitions = join_partitions(num_partitions)
    v_src = vertices.map_batches(
        lambda b: b.rename_columns(["raw_id", "src_vid"]), batch_format="pyarrow"
    )
    v_dst = vertices.map_batches(
        lambda b: b.rename_columns(["raw_id", "dst_vid"]), batch_format="pyarrow"
    )
    # materialize between the two joins: two lazy JoinOperators in flight
    # double the aggregator-actor demand and can deadlock a small cluster
    j = edges.join(
        v_src, join_type="inner", num_partitions=num_partitions,
        on=("src",), right_on=("raw_id",),
    ).materialize().join(
        v_dst, join_type="inner", num_partitions=num_partitions,
        on=("dst",), right_on=("raw_id",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src_vid"),
                "dst": batch.column("dst_vid"),
                "weight": batch.column("weight"),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# the partitioned graph handle
# ---------------------------------------------------------------------------


@dataclass
class GraphHandle:
    """A built, materialized level-graph.

    `shards` is a Dataset of P packed CSR rows (csr.SHARD_SCHEMA).
    `degrees_ref` is a ray.put ObjectRef to the dense weighted-degree array
    (`float64[n]`), computed once per level (fixes the reference's
    recompute-on-every-call TODO at `src/graph.cpp:237`).
    """

    shards: ray.data.Dataset
    n: int  # vertex id space size (dense 0..n-1)
    m: int  # edge count = n_entries // 2 (reference sparsify semantics)
    n_entries: int
    total_weight: float  # sum of entry weights (= 2 * undirected weight)
    degrees_ref: "ray.ObjectRef"
    config: EngineConfig

    def degrees(self) -> np.ndarray:
        return ray.get(self.degrees_ref)


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
    """
    cfg = config or DEFAULT_CONFIG
    P = cfg.num_partitions
    # contiguous vid ranges when n is known: dense ids come from SORTED
    # url/raw-id renumbering, so range partitions preserve hostname
    # locality — most Louvain moves become partition-local Gauss-Seidel.
    # Without n, pid = src % P (no locality, perfectly balanced).
    use_range = n_vertices is not None
    n_for_range = n_vertices or 0

    def prep(batch: pa.Table) -> pa.Table:
        t = batch if already_symmetrized else _symmetrize_batch(batch)
        src = t.column("src").to_numpy(zero_copy_only=False)
        if use_range:
            # contiguous ranges preserve the hostname locality of sorted-id
            # renumbering -> most community structure is partition-local
            pid = np.minimum(src * P // max(n_for_range, 1), P - 1).astype(np.int64)
        else:
            pid = (src % P).astype(np.int64)
        return t.append_column("pid", pa.array(pid, type=pa.int64()))

    max_entries = cfg.max_entries_per_shard

    def pack(group: pa.Table) -> pa.Table:
        return pack_shard_table(group, max_entries_per_shard=max_entries)

    # repartition so each (sub-)shard row is its own block: the groupby can
    # merge all P rows into one or two blocks, which would starve the
    # per-block parallelism of every downstream pass (and the ShardPool)
    shards = (
        edges.map_batches(prep, batch_format="pyarrow")
        .groupby("pid")
        .map_groups(pack, batch_format="pyarrow")
        .repartition(P)
        .materialize()
    )

    meta = pa.concat_tables(
        [
            pa.table(b)
            for b in shards.select_columns(
                ["pid", "n_vertices", "n_entries", "max_vid"]
            ).iter_batches(batch_format="pyarrow")
        ]
    )
    n_entries = int(pa.compute.sum(meta.column("n_entries")).as_py() or 0)
    max_vid = int(pa.compute.max(meta.column("max_vid")).as_py() or -1)
    n = n_vertices if n_vertices is not None else max_vid + 1

    # degrees + total weight in one shuffle-free pass over the shards
    def deg_batch(batch: pa.Table) -> pa.Table:
        vids_out, degs_out = [], []
        for shard in unpack_shards(batch):
            vids_out.append(shard.vids)
            degs_out.append(shard.degrees())
        return pa.table(
            {
                "vid": np.concatenate(vids_out) if vids_out else np.empty(0, np.int64),
                "degree": (
                    np.concatenate(degs_out) if degs_out else np.empty(0, np.float64)
                ),
            }
        )

    degrees = np.zeros(n, dtype=np.float64)
    total_weight = 0.0
    for b in shards.map_batches(deg_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        t = pa.table(b)
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        deg = t.column("degree").to_numpy(zero_copy_only=False)
        degrees[vid] = deg  # vids are disjoint across shards
        total_weight += float(deg.sum())

    return GraphHandle(
        shards=shards,
        n=n,
        m=n_entries // 2,
        n_entries=n_entries,
        total_weight=total_weight,
        degrees_ref=ray.put(degrees),
        config=cfg,
    )


def build_graph_small(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    config: EngineConfig | None = None,
    *,
    n_vertices: int,
) -> GraphHandle:
    """Driver-side fast path for SMALL already-symmetrized entry arrays
    (coarse Louvain levels): pack CSR shards with numpy and publish them as
    one Arrow table — skips the shuffle pipeline entirely. Semantically
    identical to build_graph(already_symmetrized=True)."""
    from parallel_louvain_method_ray.graph.csr import (
        SHARD_SCHEMA,
        dedup_sorted_entries,
        pack_shard_table,
    )

    cfg = config or DEFAULT_CONFIG
    P = cfg.num_partitions
    src = src.astype(np.int64, copy=False)
    dst = dst.astype(np.int64, copy=False)
    w = w.astype(np.float64, copy=False)
    pid = np.minimum(src * P // max(n_vertices, 1), P - 1)
    tables = []
    for p in np.unique(pid):
        m = pid == p
        t = pa.table(
            {
                "pid": np.full(int(m.sum()), p, dtype=np.int64),
                "src": src[m],
                "dst": dst[m],
                "weight": w[m],
            }
        )
        tables.append(
            pack_shard_table(t, max_entries_per_shard=cfg.max_entries_per_shard)
        )
    packed = (
        pa.concat_tables(tables)
        if tables
        else pa.Table.from_pydict(
            {k: [] for k in SHARD_SCHEMA.names}, schema=SHARD_SCHEMA
        )
    )
    shards = ray.data.from_arrow(packed).repartition(max(1, packed.num_rows)).materialize()

    # meta + degrees directly from the arrays (dedup matches pack)
    ds_, dd_, ww_ = dedup_sorted_entries(src, dst, w)
    degrees = np.bincount(ds_, weights=ww_, minlength=n_vertices)
    return GraphHandle(
        shards=shards,
        n=n_vertices,
        m=int(ds_.shape[0]) // 2,
        n_entries=int(ds_.shape[0]),
        total_weight=float(ww_.sum()),
        degrees_ref=ray.put(degrees),
        config=cfg,
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
    """Convenience: build a GraphHandle from in-memory numpy edge arrays."""
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": src.astype(np.int64),
                "dst": dst.astype(np.int64),
                "weight": w.astype(np.float64),
            }
        )
    )
    return build_graph(
        ds, config, already_symmetrized=already_symmetrized, n_vertices=n_vertices
    )


def entries_dataset(graph: GraphHandle) -> ray.data.Dataset:
    """The graph's (src, dst, weight) entry list as a Dataset, expanded
    from its CSR shards (symmetrized and deduped, like `build_graph`'s
    input to the pack)."""

    def expand(batch: pa.Table) -> pa.Table:
        out = []
        for shard in unpack_shards(batch):
            s, d, w = shard_to_entries(shard)
            out.append(pa.table({"src": s, "dst": d, "weight": w}))
        return (
            pa.concat_tables(out)
            if out
            else pa.table(
                {
                    "src": np.empty(0, np.int64),
                    "dst": np.empty(0, np.int64),
                    "weight": np.empty(0, np.float64),
                }
            )
        )

    return graph.shards.map_batches(expand, batch_format="pyarrow")


def graph_meta(graph: GraphHandle) -> dict:
    return {
        "n_vertices": graph.n,
        "n_entries": graph.n_entries,
        "m": graph.m,
        "total_weight": graph.total_weight,
    }
