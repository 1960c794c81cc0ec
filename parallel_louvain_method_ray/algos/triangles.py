"""Triangle counting (per-vertex + global) with degree orientation.

Mandated extension (SURVEY §2.6). Orientation trick: each undirected edge
{u, v} is kept only as u->v where (deg(u), u) < (deg(v), v) — oriented
out-degrees are then bounded by O(sqrt(E)), which is the skew defense for
hub vertices (a hub's CSR row is never expanded against another hub's).

Algorithm (wedge-probe, fully vectorized — no per-edge Python loop):
for every owned vertex u, enumerate all pairs {a, b} ⊆ N+(u) (the wedges;
at most C(d+(u), 2) of them, bounded by orientation), orient each pair,
and probe whether the oriented edge (a, b) exists. Every hit closes the
triangle {u, a, b}; counts are credited to all three vertices.

Two probe execution modes, chosen by the CSR entry count:
- "broadcast" (at or below `JOIN_THRESHOLD_ENTRIES`): the sorted oriented
  edge-key array (E/2 int64) is ray.put once; each shard task probes its
  wedges with one vectorized np.searchsorted. Zero shuffles.
- "join" (above it): the wedges are a Dataset (key, u) hash-joined
  against the oriented-edge Dataset (key) — no O(E) broadcast, one
  shuffle; this is the 100 TB path (the oriented adjacency is never
  materialized on any single worker). The O(V) unweighted-degree array
  is still broadcast (same budget as every other algo here; V << E on
  web graphs).

Both modes produce identical counts (tested); pair-level dedup of
multigraph entries (same (src, dst) with two weights) happens in both the
wedge generator and the key table, matching the reference's set semantics
(`/root/reference/src/graph.cpp:80-83`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray.graph.build import GraphHandle
from parallel_louvain_method_ray.graph.csr import unpack_shards

# above this many CSR entries the oriented-edge broadcast is replaced by a
# distributed hash join of wedges against the edge table
JOIN_THRESHOLD_ENTRIES = 50_000_000


def _unweighted_degrees(graph: GraphHandle) -> np.ndarray:
    """Per-vertex unweighted degree = pair-deduped CSR row entry count,
    self-loops excluded (drives the orientation order)."""
    n = graph.n

    def deg_batch(batch: pa.Table) -> pa.Table:
        out_v, out_d = [], []
        for shard in unpack_shards(batch):
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            # pair-dedup: entries are sorted by (src, dst, w) so duplicate
            # (src, dst) pairs are adjacent
            keep = np.ones(src.shape[0], dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (shard.cols[1:] != shard.cols[:-1])
            keep &= src != shard.cols
            d = np.bincount(
                np.searchsorted(shard.vids, src[keep]),
                minlength=shard.vids.shape[0],
            )
            out_v.append(shard.vids)
            out_d.append(d.astype(np.int64))
        return pa.table(
            {
                "vid": np.concatenate(out_v) if out_v else np.empty(0, np.int64),
                "deg": np.concatenate(out_d) if out_d else np.empty(0, np.int64),
            }
        )

    deg = np.zeros(n, dtype=np.int64)
    for b in graph.shards.map_batches(deg_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        t = pa.table(b)
        deg[t.column("vid").to_numpy(zero_copy_only=False)] = t.column(
            "deg"
        ).to_numpy(zero_copy_only=False)
    return deg


def _wedge_tables(graph: GraphHandle, deg_ref, emit_u: bool):
    """Dataset of oriented wedge rows. Each row: key = a*n + b for a wedge
    {a, b} ⊆ N+(u) with (a, b) in orientation order, plus the center u when
    `emit_u`. Vectorized: two-level repeat expansion, no Python loop."""
    n = np.int64(graph.n)

    def gen(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        out_k, out_u = [], []
        for shard in unpack_shards(batch):
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            dst = shard.cols
            # pair-dedup + self-loop drop + keep only oriented out-neighbors
            keep = np.ones(src.shape[0], dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            keep &= src != dst
            keep &= (d[src] < d[dst]) | ((d[src] == d[dst]) & (src < dst))
            nb = dst[keep]
            rows = src[keep]
            if nb.shape[0] == 0:
                continue
            # segment sizes per center vertex (rows are sorted)
            seg_starts = np.flatnonzero(
                np.concatenate([[True], rows[1:] != rows[:-1]])
            )
            seg_sizes = np.diff(np.concatenate([seg_starts, [rows.shape[0]]]))
            # per-element "pairs led by this element" = segment remainder
            pos_in_seg = np.arange(nb.shape[0]) - np.repeat(seg_starts, seg_sizes)
            c = np.repeat(seg_sizes, seg_sizes) - 1 - pos_in_seg
            total = int(c.sum())
            if total == 0:
                continue
            first = np.repeat(np.arange(nb.shape[0]), c)
            offs = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            second = first + 1 + offs
            a, b = nb[first], nb[second]
            swap = (d[a] > d[b]) | ((d[a] == d[b]) & (a > b))
            lo = np.where(swap, b, a)
            hi = np.where(swap, a, b)
            out_k.append(lo * n + hi)
            if emit_u:
                out_u.append(rows[first])
        if not out_k:
            cols = {"key": np.empty(0, np.int64)}
            if emit_u:
                cols["u"] = np.empty(0, np.int64)
            return pa.table(cols)
        cols = {"key": np.concatenate(out_k)}
        if emit_u:
            cols["u"] = np.concatenate(out_u)
        return pa.table(cols)

    return graph.shards.map_batches(gen, batch_format="pyarrow")


def _oriented_key_ds(graph: GraphHandle, deg_ref) -> ray.data.Dataset:
    """Dataset of pair-deduped oriented edge keys (key = a*n + b)."""
    n = np.int64(graph.n)

    def orient(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        out = []
        for shard in unpack_shards(batch):
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            dst = shard.cols
            keep = np.ones(src.shape[0], dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            keep &= src != dst
            keep &= (d[src] < d[dst]) | ((d[src] == d[dst]) & (src < dst))
            out.append(src[keep] * n + dst[keep])
        return pa.table(
            {"key": np.concatenate(out) if out else np.empty(0, np.int64)}
        )

    return graph.shards.map_batches(orient, batch_format="pyarrow")


def triangle_counts(graph: GraphHandle) -> tuple[np.ndarray, int]:
    """Returns (per-vertex triangle counts int64[n], global triangle count).
    The probe runs in "join" mode above JOIN_THRESHOLD_ENTRIES CSR entries
    and in "broadcast" mode otherwise."""
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    # id-key packing needs n^2 < 2^63; beyond ~3e9 vertices switch the join
    # key to the two-column (a, b) form
    if n >= 3_000_000_000:
        raise ValueError(f"single-int64 pair keys need n < 3e9, got n={n}")
    deg = _unweighted_degrees(graph)
    deg_ref = ray.put(deg)

    per_vertex = np.zeros(n, dtype=np.int64)
    if graph.n_entries <= JOIN_THRESHOLD_ENTRIES:
        keys = np.sort(
            np.concatenate(
                [
                    pa.table(b).column("key").to_numpy(zero_copy_only=False)
                    for b in _oriented_key_ds(graph, deg_ref).iter_batches(
                        batch_format="pyarrow"
                    )
                ]
                or [np.empty(0, np.int64)]
            )
        )
        keys_ref = ray.put(keys)
        nn = np.int64(n)

        def probe(batch: pa.Table) -> pa.Table:
            K = ray.get(keys_ref)
            key = batch.column("key").to_numpy(zero_copy_only=False)
            u = batch.column("u").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(K, key)
            hit = pos < K.shape[0]
            hit[hit] = K[pos[hit]] == key[hit]
            acc = np.bincount(u[hit], minlength=n)
            acc += np.bincount((key[hit] // nn), minlength=n)
            acc += np.bincount((key[hit] % nn), minlength=n)
            nz = np.flatnonzero(acc)
            return pa.table({"vid": nz.astype(np.int64), "count": acc[nz]})

        counted = _wedge_tables(graph, deg_ref, emit_u=True).map_batches(
            probe, batch_format="pyarrow"
        )
    else:
        wedges = _wedge_tables(graph, deg_ref, emit_u=True)
        edges = _oriented_key_ds(graph, deg_ref)
        # fan-out bounded by the cluster (join_partitions), NOT the graph's
        # partition count — num_partitions above the CPU budget deadlocks
        # the join aggregator actors on small clusters
        from parallel_louvain_method_ray.graph.build import join_partitions

        joined = wedges.join(
            edges,
            join_type="inner",
            num_partitions=join_partitions(None),
            on=("key",),
        )
        nn = np.int64(n)

        def roles(batch: pa.Table) -> pa.Table:
            key = batch.column("key").to_numpy(zero_copy_only=False)
            u = batch.column("u").to_numpy(zero_copy_only=False)
            acc = np.bincount(u, minlength=n)
            acc += np.bincount(key // nn, minlength=n)
            acc += np.bincount(key % nn, minlength=n)
            nz = np.flatnonzero(acc)
            return pa.table({"vid": nz.astype(np.int64), "count": acc[nz]})

        counted = joined.map_batches(roles, batch_format="pyarrow")

    for b in counted.iter_batches(batch_format="pyarrow"):
        t = pa.table(b)
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        cnt = t.column("count").to_numpy(zero_copy_only=False)
        np.add.at(per_vertex, vid, cnt)
    return per_vertex, int(per_vertex.sum() // 3)


def triangles_oracle(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Dense-matrix oracle (tests only, small graphs)."""
    A = np.zeros((n, n), dtype=np.int64)
    A[src, dst] = 1
    A[dst, src] = 1
    np.fill_diagonal(A, 0)
    return np.diag(A @ A @ A) // 2
