"""Multi-source BFS hop distances, hop-bounded SSSP and the Graph500
BFS parent tree over a GraphHandle.

Two paths, gated on the graph's entry count against
`config.DRIVER_LOCAL_ROWS`:

- at or below it, every round runs on the driver over a CSR of the
  collected entry list;
- above it, BFS and SSSP run as `state.spmv_pool.bfs_partitioned` /
  `sssp_partitioned` rounds over the graph's entry Dataset, and their
  (vid, dist) output is scattered into the same dense array.

Both paths compute the same values: BFS distances are the unique
min-plus fixpoint, and SSSP does exactly one synchronous (Jacobi)
relaxation per round on both, so `hops` bounds the path length the
same way. `bfs_parents` adds one pass for the parent rule: numpy on the
driver-local CSR, or one map_batches pass over the CSR shards."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.graph.build import GraphHandle, entries_dataset
from parallel_louvain_method_ray.graph.csr import unpack_shards
from parallel_louvain_method_ray.state.spmv_pool import (
    bfs_partitioned,
    sssp_partitioned,
    to_dense,
)


def _local_csr(graph: GraphHandle):
    """Driver-side CSR (indptr, cols, weights) of a SMALL graph."""
    from parallel_louvain_method_ray.algos.louvain import _collect_entries

    src, dst, w = _collect_entries(graph)
    n = graph.n
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst, w


def _row_gather(indptr: np.ndarray, rows: np.ndarray):
    """Indices of every CSR entry of `rows`, concatenated (vectorized)."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    out = (
        np.repeat(indptr[rows], counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    return out, counts


def _seed_array(seeds, n: int) -> np.ndarray:
    """Seeds as int64; ValueError on a vid outside [0, n) (numpy would
    wrap a negative seed onto vertex n-1)."""
    s = np.asarray(seeds, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= n):
        raise ValueError(f"seed out of range [0, {n}): [{s.min()}, {s.max()}]")
    return s


def bfs_distances(
    graph: GraphHandle,
    seeds: np.ndarray,
    max_rounds: int = 200,
) -> tuple[np.ndarray, dict]:
    """Hop distance from the nearest seed (symmetrized graph).

    Returns (dist int64[n], metrics); unreachable vertices keep
    dist == n (the INF sentinel — strictly larger than any real hop
    count)."""
    n = graph.n
    seeds = _seed_array(seeds, n)
    if graph.n_entries > config.DRIVER_LOCAL_ROWS:
        out, meta = bfs_partitioned(entries_dataset(graph), n, seeds, max_rounds)
        (dist,) = to_dense(out, n, np.int64(n), "dist")
        return dist, meta
    # level-synchronous frontier BFS on a driver-local CSR
    dist = np.full(n, n, dtype=np.int64)
    dist[seeds] = 0
    indptr, cols, _ = _local_csr(graph)
    frontier = np.unique(seeds)
    level = np.int64(0)
    while frontier.size and level < max_rounds:
        gather, _ = _row_gather(indptr, frontier)
        nbr = cols[gather]
        new = np.unique(nbr[dist[nbr] > level + 1])
        dist[new] = level + 1
        frontier = new
        level += 1
    return dist, {"rounds": int(level)}


def sssp_hops(
    graph: GraphHandle,
    seeds: np.ndarray,
    hops: int,
) -> tuple[np.ndarray, dict]:
    """Hop-bounded weighted shortest paths (exact Bellman-Ford semantics):
    dist after round r = cheapest path from any seed using AT MOST r edges.

    Unlike `bfs_distances`, a round is EXACTLY ONE synchronous relaxation
    (a fixpoint inside a round would relax multi-hop paths and break the
    hop bound the SQL oracle unrolls). Returns float64 dists;
    unreachable-in-`hops` keeps +inf."""
    n = graph.n
    seeds = _seed_array(seeds, n)
    if graph.n_entries > config.DRIVER_LOCAL_ROWS:
        out, _ = sssp_partitioned(entries_dataset(graph), n, seeds, hops)
        (dist,) = to_dense(out, n, np.inf, "dist")
        return dist, {"hops": hops}
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[seeds] = 0.0
    indptr, cols, w = _local_csr(graph)
    if cols.size == 0:
        return dist, {"hops": hops}
    nonempty = np.diff(indptr) > 0
    # reduceat quirks: an empty row reads the NEXT slice's first
    # element, and a trailing empty row's start == len(cols) is out
    # of bounds — clamp the starts and mask empty rows afterwards
    starts = np.minimum(indptr[:-1], cols.size - 1)
    for _ in range(hops):
        cand = np.minimum.reduceat(dist[cols] + w, starts)
        cand[~nonempty] = np.inf
        better = cand < dist
        if not better.any():
            break
        dist[better] = cand[better]
    return dist, {"hops": hops}


def bfs_oracle(
    src: np.ndarray, dst: np.ndarray, n: int, seeds: np.ndarray
) -> np.ndarray:
    """Sequential BFS oracle (tests only). dist == n for unreachable."""
    from collections import deque

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        adj[u].append(v)
    dist = np.full(n, n, dtype=np.int64)
    q = deque()
    for s in np.asarray(seeds, dtype=np.int64).tolist():
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] > dist[u] + 1:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def bfs_parents(
    graph: GraphHandle,
    root: int,
    max_rounds: int = 200,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Graph500-style top-down BFS parent tree from `root` — the output
    contract of the reference's dead `top_down_bfs(0)` driver
    (`/root/reference/src/main_distributed_bfs.cpp:87-89`, declared but
    never implemented).

    Returns (parent int64[n], dist int64[n], metrics): parent[root] ==
    root, unreachable == -1; deterministic tie-break parent[v] = the
    SMALLEST-vid neighbor u with dist[u] == dist[v] - 1 (any such u is a
    valid Graph500 parent; the min makes runs and engines comparable).
    One distance fixpoint + ONE extra shuffle-free pass."""
    dist, meta = bfs_distances(graph, np.array([root]), max_rounds=max_rounds)
    n = graph.n
    if graph.n_entries <= config.DRIVER_LOCAL_ROWS:
        # same min-vid parent rule on a driver-local CSR (one pass)
        parent = np.full(n, -1, dtype=np.int64)
        parent[root] = root
        indptr, cols, _ = _local_csr(graph)
        if cols.size:
            nonempty = np.diff(indptr) > 0
            starts = np.minimum(indptr[:-1], cols.size - 1)
            cur = np.repeat(dist, np.diff(indptr))
            cand = np.where(dist[cols] == cur - 1, cols, np.int64(n))
            row_min = np.minimum.reduceat(cand, starts)
            row_min[~nonempty] = n
            has = (row_min < n) & (dist > 0) & (dist < n)
            parent[has] = row_min[has]
        return parent, dist, meta
    dist_ref = ray.put(dist)

    def kernel(batch: pa.Table) -> pa.Table:
        out_v, out_p = [], []
        d = ray.get(dist_ref)
        for shard in unpack_shards(batch):
            ip = shard.indptr
            cur = d[shard.vids]
            # neighbor dist must equal cur - 1; mask others to the INF
            # sentinel n (never a real vid) and take the row-min vid
            nbr_ok = d[shard.cols] == np.repeat(cur, np.diff(ip)) - 1
            cand = np.where(nbr_ok, shard.cols.astype(np.int64), np.int64(n))
            row_min = np.minimum.reduceat(cand, ip[:-1])
            row_len = np.diff(ip)
            row_min[row_len == 0] = n
            has = (row_min < n) & (cur > 0) & (cur < n)
            out_v.append(shard.vids[has])
            out_p.append(row_min[has])
        return pa.table(
            {
                "vid": np.concatenate(out_v) if out_v else np.empty(0, np.int64),
                "parent": np.concatenate(out_p) if out_p else np.empty(0, np.int64),
            }
        )

    best = np.full(n, n, dtype=np.int64)  # INF sentinel, then min-merge
    for b in graph.shards.map_batches(kernel, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        t = pa.table(b)
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        p = t.column("parent").to_numpy(zero_copy_only=False)
        if vid.shape[0]:
            # a vertex's rows may be hub-split across shards: keep the min
            np.minimum.at(best, vid, p)
    parent = np.where(best < n, best, np.int64(-1))
    parent[root] = root
    return parent, dist, meta
