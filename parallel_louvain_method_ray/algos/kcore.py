"""Bounded k-core peeling over an edge Dataset.

Synchronous (Jacobi) peel: round r keeps exactly the vertices with >= k
neighbors alive in round r-1's vertex set — the same per-round semantics
the SQL oracle unrolls, so an exact `rounds` bound gives identical results
on BOTH sides even when peeling has not converged yet (removal is
monotone, so extra rounds past the fixpoint are no-ops).

`kcore_bounded` takes one of two paths by the raw edge count (an upper
bound on the distinct pairs) against `config.DRIVER_LOCAL_ROWS`:

- at or below it, the edges are collected, normalised to (min, max)
  pairs without self-loops and deduped with `np.unique` on the driver,
  and every round is two `np.bincount` calls;
- above it, `state.spmv_pool.kcore_peel_partitioned` peels the raw
  edges on the pool: its side "u" split drops self-loops and emits both
  directions, each vertex's actor dedups its own spokes, and the
  surviving vids come back as the same `bool[n]` mask. No distinct-pair
  shuffle runs on either path. Parity of the two paths is pinned in
  tests/test_graph_algos.py and tests/test_joined_path.py."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.state.spmv_pool import kcore_peel_partitioned


def undirected_dedup(
    edges: ray.data.Dataset, src_col: str = "src", dst_col: str = "dst"
) -> ray.data.Dataset:
    """(src, dst) multiset -> distinct undirected pairs (a < b), self-loops
    dropped. One groupby shuffle."""

    def norm(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).to_numpy(zero_copy_only=False)
        d = batch.column(dst_col).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "a": pa.array(np.minimum(s, d).astype(np.int64)),
                "b": pa.array(np.maximum(s, d).astype(np.int64)),
            }
        )

    return (
        edges.map_batches(norm, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
    )


def kcore_bounded(
    edges: ray.data.Dataset,
    n: int,
    k: int,
    rounds: int = 16,
    src_col: str = "src",
    dst_col: str = "dst",
) -> tuple[np.ndarray, dict]:
    """Returns (alive bool[n] after exactly `rounds` synchronous peels —
    or the earlier fixpoint, which is identical — and metrics). Both
    paths raise ValueError on an endpoint outside [0, n)."""
    edges = edges.materialize()
    alive = np.zeros(n, dtype=bool)
    if edges.count() > config.DRIVER_LOCAL_ROWS:
        out, meta = kcore_peel_partitioned(
            edges, k, rounds, src_col=src_col, dst_col=dst_col, n=n
        )
        for t in out.iter_batches(batch_format="pyarrow"):
            alive[t.column("vid").to_numpy(zero_copy_only=False)] = True
        return alive, {"rounds": meta["rounds"]}
    ss, ds = [], []
    for t in edges.iter_batches(batch_format="pyarrow"):
        ss.append(t.column(src_col).to_numpy(zero_copy_only=False))
        ds.append(t.column(dst_col).to_numpy(zero_copy_only=False))
    s = np.concatenate(ss).astype(np.int64) if ss else np.empty(0, np.int64)
    d = np.concatenate(ds).astype(np.int64) if ds else np.empty(0, np.int64)
    keep = s != d
    a = np.minimum(s[keep], d[keep])
    b = np.maximum(s[keep], d[keep])
    if a.size and (a.min() < 0 or b.max() >= n):
        raise ValueError(
            f"kcore: endpoint out of range [0, {n}): [{a.min()}, {b.max()}]"
        )
    # distinct undirected pairs (the semantics of undirected_dedup)
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    a, b = pairs[:, 0], pairs[:, 1]
    alive[a] = True
    alive[b] = True
    done = 0
    for r in range(rounds):
        live = alive[a] & alive[b]
        deg = np.bincount(a[live], minlength=n) + np.bincount(
            b[live], minlength=n
        )
        new_alive = alive & (deg >= k)
        done = r + 1
        if np.array_equal(new_alive, alive):
            break
        alive = new_alive
    return alive, {"rounds": done}
