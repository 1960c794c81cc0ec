"""HITS (hubs & authorities) over a directed edge Dataset.

Fixed-iteration, L1-normalized power iteration:

    a_k = normalize(A^T h_{k-1})        h_k = normalize(A a_k)

Two paths, gated on the edge count against `config.DRIVER_LOCAL_ROWS`:
at or below it the (src, dst, w) columns are collected and each
half-step is one `np.bincount` on the driver; above it
`state.spmv_pool.hits_partitioned` runs the same half-steps on the pool
and its (vid, hub, authority) output is scattered into dense arrays. The
iteration count is fixed so the truncated computation is exactly
reproducible by the unrolled SQL oracle. Both paths raise ValueError on
an endpoint outside [0, n)."""

from __future__ import annotations

import numpy as np
import ray.data

from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.state.spmv_pool import hits_partitioned, to_dense


def hits(
    edges: ray.data.Dataset,
    n: int,
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Returns (hubs float64[n], authorities float64[n], metrics).
    Raises ValueError when iters < 1, on both paths."""
    if iters < 1:
        raise ValueError(f"hits: iters must be >= 1, got {iters}")
    edges = edges.materialize()
    if edges.count() > config.DRIVER_LOCAL_ROWS:
        out, _ = hits_partitioned(
            edges, n, iters, src_col=src_col, dst_col=dst_col, weight_col=weight_col
        )
        h, a = to_dense(out, n, 0.0, "hub", "authority")
        return h, a, {"iterations": iters}
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    parts: list[list[np.ndarray]] = [[] for _ in cols]
    for t in edges.iter_batches(batch_format="pyarrow"):
        for p, c in zip(parts, cols):
            p.append(t.column(c).to_numpy(zero_copy_only=False))
    s, d, *w = [np.concatenate(p) if p else np.empty(0) for p in parts]
    s, d = s.astype(np.int64), d.astype(np.int64)
    w = w[0].astype(np.float64) if w else np.ones(s.shape[0])
    for name, v in ((src_col, s), (dst_col, d)):
        if v.size and (v.min() < 0 or v.max() >= n):
            # bincount(minlength=n) would silently grow past n, and numpy
            # would wrap a negative vid onto vertex n-1
            raise ValueError(
                f"hits: {name} endpoint out of range [0, {n}): "
                f"[{v.min()}, {v.max()}]"
            )
    h = np.ones(n, dtype=np.float64)
    a = np.zeros(n, dtype=np.float64)
    for _ in range(iters):
        a = np.bincount(d, weights=w * h[s], minlength=n)
        z = a.sum()
        if z > 0:
            a = a / z
        h = np.bincount(s, weights=w * a[d], minlength=n)
        z = h.sum()
        if z > 0:
            h = h / z
    return h, a, {"iterations": iters}
