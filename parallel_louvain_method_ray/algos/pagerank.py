"""PageRank via power iteration over CSR shards.

Mandated extension (BASELINE.json north_rule) — no reference counterpart
(SURVEY §2.6). Standard published formulation:

    r'(v) = (1-d)/N + d * ( sum_{u->v} r(u) * w(u,v)/outdeg_w(u)
                            + dangling_mass / N )

with damping d = 0.85, uniform init 1/N, dangling mass (vertices with zero
out-weight) redistributed uniformly, convergence on L1 delta < tol.

Execution: each iteration is one ShardPool round (`state/shard_pool.py`):
the workers' dense partial incoming vectors are summed on the driver, and
the rank vector is O(V) driver state broadcast via ray.put. Above
`ShardPool.DRIVER_REDUCE_MAX_N` vertices the fully-sharded
`ShardPool.pagerank_power` keeps the rank slices in the object store
instead; PageRank with an `on_iteration` hook and `katz_centrality` keep
the driver sum at every size. Every path updates with `pagerank_step`.
"""

from __future__ import annotations

import numpy as np

from parallel_louvain_method_ray.graph.build import GraphHandle
from parallel_louvain_method_ray.state.shard_pool import pagerank_step, pool_for


def pagerank(
    graph: GraphHandle,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 100,
    on_iteration=None,
    start_ranks: np.ndarray | None = None,
    start_iter: int = 0,
    pool=None,
    personalization: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Returns (ranks float64[n], metrics). The graph's entry list is
    interpreted as the DIRECTED arc set (for undirected PageRank pass the
    symmetrized graph — both directions are already present in shards).

    `personalization`: optional restart distribution p (normalized here);
    teleport and dangling mass go to p instead of uniform 1/N, and the
    default init is p — standard personalized PageRank. Runs on `pool`,
    or on an owned pool when None."""
    n = graph.n
    out_w = graph.degrees()  # weighted out-degree = CSR row weight sums
    dangling = out_w <= 0.0
    if personalization is not None:
        p = personalization.astype(np.float64)
        s = p.sum()
        if s <= 0:
            raise ValueError("personalization must have positive mass")
        p = p / s
    else:
        p = None
    ranks = (
        start_ranks.copy()
        if start_ranks is not None
        else (p.copy() if p is not None else np.full(n, 1.0 / n, dtype=np.float64))
    )
    inv_out = np.zeros(n, dtype=np.float64)
    inv_out[~dangling] = 1.0 / out_w[~dangling]
    iters = 0
    delta = np.inf

    with pool_for(graph, pool) as pool:
        if on_iteration is None and n > pool.DRIVER_REDUCE_MAX_N:
            # large state: fully-sharded power iteration — rank slices live
            # in plasma, per-round driver work is O(W) scalars (no O(n)
            # broadcast put / dense per-worker accumulators; see
            # ShardPool.pagerank_power)
            ranks, info = pool.pagerank_power(
                inv_out,
                dangling,
                damping=damping,
                tol=tol,
                max_iter=max_iter - start_iter,
                r0=ranks if (start_ranks is not None or p is not None) else None,
                p=p,
            )
            return ranks, {
                "iterations": start_iter + info["iterations"],
                "l1_delta": info["l1_delta"],
            }

        for it in range(start_iter, max_iter):
            scaled = ranks * inv_out  # rank(u)/outdeg_w(u), 0 for dangling
            incoming = pool.pagerank_iter(scaled)
            dangling_mass = float(ranks[dangling].sum())
            new_ranks = pagerank_step(incoming, dangling_mass, n, damping, p)
            delta = float(np.abs(new_ranks - ranks).sum())
            ranks = new_ranks
            iters = it + 1
            if on_iteration is not None:
                on_iteration(it, ranks, delta)
            if delta < tol:
                break
    return ranks, {"iterations": iters, "l1_delta": delta}


def pagerank_oracle(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n: int,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Driver-side dense oracle with identical semantics (tests only)."""
    out_w = np.bincount(src, weights=w, minlength=n)
    dangling = out_w <= 0.0
    inv = np.zeros(n)
    inv[~dangling] = 1.0 / out_w[~dangling]
    r = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        s = r * inv
        incoming = np.bincount(dst, weights=s[src] * w, minlength=n)
        dm = r[dangling].sum()
        nr = (1 - damping) / n + damping * (incoming + dm / n)
        if np.abs(nr - r).sum() < tol:
            return nr
        r = nr
    return r


def katz_centrality(
    graph: GraphHandle,
    alpha: float = 0.005,
    beta: float = 1.0,
    iters: int = 5,
) -> tuple[np.ndarray, dict]:
    """Katz centrality by fixed-iteration power series:
    x_k = alpha * A^T x_{k-1} + beta, x_0 = beta * 1.

    Reuses the PageRank incoming-sum round, `ShardPool.pagerank_iter` (no
    degree normalization — that is the only difference from a PageRank
    iteration), on an owned pool. Fixed `iters` so the truncated
    series is exactly reproducible by the unrolled SQL oracle; pick
    alpha < 1/lambda_max when convergence (not parity) matters."""
    x = np.full(graph.n, beta, dtype=np.float64)
    with pool_for(graph) as pool:
        for _ in range(iters):
            x = alpha * pool.pagerank_iter(x) + beta
    return x, {"iterations": iters}
