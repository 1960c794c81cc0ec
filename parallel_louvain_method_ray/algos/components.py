"""Connected components via min-label propagation over CSR shards.

Mandated extension (SURVEY §2.6). Semantics: label(v) converges to the
minimum vid in v's component (exact, deterministic). Each global round is
one ShardPool round (`ShardPool.cc_round`); inside a shard the worker runs
the local propagation to a LOCAL fixpoint (cheap numpy reduceat loop)
before emitting changes, which cuts the number of global rounds to roughly
the number of cross-partition hops.
"""

from __future__ import annotations

import numpy as np

from parallel_louvain_method_ray.graph.build import GraphHandle
from parallel_louvain_method_ray.state.shard_pool import pool_for


def connected_components(
    graph: GraphHandle, max_rounds: int = 200, on_round=None, pool=None
) -> tuple[np.ndarray, dict]:
    """Requires a symmetrized graph. Returns (labels int64[n], metrics);
    vertices absent from the edge set keep label = own vid (isolated).
    Runs on `pool`, or on an owned pool when None."""
    labels = np.arange(graph.n, dtype=np.int64)
    rounds = 0
    with pool_for(graph, pool) as pool:
        while rounds < max_rounds:
            changed = 0
            for vid, lab in pool.cc_round(labels):
                if vid.shape[0]:
                    np.minimum.at(labels, vid, lab)
                    changed += vid.shape[0]
            rounds += 1
            if on_round is not None:
                on_round(rounds, labels, changed)
            if changed == 0:
                break
    return labels, {"rounds": rounds}


def components_oracle(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Union-find oracle (tests only): label = min vid per component."""
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(src.tolist(), dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(i) for i in range(n)], dtype=np.int64)
