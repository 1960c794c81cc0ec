"""Label propagation (community detection) over CSR shards.

Mandated extension (SURVEY §2.6). Deterministic synchronous formulation
(the engine defines the tie-break; the reference has no LPA):

- init: label(v) = v;
- sweep (synchronous — all vertices evaluated against the sweep-start
  labels): v adopts the label with the maximal total incident edge weight
  among its neighbors (self-loops excluded); ties -> smallest label id;
  a vertex keeps its label when it already attains that maximum
  (i.e. the winning (weight, -label) is not strictly better than the
  current label's);
- stop when a sweep changes no label, or after max_sweeps (synchronous LPA
  can 2-cycle on bipartite-ish structure; the cap plus the
  keep-current-on-tie rule makes the result deterministic either way);
- final labels canonicalized by smallest member vid.
"""

from __future__ import annotations

import numpy as np

from parallel_louvain_method_ray.graph.build import GraphHandle
from parallel_louvain_method_ray.state.shard_pool import pool_for


def label_propagation(
    graph: GraphHandle, max_sweeps: int = 25, on_sweep=None, pool=None
) -> tuple[np.ndarray, dict]:
    """Returns (labels int64[n], metrics). Each sweep is one ShardPool
    round (`ShardPool.lpa_sweep`) on `pool`, or on an owned pool when
    None."""
    labels = np.arange(graph.n, dtype=np.int64)
    sweeps = 0
    with pool_for(graph, pool) as pool:
        for _ in range(max_sweeps):
            changed = 0
            new_labels = labels.copy()
            for vid, lab in pool.lpa_sweep(labels):
                new_labels[vid] = lab
                changed += int(vid.shape[0])
            labels = new_labels
            sweeps += 1
            if on_sweep is not None:
                on_sweep(sweeps, labels, changed)
            if changed == 0:
                break
    return labels, {"sweeps": sweeps}


def lpa_oracle(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n: int,
    max_sweeps: int = 25,
) -> np.ndarray:
    """Driver-side dense oracle with the same documented semantics."""
    keep = src != dst
    s = np.concatenate([src[keep], dst[keep]])
    d = np.concatenate([dst[keep], src[keep]])
    ww = np.concatenate([w[keep], w[keep]])
    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_sweeps):
        new = labels.copy()
        changed = 0
        for v in range(n):
            m = s == v
            if not m.any():
                continue
            nl = labels[d[m]]
            uw = {}
            for lab, wt in zip(nl.tolist(), ww[m].tolist()):
                uw[lab] = uw.get(lab, 0.0) + wt
            cur = labels[v]
            curw = uw.get(cur, 0.0)
            best, bw = cur, curw
            for lab in sorted(uw):
                if uw[lab] > bw or (uw[lab] == bw and lab < best):
                    best, bw = lab, uw[lab]
            if best != cur:
                new[v] = best
                changed += 1
        labels = new
        if changed == 0:
            break
    return labels
