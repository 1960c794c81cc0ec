"""Bounded-round k-truss — the edge-level dense-subgraph filter next to
k-core (`algos/kcore.py`): synchronously remove every edge whose
triangle support (common-neighbor count) is below k-2, repeat for a
bounded number of Jacobi rounds. Exact per-round semantics, so an
unrolled SQL oracle reproduces the surviving edge set even where the
peel has not converged.

Round kernel (shared verbatim by both execution tiers):
degree-orient the alive pairs (the triangles hub-skew defense,
`algos/triangles.py`), expand each oriented adjacency row into its
wedge pairs with the same repeat/offset expansion, probe the oriented
key set, and credit each closed triangle to its THREE canonical edge
keys via searchsorted + bincount — no per-edge Python loop anywhere.

Tiers (the engine's documented ladder):
- driver-local under `config.DRIVER_LOCAL_ROWS` (same budget as the
  k-core peel): the whole loop is numpy on the collected pair list.
- broadcast tier above it: the per-round oriented arrays and the probe
  key set are `ray.put` ONCE per round and the wedge expansion — the
  O(sum d+^2) term that dominates — fans out as vertex-range tasks,
  each returning one partial support bincount (O(E/2) ints). Driver
  state is O(E/2) pair keys, the same class as the triangles broadcast
  mode's oriented-key array; the join tier for 50M+ entry graphs would
  replace the probe broadcast with the wedge/key hash join exactly as
  `triangle_counts(mode="join")` does.

Key packing is a*n + b (n = vertex-id bound), int64-safe for n < 3e9;
the 10^12-vertex route switches to the split (a, b) join keys the link
predictor uses (`algos/linkpred.py`).

No counterpart in /root/reference (its only dense-subgraph machinery is
the Louvain sweep); SURVEY §2.6 extension family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.algos.kcore import undirected_dedup


def _support(a: np.ndarray, b: np.ndarray, n: int, tasks: int = 0) -> np.ndarray:
    """Triangle support per canonical pair (a < b, unique), via oriented
    wedge probing. `tasks` > 0 fans the wedge expansion out as that many
    vertex-range Ray tasks (broadcast tier); 0 runs it inline."""
    m = a.shape[0]
    sup = np.zeros(m, np.int64)
    if m == 0:
        return sup
    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    swap = (deg[a] > deg[b]) | ((deg[a] == deg[b]) & (a > b))
    t = np.where(swap, b, a)
    h = np.where(swap, a, b)
    order = np.lexsort((h, t))
    ts, hs = t[order], h[order]
    nn = np.int64(n)
    or_keys = np.sort(ts * nn + hs)
    pair_keys = np.sort(a * nn + b)  # a<b unique -> sorted == unique

    def expand(lo_i: int, hi_i: int, deg_, ts_, hs_, or_keys_, pair_keys_):
        """Support partial from wedge rows [lo_i, hi_i) of the oriented
        adjacency (row boundaries must align to center-vertex segments)."""
        rows, nb = ts_[lo_i:hi_i], hs_[lo_i:hi_i]
        out = np.zeros(pair_keys_.shape[0], np.int64)
        if rows.shape[0] == 0:
            return out
        seg_starts = np.flatnonzero(
            np.concatenate([[True], rows[1:] != rows[:-1]])
        )
        seg_sizes = np.diff(np.concatenate([seg_starts, [rows.shape[0]]]))
        pos = np.arange(nb.shape[0]) - np.repeat(seg_starts, seg_sizes)
        c = np.repeat(seg_sizes, seg_sizes) - 1 - pos
        total = int(c.sum())
        if total == 0:
            return out
        first = np.repeat(np.arange(nb.shape[0]), c)
        offs = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        second = first + 1 + offs
        x, y = nb[first], nb[second]
        sw = (deg_[x] > deg_[y]) | ((deg_[x] == deg_[y]) & (x > y))
        lo = np.where(sw, y, x)
        hi = np.where(sw, x, y)
        wk = lo * np.int64(deg_.shape[0]) + hi
        idx = np.searchsorted(or_keys_, wk)
        idx[idx >= or_keys_.shape[0]] = 0
        hit = or_keys_[idx] == wk
        u = rows[first][hit]
        x, y = x[hit], y[hit]
        nn_ = np.int64(deg_.shape[0])
        for ka, kb in ((u, x), (u, y), (x, y)):
            key = np.minimum(ka, kb) * nn_ + np.maximum(ka, kb)
            p = np.searchsorted(pair_keys_, key)
            out += np.bincount(p, minlength=pair_keys_.shape[0])
        return out

    if tasks <= 1:
        sup_sorted = expand(0, ts.shape[0], deg, ts, hs, or_keys, pair_keys)
    else:
        refs_in = tuple(ray.put(x) for x in (deg, ts, hs, or_keys, pair_keys))

        @ray.remote(num_cpus=1)
        def part(lo_i, hi_i, deg_, ts_, hs_, ok_, pk_):
            return expand(lo_i, hi_i, deg_, ts_, hs_, ok_, pk_)

        # chunk on center-vertex boundaries so no segment is split
        cuts = [0]
        step = max(1, ts.shape[0] // tasks)
        while cuts[-1] < ts.shape[0]:
            j = min(cuts[-1] + step, ts.shape[0])
            while j < ts.shape[0] and ts[j] == ts[j - 1]:
                j += 1
            cuts.append(j)
        parts = ray.get(
            [
                part.remote(lo_i, hi_i, *refs_in)
                for lo_i, hi_i in zip(cuts, cuts[1:])
            ]
        )
        sup_sorted = np.sum(parts, axis=0)

    # map support back from sorted-key order to input pair order
    sup[np.argsort(a * nn + b)] = sup_sorted
    return sup


def ktruss_bounded(
    edges: ray.data.Dataset,
    n: int,
    k: int,
    rounds: int = 8,
    src_col: str = "src",
    dst_col: str = "dst",
) -> tuple[pa.Table, dict]:
    """Surviving undirected pairs (a < b) after exactly `rounds`
    synchronous support peels at threshold k-2 (or the earlier fixpoint,
    which is identical) + metrics."""
    und = undirected_dedup(edges, src_col, dst_col).materialize()
    n_pairs = und.count()
    ats, bts = [], []
    for batch in und.iter_batches(batch_format="pyarrow"):
        tt = pa.table(batch)
        ats.append(tt.column("a").to_numpy(zero_copy_only=False))
        bts.append(tt.column("b").to_numpy(zero_copy_only=False))
    a = np.concatenate(ats) if ats else np.empty(0, np.int64)
    b = np.concatenate(bts) if bts else np.empty(0, np.int64)
    tasks = 0
    if n_pairs > config.DRIVER_LOCAL_ROWS:
        tasks = int(ray.cluster_resources().get("CPU", 8))
    done = 0
    for r in range(rounds):
        if a.shape[0] == 0:
            break
        keep = _support(a, b, n, tasks=tasks) >= k - 2
        done = r + 1
        if keep.all():
            break
        a, b = a[keep], b[keep]
    return (
        pa.table({"a": pa.array(a), "b": pa.array(b)}),
        {"rounds_run": done, "pairs_in": int(n_pairs), "pairs_out": int(a.shape[0])},
    )
