"""Bounded k-core peeling over an edge Dataset.

Synchronous (Jacobi) peel: round r keeps exactly the vertices with >= k
neighbors alive in round r-1's vertex set — the same per-round semantics
the SQL oracle unrolls, so an exact `rounds` bound gives identical results
on BOTH sides even when peeling has not converged yet (removal is
monotone, so extra rounds past the fixpoint are no-ops).

Two tiers (the same contract as Louvain/PageRank/CC/LPA):

- `kcore_bounded` (broadcast): the undirected distinct edge set is built
  once with a groupby dedupe (one shuffle) and materialized; each round
  is one shuffle-free map_batches pass emitting per-vertex alive-degree
  partials against a broadcast alive bitmap (O(V) driver state).
- `state.spmv_pool.kcore_peel_partitioned` (sharded tier, above
  `max_broadcast_vertices`): the deduped spokes and each vertex's
  survivor flag live on the pool actor that owns the vertex; a round is
  one count wave plus a combine, and the alive set comes back as a
  Dataset. Identical per-round semantics (parity pinned in
  tests/test_joined_path.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

# driver-local peel gate: distinct undirected pairs at or below this run
# the whole loop on the driver (mirrors algos/bfs.py:_DRIVER_LOCAL_ENTRIES)
_DRIVER_LOCAL_PAIRS = 200_000


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
    or the earlier fixpoint, which is identical — and metrics)."""
    und = undirected_dedup(edges, src_col, dst_col).materialize()
    alive = np.zeros(n, dtype=bool)

    # tiny graphs run the identical peel loop driver-locally: each
    # distributed round is a full Ray Data execution (~0.2-1 s of fixed
    # cost), and below the engine's driver-local budget the pair list
    # fits the driver anyway (same gate family as EngineConfig.
    # driver_local_entries — the third tier the architecture documents)
    if und.count() <= _DRIVER_LOCAL_PAIRS:
        ats, bts = [], []
        for batch in und.iter_batches(batch_format="pyarrow"):
            t = pa.table(batch)
            ats.append(t.column("a").to_numpy(zero_copy_only=False))
            bts.append(t.column("b").to_numpy(zero_copy_only=False))
        a = np.concatenate(ats) if ats else np.empty(0, np.int64)
        b = np.concatenate(bts) if bts else np.empty(0, np.int64)
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

    # round 0: every vertex incident to an edge, as a distributed
    # distinct-vid aggregate — per-block np.unique inside map_batches, then
    # a groupby over the (already much smaller) per-block-distinct stream,
    # so the driver receives exactly O(V) rows, never O(E). (The broadcast
    # tier's contract is O(V) driver state; streaming every undirected edge
    # through iter_batches here violated it.)
    def distinct_endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table({"vid": np.unique(np.concatenate([a, b]))})

    vids = (
        und.map_batches(distinct_endpoints, batch_format="pyarrow")
        .groupby("vid")
        .count()
        .select_columns(["vid"])
    )
    for batch in vids.iter_batches(batch_format="pyarrow"):
        alive[pa.table(batch).column("vid").to_numpy(zero_copy_only=False)] = True

    done = 0
    for r in range(rounds):
        alive_ref = ray.put(alive)

        def degs(batch: pa.Table) -> pa.Table:
            al = ray.get(alive_ref)
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            live = al[a] & al[b]
            a, b = a[live], b[live]
            acc = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
            nz = np.flatnonzero(acc)
            return pa.table(
                {"vid": nz.astype(np.int64), "d": acc[nz].astype(np.int64)}
            )

        deg = np.zeros(n, dtype=np.int64)
        for batch in und.map_batches(degs, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            t = pa.table(batch)
            np.add.at(
                deg,
                t.column("vid").to_numpy(zero_copy_only=False),
                t.column("d").to_numpy(zero_copy_only=False),
            )
        new_alive = alive & (deg >= k)
        done = r + 1
        if np.array_equal(new_alive, alive):
            break
        alive = new_alive
    return alive, {"rounds": done}

