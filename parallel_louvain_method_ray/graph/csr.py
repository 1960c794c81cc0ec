"""CSR shard layout.

The reference flattens a sorted adjacency map into three parallel arrays
(`row_index`, `column_index`, `weights`) per MPI rank
(`/root/reference/src/graph.cpp:51-63`, `src/graph.h:114-117`).

Here a "shard" is one vertex partition's CSR, packed as a SINGLE Arrow row
with large_list columns so that a whole level's graph is a tiny Dataset of P
rows that can be materialized once and re-scanned cheaply by every Louvain
sweep / PageRank iteration without re-shuffling. List values unpack to numpy
zero-copy (they are plain primitive buffers).

Semantics pinned to the reference:
- entries are the symmetrized, triple-deduped `(src, dst, weight)` list —
  i.e. `std::map<int, std::set<pair<nbr, w>>>` insertion of both directions
  (`src/graph.cpp:78-85`): duplicate *triples* collapse, but two entries for
  the same (src, dst) with different weights both survive;
- entries sorted by (src, dst, weight) — `std::set<pair>` ordering;
- self-loops appear once;
- `m = n_entries // 2` (integer floor!) exactly like `sparsify`'s
  `return edges / 2` (`src/graph.cpp:62`) — NOT the weight sum; modularity
  uses `2m` (`src/community.cpp:51`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

SHARD_SCHEMA = pa.schema(
    [
        ("pid", pa.int64()),
        ("n_vertices", pa.int64()),
        ("n_entries", pa.int64()),
        ("max_vid", pa.int64()),
        ("vids", pa.large_list(pa.int64())),
        ("indptr", pa.large_list(pa.int64())),
        ("cols", pa.large_list(pa.int64())),
        ("weights", pa.large_list(pa.float64())),
    ]
)


@dataclass
class CSRShard:
    """In-memory view of one partition's CSR (numpy, zero-copy from Arrow)."""

    pid: int
    vids: np.ndarray  # sorted local source vertex ids, shape (n_local,)
    indptr: np.ndarray  # shape (n_local + 1,)
    cols: np.ndarray  # shape (n_entries,)
    weights: np.ndarray  # shape (n_entries,)

    @property
    def n_entries(self) -> int:
        return int(self.cols.shape[0])

    def degrees(self) -> np.ndarray:
        """Weighted degree per local vertex = CSR row weight sum
        (reference `weighted_degree`, `src/graph.cpp:238-247`; self-loop
        weight counted once)."""
        return np.add.reduceat(
            self.weights, self.indptr[:-1], dtype=np.float64
        ) * (self.indptr[:-1] != self.indptr[1:])


def dedup_sorted_entries(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort entries by (src, dst, weight) and drop duplicate triples.

    Matches `std::set<pair<unsigned,double>>` per-vertex insertion in the
    reference (`src/graph.cpp:80-83`): exact duplicate (dst, w) pairs for a
    vertex collapse to one.
    """
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.shape[0] == 0:
        return src, dst, w
    keep = np.empty(src.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | (w[1:] != w[:-1])
    return src[keep], dst[keep], w[keep]


def pack_shard_table(
    group: pa.Table, max_entries_per_shard: int = 4_000_000
) -> pa.Table:
    """Pack one partition's `(pid, src, dst, weight)` rows into CSR-shard
    row(s) (SHARD_SCHEMA). Input may contain duplicate triples; they are
    deduped here, making partition-local dedup equal to global dedup
    because the dedup key (src, dst, weight) is a superset of the partition
    key hash(src).

    Skew defense: a partition whose entry count exceeds
    `max_entries_per_shard` (hub-heavy pid) is SPLIT into multiple shard
    rows on vertex boundaries — each vertex's full CSR row stays within one
    shard (local-move semantics intact), but downstream map_batches can
    schedule the sub-shards independently instead of one straggler task
    owning the whole hub partition.
    """
    pid = int(group.column("pid")[0].as_py())
    src = group.column("src").to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    dst = group.column("dst").to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    w = group.column("weight").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)

    src, dst, w = dedup_sorted_entries(src, dst, w)
    vids, counts = np.unique(src, return_counts=True)
    indptr = np.zeros(vids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    max_vid = int(max(src.max(), dst.max())) if src.shape[0] else -1

    # split points on vertex boundaries (vectorized: one searchsorted per cut)
    cuts = [0]
    nv = vids.shape[0]
    while cuts[-1] < nv:
        target = indptr[cuts[-1]] + max_entries_per_shard
        nxt = int(np.searchsorted(indptr, target, side="left"))
        nxt = max(nxt, cuts[-1] + 1)  # always advance at least one vertex
        cuts.append(min(nxt, nv))

    rows = {k: [] for k in (
        "pid", "n_vertices", "n_entries", "max_vid", "vids", "indptr", "cols", "weights"
    )}
    for a, b in zip(cuts[:-1], cuts[1:]):
        lo, hi = indptr[a], indptr[b]
        rows["pid"].append(pid)
        rows["n_vertices"].append(int(b - a))
        rows["n_entries"].append(int(hi - lo))
        rows["max_vid"].append(max_vid if a == 0 else -1)  # count once per pid
        rows["vids"].append(vids[a:b])
        rows["indptr"].append(indptr[a : b + 1] - lo)
        rows["cols"].append(dst[lo:hi])
        rows["weights"].append(w[lo:hi])
    return pa.Table.from_pydict(rows, schema=SHARD_SCHEMA)


def unpack_shards(batch: pa.Table) -> list[CSRShard]:
    """Unpack a batch of packed shard rows into CSRShard numpy views."""
    out = []
    for i in range(batch.num_rows):
        row_pid = batch.column("pid")[i].as_py()
        vids = np.asarray(batch.column("vids")[i].values)
        indptr = np.asarray(batch.column("indptr")[i].values)
        cols = np.asarray(batch.column("cols")[i].values)
        weights = np.asarray(batch.column("weights")[i].values)
        out.append(CSRShard(int(row_pid), vids, indptr, cols, weights))
    return out


def shard_to_entries(shard: CSRShard) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a shard back to flat (src, dst, weight) entry arrays."""
    counts = np.diff(shard.indptr)
    src = np.repeat(shard.vids, counts)
    return src, shard.cols, shard.weights


def shards_to_entries(
    shards: list[CSRShard],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (src, dst, weight) entries of `shards`, concatenated in list
    order. Ids keep the shards' dtype (int64 from Arrow, int32 on pool
    workers); an empty list gives empty int64 / int64 / float64 arrays."""
    if not shards:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    parts = [shard_to_entries(s) for s in shards]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


def sum_by_key(key: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, float64 weight sum per key), each sum taken in
    input order — the contraction step of coarsening, keyed on
    `comm[src] * ncomms + comm[dst]`."""
    uk, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(uk.shape[0], dtype=np.float64)
    np.add.at(wsum, inv, w)
    return uk, wsum
