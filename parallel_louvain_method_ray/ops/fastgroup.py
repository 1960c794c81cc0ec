"""Sort-based exact count-by-key — a shuffle-equal, combine-free
alternative to ``ds.groupby(key).count()``.

Ray Data's sort-based groupby pays a per-distinct-key Python combine
(measured on this box: ~7 s at 50k distinct keys, ~0.5 s at 5k, while a
full ``ds.sort`` of the same rows is 0.14 s — NOTES_ROUND5 "Numbers").
For count-style aggregates the sort already did all the work: after
``ds.sort(key)`` every key's rows are globally contiguous, so each batch
counts its interior runs vectorized, and only the BOUNDARY runs (each
batch's first and last key, which may continue in a neighboring batch)
need a driver-side merge — O(2 x batches) driver rows, O(1) per row.

The correctness argument needs only two facts, both guaranteed by a
global sort regardless of how blocks are split into batches:
  (a) a key that appears in more than one batch is the first or last key
      of EVERY batch it touches (its rows are globally contiguous);
  (b) a key strictly interior to a batch appears in no other batch.
So interior runs are final as computed, and summing the boundary rows by
key at the driver yields exact global totals for the rest.

At 100 TB this performs the same all-to-all range shuffle the groupby
would; it removes only the per-key combine. Driver state stays
O(batches), independent of the key-domain size.

No counterpart in /root/reference (its only aggregation is the CSR
adjacency fold, `src/graph.cpp:51-63`); this is engine infrastructure
for the large-key-domain text/dedup operators.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.algos._local_move import _runs


def boundary_run_totals(
    sorted_ds: ray.data.Dataset, key: str
) -> tuple[np.ndarray, np.ndarray]:
    """Global totals for every key that is the first or last key of any
    batch of a key-sorted dataset: ``(keys_sorted, totals)`` driver-side
    arrays. Keys strictly interior to one batch are absent by design —
    their batch-local run length already equals their global total."""

    def boundary_rows(batch: pa.Table) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False)
        if k.shape[0] == 0:
            return pa.table({key: k, "n": np.empty(0, np.int64)})
        if k[0] == k[-1]:  # whole batch is one run
            return pa.table(
                {key: k[:1], "n": np.array([k.shape[0]], np.int64)}
            )
        head = int(np.searchsorted(k, k[0], side="right"))
        tail = k.shape[0] - int(np.searchsorted(k, k[-1], side="left"))
        return pa.table(
            {key: np.array([k[0], k[-1]]), "n": np.array([head, tail], np.int64)}
        )

    parts = [
        pa.table(b)
        for b in sorted_ds.map_batches(
            boundary_rows, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow")
    ]
    if not parts or (rows := pa.concat_tables(parts)).num_rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    bk = rows.column(key).to_numpy(zero_copy_only=False)
    bn = rows.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(bk, kind="stable")
    bk, bn = bk[order], bn[order]
    _, starts, _ = _runs(bk)
    totals = np.add.reduceat(bn, starts)
    return bk[starts], totals.astype(np.int64)


def count_by_key_sorted(ds: ray.data.Dataset, key: str) -> ray.data.Dataset:
    """Exact ``(key, n)`` per distinct key — identical rows to
    ``ds.groupby(key).count()`` (column named ``n``), via one range
    shuffle (sort) + vectorized run counting. Numeric key columns only
    (the run scan works on numpy views)."""
    s = ds.sort(key).materialize()
    bkeys, btotals = boundary_run_totals(s, key)

    def interior_runs(batch: pa.Table) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False)
        if k.shape[0] == 0:
            return pa.table({key: k, "n": np.empty(0, np.int64)})
        _, starts, lens = _runs(k)
        # first and last runs are boundary keys (merged at the driver)
        starts, lens = starts[1:-1], lens[1:-1]
        return pa.table({key: k[starts], "n": lens.astype(np.int64)})

    inter = s.map_batches(interior_runs, batch_format="pyarrow", batch_size=None)
    # bkeys carries the key column's numpy dtype (it was sliced from the
    # sorted batches), so type inference matches the interior-run tables
    btable = pa.table({key: pa.array(bkeys), "n": pa.array(btotals, pa.int64())})
    return inter.union(ray.data.from_arrow(btable))
