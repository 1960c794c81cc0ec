"""Semi-structured (JSON-string) column parsing — the sidecar-properties
extraction every event pipeline runs before it can aggregate anything.
The `events.props` column is a JSON object rendered to a string; a
100 TB engine cannot afford json.loads per row, so extraction is ONE
vectorized Arrow C++ regex pass (`pyarrow.compute.extract_regex`) with
no Python in the hot loop, and rows without the key stay in the stream
as explicit misses (counted, never silently dropped).

Hash-exactness discipline: integer field values, integer per-group
accumulators (n, sum, min, max, n_missing), and ONE shared double
division for the mean (`textops.analysis.round6_sql` — DuckDB round()
half-away semantics).

Reference parity: /root/reference has no semi-structured input; this
extends the engine's source surface the same way the parquet readers do
(SURVEY §2.1). The regex contract matches DuckDB's RE2
`regexp_extract(props, pat, 1)` so the oracle recomputes extraction
identically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def extract_json_int(
    ds: ray.data.Dataset, col: str, key: str, out_col: str = "value"
) -> ray.data.Dataset:
    """Add `out_col` (int64, null on miss) extracted from the JSON-string
    column `col` — one Arrow C++ extract_regex kernel per batch."""
    pat = f'"{key}"\\s*:\\s*(?P<{out_col}>-?\\d+)'

    def ext(batch: pa.Table) -> pa.Table:
        s = batch.column(col)
        hit = pc.extract_regex(s, pattern=pat)
        v = pc.cast(pc.struct_field(hit, out_col), pa.int64())
        return batch.append_column(out_col, v)

    return ds.map_batches(ext, batch_format="pyarrow")


def json_field_stats(
    ds: ray.data.Dataset, col: str, key: str, group_col: str
) -> ray.data.Dataset:
    """Per-group integer stats of a JSON integer field: (group, n, sum_v,
    min_v, max_v, n_missing, avg_v). Per-batch pre-combine (combiner) ->
    one small groupby shuffle over the distinct groups -> one shared
    rounded division for the mean."""
    from parallel_louvain_method_ray.textops.analysis import round6_sql

    with_v = extract_json_int(ds, col, key, out_col="_v")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col)
        v = batch.column("_v")
        valid = pc.is_valid(v)
        miss = pc.invert(valid)
        gn = g.to_numpy(zero_copy_only=False)
        vn = v.to_numpy(zero_copy_only=False)  # float view with NaN holes
        vmask = valid.to_numpy(zero_copy_only=False).astype(bool)
        keys, inv = np.unique(np.asarray(gn, dtype=object), return_inverse=True)
        n = np.zeros(len(keys), np.int64)
        s = np.zeros(len(keys), np.int64)
        mn = np.full(len(keys), np.iinfo(np.int64).max, np.int64)
        mx = np.full(len(keys), np.iinfo(np.int64).min, np.int64)
        nmiss = np.zeros(len(keys), np.int64)
        np.add.at(nmiss, inv[~vmask], 1)
        hit_inv = inv[vmask]
        hit_v = np.asarray(vn[vmask], np.float64).astype(np.int64)
        np.add.at(n, hit_inv, 1)
        np.add.at(s, hit_inv, hit_v)
        np.minimum.at(mn, hit_inv, hit_v)
        np.maximum.at(mx, hit_inv, hit_v)
        return pa.table(
            {
                group_col: pa.array(list(keys)),
                "n": n,
                "s": s,
                "mn": mn,
                "mx": mx,
                "nmiss": nmiss,
            }
        )

    agg = (
        with_v.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            ray.data.aggregate.Sum("n"),
            ray.data.aggregate.Sum("s"),
            ray.data.aggregate.Min("mn"),
            ray.data.aggregate.Max("mx"),
            ray.data.aggregate.Sum("nmiss"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        s = batch.column("sum(s)").to_numpy(zero_copy_only=False)
        mn = batch.column("min(mn)").to_numpy(zero_copy_only=False)
        mx = batch.column("max(mx)").to_numpy(zero_copy_only=False)
        none = n == 0  # group present only via misses: min/max/avg are NULL
        return pa.table(
            {
                group_col: batch.column(group_col),
                "n_events": pa.array(n.astype(np.int64)),
                "sum_v": pa.array(s.astype(np.int64)),
                "min_v": pa.array(mn.astype(np.int64), mask=none),
                "max_v": pa.array(mx.astype(np.int64), mask=none),
                "n_missing": batch.column("sum(nmiss)").cast(pa.int64()),
                "avg_v": pa.array(
                    round6_sql(s / np.maximum(n, 1)), mask=none
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")
