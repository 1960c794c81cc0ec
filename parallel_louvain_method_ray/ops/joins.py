"""Custom time operators Ray Data lacks: as-of join and hopping window.

Both are compositions of `map_batches` + `groupby()` rather than raw Ray
tasks.

**As-of join** (`asof_join`): for every left row (key, t), attach the
right row with the greatest right.t <= t for the same key (backward
direction, ties broken by the largest `right_tie` value so results are
deterministic). Plan shape: tag both sides, harmonize schemas (each side's
payload columns are null on the other side), ONE hash shuffle
(`groupby(key)`), then a vectorized `np.searchsorted` merge inside each
group — no per-row Python in the match step. Partitioning assumption: a
single `by`-key's rows fit in one group (same contract as any
groupby().map_groups); salt hot keys upstream if a key is pathological.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_SIDE_RIGHT = 0
_SIDE_LEFT = 1


def _as_int64(tbl: pa.Table, col: str) -> pa.ChunkedArray:
    return tbl.column(col).cast(pa.int64())


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_by: str,
    right_by: str,
    left_on: str,
    right_on: str,
    left_cols: list[str],
    right_cols: list[str],
    right_tie: str | None = None,
    how: str = "left",
) -> ray.data.Dataset:
    """Backward as-of join; see module docstring.

    Output columns: `key` (the by-key), `t` (left_on as int64 epoch-us for
    timestamps), every `left_cols`, and every `right_cols` (null when the
    key has no right row at-or-before t; `how="inner"` drops those left
    rows instead).
    """
    if how not in ("left", "inner"):
        raise ValueError("how must be 'left' or 'inner'")
    l_schema = dict(zip(left.schema().names, left.schema().types))
    r_schema = dict(zip(right.schema().names, right.schema().types))
    l_types = {c: l_schema[c] for c in left_cols}
    r_types = {c: r_schema[c] for c in right_cols}

    def norm_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            "key": batch.column(left_by).cast(pa.int64()),
            "t": _as_int64(batch, left_on),
            "side": pa.array(np.full(n, _SIDE_LEFT, np.int8)),
            "tie": pa.nulls(n, pa.int64()),
        }
        for c, typ in l_types.items():
            cols[f"l_{c}"] = batch.column(c)
        for c, typ in r_types.items():
            cols[f"r_{c}"] = pa.nulls(n, typ)
        return pa.table(cols)

    def norm_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            "key": batch.column(right_by).cast(pa.int64()),
            "t": _as_int64(batch, right_on),
            "side": pa.array(np.full(n, _SIDE_RIGHT, np.int8)),
            "tie": (
                batch.column(right_tie).cast(pa.int64())
                if right_tie
                else pa.nulls(n, pa.int64())
            ),
        }
        for c, typ in l_types.items():
            cols[f"l_{c}"] = pa.nulls(n, typ)
        for c, typ in r_types.items():
            cols[f"r_{c}"] = batch.column(c)
        return pa.table(cols)

    tagged = left.map_batches(norm_left, batch_format="pyarrow").union(
        right.map_batches(norm_right, batch_format="pyarrow")
    )

    out_names = (
        ["key", "t"]
        + [f"l_{c}" for c in l_types]
        + [f"r_{c}" for c in r_types]
    )

    def merge(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        lmask, rmask = side == _SIDE_LEFT, side == _SIDE_RIGHT
        lt = group.filter(pa.array(lmask))
        rt = group.filter(pa.array(rmask))
        empty = pa.table(
            {n: pa.nulls(0, group.schema.field(n).type) for n in out_names}
        )
        if lt.num_rows == 0:
            return empty
        if rt.num_rows == 0:
            if how == "inner":
                return empty
            cols = {"key": lt.column("key"), "t": lt.column("t")}
            for c in l_types:
                cols[f"l_{c}"] = lt.column(f"l_{c}")
            for c in r_types:
                cols[f"r_{c}"] = pa.nulls(lt.num_rows, r_types[c])
            return pa.table(cols)
        r_t = rt.column("t").to_numpy(zero_copy_only=False)
        r_tie = rt.column("tie").fill_null(0).to_numpy(zero_copy_only=False)
        order = np.lexsort((r_tie, r_t))  # sort by (t, tie) — ties -> max
        r_sorted = r_t[order]
        l_t = lt.column("t").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(r_sorted, l_t, side="right") - 1
        null_mask = idx < 0
        if how == "inner" and null_mask.any():
            keep = pa.array(~null_mask)
            lt = lt.filter(keep)
            idx = idx[~null_mask]
            null_mask = np.zeros(idx.shape[0], dtype=bool)
        cols = {"key": lt.column("key"), "t": lt.column("t")}
        for c in l_types:
            cols[f"l_{c}"] = lt.column(f"l_{c}")
        take_idx = pa.array(
            order[np.clip(idx, 0, None)].astype(np.int64), mask=null_mask
        )
        for c in r_types:
            cols[f"r_{c}"] = pc.take(rt.column(f"r_{c}"), take_idx)
        return pa.table(cols)

    return tagged.groupby("key").map_groups(merge, batch_format="pyarrow")


def hopping_window(
    events: ray.data.Dataset,
    *,
    ts_col: str,
    key_col: str,
    value_col: str,
    window_us: int,
    hop_us: int,
) -> ray.data.Dataset:
    """Hopping (sliding, hop-aligned) window aggregate: each event falls in
    window_us/hop_us overlapping windows; output one row per
    (key, window_start) with count + integer-cents value sum.

    100 TB shape — hopping is NOT "emit every event k times then shuffle":
    that multiplies shuffle volume by k. It is tumbling at HOP granularity
    (one shuffle of 1x the events, partial-combined inside the groupby)
    followed by a k-way expansion of the already-tiny per-(key, hop)
    aggregates and a second groupby whose input is |distinct keys x hops|
    rows, not |events|. Values ride as exact cents
    (floor(value*100 + 0.5), mirrored in SQL) so the compare is
    integer-exact — the same contract as ops/analytics.running_total.
    """
    if window_us % hop_us != 0:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = _as_int64(batch, ts_col).to_numpy(zero_copy_only=False)
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col),
                "hop_start": pa.array((ts // hop_us) * hop_us, pa.int64()),
                "cents": pa.array(cents),
            }
        )

    from ray.data.aggregate import Count, Sum

    hops = (
        events.map_batches(bucketize, batch_format="pyarrow")
        .groupby([key_col, "hop_start"])
        .aggregate(Count(), Sum("cents"))
    )

    def expand(batch: pa.Table) -> pa.Table:
        hs = batch.column("hop_start").to_numpy(zero_copy_only=False)
        n = batch.column("count()").to_numpy(zero_copy_only=False)
        c = batch.column("sum(cents)").to_numpy(zero_copy_only=False)
        keys = batch.column(key_col)
        idx = np.repeat(np.arange(len(hs)), k)
        shift = np.tile(np.arange(k, dtype=np.int64) * hop_us, len(hs))
        return pa.table(
            {
                key_col: keys.take(pa.array(idx)),
                "window_start": pa.array(np.repeat(hs, k) - shift, pa.int64()),
                "n": pa.array(np.repeat(n, k).astype(np.int64)),
                "c": pa.array(np.repeat(c, k).astype(np.int64)),
            }
        )

    win = (
        hops.map_batches(expand, batch_format="pyarrow")
        .groupby([key_col, "window_start"])
        .aggregate(Sum("n"), Sum("c"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch.column(key_col),
                "window_start": batch.column("window_start"),
                "n_events": batch.column("sum(n)").cast(pa.int64()),
                "sum_value_cents": batch.column("sum(c)").cast(pa.int64()),
            }
        )

    return win.map_batches(finish, batch_format="pyarrow")
