"""Distributed analytics operators: exact quantiles, group-wise top-k,
anti/semi join, deterministic sampling.

Each is expressed Ray-Data-first and sized for the 100 TB regime:

- **Exact quantiles** (`exact_quantiles`): two-phase bounded-histogram
  method — a distributed `groupby(value).count()` collapses the data to
  one row per DISTINCT value (safe whenever the value domain is bounded,
  e.g. document lengths, token counts, scores bucketed to fixed
  precision), then the tiny histogram's cumulative counts yield exact
  `percentile_disc` quantiles. No global sort, one shuffle whose output
  is O(distinct values), driver holds only the histogram. For unbounded
  domains, bucket first (round/clip) — the caller owns that contract.
- **Group-wise top-k** (`topk_per_group`): per-batch LOCAL top-k prune
  (only k rows per group survive each batch) -> groupby(key).map_groups
  final top-k. The pre-prune bounds the shuffle to O(k * groups *
  blocks) rows instead of the whole table — the same partial-combine
  trick as pre-aggregation before a groupby.
- **Anti/semi join**, two tiers:
  - `broadcast_anti_join` / `broadcast_semi_join`: the filter side is
    collapsed to DISTINCT keys by a distributed aggregate; the
    distinct-key array is broadcast once via `ray.put` and each batch
    filters with a vectorized `np.isin`. Correct while the DISTINCT key
    count fits a worker heap (dimension-table scale).
  - `shuffle_anti_join` / `shuffle_semi_join`: fact-vs-fact — distinct
    keys stay a Dataset, marked, left_outer hash-joined to the left
    side, marker-null filtered. No driver/broadcast state at all.
- **Deterministic sampling** (`hash_sample`): keep rows where
  md5(key) % denom < num — reproducible across runs/engines (the SQL
  oracle recomputes the same predicate), streaming, no shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def exact_quantiles(
    ds: ray.data.Dataset,
    value_col: str,
    qs: list[float],
) -> pa.Table:
    """Exact percentile_disc quantiles via a distributed value histogram.

    Returns a small pa.Table (q, value) — a driver-side result, like any
    aggregate. percentile_disc semantics: the smallest value whose
    cumulative row count reaches ceil(q * n)."""
    hist = ds.groupby(value_col).count().to_pandas()
    hist = hist.sort_values(value_col, ignore_index=True)
    counts = hist["count()"].to_numpy()
    values = hist[value_col].to_numpy()
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if n == 0:
            continue
        rank = max(1, int(np.ceil(q * n)))
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(float(q))
        out_v.append(values[idx])
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "value": pa.array(out_v)}
    )


def group_quantiles(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Exact percentile_disc quantiles PER GROUP: (key, q, value) rows,
    value = the smallest group element whose cumulative count reaches
    max(1, ceil(q * n)) — values are picked, never interpolated, so the
    result hash-compares against SQL bit-for-bit.

    One groupby shuffle, per-group numpy sort inside map_groups; output
    is O(groups x len(qs)). The rank is computed as ceil(double(q) *
    double(n)) on BOTH sides (not the exact rational) so inexact qs like
    0.9 round identically here and in the oracle."""

    def per_group(group: pa.Table) -> pa.Table:
        v = np.sort(group.column(value_col).to_numpy(zero_copy_only=False))
        n = v.shape[0]
        ranks = np.maximum(1, np.ceil(np.float64(n) * np.asarray(qs))).astype(
            np.int64
        )
        return pa.table(
            {
                key_col: pa.array(
                    [group.column(key_col)[0].as_py()] * len(qs),
                    group.column(key_col).type,
                ),
                "q": pa.array(list(qs), pa.float64()),
                "value": pa.array(v[ranks - 1]),
            }
        )

    return ds.groupby(key_col).map_groups(per_group, batch_format="pyarrow")


def running_total(
    ds: ray.data.Dataset,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    out_col: str = "running_total",
    mode: str = "sort",
) -> ray.data.Dataset:
    """Ordered cumulative sum per key — the window-aggregate shape
    (SQL: sum(v) OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED
    PRECEDING)).

    INTEGER values only (int64): SQL engines may evaluate ordered window
    sums with a segment tree, so float partial sums can differ in the
    last ulp from a sequential scan — integer addition is associative,
    making the result hash-exact under any evaluation order. Callers
    with money-like floats convert to cents first (floor(x*100 + 0.5),
    mirrored in the oracle).

    mode="sort" (default, the scale path): ONE global range shuffle
    (`sort(key, *order)`), then every block computes its key-segmented
    cumsum vectorized and the driver chains O(blocks) carry offsets —
    a key spanning blocks is by construction the last run of one block
    and the first of the next, so only block-boundary runs need the
    carry (same argument as `ops/fastgroup.py`). No per-group Python
    call, so a billion tiny groups cost the same as one big one.

    mode="groups": the reference semantics via groupby().map_groups —
    one Python call per distinct key; kept for parity testing and for
    callers that need per-group isolation."""
    if mode == "groups":

        def scan(group: pa.Table) -> pa.Table:
            order = pc.sort_indices(
                group, sort_keys=[(c, "ascending") for c in order_cols]
            )
            g = group.take(order)
            v = g.column(value_col).to_numpy(zero_copy_only=False)
            if not np.issubdtype(v.dtype, np.integer):
                raise TypeError(
                    f"running_total requires an integer value column,"
                    f" got {v.dtype}"
                )
            return g.append_column(
                out_col, pa.array(np.cumsum(v).astype(np.int64), pa.int64())
            )

        return ds.groupby(key_col).map_groups(scan, batch_format="pyarrow")
    if mode != "sort":
        raise ValueError(f"unknown running_total mode: {mode!r}")

    s = ds.sort([key_col, *order_cols]).materialize()
    refs = s.get_internal_block_refs()

    @ray.remote
    def block_summary(block):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return (None, 0, None, 0, 0)
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"running_total requires an integer value column, got {v.dtype}"
            )
        head = int(np.searchsorted(k, k[0], side="right"))
        tail = t.num_rows - int(np.searchsorted(k, k[-1], side="left"))
        return (
            k[0],
            int(v[:head].sum()),
            k[-1],
            int(v[t.num_rows - tail :].sum()),
            t.num_rows,
        )

    sums = ray.get([block_summary.remote(r) for r in refs])
    offsets = []
    carry_key, carry_sum = object(), 0  # sentinel never equals a real key
    for fk, ft, lk, lt, n in sums:
        off = carry_sum if (n > 0 and fk == carry_key) else 0
        offsets.append(off)
        if n == 0:
            continue
        if fk == lk:
            # the whole block is one key run: extend the carry
            carry_key, carry_sum = lk, off + lt
        else:
            carry_key, carry_sum = lk, lt

    @ray.remote
    def finalize(block, offset: int):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.cumsum(v)
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        lens = np.diff(np.r_[starts, k.shape[0]])
        prev = np.concatenate([[0], cs[:-1]])
        seg = cs - np.repeat(prev[starts], lens)
        head = int(np.searchsorted(k, k[0], side="right"))
        seg[:head] += offset
        return t.append_column(out_col, pa.array(seg, pa.int64()))

    out_refs = [finalize.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def topk_per_group(
    ds: ray.data.Dataset,
    key_col: str,
    score_col: str,
    k: int,
    tie_col: str,
) -> ray.data.Dataset:
    """Top-k rows per group by (score DESC, tie ASC) — deterministic.

    Local per-batch prune first so the groupby shuffle moves at most
    k rows per (group, block)."""

    def local_prune(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[
                (key_col, "ascending"),
                (score_col, "descending"),
                (tie_col, "ascending"),
            ],
        )
        t = batch.take(order)
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        # rank within key run: position - start of run
        new_run = np.ones(len(keys), dtype=bool)
        new_run[1:] = keys[1:] != keys[:-1]
        run_start = np.maximum.accumulate(
            np.where(new_run, np.arange(len(keys)), 0)
        )
        rank = np.arange(len(keys)) - run_start
        return t.filter(pa.array(rank < k))

    def final_topk(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group,
            sort_keys=[(score_col, "descending"), (tie_col, "ascending")],
        )
        return group.take(order[: min(k, group.num_rows)])

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return pruned.groupby(key_col).map_groups(
        final_topk, batch_format="pyarrow"
    )


def _distinct_keys(ds: ray.data.Dataset, col: str) -> np.ndarray:
    """Distributed distinct (groupby count, discards counts) -> driver
    array. O(distinct) driver state — dimension-table contract."""
    t = ds.groupby(col).count().to_pandas()
    return t[col].to_numpy()


def broadcast_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """left rows whose key EXISTS in right (no right columns attached)."""
    keys_ref = ray.put(np.unique(_distinct_keys(right, right_key)))

    def keep(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)  # worker-local plasma read, zero-copy
        v = batch.column(left_key).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(v, keys)))

    return left.map_batches(keep, batch_format="pyarrow")


def broadcast_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """left rows whose key does NOT exist in right."""
    keys_ref = ray.put(np.unique(_distinct_keys(right, right_key)))

    def keep(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        v = batch.column(left_key).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~np.isin(v, keys)))

    return left.map_batches(keep, batch_format="pyarrow")


def _marked_distinct(ds: ray.data.Dataset, col: str):
    """Distributed distinct keys + an int8 marker column, as a Dataset.
    Returns (marked Dataset with columns (col, '__plm_hit'), n_distinct)."""
    distinct = ds.groupby(col).count().select_columns([col]).materialize()

    def mark(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__plm_hit", pa.array(np.ones(batch.num_rows, dtype=np.int8))
        )

    return distinct.map_batches(mark, batch_format="pyarrow"), distinct.count()


def _shuffle_exist_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
    keep_hits: bool,
) -> ray.data.Dataset:
    """Fact-vs-fact anti/semi join: NO broadcast key set. The right side
    is collapsed to distinct keys (one groupby shuffle), marked, and
    left_outer-joined to the left on the key — both operands stream
    through the bounded-fan-out hash join (`_join` discipline); the marker
    null-filter picks anti (null) or semi (non-null) rows. Driver state:
    none. This is the variant `broadcast_anti_join`'s contract defers to
    when the filter side's distinct-key count exceeds a worker heap."""
    from parallel_louvain_method_ray.algos.joined import _join, _size_aware_P

    marked, n_keys = _marked_distinct(right, right_key)
    left_cols = [f.name for f in left.schema().base_schema]
    if n_keys == 0:
        # left_outer against an empty operand crashes Ray 2.49's join
        # finalize; the answer is trivial anyway
        if keep_hits:
            return ray.data.from_arrow(
                pa.Table.from_pylist([], schema=left.schema().base_schema)
            )
        return left
    P = _size_aware_P(max(left.count(), n_keys))
    j = _join(
        left,
        marked,
        on=(left_key,),
        right_on=(right_key,),
        how="left_outer",
        P=P,
    )

    def keep(batch: pa.Table) -> pa.Table:
        hit = batch.column("__plm_hit")
        sel = pc.is_valid(hit) if keep_hits else pc.is_null(hit)
        return batch.filter(sel).select(left_cols)

    return j.map_batches(keep, batch_format="pyarrow")


def shuffle_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """left rows whose key does NOT exist in right — shuffle variant
    (both sides may be fact-scale)."""
    return _shuffle_exist_join(
        left, right, left_key=left_key, right_key=right_key, keep_hits=False
    )


def shuffle_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """left rows whose key EXISTS in right (no right columns attached) —
    shuffle variant (both sides may be fact-scale)."""
    return _shuffle_exist_join(
        left, right, left_key=left_key, right_key=right_key, keep_hits=True
    )


def chunk_documents(
    docs: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 64,
    stride: int = 48,
) -> ray.data.Dataset:
    """Sliding-window token chunking — the training-data op that turns
    documents into fixed-size overlapping training examples.

    Tokens are the whitespace split of the trimmed text (the same
    convention as text_stats); chunk c covers tokens [c*stride,
    c*stride+window). Streaming flat-map, no shuffle; each output chunk
    carries (doc_id, chunk_idx, n_tokens, chunk). Empty documents emit
    nothing."""
    import re

    ws = re.compile(r"\s+")

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, idx_out, n_out, chunk_out = [], [], [], []
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        for did, text in zip(ids, texts):
            t = (text or "").strip()
            if not t:
                continue
            toks = ws.split(t)
            n = len(toks)
            for c in range((n - 1) // stride + 1):
                lo = c * stride
                hi = min(lo + window, n)
                ids_out.append(did)
                idx_out.append(c)
                n_out.append(hi - lo)
                chunk_out.append(" ".join(toks[lo:hi]))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "chunk_idx": pa.array(idx_out, pa.int64()),
                "n_tokens": pa.array(n_out, pa.int64()),
                "chunk": pa.array(chunk_out, pa.string()),
            }
        )

    return docs.map_batches(explode, batch_format="pyarrow")


def hash_sample(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    num: int,
    denom: int = 100,
) -> ray.data.Dataset:
    """Deterministic ~num/denom sample: md5_lower64(key) % denom < num.

    Engine-independent (the DuckDB oracle recomputes the identical
    predicate via `md5_number_lower`) and stable across runs — what a
    resumable 100 TB pipeline needs from its sampler. Streaming map, no
    shuffle, no RNG state.

    Key canonicalization (must match what the oracle hashes): integer
    keys hash their decimal string (DuckDB: `md5_number_lower(CAST(k AS
    VARCHAR))`), string keys hash the value itself. md5 is inherently
    per-row; the canonical bytes are built vectorized via Arrow casts so
    the Python loop only touches hashlib."""
    from parallel_louvain_method_ray.dedup.minhash import md5_lower64

    def keep(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        if pa.types.is_integer(col.type):
            col = pc.cast(col, pa.string())
        elif not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
            raise TypeError(
                f"hash_sample key must be integer or string, got {col.type}"
            )
        v = col.to_pylist()
        sel = np.fromiter(
            (x is not None and md5_lower64(x) % denom < num for x in v),
            dtype=bool,
            count=len(v),
        )
        return batch.filter(pa.array(sel))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_hash_sample(
    ds: ray.data.Dataset,
    key_col: str,
    strata_col: str,
    rates: dict[str, int],
    default: int = 100,
    denom: int = 100,
) -> ray.data.Dataset:
    """Per-stratum deterministic sampling — the language/source
    REBALANCING step of a training-data pipeline: row kept iff
    md5_lower64(canonical key) % denom < rates.get(stratum, default).

    Same predicate family as `hash_sample` (engine-independent,
    resumable, no RNG state, streaming map with zero shuffles); the
    stratum only selects the threshold. The rates table is a plain dict
    captured in the task closure — O(strata) bytes, shipped once per
    task."""
    from parallel_louvain_method_ray.dedup.minhash import md5_lower64

    def keep(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        if pa.types.is_integer(col.type):
            col = pc.cast(col, pa.string())
        elif not (
            pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
        ):
            raise TypeError(
                f"stratified_hash_sample key must be integer or string,"
                f" got {col.type}"
            )
        keys = col.to_pylist()
        strata = batch.column(strata_col).to_pylist()
        sel = np.fromiter(
            (
                k is not None
                and md5_lower64(k) % denom < rates.get(s, default)
                for k, s in zip(keys, strata)
            ),
            dtype=bool,
            count=len(keys),
        )
        return batch.filter(pa.array(sel))

    return ds.map_batches(keep, batch_format="pyarrow")


def rollup_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    cents_col: str,
    all_label: str = "ALL",
) -> pa.Table:
    """GROUP BY ROLLUP(keys...): count + integer sum at every prefix level
    of `keys`, coarser levels marked with `all_label` and a
    `grouping_level` column (0 = finest, len(keys) = grand total). A NULL
    key stays NULL, its own group at every level that keeps its column;
    only rolled-up keys get `all_label`. So this is DuckDB's GROUPING()
    sum under coalesce(key, all_label) only on non-null keys, as in the
    revenue_rollup oracle.

    100 TB shape: ONE shuffle at the finest grain (Ray's groupby with
    partial combine), which collapses the fact table to |distinct key
    combos| rows; every coarser level is a rollup OF THAT AGGREGATE
    (numpy groupby on O(C) driver rows), never a re-scan of the input.
    The driver-rows contract is the cube cardinality, same budget class
    as exact_quantiles' histogram.
    """
    from ray.data.aggregate import Count, Sum

    fine = ds.groupby(keys).aggregate(Count(), Sum(cents_col))
    tab = pa.concat_tables(
        pa.table(b) for b in fine.iter_batches(batch_format="pyarrow")
    )
    import pandas as pd

    df = tab.to_pandas().rename(
        columns={"count()": "n_rows", f"sum({cents_col})": "sum_cents"}
    )
    df["n_rows"] = df["n_rows"].astype("int64")
    df["sum_cents"] = df["sum_cents"].astype("int64")
    levels = [df.assign(grouping_level=0)]
    for lvl in range(1, len(keys) + 1):
        keep = keys[: len(keys) - lvl]
        if keep:
            g = df.groupby(keep, as_index=False, dropna=False)[
                ["n_rows", "sum_cents"]
            ].sum()
        else:
            g = pd.DataFrame(
                {"n_rows": [df.n_rows.sum()], "sum_cents": [df.sum_cents.sum()]}
            )
        for k in keys[len(keys) - lvl:]:
            g[k] = all_label
        g["grouping_level"] = lvl
        levels.append(g[keys + ["n_rows", "sum_cents", "grouping_level"]])
    out = pd.concat(
        [l[keys + ["n_rows", "sum_cents", "grouping_level"]] for l in levels],
        ignore_index=True,
    )
    out["grouping_level"] = out["grouping_level"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def lag_diff(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    out_col: str = "gap",
) -> ray.data.Dataset:
    """Per-key ordered LAG difference (SQL: v - lag(v) OVER (PARTITION BY
    key ORDER BY v)) for rows that HAVE a predecessor — the
    inter-arrival-time window shape.

    The value column is its own order column: ordering by the diffed
    value makes the gap multiset invariant to tie order, so the result
    is deterministic under any stable/unstable sort (SQL LAG with
    ORDER BY v has the same property). INTEGER values only, same
    hash-exactness contract as `running_total`.

    100 TB shape: ONE global range shuffle (`sort(key, value)`), then
    each block diffs vectorized; block boundaries take the previous
    block's last (key, value) from an O(blocks) driver carry chain —
    same argument as `running_total`'s offsets (a key spanning blocks is
    the last run of one block and the first of the next)."""
    s = ds.sort([key_col, value_col]).materialize()
    # empty post-sort blocks carry an EMPTY schema — resolve the key type
    # here so finalize can build typed empty outputs
    key_type = s.schema().base_schema.field(key_col).type
    refs = s.get_internal_block_refs()

    @ray.remote
    def block_edge(block):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return None
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"lag_diff requires an integer value column, got {v.dtype}"
            )
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        return (k[-1], int(v[-1]))

    edges = ray.get([block_edge.remote(r) for r in refs])
    carries: list[tuple] = []  # (prev_key, prev_val) per block, or None
    prev = None
    for e in edges:
        carries.append(prev)
        if e is not None:
            prev = e

    @ray.remote
    def finalize(block, carry):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], key_type),
                    value_col: pa.array([], pa.int64()),
                    out_col: pa.array([], pa.int64()),
                }
            )
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        gap = np.empty(len(v), dtype=np.int64)
        gap[1:] = v[1:] - v[:-1]
        has_prev = np.ones(len(v), dtype=bool)
        has_prev[1:] = k[1:] == k[:-1]
        if carry is not None and carry[0] == k[0]:
            gap[0] = v[0] - carry[1]
            has_prev[0] = True
        else:
            has_prev[0] = False
        out = pa.table(
            {
                key_col: t.column(key_col),
                value_col: pa.array(v, pa.int64()),
                out_col: pa.array(gap, pa.int64()),
            }
        )
        return out.filter(pa.array(has_prev))

    out_refs = [finalize.remote(r, c) for r, c in zip(refs, carries)]
    return ray.data.from_arrow_refs(out_refs)


def transition_counts(
    ds: ray.data.Dataset,
    key_col: str,
    order_cols: list[str],
    label_col: str,
) -> ray.data.Dataset:
    """Markov transition counts: (prev_label, next_label, n) over
    consecutive rows per key in (order_cols) order — the event-sequence
    mining shape (SQL: lag(label) OVER (PARTITION BY key ORDER BY ...)).

    Determinism contract: (key, *order_cols) must be row-unique (pass a
    unique id as the last order col), otherwise tie order would change
    which transitions exist.

    100 TB shape: ONE range shuffle (`sort(key, *order)`), vectorized
    per-block pair extraction with an O(blocks) driver carry of each
    block's last (key, label), then a groupby over the tiny label x label
    domain."""
    s = ds.sort([key_col, *order_cols]).materialize()
    refs = s.get_internal_block_refs()

    @ray.remote
    def block_last(block):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return None
        return (
            t.column(key_col)[t.num_rows - 1].as_py(),
            t.column(label_col)[t.num_rows - 1].as_py(),
        )

    lasts = ray.get([block_last.remote(r) for r in refs])
    carries: list[tuple | None] = []
    prev = None
    for e in lasts:
        carries.append(prev)
        if e is not None:
            prev = e

    @ray.remote
    def pairs(block, carry):
        t = block if isinstance(block, pa.Table) else pa.table(block)
        if t.num_rows == 0:
            return pa.table(
                {
                    "prev_label": pa.array([], pa.string()),
                    "next_label": pa.array([], pa.string()),
                }
            )
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        lab = t.column(label_col)
        same = np.zeros(t.num_rows, dtype=bool)
        same[1:] = k[1:] == k[:-1]
        prev_arr = lab.slice(0, t.num_rows - 1)
        next_arr = lab.slice(1)
        keep = pa.array(same[1:])
        out_prev = (
            prev_arr.filter(keep)
            if isinstance(prev_arr, pa.ChunkedArray)
            else pa.chunked_array([prev_arr]).filter(keep)
        )
        out_next = (
            next_arr.filter(keep)
            if isinstance(next_arr, pa.ChunkedArray)
            else pa.chunked_array([next_arr]).filter(keep)
        )
        tbl = pa.table(
            {
                "prev_label": out_prev.cast(pa.string()),
                "next_label": out_next.cast(pa.string()),
            }
        )
        if carry is not None and carry[0] == k[0]:
            head = pa.table(
                {
                    "prev_label": pa.array([carry[1]], pa.string()),
                    "next_label": pa.array(
                        [lab[0].as_py()], pa.string()
                    ),
                }
            )
            tbl = pa.concat_tables([head, tbl])
        return tbl

    out_refs = [pairs.remote(r, c) for r, c in zip(refs, carries)]
    pair_ds = ray.data.from_arrow_refs(out_refs)
    from ray.data.aggregate import Count

    agg = pair_ds.groupby(["prev_label", "next_label"]).aggregate(Count())
    return agg.rename_columns({"count()": "n"})


def pareto_frontier_2d(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    id_col: str,
) -> pa.Table:
    """2-D Pareto frontier (maximize both): rows not dominated by any
    other row (x2 >= x1 and y2 >= y1 with at least one strict). Rows
    tied on BOTH coordinates with a frontier point are themselves on the
    frontier (SQL NOT EXISTS semantics).

    Distribution shape: the local frontier is CLOSED UNDER UNION — a
    point dominated globally is dominated by some point in its own
    block's frontier or another block's, so per-block vectorized pruning
    (sort by x desc, keep running-max y) cuts each block to its frontier
    before ONE small driver-side merge of the O(frontier) candidates.
    Integer columns recommended (exact compares); the driver never sees
    more than sum-of-block-frontiers rows."""

    def local_frontier(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select([id_col, x_col, y_col])
        t = batch.select([id_col, x_col, y_col])
        order = pc.sort_indices(
            t, sort_keys=[(x_col, "descending"), (y_col, "descending")]
        )
        t = t.take(order)
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        # scan in x-desc order: a point survives iff its y is >= the max
        # y seen at any STRICTLY larger x, and among equal (x, y) all
        # survive; dominated iff (exists larger x with >= y) or (equal x
        # with > y) — with x desc, y desc: keep while y > best_y_so_far
        # among strictly-greater x, or exact (x,y) tie with a kept row
        keep = np.zeros(len(x), dtype=bool)
        best_y = None
        i = 0
        while i < len(x):
            j = i
            while j < len(x) and x[j] == x[i]:
                j += 1
            # rows i..j-1 share x, sorted y desc; the frontier among them
            # is every row tied with the max y of this x-run, provided it
            # beats best_y (max y over strictly larger x)
            ymax = y[i]
            if best_y is None or ymax > best_y:
                k = i
                while k < j and y[k] == ymax:
                    keep[k] = True
                    k += 1
                best_y = ymax if best_y is None else max(best_y, ymax)
            i = j
        return t.filter(pa.array(keep))

    pruned = ds.map_batches(local_frontier, batch_format="pyarrow")
    cand = pa.concat_tables(
        pa.table(b) for b in pruned.iter_batches(batch_format="pyarrow")
    )
    if cand.num_rows == 0:
        return cand
    final = local_frontier(cand)
    order = pc.sort_indices(
        final, sort_keys=[(id_col, "ascending")]
    )
    return final.take(order)
