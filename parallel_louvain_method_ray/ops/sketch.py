"""HyperLogLog distinct-count sketch (Flajolet et al. 2007) over a token
stream — the mergeable approximate aggregate the reference lacks entirely
(SURVEY §2.5 "Sketches / approximate aggregates: none").

Scale shape — the textbook mergeable-sketch pipeline:
  docs -> per-batch 2^b register partials (vectorized max per bucket)
       -> groupby(bucket).max          [2^b keys, tiny shuffle]
       -> driver estimate              [O(2^b) driver rows]
No shuffle ever sees a token; each batch contributes at most 2^b rows
regardless of its row count, so the exchange volume is O(batches x 2^b)
for ANY input size. Registers merge by max, so the same code runs
per-node partials on a 256-node cluster unchanged.

Oracle parity: the token hash is DuckDB's ``md5_number_lower`` and the
estimator is computed from an EXACT integer register sum (each bucket
contributes the integer 2^(55-rho), so the harmonic-mean denominator is
summed without float-order dependence); the SQL oracle reproduces every
register and the same float expression tree for the final estimate.

The bias-corrected estimator with small-range (linear counting)
correction; the large-range correction is omitted (it only engages above
~2^57 distinct values — document-scale vocabulary never gets there).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from parallel_louvain_method_ray.dedup.minhash import md5_lower64

HLL_B = 10
HLL_M = 1 << HLL_B  # 1024 buckets
SUFFIX_BITS = 64 - HLL_B  # 54
_SUFFIX_MASK = np.uint64((1 << SUFFIX_BITS) - 1)
HLL_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)  # alpha_m for m >= 128


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (np.log2 is unusable: values
    above 2^53 round in the float conversion, off-by-one near powers of
    two)."""
    bl = np.zeros(x.shape, np.int64)
    x = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        x[big] >>= np.uint64(s)
    bl[x > 0] += 1
    return bl


def _token_hashes(text: str) -> np.ndarray:
    toks = text.split()
    return np.fromiter(
        (md5_lower64(t) for t in toks), np.uint64, count=len(toks)
    )


def hll_bucket_rhos(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(bucket, rho): the global HLL registers over the whitespace-token
    stream of `docs.text` — max leading-zero rank per 2^b hash bucket;
    buckets no token hashed into are absent."""

    def partials(batch: pa.Table) -> pa.Table:
        regs = np.zeros(HLL_M, np.int64)
        for t in batch.column("text").to_pylist():
            h = _token_hashes(t)
            if h.shape[0] == 0:
                continue
            bucket = (h >> np.uint64(SUFFIX_BITS)).astype(np.int64)
            suffix = h & _SUFFIX_MASK
            rho = (SUFFIX_BITS + 1) - _bit_length_u64(suffix)
            np.maximum.at(regs, bucket, rho)
        nz = np.flatnonzero(regs)
        return pa.table({"bucket": nz.astype(np.int64), "rho": regs[nz]})

    merged = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("bucket")
        .max("rho")
    )
    return merged.map_batches(
        lambda b: pa.table(
            {"bucket": b.column("bucket"), "rho": b.column("max(rho)")}
        ),
        batch_format="pyarrow",
    )


def _estimate_from_registers(buckets: np.ndarray, rhos: np.ndarray) -> tuple:
    """(zero_buckets, raw_or_corrected_estimate) from the merged registers.
    The harmonic-mean denominator is summed as an EXACT integer (each
    bucket contributes 2^(55-rho), empty buckets 2^55) so the estimate is
    reproducible independent of summation order — the SQL oracle builds
    the identical integer and the identical float expression."""
    v = HLL_M - buckets.shape[0]
    s_scaled = int(v) * (1 << (SUFFIX_BITS + 1)) + sum(
        1 << (SUFFIX_BITS + 1 - int(r)) for r in rhos
    )
    e_raw = HLL_ALPHA * HLL_M * HLL_M * 2.0 ** (SUFFIX_BITS + 1) / float(s_scaled)
    if e_raw <= 2.5 * HLL_M and v > 0:
        return v, HLL_M * math.log(HLL_M / v)
    return v, e_raw


def hll_distinct_tokens(docs: ray.data.Dataset) -> pa.Table:
    """One-row summary: (m, zero_buckets, estimate, exact_distinct,
    rel_error) — the HLL estimate of the number of distinct whitespace
    tokens across all documents, next to the exact count (via the
    sort-based distinct of ops/fastgroup) and the signed relative error."""
    from parallel_louvain_method_ray.ops.fastgroup import count_by_key_sorted

    parts = [
        pa.table(b)
        for b in hll_bucket_rhos(docs).iter_batches(batch_format="pyarrow")
    ]
    if parts:
        rt = pa.concat_tables(parts)
        buckets = rt.column("bucket").to_numpy(zero_copy_only=False)
        rhos = rt.column("rho").to_numpy(zero_copy_only=False)
    else:  # no token ever hashed (empty corpus)
        buckets = rhos = np.empty(0, np.int64)
    v, est = _estimate_from_registers(buckets, rhos)

    def hashes(batch: pa.Table) -> pa.Table:
        hs = [_token_hashes(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"h": np.concatenate(hs) if hs else np.empty(0, np.uint64)}
        )

    exact = count_by_key_sorted(
        docs.map_batches(hashes, batch_format="pyarrow"), "h"
    ).count()
    rel = (est - exact) / max(exact, 1)
    return pa.table(
        {
            "m": pa.array([HLL_M], pa.int64()),
            "zero_buckets": pa.array([v], pa.int64()),
            "estimate": pa.array(
                [np.floor(est * 1e6 + 0.5) / 1e6], pa.float64()
            ),
            "exact_distinct": pa.array([exact], pa.int64()),
            "rel_error": pa.array(
                [np.floor(rel * 1e6 + 0.5) / 1e6
                 if rel >= 0
                 else -np.floor(-rel * 1e6 + 0.5) / 1e6],
                pa.float64(),
            ),
        }
    )


def hll_group_rhos(
    ds: ray.data.Dataset, group_col: str, key_col: str
) -> ray.data.Dataset:
    """(group, bucket, rho): per-GROUP HLL registers over the string form
    of `key_col` — the approximate-distinct-per-key operator (distinct
    users per event type, distinct tokens per language, ...). Same merge
    shape as the global sketch: each batch contributes at most
    |groups-in-batch| x 2^b rows, groupby(group, bucket).max merges.
    Hash = md5_number_lower(CAST(key AS VARCHAR)), mirrored in SQL."""

    def partials(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        h = np.fromiter(
            (md5_lower64(str(k)) for k in keys), np.uint64, count=len(keys)
        )
        bucket = (h >> np.uint64(SUFFIX_BITS)).astype(np.int64)
        rho = (SUFFIX_BITS + 1) - _bit_length_u64(h & _SUFFIX_MASK)
        # one register per (group, bucket) present in the batch: max of
        # rho per distinct packed key group_index * HLL_M + bucket
        enc = pc.dictionary_encode(
            batch.column(group_col).combine_chunks(), null_encoding="encode"
        )
        gi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cells, inv = np.unique(gi * HLL_M + bucket, return_inverse=True)
        regs = np.zeros(cells.shape[0], np.int64)
        np.maximum.at(regs, inv, rho)
        group = enc.dictionary.take(pa.array(cells // HLL_M))
        return pa.table(
            {
                "_null": pc.is_null(group),
                group_col: group,
                "bucket": pa.array(cells % HLL_M, pa.int64()),
                "rho": pa.array(regs, pa.int64()),
            }
        )

    # `_null` leads the key so the sort-based groupby's range search never
    # compares a null group with a value (Ray Data raises TypeError when a
    # sampled boundary's binary search probes a null string)
    merged = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["_null", group_col, "bucket"])
        .max("rho")
        .drop_columns(["_null"])
    )
    return merged.rename_columns({"max(rho)": "rho"})
