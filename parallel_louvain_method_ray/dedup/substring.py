"""Substring-level duplicate n-gram detection — the training-data dedup
signal of Lee et al., "Deduplicating Training Data Makes Language Models
Better" (2021), reduced to an oracle-checkable per-document statistic:
sample fixed-length character k-grams at a fixed stride from every
document, find k-grams shared by >= 2 documents, and report each
document's duplicated fraction.

Scale shape:
  docs -> postings (md5-lower64(k-gram) as uint64, doc_id)   [map_batches;
          per-doc DISTINCT is batch-local because a document is one row]
       -> sort(h)                                  [ONE range shuffle]
       -> boundary-run totals                      [O(2 x batches) driver rows]
       -> per-batch dup flags + per-doc partials   [vectorized, zero joins]
       -> groupby(doc_id).sum                      [O(docs) keys]

The sort replaces a groupby on the k-gram hash domain (the large-key
groupby whose per-key Python combine costs ~7 s per 50k keys on this box
— see ops/fastgroup.py). Unlike pair-generating near-dup ops there is no
quadratic hot-key blow-up here: a k-gram shared by d documents emits d
posting rows total, so no stop-gram cap is needed.

The k-gram hash is DuckDB's ``md5_number_lower`` (house convention from
dedup/minhash.py), so the SQL oracle groups on the IDENTICAL key — hash
collisions cannot cause a mismatch. At 100 TB the md5 in the per-doc
Python loop is the vectorization gap to close (a numpy rolling
polynomial hash); md5 is kept for exact oracle parity.

No counterpart in /root/reference (SURVEY §2.5: near-dedup absent).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from parallel_louvain_method_ray.dedup.minhash import md5_lower64
from parallel_louvain_method_ray.algos._local_move import _runs
from parallel_louvain_method_ray.ops.fastgroup import boundary_run_totals
from parallel_louvain_method_ray.textops.analysis import round6_sql

K_DEFAULT = 20
STRIDE_DEFAULT = 5


def _doc_gram_hashes(text: str, k: int, stride: int) -> np.ndarray:
    """Distinct md5-lower64 hashes of the char k-grams starting at
    positions 0, stride, 2*stride, ... (windows fully inside the text)."""
    n = len(text)
    if n < k:
        return np.empty(0, np.uint64)
    grams = {text[p : p + k] for p in range(0, n - k + 1, stride)}
    return np.fromiter(
        (md5_lower64(g) for g in grams), np.uint64, count=len(grams)
    )


def duplicate_ngram_stats(
    docs: ray.data.Dataset,
    k: int = K_DEFAULT,
    stride: int = STRIDE_DEFAULT,
) -> ray.data.Dataset:
    """(doc_id, ngrams_total, dup_ngrams, dup_ratio): per document, the
    count of sampled char k-grams, how many of them occur in >= 2
    documents, and the rounded duplicated fraction (0.0 when the document
    is shorter than k)."""

    def postings(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs = [
            _doc_gram_hashes(t, k, stride)
            for t in batch.column("text").to_pylist()
        ]
        counts = [h.shape[0] for h in hs]
        return pa.table(
            {
                "h": np.concatenate(hs) if hs else np.empty(0, np.uint64),
                "doc_id": np.repeat(ids, counts),
            }
        )

    s = docs.map_batches(postings, batch_format="pyarrow").sort("h").materialize()
    bkeys, btotals = boundary_run_totals(s, "h")
    bref = ray.put((bkeys, btotals))

    def doc_partials(batch: pa.Table) -> pa.Table:
        h = batch.column("h").to_numpy(zero_copy_only=False)
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if h.shape[0] == 0:
            z = np.empty(0, np.int64)
            return pa.table({"doc_id": z, "tot": z, "dup": z})
        _, starts, lens = _runs(h)
        run_total = lens.copy()
        # boundary runs: replace the batch-local length with the merged
        # global total (a key spanning batches is first/last in every
        # batch it touches, so every posting row gets the global count)
        bk, bt = ray.get(bref)
        for ridx in (0, starts.shape[0] - 1):
            pos = np.searchsorted(bk, h[starts[ridx]])
            if pos < bk.shape[0] and bk[pos] == h[starts[ridx]]:
                run_total[ridx] = bt[pos]
        dup_row = np.repeat(run_total >= 2, lens)
        uids, inv = np.unique(doc, return_inverse=True)
        tot = np.bincount(inv, minlength=uids.shape[0])
        dup = np.bincount(inv, weights=dup_row, minlength=uids.shape[0])
        return pa.table(
            {
                "doc_id": uids,
                "tot": tot.astype(np.int64),
                "dup": dup.astype(np.int64),
            }
        )

    partials = s.map_batches(doc_partials, batch_format="pyarrow", batch_size=None)

    # zero rows for every document (docs shorter than k emit no postings)
    def zeros(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        z = np.zeros(ids.shape[0], np.int64)
        return pa.table({"doc_id": ids, "tot": z, "dup": z})

    base = docs.map_batches(zeros, batch_format="pyarrow")
    agg = (
        partials.union(base)
        .groupby("doc_id")
        .aggregate(Sum("tot"), Sum("dup"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        tot = batch.column("sum(tot)").to_numpy(zero_copy_only=False)
        dup = batch.column("sum(dup)").to_numpy(zero_copy_only=False)
        ratio = round6_sql(dup / np.maximum(tot, 1))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "ngrams_total": tot.astype(np.int64),
                "dup_ngrams": dup.astype(np.int64),
                "dup_ratio": ratio,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")
