"""Corpus-trained n-gram LM scoring — the quality-filter shape used by
large-scale training-data pipelines (score every document with a language
model trained on the corpus itself, then filter on the score).

Integer surrogate for log-probability: a document's score is the sum of
the CORPUS FREQUENCY of each of its adjacent-token bigrams. Log-prob
would be `sum log c(b) - log c(w1)`; the log is dropped for the same
reason `textops/collocations.py` drops it from PMI — `ln` is not
correctly-rounded in IEEE so the engine and the SQL oracle could differ
in the last ulp. Frequency sums are exact int64 (< 2^53), hash-exact
under any evaluation order. Rank order under the surrogate differs from
log-prob, but the *pipeline shape* — train pass, broadcastable model,
score pass — is identical, which is what the operator exercises.

Distribution shape (both passes stream, nothing is collected):
  pass 1 (train): per-batch bigram combiner dicts keyed by md5_lower64
    (the shuffle carries 64-bit hashes, never strings; XOR-bias into
    int64 keeps Ray Data's groupby on the Arrow fast path) -> one small
    groupby -> the model as a (h, c) Dataset of |distinct bigrams| rows.
  pass 2 (score): per-batch per-doc local combine (doc_id, h, n_local)
    -> distributed hash join with the model on h -> groupby(doc_id) over
    integer partials. The model is joined, NOT broadcast: at 100 TB the
    distinct-bigram table is itself fact-sized.

No counterpart in /root/reference (no text surface there); extends
SURVEY §2.5's training-data operators.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.dedup.minhash import md5_lower64
from parallel_louvain_method_ray.textops.collocations import SEP, _bias


def _bigram_hashes(text: str) -> list[int]:
    toks = text.split()
    return [md5_lower64(w1 + SEP + w2) for w1, w2 in zip(toks, toks[1:])]


def bigram_model(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Train pass: (h, c) corpus bigram counts, h = biased-int64
    md5_lower64 of `w1 + chr(31) + w2`."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for t in batch.column("text").to_pylist():
            for h in _bigram_hashes(t):
                counts[h] = counts.get(h, 0) + 1
        hs = np.fromiter(counts.keys(), np.uint64, count=len(counts))
        return pa.table(
            {
                "h": pa.array(_bias(hs)),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    agg = docs.map_batches(partial, batch_format="pyarrow").groupby("h").sum("n")
    return agg.rename_columns({"sum(n)": "c"})


def score_docs(
    docs: ray.data.Dataset, model: ray.data.Dataset, num_partitions: int = 8
) -> ray.data.Dataset:
    """Score pass: (doc_id, n_bigrams, lm_score) per document with >= 1
    bigram; lm_score = sum over bigram instances of the corpus count."""

    def doc_partial(batch: pa.Table) -> pa.Table:
        doc_ids: list[int] = []
        hs: list[int] = []
        ns: list[int] = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            local: dict[int, int] = {}
            for h in _bigram_hashes(t):
                local[h] = local.get(h, 0) + 1
            doc_ids.extend([d] * len(local))
            hs.extend(local.keys())
            ns.extend(local.values())
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "h": pa.array(
                    _bias(np.asarray(hs, dtype=np.uint64))
                    if hs
                    else np.array([], np.int64)
                ),
                "n_local": pa.array(ns, pa.int64()),
            }
        )

    from parallel_louvain_method_ray.algos.joined import _join

    exploded = docs.map_batches(doc_partial, batch_format="pyarrow")
    joined = _join(exploded, model, on=("h",), P=num_partitions)

    def products(batch: pa.Table) -> pa.Table:
        n = batch.column("n_local").to_numpy(zero_copy_only=False)
        c = batch.column("c").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_local": batch.column("n_local"),
                "prod": pa.array((n * c).astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(products, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("n_local"), Sum("prod"))
    )
    return out.rename_columns(
        {"sum(n_local)": "n_bigrams", "sum(prod)": "lm_score"}
    )
