"""Approximate-nearest-neighbor search over an embedding column.

- `cosine_topk`: brute-force baseline — the QUERY matrix is broadcast
  (ray.put once), each data batch computes a (B x Q) matmul and emits its
  local top-k per query; a final small groupby-merge keeps the global top-k.
  This is the scale shape: data streams, queries are the small side.
- `cosine_topk_lsh`: random-hyperplane LSH variant — data is bucketed by
  sign-pattern; only buckets matching a query's pattern (and its 1-bit
  neighbors) are scanned. Recall/throughput trade documented in tests.
- `ivf_assign` + `cosine_topk_ivf`: IVF (inverted-file) variant — a small
  coarse quantizer (k-means on a deterministic sample, trained on the
  driver, broadcast once) assigns every vector a bucket; a search filters
  the bucketed Dataset to each query's `nprobe` nearest buckets and
  scores only those rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    c = batch.column(col)
    combined = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    n = len(combined)
    flat = np.asarray(combined.flatten(), dtype=np.float64)
    return flat.reshape(n, flat.shape[0] // n) if n else flat.reshape(0, 0)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def cosine_topk(
    embeddings: ray.data.Dataset,
    query_vecs: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    exclude_ids: bool = True,
    query_probed: np.ndarray | None = None,
    bucket_col: str = "bucket",
) -> pa.Table:
    """(query_id, vec_id, score): global top-k by cosine per query,
    deterministic tie-break (score desc, vec_id asc). `exclude_ids` drops
    hits whose vec_id equals the query_id (self-matches).

    `query_probed` (Q x nprobe int array): restrict query i's candidates
    to rows whose `bucket_col` value is in query_probed[i] — the per-query
    IVF mask (ADVICE r3: a union-only filter made each query's result
    depend on which other queries were batched with it)."""
    q_unit = _normalize_rows(np.asarray(query_vecs, np.float64))
    q_ref = ray.put(
        (np.asarray(query_ids, np.int64), q_unit, query_probed)
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        qids, qm, probed = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        if ids.shape[0] == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        buckets = (
            batch.column(bucket_col).to_numpy(zero_copy_only=False)
            if probed is not None
            else None
        )
        dm = _normalize_rows(_batch_matrix(batch))
        sims = qm @ dm.T  # (Q, B)
        out_q, out_v, out_s = [], [], []
        kk = min(k + (1 if exclude_ids else 0), ids.shape[0])
        for qi in range(qids.shape[0]):
            row = sims[qi]
            if buckets is not None:
                row = np.where(np.isin(buckets, probed[qi]), row, -np.inf)
            # partial top-k then deterministic ordering
            cand = np.argpartition(-row, kk - 1)[:kk]
            order = np.lexsort((ids[cand], -row[cand]))
            sel = cand[order]
            sel = sel[row[sel] > -np.inf]
            if exclude_ids:
                sel = sel[ids[sel] != qids[qi]][:k]
            else:
                sel = sel[:k]
            out_q.append(np.full(sel.shape[0], qids[qi], dtype=np.int64))
            out_v.append(ids[sel])
            out_s.append(row[sel])
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_v),
                "score": np.concatenate(out_s),
            }
        )

    parts = [
        pa.table(b)
        for b in embeddings.map_batches(local_topk, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    t = pa.concat_tables(parts)
    # final merge (small: P * Q * k rows)
    qs = t.column("query_id").to_numpy(zero_copy_only=False)
    vs = t.column("vec_id").to_numpy(zero_copy_only=False)
    ss = t.column("score").to_numpy(zero_copy_only=False)
    out_q, out_v, out_s = [], [], []
    for q in np.unique(qs):
        m = qs == q
        order = np.lexsort((vs[m], -ss[m]))[:k]
        out_q.append(np.full(order.shape[0], q, dtype=np.int64))
        out_v.append(vs[m][order])
        out_s.append(ss[m][order])
    return pa.table(
        {
            "query_id": np.concatenate(out_q),
            "vec_id": np.concatenate(out_v),
            "score": np.round(np.concatenate(out_s), 6),
        }
    )


def queries_from_dataset(
    embeddings: ray.data.Dataset, ids: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Fetch specific vec_ids as the query matrix (small side)."""

    def pick(batch: pa.Table) -> pa.Table:
        v = batch.column("vec_id")
        return batch.filter(pc.is_in(v, value_set=pa.array(ids, type=v.type)))

    t = pa.concat_tables(
        [
            pa.table(b)
            for b in embeddings.map_batches(pick, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
        ]
    )
    got = t.column("vec_id").to_numpy(zero_copy_only=False)
    order = np.argsort(got)
    mat = _batch_matrix(t)[order]
    return got[order], mat


def train_coarse_quantizer(
    embeddings: ray.data.Dataset,
    n_centroids: int = 64,
    sample_size: int = 4096,
    iters: int = 10,
    seed: int = 777,
) -> np.ndarray:
    """Unit-norm centroid matrix (n_centroids, dim) via Lloyd k-means on a
    deterministic sample (first `sample_size` rows — the small side; the
    full set never leaves the stream). Empty clusters are re-seeded from
    the sample deterministically."""
    sample = pa.concat_tables(
        [
            pa.table(b)
            for b in embeddings.limit(sample_size).iter_batches(
                batch_format="pyarrow"
            )
        ]
    )
    x = _normalize_rows(_batch_matrix(sample))
    k = min(n_centroids, x.shape[0])
    rng = np.random.default_rng(seed)
    cent = x[rng.choice(x.shape[0], size=k, replace=False)]
    for _ in range(iters):
        asg = np.argmax(x @ cent.T, axis=1)  # cosine on unit vectors
        for c in range(k):
            m = asg == c
            if m.any():
                cent[c] = x[m].mean(axis=0)
            else:
                cent[c] = x[rng.integers(0, x.shape[0])]
        cent = _normalize_rows(cent)
    return cent


def ivf_assign(
    embeddings: ray.data.Dataset, centroids: np.ndarray
) -> ray.data.Dataset:
    """Append a `bucket` column (nearest-centroid id) — the IVF build step.
    Centroids are broadcast via ray.put once; each batch is one matmul.
    Persist with `.write_parquet(path, partition_cols=["bucket"])` so a
    search only reads its probed partitions."""
    c_ref = ray.put(np.asarray(centroids, np.float64))

    def tag(batch: pa.Table) -> pa.Table:
        cent = ray.get(c_ref)
        if batch.num_rows == 0:
            return batch.append_column("bucket", pa.array([], pa.int64()))
        dm = _normalize_rows(_batch_matrix(batch))
        b = np.argmax(dm @ cent.T, axis=1).astype(np.int64)
        return batch.append_column("bucket", pa.array(b, pa.int64()))

    return embeddings.map_batches(tag, batch_format="pyarrow")


def cosine_topk_ivf(
    embeddings: ray.data.Dataset,
    query_vecs: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    n_centroids: int = 64,
    nprobe: int = 8,
    exclude_ids: bool = True,
    centroids: np.ndarray | None = None,
) -> pa.Table:
    """IVF ANN: the data stream is pruned to the UNION of all queries'
    `nprobe` buckets (that bounds the scoring cost; every row is still
    read and assigned a bucket), but each query's CANDIDATE set is its OWN
    nprobe buckets (per-query mask inside the top-k kernel), so a query's
    result never depends on which other queries it was batched with
    (ADVICE r3). Approximate — recall vs `cosine_topk` measured in tests.
    Pass pre-trained `centroids` to reuse an index across searches."""
    if centroids is None:
        centroids = train_coarse_quantizer(embeddings, n_centroids)
    q_unit = _normalize_rows(np.asarray(query_vecs, np.float64))
    np_probe = min(nprobe, centroids.shape[0])
    sims = q_unit @ centroids.T  # (Q, C)
    probed = np.argpartition(-sims, np_probe - 1, axis=1)[:, :np_probe]
    wanted = set(int(b) for b in probed.ravel().tolist())
    wanted_ref = ray.put(wanted)

    tagged = ivf_assign(embeddings, centroids)

    def bucket_filter(batch: pa.Table) -> pa.Table:
        want = ray.get(wanted_ref)
        b = batch.column("bucket").to_numpy(zero_copy_only=False)
        keep = np.fromiter((int(x) in want for x in b.tolist()), bool, b.shape[0])
        return batch.filter(pa.array(keep))

    filtered = tagged.map_batches(bucket_filter, batch_format="pyarrow")
    return cosine_topk(
        filtered, query_vecs, query_ids, k=k, exclude_ids=exclude_ids,
        query_probed=probed,
    )


def cosine_topk_lsh(
    embeddings: ray.data.Dataset,
    query_vecs: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    n_planes: int = 8,
    exclude_ids: bool = True,
) -> pa.Table:
    """LSH-bucketed ANN: random-hyperplane sign buckets (seeded planes);
    each query scans only its bucket and the n_planes 1-bit-flip neighbor
    buckets. Approximate — recall measured in tests against cosine_topk."""
    rng = np.random.default_rng(777)
    dim = np.asarray(query_vecs).shape[1]
    planes = rng.standard_normal((n_planes, dim))
    planes_ref = ray.put(planes)
    q_unit = _normalize_rows(np.asarray(query_vecs, np.float64))
    q_codes = ((q_unit @ planes.T) > 0).astype(np.uint32)
    q_buckets = (q_codes * (1 << np.arange(n_planes, dtype=np.uint32))).sum(axis=1)
    wanted: set[int] = set()
    for b in q_buckets.tolist():
        wanted.add(int(b))
        for j in range(n_planes):
            wanted.add(int(b) ^ (1 << j))
    wanted_ref = ray.put(wanted)
    q_ref = ray.put((np.asarray(query_ids, np.int64), q_unit, q_buckets))

    def bucket_filter(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        want = ray.get(wanted_ref)
        dm = _normalize_rows(_batch_matrix(batch))
        codes = ((dm @ pl.T) > 0).astype(np.uint32)
        buckets = (codes * (1 << np.arange(pl.shape[0], dtype=np.uint32))).sum(axis=1)
        keep = np.fromiter(
            (int(b) in want for b in buckets.tolist()), bool, buckets.shape[0]
        )
        return batch.filter(pa.array(keep))

    filtered = embeddings.map_batches(bucket_filter, batch_format="pyarrow")
    return cosine_topk(
        filtered, query_vecs, query_ids, k=k, exclude_ids=exclude_ids
    )
