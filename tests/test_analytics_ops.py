"""Analytics operators (ops/analytics.py): exact quantiles, group top-k,
anti join, deterministic hash sampling, column profiling. SQL-oracle
parity runs in test_queries_oracle.py / driver_sim; these pin semantics
on fixtures."""

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.ops.analytics import (
    column_profile,
    exact_quantiles,
    hash_sample,
    shuffle_anti_join,
    topk_per_group,
)


def _collect(ds):
    return pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    ).to_pandas()


def test_exact_quantiles_matches_percentile_disc():
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 50, size=1000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(7)
    out = exact_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.9, 1.0]).to_pandas()
    s = np.sort(vals)
    for q, v in zip(out.q, out.value):
        rank = max(1, int(np.ceil(q * len(s))))
        assert v == s[rank - 1], (q, v, s[rank - 1])


def test_exact_quantiles_duckdb_parity():
    import duckdb

    rng = np.random.default_rng(9)
    vals = rng.integers(0, 30, size=333).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(5)
    out = exact_quantiles(ds, "v", [0.25, 0.5, 0.75, 0.99]).to_pandas()
    con = duckdb.connect()
    con.register("t", pa.table({"v": vals}))
    for q, v in zip(out.q, out.value):
        (want,) = con.execute(
            f"SELECT quantile_disc(v, {q}) FROM t"
        ).fetchone()
        assert v == want, (q, v, want)


def test_topk_per_group_rank_and_ties():
    # key 1 has 5 rows incl. a score tie (ids 12 vs 13 -> lower id wins)
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 1, 2, 3], pa.int64()),
            "score": pa.array([5.0, 9.0, 7.0, 9.0, 1.0, 4.0, 2.0]),
            "id": pa.array([10, 13, 11, 12, 14, 20, 30], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    out = _collect(
        topk_per_group(ds, key_col="k", score_col="score", k=2, tie_col="id")
    )
    got = {
        k: sorted(zip(g.score, g.id)) for k, g in out.groupby("k")
    }
    assert got[1] == [(9.0, 12), (9.0, 13)]  # both 9.0s beat 7.0
    assert got[2] == [(4.0, 20)]
    assert got[3] == [(2.0, 30)]


def test_shuffle_anti_join_matches_isin():
    """The fact-vs-fact anti join keeps exactly the left rows whose key is
    not in the right side — on duplicate keys on both sides and with an
    extra left column."""
    keys = np.array([1, 2, 2, 3, 4, 5, 5], np.int64)
    rkeys = np.array([2, 2, 4, 9], np.int64)
    left = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "payload": pa.array(list("abcdefg"))})
    ).repartition(3)
    right = ray.data.from_arrow(pa.table({"rk": pa.array(rkeys)}))
    right = right.repartition(2)

    got = _collect(
        shuffle_anti_join(left, right, left_key="k", right_key="rk")
    ).sort_values(["k", "payload"], ignore_index=True)
    keep = ~np.isin(keys, rkeys)
    assert list(got.columns) == ["k", "payload"]
    assert got.k.tolist() == keys[keep].tolist()
    assert got.payload.tolist() == np.array(list("abcdefg"))[keep].tolist()


def test_shuffle_anti_join_empty_right():
    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([], pa.int64())})
    )
    assert sorted(
        _collect(shuffle_anti_join(left, right, left_key="k", right_key="rk")).k
    ) == [1, 2]


def test_hash_sample_string_keys():
    """ADVICE r3: string keys hash their value directly (int keys keep
    the decimal-string canonicalization)."""
    import duckdb

    urls = pa.table(
        {"url": pa.array([f"https://d{i}.example.com/{i}" for i in range(300)])}
    )
    ds = ray.data.from_arrow(urls).repartition(3)
    got = sorted(_collect(hash_sample(ds, "url", num=25)).url.tolist())
    con = duckdb.connect()
    con.register("t", urls)
    want = [
        r[0]
        for r in con.execute(
            "SELECT url FROM t WHERE md5_number_lower(url) % 100 < 25 "
            "ORDER BY url"
        ).fetchall()
    ]
    assert got == want and len(got) > 0


def test_hash_sample_deterministic_and_duckdb_parity():
    import duckdb

    ids = pa.table({"doc_id": pa.array(range(500), pa.int64())})
    ds = ray.data.from_arrow(ids).repartition(4)
    a = sorted(_collect(hash_sample(ds, "doc_id", num=10)).doc_id.tolist())
    b = sorted(_collect(hash_sample(ds, "doc_id", num=10)).doc_id.tolist())
    assert a == b  # no RNG state, stable across runs
    assert 20 <= len(a) <= 90  # ~10% of 500

    con = duckdb.connect()
    con.register("t", ids)
    want = [
        r[0]
        for r in con.execute(
            "SELECT doc_id FROM t "
            "WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 10 "
            "ORDER BY doc_id"
        ).fetchall()
    ]
    assert a == want


def test_chunk_documents_windows_and_overlap():
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": [
                    " ".join(f"t{i}" for i in range(10)),  # 10 toks
                    "solo",  # 1 token -> 1 chunk
                    "   ",  # whitespace-only -> no chunks
                ],
            }
        )
    )
    from parallel_louvain_method_ray.ops.analytics import chunk_documents

    out = _collect(
        chunk_documents(docs, window=4, stride=3)
    ).sort_values(["doc_id", "chunk_idx"], ignore_index=True)
    d1 = out[out.doc_id == 1]
    # starts 0,3,6,9 -> 4 chunks; last has 1 token
    assert d1.chunk_idx.tolist() == [0, 1, 2, 3]
    assert d1.n_tokens.tolist() == [4, 4, 4, 1]
    assert d1.chunk.tolist()[0] == "t0 t1 t2 t3"
    assert d1.chunk.tolist()[1] == "t3 t4 t5 t6"  # stride-3 overlap of 1
    assert d1.chunk.tolist()[3] == "t9"
    assert out[out.doc_id == 2].chunk.tolist() == ["solo"]
    assert (out.doc_id == 3).sum() == 0


def test_column_profile_all_null_column_is_null():
    """SQL min/max skip NULLs: a column that is null everywhere profiles
    to a null min_v/max_v (not +inf/-inf), and null rows do not move the
    min/max of a column that has values."""
    f64 = pa.float64()
    blocks = [
        pa.table(
            {"a": pa.array([None, None], f64), "b": pa.array([3.0, None])}
        ),
        pa.table({"a": pa.array([None], f64), "b": pa.array([None], f64)}),
        pa.table(
            {"a": pa.array([None] * 3, f64), "b": pa.array([-1.5, 7.0, 2.0])}
        ),
    ]
    got = {
        r["column"]: r
        for r in column_profile(
            ray.data.from_arrow(blocks), ["a", "b"]
        ).take_all()
    }
    assert got["a"] == {
        "column": "a", "n_rows": 6, "n_null": 6, "min_v": None, "max_v": None
    }
    assert got["b"] == {
        "column": "b", "n_rows": 6, "n_null": 2, "min_v": -1.5, "max_v": 7.0
    }
