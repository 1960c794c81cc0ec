"""Replicates the driver's correctness gate locally: run every queries()
entry at sf0.001 and compare against its DuckDB oracle (row count, schema,
order-insensitive values)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

import __ray_entry__ as entrymod

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def _to_pandas(res) -> pd.DataFrame:
    if isinstance(res, ray.data.Dataset):
        res = pa.concat_tables(
            [pa.table(b) for b in res.iter_batches(batch_format="pyarrow")]
        )
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), ignore_index=True)


@pytest.fixture(scope="module")
def con(sf_dir):
    c = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return c


SQL_CHECKED = sorted(set(entrymod.oracle_sql()) & set(entrymod.queries()))
ROWS_ONLY = sorted(set(entrymod.queries()) - set(entrymod.oracle_sql()))


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(name, sf_dir, con):
    from parallel_louvain_method_ray.pipelines.queries import oracle_sql_for_sf

    ray_df = _canon(_to_pandas(entrymod.queries()[name](sf_dir)))
    # the static oracle_sql() keys the louvain bridge path to the driver's
    # contract sf (0.01); re-key it for this harness's sf dir
    sql_df = _canon(con.sql(oracle_sql_for_sf(sf_dir)[name]).df())
    assert list(ray_df.columns) == list(sql_df.columns), (
        f"{name}: columns {list(ray_df.columns)} vs {list(sql_df.columns)}"
    )
    assert len(ray_df) == len(sql_df), f"{name}: row count"
    for col in ray_df.columns:
        a, b = ray_df[col].to_numpy(), sql_df[col].to_numpy()
        if np.issubdtype(np.asarray(a).dtype, np.floating) or np.issubdtype(
            np.asarray(b).dtype, np.floating
        ):
            np.testing.assert_allclose(
                a.astype(float), b.astype(float), atol=1e-8, err_msg=f"{name}.{col}"
            )
        else:
            np.testing.assert_array_equal(a, b, err_msg=f"{name}.{col}")


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_query_runs(name, sf_dir):
    df = _to_pandas(entrymod.queries()[name](sf_dir))
    assert len(df) >= 1, name


def test_entry_smoke():
    t = _to_pandas(entrymod.entry())
    assert len(t) > 0
    assert {"url", "vid", "comm", "rank"} <= set(t.columns)


# entries without a DuckDB oracle: random permutations, recall-tested
# ANN variants and converged iterative assignments
ROWS_ONLY_ENTRIES = {
    "cosine_topk_ivf",
    "cosine_topk_lsh",
    "embedding_near_dups",
    "louvain_communities",
    "louvain_modularity",
    "minhash_signatures",
    "near_dup_minhash",
    "near_dup_simhash",
    "simhash_signatures",
}


def test_registry_invariants():
    """`_GATE_FIRST` must stay the 50-entry prefix of the registry, and
    the oracle parametrization above silently skips an ORACLE_SQL key
    that has no QUERIES entry — so both are checked here, not at import
    (where `python -O` would strip an assert)."""
    from parallel_louvain_method_ray.pipelines.queries import _GATE_FIRST

    queries, oracles = entrymod.queries(), entrymod.oracle_sql()
    assert len(_GATE_FIRST) == 50
    assert len(set(_GATE_FIRST)) == 50
    assert list(queries)[:50] == _GATE_FIRST
    assert set(oracles) <= set(queries), sorted(set(oracles) - set(queries))
    assert set(queries) - set(oracles) == ROWS_ONLY_ENTRIES
