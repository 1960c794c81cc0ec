"""As-of join (ops/joins.py). The SQL-oracle parity runs in
tests/test_queries_oracle.py / tools/driver_sim.py; these tests pin the
operator semantics on hand-built fixtures (ties, no-match keys, left vs
inner)."""

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.ops.joins import asof_join


def _ds(**cols):
    return ray.data.from_arrow(pa.table(cols))


def _collect(ds):
    return pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    ).to_pandas()


def _asof(left, right, how):
    return asof_join(
        left,
        right,
        left_by="k",
        right_by="k",
        left_on="t",
        right_on="t",
        left_cols=["lval"],
        right_cols=["rval"],
        right_tie="tie",
        how=how,
    )


def test_asof_backward_match_ties_and_nomatch():
    left = _ds(
        k=pa.array([1, 1, 1, 2, 3], pa.int64()),
        t=pa.array([5, 10, 2, 7, 4], pa.int64()),
        lval=pa.array([50, 100, 20, 70, 40], pa.int64()),
    )
    # key 1: rights at t=3 (tie 0 -> rval 300; tie 1 -> rval 301), t=10
    # key 2: right at t=9 only (AFTER the left t=7 -> no backward match)
    # key 3: absent on the right
    right = _ds(
        k=pa.array([1, 1, 1, 2], pa.int64()),
        t=pa.array([3, 3, 10, 9], pa.int64()),
        tie=pa.array([0, 1, 0, 0], pa.int64()),
        rval=pa.array([300, 301, 310, 900], pa.int64()),
    )
    out = _collect(_asof(left, right, "left")).set_index("l_lval")
    assert len(out) == 5
    # t=5 and t=2... t=2 has no right <= 2; t=5 matches t=3 with MAX tie
    assert out.loc[50].r_rval == 301
    assert out.loc[100].r_rval == 310  # exact-equality inclusive
    assert np.isnan(out.loc[20].r_rval)
    assert np.isnan(out.loc[70].r_rval)  # right exists but only after t
    assert np.isnan(out.loc[40].r_rval)  # key has no right rows at all

    inner = _collect(_asof(left, right, "inner"))
    assert sorted(inner.l_lval.tolist()) == [50, 100]
    assert not inner.r_rval.isna().any()


def test_asof_right_only_key_emits_nothing():
    left = _ds(
        k=pa.array([1], pa.int64()),
        t=pa.array([5], pa.int64()),
        lval=pa.array([1], pa.int64()),
    )
    right = _ds(
        k=pa.array([1, 99], pa.int64()),
        t=pa.array([4, 1], pa.int64()),
        tie=pa.array([0, 0], pa.int64()),
        rval=pa.array([10, 999], pa.int64()),
    )
    out = _collect(_asof(left, right, "left"))
    assert out.key.tolist() == [1]


def test_asof_timestamp_columns_cast_to_us():
    ts = pa.array([1_700_000_000_000_000, 1_700_000_060_000_000]).cast(
        pa.timestamp("us")
    )
    left = _ds(k=pa.array([1, 1], pa.int64()), lval=pa.array([0, 1], pa.int64()))
    left = ray.data.from_arrow(
        pa.table({"k": [1, 1], "t": ts, "lval": [0, 1]})
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": [1],
                "t": pa.array([1_700_000_030_000_000]).cast(pa.timestamp("us")),
                "tie": [0],
                "rval": [7],
            }
        )
    )
    out = _collect(_asof(left, right, "left")).sort_values("l_lval")
    assert out.t.tolist() == [1_700_000_000_000_000, 1_700_000_060_000_000]
    assert np.isnan(out.iloc[0].r_rval) and out.iloc[1].r_rval == 7
