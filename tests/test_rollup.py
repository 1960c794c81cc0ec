"""GROUP BY ROLLUP aggregate: every prefix level present, coarser levels
sum the finer ones exactly, grand total row, single-key and empty edge
behavior."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from parallel_louvain_method_ray.ops.analytics import rollup_aggregate


def _ds(rows, parts=3):
    a, b, c = zip(*rows)
    return ray.data.from_arrow(
        pa.table(
            {
                "ka": pa.array(list(a), pa.string()),
                "kb": pa.array(list(b), pa.string()),
                "cents": pa.array(list(c), pa.int64()),
            }
        )
    ).repartition(parts)


def test_rollup_two_keys(ray_session):
    rows = [
        ("r1", "n1", 100),
        ("r1", "n1", 50),
        ("r1", "n2", 7),
        ("r2", "n3", 1000),
    ]
    out = rollup_aggregate(_ds(rows), ["ka", "kb"], "cents").to_pandas()

    fine = out[out.grouping_level == 0].set_index(["ka", "kb"])
    assert fine.loc[("r1", "n1")].sum_cents == 150
    assert fine.loc[("r1", "n1")].n_rows == 2
    assert fine.loc[("r1", "n2")].sum_cents == 7
    assert fine.loc[("r2", "n3")].sum_cents == 1000

    mid = out[out.grouping_level == 1]
    assert set(mid.kb) == {"ALL"}
    mid = mid.set_index("ka")
    assert mid.loc["r1"].sum_cents == 157
    assert mid.loc["r1"].n_rows == 3
    assert mid.loc["r2"].sum_cents == 1000

    top = out[out.grouping_level == 2]
    assert len(top) == 1
    assert set(top.ka) == {"ALL"} and set(top.kb) == {"ALL"}
    assert top.sum_cents.iloc[0] == 1157
    assert top.n_rows.iloc[0] == 4

    # row count = distinct combos + distinct prefixes + 1 grand total
    assert len(out) == 3 + 2 + 1


def test_rollup_single_key(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(["x", "y", "x"], pa.string()),
                "cents": pa.array([1, 2, 4], pa.int64()),
            }
        )
    )
    out = rollup_aggregate(ds, ["k"], "cents").to_pandas()
    assert len(out) == 3  # x, y, ALL
    total = out[out.grouping_level == 1]
    assert total.k.iloc[0] == "ALL" and total.sum_cents.iloc[0] == 7


def test_rollup_levels_sum_consistently(ray_session):
    rng = np.random.RandomState(7)
    rows = [
        (f"r{rng.randint(4)}", f"n{rng.randint(10)}", int(rng.randint(1000)))
        for _ in range(500)
    ]
    out = rollup_aggregate(_ds(rows, parts=5), ["ka", "kb"], "cents").to_pandas()
    for lvl in (0, 1, 2):
        sub = out[out.grouping_level == lvl]
        assert sub.sum_cents.sum() == sum(c for _, _, c in rows)
        assert sub.n_rows.sum() == len(rows)


def test_rollup_keeps_null_keys_at_every_level(ray_session):
    # SQL ROLLUP: a NULL key is a group of its own at every level, so each
    # level's counts and sums add up to the grand total
    ds = ray.data.from_arrow(
        pa.table(
            {
                "ka": pa.array(["x", "x", None, "y"], pa.string()),
                "kb": pa.array(["p", "q", "p", "p"], pa.string()),
                "cents": pa.array([1, 2, 4, 8], pa.int64()),
            }
        )
    )
    out = rollup_aggregate(ds, ["ka", "kb"], "cents")
    for lvl in (0, 1, 2):
        sub = out.filter(pc.equal(out.column("grouping_level"), lvl))
        assert pc.sum(sub.column("n_rows")).as_py() == 4
        assert pc.sum(sub.column("sum_cents")).as_py() == 15
    mid = out.filter(pc.equal(out.column("grouping_level"), 1)).to_pylist()
    null_row = [r for r in mid if r["ka"] is None]
    assert len(null_row) == 1
    assert null_row[0]["kb"] == "ALL" and null_row[0]["sum_cents"] == 4
