"""Scale-path renumbering (sort + per-block offsets + hash-join rewrite)
must assign IDENTICAL dense vids to the driver-collected path, and the one
Arrow-kernel `renumber` must match the numpy integer renumbering it
replaced."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from parallel_louvain_method_ray.graph.build import assign_dense_ids, renumber
from parallel_louvain_method_ray.pipelines.web_graph import renumber_urls


def _collect(ds) -> pa.Table:
    return pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    )


def _sorted_df(t: pa.Table):
    df = t.to_pandas()
    return df.sort_values(by=list(df.columns), ignore_index=True)


def test_renumber_scale_path_matches_driver_path_ints():
    rng = np.random.default_rng(42)
    raw = rng.choice(10_000_000, size=300, replace=False)  # sparse raw ids
    src = raw[rng.integers(0, 300, 900)]
    dst = raw[rng.integers(0, 300, 900)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": src.astype(np.int64),
                "dst": dst.astype(np.int64),
                "weight": np.ones(900),
            }
        )
    ).repartition(4)
    e_drv, v_drv, n_drv = renumber(edges)
    e_sc, v_sc, n_sc = renumber(edges, max_driver_ids=0)  # force scale path
    assert n_drv == n_sc
    vd, vs = _sorted_df(_collect(v_drv)), _sorted_df(_collect(v_sc))
    assert vd.equals(vs)
    ed, es = _sorted_df(_collect(e_drv)), _sorted_df(_collect(e_sc))
    assert ed.equals(es)


def test_renumber_scale_path_matches_driver_path_urls():
    rng = np.random.default_rng(7)
    hosts = [f"https://h{i}.example/p{j}" for i in range(20) for j in range(5)]
    s = [hosts[i] for i in rng.integers(0, len(hosts), 400)]
    d = [hosts[i] for i in rng.integers(0, len(hosts), 400)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src_url": pa.array(s, pa.string()),
                "dst_url": pa.array(d, pa.string()),
                "n_anchors": np.ones(400, dtype=np.int64),
            }
        )
    ).repartition(3)
    e_drv, v_drv, n_drv = renumber_urls(edges)
    e_sc, v_sc, n_sc = renumber_urls(edges, max_driver_ids=0)
    assert n_drv == n_sc
    vd, vs = _sorted_df(_collect(v_drv)), _sorted_df(_collect(v_sc))
    assert vd.equals(vs)
    ed, es = _sorted_df(_collect(e_drv)), _sorted_df(_collect(e_sc))
    assert ed.equals(es)


def test_assign_dense_ids_with_more_blocks_than_keys():
    # a sort with fewer distinct keys than blocks leaves empty blocks
    # (Louvain coarsening hits this when a level has few communities)
    for n_keys, n_blocks in ((3, 5), (2, 8), (10, 5)):
        keys = np.arange(n_keys, dtype=np.int64) * 7
        ds = ray.data.from_arrow(pa.table({"comm": keys})).repartition(n_blocks)
        t = _collect(assign_dense_ids(ds, "comm")).sort_by("comm")
        assert t.column("comm").to_pylist() == keys.tolist()
        assert t.column("vid").to_pylist() == list(range(n_keys))


def _numpy_renumber(edges: ray.data.Dataset):
    """Frozen copy of the integer `renumber` driver path this engine used
    before integer and url keys shared one routine (groupby distinct,
    driver sort, `np.searchsorted` rewrite)."""

    def ids_of(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"raw_id": np.unique(np.concatenate([s, d]))})

    distinct = (
        edges.map_batches(ids_of, batch_format="pyarrow")
        .groupby("raw_id")
        .count()
        .select_columns(["raw_id"])
        .materialize()
    )
    raw_ids = np.sort(
        pa.concat_tables(
            [pa.table(b) for b in distinct.iter_batches(batch_format="pyarrow")]
        )
        .column("raw_id")
        .to_numpy(zero_copy_only=False)
    )
    ref = ray.put(raw_ids)

    def rewrite(batch: pa.Table) -> pa.Table:
        ids = ray.get(ref)
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": np.searchsorted(ids, s).astype(np.int64),
                "dst": np.searchsorted(ids, d).astype(np.int64),
                "weight": batch.column("weight"),
            }
        )

    vertices = ray.data.from_arrow(
        pa.table(
            {"raw_id": raw_ids, "vid": np.arange(raw_ids.shape[0], dtype=np.int64)}
        )
    )
    return (
        edges.map_batches(rewrite, batch_format="pyarrow"),
        vertices,
        int(raw_ids.shape[0]),
    )


def _int_edges(case: str) -> ray.data.Dataset:
    rng = np.random.default_rng(11)
    raw = rng.choice(np.arange(-5_000_000, 5_000_000), size=400, replace=False)
    src = raw[rng.integers(0, 400, 1500)]
    dst = raw[rng.integers(0, 400, 1500)]
    w = rng.integers(1, 5, 1500).astype(np.float64)
    if case == "sparse_negative":
        return ray.data.from_arrow(pa.table({"src": src, "dst": dst, "weight": w}))
    if case == "int32_src":
        return ray.data.from_arrow(
            pa.table({"src": src.astype(np.int32), "dst": dst, "weight": w})
        )
    if case == "int32_both":
        return ray.data.from_arrow(
            pa.table(
                {"src": src.astype(np.int32), "dst": dst.astype(np.int32), "weight": w}
            )
        )
    # multi-block: five blocks, each with its own subset of the ids
    cuts = np.linspace(0, 1500, 6).astype(int)
    return ray.data.from_arrow(
        [
            pa.table({"src": src[a:b], "dst": dst[a:b], "weight": w[a:b]})
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
    )


@pytest.mark.parametrize(
    "case", ["sparse_negative", "int32_src", "int32_both", "multi_block"]
)
def test_renumber_matches_frozen_numpy_renumber(case):
    edges = _int_edges(case).materialize()
    e_old, v_old, n_old = _numpy_renumber(edges)
    e_new, v_new, n_new = renumber(edges)
    assert n_new == n_old
    vo, vn = _collect(v_old), _collect(v_new)
    assert vn.schema == vo.schema
    assert _sorted_df(vn).equals(_sorted_df(vo))
    eo, en = _collect(e_old), _collect(e_new)
    assert en.schema == eo.schema
    assert _sorted_df(en).equals(_sorted_df(eo))
    if case in ("int32_src", "multi_block"):
        e_sc, v_sc, n_sc = renumber(edges, max_driver_ids=0)  # scale tier
        assert n_sc == n_old
        assert _sorted_df(_collect(v_sc)).equals(_sorted_df(vo))
        assert _sorted_df(_collect(e_sc)).equals(_sorted_df(eo))
