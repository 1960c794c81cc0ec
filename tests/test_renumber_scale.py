"""Scale-path renumbering (sort + per-block offsets + hash-join rewrite)
must assign IDENTICAL dense vids to the driver-collected path."""

import numpy as np
import pyarrow as pa
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
