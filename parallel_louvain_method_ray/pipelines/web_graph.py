"""The flagship pipeline (SURVEY §7.1): pages -> extract -> edges -> graph
-> Louvain + PageRank.

pages.parquet-shaped input (from `web.pages.synthesize_pages` over the
testdata `documents` table) -> actor-pool HTML extraction (byte-identical
text invariant asserted) -> (src_url, dst_url) anchors -> dense url
renumbering -> edge table -> Louvain communities + PageRank scores.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray.algos.louvain import louvain
from parallel_louvain_method_ray.algos.pagerank import pagerank
from parallel_louvain_method_ray.config import DEFAULT_CONFIG, EngineConfig
from parallel_louvain_method_ray.graph.build import build_graph
from parallel_louvain_method_ray.web.extract import extract_pages, links_to_edges
from parallel_louvain_method_ray.web.pages import synthesize_pages


def pages_from_documents(
    sf_dir: str, n_domains: int = 50, **knobs
) -> ray.data.Dataset:
    """Deterministic pages table over the sf dir's document-id universe."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n_pages = docs.count()
    return synthesize_pages(docs, n_pages=n_pages, n_domains=n_domains, **knobs)


def renumber_urls(
    edges_str: ray.data.Dataset,
    max_driver_ids: int = 20_000_000,
) -> tuple[ray.data.Dataset, ray.data.Dataset, int]:
    """Dense renumbering over string keys: every url appearing as src or dst
    maps to its rank in sorted order (the string analogue of
    `renumber.py:25-34`). Below `max_driver_ids` the distinct-url set is
    collected + broadcast (searchsorted rewrite); above it the scale path
    runs Dataset.sort + per-block offset ranking + two hash joins — no
    O(V) driver state (see graph.build.assign_dense_ids)."""

    def urls_of(batch: pa.Table) -> pa.Table:
        u = np.union1d(
            batch.column("src_url").to_numpy(zero_copy_only=False),
            batch.column("dst_url").to_numpy(zero_copy_only=False),
        )
        return pa.table({"url": pa.array(u, pa.string())})

    # per-block distinct endpoints — the only distributed pass over the
    # edge strings. The tier gate uses the SUM of per-block distinct counts
    # (an upper bound on the global distinct count), so the driver-side
    # dedupe below is bounded by max_driver_ids BEFORE any driver work.
    blk_distinct = edges_str.map_batches(
        urls_of, batch_format="pyarrow"
    ).materialize()
    bound = blk_distinct.count()
    if bound > max_driver_ids:
        # scale path: a real distinct (one groupby shuffle) + sort-rank
        # dense ids + two hash joins — no O(V) driver state
        from parallel_louvain_method_ray.graph.build import assign_dense_ids

        distinct = (
            blk_distinct.groupby("url").count().select_columns(["url"])
        )
        vertices = assign_dense_ids(distinct, "url")
        n = vertices.count()
        edges = _renumber_urls_join(edges_str, vertices)
        return edges, vertices, n

    # broadcast tier: the driver holds the sorted distinct-url array anyway
    # (searchsorted rewrite), so dedupe HERE instead of paying a groupby
    # shuffle first — Ray Data's sort-based aggregate costs ~per-distinct-
    # key Python combine (measured ~7 s at 50k keys), pure overhead when
    # the driver repeats the sort+unique in milliseconds.
    parts = [
        pa.table(b).column("url").to_numpy(zero_copy_only=False)
        for b in blk_distinct.iter_batches(batch_format="pyarrow")
    ]
    urls = (
        np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=object)
    )
    ref = ray.put(urls)

    def rewrite(batch: pa.Table) -> pa.Table:
        u = ray.get(ref)
        s = batch.column("src_url").to_numpy(zero_copy_only=False)
        d = batch.column("dst_url").to_numpy(zero_copy_only=False)
        out = pa.table(
            {
                "src": np.searchsorted(u, s).astype(np.int64),
                "dst": np.searchsorted(u, d).astype(np.int64),
                "weight": batch.column("n_anchors")
                .to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        return out

    vertices = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "vid": np.arange(urls.shape[0], dtype=np.int64),
            }
        )
    )
    return (
        edges_str.map_batches(rewrite, batch_format="pyarrow"),
        vertices,
        int(urls.shape[0]),
    )


def _renumber_urls_join(
    edges_str: ray.data.Dataset,
    vertices: ray.data.Dataset,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Scale-path url->vid rewrite: two hash joins, no broadcast."""
    from parallel_louvain_method_ray.graph.build import join_partitions

    num_partitions = join_partitions(num_partitions)
    v_src = vertices.map_batches(
        lambda b: b.rename_columns(["url", "src_vid"]), batch_format="pyarrow"
    )
    v_dst = vertices.map_batches(
        lambda b: b.rename_columns(["url", "dst_vid"]), batch_format="pyarrow"
    )
    # materialize between the two joins (one JoinOperator in flight at a
    # time — aggregator fan-out discipline, see graph.build.join_partitions)
    j = edges_str.join(
        v_src, join_type="inner", num_partitions=num_partitions,
        on=("src_url",), right_on=("url",),
    ).materialize().join(
        v_dst, join_type="inner", num_partitions=num_partitions,
        on=("dst_url",), right_on=("url",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src_vid"),
                "dst": batch.column("dst_vid"),
                "weight": batch.column("n_anchors")
                .to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


def web_edge_table(
    pages: ray.data.Dataset,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    check_invariant: bool = True,
):
    """pages -> (edges(src,dst,weight), vertices(url,vid), n, extraction
    stats). Raises if any page's extracted text differs from the stored
    `text` column (the per-row invariant)."""
    # materialize once: the invariant check, link explosion and renumber all
    # consume this stage — without materialization each would re-run the
    # whole actor-pool extraction
    extracted = extract_pages(
        pages, concurrency=concurrency, batch_size=batch_size
    ).materialize()
    if check_invariant:
        # one aggregate over the PRUNED boolean column (selecting first
        # keeps the wide text/links columns out of the scan)
        bad = extracted.select_columns(["text_ok"]).map_batches(
            lambda b: pa.table(
                {"bad": [int(len(b) - pa.compute.sum(b.column("text_ok")).as_py())]}
            ),
            batch_format="pyarrow",
        ).sum("bad")
        if bad:
            raise AssertionError(
                f"text invariant violated on {bad} pages (extracted != stored)"
            )
        # links_to_edges' batch-local anchor aggregation REQUIRES one row
        # per url (a re-crawled corpus with duplicate urls would silently
        # split n_anchors across rows); distinct-count the pruned url
        # column to assert it. Below 20M rows the driver unique()s the
        # column directly (same cost class as renumber_urls' broadcast
        # tier); above it one distinct groupby shuffle, scalar to driver.
        n_rows = extracted.count()
        url_col = extracted.select_columns(["url"])
        if n_rows <= 20_000_000:
            parts = [
                pa.table(b).column("url").to_numpy(zero_copy_only=False)
                for b in url_col.iter_batches(batch_format="pyarrow")
            ]
            n_urls = (
                int(np.unique(np.concatenate(parts)).shape[0]) if parts else 0
            )
        else:
            n_urls = url_col.groupby("url").count().count()
        if n_urls != n_rows:
            raise AssertionError(
                f"duplicate page urls: {n_rows} rows but {n_urls} distinct "
                "urls — dedupe the pages table before web_edge_table"
            )
    edges_str = links_to_edges(extracted)
    edges, vertices, n = renumber_urls(edges_str)
    return edges, vertices, n


def _scores_dataset(
    comm: np.ndarray, rank: np.ndarray, block_rows: int = 4_000_000
) -> ray.data.Dataset:
    """(vid, comm, rank) as a multi-block Dataset. The broadcast engines
    hand back dense O(V) int/float arrays (their contract below
    `max_broadcast_vertices`); slicing them into blocks here is zero-copy
    and lets the output path stay a Dataset join."""
    n = len(comm)
    tables = [
        pa.table(
            {
                "vid": pa.array(np.arange(s, min(s + block_rows, n), dtype=np.int64)),
                "comm": pa.array(comm[s : s + block_rows]),
                "rank": pa.array(rank[s : s + block_rows]),
            }
        )
        for s in range(0, max(n, 1), block_rows)
    ]
    return ray.data.from_arrow(tables)


def flagship(
    sf_dir: str,
    config: EngineConfig | None = None,
    n_domains: int = 50,
    pagerank_iters: int = 20,
    output_path: str | None = None,
) -> ray.data.Dataset:
    """End-to-end: returns a per-vertex Dataset
    (url, vid, comm, rank) — community from multi-level Louvain
    (m_mode="weight": anchor-count weighted edges), PageRank over the
    symmetrized link graph.

    The output is assembled as a DATASET JOIN (vertices ⋈ scores on vid)
    — the driver never concatenates the O(V) url table (at 10^12 urls
    that table alone is terabytes; the r2 driver-side assembly was the
    headline scale-killer). With `output_path` the result is written as
    partitioned parquet and the (lazy) dataset is still returned.

    Compute routing (VERDICT r3 #3): below `config.max_broadcast_vertices`
    the broadcast engines run (fast, O(V) driver state); above it BOTH
    Louvain and PageRank run on the sharded tier (state/spmv_pool.py),
    where per-vertex state lives sharded on pool actors or in Datasets —
    the pipeline never OOMs the driver."""
    cfg = config or DEFAULT_CONFIG
    # prespawn the shard-pool actors: fork + package import overlaps the
    # extract stage instead of blocking the first Louvain sweep wave
    # (measured 5-15 s of serial actor cold-start after a Ray Data
    # pipeline has run on the node)
    from parallel_louvain_method_ray.state.shard_pool import ShardPool

    pool = ShardPool()
    try:
        pages = pages_from_documents(sf_dir, n_domains=n_domains)
        edges, vertices, n = web_edge_table(pages)
        return _flagship_rest(
            cfg, pages, edges, vertices, n, pagerank_iters, output_path, pool
        )
    finally:
        pool.shutdown()


def _flagship_rest(
    cfg, pages, edges, vertices, n, pagerank_iters, output_path, pool
) -> ray.data.Dataset:
    from parallel_louvain_method_ray.algos.joined import _join, _rename

    if n <= cfg.max_broadcast_vertices:
        graph = build_graph(edges, cfg, n_vertices=n)
        res = louvain(graph, cfg, m_mode="weight", pool=pool)
        ranks, _ = pagerank(graph, max_iter=pagerank_iters, pool=pool)
        scores = _scores_dataset(res.assignments, ranks)
    else:
        from parallel_louvain_method_ray.algos.joined import (
            joined_graph_from_entries,
            louvain_joined,
        )
        from parallel_louvain_method_ray.graph.build import (
            dedup_entries,
            symmetrize,
        )
        from parallel_louvain_method_ray.state.spmv_pool import (
            pagerank_partitioned,
        )

        jg = joined_graph_from_entries(dedup_entries(symmetrize(edges)), n)
        comm_ds, _q, _ = louvain_joined(
            jg, max_sweeps=cfg.max_sweeps, max_levels=cfg.max_levels,
            m_mode="weight",
        )
        ranks_ds, _ = pagerank_partitioned(
            jg.edges, jg.n, tol=0.0, max_iter=pagerank_iters
        )
        scores = _join(
            comm_ds, _rename(ranks_ds, ["vid", "rank"]), on=("vid",)
        ).select_columns(["vid", "comm", "rank"])

    out = _join(vertices, scores, on=("vid",)).select_columns(
        ["url", "vid", "comm", "rank"]
    )
    if output_path is not None:
        out = out.materialize()
        out.write_parquet(output_path)
    return out
