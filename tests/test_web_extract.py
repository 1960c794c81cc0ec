"""Pages synthesis + HTML extraction (byte-identical invariant) + flagship."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import build_graph
from parallel_louvain_method_ray.graph.csr import unpack_shards
from parallel_louvain_method_ray.web.extract import (
    HtmlExtractor,
    extract_pages,
    links_to_edges,
)
from parallel_louvain_method_ray.web.pages import render_page, synthesize_pages
from parallel_louvain_method_ray.pipelines.web_graph import (
    renumber_urls,
    web_edge_table,
)


def test_render_page_deterministic():
    a = render_page(7, 100, 10, 3, 2, 30, 1)
    b = render_page(7, 100, 10, 3, 2, 30, 1)
    assert a == b
    url, ts, html, text, lang = a
    assert url == "https://d0000.example.com/p/000000000007"
    assert b"<script" in html and "Doc 7" in text


def test_extractor_byte_identical_on_generated_pages():
    ex = HtmlExtractor()
    for i in [0, 1, 5, 42, 99]:
        url, ts, html, text, lang = render_page(i, 100, 10, 4, 2, 30, 1)
        assert ex.extract_text(html.decode()) == text, f"page {i}"


def test_extractor_handles_messy_html():
    ex = HtmlExtractor()
    raw = (
        "<html><body><p>a  b\t c</p><p>x &amp; y &lt;z&gt;</p>"
        "<script>ignore()</script><div>tail</div></body></html>"
    )
    assert ex.extract_text(raw) == "a b c\nx & y <z>\ntail"
    links = ex.extract_links(
        '<a href="/rel">r</a> <a href="https://x.com/a">a</a>',
        "https://base.org/p/1",
    )
    assert links == ["https://base.org/rel", "https://x.com/a"]


def test_extract_pages_dataset_invariant_and_links():
    docs = ray.data.from_arrow(
        pa.table({"doc_id": np.arange(60, dtype=np.int64)})
    )
    pages = synthesize_pages(docs, n_pages=60, n_domains=6, n_hub_pages=2)
    extracted = extract_pages(pages, concurrency=2, batch_size=16)
    t = pa.concat_tables(
        [pa.table(b) for b in extracted.iter_batches(batch_format="pyarrow")]
    )
    assert t.num_rows == 60
    assert pa.compute.sum(t.column("text_ok")).as_py() == 60

    edges = links_to_edges(extracted)
    et = pa.concat_tables(
        [pa.table(b) for b in edges.iter_batches(batch_format="pyarrow")]
    )
    assert et.num_rows > 60  # several links per page
    assert set(et.column_names) == {"src_url", "dst_url", "n_anchors"}


def test_renumber_urls_dense_and_sorted():
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src_url": ["b", "a", "c", "a"],
                "dst_url": ["a", "c", "b", "b"],
                "n_anchors": [1, 2, 1, 1],
            }
        )
    )
    e, v, n = renumber_urls(edges)
    assert n == 3
    vt = pa.concat_tables([pa.table(b) for b in v.iter_batches(batch_format="pyarrow")])
    assert vt.column("url").to_pylist() == ["a", "b", "c"]
    et = pa.concat_tables([pa.table(b) for b in e.iter_batches(batch_format="pyarrow")])
    assert set(et.column_names) == {"src", "dst", "weight"}
    assert et.column("src").to_pylist() == [1, 0, 2, 0]


def test_web_edge_table_end_to_end():
    docs = ray.data.from_arrow(pa.table({"doc_id": np.arange(80, dtype=np.int64)}))
    pages = synthesize_pages(docs, n_pages=80, n_domains=8, n_hub_pages=2)
    edges, vertices, n = web_edge_table(pages, concurrency=2, batch_size=32)
    assert n <= 80
    et = pa.concat_tables(
        [pa.table(b) for b in edges.iter_batches(batch_format="pyarrow")]
    )
    assert et.num_rows > 100
    s = et.column("src").to_numpy(zero_copy_only=False)
    d = et.column("dst").to_numpy(zero_copy_only=False)
    assert s.min() >= 0 and d.min() >= 0 and max(s.max(), d.max()) < n


def _graph_arrays(g):
    out = []
    for b in g.shards.iter_batches(batch_format="pyarrow", batch_size=None):
        for s in unpack_shards(pa.table(b)):
            out.append((s.pid, s.vids, s.indptr, s.cols, s.weights))
    return out


def test_links_to_edges_block_count_invariance():
    """Coalescing the extract blocks changes no edge, vid or shard array;
    a materialized input with more blocks than CPUs comes out with at most
    one block per CPU, and a lazy input still streams."""
    ids = ray.data.range(120, override_num_blocks=15)
    pages = synthesize_pages(
        ids, n_pages=120, n_domains=6, n_hub_pages=2, id_column="id"
    ).materialize()
    cpus = int(ray.cluster_resources()["CPU"])
    cfg = EngineConfig(num_partitions=4)
    graphs = []
    for batch_size in (8, 64):
        extracted = extract_pages(pages, concurrency=2, batch_size=batch_size).materialize()
        edges_str = links_to_edges(extracted).materialize()
        if batch_size == 8:
            assert extracted.num_blocks() > cpus
            assert edges_str.num_blocks() <= cpus
        else:
            assert edges_str.num_blocks() == extracted.num_blocks() <= cpus
        edges, _, n = renumber_urls(edges_str)
        graphs.append(build_graph(edges, cfg, n_vertices=n))
    a, b = graphs
    assert (a.n, a.m, a.n_entries, a.total_weight) == (b.n, b.m, b.n_entries, b.total_weight)
    np.testing.assert_array_equal(a.degrees(), b.degrees())
    sa, sb = _graph_arrays(a), _graph_arrays(b)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x[0] == y[0]
        for u, v in zip(x[1:], y[1:]):
            np.testing.assert_array_equal(u, v)

    lazy = links_to_edges(extract_pages(pages, concurrency=2, batch_size=8))
    rows = lambda ds: sorted(
        zip(*pa.concat_tables(
            [pa.table(t) for t in ds.iter_batches(batch_format="pyarrow")]
        ).to_pydict().values())
    )
    assert rows(lazy) == rows(edges_str)
