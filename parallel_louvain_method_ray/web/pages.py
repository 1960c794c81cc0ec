"""Deterministic Common-Crawl-style pages table (BASELINE.json input_hint).

Schema: (url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string). Synthesized as a PURE FUNCTION of the document id (splitmix64
hashing — no RNG state), so any scale point regenerates bit-identically and
resume/parity never depend on generation order.

The planted link graph (FIXTURES.md §1):
- domains cluster pages: domain(i) = i % n_domains; intra-domain links vastly
  outnumber inter-domain ones -> Louvain has a known-good structure;
- the first `n_hub_pages` pages are hubs linked from a large fraction of all
  pages -> the high-degree skew the engine must survive;
- intra-domain links use RELATIVE hrefs, hub/inter links absolute ones, so
  the extractor's URL resolution is exercised on both.

The `text` column is constructed from the same pieces the extractor's spec
produces — the per-row invariant "extracted text is byte-identical per url"
is checked in tests and in the flagship pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp


def _mix(x: int) -> int:
    """splitmix64 finalizer — the deterministic 'randomness'."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _pages_per_domain(n_pages: int, n_domains: int) -> int:
    return max(1, -(-n_pages // n_domains))


def page_url(i: int, n_pages: int, n_domains: int) -> str:
    """Domains are BLOCKS of consecutive ids (crawls cluster by host), so
    lexicographic url sorting -> dense renumbering preserves hostname
    locality (what range partitioning exploits, see graph.build.build_graph)."""
    d = min(i // _pages_per_domain(n_pages, n_domains), n_domains - 1)
    return f"https://d{d:04d}.example.com/p/{i:012d}"


def page_links(
    i: int,
    n_pages: int,
    n_domains: int,
    intra_links: int,
    n_hub_pages: int,
    hub_prob_pct: int,
    inter_links: int,
) -> list[tuple[str, int]]:
    """Deterministic outlinks of page i as (href, target_id). Relative hrefs
    for intra-domain targets, absolute for the rest."""
    links: list[tuple[str, int]] = []
    ppd = _pages_per_domain(n_pages, n_domains)
    dom_start = (i // ppd) * ppd
    dom_size = min(ppd, n_pages - dom_start)
    for k in range(intra_links):
        if dom_size < 2:
            break
        j = dom_start + _mix(i * 1_000_003 + k) % dom_size
        if j != i:
            links.append((f"/p/{j:012d}", j))
    if n_hub_pages and i >= n_hub_pages:
        if _mix(i * 7_777_777 + 13) % 100 < hub_prob_pct:
            j = _mix(i * 31 + 7) % n_hub_pages
            links.append((page_url(j, n_pages, n_domains), j))
    for k in range(inter_links):
        j = _mix(i * 15_485_863 + 101 + k) % n_pages
        if j != i:
            links.append((page_url(j, n_pages, n_domains), j))
    return links


_LANGS = ["en", "en", "en", "en", "en", "en", "en", "en", "de", "fr"]


def render_page(
    i: int,
    n_pages: int,
    n_domains: int,
    intra_links: int,
    n_hub_pages: int,
    hub_prob_pct: int,
    inter_links: int,
) -> tuple[str, int, bytes, str, str]:
    """Returns (url, warc_ts_us, html, text, lang) for page i."""
    url = page_url(i, n_pages, n_domains)
    links = page_links(
        i, n_pages, n_domains, intra_links, n_hub_pages, hub_prob_pct, inter_links
    )
    title = f"Doc {i} — notes & findings"
    h1 = f"Doc {i}"
    paras_html, paras_text = [], []
    for k, (href, j) in enumerate(links):
        lead = f"Paragraph {k} of document {i} discusses topic {_mix(i + k) % 97}."
        anchor = f"reference {j}"
        tail = "See &lt;related&gt; material &amp; datasets."
        paras_html.append(
            f'<p>{lead} <a href="{href}">{anchor}</a> {tail}</p>'
        )
        paras_text.append(
            f"{lead} {anchor} See <related> material & datasets."
        )
    closing = f"Closing remarks for document {i}."
    paras_html.append(f"<p>{closing}</p>")
    paras_text.append(closing)

    html = (
        "<html><head>"
        f"<title>{title.replace('&', '&amp;')}</title>"
        '<meta charset="utf-8"><style>body {font: 12px serif;}</style>'
        "</head><body>"
        f"<h1>{h1}</h1>"
        + "".join(paras_html)
        + '<script type="text/javascript">var tracked = 1 < 2;</script>'
        "</body></html>"
    )
    text = "\n".join([title, h1] + paras_text)
    lang = _LANGS[_mix(i * 17 + 3) % len(_LANGS)]
    ts = _EPOCH_US + i * 1_000_000
    return url, ts, html.encode("utf-8"), text, lang


def synthesize_pages(
    doc_ids: ray.data.Dataset,
    n_pages: int,
    n_domains: int = 50,
    intra_links: int = 6,
    n_hub_pages: int = 3,
    hub_prob_pct: int = 30,
    inter_links: int = 1,
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """Map a Dataset carrying document ids to the deterministic pages table.

    `doc_ids` is typically the testdata `documents` table (its `doc_id`
    column provides the id universe, making the pages table derivable from
    the sf dir with no external data).
    """

    def render_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        urls, tss, htmls, texts, langs = [], [], [], [], []
        for i in ids.tolist():
            url, ts, html, text, lang = render_page(
                int(i),
                n_pages,
                n_domains,
                intra_links,
                n_hub_pages,
                hub_prob_pct,
                inter_links,
            )
            urls.append(url)
            tss.append(ts)
            htmls.append(html)
            texts.append(text)
            langs.append(lang)
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array(tss, pa.timestamp("us")),
                pa.array(htmls, pa.binary()),
                pa.array(texts, pa.string()),
                pa.array(langs, pa.string()),
            ],
            schema=PAGES_SCHEMA,
        )

    return doc_ids.map_batches(render_batch, batch_format="pyarrow")
