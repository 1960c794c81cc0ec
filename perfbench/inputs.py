"""Seeded input generators. They run before any timed window.

- `planted_edges`: the vectorized splitmix link graph of `bench.py`'s
  scaling unit (6 intra-domain + 3 cross-domain links per page, one domain
  per `n_pages // n_domains` consecutive ids). Seed 0 gives exactly that
  graph; another seed salts the hash, so the graph changes but keeps its
  shape.
- `documents` / `embeddings`: the tables `minhash_signatures` and
  `cosine_topk` read, in the shape of the testdata tables.
- The pages table is made by the package's own `web.pages.synthesize_pages`,
  which takes no seed: the `web_flagship` link graph is the same for every
  seed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _salt(seed: int) -> np.uint64:
    if seed == 0:
        return np.uint64(0)
    with np.errstate(over="ignore"):
        return _mix(np.array([seed], dtype=np.uint64) * _GOLDEN)[0]


def planted_edges(n_pages: int, seed: int, block_pages: int = 10_000) -> list[pa.Table]:
    """(src, dst, weight) edge blocks of the planted link graph, one block
    per `block_pages` source pages."""
    n_domains = max(50, n_pages // 400)
    dom_size = np.uint64(max(n_pages // n_domains, 2))
    salt = _salt(seed)
    blocks = []
    with np.errstate(over="ignore"):
        for lo in range(0, n_pages, block_pages):
            ids = np.arange(lo, min(lo + block_pages, n_pages), dtype=np.uint64)
            key = ids ^ salt

            def h(k: int) -> np.ndarray:
                return _mix(key + _GOLDEN * np.uint64(k + 1))

            dom_start = (ids // dom_size) * dom_size
            dsts = [
                np.minimum(dom_start + h(k) % dom_size, np.uint64(n_pages - 1))
                for k in range(6)
            ] + [h(100 + k) % np.uint64(n_pages) for k in range(3)]
            s = np.tile(ids, 9).astype(np.int64)
            d = np.concatenate(dsts).astype(np.int64)
            keep = s != d
            blocks.append(
                pa.table(
                    {
                        "src": s[keep],
                        "dst": d[keep],
                        "weight": np.ones(int(keep.sum()), dtype=np.float64),
                    }
                )
            )
    return blocks


_VOCAB = (
    "a agg batch big column data fast filter group hash join key line merge "
    "order part query row scan slow small sort spark stream table value window"
).split()


def documents(n_docs: int, seed: int) -> pa.Table:
    """(doc_id, text): 20-80 words per document from a small vocabulary,
    with one in ten documents a near copy of an earlier one, so MinHash
    has duplicates to find."""
    rng = np.random.default_rng([seed, 1])
    lengths = rng.integers(20, 81, size=n_docs)
    words = rng.integers(0, len(_VOCAB), size=int(lengths.sum()))
    texts, pos = [], 0
    for i, n in enumerate(lengths.tolist()):
        if i >= 10 and i % 10 == 0:
            texts.append(texts[i // 2] + " " + _VOCAB[int(words[pos])])
        else:
            texts.append(" ".join(_VOCAB[w] for w in words[pos : pos + n]))
        pos += n
    return pa.table(
        {"doc_id": np.arange(n_docs, dtype=np.int64), "text": pa.array(texts, pa.string())}
    )


def embeddings(n_vecs: int, seed: int, dim: int = 64) -> pa.Table:
    """(vec_id, embedding:list<float>) drawn around 16 seeded centres."""
    rng = np.random.default_rng([seed, 2])
    centres = rng.standard_normal((16, dim))
    vecs = centres[rng.integers(0, 16, size=n_vecs)] + 0.3 * rng.standard_normal(
        (n_vecs, dim)
    )
    flat = pa.array(vecs.astype(np.float32).ravel(), pa.float32())
    offsets = pa.array(np.arange(0, n_vecs * dim + 1, dim, dtype=np.int32))
    return pa.table(
        {
            "vec_id": np.arange(n_vecs, dtype=np.int64),
            "embedding": pa.ListArray.from_arrays(offsets, flat),
        }
    )
