"""Bounded-hop strongly-connected labels on a DIRECTED graph.

Exact SCC needs unbounded transitive closure (iterative forward-backward
label propagation); web-pipeline practice bounds the radius — two pages
are "mutually linked within R" if each reaches the other in <= R directed
hops. This module computes, for R=2, the label

    scc_label(u) = min{ v : u ->(<=R) v  and  v ->(<=R) u }

(<= u always, since u reaches itself). The relation is NOT transitive, so
these are mutual-reachability labels, not equivalence classes — the
bounded analogue used for near-SCC bucketing. Semantics are frozen to be
SQL-expressible (unrolled self-joins), so the oracle is exact.

Distribution shape:
  - 1-hop: the deduped directed edge table as-is.
  - 2-hop: ONE distributed hash join e >< e on the middle vertex.
  - distinct pairs: packed key p = u*n + v through the sort-based
    `ops/fastgroup.count_by_key_sorted` (no per-key Python combine).
    Packing requires n^2 < 2^63 (n < ~3.0e9 vertices); above that swap
    the pack for a two-column sort — documented, asserted.
  - mutual: reach >< reach-reversed composite-key hash join.
  - labels: groupby(u).min(v) — O(d^2)-bounded rows per vertex. At a
    hub-heavy 100 TB scale the 2-hop expansion needs the same
    `max_middle_degree` cap as `algos/linkpred.py` (same wedge shape);
    callers pass `max_out_degree` to drop hub middles before the join.

Reference parity: /root/reference has no directed-graph surface (its
Louvain is undirected, `src/graph.cpp`); this extends SURVEY §2.6's web
link-graph family (HITS/PageRank are the directed siblings).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.algos.joined import _tight
from parallel_louvain_method_ray.ops.fastgroup import count_by_key_sorted


def reach2_pairs(
    edges: ray.data.Dataset,
    n: int,
    num_partitions: int = 8,
    max_out_degree: int | None = None,
) -> ray.data.Dataset:
    """Distinct (u, v) with u ->(<=2) v over [0, n) — identity, 1-hop and
    one middle-vertex join for 2-hop, deduped through the packed-key
    sort. `edges` holds directed (src, dst); self-loops ignored.
    `max_out_degree` drops hub MIDDLE vertices from the 2-hop expansion
    (under-approximates reach, exactly like linkpred's wedge cap);
    None = exact. Shared by `scc2_labels` and `ball2_sizes`."""
    if n >= 3_037_000_499:
        raise ValueError(f"u*n+v packing needs n^2 < 2^63, got n={n}")

    def clean(b: pa.Table) -> pa.Table:
        s = b.column("src").to_numpy(zero_copy_only=False)
        d = b.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        return pa.table(
            {
                "u": pa.array(s[keep].astype(np.int64)),
                "v": pa.array(d[keep].astype(np.int64)),
            }
        )

    # e feeds three consumers (both join sides + the 1-hop pair stream):
    # materialize once or each consumer re-executes the upstream extract
    e = edges.map_batches(clean, batch_format="pyarrow").materialize()
    if max_out_degree is not None:
        # middles are join keys on BOTH sides; cap by out-degree of the
        # middle (a.v == b.u): drop edges whose SOURCE is a hub from the
        # right side only — the left side keeps them so 1-hop reach stays
        # exact, matching the SQL oracle's capped variant.
        from ray.data.aggregate import Count

        deg = e.groupby("u").aggregate(Count())
        hot = {
            r["u"]
            for r in deg.filter(
                lambda r, m=max_out_degree: r["count()"] > m
            ).take_all()
        }

        def drop_hot(b: pa.Table) -> pa.Table:
            u = b.column("u").to_numpy(zero_copy_only=False)
            mask = ~np.isin(u, np.fromiter(hot, np.int64, len(hot)))
            return b.filter(pa.array(mask))

        right = e.map_batches(drop_hot, batch_format="pyarrow")
    else:
        right = e

    # _tight both operands: Ray 2.49's hash join raises on empty operand
    # blocks (see algos/joined.py:_tight); e/right are already compact
    two = _tight(e, num_partitions).join(
        _tight(right.rename_columns({"u": "w", "v": "v2"}), num_partitions),
        join_type="inner",
        num_partitions=num_partitions,
        on=("v",),
        right_on=("w",),
    )

    def two_pairs(b: pa.Table) -> pa.Table:
        u = b.column("u").to_numpy(zero_copy_only=False)
        v2 = b.column("v2").to_numpy(zero_copy_only=False)
        keep = u != v2
        return pa.table({"p": pa.array(u[keep] * n + v2[keep])})

    def one_pairs(b: pa.Table) -> pa.Table:
        u = b.column("u").to_numpy(zero_copy_only=False)
        v = b.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"p": pa.array(u * n + v)})

    ident = ray.data.range(n).map_batches(
        lambda b: pa.table(
            {"p": pa.array(b.column("id").to_numpy(zero_copy_only=False) * n
                           + b.column("id").to_numpy(zero_copy_only=False))}
        ),
        batch_format="pyarrow",
    )
    packed = (
        e.map_batches(one_pairs, batch_format="pyarrow")
        .union(two.map_batches(two_pairs, batch_format="pyarrow"))
        .union(ident)
    )
    reach_keys = count_by_key_sorted(packed, "p")

    def unpack(b: pa.Table) -> pa.Table:
        p = b.column("p").to_numpy(zero_copy_only=False)
        return pa.table({"u": pa.array(p // n), "v": pa.array(p % n)})

    # reach typically feeds two join sides downstream: checkpoint the
    # compact (u,v) table instead of re-running sort+joins per consumer
    return reach_keys.map_batches(unpack, batch_format="pyarrow").materialize()


def scc2_labels(
    edges: ray.data.Dataset,
    n: int,
    num_partitions: int = 8,
    max_out_degree: int | None = None,
) -> ray.data.Dataset:
    """(vid, scc2_label) for every vid in [0, n): min mutual-reach-<=2
    partner (see module docstring)."""
    reach = reach2_pairs(edges, n, num_partitions, max_out_degree)
    rev = reach.map_batches(
        lambda b: pa.table({"u2": b.column("v"), "v2": b.column("u")}),
        batch_format="pyarrow",
    )
    mutual = _tight(reach, num_partitions).join(
        _tight(rev, num_partitions),
        join_type="inner",
        num_partitions=num_partitions,
        on=("u", "v"),
        right_on=("u2", "v2"),
    )
    out = mutual.groupby("u").min("v")
    return out.rename_columns({"u": "vid", "min(v)": "scc2_label"})


def ball2_sizes(
    edges: ray.data.Dataset,
    n: int,
    num_partitions: int = 8,
    max_out_degree: int | None = None,
) -> ray.data.Dataset:
    """(vid, ball2) — EXACT |{v : u ->(<=2) v}| per vertex, the
    ground-truth twin of the HyperANF <=R-hop register sketch
    (algos/anf.py). One vectorized count over the distinct reach pairs;
    reach rows arrive u-contiguous from the packed sort, so the count
    reuses the sorted-run machinery instead of a keyed groupby."""
    from parallel_louvain_method_ray.ops.fastgroup import count_by_key_sorted

    reach = reach2_pairs(edges, n, num_partitions, max_out_degree)
    sizes = count_by_key_sorted(
        reach.map_batches(
            lambda b: pa.table({"u": b.column("u")}), batch_format="pyarrow"
        ),
        "u",
    )
    return sizes.rename_columns({"u": "vid", "n": "ball2"})
