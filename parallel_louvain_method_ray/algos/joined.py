"""Dataset plumbing of the sharded (beyond-broadcast) tier, plus its
multi-level Louvain driver — SURVEY §4.3.

The broadcast engine (louvain.py / pagerank.py / components.py / lpa.py)
ships one dense O(V) state array per sweep and keeps another on the
driver. At web scale (10^12 pages) V alone is terabytes, so above
`EngineConfig.max_broadcast_vertices` every per-round exchange runs on
the one sharded pool, state/spmv_pool.py: vertex state lives sharded by
vid % P on P actors and a round is a few RPC stages of pre-combined
partial tables. Callers use its `*_partitioned` functions directly on
`JoinedGraph.edges`.

This module keeps what runs once per graph or per LEVEL, where one hash
join is the right tool: the dataset-resident graph (`JoinedGraph`),
`modularity_joined`, `coarsen_joined`, the membership composition of
`louvain_joined`, and the `_join`/`_tight` helpers other operators
share. The driver holds only scalars (move counts, modularity) and
O(num_blocks) offsets.

Louvain semantics here are the PURE-JACOBI sweep: every decision is made
against the sweep-start snapshot (assignments + community totals), with
the same gain formula, keep-on-tie / min-comm-id tie-break and
singleton-swap guard as `chunked_local_move_sweep` run as a single chunk.
`louvain_jacobi_numpy` below is that exact kernel loop in numpy;
`louvain_joined` is tested BIT-FOR-BIT against it at several pool sizes
(integer-weight graphs: all float sums are exact, so the partial-sum
order cannot perturb gains; on arbitrary float weights parity holds to
the last ulp of the sum order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from parallel_louvain_method_ray.algos._local_move import chunked_local_move_sweep
from parallel_louvain_method_ray.graph.build import entries_dataset, join_partitions
from parallel_louvain_method_ray.state.spmv_pool import louvain_level_partitioned


# ---------------------------------------------------------------------------
# dataset plumbing helpers
# ---------------------------------------------------------------------------


def _blockwise(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    """map_batches for per-block ops that PRESERVE row counts (rename,
    select, add/scale columns — not filters): the `_plm_tight` no-empty-
    blocks marker rides along, so a tight loop-state dataset stays tight
    through the per-round column plumbing and `_join` skips its
    materialize+compact pass on it."""
    out = ds.map_batches(fn, batch_format="pyarrow")
    if getattr(ds, "_plm_tight", False):
        out._plm_tight = True
    return out


def _rename(ds: ray.data.Dataset, names: list[str]) -> ray.data.Dataset:
    return _blockwise(ds, lambda b, _n=tuple(names): b.rename_columns(list(_n)))


def _select(ds: ray.data.Dataset, cols: list[str]) -> ray.data.Dataset:
    return _blockwise(ds, lambda b, _c=tuple(cols): b.select(list(_c)))


def _filter(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b, _f=fn: b.filter(_f(b)), batch_format="pyarrow"
    )


def _scalar_sum(ds: ray.data.Dataset, col: str) -> float:
    out = ds.aggregate(Sum(col))
    return float(out[f"sum({col})"] or 0.0)


def _seeded(ds: ray.data.Dataset, **sentinel_row) -> ray.data.Dataset:
    """Union with a single SENTINEL row (key = -1, impossible for real
    vids/comms): Ray's hash join errors when one side contributes zero
    rows (the empty side materializes schema-less); one unmatched row
    keeps the join well-formed and falls out of inner/left joins.
    (Used by algos/linkpred.py's wedge joins.)"""
    seed = ray.data.from_arrow(
        pa.table({k: pa.array([v], None) for k, v in sentinel_row.items()})
    )
    return ds.union(seed)


def _tight(ds: ray.data.Dataset, P: int) -> ray.data.Dataset:
    """Materialize + repartition to min(P, rows) NONEMPTY blocks.

    Ray 2.49's hash-join aggregator mishandles operands whose block list
    contains several empty blocks (the empty partition builds a
    schema-less table and pyarrow's Table.join raises ArrowInvalid).
    Filter- and aggregate-derived datasets routinely carry empty blocks,
    so every join operand in this module is compacted first. Blocks after
    an even repartition(nb<=rows) are all nonempty. Results are memoized
    (marker attribute) so a dataset joined several times per sweep is
    compacted once."""
    if getattr(ds, "_plm_tight", False):
        return ds
    ds = ds.materialize()
    # block-level row counts from the materialized bundles' METADATA (no
    # block fetch): when every block is already nonempty the repartition
    # pass (a second full materialization) is skipped entirely
    sizes: list[int] | None = []
    try:
        for rb in ds.iter_internal_ref_bundles():
            for _, meta in rb.blocks:
                if meta.num_rows is None:
                    raise ValueError("no row metadata")
                sizes.append(meta.num_rows)
    except Exception:
        sizes = None
    if sizes is not None:
        rows = sum(sizes)
        if sizes and all(s > 0 for s in sizes):
            ds._plm_tight = True
            return ds
    else:
        rows = ds.count()
    nb = max(1, min(P, rows))
    out = ds.repartition(nb).materialize()
    out._plm_tight = True
    return out


def _join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: tuple,
    right_on: tuple | None = None,
    how: str = "inner",
    P: int | None = None,
) -> ray.data.Dataset:
    """Hash join with BOTH operands compacted via _tight (operands whose
    block lists contain empty blocks crash Ray 2.49's join finalize)."""
    P = join_partitions(P)
    return _tight(left, P).join(
        _tight(right, P),
        join_type=how,
        num_partitions=P,
        on=on,
        right_on=right_on,
    )


def _collect(ds: ray.data.Dataset) -> pa.Table:
    parts = [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(parts) if parts else pa.table({})


# ---------------------------------------------------------------------------
# the dataset-resident graph
# ---------------------------------------------------------------------------


@dataclass
class JoinedGraph:
    """Graph state as Datasets only — no dense driver arrays.

    edges: symmetrized, triple-deduped entries (src, dst, weight),
    materialized once. degrees: (vid, deg) for EVERY vid 0..n-1 (zero for
    isolated). m = n_entries // 2 (reference sparsify semantics,
    `/root/reference/src/graph.cpp:62`). P: the SIZE-AWARE join fan-out
    every per-round pipeline over this graph defaults to — tiny graphs
    (coarse Louvain levels, test fixtures) get 1-2 join partitions instead
    of cpus//2, because each hash-join execution spins up P aggregator
    actors and at small working sets that spin-up IS the round cost."""

    edges: ray.data.Dataset
    degrees: ray.data.Dataset
    n: int
    m: int
    n_entries: int
    total_weight: float
    P: int = 0  # size-aware default join fan-out (0 = unset, use cap)


# target CSR entries per join partition: below this, extra join aggregator
# actors cost more in spin-up than they save in parallelism
_ROWS_PER_JOIN_PARTITION = 262_144


def _size_aware_P(rows: int, partitions: int | None = None) -> int:
    cap = join_partitions(partitions)
    if partitions is not None:
        return cap
    return max(1, min(cap, (rows // _ROWS_PER_JOIN_PARTITION) + 1))


def _jg_P(jg: JoinedGraph, partitions: int | None) -> int:
    """Per-call fan-out: explicit override > the graph's size-aware P."""
    if partitions is not None:
        return partitions
    return jg.P or join_partitions(None)


def joined_graph_from_entries(
    entries: ray.data.Dataset, n: int, partitions: int | None = None
) -> JoinedGraph:
    """`entries` must already be symmetrized + deduped with dense vids
    0..n-1 (what `build_graph` feeds its CSR pack).

    Metadata (n_entries, total_weight) and the dense degree table all
    come out of ONE per-block partial-aggregate + ONE groupby + ONE scalar
    aggregate — the naive shape (count, degree groupby, weight sum, count
    groupby as separate executions) spent ~25 s of pure executor/actor
    spin-up on a 100-vertex graph."""
    mat = entries.materialize()
    rows = mat.count()  # metadata-only on a materialized dataset
    P = _size_aware_P(rows, partitions)
    edges = _tight(mat, max(P, 2))

    def partials(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False)
        w = batch.column("weight").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(src, return_inverse=True)
        return pa.table(
            {
                "vid": uniq.astype(np.int64),
                "cnt": np.bincount(inv).astype(np.int64),
                "wsum": np.bincount(inv, weights=w.astype(np.float64)),
            }
        )

    zeros = ray.data.range(n, override_num_blocks=P).map_batches(
        lambda b: pa.table(
            {
                "vid": b.column("id"),
                "cnt": np.zeros(b.num_rows, dtype=np.int64),
                "wsum": np.zeros(b.num_rows, dtype=np.float64),
            }
        ),
        batch_format="pyarrow",
    )
    persrc = _tight(
        _rename(
            edges.map_batches(partials, batch_format="pyarrow")
            .union(zeros)
            .groupby("vid")
            .aggregate(Sum("cnt"), Sum("wsum")),
            ["vid", "cnt", "deg"],
        ),
        P,
    )
    scal = persrc.aggregate(Sum("cnt"), Sum("deg"))
    n_entries = int(scal.get("sum(cnt)") or 0)
    total_weight = float(scal.get("sum(deg)") or 0.0)
    deg_all = _tight(persrc.select_columns(["vid", "deg"]), P)
    return JoinedGraph(
        edges=edges,
        degrees=deg_all,
        n=n,
        m=n_entries // 2,
        n_entries=n_entries,
        total_weight=total_weight,
        P=P,
    )


def joined_graph_from_handle(graph) -> JoinedGraph:
    """The JoinedGraph of an already built GraphHandle (for tests and
    queries that built the dense graph)."""
    return joined_graph_from_entries(entries_dataset(graph), graph.n)


def singleton_assignment(jg: JoinedGraph) -> ray.data.Dataset:
    """(vid, comm=vid) — reference init (`src/community.cpp:16-30`)."""
    P = _jg_P(jg, None)
    return _tight(
        _rename(
            ray.data.range(jg.n, override_num_blocks=P).map_batches(
                lambda b: pa.table({"vid": b.column("id"), "comm": b.column("id")}),
                batch_format="pyarrow",
            ),
            ["vid", "comm"],
        ),
        P,
    )


# ---------------------------------------------------------------------------
# Louvain: sweeps on the sharded pool, per-level steps as joins
# ---------------------------------------------------------------------------


def modularity_joined(
    jg: JoinedGraph,
    assign: ray.data.Dataset,
    m2: float,
    partitions: int | None = None,
) -> float:
    """Q = intra/m2 - Σ (tot_c/m2)^2 over comms with tot > 0
    (`src/community.cpp:49-60`), all as joins/aggregates."""
    if m2 <= 0:
        return 0.0
    P = _jg_P(jg, partitions)
    a_src = _rename(assign, ["vid", "c_src"])
    a_dst = _rename(assign, ["vid", "c_dst"])
    both = _join(
        _join(
            _filter(
                jg.edges,
                lambda b: pc.invert(pc.equal(b.column("src"), b.column("dst"))),
            ),
            a_src, on=("src",), right_on=("vid",), P=P,
        ),
        a_dst, on=("dst",), right_on=("vid",), P=P,
    )
    intra_ds = _filter(
        both, lambda b: pc.equal(b.column("c_src"), b.column("c_dst"))
    )
    intra = _scalar_sum(intra_ds, "weight")
    ad = _join(assign, jg.degrees, on=("vid",), P=P)
    tot = _rename(ad.groupby("comm").sum("deg"), ["comm", "tot"])

    # Σ tot² summed RAW and divided by m2² once: for integer-weight graphs
    # every tot² is an exact float (< 2^53) so the distributed sum is
    # order-independent — block order (partition count) cannot perturb Q,
    # keeping the bit-parity contract with `louvain_jacobi_numpy`.
    def sq(batch: pa.Table) -> pa.Table:
        t = batch.column("tot").to_numpy(zero_copy_only=False)
        t = t[t > 0]
        return pa.table({"term": t * t})

    sq_sum = _scalar_sum(tot.map_batches(sq, batch_format="pyarrow"), "term")
    return intra / m2 - sq_sum / (m2 * m2)


def coarsen_joined(
    jg: JoinedGraph,
    assign: ray.data.Dataset,
    partitions: int | None = None,
) -> tuple[JoinedGraph, ray.data.Dataset]:
    """Contract communities (`src/community.cpp:162-201` mapping): new
    entries = groupby(comm_src, comm_dst).sum(weight); dense renumber by
    sorted old comm id via the scale-path ranking (no driver id set).
    Returns (coarse JoinedGraph, comm_map Dataset (comm, new_id))."""
    from parallel_louvain_method_ray.graph.build import assign_dense_ids

    P = _jg_P(jg, partitions)
    distinct = assign.groupby("comm").count().select_columns(["comm"]).materialize()
    ncomms = distinct.count()
    comm_map = assign_dense_ids(distinct, "comm").materialize()  # (comm, vid=new)
    comm_map = _rename(comm_map, ["comm", "new_id"])

    a_new = _join(assign, comm_map, on=("comm",), P=P).select_columns(
        ["vid", "new_id"]
    )
    a_new = _tight(a_new, P)
    a_src = _rename(a_new, ["vid", "c_src"])
    a_dst = _rename(a_new, ["vid", "c_dst"])
    ce = (
        _join(
            _join(jg.edges, a_src, on=("src",), right_on=("vid",), P=P),
            a_dst, on=("dst",), right_on=("vid",), P=P,
        )
        .groupby(["c_src", "c_dst"])
        .sum("weight")
    )
    ce = _rename(ce, ["src", "dst", "weight"])
    coarse = joined_graph_from_entries(ce, ncomms, partitions)
    return coarse, comm_map


def louvain_joined(
    jg: JoinedGraph,
    max_sweeps: int = 64,
    max_levels: int = 32,
    m_mode: str = "count",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, float, list[dict]]:
    """Multi-level pure-Jacobi Louvain, all state in Datasets. Returns
    (membership Dataset (vid, comm) over ORIGINAL vids with canonical-ish
    dense labels, final Q on the original graph, per-level info).

    `louvain_jacobi_numpy` is the bit-parity reference for this loop.
    Each level's sweeps run on one sharded pool
    (`state.spmv_pool.louvain_level_partitioned`); only the converged
    level assignment comes back as a Dataset for the coarsen join."""
    jg0 = jg
    membership = singleton_assignment(jg)  # (vid, comm) comm in current level space
    levels: list[dict] = []
    for level in range(max_levels):
        # per-level fan-out: coarse levels shrink, so does their join P
        P = _jg_P(jg, partitions)
        m2 = 2.0 * jg.m if m_mode == "count" else jg.total_weight
        assign, info = louvain_level_partitioned(
            jg.edges, jg.n, m2, max_sweeps=max_sweeps, partitions=P
        )
        improved = info["moves"] > 0
        if not improved and level > 0:
            break
        coarse, comm_map = coarsen_joined(jg, assign, P)
        # membership: orig vid -> level comm; compose with assign then map
        membership = _join(
            membership,
            _rename(assign, ["lvl_vid", "lvl_comm"]),
            on=("comm",),
            right_on=("lvl_vid",),
            P=P,
        ).select_columns(["vid", "lvl_comm"])
        membership = _join(
            membership,
            _rename(comm_map, ["lvl_comm", "new_id"]),
            on=("lvl_comm",),
            P=P,
        ).select_columns(["vid", "new_id"])
        membership = _tight(_rename(membership, ["vid", "comm"]), P)
        levels.append({"level": level, "n": jg.n, "m": jg.m, **info})
        if not improved:
            break
        jg = coarse
    m2_0 = 2.0 * jg0.m if m_mode == "count" else jg0.total_weight
    q = modularity_joined(jg0, membership, m2_0, P)
    return membership, q, levels


def louvain_jacobi_numpy(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    n: int,
    max_sweeps: int = 64,
    max_levels: int = 32,
    m_mode: str = "count",
) -> tuple[np.ndarray, float]:
    """Driver-side reference with IDENTICAL semantics to louvain_joined
    (pure-Jacobi sweeps from fresh per-sweep stats, sorted-comm coarsen).
    Input: symmetrized deduped entries. Returns (membership, Q)."""
    membership = np.arange(n, dtype=np.int64)
    src0, dst0, w0 = src, dst, w
    n0 = n
    for level in range(max_levels):
        m = src.shape[0] // 2
        m2 = 2.0 * m if m_mode == "count" else float(w.sum())
        order = np.lexsort((w, dst, src))
        src, dst, w = src[order], dst[order], w[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        deg = np.bincount(src, weights=w, minlength=n)
        assign = np.arange(n, dtype=np.int64)
        total_moves = 0
        for _ in range(max_sweeps):
            tot = np.bincount(assign, weights=deg, minlength=n)
            csize = np.bincount(assign, minlength=n)
            moves = chunked_local_move_sweep(
                np.arange(n, dtype=np.int64), indptr, dst, w,
                assign, tot, deg, m2, csize=csize, chunk=n,
            )
            total_moves += moves
            if moves == 0:
                break
        improved = total_moves > 0
        if not improved and level > 0:
            break
        old = np.unique(assign)
        dense = np.searchsorted(old, assign).astype(np.int64)
        ncomms = int(old.shape[0])
        key = dense[src] * np.int64(ncomms) + dense[dst]
        uk, inv = np.unique(key, return_inverse=True)
        wsum = np.zeros(uk.shape[0], dtype=np.float64)
        np.add.at(wsum, inv, w)
        membership = dense[membership]
        if not improved:
            break
        src = (uk // ncomms).astype(np.int64)
        dst = (uk % ncomms).astype(np.int64)
        w = wsum
        n = ncomms
    m2_0 = 2.0 * (src0.shape[0] // 2) if m_mode == "count" else float(w0.sum())
    if m2_0 <= 0:
        return membership, 0.0
    mask = (src0 != dst0) & (membership[src0] == membership[dst0])
    intra = float(w0[mask].sum())
    tot0 = np.bincount(membership, weights=np.bincount(src0, weights=w0, minlength=n0), minlength=n0)
    nz = tot0 > 0
    # raw Σ tot², one division — same order-independent form as
    # modularity_joined (bit-parity contract)
    q = intra / m2_0 - float((tot0[nz] * tot0[nz]).sum()) / (m2_0 * m2_0)
    return membership, q
