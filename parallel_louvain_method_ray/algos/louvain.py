"""Distributed multi-level Louvain over CSR shards.

Replaces the reference's `DistCommunities` fine-grained MPI messaging
(`/root/reference/src/distcommunity.cpp`: per-vertex MPI_Barrier + probe
drains, `:326-353` — its scalability killer) with BSP sweeps:

- one Louvain SWEEP = one `ShardPool.sweep` round: every pool worker runs
  the shared local-move kernel over its CSR shards against a snapshot of
  the global state (assignments broadcast via ray.put, or after the first
  sweep only the previous sweep's moves; community totals are derived
  worker-side);
- between sweeps the driver applies the (small) set of changed vertices —
  the reference's `CommunityUpdate`/`CommunityInfo`/`DegreeInfo` message
  machinery (`distcommunity.cpp:387-503`) dissolves into this;
- convergence: a sweep with 0 moves ends the level (`community.cpp:98`);
  a modularity stall detector guards against cross-partition oscillation
  (the reference damps this with a temperature, `distcommunity.cpp:549-562`;
  our kernel is deterministic so a stall cap suffices);
- with num_partitions=1 and tie_break="reference" the engine IS the
  sequential reference algorithm (same kernel), which is how golden parity
  is tested.

Levels small enough for the driver (`driver_local_entries`,
`driver_local_vertices`) skip the pool and run the same kernel in strict
Gauss-Seidel order on the driver.

Coarsening (`community.cpp:162-201`, `distcommunity.cpp:766-915`) is one
pool wave: per-worker partial contraction (numpy groupby) -> driver merge
-> rebuild shards. Community renumbering is deterministic (sorted old id)
instead of the reference's unordered-hash iteration order.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray.algos._local_move import (
    KERNEL_CHUNK,
    chunked_local_move_sweep,
    local_move_sweep,
)
from parallel_louvain_method_ray.config import DEFAULT_CONFIG, EngineConfig
from parallel_louvain_method_ray.graph.build import (
    GraphHandle,
    build_graph,
    build_graph_small,
)
from parallel_louvain_method_ray.graph.csr import shard_to_entries, unpack_shards
from parallel_louvain_method_ray.state.shard_pool import pool_for

# Stop a distributed level early once modularity has not beaten its best
# by more than STALL_EPS for STALL_SWEEPS consecutive non-shrinking sweeps
# (guards against cross-partition oscillation that the reference damps
# with a temperature — `src/distcommunity.cpp:549-562`; the BSP kernel is
# deterministic, so a stall detector is enough).
STALL_EPS = 1e-12
STALL_SWEEPS = 3

# Max entries for the DRIVER-side strict-GS polish; larger graphs polish
# through the shard pool (chunked kernel).
POLISH_DRIVER_ENTRIES = 5_000_000


def _m2(graph: GraphHandle, m_mode: str) -> float:
    """2m for the modularity/gain formulas.

    - "count" (default): 2 * edge COUNT — the reference's quirk
      (`community.cpp:51` uses `g.ecount`, an entry count, not the weight
      sum; required for golden parity);
    - "weight": the standard Louvain 2m = total entry weight (use for
      weighted graphs where the count quirk distorts the scale).
    For unit-weight level-0 graphs the two are identical.
    """
    return 2.0 * graph.m if m_mode == "count" else graph.total_weight


def modularity(
    graph: GraphHandle, assign: np.ndarray, m_mode: str = "count", pool=None
) -> float:
    """Q = intra/2m - sum_{tot_c>0} (tot_c/2m)^2  (`community.cpp:49-60`).
    Q := 0 for a graph with m = 0 (fully contracted / self-loops only).
    `intra` (entry weight with src != dst inside one community — the
    reference's self-loop-free `in`, `community.cpp:134`) is one pool wave
    on `pool`, or on an owned pool when None."""
    m2 = _m2(graph, m_mode)
    if m2 <= 0:
        return 0.0
    deg = graph.degrees()
    tot = np.bincount(assign, weights=deg, minlength=graph.n)
    with pool_for(graph, pool) as pool:
        intra = pool.intra_weight(assign)
    nz = tot > 0
    return intra / m2 - float(((tot[nz] / m2) ** 2).sum())


def coarsen(
    graph: GraphHandle, assign: np.ndarray, pool=None
) -> tuple[GraphHandle, np.ndarray]:
    """Contract communities: entries grouped by (comm[src], comm[dst]) with
    weights summed — including self-loops (`community.cpp:181-191`).
    Deterministic dense renumbering by sorted old community id. One wave
    on `pool`, or on an owned pool when None.
    Returns (coarse graph, old vid -> new community id)."""
    old = np.unique(assign)
    dense = np.searchsorted(old, assign).astype(np.int64)
    ncomms = int(old.shape[0])
    # worker-side partial contraction + driver merge: the merged entry list
    # is bounded by the fine graph's entry count and already combined per
    # worker
    with pool_for(graph, pool) as pool:
        csrc, cdst, cw = pool.contract(dense, ncomms)
    coarse = build_graph_small(csrc, cdst, cw, graph.config, n_vertices=ncomms)
    return coarse, dense


# ---------------------------------------------------------------------------
# level + multi-level drivers
# ---------------------------------------------------------------------------


@dataclass
class LevelMetrics:
    level: int
    n_vertices: int
    m: int
    sweeps: int = 0
    moves: int = 0
    modularity_before: float = 0.0
    modularity_after: float = 0.0
    n_communities: int = 0


@dataclass
class LouvainResult:
    assignments: np.ndarray  # original vid -> final community (canonical)
    modularity: float
    levels: list[LevelMetrics] = field(default_factory=list)


def louvain_level(
    graph: GraphHandle,
    config: EngineConfig | None = None,
    tie_break: str = "canonical",
    on_sweep=None,
    start_assign: np.ndarray | None = None,
    start_sweep: int = 0,
    m_mode: str = "count",
    prior_moves: int = 0,
    pool=None,
) -> tuple[np.ndarray, bool, LevelMetrics]:
    """One Louvain level (the reference's `iterate()`,
    `community.cpp:64-102`): BSP sweeps on `pool` (an owned pool when
    None) until 0 moves. Returns (assignments, improved, metrics).
    `on_sweep(sweep_idx, assign, moves)` is the checkpoint hook.
    `start_sweep`/`prior_moves` seed the metric totals on resume so a
    resumed level reports its full history."""
    cfg = config or graph.config or DEFAULT_CONFIG
    with pool_for(graph, pool) as pool:
        n = graph.n
        m2 = _m2(graph, m_mode)
        assign = (
            start_assign.copy()
            if start_assign is not None
            else np.arange(n, dtype=np.int64)
        )
        metrics = LevelMetrics(
            level=-1, n_vertices=n, m=graph.m, sweeps=start_sweep,
            moves=prior_moves,
        )
        metrics.modularity_before = modularity(graph, assign, m_mode, pool)
        improved = prior_moves > 0
        best_q = metrics.modularity_before
        best_assign = assign.copy()
        stall = 0
        prev_moves = np.iinfo(np.int64).max
        pending_delta = None  # last sweep's moves -> next round's broadcast
        sweeps_since_full = 0
        for sweep in range(start_sweep, cfg.max_sweeps):
            # workers derive tot/csize from the assign snapshot themselves.
            # Delta broadcast: after sweep 1 the moves ARE the delta —
            # O(moves) per round instead of an O(V) assignment put. Every
            # 16th round re-sends the full array to pin the incremental
            # float drift that tot/csize scatter-updates can accumulate.
            use_delta = pending_delta is not None and sweeps_since_full < 16
            cv, cc, moves = pool.sweep(
                assign, m2, tie_break=tie_break,
                delta=pending_delta if use_delta else None,
            )
            sweeps_since_full = sweeps_since_full + 1 if use_delta else 1
            pending_delta = (cv, cc) if moves else None
            if moves:
                assign[cv] = cc
                improved = True
            metrics.sweeps += 1
            metrics.moves += moves
            if on_sweep is not None:
                on_sweep(sweep, assign, moves)
            if moves == 0:
                break
            # Oscillation guard (P>1 only; at P=1 the kernel is exactly the
            # sequential algorithm and terminates via moves==0). Tracks the
            # BEST modularity seen — an up/down 2-cycle never beats its own
            # peak, so it stalls out; on abort the best snapshot is
            # restored. The (exact, one-pass) modularity check only runs
            # when the move count stops strictly decreasing — while moves
            # shrink the sweep is converging and the extra pass would be
            # pure overhead.
            if moves >= prev_moves:
                q = modularity(graph, assign, m_mode, pool)
                if q > best_q + STALL_EPS:
                    best_q = q
                    best_assign = assign.copy()
                    stall = 0
                else:
                    stall += 1
                    if stall >= STALL_SWEEPS:
                        assign = best_assign
                        break
            else:
                # converging phase (moves strictly decreasing): skip the Q
                # measurement for speed but do NOT overwrite best_assign —
                # (best_q, best_assign) must stay a measured pair so a
                # later stall abort restores the snapshot best_q describes
                stall = 0
            prev_moves = moves
        metrics.modularity_after = modularity(graph, assign, m_mode, pool)
        metrics.n_communities = int(np.unique(assign).shape[0])
        return assign, improved, metrics


def _collect_entries(graph: GraphHandle):
    """Driver-side (src, dst, w) arrays of a SMALL graph's entry list."""
    srcs, dsts, ws = [], [], []
    for b in graph.shards.iter_batches(batch_format="pyarrow"):
        for shard in unpack_shards(pa.table(b)):
            s, d, w = shard_to_entries(shard)
            srcs.append(s)
            dsts.append(d)
            ws.append(w)
    if not srcs:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
        )
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(ws)


def _driver_level(
    graph: GraphHandle,
    cfg: EngineConfig,
    tie_break: str,
    m_mode: str,
    on_sweep=None,
    start_assign: np.ndarray | None = None,
    start_sweep: int = 0,
    prior_moves: int = 0,
) -> tuple[np.ndarray, bool, LevelMetrics, tuple]:
    """Small-level fast path: the whole level runs driver-local with the
    SAME kernel in strict Gauss-Seidel order (P=1 semantics — below
    `driver_local_entries` a distributed round is pure fixed cost and
    sequential local moves converge strictly). Returns the collected entry
    arrays too so the caller can coarsen without another collect."""
    n = graph.n
    src, dst, w = _collect_entries(graph)
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    vids = np.arange(n, dtype=np.int64)
    deg = graph.degrees()
    m2 = _m2(graph, m_mode)

    def local_q(a: np.ndarray) -> float:
        if m2 <= 0:  # fully-contracted graph: only self-loops, m = 0
            return 0.0
        mask = (src != dst) & (a[src] == a[dst])
        intra = float(w[mask].sum())
        tot_ = np.bincount(a, weights=deg, minlength=n)
        nz = tot_ > 0
        return intra / m2 - float(((tot_[nz] / m2) ** 2).sum())

    assign = (
        start_assign.copy()
        if start_assign is not None
        else np.arange(n, dtype=np.int64)
    )
    metrics = LevelMetrics(
        level=-1, n_vertices=n, m=graph.m, sweeps=start_sweep, moves=prior_moves
    )
    metrics.modularity_before = local_q(assign)
    improved = prior_moves > 0
    csize = np.bincount(assign, minlength=n) if tie_break == "canonical" else None
    tot = np.bincount(assign, weights=deg, minlength=n)
    # strict per-vertex Gauss-Seidel below 20k vertices (bit-exact vs the
    # sequential oracle on test graphs, and converges in the fewest
    # sweeps — measured better than the chunked kernel even on heavy
    # coarse levels); vectorized chunked kernel above
    use_chunked = tie_break == "canonical" and n > 20_000
    for sweep in range(start_sweep, cfg.max_sweeps):
        if use_chunked:
            moves = chunked_local_move_sweep(
                vids, indptr, dst, w, assign, tot, deg, m2,
                csize=csize, chunk=KERNEL_CHUNK,
            )
        else:
            moves = local_move_sweep(
                vids, indptr, dst, w, assign, tot, deg, m2,
                tie_break=tie_break, csize=csize,
            )
        metrics.sweeps += 1
        metrics.moves += moves
        if moves:
            improved = True
        if on_sweep is not None:
            on_sweep(sweep, assign, moves)
        if moves == 0:
            break
    metrics.modularity_after = local_q(assign)
    metrics.n_communities = int(np.unique(assign).shape[0])
    return assign, improved, metrics, (src, dst, w)


def _driver_coarsen(
    assign: np.ndarray, entries: tuple, cfg: EngineConfig
) -> tuple[GraphHandle, np.ndarray]:
    """Driver-local contraction (identical semantics to `coarsen`)."""
    src, dst, w = entries
    old = np.unique(assign)
    dense = np.searchsorted(old, assign).astype(np.int64)
    ncomms = int(old.shape[0])
    key = dense[src] * np.int64(ncomms) + dense[dst]
    uk, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(uk.shape[0], dtype=np.float64)
    np.add.at(wsum, inv, w)
    coarse = build_graph_small(
        (uk // ncomms).astype(np.int64),
        (uk % ncomms).astype(np.int64),
        wsum,
        cfg,
        n_vertices=ncomms,
    )
    return coarse, dense


def _polish(
    graph0: GraphHandle,
    membership: np.ndarray,
    cfg: EngineConfig,
    m_mode: str,
    pool,
) -> np.ndarray:
    """Refinement sweeps on the ORIGINAL graph from the composed
    membership, for runs whose distributed levels ran on `pool`. Strict
    Gauss-Seidel driver-side when the entry list fits
    `POLISH_DRIVER_ENTRIES` (each accepted move strictly improves Q);
    otherwise chunked-kernel sweeps through the pool. The polished
    assignment is kept only when its exact Q beats the input's."""
    m2 = _m2(graph0, m_mode)
    if m2 <= 0:
        return membership
    n = graph0.n
    deg = graph0.degrees()
    if graph0.n_entries <= POLISH_DRIVER_ENTRIES:
        if (
            pool.graph is graph0
            or graph0.n_entries > cfg.driver_local_entries
        ):
            # one wave from the warm workers' in-memory shards instead of
            # a driver-side Dataset re-scan (~10x at bench scale). The
            # reload to graph0 (when the pool still holds the last coarse
            # level) is work the caller's final-modularity pass needs
            # anyway — only forced when that pass will use the pool too.
            if pool.graph is not graph0:
                pool.reload(graph0)
            src, dst, w = pool.collect_entries()
        else:
            src, dst, w = _collect_entries(graph0)
        order = np.lexsort((w, dst, src))
        src, dst, w = src[order], dst[order], w[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

        def q_of(a: np.ndarray) -> float:
            mask = (src != dst) & (a[src] == a[dst])
            tot_ = np.bincount(a, weights=deg, minlength=n)
            nz = tot_ > 0
            return float(w[mask].sum()) / m2 - float(((tot_[nz] / m2) ** 2).sum())

        q0 = q_of(membership)
        assign = membership.copy()
        tot = np.bincount(assign, weights=deg, minlength=n)
        csize = np.bincount(assign, minlength=n)
        vids = np.arange(n, dtype=np.int64)
        for _ in range(cfg.polish_sweeps):
            # chunk=16: near-Gauss-Seidel quality at vectorized-kernel
            # speed (the per-vertex strict loop costs seconds at bench
            # scale for ~the same refinement)
            moves = chunked_local_move_sweep(
                vids, indptr, dst, w, assign, tot, deg, m2,
                csize=csize, chunk=16,
            )
            if moves == 0:
                break
        return assign if q_of(assign) > q0 else membership
    # large graph: pool-path refinement (chunked kernel), Q-gated
    from dataclasses import replace

    cfg_p = replace(cfg, max_sweeps=cfg.polish_sweeps, polish_sweeps=0)
    assign, _, metrics = louvain_level(
        graph0, cfg_p, "canonical", start_assign=membership,
        m_mode=m_mode, pool=pool,
    )
    return (
        assign
        if metrics.modularity_after > metrics.modularity_before
        else membership
    )


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel communities densely in order of their smallest member vid —
    the tie-break canonicalization BASELINE.json licenses for comparing
    against the reference."""
    _, first_idx, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inv]


def louvain(
    edges: ray.data.Dataset | GraphHandle,
    config: EngineConfig | None = None,
    tie_break: str = "canonical",
    checkpointer=None,
    m_mode: str = "count",
    pool=None,
) -> LouvainResult:
    """Multi-level Louvain: (level sweeps -> coarsen) until a level makes no
    move. Assignment composition across levels is maintained driver-side.

    `pool`: caller-owned (possibly prespawned) ShardPool — reused across
    levels and NOT shut down here; None = create one on the first
    distributed level and shut it down on return.

    The reported `modularity` is computed on the ORIGINAL (level-0) graph
    under the composed assignments — per-level Q values (in `levels`) use
    each level's own `m` (reference ecount semantics, `community.cpp:51`)
    and are NOT comparable across levels: the count-m quirk plus the
    reference's self-loop-free `in` make coarse-level Q a different scale.
    """
    cfg = config or DEFAULT_CONFIG
    graph = (
        edges
        if isinstance(edges, GraphHandle)
        else build_graph(edges, cfg)
    )
    graph0 = graph
    membership = np.arange(graph.n, dtype=np.int64)
    levels: list[LevelMetrics] = []
    start_level, start_sweep, start_assign = 0, 0, None
    resumed_prior_moves = 0
    if checkpointer is not None:
        resumed = checkpointer.resume()
        if resumed is not None:
            (graph, membership, levels, start_level, start_sweep,
             start_assign, resumed_prior_moves) = resumed
            if start_level > 0:
                graph0 = checkpointer.load_level_graph(0) or graph
            else:
                graph0 = graph
    any_distributed = False
    with contextlib.ExitStack() as owned:
        for level in range(start_level, cfg.max_levels):
            on_sweep = None
            if checkpointer is not None:
                checkpointer.begin_level(level, graph, membership)
                on_sweep = lambda s, a, mv: checkpointer.on_sweep(level, s, a, mv)
            # The VERTEX gate applies only to COARSE levels (its motivation:
            # distributing a 6k-vertex contracted graph is pure chunk-Jacobi
            # oscillation for no gain). Level 0 is gated by ENTRY count
            # alone — otherwise a large-but-low-vertex input graph would
            # silently run the whole algorithm serial on the driver.
            local = graph.n_entries <= cfg.driver_local_entries or (
                level > 0 and graph.n <= cfg.driver_local_vertices
            )
            any_distributed = any_distributed or not local
            if not local and pool is None:
                pool = owned.enter_context(pool_for(graph))
            resume_here = level == start_level
            if local:
                assign, improved, metrics, entries = _driver_level(
                    graph,
                    cfg,
                    tie_break,
                    m_mode,
                    on_sweep=on_sweep,
                    start_assign=start_assign if resume_here else None,
                    start_sweep=start_sweep if resume_here else 0,
                    prior_moves=resumed_prior_moves if resume_here else 0,
                )
            else:
                assign, improved, metrics = louvain_level(
                    graph,
                    cfg,
                    tie_break,
                    on_sweep=on_sweep,
                    start_assign=start_assign if resume_here else None,
                    start_sweep=start_sweep if resume_here else 0,
                    m_mode=m_mode,
                    prior_moves=resumed_prior_moves if resume_here else 0,
                    pool=pool,
                )
            metrics.level = level
            if not improved and level > 0:
                # no moves: keep the previous level's converged modularity —
                # per-level Q is relative to that level's m (reference
                # ecount semantics), so an unimproved coarse level's
                # singleton Q is not the result
                break
            if local:
                coarse, dense = _driver_coarsen(assign, entries, cfg)
            else:
                coarse, dense = coarsen(graph, assign, pool=pool)
            membership = dense[membership]
            levels.append(metrics)
            if checkpointer is not None:
                checkpointer.end_level(level, metrics)
            if not improved:
                break
            if coarse.n == graph.n:
                # coarsening made no progress — e.g. the oscillation guard
                # reverted the level to its starting assignment, or every
                # move was a pure label permutation. Continuing would repeat
                # the identical level until max_levels (observed at
                # mult=256: 30 wasted levels x 14 sweeps).
                break
            graph = coarse
        # polish: refinement sweeps on the ORIGINAL graph from the composed
        # membership (closes the chunked-Jacobi quality gap of distributed
        # levels — a move-refine pass in the spirit of Leiden's refinement;
        # strict GS when the graph fits the driver budget). Kept only if Q
        # improves, and only for runs with DISTRIBUTED levels: fully
        # driver-local runs are already strict GS and stay bit-exact vs the
        # sequential oracle.
        if cfg.polish_sweeps > 0 and len(levels) > 0 and any_distributed:
            membership = _polish(graph0, membership, cfg, m_mode, pool)
        # final Q on the ORIGINAL graph under the composed assignments
        if graph0.n_entries <= cfg.driver_local_entries:
            src0, dst0, w0 = _collect_entries(graph0)
            m2 = _m2(graph0, m_mode)
            if m2 <= 0:
                final_on_orig = 0.0
            else:
                mask = (src0 != dst0) & (membership[src0] == membership[dst0])
                tot0 = np.bincount(
                    membership, weights=graph0.degrees(), minlength=graph0.n
                )
                nz = tot0 > 0
                final_on_orig = float(w0[mask].sum()) / m2 - float(
                    ((tot0[nz] / m2) ** 2).sum()
                )
        else:
            final_on_orig = modularity(graph0, membership, m_mode, pool=pool)
    return LouvainResult(
        assignments=canonicalize_labels(membership),
        modularity=final_on_orig,
        levels=levels,
    )
