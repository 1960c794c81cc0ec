"""The Louvain local-move kernel (Gauss-Seidel sweep over one CSR range).

Semantics transcribed from the reference's sequential `Communities`
(`/root/reference/src/community.cpp`):

- per vertex v (ascending id order, `community.cpp:72`):
  - neighbor-community weights k_{v,c} exclude self-loops
    (`node != neighbor`, `community.cpp:134`);
  - v is REMOVED from its community before evaluating gains
    (`community.cpp:79`): tot[own] is seen without deg(v);
  - gain(v, c) = k_{v,c} - tot[c] * deg(v) / 2m (`community.cpp:158`;
    constant factors dropped — valid for argmax);
  - scan starts at the own community with best_increase = 0.0 and uses
    strict `>` (`community.cpp:106-118`): non-positive gains and ties keep
    the current community; among tied positive gains the FIRST-SCANNED
    community wins. Scan order is own community first, then neighbor
    communities in first-seen CSR order (`community.cpp:122-148`).

`tie_break` selects the winner among candidates attaining the maximal gain:
- "reference": first-seen CSR order (bit-exact vs the C++ oracle);
- "canonical": smallest community id — the deterministic rule the
  distributed engine uses (BASELINE.json licenses tie-break
  canonicalization; the reference's own distributed mode is
  rank-RNG/message-timing dependent, `src/distcommunity.cpp:221-234`).

The canonical kernel is split in two. `sweep_plan` runs once per level
and keeps what does not change within it: the self-loop-free entry list
(cols, weights; views of the CSR when the shard has no self-loops), each
chunk's offsets into it, the chunk-local row key base `row_local * C`
(int32 when `chunk * C < 2**31`, else int64), `deg[vids]` and whether
every weight is 1.0. It costs one key word per self-free entry (4 or
8 B), 8 B per vertex, and a copy of cols and weights only when the CSR
holds self-loops. `chunked_local_move_sweep` then pays, per chunk, one
gather, one add and one sort-run pass (`_run_sums`) over the chunk's
entries, and picks each row's best community with `_first_max`, the
row-grouped first-of-maxima helper the LPA best-label kernel
(`_best_labels_for_shard`) shares.

This module is pure numpy and holds the engine's only copy of each
decision rule: the same kernels run in the sequential oracle, the
driver-local Louvain levels, the ShardPool workers (`state/shard_pool.py`)
AND the decide stages of the sharded tier's `SpmvShard` actors
(`state/spmv_pool.py`), which map their combined (vertex, comm, weight)
pairs into a local id space and run a one-chunk (pure Jacobi) plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Vertex-block size of the chunked kernel on distributed sweeps and large
# driver-local levels (Jacobi within a block, Gauss-Seidel across blocks).
# Larger blocks amortize per-chunk numpy overhead (the sweep bottleneck at
# scale); smaller blocks converge in fewer sweeps. 256 measured ~2x sweep
# throughput vs 64 with no modularity loss on the planted web graphs.
KERNEL_CHUNK = 256


@dataclass(slots=True)
class SweepPlan:
    """The per-level, comm-independent part of the chunked kernel (see the
    module docstring). `chunks` lists `(a, b, lo, hi)`: vertex rows
    `[a, b)` own self-free entries `[lo, hi)`; chunks without self-free
    entries are left out. `dv` is None when the plan was built without
    degrees (the LPA and intra-weight readers need none)."""

    vids: np.ndarray
    chunks: list
    C: int
    rk: np.ndarray
    cols: np.ndarray
    w: np.ndarray
    dv: np.ndarray | None
    unit: bool


def sweep_plan(
    vids: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    deg: np.ndarray | None,
    chunk: int,
    n_comm: int,
    src: np.ndarray | None = None,
) -> SweepPlan:
    """Build the plan of one CSR range for `chunk`-vertex blocks over a
    community id space of `n_comm` ids. `src` is the per-entry source vid
    (`np.repeat(vids, np.diff(indptr))`); callers that already hold it
    pass it so it is not rebuilt here."""
    n_local = vids.shape[0]
    counts = np.diff(indptr)
    chunk = max(int(chunk), 1)  # chunk=n callers on an empty graph
    C = int(n_comm)
    kdt = np.int32 if chunk * C < 2**31 else np.int64
    rk = np.repeat(
        (np.arange(n_local, dtype=np.int64) % chunk * C).astype(kdt), counts
    )
    if src is None:
        src = np.repeat(vids, counts)
    keep = src != cols
    del src
    loops = np.flatnonzero(~keep)
    starts = np.append(np.arange(0, n_local, chunk), n_local)
    offs = indptr[starts]
    if loops.shape[0]:
        # self-free offset = CSR offset minus the self-loops before it
        offs = offs - np.searchsorted(loops, offs)
        rk, cols, weights = rk[keep], cols[keep], weights[keep]
    offs = offs.tolist()
    st = starts.tolist()
    chunks = [
        (st[i], st[i + 1], offs[i], offs[i + 1])
        for i in range(len(st) - 1)
        if offs[i] < offs[i + 1]
    ]
    unit = bool(weights.shape[0] == 0 or np.all(weights == 1.0))
    dv = None if deg is None else deg[vids]
    return SweepPlan(vids, chunks, C, rk, cols, weights, dv, unit)


def _runs(vals: np.ndarray):
    """Run-start mask, start index and length of each run of equal values
    in the sorted, non-empty array `vals`."""
    n = vals.shape[0]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(vals[1:], vals[:-1], out=new[1:])
    starts = new.nonzero()[0]
    lens = np.empty(starts.shape[0], dtype=np.int64)
    lens[:-1] = starts[1:] - starts[:-1]
    lens[-1] = n - starts[-1]
    return new, starts, lens


def _run_sums(key: np.ndarray, w: np.ndarray | None):
    """Distinct keys of `key` in ascending order and each key's summed
    weight (its entry count when `w` is None, i.e. unit weights). The
    weighted path sorts stably and bincounts run ids in sorted order, so
    each key's weights are added in input order: the same float sums as
    `np.bincount(np.unique(key, return_inverse=True)[1], weights=w)`."""
    if w is None:
        sk = np.sort(key)
    else:
        order = np.argsort(key, kind="stable")
        sk = key[order]
    new, starts, lens = _runs(sk)
    if w is None:
        ksum = lens.astype(np.float64)
    else:
        ksum = np.bincount(
            np.cumsum(new) - 1, weights=w[order], minlength=starts.shape[0]
        )
    return sk[starts], ksum


def _first_max(vals: np.ndarray, best: np.ndarray, starts, lens) -> np.ndarray:
    """Index of the first element equal to its group's maximum `best`, per
    group `[starts[i], starts[i] + lens[i])` of `vals`. Groups sorted by a
    secondary key make this the smallest key among the tied maxima."""
    n = vals.shape[0]
    pos = np.where(vals == np.repeat(best, lens), np.arange(n), n)
    return np.minimum.reduceat(pos, starts)


def _best_labels_for_shard(plan, lab: np.ndarray):
    """Per-row weighted label argmax with (max weight, min label) tie-break
    over the self-free entries of `plan`, on the sort-run path of the
    local-move kernel (labels must be < plan.C). Returns (row_best_label,
    row_best_weight, row_weight_of_its_current_label); a row without a
    self-free entry gets label -1 and weights 0."""
    n_local = plan.vids.shape[0]
    out_lab = np.full(n_local, -1, dtype=np.int64)
    out_w = np.zeros(n_local, dtype=np.float64)
    cur_w = np.zeros(n_local, dtype=np.float64)
    rk, cols, C = plan.rk, plan.cols, plan.C
    w = None if plan.unit else plan.w
    for a, b, lo, hi in plan.chunks:
        uk, wsum = _run_sums(
            rk[lo:hi] + lab[cols[lo:hi]], None if w is None else w[lo:hi]
        )
        rows = uk // C
        labs = uk - rows * C
        _, starts, lens = _runs(rows)
        best = np.maximum.reduceat(wsum, starts)
        r = rows[starts] + a
        out_lab[r] = labs[_first_max(wsum, best, starts, lens)]
        out_w[r] = best
        is_cur = labs == lab[plan.vids[a:b]][rows]
        cur_w[rows[is_cur] + a] = wsum[is_cur]
    return out_lab, out_w, cur_w


def chunked_local_move_sweep(
    plan: SweepPlan,
    comm: np.ndarray,
    tot: np.ndarray,
    m2: float,
    csize: np.ndarray | None = None,
    undo_log: list | None = None,
) -> int:
    """Vectorized variant of the canonical local-move sweep over the rows
    of `plan`: Jacobi within a chunk-vertex block, strict Gauss-Seidel
    ACROSS blocks. Same gain formula, same keep-on-tie / min-comm-id /
    singleton-guard rules as `local_move_sweep`; the only semantic
    difference is that moves within one block are decided against the
    block-start state (the distributed BSP already accepts exactly this
    staleness between partitions). ~20x faster than the per-vertex loop —
    used by the ShardPool workers in canonical mode.

    Per block, key = row_local * C + comm[nbr]; the sort-run pass yields
    each (row, community) pair's neighbor weight in (row, comm) order.
    Own-community runs are masked to -inf, so one `maximum.reduceat` per
    row gives the best candidate gain and `_first_max` its smallest comm.

    `undo_log`: when a list is passed, every chunk that applies moves first
    appends `(touched_ids, tot_pre_values, csize_pre_values)` — the EXACT
    values of the entries it is about to mutate. Replaying the log in
    REVERSE restores `tot`/`csize` bit-for-bit to their pre-call state at
    O(moves) cost, which lets the BSP worker skip the two O(n) pristine
    copies per sweep that dominated DRAM traffic at large n (`comm` is
    restored by the caller from its own per-shard `before` snapshot).
    """
    if plan.dv is None:
        raise ValueError("chunked_local_move_sweep: plan built without deg")
    vids, rk, cols, C = plan.vids, plan.rk, plan.cols, plan.C
    w = None if plan.unit else plan.w
    moves = 0
    for a, b, lo, hi in plan.chunks:
        v_rows = vids[a:b]
        own = comm[v_rows]
        dv = plan.dv[a:b]
        uk, ksum = _run_sums(
            rk[lo:hi] + comm[cols[lo:hi]], None if w is None else w[lo:hi]
        )
        rows_k = uk // C
        comms_k = uk - rows_k * C

        own_runs = (comms_k == own[rows_k]).nonzero()[0]
        k_own = np.zeros(b - a, dtype=np.float64)
        k_own[rows_k[own_runs]] = ksum[own_runs]
        gain_own = k_own - (tot[own] - dv) * dv / m2
        thr = np.maximum(gain_own, 0.0)

        # (dv / m2)[rows_k] is elementwise dv[rows_k] / m2
        gains = ksum - tot[comms_k] * (dv / m2)[rows_k]
        gains[own_runs] = -np.inf
        _, starts, lens = _runs(rows_k)
        best_gains = np.maximum.reduceat(gains, starts)
        best_rows = rows_k[starts]
        accept = best_gains > thr[best_rows]
        if not accept.any():
            continue
        best_comms = comms_k[_first_max(gains, best_gains, starts, lens)]
        if csize is not None:
            # singleton-swap guard (see local_move_sweep)
            guard = (
                (best_comms > own[best_rows])
                & (csize[own[best_rows]] == 1)
                & (csize[best_comms] == 1)
            )
            accept &= ~guard
        mr = best_rows[accept]
        if mr.shape[0] == 0:
            continue
        mc = best_comms[accept]
        mo = own[mr]
        mv = v_rows[mr]
        md = dv[mr]
        if undo_log is not None:
            touched = np.unique(np.concatenate([mo, mc]))
            undo_log.append(
                (
                    touched,
                    tot[touched].copy(),
                    csize[touched].copy() if csize is not None else None,
                )
            )
        comm[mv] = mc
        np.add.at(tot, mo, -md)
        np.add.at(tot, mc, md)
        if csize is not None:
            np.add.at(csize, mo, -1)
            np.add.at(csize, mc, 1)
        moves += int(mr.shape[0])
    return moves


def local_move_sweep(
    vids: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    comm: np.ndarray,
    tot: np.ndarray,
    deg: np.ndarray,
    m2: float,
    tie_break: str = "canonical",
    csize: np.ndarray | None = None,
) -> int:
    """One Gauss-Seidel sweep over the local vertices `vids` (ascending).

    Mutates `comm` and `tot` in place; returns the number of moves.
    `comm`, `tot`, `deg` are dense arrays over the GLOBAL id space.
    """
    moves = 0
    reference_order = tie_break == "reference"
    for i in range(vids.shape[0]):
        v = int(vids[i])
        s, e = indptr[i], indptr[i + 1]
        nbrs = cols[s:e]
        ws = weights[s:e]
        mask = nbrs != v
        if not mask.all():
            nbrs = nbrs[mask]
            ws = ws[mask]
        c_own = int(comm[v])
        dv = deg[v]

        ncomms = comm[nbrs]
        uniq, first_idx, inv = np.unique(
            ncomms, return_index=True, return_inverse=True
        )
        ksum = np.zeros(uniq.shape[0], dtype=np.float64)
        np.add.at(ksum, inv, ws)

        own_pos = np.searchsorted(uniq, c_own)
        cand_mask = np.ones(uniq.shape[0], dtype=bool)
        if own_pos < uniq.shape[0] and uniq[own_pos] == c_own:
            k_own = ksum[own_pos]
            cand_mask[own_pos] = False
        else:
            k_own = 0.0
        if reference_order and c_own != v:
            # Reference quirk (`community.cpp:125`): `edges_to_other_comms[node]`
            # is pre-set to 0, so a community whose id equals the vertex id is
            # never appended to `neighbor_comms` — it silently drops out of the
            # candidate scan. Replicated only in bit-exact oracle mode.
            vpos = np.searchsorted(uniq, v)
            if vpos < uniq.shape[0] and uniq[vpos] == v:
                cand_mask[vpos] = False
        cands = uniq[cand_mask]
        cand_k = ksum[cand_mask]
        cand_first = first_idx[cand_mask]

        # remove v from its community before gain evaluation
        tot[c_own] -= dv

        best = c_own
        if cands.shape[0]:
            gains = cand_k - tot[cands] * (dv / m2)
            gain_own = k_own - tot[c_own] * (dv / m2)
            thr = gain_own if gain_own > 0.0 else 0.0
            maxg = gains.max()
            if maxg > thr:
                winners = np.flatnonzero(gains == maxg)
                if reference_order:
                    best = int(cands[winners[np.argmin(cand_first[winners])]])
                else:
                    best = int(cands[winners[0]])  # uniq sorted -> min comm id
                    # Singleton-swap guard (Lu/Halappanavar/Kalyanaraman,
                    # "Parallel heuristics for scalable community detection",
                    # 2015): in a synchronous sweep two singleton vertices can
                    # endlessly swap into each other's community; allow a
                    # singleton -> singleton move only toward the SMALLER
                    # community id. Disabled in reference mode (sequential
                    # Gauss-Seidel has no concurrent moves).
                    if (
                        csize is not None
                        and best > c_own
                        and csize[c_own] == 1
                        and csize[best] == 1
                    ):
                        best = c_own

        comm[v] = best
        tot[best] += dv
        if best != c_own:
            moves += 1
            if csize is not None:
                csize[c_own] -= 1
                csize[best] += 1
    return moves
