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

This module is pure numpy so the same kernel runs inside the sequential
oracle, the driver-local Louvain levels AND the ShardPool workers
(`state/shard_pool.py`) that run every distributed sweep.
"""

from __future__ import annotations

import numpy as np

# Vertex-block size of the chunked kernel on distributed sweeps and large
# driver-local levels (Jacobi within a block, Gauss-Seidel across blocks).
# Larger blocks amortize per-chunk numpy overhead (the sweep bottleneck at
# scale); smaller blocks converge in fewer sweeps. 256 measured ~2x sweep
# throughput vs 64 with no modularity loss on the planted web graphs.
KERNEL_CHUNK = 256


def chunked_local_move_sweep(
    vids: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    comm: np.ndarray,
    tot: np.ndarray,
    deg: np.ndarray,
    m2: float,
    csize: np.ndarray | None = None,
    chunk: int = 64,
    undo_log: list | None = None,
    unit_weights: bool = False,
) -> int:
    """Vectorized variant of the canonical local-move sweep: Jacobi within a
    `chunk`-vertex block (one np.unique + one lexsort per block), strict
    Gauss-Seidel ACROSS blocks. Same gain formula, same keep-on-tie /
    min-comm-id / singleton-guard rules as `local_move_sweep`; the only
    semantic difference is that moves within one block are decided against
    the block-start state (the distributed BSP already accepts exactly this
    staleness between partitions). ~20x faster than the per-vertex loop —
    used by the ShardPool workers in canonical mode.

    `unit_weights=True` promises every entry weight is exactly 1.0 (the
    common case on deduped web link graphs — the builder collapses
    duplicate (src,dst) pairs instead of summing them): the kernel then
    never touches the weights array (one less 8 B/entry DRAM stream on a
    bandwidth-bound sweep) and accumulates neighbor-community weights as
    plain bincount COUNTS — bit-identical to summing 1.0s in float64.

    `undo_log`: when a list is passed, every chunk that applies moves first
    appends `(touched_ids, tot_pre_values, csize_pre_values)` — the EXACT
    values of the entries it is about to mutate. Replaying the log in
    REVERSE restores `tot`/`csize` bit-for-bit to their pre-call state at
    O(moves) cost, which lets the BSP worker skip the two O(n) pristine
    copies per sweep that dominated DRAM traffic at large n (`comm` is
    restored by the caller from its own per-shard `before` snapshot).
    """
    n_local = vids.shape[0]
    if n_local == 0:
        return 0
    counts = np.diff(indptr)
    moves = 0
    C = np.int64(comm.shape[0])
    for a in range(0, n_local, chunk):
        b = min(a + chunk, n_local)
        lo, hi = indptr[a], indptr[b]
        if lo == hi:
            continue
        rows_local = np.repeat(np.arange(b - a, dtype=np.int64), counts[a:b])
        v_rows = vids[a:b]
        nbr = cols[lo:hi]
        w = None if unit_weights else weights[lo:hi]
        blk_counts = counts[a:b]
        own = comm[v_rows]
        dv = deg[v_rows]

        self_mask = nbr != np.repeat(v_rows, blk_counts)
        rows_e = rows_local[self_mask]
        ncomm = comm[nbr[self_mask]]

        key = rows_e * C + ncomm
        uk, inv = np.unique(key, return_inverse=True)
        if unit_weights:
            # all weights are exactly 1.0: plain counts ARE the sums
            ksum = np.bincount(inv, minlength=uk.shape[0]).astype(np.float64)
        else:
            we = w[self_mask]
            # bincount over the inverse index accumulates the same sums as
            # np.add.at in the same (input) order at memcpy speed
            ksum = np.bincount(inv, weights=we, minlength=uk.shape[0])
        rows_k = (uk // C).astype(np.int64)
        comms_k = (uk % C).astype(np.int64)

        is_own = comms_k == own[rows_k]
        k_own = np.zeros(b - a, dtype=np.float64)
        k_own[rows_k[is_own]] = ksum[is_own]
        gain_own = k_own - (tot[own] - dv) * dv / m2
        thr = np.maximum(gain_own, 0.0)

        cand = ~is_own
        if not cand.any():
            continue
        rows_c = rows_k[cand]
        comms_c = comms_k[cand]
        gains_c = ksum[cand] - tot[comms_c] * (dv[rows_c] / m2)

        # per-row argmax with (gain desc, comm asc) priority. uk is sorted,
        # so (rows_c, comms_c) is lexicographically sorted already: the
        # per-row max gain comes from one maximum.reduceat, and the FIRST
        # index attaining it within the row segment IS the smallest comm
        # among the tied maxima — no lexsort (the old 3-key float lexsort
        # was 60% of the whole kernel).
        starts = np.flatnonzero(np.r_[True, rows_c[1:] != rows_c[:-1]])
        seg_len = np.diff(np.r_[starts, rows_c.shape[0]])
        best_gains = np.maximum.reduceat(gains_c, starts)
        is_max = gains_c == np.repeat(best_gains, seg_len)
        pos = np.where(is_max, np.arange(rows_c.shape[0]), rows_c.shape[0])
        first_idx = np.minimum.reduceat(pos, starts)
        best_rows = rows_c[starts]
        best_comms = comms_c[first_idx]

        accept = best_gains > thr[best_rows]
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
