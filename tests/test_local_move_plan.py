"""The per-level sweep plan kernels against frozen copies of the kernels
they replaced.

`_old_chunked_local_move_sweep` and `_old_best_labels_for_shard` (plus
the current-label weight `ShardWorker.lpa_sweep` derived from them) are
verbatim copies of the np.unique / lexsort kernels the plan kernels
replaced. Both must agree bit for bit: assignments, community totals,
sizes, move counts, undo logs and LPA labels/weights.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from parallel_louvain_method_ray.algos._local_move import (
    chunked_local_move_sweep,
    sweep_plan,
)
from parallel_louvain_method_ray.algos._local_move import _best_labels_for_shard


def _old_chunked_local_move_sweep(
    vids, indptr, cols, weights, comm, tot, deg, m2,
    csize=None, chunk=64, undo_log=None, unit_weights=False,
):
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
            ksum = np.bincount(inv, minlength=uk.shape[0]).astype(np.float64)
        else:
            we = w[self_mask]
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


def _old_best_labels_for_shard(shard, lab):
    counts = np.diff(shard.indptr)
    row_idx = np.repeat(np.arange(shard.vids.shape[0]), counts)
    src = np.repeat(shard.vids, counts)
    mask = src != shard.cols
    row_idx = row_idx[mask]
    nlab = lab[shard.cols[mask]]
    w = shard.weights[mask]

    key = row_idx * np.int64(lab.max() + 2) + nlab
    uk, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(uk.shape[0], dtype=np.float64)
    np.add.at(wsum, inv, w)
    rows = uk // np.int64(lab.max() + 2)
    labs = uk % np.int64(lab.max() + 2)

    order = np.lexsort((labs, -wsum, rows))
    rows_o, labs_o, w_o = rows[order], labs[order], wsum[order]
    first = np.ones(rows_o.shape[0], dtype=bool)
    first[1:] = rows_o[1:] != rows_o[:-1]
    out_lab = np.full(shard.vids.shape[0], -1, dtype=np.int64)
    out_w = np.zeros(shard.vids.shape[0], dtype=np.float64)
    out_lab[rows_o[first]] = labs_o[first]
    out_w[rows_o[first]] = w_o[first]
    return out_lab, out_w


def _old_current_label_weight(shard, lab):
    cur = lab[shard.vids]
    counts = np.diff(shard.indptr)
    src = np.repeat(shard.vids, counts)
    m = (src != shard.cols) & (lab[shard.cols] == np.repeat(cur, counts))
    return np.bincount(
        np.repeat(np.arange(shard.vids.shape[0]), counts)[m],
        weights=shard.weights[m],
        minlength=shard.vids.shape[0],
    )


def _graph(n, n_edges, seed, weighted, self_loops, shard_of=1, shard=0):
    """Symmetric CSR rows of the vertices v with v % shard_of == shard
    (a worker-like shard with gaps in its vid list)."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, n_edges)
    # clustered targets so communities form and moves keep happening
    d = (s + rng.integers(-40, 41, n_edges)) % n
    s, d = s[s != d], d[s != d]
    if self_loops:
        loops = rng.choice(n, n // 10 + 1, replace=False)
        s = np.concatenate([s, loops])
        d = np.concatenate([d, loops])
    w = (
        rng.integers(1, 5, s.shape[0]) * 0.37 + rng.random(s.shape[0])
        if weighted
        else np.ones(s.shape[0])
    )
    src = np.concatenate([s, d[s != d]])
    dst = np.concatenate([d, s[s != d]])
    w = np.concatenate([w, w[s != d]])
    deg = np.bincount(src, weights=w, minlength=n)
    m2 = float(w.sum())
    keep = src % shard_of == shard
    src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    vids, counts = np.unique(src, return_counts=True)
    indptr = np.zeros(vids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SimpleNamespace(
        n=n, vids=vids, indptr=indptr, cols=dst, weights=w, src=src,
        deg=deg, m2=m2, unit=not weighted,
    )


def _state(g, dtype, seed):
    rng = np.random.default_rng(seed)
    comm = np.arange(g.n, dtype=dtype)
    # a few merged communities up front: own-community runs are present
    # from the first sweep on
    pick = rng.choice(g.n, g.n // 5, replace=False)
    comm[pick] = comm[(pick + 3) % g.n]
    tot = np.bincount(comm, weights=g.deg, minlength=g.n)
    csize = np.bincount(comm, minlength=g.n).astype(dtype)
    return comm, tot, csize


def _replay(tot, csize, log):
    for touched, tot_pre, csize_pre in reversed(log):
        tot[touched] = tot_pre
        if csize_pre is not None:
            csize[touched] = csize_pre


CASES = [
    # (n, entries, weighted, self_loops, shard_of)
    (3000, 20000, False, False, 1),
    (3000, 20000, True, False, 1),
    (3000, 20000, False, True, 3),
    (3000, 20000, True, True, 3),
    # n * n >= 2**31: the chunk=n plan takes int64 keys
    (50_000, 40_000, True, True, 2),
]


@pytest.mark.parametrize("n,n_edges,weighted,self_loops,shard_of", CASES)
@pytest.mark.parametrize("chunk", [16, 256, None])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("with_csize", [True, False])
def test_plan_kernel_matches_frozen_kernel(
    n, n_edges, weighted, self_loops, shard_of, chunk, dtype, with_csize
):
    g = _graph(n, n_edges, 7, weighted, self_loops, shard_of)
    chunk = g.n if chunk is None else chunk
    src = g.src if shard_of == 1 else None  # both plan construction paths
    plan = sweep_plan(
        g.vids, g.indptr, g.cols, g.weights, g.deg, chunk, g.n, src=src
    )
    assert plan.unit == g.unit
    if chunk == g.n and g.n * g.n >= 2**31:
        assert plan.rk.dtype == np.int64
    if chunk == 16:
        assert plan.rk.dtype == np.int32
    c0, t0, s0 = _state(g, dtype, 11)
    c1, t1, s1 = c0.copy(), t0.copy(), s0.copy()
    if not with_csize:
        s0 = s1 = None
    total = 0
    for _ in range(3):
        pre_t, pre_s = t0.copy(), None if s0 is None else s0.copy()
        pre_c = c0.copy()
        log0, log1 = [], []
        m0 = _old_chunked_local_move_sweep(
            g.vids, g.indptr, g.cols, g.weights, c0, t0, g.deg, g.m2,
            csize=s0, chunk=chunk, undo_log=log0, unit_weights=g.unit,
        )
        m1 = chunked_local_move_sweep(plan, c1, t1, g.m2, csize=s1, undo_log=log1)
        assert m0 == m1
        total += m1
        np.testing.assert_array_equal(c0, c1)
        assert c1.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(t0, t1)  # bit-identical, not allclose
        if s0 is not None:
            np.testing.assert_array_equal(s0, s1)
        assert len(log0) == len(log1)
        for (k0, v0, z0), (k1, v1, z1) in zip(log0, log1):
            np.testing.assert_array_equal(k0, k1)
            np.testing.assert_array_equal(v0, v1)
            if z0 is None:
                assert z1 is None
            else:
                np.testing.assert_array_equal(z0, z1)
        # the undo log restores the pre-sweep totals exactly
        t_r, s_r = t1.copy(), None if s1 is None else s1.copy()
        _replay(t_r, s_r, log1)
        np.testing.assert_array_equal(t_r, pre_t)
        if s_r is not None:
            np.testing.assert_array_equal(s_r, pre_s)
        assert not np.array_equal(pre_c, c1) or m1 == 0
    assert total > 0


def test_plan_views_without_self_loops_copies_with():
    g = _graph(2000, 10000, 3, True, False)
    plan = sweep_plan(g.vids, g.indptr, g.cols, g.weights, None, 256, g.n)
    assert np.shares_memory(plan.cols, g.cols)
    assert np.shares_memory(plan.w, g.weights)
    assert plan.dv is None
    with pytest.raises(ValueError):
        chunked_local_move_sweep(plan, np.arange(g.n), g.deg.copy(), g.m2)
    g = _graph(2000, 10000, 3, True, True)
    plan = sweep_plan(g.vids, g.indptr, g.cols, g.weights, g.deg, 256, g.n)
    assert not np.shares_memory(plan.cols, g.cols)
    assert plan.cols.shape[0] == int((g.src != g.cols).sum())
    np.testing.assert_array_equal(plan.dv, g.deg[g.vids])


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("lab_dtype", [np.int32, np.int64])
def test_lpa_best_labels_match_frozen_kernel(weighted, self_loops, lab_dtype):
    g = _graph(4000, 30000, 5, weighted, self_loops, shard_of=3, shard=1)
    plan = sweep_plan(g.vids, g.indptr, g.cols, g.weights, None, 256, g.n)
    rng = np.random.default_rng(2)
    for lab in (
        np.arange(g.n, dtype=lab_dtype),
        (rng.integers(0, g.n // 50, g.n) * 50).astype(lab_dtype),
    ):
        best0, bw0 = _old_best_labels_for_shard(g, lab.astype(np.int64))
        cur0 = _old_current_label_weight(g, lab.astype(np.int64))
        best1, bw1, cur1 = _best_labels_for_shard(plan, lab)
        np.testing.assert_array_equal(best0, best1)
        np.testing.assert_array_equal(bw0, bw1)
        np.testing.assert_array_equal(cur0, cur1)


def test_empty_plan():
    """A graph without vertices (chunk=n=0) gives an empty plan and no
    moves, as the old kernel returned 0 before its chunk loop."""
    e = np.zeros(0, dtype=np.int64)
    plan = sweep_plan(e, np.zeros(1, np.int64), e, np.zeros(0), np.zeros(0), 0, 0)
    assert plan.chunks == []
    assert chunked_local_move_sweep(plan, e.copy(), np.zeros(0), 1.0) == 0
    best, bw, cur = _best_labels_for_shard(plan, e)
    assert best.shape == bw.shape == cur.shape == (0,)
