"""The sharded tier's decide stages against frozen copies of the rules
they replaced.

`SpmvShard.louvain_decide` and `SpmvShard.lpa_combine` run the broadcast
tier's kernels (`chunked_local_move_sweep`, `_best_labels_for_shard`) in
a local id space. `_old_louvain_decide` and `_old_lpa_combine` are
verbatim copies of the hand-written decision code the two methods held
before (only `self.` state turned into arguments). Both must agree bit
for bit over random pair tables: assignments or labels and move counts.
The methods run on a local instance of the actor class, without Ray.
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_louvain_method_ray.state.spmv_pool import SpmvShard, _columns

_Shard = SpmvShard.__ray_metadata__.modified_class
PID, P = 1, 3


def _old_louvain_decide(lv_k, asn, deg, m2, parts) -> int:
    si, c, kw = lv_k
    if si.size == 0:
        return 0
    carr, tarr, sarr = _columns(parts, "l", "t", "s")
    order = np.argsort(carr)
    carr, tarr, sarr = carr[order], tarr[order], sarr[order]
    # pairs are sorted by (si, c); segment = one vertex
    seg_bnd = np.ones(len(si), dtype=bool)
    seg_bnd[1:] = si[1:] != si[:-1]
    seg_starts = np.flatnonzero(seg_bnd)
    sid = np.cumsum(seg_bnd) - 1
    nseg = len(seg_starts)
    seg_si = si[seg_starts]
    own_s = asn[seg_si].astype(np.int64)
    dv_s = deg[seg_si]
    own_pair = own_s[sid]
    cand = c != own_pair
    tot_pair = tarr[np.searchsorted(carr, c)]
    gain = kw - tot_pair * (deg[si] / m2)
    gmax = np.full(nseg, -np.inf)
    np.maximum.at(gmax, sid[cand], gain[cand])
    has_cand = gmax > -np.inf
    is_best = np.flatnonzero(cand & (gain == gmax[sid]))
    # first max-gain candidate per segment = smallest comm (pairs
    # sorted by comm within a segment)
    bseg, first = np.unique(sid[is_best], return_index=True)
    best = np.full(nseg, -1, dtype=np.int64)
    best[bseg] = c[is_best[first]]
    ko = np.zeros(nseg)
    m = np.flatnonzero(c == own_pair)
    ko[sid[m]] = kw[m]
    oi = np.searchsorted(carr, own_s)
    tot_own = tarr[oi]
    cs_own = sarr[oi]
    gain_own = ko - (tot_own - dv_s) * dv_s / m2
    thr = np.maximum(gain_own, 0.0)
    accept = has_cand & (gmax > thr)
    bi = np.searchsorted(carr, np.where(best >= 0, best, 0))
    cs_b = sarr[bi]
    guard = (best > own_s) & (cs_own == 1.0) & (cs_b == 1.0)
    accept &= ~guard
    asn[seg_si[accept]] = best[accept].astype(np.float64)
    return int(accept.sum())


def _old_lpa_combine(k, lbl) -> int:
    if k is None:
        return 0
    ks, kl, kw = k
    seg_bnd = np.ones(len(ks), dtype=bool)
    seg_bnd[1:] = ks[1:] != ks[:-1]
    seg_starts = np.flatnonzero(seg_bnd)
    seg_id = np.cumsum(seg_bnd) - 1
    wmax = np.maximum.reduceat(kw, seg_starts)
    # best = smallest label among the argmax pairs: pairs are sorted
    # by label within a segment, so the FIRST max-weight pair wins
    is_max = np.flatnonzero(kw == wmax[seg_id])
    _, first = np.unique(seg_id[is_max], return_index=True)
    best = kl[is_max[first]]
    seg_src = ks[seg_starts]
    cur = lbl[seg_src]
    # curw = the current label's own incident weight (0 if absent)
    curw = np.zeros(len(seg_starts))
    match = np.flatnonzero(kl == cur[seg_id])
    curw[seg_id[match]] = kw[match]
    better = (wmax > curw) | ((wmax == curw) & (best < cur))
    lbl[seg_src[better]] = best[better]
    return int(better.sum())


def _weights(rng, kind: str, size: int) -> np.ndarray:
    if kind == "float":
        return rng.uniform(0.1, 3.0, size)
    if kind == "int":
        return rng.integers(1, 4, size).astype(np.float64)
    return np.ones(size)


def _shard(n_owned: int):
    return _Shard(PID, P, PID + P * (n_owned - 1) + 1)


def _pairs(rng, n_owned: int, n_ids: int, own: np.ndarray, kind: str):
    """Distinct (slice index, id, weight) pairs sorted by (si, id): some
    vertices have none, some only their own id, the rest a random set
    that may include their own id."""
    si, ids = [], []
    for v in range(n_owned):
        r = rng.random()
        if r < 0.1:
            continue
        if r < 0.25:
            got = [own[v]]
        else:
            k = int(rng.integers(1, min(n_ids, 5) + 1))
            got = rng.choice(n_ids, k, replace=False).tolist()
            if rng.random() < 0.5:
                got.append(own[v])
        got = np.unique(got)
        si.append(np.full(got.size, v))
        ids.append(got)
    if not si:
        e = np.empty(0, np.int64)
        return e, e, np.empty(0)
    si, ids = np.concatenate(si), np.concatenate(ids).astype(np.int64)
    return si, ids, _weights(rng, kind, si.size)


def _split(rng, table: dict, parts: int) -> list:
    """The rows of `table` shuffled into `parts` response buckets, some
    of them None (a sender with nothing to say)."""
    n = len(next(iter(table.values())))
    where = rng.integers(0, parts, n)
    perm = rng.permutation(n)
    out = []
    for q in range(parts):
        sel = perm[where[perm] == q]
        out.append({k: v[sel] for k, v in table.items()} if sel.size else None)
    return out


@pytest.mark.parametrize("kind", ["float", "int", "unit"])
def test_louvain_decide_matches_frozen_rule(kind):
    rng = np.random.default_rng({"float": 1, "int": 2, "unit": 3}[kind])
    trips = 0
    for trial in range(100):
        n_owned = int(rng.integers(1, 30))
        n_ids = int(rng.integers(2, 3 * n_owned + 3))
        own = rng.integers(0, n_ids, n_owned)
        si, c, kw = _pairs(rng, n_owned, n_ids, own, kind)
        deg = _weights(rng, kind, n_owned) + (kw.sum() / max(n_owned, 1))
        if kind != "float":
            deg = np.floor(deg)
        served = np.unique(np.concatenate([c, own]))
        # many singletons so the swap guard trips; integer totals so
        # gains tie
        csize = np.where(rng.random(served.size) < 0.6, 1.0, rng.integers(2, 5, served.size))
        tot = csize * _weights(rng, kind, served.size) + 1.0
        if kind != "float":
            tot = np.floor(tot)
        parts = _split(rng, {"l": served, "t": tot, "s": csize}, int(rng.integers(1, 4)))
        m2 = float(tot.sum() + rng.integers(0, 5))

        asn0 = own.astype(np.float64)
        old = asn0.copy()
        want = _old_louvain_decide((si, c, kw), old, deg, m2, parts)

        s = _shard(n_owned)
        s.vecs["asn"] = asn0.copy()
        s.vecs["deg"] = deg
        s._lv_k = (si, c, kw)
        got = s.louvain_decide(m2, *parts)
        assert got == want, trial
        np.testing.assert_array_equal(s.vecs["asn"], old)
        assert not hasattr(s, "_lv_k")

        # the singleton-swap guard must have blocked at least one move
        # that the gain alone would take: rerun without the guard
        nog = asn0.copy()
        parts_ng = [
            None if p is None else {**p, "s": np.full(p["s"].size, 2.0)}
            for p in parts
        ]
        trips += _old_louvain_decide((si, c, kw), nog, deg, m2, parts_ng) != want
    assert trips > 0


@pytest.mark.parametrize("kind", ["float", "int", "unit"])
def test_lpa_combine_matches_frozen_rule(kind):
    rng = np.random.default_rng({"float": 4, "int": 5, "unit": 6}[kind])
    for trial in range(100):
        n_owned = int(rng.integers(1, 30))
        n_ids = int(rng.integers(2, 3 * n_owned + 3))
        lbl0 = rng.integers(0, n_ids, n_owned).astype(np.float64)
        si, l, w = _pairs(rng, n_owned, n_ids, lbl0.astype(np.int64), kind)
        # raw (src vid, label, w) partials: split, and some pairs split
        # again so the combine sums them
        dup = rng.random(si.size) < 0.3
        s_v = PID + P * np.concatenate([si, si[dup]])
        l_v = np.concatenate([l, l[dup]]).astype(np.float64)
        w_v = np.concatenate([w, w[dup]])
        if si.size:
            parts = _split(rng, {"s": s_v, "l": l_v, "w": w_v}, int(rng.integers(1, 4)))
        else:
            parts = [None]

        s = _shard(n_owned)
        s.vecs["lbl"] = lbl0.copy()
        old = lbl0.copy()
        want = _old_lpa_combine(s._label_weights(parts), old)
        got = s.lpa_combine("lbl", *parts)
        assert got == want, trial
        np.testing.assert_array_equal(s.vecs["lbl"], old)
