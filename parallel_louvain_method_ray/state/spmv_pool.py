"""Hash-partitioned BSP pool: the one engine of the sharded tier.

Above `EngineConfig.max_broadcast_vertices` the broadcast tier's O(V)
arrays (state/shard_pool.py) no longer fit one process, so every
iterative algorithm here keeps its vertex state sharded across P actors
and moves only pre-combined partials between them. The reference's
ghost exchange (the DegreeInfo / CommunityUpdate / CommunityInfo
messages of its `src/distcommunity.cpp:387-545`) becomes one primitive:

- the edge table is split by a hash of one endpoint and scattered ONCE
  when the pool starts: a by-src copy on actor `src % P` serves forward
  waves (y[dst] += w * x[src], x local there), a by-dst copy on actor
  `dst % P` serves reverse waves (y[src] += w * x[dst]), and the k-core
  peel keeps its deduped undirected spokes by `v % P` (`PeelShard`);
- actor p owns the vids {p, p+P, p+2P, ...}: a vector is one dense slice
  per actor (the peel's survivor set is a sorted sparse vid array), and
  vertex state never moves between actors;
- every round is one `SpmvPool.exchange`, a chain of stages. Each stage
  but the last returns P buckets keyed by the destination vid's hash
  (`_buckets`), and bucket q of every sender is passed to the next stage
  on actor q as top-level arguments, so Ray resolves them before the
  call. With a single actor the whole chain runs inside one actor call
  (`_Shard.chain`): there is nobody to exchange with, and each stage
  would be an RPC of pure latency;
- buckets and actor outputs are dicts of numpy columns: the first Arrow
  table an actor pickles or unpickles imports pandas and Ray Data there
  (about 0.6 s per actor on one core), so a task (`_arrow`) builds the
  output blocks.

Driver state: P actor handles, P*P refs per stage and P scalars per
round, never an O(V) array. Input-side scaling (`scale` in `sum_wave`)
folds L1 normalization into the next wave's read.

The pool owns no round rule: Louvain and LPA decide with the broadcast
tier's kernels (`algos/_local_move.py`), PageRank finishes with
`state.shard_pool.pagerank_step`.

Partitioning assumption: vids are dense 0..n-1 and `v % P` spreads
vertex state evenly. `SpmvShard` raises ValueError on an edge endpoint
or seed outside [0, n), `PeelShard` on a negative one (or one >= n when
the caller gives n). A high-in-degree hub's partials arrive
pre-combined per sender, so skew costs bandwidth on one combine, not
Python time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from parallel_louvain_method_ray.algos._local_move import (
    _best_labels_for_shard,
    chunked_local_move_sweep,
    sweep_plan,
)
from parallel_louvain_method_ray.graph.csr import sum_by_key
from parallel_louvain_method_ray.state.shard_pool import (
    _fanout,
    _remote_buckets,
    pagerank_step,
)

# partitioned rows per actor when the caller gives no pool size
_ROWS_PER_ACTOR = 500_000


def _pool_size(rows: int, partitions: int | None = None) -> int:
    """Actors for a pool over `rows` partitioned rows: `partitions` when
    given, else ~500k rows per actor and never more than CPUs // 2."""
    if partitions is not None:
        return max(1, int(partitions))
    cpus = (
        int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    )
    return max(1, min(cpus // 2 or 1, rows // _ROWS_PER_ACTOR + 1))


# (Ray node id, shard class) -> the emptied actors of the last finished
# pool of that class. Booting an actor's process takes 0.7-0.9 s on one
# core, more than a warm pool's whole BFS over an 855k-entry graph.
_idle: dict = {}


def _acquire(key: tuple, P: int, args: tuple) -> list:
    """Shards 0..P-1 of a new pool: idle actors of class key[1] reset in
    place, then new ones (also for any that died while idle)."""
    actors: list = []
    for a in _idle.pop(key, [])[:P]:
        try:
            ray.get(a.reset.remote(len(actors), P, *args))
            actors.append(a)
        except ray.exceptions.RayActorError:
            pass
    return actors + [key[1].remote(p, P, *args) for p in range(len(actors), P)]


def _buckets(key: np.ndarray, P: int, build) -> list:
    """Split rows by `key % P`: bucket q is `build(mask)` over the rows with
    key % P == q, or None when there are none."""
    hk = key % P
    out = []
    for q in range(P):
        sel = hk == q
        out.append(build(sel) if sel.any() else None)
    return out


def _columns(parts, *names) -> tuple | None:
    """The named columns of the non-None partial buckets, concatenated in
    sender order; None when every part is None."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    return tuple(np.concatenate([p[c] for p in parts]) for c in names)


def _group_sum(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """Sum w per distinct (a, b) pair: (a, b, sum), sorted by (a, b)."""
    order = np.lexsort((b, a))
    a, b, w = a[order], b[order], w[order]
    bnd = np.ones(len(a), dtype=bool)
    bnd[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(bnd)
    return a[starts], b[starts], np.add.reduceat(w, starts)


@ray.remote
def _split_edges(
    block: pa.Table,
    P: int,
    side: str,
    src_col: str,
    dst_col: str,
    weight_col: str | None,
):
    """Bucket one edge block as (s, d, w) rows: by src % P for side "f",
    by dst % P for side "r", and for side "u" as undirected spokes
    (self-loops dropped, both directions, s = u and d = v) by v % P."""
    s = block.column(src_col).to_numpy(zero_copy_only=False).astype(np.int64)
    d = block.column(dst_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if weight_col is not None:
        w = block.column(weight_col).to_numpy(zero_copy_only=False)
        w = w.astype(np.float64)
    else:
        w = np.ones(len(s), dtype=np.float64)
    if side == "u":
        keep = s != d
        s, d = np.concatenate([s[keep], d[keep]]), np.concatenate([d[keep], s[keep]])
        w = np.concatenate([w[keep], w[keep]])
    return _fanout(
        _buckets(
            s if side == "f" else d,
            P,
            lambda sel: {"s": s[sel], "d": d[sel], "w": w[sel]},
        )
    )


class _Shard:
    """What every pool actor shares: its partition id, the pool size, the
    vid bound n (None: no upper bound), and the in-actor chain that runs a
    one-actor exchange."""

    def __init__(self, pid: int, P: int, n: int | None) -> None:
        self.pid = pid
        self.P = P
        self.n = n

    def reset(self, *args) -> None:
        """Drop all state; given args, start over as that shard."""
        self.__dict__.clear()
        if args:
            self.__init__(*args)

    def _check(self, what: str, vids: np.ndarray) -> None:
        """Raise ValueError unless every vid is in [0, n): `_local` would
        wrap a negative vid onto another vertex's slot, and a caller's
        dense `bool[n]` / `float[n]` scatter would wrap it too."""
        if vids.size and (
            vids.min() < 0 or (self.n is not None and vids.max() >= self.n)
        ):
            raise ValueError(
                f"{what} out of range [0, {self.n}): "
                f"[{vids.min()}, {vids.max()}]"
            )

    def chain(self, stages, *parts):
        """Run the exchange's stages back to back: every bucket is
        addressed to me, so each stage's output is the next one's input."""
        out = None
        for method, *args in stages:
            out = getattr(self, method)(*args, *parts)
            parts = (out,)
        return out

    def _local(self, vids: np.ndarray) -> np.ndarray:
        """Slice index of vids homed here."""
        return (vids - self.pid) // self.P


@ray.remote
class SpmvShard(_Shard):
    """One vid-partition of the vector state plus the edge partitions
    whose local endpoint is homed here. See the module docstring for the
    exchange protocol."""

    def __init__(self, pid: int, P: int, n: int) -> None:
        _Shard.__init__(self, pid, P, n)
        # vids owned here: pid, pid+P, ... — dense local slice
        self.n_owned = max(0, (n - pid + P - 1) // P) if n > pid else 0
        self.vecs: dict[str, np.ndarray] = {}
        # side -> (local endpoint slice index, other endpoint vid, weight);
        # "f" is homed by src, "r" by dst
        self.edges: dict[str, tuple] = {}
        # side -> how a wave's per-edge values group by `other` (_emit)
        self.plans: dict[str, tuple] = {}

    def ingest(self, side: str, *parts) -> None:
        cols = _columns(parts, "s", "d", "w")
        if cols is None:
            e = np.empty(0, dtype=np.int64)
            cols = (e, e, np.empty(0, dtype=np.float64))
        s, d, w = cols
        self._check("edge endpoint", s)
        self._check("edge endpoint", d)
        mine, other = (s, d) if side == "f" else (d, s)
        self.edges[side] = (self._local(mine), other, w)
        # group the edges by output vid once, for every wave (_emit): the
        # stable (other % P, other) order, one segment per distinct other,
        # bucket q a contiguous run of segments
        order = np.lexsort((other, other % self.P))
        key = other[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg_key = key[starts]
        bounds = np.searchsorted(seg_key % self.P, np.arange(self.P + 1))
        self.plans[side] = (order, np.cumsum(new) - 1, starts, seg_key, bounds)

    # -- vector init and local (exchange-free) updates -------------------

    def init_vec(self, name: str, value: float) -> None:
        self.vecs[name] = np.full(self.n_owned, float(value))

    def init_index_vec(self, name: str) -> None:
        """x[v] = v for my owned vids (the singleton labelling)."""
        self.vecs[name] = np.arange(
            self.pid, self.n, self.P, dtype=np.int64
        ).astype(np.float64)

    def init_seed_vec(self, name: str, seeds: np.ndarray, default: float) -> None:
        """x = default everywhere, 0 at the seed vids homed here."""
        x = np.full(self.n_owned, float(default))
        s = np.asarray(seeds, dtype=np.int64)
        self._check("seed", s)
        x[self._local(s[s % self.P == self.pid])] = 0.0
        self.vecs[name] = x

    def weighted_degree(self, name: str, side: str) -> None:
        """deg[v] = sum of w over v's side-`side` edges — local, since
        that partition holds every such edge of the vids homed here (on a
        symmetric entry table both sides give the same degree)."""
        local, _, w = self.edges[side]
        deg = np.zeros(self.n_owned, dtype=np.float64)
        np.add.at(deg, local, w)
        self.vecs[name] = deg

    def axpb(self, src_name: str, alpha: float, beta: float, out_name: str):
        """out = alpha * src + beta (the Katz update)."""
        self.vecs[out_name] = alpha * self.vecs[src_name] + beta

    def pr_prep(self, x_name: str, deg_name: str, s_name: str) -> float:
        """s = x / deg (0 where deg <= 0); returns this slice's dangling
        mass (sum of x where deg <= 0)."""
        x = self.vecs[x_name]
        deg = self.vecs[deg_name]
        pos = deg > 0
        s = np.zeros_like(x)
        s[pos] = x[pos] / deg[pos]
        self.vecs[s_name] = s
        return float(x[~pos].sum())

    def pr_finish(
        self, y_name: str, x_name: str, damping: float, dm: float, want_delta: bool
    ) -> float:
        """x <- pagerank_step(y, dm); returns the slice's L1 delta vs the
        previous x (0.0 when not requested)."""
        new = pagerank_step(self.vecs[y_name], dm, self.n, damping)
        d = float(np.abs(new - self.vecs[x_name]).sum()) if want_delta else 0.0
        self.vecs[x_name] = new
        return d

    # -- sum and min waves (HITS, Katz, PageRank, CC, BFS, SSSP) ---------

    def _emit(self, side: str, c: np.ndarray, reduce_min: bool = False):
        """Group the per-edge contributions c of side `side` by output vid
        (sum, or min dropping infinite results) and bucket by the vid's
        hash: P (v, c) buckets. A sum adds each vid's terms in edge order
        (bincount), a min is order-free."""
        order, seg_id, starts, seg_key, bounds = self.plans[side]
        cs = c[order]
        if reduce_min:
            agg = np.minimum.reduceat(cs, starts) if cs.size else cs
        else:
            agg = np.bincount(seg_id, weights=cs, minlength=seg_key.size)
        out = []
        for q in range(self.P):
            v = seg_key[bounds[q] : bounds[q + 1]]
            x = agg[bounds[q] : bounds[q + 1]]
            if reduce_min:
                finite = np.isfinite(x)
                v, x = v[finite], x[finite]
            out.append({"v": v, "c": x} if v.size else None)
        return _fanout(out)

    def sum_wave(self, name: str, scale: float, side: str):
        """Partials of y[other] += w * (scale * x[local]) over my
        side-`side` edges: y = A^T x on side "f", y = A x on side "r"."""
        local, _, w = self.edges[side]
        xv = self.vecs[name][local]
        if scale != 1.0:
            xv = xv * scale
        return self._emit(side, w * xv)

    def combine(self, name: str, *parts) -> float:
        """Sum my bucket's partials into the named slice; return the
        slice's scalar sum (the L1-normalization input)."""
        y = np.zeros(self.n_owned, dtype=np.float64)
        cols = _columns(parts, "v", "c")
        if cols is not None:
            np.add.at(y, self._local(cols[0]), cols[1])
        self.vecs[name] = y
        return float(y.sum())

    def min_wave(self, name: str, plus: str):
        """Partials of cand[dst] = min over my by-src edges of
        x[src] (+ w | + 1 | + 0 per `plus` in {"weight","one","zero"}).
        Infinite sources are dropped (they can relax nothing)."""
        local, _, w = self.edges["f"]
        xv = self.vecs[name][local]
        if plus == "weight":
            xv = xv + w
        elif plus == "one":
            xv = xv + 1.0
        return self._emit("f", xv, reduce_min=True)

    def combine_min(self, name: str, *parts) -> int:
        """x = min(x, partial mins); returns #strictly-improved slots
        (the Jacobi `changed` count — partials were computed against the
        wave-start snapshot, so this is one synchronous relaxation)."""
        cols = _columns(parts, "v", "c")
        if cols is None:
            return 0
        cur = self.vecs[name]
        new = cur.copy()
        np.minimum.at(new, self._local(cols[0]), cols[1])
        self.vecs[name] = new
        return int((new < cur).sum())

    # -- gathers: request vids from their owners, serve my slices --------

    def _request(self, vids: np.ndarray):
        """Distinct vids to look up, bucketed by their owner."""
        return _fanout(_buckets(vids, self.P, lambda sel: {"l": vids[sel]}))

    def _serve(self, parts, **vecs):
        """Answer each requester's (l) bucket with my slices of `vecs` at
        those vids: one response per requester, in requester order."""
        resp = []
        for t in parts:
            if t is None:
                resp.append(None)
                continue
            l = t["l"]
            idx = self._local(l)
            resp.append({"l": l, **{k: v[idx] for k, v in vecs.items()}})
        return _fanout(resp)

    # -- pointer jump (CC doubling: label <- label(label)) ---------------

    def jump_request(self, name: str):
        """Distinct labels my slice points at, bucketed by their owner
        (labels are vids, so label % P holds label's own label)."""
        return self._request(np.unique(self.vecs[name].astype(np.int64)))

    def jump_serve(self, name: str, *parts):
        return self._serve(parts, ll=self.vecs[name])

    def jump_apply(self, name: str, *parts) -> int:
        """label <- min(label, label(label)) using the gathered map. The
        vector is untouched between request and apply, so every label is
        present in the map by construction."""
        cols = _columns(parts, "l", "ll")
        if cols is None:
            return 0
        order = np.argsort(cols[0])
        l, ll = cols[0][order], cols[1][order]
        cur = self.vecs[name]
        new = np.minimum(cur, ll[np.searchsorted(l, cur.astype(np.int64))])
        self.vecs[name] = new
        return int((new < cur).sum())

    # -- label propagation and Louvain: (src, label) weight partials -----

    def _label_partials(self, name: str) -> list:
        """(src, label[dst], w) over my by-dst edges with self-loops
        dropped, group-summed per (src, label), bucketed by src % P."""
        local, src, w = self.edges["r"]
        keep = src != self.pid + local * self.P
        s, l, w = src[keep], self.vecs[name][local[keep]], w[keep]
        return _buckets(
            s,
            self.P,
            lambda sel: dict(zip(("s", "l", "w"), _group_sum(s[sel], l[sel], w[sel]))),
        )

    def _label_weights(self, parts):
        """Sum (src, label, w) partials into k: (slice index, label,
        weight) sorted by (slice index, label); None when no partials."""
        cols = _columns(parts, "s", "l", "w")
        if cols is None:
            return None
        return _group_sum(self._local(cols[0]), cols[1], cols[2])

    def lpa_wave(self, name: str):
        return _fanout(self._label_partials(name))

    def _local_space(self, si, vals, w, cur, table, deg=None):
        """My owned vertices' (si, value, weight) pairs, sorted by (si,
        value), as a one-chunk plan whose rows are my vertices and whose
        ids n_owned + j name `table[j]` (sorted, holding every value),
        plus the ids of the current values `cur`, then of the table."""
        no = self.n_owned
        indptr = np.zeros(no + 1, dtype=np.int64)
        np.cumsum(np.bincount(si, minlength=no), out=indptr[1:])
        ids = no + np.searchsorted(table, np.concatenate([vals, cur, table]))
        plan = sweep_plan(
            np.arange(no), indptr, ids[: vals.size], w, deg, no, no + table.size
        )
        return plan, ids[vals.size :]

    def lpa_combine(self, name: str, *parts) -> int:
        """Finish the sweep for my owned srcs: `_best_labels_for_shard`
        and the adoption rule of `ShardWorker.lpa_sweep`. The label table
        holds the current labels too, so their weights are found. Returns
        #adoptions (Jacobi: `name` was snapshotted by the wave)."""
        k = self._label_weights(parts)
        if k is None:
            return 0
        si, l, kw = k
        lbl = self.vecs[name]
        table = np.unique(np.concatenate([l, lbl]))
        plan, lab = self._local_space(si, l, kw, lbl, table)
        best, bw, curw = _best_labels_for_shard(plan, lab)
        cur = lab[: self.n_owned]
        better = (best >= 0) & ((bw > curw) | ((bw == curw) & (best < cur)))
        lbl[better] = table[best[better] - self.n_owned]
        return int(better.sum())

    # A Louvain sweep (pure Jacobi) over the "asn" and "deg" vectors is
    # four stages: emit -> gather -> stats_serve -> decide.

    def louvain_emit(self):
        """From the sweep-start snapshot, per destination bucket q: my
        partial community stats (comm, tot = sum deg, csize) for comms
        with comm % P == q, and my (src, comm, w) neighbor-weight
        partials for srcs with src % P == q."""
        c = self.vecs["asn"].astype(np.int64)
        deg = self.vecs["deg"]

        def stats(sel):
            uu, tot = sum_by_key(c[sel], deg[sel])
            _, csize = sum_by_key(c[sel], 1.0)
            return {"c": uu, "t": tot, "s": csize}

        return _fanout(
            list(zip(_buckets(c, self.P, stats), self._label_partials("asn")))
        )

    def louvain_gather(self, *parts):
        """Sum my comms' stats partials into dense (tot, csize) slices
        (comm ids are vids), sum my vertices' neighbor weights into k
        (kept for the decide stage), and request the stats of every comm
        k names plus my vertices' own comms."""
        tot = np.zeros(self.n_owned)
        csize = np.zeros(self.n_owned)
        cols = _columns([p[0] for p in parts], "c", "t", "s")
        if cols is not None:
            idx = self._local(cols[0])
            np.add.at(tot, idx, cols[1])
            np.add.at(csize, idx, cols[2])
        self._lv_tot = tot
        self._lv_csize = csize
        k = self._label_weights([p[1] for p in parts])
        if k is None:
            e = np.empty(0, dtype=np.int64)
            k = (e, e, np.empty(0))
        self._lv_k = (k[0], k[1].astype(np.int64), k[2])
        return self._request(
            np.unique(np.concatenate([self._lv_k[1], self.vecs["asn"].astype(np.int64)]))
        )

    def stats_serve(self, *parts):
        return self._serve(parts, t=self._lv_tot, s=self._lv_csize)

    def louvain_decide(self, m2: float, *parts) -> int:
        """Finish the sweep for my owned vertices: one pure-Jacobi
        `chunked_local_move_sweep` against the served comms' snapshot
        stats. Mutates the assignment slice; returns #moves."""
        si, c, kw = self._lv_k
        del self._lv_k
        if si.size == 0:
            return 0
        carr, tarr, sarr = _columns(parts, "l", "t", "s")
        order = np.argsort(carr)
        carr = carr[order]
        asn = self.vecs["asn"]
        plan, comm = self._local_space(
            si, c, kw, asn.astype(np.int64), carr, self.vecs["deg"]
        )
        pad = np.zeros(self.n_owned)
        tot = np.concatenate([pad, tarr[order]])
        csize = np.concatenate([pad, sarr[order]])
        moves = chunked_local_move_sweep(plan, comm, tot, m2, csize=csize)
        asn[:] = carr[comm[: self.n_owned] - self.n_owned]
        return moves

    def collect(self, spec: list[tuple]) -> dict:
        """My slice as (vid, *cols) columns: spec entries are (vec_name,
        scale, col) for float64 output or (vec_name, scale, col, "i8") to
        cast the column to int64 (CC labels, BFS hop counts)."""
        vids = np.arange(self.pid, self.n, self.P, dtype=np.int64)
        cols: dict[str, np.ndarray] = {"vid": vids}
        for entry in spec:
            name, scale, col = entry[0], entry[1], entry[2]
            x = self.vecs[name]
            x = x * scale if scale != 1.0 else x
            if len(entry) > 3 and entry[3] == "i8":
                x = x.astype(np.int64)
            cols[col] = x
        return cols


@ray.remote
class PeelShard(_Shard):
    """One v-partition of the undirected spoke table plus the survivor
    set of the vids homed here (same hash), so the prune of my spokes
    needs only my own survivors.

    Round semantics are bit-identical to `algos.kcore.kcore_bounded`
    (Jacobi: round r keeps vertices with >= k neighbors alive in round
    r-1's set; round 0's set = every edge-incident vertex). Dead vertices
    stay dead WITHOUT an explicit alive intersection: survivor sets shrink
    monotonically, so a vertex removed at round s has deg_r <= deg_s < k
    for every later r."""

    def __init__(self, pid: int, P: int, k: int, n: int | None) -> None:
        _Shard.__init__(self, pid, P, n)
        self.k = int(k)
        self.u = np.empty(0, dtype=np.int64)
        self.v = np.empty(0, dtype=np.int64)
        # None = "every vid is alive" (the round-0 state: prune is a no-op)
        self.surv: np.ndarray | None = None

    def ingest(self, side: str, *parts) -> None:
        """Keep the distinct (u, v) spokes of my bucket — the undirected
        distinct-edge semantics of kcore's `undirected_dedup` (every copy
        of a pair lands here by construction). Every endpoint appears as a
        spoke's u, so checking u checks them all."""
        cols = _columns(parts, "s", "d")
        if cols is not None:
            self._check("edge endpoint", cols[0])
            self.u, self.v, _ = _group_sum(cols[0], cols[1], np.zeros(len(cols[0])))

    def count_wave(self):
        """Prune my spokes by my own survivor set, then emit per-bucket
        partial degree counts keyed by u % P."""
        if self.surv is not None:
            if self.surv.size == 0:
                self.u = self.u[:0]
                self.v = self.v[:0]
            else:
                idx = np.searchsorted(self.surv, self.v)
                idx[idx >= self.surv.size] = 0
                keep = self.surv[idx] == self.v
                self.u, self.v = self.u[keep], self.v[keep]

        def counts(sel):
            uu, cc = np.unique(self.u[sel], return_counts=True)
            return {"u": uu, "c": cc.astype(np.int64)}

        return _fanout(_buckets(self.u, self.P, counts))

    def combine_wave(self, thresh: int | None, *parts) -> tuple[int, int]:
        """Sum my bucket's partials; survivors = {u: deg >= thresh}
        (thresh None means k; a rounds<1 peel passes 1 to recover round
        0's edge-incident set). Returns (#vids with any live spoke,
        #survivors) — the first is round 0's alive count on the first
        call."""
        cols = _columns(parts, "u", "c")
        if cols is None:
            self.surv = np.empty(0, dtype=np.int64)
            return 0, 0
        u, c = cols
        uu = np.unique(u)
        deg = np.zeros(uu.size, dtype=np.int64)
        np.add.at(deg, np.searchsorted(uu, u), c)
        self.surv = uu[deg >= (self.k if thresh is None else thresh)]
        return int(uu.size), int(self.surv.size)

    def survivors(self) -> dict:
        surv = self.surv if self.surv is not None else np.empty(0, np.int64)
        return {"vid": surv.astype(np.int64)}


class SpmvPool:
    """Driver-side handle over P shard actors (`shard`, built as
    `shard.remote(pid, P, *shard_args)`). Starting the pool scatters the
    edge table once, one split per entry of `sides` ("f" by src, "r" by
    dst, "u" as undirected spokes); every round after that is one
    `exchange`. Use it as a context manager and collect the output inside
    the block: on a clean exit the actors are emptied and kept for the
    next pool of the same class, on an error they die."""

    def __init__(
        self,
        edges: ray.data.Dataset,
        shard,
        *shard_args,
        sides: tuple[str, ...] = ("f",),
        src_col: str = "src",
        dst_col: str = "dst",
        weight_col: str | None = None,
        partitions: int | None = None,
    ) -> None:
        eds = edges.materialize()
        # undirected spokes are two partitioned rows per input edge
        rows = eds.count() * (2 if "u" in sides else 1)
        P = self.P = _pool_size(rows, partitions)
        self.idle_key = (ray.get_runtime_context().get_node_id(), shard)
        self.actors = _acquire(self.idle_key, P, shard_args)
        blocks = [r for rb in eds.iter_internal_ref_bundles() for r, _ in rb.blocks]
        try:
            for side in sides:
                split = (side, src_col, dst_col, weight_col)
                feed = [_remote_buckets(_split_edges, P, b, P, *split) for b in blocks]
                self.exchange(("ingest", side), feed=feed)
        except BaseException:
            self.shutdown()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            for a in self.actors:
                a.reset.remote()
            _idle[self.idle_key], self.actors = self.actors, []
        self.shutdown()

    def exchange(self, *stages: tuple, feed: list = ()) -> list:
        """Run one BSP chain; a stage is (actor method, *args). Every
        stage but the last returns P buckets, and bucket q from every
        sender becomes trailing arguments of the next stage on actor q.
        `feed` optionally holds the first stage's inbound buckets: one
        list of P refs per sender. Returns the last stage's per-actor
        results."""
        P = self.P
        if P == 1:
            return ray.get(
                [self.actors[0].chain.remote(stages, *(out[0] for out in feed))]
            )
        inbound = list(feed)
        for i, (method, *args) in enumerate(stages):
            last = i == len(stages) - 1
            sent = []
            for q, actor in enumerate(self.actors):
                call = getattr(actor, method)
                mine = [out[q] for out in inbound]
                sent.append(
                    call.remote(*args, *mine)
                    if last
                    else _remote_buckets(call, P, *args, *mine)
                )
            inbound = sent
        return ray.get(inbound)

    def collect(self, spec: list[tuple]) -> ray.data.Dataset:
        """Gather the named slices into a (vid, *cols) Dataset, one block
        per actor."""
        refs = [a.collect.remote(list(spec)) for a in self.actors]
        return ray.data.from_arrow_refs([_arrow.remote(r) for r in refs])

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []


@ray.remote
def _arrow(cols: dict) -> pa.Table:
    """An actor's output columns as an Arrow block, built in a task so
    the actor never pickles Arrow (see the module docstring)."""
    return pa.table(cols)


def to_dense(ds: ray.data.Dataset, n: int, fill, *cols: str) -> list[np.ndarray]:
    """Scatter the named columns of a (vid, *cols) pool output into dense
    length-n arrays (dtype of `fill`); vids absent from `ds` keep `fill`."""
    out = [np.full(n, fill) for _ in cols]
    for t in ds.iter_batches(batch_format="pyarrow"):
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        for x, c in zip(out, cols):
            x[vid] = t.column(c).to_numpy(zero_copy_only=False)
    return out


def hits_partitioned(
    edges: ray.data.Dataset,
    n: int,
    iters: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """HITS — semantics identical to `algos.hits.hits` (fixed-iteration
    L1-normalized half-steps over the DIRECTED edge table, sum>0 guard).
    Normalization is folded into the next wave's input scale, so stored
    vectors stay raw; the driver sees only P floats per half-step."""
    if iters < 1:
        raise ValueError(f"hits_partitioned: iters must be >= 1, got {iters}")
    with SpmvPool(
        edges, SpmvShard, n, sides=("f", "r"), src_col=src_col,
        dst_col=dst_col, weight_col=weight_col, partitions=partitions,
    ) as pool:
        pool.exchange(("init_vec", "hub", 1.0))
        hub_name, inv_h, inv_a = "hub", 1.0, 1.0
        for _ in range(iters):
            s_a = sum(
                pool.exchange(
                    ("sum_wave", hub_name, inv_h, "f"), ("combine", "auth_raw")
                )
            )
            inv_a = 1.0 / s_a if s_a > 0 else 1.0
            s_h = sum(
                pool.exchange(
                    ("sum_wave", "auth_raw", inv_a, "r"), ("combine", "hub_raw")
                )
            )
            inv_h = 1.0 / s_h if s_h > 0 else 1.0
            hub_name = "hub_raw"
        out = pool.collect(
            [("hub_raw", inv_h, "hub"), ("auth_raw", inv_a, "authority")]
        )
    return out, {"iterations": iters}


def katz_partitioned(
    edges: ray.data.Dataset,
    n: int,
    alpha: float = 0.005,
    beta: float = 1.0,
    iters: int = 5,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Katz centrality — the same truncated power series as
    `algos.pagerank.katz_centrality`: x_k = alpha * A^T x_{k-1} + beta,
    x_0 = beta."""
    with SpmvPool(
        edges, SpmvShard, n, src_col=src_col, dst_col=dst_col,
        weight_col=weight_col, partitions=partitions,
    ) as pool:
        pool.exchange(("init_vec", "x", beta))
        for _ in range(iters):
            pool.exchange(("sum_wave", "x", 1.0, "f"), ("combine", "y"))
            pool.exchange(("axpb", "y", alpha, beta, "x"))
        out = pool.collect([("x", 1.0, "katz")])
    return out, {"iterations": iters}


def pagerank_partitioned(
    edges: ray.data.Dataset,
    n: int,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 100,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "weight",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """PageRank power iteration — same published semantics as
    `algos.pagerank.pagerank` (uniform init, rank/deg scaling with the
    weighted degree, dangling mass redistributed uniformly, `tol <= 0` =
    fixed iteration count). One iteration = a local prep (scale +
    dangling mass), one exchange wave, a local `pagerank_step` finish —
    the driver sums 2P floats. `edges` must be symmetrized."""
    with SpmvPool(
        edges, SpmvShard, n, src_col=src_col, dst_col=dst_col,
        weight_col=weight_col, partitions=partitions,
    ) as pool:
        pool.exchange(("weighted_degree", "deg", "f"))
        pool.exchange(("init_vec", "x", 1.0 / n))
        compute_delta = tol > 0
        delta = np.inf
        iters = 0
        for it in range(max_iter):
            dm = float(sum(pool.exchange(("pr_prep", "x", "deg", "s"))))
            pool.exchange(("sum_wave", "s", 1.0, "f"), ("combine", "y"))
            deltas = pool.exchange(
                ("pr_finish", "y", "x", damping, dm, compute_delta)
            )
            iters = it + 1
            if compute_delta:
                delta = float(sum(deltas))
                if delta < tol:
                    break
        out = pool.collect([("x", 1.0, "rank")])
    return out, {"iterations": iters, "l1_delta": delta}


def cc_partitioned(
    edges: ray.data.Dataset,
    n: int,
    max_rounds: int = 200,
    src_col: str = "src",
    dst_col: str = "dst",
    partitions: int | None = None,
    pointer_doubling_after: int | None = 2,
) -> tuple[ray.data.Dataset, dict]:
    """Min-label connected components: labels init to own vid, one
    synchronous neighbor-min relaxation per round, and from round
    `pointer_doubling_after` on each round is chased with a pointer jump
    label <- label(label), dropping O(diameter) rounds to O(log diameter)
    on chain-shaped components (None disables). Converged labels are the
    unique min-vid-per-component fixpoint either way. `edges` must be
    symmetrized (both directions present)."""
    with SpmvPool(
        edges, SpmvShard, n, src_col=src_col, dst_col=dst_col,
        partitions=partitions,
    ) as pool:
        pool.exchange(("init_index_vec", "lbl"))
        rounds = jumps = 0
        while rounds < max_rounds:
            changed = sum(
                pool.exchange(("min_wave", "lbl", "zero"), ("combine_min", "lbl"))
            )
            rounds += 1
            if changed == 0:
                break
            if (
                pointer_doubling_after is not None
                and rounds >= pointer_doubling_after
            ):
                pool.exchange(
                    ("jump_request", "lbl"),
                    ("jump_serve", "lbl"),
                    ("jump_apply", "lbl"),
                )
                jumps += 1
        out = pool.collect([("lbl", 1.0, "label", "i8")])
    return out, {"rounds": rounds, "jumps": jumps}


def sssp_partitioned(
    edges: ray.data.Dataset,
    n: int,
    seeds,
    hops: int,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "weight",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Hop-bounded Bellman-Ford — the `algos.bfs.sssp_hops` semantics
    (dist after round r = cheapest path using AT MOST r edges; exactly
    one synchronous Jacobi relaxation per round, early exit at the
    fixpoint; unreachable keeps +inf). `edges` must be symmetrized for
    undirected distances."""
    with SpmvPool(
        edges, SpmvShard, n, src_col=src_col, dst_col=dst_col,
        weight_col=weight_col, partitions=partitions,
    ) as pool:
        pool.exchange(("init_seed_vec", "dist", np.asarray(seeds, np.int64), np.inf))
        rounds = 0
        for _ in range(hops):
            changed = sum(
                pool.exchange(
                    ("min_wave", "dist", "weight"), ("combine_min", "dist")
                )
            )
            rounds += 1
            if changed == 0:
                break
        out = pool.collect([("dist", 1.0, "dist")])
    return out, {"hops": hops, "rounds": rounds}


def bfs_partitioned(
    edges: ray.data.Dataset,
    n: int,
    seeds,
    max_rounds: int = 200,
    src_col: str = "src",
    dst_col: str = "dst",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Multi-source BFS hop distances: dist(v) <- min(dist(v), min_u
    dist(u) + 1) to the fixpoint; unreachable keeps the INF sentinel
    dist == n, int64 output."""
    with SpmvPool(
        edges, SpmvShard, n, src_col=src_col, dst_col=dst_col,
        partitions=partitions,
    ) as pool:
        pool.exchange(
            ("init_seed_vec", "dist", np.asarray(seeds, np.int64), float(n))
        )
        rounds = 0
        while rounds < max_rounds:
            changed = sum(
                pool.exchange(("min_wave", "dist", "one"), ("combine_min", "dist"))
            )
            rounds += 1
            if changed == 0:
                break
        out = pool.collect([("dist", 1.0, "dist", "i8")])
    return out, {"rounds": rounds}


def lpa_partitioned(
    edges: ray.data.Dataset,
    n: int,
    max_sweeps: int = 25,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "weight",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Label propagation — singleton init, then synchronous sweeps with
    the algos/lpa.py decision rule (adopt the max-incident-weight
    neighbor label; keep current unless strictly better, or tied with a
    smaller label; self-loops ignored). Hub skew needs no salting: a
    hub's per-label sums are pre-combined on each sender before the
    exchange. `edges` must be symmetrized."""
    with SpmvPool(
        edges, SpmvShard, n, sides=("r",), src_col=src_col, dst_col=dst_col,
        weight_col=weight_col, partitions=partitions,
    ) as pool:
        pool.exchange(("init_index_vec", "lbl"))
        sweeps = 0
        for _ in range(max_sweeps):
            changed = sum(
                pool.exchange(("lpa_wave", "lbl"), ("lpa_combine", "lbl"))
            )
            sweeps += 1
            if changed == 0:
                break
        out = pool.collect([("lbl", 1.0, "label", "i8")])
    return out, {"sweeps": sweeps}


def louvain_level_partitioned(
    edges: ray.data.Dataset,
    n: int,
    m2: float,
    max_sweeps: int = 64,
    weight_col: str = "weight",
    partitions: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Local-move sweeps of one Louvain level from singletons, until a
    sweep moves nothing or `max_sweeps` ran. Returns (assignment Dataset
    (vid, comm), {"sweeps", "moves"}).

    Each sweep is `chunked_local_move_sweep` on a one-chunk plan
    (`sweep_plan(..., chunk=n, ...)`): the pure-Jacobi
    decision against fresh snapshot stats (gain argmax with min-comm
    tie-break, remove-before-gain threshold, singleton-swap guard),
    bit-for-bit on integer-weight graphs. The assignment stays sharded on
    the actors across sweeps, so the edge ingest is paid once per level.
    `edges` must be symmetrized deduped entries."""
    with SpmvPool(
        edges, SpmvShard, n, sides=("r",), weight_col=weight_col,
        partitions=partitions,
    ) as pool:
        pool.exchange(("weighted_degree", "deg", "r"))
        pool.exchange(("init_index_vec", "asn"))
        sweeps = moves = 0
        for _ in range(max_sweeps):
            moved = sum(
                pool.exchange(
                    ("louvain_emit",),
                    ("louvain_gather",),
                    ("stats_serve",),
                    ("louvain_decide", m2),
                )
            )
            sweeps += 1
            moves += moved
            if moved == 0:
                break
        out = pool.collect([("asn", 1.0, "comm", "i8")])
    return out, {"sweeps": sweeps, "moves": moves}


def kcore_peel_partitioned(
    edges: ray.data.Dataset,
    k: int,
    rounds: int = 16,
    src_col: str = "src",
    dst_col: str = "dst",
    partitions: int | None = None,
    n: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """k-core peel: returns (alive vid Dataset, {"rounds", "n_alive"}).
    Exactly `rounds` synchronous peels or the earlier fixpoint (identical
    by monotonicity); per-round semantics match `algos.kcore.
    kcore_bounded` bit for bit. One round is a count wave and a combine;
    the driver sees two ints per actor. Vids need not be dense: ingest
    raises ValueError on a negative endpoint, or on one >= n when n is
    given."""
    with SpmvPool(
        edges, PeelShard, k, n, sides=("u",), src_col=src_col, dst_col=dst_col,
        partitions=partitions,
    ) as pool:

        def wave(thresh: int | None = None) -> list[tuple[int, int]]:
            return pool.exchange(("count_wave",), ("combine_wave", thresh))

        n_prev: int | None = None
        n_alive = 0
        done = 0
        counts: list[tuple[int, int]] = []
        if rounds < 1:
            # round 0's alive set (edge-incident vids): one wave at
            # threshold 1 — every incident vid has >= 1 spoke
            counts = wave(1)
            n_alive = sum(c[1] for c in counts)
        for r in range(rounds):
            counts = wave()
            n_before = sum(c[0] for c in counts)
            n_alive = sum(c[1] for c in counts)
            if n_prev is None:
                n_prev = n_before  # round 0's alive set: edge-incident vids
            done = r + 1
            if n_alive == n_prev:
                break
            n_prev = n_alive

        alive_refs = [
            a.survivors.remote() for a, c in zip(pool.actors, counts) if c[1] > 0
        ]
        if alive_refs:
            alive = ray.data.from_arrow_refs([_arrow.remote(r) for r in alive_refs])
        else:
            alive = ray.data.from_arrow(
                pa.table({"vid": np.empty(0, dtype=np.int64)})
            )
    return alive, {"rounds": done, "n_alive": n_alive}
