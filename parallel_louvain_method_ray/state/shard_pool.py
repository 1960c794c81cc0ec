"""Persistent CSR shard actors: the one executor of the broadcast tier.

Graph CONSTRUCTION is Dataset-shaped (one shuffle, streaming); the
ITERATIVE phases (Louvain sweeps, PageRank/Katz power iterations, CC
rounds, LPA sweeps) are BSP loops whose per-round work is tiny compared to
a fresh Dataset execution's task-graph overhead. This is the case SURVEY
§7.3 reserves for raw Ray actors: each `ShardWorker` ray.gets its share of
the materialized shard BLOCKS once (zero-copy from the object store) and
then serves per-round kernel calls; a round is one `ray.remote` call per
worker plus small broadcast refs — no scheduling of a new task graph.

Every per-round kernel of the broadcast tier lives here exactly once:
local move (`algos/_local_move.py`), intra-community weight, contraction,
the PageRank/Katz partial, the CC local fixpoint and the LPA best label.
In canonical mode the workers run `chunked_local_move_sweep` (Jacobi
within KERNEL_CHUNK-vertex blocks); in "reference" tie-break mode they run
the strict per-vertex `local_move_sweep`, so a one-shard graph is
bit-identical to the sequential oracle. Callers that hold no pool get an
owned one through `pool_for`.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pyarrow as pa
import ray

from parallel_louvain_method_ray.algos._local_move import (
    KERNEL_CHUNK,
    chunked_local_move_sweep,
    local_move_sweep,
)
from parallel_louvain_method_ray.graph.csr import shard_to_entries, unpack_shards


def _best_labels_for_shard(shard, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-row weighted label argmax with (max weight, min label)
    tie-break. Returns (row_best_label, row_best_weight)."""
    counts = np.diff(shard.indptr)
    row_idx = np.repeat(np.arange(shard.vids.shape[0]), counts)
    src = np.repeat(shard.vids, counts)
    mask = src != shard.cols
    row_idx = row_idx[mask]
    nlab = lab[shard.cols[mask]]
    w = shard.weights[mask]

    # aggregate weight per (row, label)
    key = row_idx * np.int64(lab.max() + 2) + nlab  # label ids < lab.max()+1
    uk, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(uk.shape[0], dtype=np.float64)
    np.add.at(wsum, inv, w)
    rows = uk // np.int64(lab.max() + 2)
    labs = uk % np.int64(lab.max() + 2)

    # per-row argmax: sort by (row asc, weight desc, label asc), take first
    order = np.lexsort((labs, -wsum, rows))
    rows_o, labs_o, w_o = rows[order], labs[order], wsum[order]
    first = np.ones(rows_o.shape[0], dtype=bool)
    first[1:] = rows_o[1:] != rows_o[:-1]
    out_lab = np.full(shard.vids.shape[0], -1, dtype=np.int64)
    out_w = np.zeros(shard.vids.shape[0], dtype=np.float64)
    out_lab[rows_o[first]] = labs_o[first]
    out_w[rows_o[first]] = w_o[first]
    return out_lab, out_w


@ray.remote(num_cpus=0)
def _sum_slices(*parts: np.ndarray) -> np.ndarray:
    acc = parts[0].copy()
    for p in parts[1:]:
        acc += p
    return acc


@ray.remote(num_cpus=0)
def _pr_reduce_slice(
    n: int,
    n_j: int,
    damping: float,
    dm,
    inv_out_j,
    dangling_j,
    p_j,
    r_old_j,
    *idx_then_val,
):
    """One PageRank reduce-scatter slice: sum the W workers' sparse
    partials for this vid range, apply teleport + dangling redistribution,
    and emit the NEXT round's rank slice, scaled slice (rank * inv_out,
    the workers' next input) and the two scalars the driver needs (this
    slice's dangling mass and L1 delta). The driver never touches an O(n)
    array during iteration — its per-round work is summing 2W floats.

    `dm` is either the dangling-mass float itself, or (pipelined mode) a
    list of ObjectRefs to the previous round's W (dsum, delta) scalar
    tuples (nested refs — resolved here), so reducers compute the global
    dangling mass themselves and the driver never blocks mid-round."""
    if not isinstance(dm, float):
        dm = float(sum(s[0] for s in ray.get(list(dm))))
    W = len(idx_then_val) // 2
    idxs = idx_then_val[:W]
    vals = idx_then_val[W:]
    nz = [i for i in range(W) if idxs[i].shape[0]]
    if nz:
        inc = np.bincount(
            np.concatenate([idxs[i] for i in nz]).astype(np.int64),
            weights=np.concatenate([vals[i] for i in nz]),
            minlength=n_j,
        )
    else:
        inc = np.zeros(n_j, dtype=np.float64)
    if p_j is None:  # uniform teleport — keep the historical expression
        new_r = (1.0 - damping) / n + damping * (inc + dm / n)
    else:
        new_r = (1.0 - damping) * p_j + damping * (inc + dm * p_j)
    new_s = new_r * inv_out_j
    dsum = float(new_r[dangling_j].sum())
    delta = (
        float(np.abs(new_r - r_old_j).sum()) if r_old_j is not None else np.inf
    )
    return new_r, new_s, (dsum, delta)


@ray.remote(num_cpus=0, scheduling_strategy="SPREAD")
class ShardWorker:
    """num_cpus=0: the pool is BSP-synchronous (never more than one busy
    round at a time) and sized to cpus/2 by the driver, so reserving CPUs
    only invites scheduling deadlock against lingering Ray Data operator
    actors (observed: flagship on a 4-CPU cluster, extract pool + shard
    pool demands > 4). SPREAD keeps workers off a single node on real
    clusters."""
    def __init__(self, block_refs: list, keep_rows: list):
        self.load(block_refs, keep_rows)

    def load(self, block_refs: list, keep_rows: list) -> bool:
        """(Re)load this worker's shard rows — lets one pool of warm actor
        processes serve successive Louvain levels / algorithms without
        paying actor cold-start again. `keep_rows` is the set of GLOBAL
        shard-row indices this worker owns (LPT-balanced by the driver so a
        hub-heavy sub-shard doesn't straggle the whole BSP round); blocks
        are read zero-copy from plasma, only owned rows are unpacked."""
        # persistent per-level Louvain snapshot (delta-broadcast rounds)
        self._assign = None
        self._tot = None
        self._csize = None
        self._pr_cache = None  # flattened (src, cols, w) for pagerank_iter
        self._pr_idx = None  # sharded-power-iteration index (pr_index)
        keep = set(keep_rows)
        self.shards = []
        gidx = 0
        for ref in block_refs:
            block = ray.get(ref)
            if not isinstance(block, pa.Table):
                block = pa.table(block)
            rows = [i for i in range(block.num_rows) if gidx + i in keep]
            if rows:
                sub = block.take(pa.array(rows, type=pa.int64()))
                self.shards.extend(unpack_shards(sub))
            gidx += block.num_rows
        # unit-weight detection, once per level: deduped link graphs have
        # every entry weight == 1.0, letting the sweep kernel skip the
        # weights stream entirely (8 B/entry of DRAM traffic on a
        # bandwidth-bound kernel) and use count-bincounts
        self._unit_w = [
            bool(sh.weights.shape[0] == 0 or np.all(sh.weights == 1.0))
            for sh in self.shards
        ]
        # int32 CSR ids when they fit: the sweep kernels are memory-
        # bandwidth-bound (random gathers over cols/vids), so halving the
        # id width is a direct throughput win (BASELINE.md scaling note).
        # Copies once per level; indptr stays int64 (offsets).
        for i, sh in enumerate(self.shards):
            hi = max(
                int(sh.vids.max()) if sh.vids.shape[0] else 0,
                int(sh.cols.max()) if sh.cols.shape[0] else 0,
            )
            if hi < 2**31 - 1:
                self.shards[i] = type(sh)(
                    sh.pid,
                    sh.vids.astype(np.int32),
                    sh.indptr,
                    sh.cols.astype(np.int32),
                    sh.weights,
                )
        return True

    def louvain_sweep(
        self, assign_in, deg, m2: float, tie_break: str,
        delta_v=None, delta_c=None,
    ):
        # ObjectRef args are auto-resolved by Ray before the method runs.
        # Every shard must see the PRE-SWEEP global snapshot (partition
        # semantics independent of row grouping), but rebuilding O(V) state
        # per shard would dominate when rows are many. Instead: build the
        # state ONCE per call, and after each shard restore exactly the
        # entries it touched from pristine copies (exact — no float
        # round-trip drift). tot/csize are derived from the assign snapshot
        # (identical to the driver's bincount), halving broadcast volume.
        #
        # DELTA rounds (assign_in=None, delta_v/delta_c set): the moves ARE
        # the broadcast. The worker keeps last round's snapshot and applies
        # the O(moves) delta in place — per-round cost drops from
        # O(V) deserialize + 2 bincounts to O(moves) + 2 memcpys. The
        # driver re-sends the full assignment periodically to pin any
        # incremental float drift in tot (see louvain_level).
        out_v, out_c = [], []
        if not self.shards:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        n = deg.shape[0]
        canonical = tie_break == "canonical"
        # int32 working copy (comm ids < n < 2^31): halves the random-
        # gather traffic of comm[nbr] in the chunked kernel
        small = n < 2**31 - 1
        idt = np.int32 if small else np.int64
        if assign_in is None:
            # delta round (canonical mode only — the pool guarantees it)
            assign = self._assign
            tot = self._tot
            csize = self._csize
            if delta_v is not None and delta_v.shape[0]:
                old = assign[delta_v].astype(np.int64)
                dw = deg[delta_v]
                # compressed scatter-add: unique the touched comm ids,
                # bincount per-comm sums over the inverse index, and add
                # to the O(n) arrays at O(distinct) entries. Replaces both
                # earlier branches — ufunc.at (~0.3us/index: 0.5s/worker
                # at 400k moves) AND the move-heavy fallback's FOUR dense
                # O(n)-alloc bincounts (~4 GB of DRAM traffic per worker
                # per sweep at n=51M). O(moves log moves), no O(n) term.
                keys = np.concatenate([old, delta_c])
                uq, inv = np.unique(keys, return_inverse=True)
                sw = np.concatenate([-dw, dw])
                tot[uq] += np.bincount(inv, weights=sw, minlength=uq.shape[0])
                cnt = np.bincount(
                    inv,
                    weights=np.concatenate(
                        [np.full(old.shape[0], -1.0), np.ones(old.shape[0])]
                    ),
                    minlength=uq.shape[0],
                )
                csize[uq] += cnt.astype(csize.dtype)
                assign[delta_v] = delta_c.astype(idt)
        else:
            assign = np.array(assign_in, dtype=idt)
            tot = np.bincount(assign, weights=deg, minlength=n)
            csize = (
                np.bincount(assign, minlength=n).astype(idt)
                if canonical
                else None
            )
            if canonical:
                self._assign, self._tot, self._csize = assign, tot, csize
        # canonical mode restores tot/csize after each shard by replaying
        # the kernel's undo log in reverse (exact saved pre-values, O(moves))
        # — the former full pristine copies were two O(n) memcpys PER SWEEP
        # PER WORKER (~600 MB at n=51M), pure DRAM traffic that rivaled the
        # kernel's own and killed the 8->32 CPU sweep ratio at mult=1280.
        tot0 = tot.copy() if not canonical else None
        for si, shard in enumerate(self.shards):
            if not canonical:
                # reference-mode GS perturbs tot even for non-movers
                # ((x-d)+d float round-trip), so the touched-entry restore
                # below wouldn't be exact — rebuild the snapshot instead
                assign = np.array(assign_in)
                tot = np.bincount(assign, weights=deg, minlength=n)
            before = assign[shard.vids].copy()
            if canonical:
                undo_log: list = []
                chunked_local_move_sweep(
                    shard.vids,
                    shard.indptr,
                    shard.cols,
                    shard.weights,
                    assign,
                    tot,
                    deg,
                    m2,
                    csize=csize,
                    chunk=KERNEL_CHUNK,
                    undo_log=undo_log,
                    unit_weights=self._unit_w[si],
                )
            else:
                local_move_sweep(
                    shard.vids,
                    shard.indptr,
                    shard.cols,
                    shard.weights,
                    assign,
                    tot,
                    deg,
                    m2,
                    tie_break=tie_break,
                    csize=csize,
                )
            after = assign[shard.vids]
            changed = after != before
            cv = shard.vids[changed]
            cc = after[changed]
            out_v.append(cv)
            out_c.append(cc)
            # exact undo of this shard's effects on the shared state
            if canonical:
                assign[cv] = before[changed]
                for touched, tot_pre, csize_pre in reversed(undo_log):
                    tot[touched] = tot_pre
                    if csize_pre is not None:
                        csize[touched] = csize_pre
            elif cv.shape[0]:
                touched = np.union1d(before[changed], cc)
                assign[cv] = before[changed]
                tot[touched] = tot0[touched]
        return np.concatenate(out_v), np.concatenate(out_c)

    def dump_entries(self):
        """This worker's (src, dst, w) entry arrays — lets the driver
        assemble a small graph's full entry list in one wave instead of
        re-scanning the shards Dataset (used by the Louvain polish pass,
        which is gated to driver-budget-sized graphs anyway). No
        in-method package imports (see lpa_sweep)."""
        srcs, dsts, ws = [], [], []
        for shard in self.shards:
            s, d, w = shard_to_entries(shard)
            srcs.append(np.asarray(s, np.int64))
            dsts.append(np.asarray(d, np.int64))
            ws.append(w)
        if not srcs:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        return (
            np.concatenate(srcs),
            np.concatenate(dsts),
            np.concatenate(ws),
        )

    def touch(self, refs: list) -> bool:
        """Keepalive: resolve a (fresh) plasma object so this process's
        object-directory subscription stays warm (see _start_keepalive)."""
        ray.get(refs[0])
        return True

    def intra_weight(self, assign) -> float:
        s = 0.0
        for shard in self.shards:
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            mask = (src != shard.cols) & (assign[src] == assign[shard.cols])
            s += float(shard.weights[mask].sum())
        return s

    def pagerank_iter(self, s, n: int):
        # per-worker flattened entry view, built once per level: the old
        # per-shard loop paid one O(n) bincount accumulation PER SHARD
        # (~10 full-size array writes per worker per iteration); one
        # concatenated view needs exactly one. Costs one extra copy of
        # this worker's (src, cols, weights) — O(E/W) memory.
        if self._pr_cache is None:
            if self.shards:
                self._pr_cache = (
                    np.concatenate(
                        [
                            np.repeat(sh.vids, np.diff(sh.indptr))
                            for sh in self.shards
                        ]
                    ),
                    np.concatenate([sh.cols for sh in self.shards]),
                    np.concatenate([sh.weights for sh in self.shards]),
                )
            else:
                self._pr_cache = (
                    np.empty(0, np.int64),
                    np.empty(0, np.int64),
                    np.empty(0, np.float64),
                )
        src, cols, w = self._pr_cache
        # dense float64 return: goes to plasma and is read ZERO-COPY by the
        # driver — cheaper than pickling sparse (nz, values) pairs
        return np.bincount(cols, weights=s[src] * w, minlength=n)

    def pagerank_iter_sliced(self, s, n: int, bounds: np.ndarray):
        """Same dense partial, returned PRE-SLICED into len(bounds)-1
        vid ranges (num_returns fan-out) so the pool can reduce-scatter:
        reducer j sums slice j across workers — critical path O(V),
        independent of the worker count (the tree reduce's O(V log W)
        was the anti-scaling term of PageRank at 32 CPUs)."""
        acc = self.pagerank_iter(s, n)
        return tuple(
            acc[bounds[j]:bounds[j + 1]] for j in range(len(bounds) - 1)
        )

    def pr_index(self, bounds) -> bool:
        """Per-level index for the fully-sharded power iteration
        (`ShardPool.pagerank_power`): this worker's flattened entries
        sorted by src, src-slice segment offsets (so rank-slice gathers
        are contiguous), and the UNIQUE dst ids with dst-slice offsets
        (so per-round output is a sparse O(nnz) value vector, not a dense
        O(n) accumulator — the dense per-worker bincount made PageRank
        O(n*W) total traffic and the bench's non-scaling term)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        if self.shards:
            src = np.concatenate(
                [np.repeat(sh.vids, np.diff(sh.indptr)) for sh in self.shards]
            ).astype(np.int64)
            cols = np.concatenate(
                [sh.cols for sh in self.shards]
            ).astype(np.int64)
            w = np.concatenate([sh.weights for sh in self.shards])
        else:
            src = np.empty(0, np.int64)
            cols = np.empty(0, np.int64)
            w = np.empty(0, np.float64)
        order = np.argsort(src, kind="stable")
        src_s, cols_s, w_s = src[order], cols[order], w[order]
        in_pos = np.searchsorted(src_s, bounds)
        uc, inv = np.unique(cols_s, return_inverse=True)
        out_pos = np.searchsorted(uc, bounds)
        self._pr_idx = (
            src_s,
            w_s,
            inv.astype(np.int32) if uc.shape[0] < 2**31 else inv,
            uc,
            in_pos,
            out_pos,
            bounds,
        )
        return True

    def pr_out_index(self):
        """The per-dst-slice LOCAL indices of this worker's sparse partial
        (uc - slice_start), returned once per level via num_returns=W —
        the driver re-passes the same refs to the reducers every round, so
        only the VALUES travel per iteration."""
        _, _, _, uc, _, out_pos, bounds = self._pr_idx
        W = bounds.shape[0] - 1
        return tuple(
            (uc[out_pos[j]:out_pos[j + 1]] - bounds[j]).astype(np.int32)
            if bounds[j + 1] - bounds[j] < 2**31
            else uc[out_pos[j]:out_pos[j + 1]] - bounds[j]
            for j in range(W)
        )

    def pr_partials(self, *s_slices):
        """One power-iteration scatter: gather this worker's needed scaled
        ranks from the W slice refs (contiguous per-slice segments, zero
        copy reads), multiply by entry weights, and bincount into the
        sparse unique-dst value vector. Returns the W per-dst-slice value
        segments (num_returns=W). O(E/W) work and wire — no O(n) term."""
        src_s, w_s, inv, uc, in_pos, out_pos, bounds = self._pr_idx
        svals = np.empty(src_s.shape[0], dtype=np.float64)
        for i, sl in enumerate(s_slices):
            seg = slice(in_pos[i], in_pos[i + 1])
            svals[seg] = sl[src_s[seg] - bounds[i]]
        vals = np.bincount(inv, weights=svals * w_s, minlength=uc.shape[0])
        W = len(s_slices)
        return tuple(
            vals[out_pos[j]:out_pos[j + 1]] for j in range(W)
        )

    def cc_round(self, lab_in):
        out_v, out_l = [], []
        for shard in self.shards:
            lab = np.array(lab_in)
            ip = shard.indptr
            while True:
                row_min = np.minimum.reduceat(lab[shard.cols], ip[:-1])
                cur = lab[shard.vids]
                better = row_min < cur
                if not better.any():
                    break
                lab[shard.vids[better]] = row_min[better]
            ch = lab[shard.vids] != lab_in[shard.vids]
            out_v.append(shard.vids[ch])
            out_l.append(lab[shard.vids[ch]])
        return (
            np.concatenate(out_v) if out_v else np.empty(0, np.int64),
            np.concatenate(out_l) if out_l else np.empty(0, np.int64),
        )

    def lpa_sweep(self, lab):
        # NOTE: no in-method package imports here — this body runs on a
        # worker whose interpreter may not be able to import the package
        # (modules ship by value; a runtime `import` would raise
        # ModuleNotFoundError when the driver cwd isn't the repo root).
        out_v, out_l = [], []
        for shard in self.shards:
            best, bw = _best_labels_for_shard(shard, lab)
            cur = lab[shard.vids]
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            m = (src != shard.cols) & (lab[shard.cols] == np.repeat(cur, counts))
            curw = np.bincount(
                np.repeat(np.arange(shard.vids.shape[0]), counts)[m],
                weights=shard.weights[m],
                minlength=shard.vids.shape[0],
            )
            better = (best >= 0) & ((bw > curw) | ((bw == curw) & (best < cur)))
            out_v.append(shard.vids[better])
            out_l.append(best[better])
        return (
            np.concatenate(out_v) if out_v else np.empty(0, np.int64),
            np.concatenate(out_l) if out_l else np.empty(0, np.int64),
        )

    def contract(self, d, ncomms: int):
        keys, ws = [], []
        for shard in self.shards:
            counts = np.diff(shard.indptr)
            src = np.repeat(shard.vids, counts)
            key = d[src] * np.int64(ncomms) + d[shard.cols]
            uk, inv = np.unique(key, return_inverse=True)
            wsum = np.zeros(uk.shape[0], dtype=np.float64)
            np.add.at(wsum, inv, shard.weights)
            keys.append(uk)
            ws.append(wsum)
        if not keys:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        k = np.concatenate(keys)
        w = np.concatenate(ws)
        # combine duplicate keys across this worker's shards
        uk, inv = np.unique(k, return_inverse=True)
        wsum = np.zeros(uk.shape[0], dtype=np.float64)
        np.add.at(wsum, inv, w)
        return uk, wsum


def _row_assignment(graph, num_workers: int | None):
    """LPT schedule: shard rows (sorted by n_entries desc) go to the
    least-loaded worker — the straggler defense for hub-heavy sub-shards."""
    refs = [
        br
        for rb in graph.shards.iter_internal_ref_bundles()
        for br in rb.block_refs
    ]
    sizes = []
    for b in graph.shards.select_columns(["n_entries"]).iter_batches(
        batch_format="pyarrow"
    ):
        sizes.extend(pa.table(b).column("n_entries").to_pylist())
    if num_workers is None:
        # half the CPUs: leaves headroom for the driver + Ray system
        # processes; beyond ~cpus/2 actors per-round coordination degrades.
        # CLUSTER total, not available_resources: lingering Ray Data
        # operator actors make the latter fluctuate, which made pool sizes
        # (and sweep times) nondeterministic run-to-run.
        total = int(ray.cluster_resources().get("CPU", 8))
        num_workers = max(1, min(max(len(sizes), 1), max(total // 2, 1)))
    loads = [0] * num_workers
    assignment: list[list[int]] = [[] for _ in range(num_workers)]
    for row in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        w = min(range(num_workers), key=lambda j: loads[j])
        assignment[w].append(row)
        loads[w] += max(int(sizes[row]), 1)
    return refs, assignment


class ShardPool:
    """One ShardWorker per LPT-balanced group of shard rows. `reload(graph)`
    swaps the loaded level without respawning actor processes."""

    def __init__(self, graph=None, num_workers: int | None = None):
        self._keepalive_stop = None
        self._keepalive_thread = None
        if graph is None:
            # prespawn mode: start the actor processes NOW (they pay fork +
            # package import in the background) and attach a graph later via
            # reload(). Measured: spawning 16 ShardWorkers after a Ray Data
            # pipeline has run costs 5-15 s serial on the critical path;
            # prespawned at pipeline start the cost hides behind the extract
            # stage and reload() on warm actors is ~0.1 s.
            if num_workers is None:
                total = int(ray.cluster_resources().get("CPU", 8))
                num_workers = max(total // 2, 1)
            self.workers = [
                ShardWorker.remote([], []) for _ in range(num_workers)
            ]
            self.graph = None
            self._have_sweep_state = False
            self._start_keepalive()
            return
        refs, assignment = _row_assignment(graph, num_workers)
        self.workers = [
            ShardWorker.remote(refs, rows) for rows in assignment if rows
        ]
        if not self.workers:
            self.workers = [ShardWorker.remote(refs, [0])]
        self.graph = graph
        self._have_sweep_state = False

    def _start_keepalive(self) -> None:
        """Resolve a FRESH plasma object in every worker a few times per
        second while the rest of the pipeline churns the object store.
        Without this, each worker's first real object resolution after a
        Ray Data pipeline has run pays a 2.5-5.6 s cold path (measured:
        per-consumer object-directory sync, independent of object owner,
        size, or actor warm-up); with a warm subscription the first shard
        load costs ~0.5 s. Runs only between prespawn and first reload()."""
        import threading

        self._keepalive_stop = threading.Event()

        def loop():
            while not self._keepalive_stop.wait(0.2):
                try:
                    ref = ray.put(np.zeros(20_000, np.int64))
                    ray.get(
                        [w.touch.remote([ref]) for w in self.workers],
                        timeout=30,
                    )
                except Exception:
                    return

        self._keepalive_thread = threading.Thread(target=loop, daemon=True)
        self._keepalive_thread.start()

    def _stop_keepalive(self) -> None:
        if self._keepalive_stop is not None:
            self._keepalive_stop.set()
            if self._keepalive_thread is not None:
                self._keepalive_thread.join(timeout=60)
            self._keepalive_stop = None
            self._keepalive_thread = None

    def reload(self, graph) -> "ShardPool":
        self._stop_keepalive()
        refs, assignment = _row_assignment(graph, len(self.workers))
        futs = []
        for i, w in enumerate(self.workers):
            rows = assignment[i] if i < len(assignment) else []
            futs.append(w.load.remote(refs, rows))
        ray.get(futs)
        # workers loaded with no rows simply return empty results
        self.graph = graph
        self._have_sweep_state = False
        return self

    def sweep(self, assign, m2, tie_break, delta=None):
        """One local-move round over every shard; returns (changed_vids,
        new_comms, moves).

        `delta=(moved_vids, new_comms)` promises that `assign` equals the
        snapshot the workers hold from the previous round with exactly
        those moves applied — the pool then broadcasts ONLY the delta
        (canonical mode; falls back to the full array on the first round
        or after a reload)."""
        canonical = tie_break == "canonical"
        use_delta = (
            delta is not None and canonical and self._have_sweep_state
        )
        if use_delta:
            dv = np.asarray(delta[0], dtype=np.int64)
            dc = np.asarray(delta[1], dtype=np.int64)
            futs = [
                w.louvain_sweep.remote(
                    None, self.graph.degrees_ref, m2, tie_break, dv, dc
                )
                for w in self.workers
            ]
        else:
            if assign.shape[0] < 2**31 - 1 and assign.dtype != np.int32:
                # halve the per-round broadcast (comm ids fit int32)
                assign = assign.astype(np.int32)
            assign_ref = ray.put(assign)
            futs = [
                w.louvain_sweep.remote(
                    assign_ref, self.graph.degrees_ref, m2, tie_break
                )
                for w in self.workers
            ]
        outs = ray.get(futs)
        self._have_sweep_state = canonical
        vids = np.concatenate([o[0] for o in outs])
        comms = np.concatenate([o[1] for o in outs])
        return vids, comms, int(vids.shape[0])

    def intra_weight(self, assign) -> float:
        ref = ray.put(assign)
        return float(sum(ray.get([w.intra_weight.remote(ref) for w in self.workers])))

    def collect_entries(self):
        """Full (src, dst, w) entry arrays of the loaded graph, assembled
        in ONE wave from the workers' in-memory shards — ~10x faster than
        re-scanning the shards Dataset driver-side for graphs small enough
        to polish (the only caller)."""
        outs = ray.get([w.dump_entries.remote() for w in self.workers])
        outs = [o for o in outs if o[0].shape[0]]
        if not outs:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        return (
            np.concatenate([o[0] for o in outs]),
            np.concatenate([o[1] for o in outs]),
            np.concatenate([o[2] for o in outs]),
        )

    # below this vertex count the driver sums the W dense partials itself:
    # the reduce-scatter's fan-out (W^2 slice objects + 2W task schedules)
    # costs more than W small memcpy-adds. r4 set this to 4M when the
    # scatter was the mult=256 anti-scaling term — but that predated the
    # late-r4 fully-sharded pagerank_power (cached pr_index, sparse
    # partials): re-measured at n=1.28M/W=16 the DRIVER reduce is now the
    # anti-scaling term (8cpu 0.24 s -> 32cpu 0.46 s per iter, W dense
    # fetch+add serialized on one core) while the sharded path scales
    # (0.17 -> ~0.1 s). Gate lowered to 1M accordingly (r5).
    DRIVER_REDUCE_MAX_N = 1_000_000

    # minimum rank-vector slice size for the sharded power iteration's
    # reduce-scatter: each slice costs W+3 plasma objects per round
    # (~2-4 ms seal+get overhead each), so small vectors use fewer,
    # bigger slices (R = ceil(n / PR_MIN_SLICE), clamped to [2, W])
    PR_MIN_SLICE = 320_000

    def pagerank_iter(self, scaled) -> np.ndarray:
        ref = ray.put(scaled)
        n = self.graph.n
        W = len(self.workers)
        if W == 1:
            return ray.get(self.workers[0].pagerank_iter.remote(ref, n))
        if n <= self.DRIVER_REDUCE_MAX_N:
            # small state: fetch dense partials (zero-copy plasma reads)
            # and add on the driver — O(W * n) memcpy-speed adds
            parts = ray.get(
                [w.pagerank_iter.remote(ref, n) for w in self.workers]
            )
            acc = parts[0].copy()
            for p in parts[1:]:
                acc += p
            return acc
        # REDUCE-SCATTER: each worker returns its dense partial pre-sliced
        # into W vid ranges; reducer task j sums slice j across all
        # workers. Critical path O(V) regardless of W — the previous tree
        # reduce's O(V log W) critical path made PageRank the anti-scaling
        # term at 32 CPUs (sweep speedup 2.8x vs pagerank 1.3x, mult=256).
        bounds = np.linspace(0, n, W + 1).astype(np.int64)
        slice_refs = [
            w.pagerank_iter_sliced.options(num_returns=W).remote(
                ref, n, bounds
            )
            for w in self.workers
        ]
        reduced = [
            _sum_slices.remote(*[slice_refs[w][j] for w in range(W)])
            for j in range(W)
        ]
        return np.concatenate(ray.get(reduced))

    def pagerank_power(
        self,
        inv_out: np.ndarray,
        dangling: np.ndarray,
        damping: float = 0.85,
        tol: float = 0.0,
        max_iter: int = 10,
        r0: np.ndarray | None = None,
        p: np.ndarray | None = None,
        pipeline: bool | None = None,
    ):
        """Fully-sharded power iteration: rank/scaled vectors live as W
        plasma slice refs aligned to the reduce-scatter bounds; workers
        emit sparse O(nnz) partials against a per-level cached index; the
        reducers produce the next round's slices directly. Per-round
        driver work is O(W) scalars — no O(n) compute, no O(n) broadcast
        put, no dense O(n)-per-worker accumulators (those made PageRank
        the non-scaling term of the mult=1280 bench: 8->32 CPU ratio 1.29x
        vs the sweeps' 2.7x). Semantics identical to `algos.pagerank`'s
        driver loop (same teleport/dangling expressions, same L1 stop).

        Returns (ranks, {"iterations", "l1_delta", "iter_secs"})."""
        import time as _time

        n = self.graph.n
        W = len(self.workers)
        # R reduce slices, decoupled from W: every extra slice costs
        # W + 3 plasma objects per round (seal + get overhead ~2-4 ms
        # each), so small rank vectors use FEWER, bigger slices — at
        # n=1.28M / W=16 the W^2=256 value-slice objects per round were
        # ~60% of the iteration (measured); R=4 keeps the per-slice
        # reduce parallel enough while cutting the fan-out 4x. Summation
        # order per dst is by worker index regardless of R, so ranks are
        # bit-identical across R.
        if W == 1:
            R = 1
        else:
            R = int(max(2, min(W, -(-n // self.PR_MIN_SLICE))))
        bounds = np.linspace(0, n, R + 1).astype(np.int64)
        ray.get([w.pr_index.remote(bounds) for w in self.workers])
        if R == 1:
            idx_refs = [[self.workers[0].pr_out_index.remote()]]
            # num_returns=1 returns the 1-tuple itself; unwrap lazily in
            # the reduce call via a tiny shim is overkill — re-fetch once
            idx_refs = [[ray.put(ray.get(idx_refs[0][0])[0])]]
        else:
            idx_refs = [
                list(w.pr_out_index.options(num_returns=R).remote())
                for w in self.workers
            ]
        r = np.full(n, 1.0 / n, dtype=np.float64) if r0 is None else r0
        if p is not None and r0 is None:
            r = p.copy()
        sl = lambda a, j: a[bounds[j]:bounds[j + 1]]  # noqa: E731
        inv_refs = [ray.put(sl(inv_out, j)) for j in range(R)]
        dang_refs = [ray.put(sl(dangling, j)) for j in range(R)]
        p_refs = [
            ray.put(sl(p, j)) if p is not None else None for j in range(R)
        ]
        r_refs = [ray.put(sl(r, j)) for j in range(R)]
        s_refs = [ray.put(sl(r, j) * sl(inv_out, j)) for j in range(R)]
        dm = float(r[dangling].sum())
        iters, delta, iter_secs = 0, np.inf, []

        def submit_round(dm_arg):
            nonlocal r_refs, s_refs
            val_refs = [
                w.pr_partials.options(num_returns=R).remote(*s_refs)
                if R > 1
                else [w.pr_partials.remote(*s_refs)]
                for w in self.workers
            ]
            if R == 1:
                # single worker returns the 1-tuple whole; unwrap
                val_refs = [[ray.put(ray.get(val_refs[0][0])[0])]]
            outs = [
                _pr_reduce_slice.options(num_returns=3).remote(
                    n,
                    int(bounds[j + 1] - bounds[j]),
                    damping,
                    dm_arg,
                    inv_refs[j],
                    dang_refs[j],
                    p_refs[j],
                    r_refs[j],
                    *[idx_refs[wk][j] for wk in range(W)],
                    *[val_refs[wk][j] for wk in range(W)],
                )
                for j in range(R)
            ]
            r_refs = [o[0] for o in outs]
            s_refs = [o[1] for o in outs]
            return [o[2] for o in outs]

        # pipelining pays only when per-worker kernel time dominates the
        # round (large E/W): overlapping rounds on small working sets
        # oversubscribes the node (up to 2 windows x (W partials + R
        # reduces) concurrent zero-cpu tasks) and measured SLOWER and
        # noisier at mult=256 (sync min 0.085 s vs pipelined 0.10-0.13)
        # while slightly faster at mult=1280 (0.27 vs 0.30)
        big_rounds = (
            pipeline
            if pipeline is not None
            else self.graph.n_entries / max(W, 1) >= 4_000_000
        )
        if tol <= 0.0 and R > 1 and max_iter > 2 and big_rounds:
            # PIPELINED mode (fixed iteration count): the previous round's
            # scalar refs are passed INTO the next round's reducers (which
            # sum the dangling mass themselves), so the driver never
            # blocks mid-round to recompute dm — round k+1's partials are
            # already scheduled while round k reduces. A 2-deep window
            # bounds in-flight partials; iter_secs are completion GAPS of
            # consecutive rounds (the steady-state pipelined rate — same
            # min-of-rounds semantics the scaling bench consumes).
            pending: list[list] = []
            t_prev = _time.perf_counter()
            scalars = None
            for k in range(max_iter):
                pending.append(
                    submit_round(dm if k == 0 else pending[-1])
                )
                if len(pending) > 2:
                    scalars = ray.get(pending.pop(0))
                    now = _time.perf_counter()
                    iter_secs.append(now - t_prev)
                    t_prev = now
                    iters += 1
            while pending:
                scalars = ray.get(pending.pop(0))
                now = _time.perf_counter()
                iter_secs.append(now - t_prev)
                t_prev = now
                iters += 1
            delta = float(sum(s[1] for s in scalars))
        else:
            for _ in range(max_iter):
                t0 = _time.perf_counter()
                scalar_refs = submit_round(dm)
                scalars = ray.get(scalar_refs)
                dm = float(sum(s[0] for s in scalars))
                delta = float(sum(s[1] for s in scalars))
                iter_secs.append(_time.perf_counter() - t0)
                iters += 1
                if delta < tol:
                    break
        ranks = np.concatenate(ray.get(r_refs))
        return ranks, {
            "iterations": iters,
            "l1_delta": delta,
            "iter_secs": iter_secs,
        }

    def cc_round(self, labels):
        ref = ray.put(labels)
        outs = ray.get([w.cc_round.remote(ref) for w in self.workers])
        return outs

    def lpa_sweep(self, labels):
        ref = ray.put(labels)
        return ray.get([w.lpa_sweep.remote(ref) for w in self.workers])

    def contract(self, dense, ncomms: int):
        ref = ray.put(dense)
        outs = ray.get([w.contract.remote(ref, ncomms) for w in self.workers])
        k = np.concatenate([o[0] for o in outs]) if outs else np.empty(0, np.int64)
        w = np.concatenate([o[1] for o in outs]) if outs else np.empty(0, np.float64)
        uk, inv = np.unique(k, return_inverse=True)
        wsum = np.zeros(uk.shape[0], dtype=np.float64)
        np.add.at(wsum, inv, w)
        src = (uk // ncomms).astype(np.int64)
        dst = (uk % ncomms).astype(np.int64)
        return src, dst, wsum

    def shutdown(self):
        self._stop_keepalive()
        for w in self.workers:
            ray.kill(w)
        self.workers = []


@contextlib.contextmanager
def pool_for(graph, pool: ShardPool | None = None):
    """The ShardPool a per-round algorithm runs on: the caller's `pool`
    (reloaded when it holds another graph, and left running), or a fresh
    pool owned by this context and shut down on exit — also when the body
    raises, so an interrupted run does not leave actors pinning shard
    blocks until the driver exits."""
    if pool is not None:
        if pool.graph is not graph:
            pool.reload(graph)
        yield pool
        return
    owned = ShardPool(graph)
    try:
        yield owned
    finally:
        owned.shutdown()
