"""Concurrency sensitivity of the local-move kernel (no Ray).

Runs `chunked_local_move_sweep` on identical synthetic CSR shards in K
concurrent OS processes (each shard's `sweep_plan` is built before the
timed sweep, as a worker builds it once per level). Interpretation:

- if per-process throughput at K=16 matches K=1, the kernel is
  compute-bound and any 8->32 CPU scaling shortfall in `bench.py
  --scaling` is BSP round overhead / straggler tail;
- if aggregate throughput flatlines as K grows (what we measure on the
  sandbox: ~38 M entries/s aggregate from K=8 to K=16), the node's
  memory system is the saturated resource, and the single-node
  core-scaling stand-in measures the HARDWARE, not the engine — the
  evidence behind BASELINE.md round-4's efficiency analysis.

Shard shape mirrors the mult=1280 scaling unit at W=16 (400k rows,
mean degree 18, 6.4M-id space) but with UNIFORM random cols — a
worst-case-locality floor; the real domain-clustered graph gathers
mostly-hot cachelines and reaches ~3.5x this probe's aggregate.

Usage: python tools/kernel_concurrency_probe.py  (takes ~1 min; run on
an otherwise-quiet node, and note /proc/loadavg with the output)
"""
import multiprocessing as mp
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_ROWS = 400_000
DEG = 18
N_COMM = 6_400_000


def _make_shard(seed):
    rng = np.random.default_rng(seed)
    vids = np.sort(rng.choice(N_COMM, N_ROWS, replace=False)).astype(np.int32)
    counts = rng.poisson(DEG, N_ROWS).clip(1)
    indptr = np.zeros(N_ROWS + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    E = int(indptr[-1])
    cols = rng.integers(0, N_COMM, E).astype(np.int32)
    return vids, indptr, cols, np.ones(E), E


def _worker(seed, q):
    from parallel_louvain_method_ray.algos._local_move import (
        chunked_local_move_sweep,
        sweep_plan,
    )

    vids, indptr, cols, w, E = _make_shard(seed)
    comm = np.arange(N_COMM, dtype=np.int32)
    deg = np.ones(N_COMM)
    tot = np.ones(N_COMM)
    csize = np.ones(N_COMM, dtype=np.int32)
    # warmup pass: touch every page before timing (first-touch page
    # faults are hypervisor-slow on the sandbox's Firecracker microVM)
    lo = int(indptr[1000])
    warm = sweep_plan(
        vids[:1000], indptr[:1001], cols[:lo], w[:lo], deg, 256, N_COMM
    )
    chunked_local_move_sweep(warm, comm, tot, 2.0 * E, csize=csize)
    # the plan is per-level work: built once, outside the timed sweep
    plan = sweep_plan(vids, indptr, cols, w, deg, 256, N_COMM)
    t0 = time.perf_counter()
    chunked_local_move_sweep(plan, comm, tot, 2.0 * E, csize=csize, undo_log=[])
    q.put(E / (time.perf_counter() - t0))


def main():
    ks = (
        tuple(int(x) for x in sys.argv[1].split(","))
        if len(sys.argv) > 1
        else (1, 2, 4, 8, 16)
    )
    for k in ks:
        q = mp.Queue()
        ps = [mp.Process(target=_worker, args=(s, q)) for s in range(k)]
        for p in ps:
            p.start()
        rates = [q.get() for _ in ps]
        for p in ps:
            p.join()
        load = open("/proc/loadavg").read().split()[0]
        print(
            f"K={k:2d}: per-proc {min(rates) / 1e6:.2f}-{max(rates) / 1e6:.2f}"
            f" M entries/s, aggregate {sum(rates) / 1e6:.1f} M/s, load={load}",
            flush=True,
        )


if __name__ == "__main__":
    main()
