"""Engine configuration.

The reference hard-codes its parallelism as the MPI ``comm_size`` and a
contiguous block vertex partition (``/root/reference/src/graph.cpp:123-134``,
``owner(v) = v / local_vcount``, which requires N % P == 0). Here "P" is an
explicit engine parameter and the partition function is the contiguous
range ``src * P // n`` over the densely renumbered vertex ids — balanced
without the divisibility constraint (``src % P`` when n is unknown at
build time, see ``graph.build.build_graph``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    # Number of vertex partitions (CSR shards). On a real cluster this should
    # be a small multiple of total cores; locally keep it modest so per-shard
    # batches stay chunky.
    num_partitions: int = 8

    # Max sweeps per Louvain level (safety cap; the reference loops until a
    # sweep makes 0 moves — `src/community.cpp:69-101`).
    max_sweeps: int = 64

    # Max Louvain levels (coarsening rounds).
    max_levels: int = 32

    # A partition with more CSR entries than this is split into multiple
    # shard rows on vertex boundaries (hub-skew straggler defense — see
    # csr.pack_shard_table).
    max_entries_per_shard: int = 4_000_000

    # After the multi-level loop converges, run up to this many REFINEMENT
    # sweeps on the ORIGINAL graph starting from the composed membership
    # (strict Gauss-Seidel when the graph fits the driver budget,
    # chunked kernel otherwise — see algos/louvain.py). Escapes
    # coarse-level chunk-Jacobi lock-ins; only kept when it improves Q.
    # 0 disables.
    polish_sweeps: int = 3

    # Vertex-count budget for the broadcast engine: above this, iterative
    # algorithms must run on the sharded tier (state/spmv_pool.py)
    # because O(V) dense driver/broadcast state no longer fits. The
    # flagship (pipelines/web_graph.py:_flagship_rest) routes on this
    # knob; 2e8 int64 vids ~ 1.6 GB of driver state, a safe single-node
    # ceiling.
    max_broadcast_vertices: int = 200_000_000


DEFAULT_CONFIG = EngineConfig()

# The one driver-local budget, counted in the rows a path collects: CSR
# entries (Louvain levels, BFS, SSSP), distinct undirected pairs (k-core,
# k-truss) or directed edges (HITS). At or below it the whole loop is
# numpy on the driver — a distributed round is pure fixed cost at that
# size, and Louvain's sequential local moves converge better; above it
# Louvain runs on state/shard_pool.py and BFS, SSSP, k-core and HITS on
# state/spmv_pool.py. Read as `config.DRIVER_LOCAL_ROWS` at call time,
# so setting it to 0 forces the pool path everywhere.
DRIVER_LOCAL_ROWS = 200_000
