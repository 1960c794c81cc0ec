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

    # Louvain levels with at most this many entries run DRIVER-LOCAL
    # (sequential Gauss-Seidel, P=1 semantics): below this size a
    # distributed round is pure fixed cost, and sequential local moves
    # converge better anyway. Set to 0 to force the distributed path.
    driver_local_entries: int = 200_000

    # Likewise by VERTEX count, COARSE LEVELS ONLY (level > 0): a
    # contracted level with few vertices is driver-local even when its
    # (weighted) entry list is large — distributing a 6k-vertex graph over
    # 32 partitions is pure chunk-Jacobi oscillation for no parallel gain.
    # Level 0 is gated by driver_local_entries alone, so a large input
    # graph never silently runs serial. Set to 0 to disable.
    driver_local_vertices: int = 100_000

    # Vertex-count budget for the broadcast engine: above this, iterative
    # algorithms must run on the sharded tier (state/spmv_pool.py)
    # because O(V) dense driver/broadcast state no longer fits. The
    # flagship (pipelines/web_graph.py:_flagship_rest) routes on this
    # knob; 2e8 int64 vids ~ 1.6 GB of driver state, a safe single-node
    # ceiling.
    max_broadcast_vertices: int = 200_000_000


DEFAULT_CONFIG = EngineConfig()

# Driver-local budget of the fixed-round graph algorithms (BFS, SSSP,
# BFS parents, k-core, k-truss, HITS), counted in the rows each one
# collects: CSR entries, distinct undirected pairs or directed edges. At
# or below it the whole loop is numpy on the driver; above it BFS, SSSP,
# k-core and HITS run on state/spmv_pool.py. Read as
# `config.DRIVER_LOCAL_ROWS` at call time, so setting it to 0 forces the
# pool path everywhere.
DRIVER_LOCAL_ROWS = 200_000
