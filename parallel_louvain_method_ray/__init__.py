"""parallel_louvain_method_ray — a Ray-Data-native link-graph analytics engine.

Built from scratch (NOT a port) with the query/data-processing capabilities of
the reference ``nmandrus1/Parallel-Louvain-Method`` (C++/MPI), re-expressed as
``ray.data.Dataset`` pipelines:

- graph construction: symmetrize + dedup + dense renumbering + partitioned CSR
  shards (reference: ``src/graph.cpp``),
- Louvain modularity community detection, multi-level with coarsening
  (reference: ``src/community.cpp`` / ``src/distcommunity.cpp``),
- mandated extensions: PageRank, connected components, label propagation,
  triangle counting over the same edge table,
- web front-end: HTML -> text/link extraction from Common-Crawl-style page
  tables via stateful actor pools,
- training-data ops: dedup (exact/minhash/simhash), similarity search,
  text analysis, multimodal stubs.

Design rules (see SURVEY.md §4):
- Dataset + map_batches over zero-copy Arrow everywhere; actor pools for
  stateful stages; driver-side loops only for iteration control with small
  aggregates.
- ONE all-to-all per graph level: a pid-sort task per input block and a
  CSR-pack task per partition (range or ``src % P`` of src). The packed rows
  live on pool actors for the whole level; each round exchanges O(V) state
  (assignments, community totals) or, on the sharded tier, only the
  partitioned pieces.
- Never call ray.init()/ray.shutdown() in library code.
"""

from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray import graph, algos
from parallel_louvain_method_ray._pickle import ensure_registered

ensure_registered()

__all__ = ["EngineConfig", "graph", "algos", "ensure_registered"]
__version__ = "0.1.0"
