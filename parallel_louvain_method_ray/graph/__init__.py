from parallel_louvain_method_ray.graph.csr import CSRShard, pack_shard_table, unpack_shards
from parallel_louvain_method_ray.graph.build import (
    GraphHandle,
    symmetrize,
    dedup_entries,
    build_graph,
    renumber,
    graph_meta,
)

__all__ = [
    "CSRShard",
    "pack_shard_table",
    "unpack_shards",
    "GraphHandle",
    "symmetrize",
    "dedup_entries",
    "build_graph",
    "renumber",
    "graph_meta",
]
