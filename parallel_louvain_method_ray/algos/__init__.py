from parallel_louvain_method_ray.algos.louvain_seq import SequentialLouvain
from parallel_louvain_method_ray.algos.louvain import (
    LouvainResult,
    louvain_level,
    modularity,
    coarsen,
    canonicalize_labels,
)

from parallel_louvain_method_ray.algos.pagerank import pagerank_oracle
from parallel_louvain_method_ray.algos.components import (
    connected_components,
    components_oracle,
)
from parallel_louvain_method_ray.algos.lpa import label_propagation, lpa_oracle
from parallel_louvain_method_ray.algos.triangles import (
    triangle_counts,
    triangles_oracle,
)

__all__ = [
    "SequentialLouvain",
    "pagerank_oracle",
    "connected_components",
    "components_oracle",
    "label_propagation",
    "lpa_oracle",
    "triangle_counts",
    "triangles_oracle",
    "LouvainResult",
    "louvain_level",
    "modularity",
    "coarsen",
    "canonicalize_labels",
]
