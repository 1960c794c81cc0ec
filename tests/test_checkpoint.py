"""Resume/lineage (FIXTURES.md §5): kill after sweep j, resume from the
manifest, final outputs identical to an uninterrupted run."""

import json
import os

import numpy as np
import pytest

from parallel_louvain_method_ray.algos.louvain import louvain
from parallel_louvain_method_ray.algos.pagerank import pagerank
from parallel_louvain_method_ray.ckpt.manifest import (
    LouvainCheckpointer,
    PageRankCheckpointer,
)
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from tests.fixtures import planted_partition_graph


class _Killed(Exception):
    pass


class _KillingCheckpointer(LouvainCheckpointer):
    """Simulates a crash: raises after the Nth on_sweep call."""

    def __init__(self, ckpt_dir, config, kill_after: int):
        super().__init__(ckpt_dir, config)
        self.kill_after = kill_after
        self.calls = 0

    def on_sweep(self, level, sweep, assign, moves):
        super().on_sweep(level, sweep, assign, moves)
        self.calls += 1
        if self.calls >= self.kill_after:
            raise _Killed()


def _graph(cfg):
    src, dst, w, _ = planted_partition_graph(90, 3, 5, 1, seed=17)
    return graph_from_entry_arrays(src, dst, w, cfg), (src, dst, w)


def test_louvain_resume_identical(tmp_path):
    cfg = EngineConfig(num_partitions=3)
    graph, (src, dst, w) = _graph(cfg)
    baseline = louvain(graph, cfg)

    ckdir = str(tmp_path / "ck")
    killer = _KillingCheckpointer(ckdir, cfg, kill_after=2)
    graph2 = graph_from_entry_arrays(src, dst, w, cfg)
    with pytest.raises(_Killed):
        louvain(graph2, cfg, checkpointer=killer)

    # crash left level/sweep manifests behind
    assert os.path.exists(os.path.join(ckdir, "level=0", "manifest.json"))
    assert os.path.exists(
        os.path.join(ckdir, "level=0", "sweep=0", "manifest.json")
    )

    resumed = louvain(None_graph_placeholder(cfg, src, dst, w), cfg,
                      checkpointer=LouvainCheckpointer(ckdir, cfg))
    np.testing.assert_array_equal(resumed.assignments, baseline.assignments)
    assert resumed.modularity == pytest.approx(baseline.modularity, abs=1e-12)


def test_resume_rejects_manifest_lineage_mismatch(tmp_path):
    """A checkpointed level whose rebuilt graph disagrees with its manifest
    must not resume — a raise, so `python -O` keeps the check."""
    cfg = EngineConfig(num_partitions=3)
    graph, _ = _graph(cfg)
    ck = LouvainCheckpointer(str(tmp_path / "ck"), cfg)
    ck.begin_level(0, graph, np.arange(graph.n, dtype=np.int64))
    path = os.path.join(ck.dir, "level=0", "manifest.json")
    with open(path) as f:
        man = json.load(f)
    man["n_entries"] += 1
    with open(path, "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="lineage mismatch"):
        ck.resume()


def None_graph_placeholder(cfg, src, dst, w):
    # the resumed run would normally be handed the same input edges; the
    # checkpointer overrides graph+state from the manifest anyway
    return graph_from_entry_arrays(src, dst, w, cfg)


def test_pagerank_resume(tmp_path):
    cfg = EngineConfig(num_partitions=2)
    graph, _ = _graph(cfg)
    full, _ = pagerank(graph, tol=0.0, max_iter=8)

    ckdir = str(tmp_path / "pr")
    ck = PageRankCheckpointer(ckdir)
    partial, _ = pagerank(graph, tol=0.0, max_iter=4, on_iteration=ck)
    start_ranks, start_iter = ck.resume()
    assert start_iter == 4
    resumed, _ = pagerank(
        graph, tol=0.0, max_iter=8, start_ranks=start_ranks, start_iter=start_iter
    )
    np.testing.assert_allclose(resumed, full, atol=0, rtol=0)
