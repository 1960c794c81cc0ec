"""Distributed (Ray Data) Louvain vs the sequential oracle."""

import numpy as np
import pytest

import parallel_louvain_method_ray.algos.louvain as LOUVAIN_MODULE
from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.algos.louvain import (
    canonicalize_labels,
    louvain,
    louvain_level,
    modularity,
)
from parallel_louvain_method_ray.algos.louvain_seq import (
    SequentialCSR,
    SequentialLouvain,
    louvain_reference,
)
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from tests.fixtures import (
    LOUVAIN16_EDGES,
    LOUVAIN16_FINAL_MODULARITY,
    LOUVAIN16_INITIAL_MODULARITY,
    edges_xyz,
    planted_partition_graph,
    random_graph,
)


def test_distributed_modularity_matches_oracle_initial():
    src, dst, w = edges_xyz(LOUVAIN16_EDGES)
    g = graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=4))
    assert g.m == 28
    q = modularity(g, np.arange(g.n, dtype=np.int64))
    assert q == pytest.approx(LOUVAIN16_INITIAL_MODULARITY, abs=1e-6)


def test_single_partition_level_is_exactly_sequential():
    """P=1 runs the identical kernel over the identical CSR -> bit-exact
    parity with the sequential oracle (reference tie-break included)."""
    src, dst, w = random_graph(200, 8, seed=7)
    g = graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=1))
    assign, improved, metrics = louvain_level(g, tie_break="reference")

    lv = SequentialLouvain(SequentialCSR(src, dst, w), tie_break="reference")
    lv.iterate()
    assert improved
    np.testing.assert_array_equal(assign, lv.comm)
    assert metrics.modularity_after == pytest.approx(lv.modularity(), abs=1e-12)


def test_golden16_distributed_level_p1():
    src, dst, w = edges_xyz(LOUVAIN16_EDGES)
    g = graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=1))
    assign, improved, metrics = louvain_level(g, tie_break="reference")
    assert metrics.modularity_after == pytest.approx(
        LOUVAIN16_FINAL_MODULARITY, abs=1e-6
    )
    assert np.unique(assign).shape[0] == 4


@pytest.mark.parametrize("P", [2, 4])
def test_multi_partition_converges_close_to_oracle(P):
    src, dst, w, block = planted_partition_graph(120, 4, 6, 1, seed=3)
    _, q_oracle, _ = louvain_reference(src, dst, w)
    res = louvain(
        graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=P))
    )
    # BSP with P>1 is Grappolo-style: same gain rule, staleness between
    # partitions — a different (often better) local optimum is legitimate
    # (the reference's own distributed mode is rank-RNG dependent,
    # SURVEY §2.4 D2a). Require: no worse than the sequential oracle.
    assert res.modularity >= q_oracle - 0.02
    # planted structure recovered: communities align with blocks
    for c in np.unique(res.assignments):
        members = block[res.assignments == c]
        assert (members == members[0]).mean() > 0.9


def test_multilevel_matches_oracle_p1():
    src, dst, w = random_graph(300, 10, seed=11)
    memb_o, q_o, _ = louvain_reference(src, dst, w, tie_break="canonical")
    res = louvain(
        graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=1)),
        tie_break="canonical",
    )
    assert res.modularity == pytest.approx(q_o, abs=1e-9)
    np.testing.assert_array_equal(
        res.assignments, canonicalize_labels(memb_o)
    )


def test_polish_closes_jacobi_gap_p8(monkeypatch):
    """Distributed levels (chunked Jacobi) + strict-GS polish must land
    within 0.005 of the sequential oracle's Q on a planted graph at P=8."""
    src, dst, w, _ = planted_partition_graph(240, 8, 6, 1, seed=17)
    _, q_oracle, _ = louvain_reference(src, dst, w, tie_break="canonical")
    # force the distributed pool path on every level
    monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
    monkeypatch.setattr(LOUVAIN_MODULE, "DRIVER_LOCAL_VERTICES", 0)
    cfg = EngineConfig(num_partitions=8)
    res = louvain(graph_from_entry_arrays(src, dst, w, cfg))
    assert res.modularity >= q_oracle - 0.005


def test_canonicalize_labels():
    lab = np.array([5, 5, 2, 7, 2])
    np.testing.assert_array_equal(canonicalize_labels(lab), [0, 0, 1, 2, 1])
