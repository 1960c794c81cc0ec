"""A ShardPool an algorithm creates for itself must be shut down even when
a round raises (an `on_iteration` interrupt, a checkpoint hook, a worker
error): otherwise its actors, and the shard blocks they pin, live until
the driver exits. A caller's pool must be left running either way."""

import numpy as np
import pytest

from parallel_louvain_method_ray.algos.components import connected_components
from parallel_louvain_method_ray.algos.louvain import (
    coarsen,
    louvain_level,
    modularity,
)
from parallel_louvain_method_ray.algos.lpa import label_propagation
from parallel_louvain_method_ray.algos.pagerank import katz_centrality, pagerank
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.state.shard_pool import ShardPool
from tests.fixtures import planted_partition_graph


class Boom(Exception):
    pass


def _boom(*args, **kwargs):
    raise Boom()


@pytest.fixture(scope="module")
def graph():
    src, dst, _, _ = planted_partition_graph(60, 3, 5, 1, seed=2)
    return graph_from_entry_arrays(
        np.asarray(src, np.int64), np.asarray(dst, np.int64),
        np.ones(len(src)), EngineConfig(num_partitions=2),
    )


@pytest.fixture
def shutdowns(monkeypatch):
    calls = []
    original = ShardPool.shutdown

    def spy(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(ShardPool, "shutdown", spy)
    return calls


def _singletons(g):
    return np.arange(g.n, dtype=np.int64)


RUNS = {
    "cc_round": lambda g: connected_components(g),
    "lpa_sweep": lambda g: label_propagation(g),
    "pagerank_iter": lambda g: pagerank(g, tol=0.0, max_iter=5),
    "katz": lambda g: katz_centrality(g),
    "sweep": lambda g: louvain_level(g),
    "intra_weight": lambda g: modularity(g, _singletons(g)),
    "contract": lambda g: coarsen(g, _singletons(g)),
}
METHOD = {"katz": "pagerank_iter"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_owned_pool_shut_down_when_a_round_raises(
    graph, shutdowns, monkeypatch, name
):
    monkeypatch.setattr(ShardPool, METHOD.get(name, name), _boom)
    with pytest.raises(Boom):
        RUNS[name](graph)
    assert len(shutdowns) == 1


def test_owned_pool_shut_down_on_iteration_interrupt(graph, shutdowns):
    def interrupt(it, ranks, delta):
        if it == 2:
            raise Boom()

    with pytest.raises(Boom):
        pagerank(graph, tol=0.0, max_iter=8, on_iteration=interrupt)
    assert len(shutdowns) == 1


def test_borrowed_pool_survives_a_raising_round(graph, shutdowns, monkeypatch):
    pool = ShardPool(graph, num_workers=1)
    try:
        with monkeypatch.context() as m:
            m.setattr(ShardPool, "cc_round", _boom)
            with pytest.raises(Boom):
                connected_components(graph, pool=pool)
        assert shutdowns == []
        labels, _ = connected_components(graph, pool=pool)
        assert labels.shape[0] == graph.n
    finally:
        pool.shutdown()
