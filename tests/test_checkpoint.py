"""Resume/lineage (FIXTURES.md §5): kill after sweep j, resume from the
manifest, final outputs identical to an uninterrupted run."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from parallel_louvain_method_ray import config
from parallel_louvain_method_ray.algos.louvain import louvain
from parallel_louvain_method_ray.algos.pagerank import pagerank
from parallel_louvain_method_ray.ckpt.manifest import (
    LouvainCheckpointer,
    PageRankCheckpointer,
)
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import (
    build_graph,
    graph_from_entry_arrays,
)
from parallel_louvain_method_ray.graph.csr import shards_to_entries, unpack_shards
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


@pytest.mark.parametrize("distributed", [False, True])
@pytest.mark.parametrize("max_levels", [1, 32])
def test_rerun_over_finished_checkpoint_is_identical(
    tmp_path, monkeypatch, max_levels, distributed
):
    """A rerun over the checkpoint of a run that finished must return the
    same levels (sweeps, moves, Q), assignments and Q, and sweep none of
    the levels that finished again: whether the run stopped at
    `max_levels` after a level that moved (the CLI's default single
    level) or at a coarse level without moves. `distributed` runs level 0
    on the pool (where the oscillation guard can end it by a restore, and
    the run ends in the polish pass) and the coarse levels on the driver."""
    if distributed:
        monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
    cfg = EngineConfig(num_partitions=3, max_levels=max_levels)
    src, dst, w, _ = planted_partition_graph(300, 3, 5, 1, seed=17)
    graph = graph_from_entry_arrays(src, dst, w, cfg)
    ckdir = str(tmp_path / "ck")

    def files():
        return sorted(
            os.path.relpath(os.path.join(d, f), ckdir)
            for d, _, names in os.walk(ckdir)
            for f in names
        )

    first = louvain(graph, cfg, checkpointer=LouvainCheckpointer(ckdir, cfg))
    before = files()
    again = louvain(graph, cfg, checkpointer=LouvainCheckpointer(ckdir, cfg))
    assert again.levels == first.levels
    np.testing.assert_array_equal(again.assignments, first.assignments)
    assert again.modularity == first.modularity
    # no level swept again: not even the last, unimproved coarse level
    assert files() == before


@pytest.mark.parametrize("distributed", [False, True])
def test_resume_mid_level_reports_identical_levels(tmp_path, monkeypatch, distributed):
    """A run killed after the second sweep of level 0 and resumed reports
    the uninterrupted run's levels field for field: `modularity_before`
    is the Q of the level's singletons, not of the resume point.
    `distributed` runs level 0 on the pool, else on the driver."""
    if distributed:
        monkeypatch.setattr(config, "DRIVER_LOCAL_ROWS", 0)
    cfg = EngineConfig(num_partitions=3)
    # move counts fall every sweep here, so the oscillation guard, which
    # is not checkpointed, never acts
    src, dst, w, _ = planted_partition_graph(300, 6, 8, 1, seed=17)
    baseline = louvain(graph_from_entry_arrays(src, dst, w, cfg), cfg)
    assert baseline.levels[0].sweeps > 2  # the kill lands mid-level

    ckdir = str(tmp_path / "ck")
    with pytest.raises(_Killed):
        louvain(
            graph_from_entry_arrays(src, dst, w, cfg), cfg,
            checkpointer=_KillingCheckpointer(ckdir, cfg, kill_after=2),
        )
    resumed = louvain(
        graph_from_entry_arrays(src, dst, w, cfg), cfg,
        checkpointer=LouvainCheckpointer(ckdir, cfg),
    )
    assert resumed.levels == baseline.levels
    np.testing.assert_array_equal(resumed.assignments, baseline.assignments)
    assert resumed.modularity == baseline.modularity


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


def _level_file(ck, level, row):
    return os.path.join(ck.dir, f"level={level}", "shards", f"part-{row:05d}.parquet")


def test_resume_rejects_corrupted_shard_weight(tmp_path):
    """One weight changed in a shard file, every count kept: the
    per-partition content hash must catch it."""
    cfg = EngineConfig(num_partitions=3)
    graph, _ = _graph(cfg)
    ck = LouvainCheckpointer(str(tmp_path / "ck"), cfg)
    ck.begin_level(0, graph, np.arange(graph.n, dtype=np.int64))
    path = _level_file(ck, 0, 1)
    t = pq.read_table(path)
    w = np.asarray(t.column("weights")[0].values).copy()
    w[0] += 1.0
    t = t.set_column(
        t.schema.get_field_index("weights"),
        "weights",
        pa.array([w], type=t.schema.field("weights").type),
    )
    pq.write_table(t, path)
    with pytest.raises(ValueError, match="lineage mismatch on resume of level 0: partition 1/"):
        ck.resume()


def test_resume_rejects_corrupted_sweep_assignment(tmp_path):
    cfg = EngineConfig(num_partitions=3)
    graph, _ = _graph(cfg)
    ck = LouvainCheckpointer(str(tmp_path / "ck"), cfg)
    ck.begin_level(0, graph, np.arange(graph.n, dtype=np.int64))
    assign = np.arange(graph.n, dtype=np.int64)
    ck.on_sweep(0, 0, assign, moves=5)
    assign[3] = 0
    np.save(os.path.join(ck.dir, "level=0", "sweep=0", "assign.npy"), assign)
    with pytest.raises(ValueError, match="lineage mismatch .* sweep=0/assign.npy"):
        ck.resume()


def test_resume_refuses_entry_table_checkpoint(tmp_path):
    """A level written before shard checkpoints (no format key, an
    edges.parquet/ entry table) is refused, not half-read."""
    cfg = EngineConfig(num_partitions=3)
    ld = tmp_path / "ck" / "level=0"
    (ld / "edges.parquet").mkdir(parents=True)
    pq.write_table(
        pa.table({"src": [0, 1], "dst": [1, 0], "weight": [1.0, 1.0]}),
        str(ld / "edges.parquet" / "0.parquet"),
    )
    np.save(str(ld / "membership.npy"), np.arange(2, dtype=np.int64))
    with open(ld / "manifest.json", "w") as f:
        json.dump({"level": 0, "n": 2, "m": 1, "n_entries": 2, "partitions": {}}, f)
    ck = LouvainCheckpointer(str(tmp_path / "ck"), cfg)
    with pytest.raises(ValueError, match="must be rewritten"):
        ck.resume()
    with pytest.raises(ValueError, match="must be rewritten"):
        ck.load_level_graph(0)


def _entries_hash(graph):
    shards = [s for b in graph.shards.iter_batches(batch_format="pyarrow")
              for s in unpack_shards(pa.table(b))]
    src, dst, w = shards_to_entries(shards)
    order = np.lexsort((w, dst, src))
    return hashlib.sha256(b"".join(a[order].tobytes() for a in (src, dst, w))).hexdigest()


def _block_rows(graph):
    return [
        meta.num_rows
        for bundle in graph.shards.iter_internal_ref_bundles()
        for _, meta in bundle.blocks
    ]


def _assert_same_graph(got, want):
    assert _entries_hash(got) == _entries_hash(want)
    assert (got.n, got.m, got.n_entries, got.total_weight) == (
        want.n, want.m, want.n_entries, want.total_weight)
    np.testing.assert_array_equal(got.degrees(), want.degrees())
    assert got.row_entries == want.row_entries
    # one block per shard row, none empty
    assert got.shards.num_blocks() == len(got.row_entries)
    assert _block_rows(got) == [1] * len(got.row_entries)


def _hub_graph(cfg):
    """Star on vertex 0 plus a ring, symmetrized: vertex 0's 39 entries
    exceed `max_entries_per_shard`, so its partition splits into
    sub-shards."""
    n = 40
    s = np.concatenate([np.zeros(n - 1, np.int64), np.arange(1, n)])
    d = np.concatenate([np.arange(1, n), np.r_[2:n, 1]])
    src, dst = np.concatenate([s, d]), np.concatenate([d, s])
    w = np.ones(src.shape[0], dtype=np.float64)
    return graph_from_entry_arrays(
        src, dst, w, cfg, already_symmetrized=True, n_vertices=n
    )


def test_resume_round_trips_level_graphs(tmp_path):
    """resume() gives back the checkpointed level graph (a coarse level
    built from driver arrays, with a split hub), and load_level_graph(0)
    the build_graph level 0."""
    cfg = EngineConfig(num_partitions=3, max_entries_per_shard=16)
    _, (src, dst, w) = _graph(cfg)
    g0 = build_graph(
        ray.data.from_arrow(pa.table({"src": src, "dst": dst, "weight": w})), cfg
    )
    g1 = _hub_graph(cfg)
    assert len(g1.row_entries) > 3  # the hub's partition was split
    ck = LouvainCheckpointer(str(tmp_path / "ck"), cfg)
    ck.begin_level(0, g0, np.arange(g0.n, dtype=np.int64))
    membership = np.arange(g0.n, dtype=np.int64) % g1.n
    ck.begin_level(1, g1, membership)

    graph, got_membership, _, level, sweep, assign, moves = ck.resume()
    assert (level, sweep, assign, moves) == (1, 0, None, 0)
    np.testing.assert_array_equal(got_membership, membership)
    _assert_same_graph(graph, g1)
    _assert_same_graph(ck.load_level_graph(0), g0)
    assert ck.load_level_graph(2) is None


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
