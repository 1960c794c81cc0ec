"""Regression guard for the round-2 driver hang: the correctness driver
runs at ray.init(num_cpus=32) while the test session pins num_cpus=4,
which hid a join-aggregator fan-out deadlock (three lazy chained joins
x num_partitions aggregator actors oversubscribed the cluster;
`lpa_one_sweep_joined` never returned and the round-2 CORRECTNESS
artifact shipped empty).

This test reproduces the DRIVER's shape — a fresh cluster with EVERY
available CPU (at least 4, so the pools run a multi-actor exchange even
on a small box) and num_partitions == cpus — in a subprocess (the
session fixture owns this process's cluster), with a hard timeout. It
must run the sharded LPA sweeps plus one sharded Louvain level sweep to
completion."""

import os
import subprocess
import sys

_SCRIPT = r"""
import os, sys
sys.path.insert(0, %(repo)r)
import numpy as np
import ray

ray.init(address="local", num_cpus=%(cpus)d, include_dashboard=False)
from parallel_louvain_method_ray.algos.joined import (
    _collect,
    joined_graph_from_handle,
)
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays
from parallel_louvain_method_ray.state.spmv_pool import (
    louvain_level_partitioned,
    lpa_partitioned,
)
from tests.fixtures import planted_partition_graph

src, dst, w, _ = planted_partition_graph(60, 4, 8, 2, seed=7)
g = graph_from_entry_arrays(
    np.asarray(src, np.int64), np.asarray(dst, np.int64),
    np.ones(len(src)), EngineConfig(num_partitions=%(cpus)d),
)
jg = joined_graph_from_handle(g)
labels, meta = lpa_partitioned(jg.edges, jg.n, max_sweeps=2, partitions=%(cpus)d)
n_labels = _collect(labels).num_rows
assert n_labels == jg.n, (n_labels, jg.n)
assign, info = louvain_level_partitioned(
    jg.edges, jg.n, 2.0 * jg.m, max_sweeps=1, partitions=%(cpus)d
)
moves = info["moves"]
assert _collect(assign).num_rows == jg.n
print("DRIVER_SHAPE_OK", n_labels, moves)
ray.shutdown()
"""


def test_joined_lpa_and_louvain_at_full_cpu_fanout(tmp_path):
    cpus = max(os.cpu_count() or 4, 4)
    script = _SCRIPT % {
        "repo": os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "cpus": cpus,
    }
    env = dict(os.environ)
    # fresh cluster for the subprocess; don't inherit the fixture's address
    env.pop("RAY_ADDRESS", None)
    env["RAY_ADDRESS"] = "local"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=420,  # the round-2 hang exceeded 720 s; healthy run ~60 s
        env=env,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "DRIVER_SHAPE_OK" in proc.stdout

_CWD_SCRIPT = r"""
import sys
sys.path.insert(0, %(repo)r)
import numpy as np
import ray

ray.init(address="local", num_cpus=4, include_dashboard=False)
from parallel_louvain_method_ray.algos.louvain import louvain
from parallel_louvain_method_ray.algos.lpa import label_propagation
from parallel_louvain_method_ray.config import EngineConfig
from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays

rng = np.random.default_rng(3)
src = rng.integers(0, 40, 200).astype(np.int64)
dst = rng.integers(0, 40, 200).astype(np.int64)
keep = src != dst
g = graph_from_entry_arrays(
    src[keep], dst[keep], np.ones(int(keep.sum())),
    EngineConfig(num_partitions=4),
)
labels, meta = label_propagation(g, max_sweeps=2)
assert labels.shape[0] == g.n
# distributed levels end in the polish pass, which gathers the entry list
# from the workers (ShardWorker.dump_entries)
import parallel_louvain_method_ray.algos.louvain as louvain_mod
from parallel_louvain_method_ray import config
config.DRIVER_LOCAL_ROWS = 0
louvain_mod.DRIVER_LOCAL_VERTICES = 0
res = louvain(g, EngineConfig(num_partitions=4))
assert res.assignments.shape[0] == g.n
print("FOREIGN_CWD_OK", meta.get("sweeps"))
ray.shutdown()
"""


def test_shard_pool_from_foreign_cwd(tmp_path):
    """Regression: ShardWorker.lpa_sweep and ShardWorker.dump_entries did
    runtime absolute imports of the package inside the actor method; when
    the driver's cwd is not the repo root the worker interpreter can't
    import the package (modules ship pickled BY VALUE, runtime imports
    don't), and the call died with ModuleNotFoundError. Run the pool LPA
    and a distributed Louvain (whose polish pass calls dump_entries) with
    cwd pointing at an empty directory to pin the fix (imports hoisted to
    module scope)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["RAY_ADDRESS"] = "local"
    # make sure the package is NOT importable via cwd
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CWD_SCRIPT % {"repo": repo}],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "FOREIGN_CWD_OK" in proc.stdout
