"""Checkpoint / resume with per-partition lineage + metrics.

The reference planned but never built this (`// TODO: Checkpoint edgelist
here`, /root/reference/src/distcommunity.cpp:899; its users re-ran the
binary per level on written files). Layout (SURVEY §4.2):

    ckpt_dir/
      level=K/
        manifest.json       level, n, m, per-partition lineage (pid ->
                            n_entries + content hash), membership hash
        edges.parquet/      the level's symmetrized entry table (one file
                            per block — resumable, never one giant file)
        membership.npy      original vid -> community composition at the
                            START of level K
        sweep=J/
          manifest.json     level, sweep, moves, assign hash
          assign.npy        community assignment AFTER sweep J

All writes are atomic (temp + os.replace / temp dir + rename). `resume()`
picks the newest complete level, rebuilds the graph from its entry table,
and continues from the newest complete sweep. In the converging regime
(move counts strictly decreasing — the normal case) sweeps are
deterministic functions of the checkpointed state, so a resumed run
reproduces the uninterrupted run bit-for-bit. The oscillation-guard state
(best_q / best_assign / prev_moves) is NOT checkpointed: a crash landing
mid-oscillation on a P>1 level resumes with a fresh guard, which can abort
the level at a different (equally valid, quality-guarded) sweep than the
uninterrupted run. Completed levels' metrics ARE persisted
(`metrics.json` per level, written by `end_level`) so a resumed run
reports the full multi-level history.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import numpy as np
import pyarrow as pa

from parallel_louvain_method_ray.graph.build import (
    GraphHandle,
    build_graph,
    entries_dataset,
)
from parallel_louvain_method_ray.graph.csr import unpack_shards


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _atomic_save_npy(path: str, arr: np.ndarray) -> None:
    tmp = path + ".tmp.npy"
    np.save(tmp, arr)
    os.replace(tmp, path)


def _arr_hash(a: np.ndarray) -> str:
    return f"{zlib.crc32(np.ascontiguousarray(a).tobytes()):08x}"


class LouvainCheckpointer:
    """Plugs into `louvain(..., checkpointer=...)` via begin_level /
    on_sweep / resume."""

    def __init__(self, ckpt_dir: str, config=None):
        self.dir = ckpt_dir
        self.config = config
        os.makedirs(ckpt_dir, exist_ok=True)

    # -- paths ------------------------------------------------------------
    def _level_dir(self, level: int) -> str:
        return os.path.join(self.dir, f"level={level}")

    def _sweep_dir(self, level: int, sweep: int) -> str:
        return os.path.join(self._level_dir(level), f"sweep={sweep}")

    # -- write path -------------------------------------------------------
    def begin_level(self, level: int, graph: GraphHandle, membership: np.ndarray):
        ld = self._level_dir(level)
        if os.path.exists(os.path.join(ld, "manifest.json")):
            return  # already checkpointed (resume path)
        os.makedirs(ld, exist_ok=True)

        edges_dir = os.path.join(ld, "edges.parquet")
        tmp_edges = edges_dir + ".tmp"
        shutil.rmtree(tmp_edges, ignore_errors=True)

        lineage = {}

        # per-partition lineage from the shard metadata + content hash
        # (a pid may be split into several sub-shards — key on pid/first-vid)
        for b in graph.shards.iter_batches(batch_format="pyarrow"):
            for shard in unpack_shards(pa.table(b)):
                first_vid = int(shard.vids[0]) if shard.vids.shape[0] else -1
                lineage[f"{shard.pid}/{first_vid}"] = {
                    "n_entries": shard.n_entries,
                    "hash": _arr_hash(shard.cols) + _arr_hash(shard.weights),
                }

        entries_dataset(graph).write_parquet(tmp_edges)
        shutil.rmtree(edges_dir, ignore_errors=True)
        os.replace(tmp_edges, edges_dir)
        _atomic_save_npy(os.path.join(ld, "membership.npy"), membership)
        _atomic_write_json(
            os.path.join(ld, "manifest.json"),
            {
                "level": level,
                "n": graph.n,
                "m": graph.m,
                "n_entries": graph.n_entries,
                "total_weight": graph.total_weight,
                "partitions": lineage,
                "membership_hash": _arr_hash(membership),
            },
        )

    def end_level(self, level: int, metrics) -> None:
        """Persist a COMPLETED level's metrics (dataclass) so a later
        resume reports the full history instead of levels_meta=[]."""
        from dataclasses import asdict

        _atomic_write_json(
            os.path.join(self._level_dir(level), "metrics.json"), asdict(metrics)
        )

    def on_sweep(self, level: int, sweep: int, assign: np.ndarray, moves: int):
        sd = self._sweep_dir(level, sweep)
        os.makedirs(sd, exist_ok=True)
        _atomic_save_npy(os.path.join(sd, "assign.npy"), assign)
        _atomic_write_json(
            os.path.join(sd, "manifest.json"),
            {
                "level": level,
                "sweep": sweep,
                "moves": moves,
                "assign_hash": _arr_hash(assign),
            },
        )

    # -- resume path ------------------------------------------------------
    def _complete_levels(self) -> list[int]:
        out = []
        if not os.path.isdir(self.dir):
            return out
        for name in os.listdir(self.dir):
            if name.startswith("level="):
                lv = int(name.split("=")[1])
                if os.path.exists(os.path.join(self.dir, name, "manifest.json")):
                    out.append(lv)
        return sorted(out)

    def load_level_graph(self, level: int):
        """Rebuild a checkpointed level's graph (None if not checkpointed)."""
        ld = self._level_dir(level)
        if not os.path.exists(os.path.join(ld, "manifest.json")):
            return None
        import ray.data

        with open(os.path.join(ld, "manifest.json")) as f:
            man = json.load(f)
        edges = ray.data.read_parquet(os.path.join(ld, "edges.parquet"))
        return build_graph(
            edges, self.config, already_symmetrized=True, n_vertices=man["n"]
        )

    def _levels_meta(self, before_level: int) -> list:
        """LevelMetrics for completed levels < before_level (from the
        persisted metrics.json files)."""
        from parallel_louvain_method_ray.algos.louvain import LevelMetrics

        out = []
        for lv in self._complete_levels():
            if lv >= before_level:
                continue
            p = os.path.join(self._level_dir(lv), "metrics.json")
            if os.path.exists(p):
                with open(p) as f:
                    out.append(LevelMetrics(**json.load(f)))
        return out

    def resume(self):
        """Returns (graph, membership, levels_meta, start_level,
        start_sweep, start_assign, prior_moves) or None if nothing to
        resume."""
        levels = self._complete_levels()
        if not levels:
            return None
        import ray.data

        level = levels[-1]
        ld = self._level_dir(level)
        with open(os.path.join(ld, "manifest.json")) as f:
            man = json.load(f)
        membership = np.load(os.path.join(ld, "membership.npy"))
        edges = ray.data.read_parquet(os.path.join(ld, "edges.parquet"))
        graph = build_graph(
            edges,
            self.config,
            already_symmetrized=True,
            n_vertices=man["n"],
        )
        # integrity: the rebuilt graph must match the manifest lineage
        if (graph.n_entries, graph.m) != (man["n_entries"], man["m"]):
            raise ValueError(
                f"lineage mismatch on resume of level {level}: rebuilt graph "
                f"has n_entries={graph.n_entries}, m={graph.m}; manifest "
                f"has n_entries={man['n_entries']}, m={man['m']}"
            )

        sweeps = sorted(
            int(n.split("=")[1])
            for n in os.listdir(ld)
            if n.startswith("sweep=")
            and os.path.exists(os.path.join(ld, n, "manifest.json"))
        )
        meta = self._levels_meta(level)
        if sweeps:
            last = sweeps[-1]
            assign = np.load(os.path.join(self._sweep_dir(level, last), "assign.npy"))
            # moves made before the crash count toward this level's
            # "improved" flag and metric totals — without them a resumed
            # level that converges immediately would wrongly end the whole
            # multi-level loop (and under-report sweeps/moves)
            prior_moves = 0
            for s in sweeps:
                with open(os.path.join(self._sweep_dir(level, s), "manifest.json")) as f:
                    prior_moves += json.load(f)["moves"]
            return graph, membership, meta, level, last + 1, assign, prior_moves
        return graph, membership, meta, level, 0, None, 0


class PageRankCheckpointer:
    """Iteration checkpoints for `pagerank(on_iteration=...)`; resume via
    (start_ranks, start_iter)."""

    def __init__(self, ckpt_dir: str, every: int = 1):
        self.dir = ckpt_dir
        self.every = every
        os.makedirs(ckpt_dir, exist_ok=True)

    def __call__(self, it: int, ranks: np.ndarray, delta: float):
        if it % self.every:
            return
        _atomic_save_npy(os.path.join(self.dir, f"ranks_{it}.npy"), ranks)
        _atomic_write_json(
            os.path.join(self.dir, f"iter_{it}.json"),
            {"iteration": it, "l1_delta": delta, "hash": _arr_hash(ranks)},
        )

    def resume(self):
        its = sorted(
            int(n.split("_")[1].split(".")[0])
            for n in os.listdir(self.dir)
            if n.startswith("iter_")
        )
        if not its:
            return None, 0
        it = its[-1]
        return np.load(os.path.join(self.dir, f"ranks_{it}.npy")), it + 1
