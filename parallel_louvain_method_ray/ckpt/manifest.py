"""Checkpoint / resume with per-partition lineage + metrics.

The reference planned but never built this (`// TODO: Checkpoint edgelist
here`, reference `src/distcommunity.cpp:899`; its users re-ran the binary
per level on written files). Layout (SURVEY §4.2):

    ckpt_dir/
      level=K/
        manifest.json       format (2), level, n, m, n_entries,
                            total_weight, per-partition lineage
                            ("pid/first_vid" -> n_entries + crc32 of the
                            row's cols and weights), membership hash
        shards/part-*.parquet
                            the level graph's packed CSR shard rows
                            (csr.SHARD_SCHEMA), one file per row, named by
                            row index
        membership.npy      original vid -> community composition at the
                            START of level K
        sweep=J/
          manifest.json     level, sweep, moves, assign hash
          assign.npy        community assignment AFTER sweep J

A level is stored in the graph's own layout and never re-derived from an
entry list. `begin_level` runs one task per shard block: it writes the
block's rows and returns their lineage, so the driver never reads shard
contents. `resume()` and `load_level_graph()` run one task per file: it
reads the row back and recomputes its lineage; the rows become the level
graph's blocks (one per row, none empty) through `graph_from_shards`, with
no shuffle. Every partition's lineage, the graph's `n_entries` and `m`, and
the membership and last sweep's assignment hashes must equal the
manifest's, or the load raises `ValueError("lineage mismatch ...")`. A
level without `"format": 2` (an `edges.parquet/` entry table, written
before shard checkpoints) is refused with a `ValueError`: delete the
directory and rerun to rewrite it.

All writes are atomic (temp + os.replace / temp dir + rename); a level's
manifest is written last, so a level without one is ignored. `resume()`
picks the newest complete level and continues from its newest complete
sweep. In the converging regime
(move counts strictly decreasing — the normal case) sweeps are
deterministic functions of the checkpointed state, so a resumed run
reproduces the uninterrupted run bit-for-bit. The oscillation-guard state
(best_q / best_assign / prev_moves) is NOT checkpointed: a crash landing
mid-oscillation on a P>1 level resumes with a fresh guard, which can abort
the level at a different (equally valid, quality-guarded) sweep than the
uninterrupted run. Completed levels' metrics ARE persisted
(`metrics.json` per level, written by `end_level`) so a resumed run
reports the full multi-level history; a rerun over a finished run takes
its last level's metrics and last sweep assignment (a restore by the
oscillation guard included) instead of sweeping that level again.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from parallel_louvain_method_ray.graph.build import GraphHandle, graph_from_shards
from parallel_louvain_method_ray.graph.csr import unpack_shards

FORMAT = 2


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


def _lineage(table: pa.Table) -> dict:
    """Lineage of packed shard rows, keyed on pid/first-vid (a pid may be
    split into several sub-shards)."""
    out = {}
    for shard in unpack_shards(table):
        first_vid = int(shard.vids[0]) if shard.vids.shape[0] else -1
        out[f"{shard.pid}/{first_vid}"] = {
            "n_entries": shard.n_entries,
            "hash": _arr_hash(shard.cols) + _arr_hash(shard.weights),
        }
    return out


def _part_path(shards_dir: str, row: int) -> str:
    return os.path.join(shards_dir, f"part-{row:05d}.parquet")


def _part_row(name: str) -> int:
    return int(name[len("part-") : -len(".parquet")])


@ray.remote
def _write_shard_rows(block, shards_dir: str, first_row: int) -> dict:
    """Write each row of one packed shard block to its own file, named by
    its row index in the graph; return the rows' lineage."""
    t = block if isinstance(block, pa.Table) else pa.table(block)
    for i in range(t.num_rows):
        pq.write_table(t.slice(i, 1), _part_path(shards_dir, first_row + i))
    return _lineage(t)


@ray.remote(num_returns=2)
def _read_shard_file(path: str):
    t = pq.read_table(path)
    return t, _lineage(t)


def _check(level: int, what: str, got, want) -> None:
    if got != want:
        raise ValueError(
            f"lineage mismatch on resume of level {level}: {what} reads "
            f"{got}; manifest has {want}"
        )


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

        shards_dir = os.path.join(ld, "shards")
        tmp_shards = shards_dir + ".tmp"
        shutil.rmtree(tmp_shards, ignore_errors=True)
        os.makedirs(tmp_shards)

        # one write task per non-empty block; the driver reads only the
        # blocks' row counts, to number the files in row order
        writes, first_row = [], 0
        for bundle in graph.shards.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows == 0:
                    continue  # an empty block may carry no schema
                writes.append(_write_shard_rows.remote(ref, tmp_shards, first_row))
                first_row += meta.num_rows
        lineage = {}
        for part in ray.get(writes):
            lineage.update(part)

        shutil.rmtree(shards_dir, ignore_errors=True)
        os.replace(tmp_shards, shards_dir)
        _atomic_save_npy(os.path.join(ld, "membership.npy"), membership)
        _atomic_write_json(
            os.path.join(ld, "manifest.json"),
            {
                "format": FORMAT,
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

    def _load_level(self, level: int) -> tuple[GraphHandle, dict]:
        """(graph, manifest) of a checkpointed level: one task per shard
        file reads it and recomputes its lineage; the files' rows become
        the graph's blocks, and the lineage must equal the manifest's."""
        ld = self._level_dir(level)
        with open(os.path.join(ld, "manifest.json")) as f:
            man = json.load(f)
        if man.get("format") != FORMAT:
            raise ValueError(
                f"checkpoint {ld} has format {man.get('format', 1)}; only "
                f"format {FORMAT} is read (format 1 stored an edges.parquet "
                "entry table). It must be rewritten: delete the checkpoint "
                "directory and rerun"
            )
        shards_dir = os.path.join(ld, "shards")
        reads = [
            _read_shard_file.remote(os.path.join(shards_dir, name))
            for name in sorted(os.listdir(shards_dir), key=_part_row)
        ]
        lineage = {}
        for part in ray.get([lin for _, lin in reads]):
            lineage.update(part)
        want = man["partitions"]
        for key in sorted(want.keys() | lineage.keys()):
            _check(level, f"partition {key}", lineage.get(key), want.get(key))
        graph = graph_from_shards(
            ray.data.from_arrow_refs([t for t, _ in reads]),
            self.config,
            n_vertices=man["n"],
        )
        _check(
            level,
            "the graph",
            {"n_entries": graph.n_entries, "m": graph.m},
            {"n_entries": man["n_entries"], "m": man["m"]},
        )
        return graph, man

    def load_level_graph(self, level: int):
        """A checkpointed level's graph (None if not checkpointed)."""
        if not os.path.exists(os.path.join(self._level_dir(level), "manifest.json")):
            return None
        return self._load_level(level)[0]

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
        resume. `levels_meta` ends with start_level's own metrics when
        that level finished (its `metrics.json` exists)."""
        levels = self._complete_levels()
        if not levels:
            return None

        level = levels[-1]
        ld = self._level_dir(level)
        graph, man = self._load_level(level)
        membership = np.load(os.path.join(ld, "membership.npy"))
        _check(level, "membership.npy", _arr_hash(membership), man["membership_hash"])

        sweeps = sorted(
            int(n.split("=")[1])
            for n in os.listdir(ld)
            if n.startswith("sweep=")
            and os.path.exists(os.path.join(ld, n, "manifest.json"))
        )
        meta = self._levels_meta(level + 1)
        if sweeps:
            # moves made before the crash count toward this level's
            # "improved" flag and metric totals — without them a resumed
            # level that converges immediately would wrongly end the whole
            # multi-level loop (and under-report sweeps/moves)
            sweep_mans = []
            for s in sweeps:
                with open(os.path.join(self._sweep_dir(level, s), "manifest.json")) as f:
                    sweep_mans.append(json.load(f))
            last = sweeps[-1]
            assign = np.load(os.path.join(self._sweep_dir(level, last), "assign.npy"))
            _check(
                level,
                f"sweep={last}/assign.npy",
                _arr_hash(assign),
                sweep_mans[-1]["assign_hash"],
            )
            prior_moves = sum(sm["moves"] for sm in sweep_mans)
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
