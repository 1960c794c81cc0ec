"""One benchmark run of one workload, in one process.

    python3 perfbench/harness.py --workload graph_iterative --seed 0 \
        --seconds 20 --trace 0 --result <file> [--size toy]

`perfbench/run.py` starts this under a wall-clock limit and prints the
result it leaves in `--result`; run it through `run.py`.

A run: import the package, start Ray at 2 logical CPUs and prespawn a
`ShardPool` (three times, the median is the set-up time), make or load
the inputs, check the 16-vertex reference golden values, then run the
workload's job until `--seconds` is used up (at least once). Each job is
followed by its correctness gates, outside the timed window. With
`--trace 1` the run makes one untraced job and one traced job and reports
the per-layer metrics of the traced one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer, wrap_methods  # noqa: E402

import inputs  # noqa: E402

NUM_CPUS = 2
SETUP_REPEATS = 3
OBJECT_STORE_BYTES = 1_000_000_000
PKG = "parallel_louvain_method_ray"
# the modules the jobs call into, imported (and timed) during set-up
PKG_MODULES = (
    "algos.components", "algos.louvain", "algos.lpa", "algos.pagerank",
    "algos.triangles", "ckpt.manifest", "dedup.minhash", "graph.build",
    "graph.csr", "pipelines.web_graph", "sim.search", "state.shard_pool",
    "web.extract", "web.pages",
)

# sizes per workload: "default" is what the benchmark measures, "toy" the
# sf0.001-sized smoke mode.
# `max_sweeps` caps each Louvain level (the engine default is 64): a salted
# planted graph needs 33-64 level-0 sweeps depending on the seed, and a
# fixed budget keeps the work of a run the same for every seed.
SIZES = {
    "web_flagship": {
        "default": {"pages": 16_000, "docs": 2_000, "vecs": 800},
        "toy": {"pages": 2_000, "docs": 250, "vecs": 100},
    },
    "graph_iterative": {
        "default": {"pages": 48_000, "max_sweeps": 32},
        "toy": {"pages": 4_000},
    },
    "louvain_resume": {
        "default": {"pages": 48_000, "interrupt": 10, "max_sweeps": 32},
        "toy": {"pages": 2_000, "interrupt": 2},
    },
}

# values recorded at the default size with seed 0 (web_flagship: every
# seed, its link graph does not depend on the seed)
RECORDED = {
    "web_flagship": {"entries": 229_800, "q": 0.803897, "triangles": 15_448},
    "graph_iterative": {"entries": 854_844, "q": 0.657687},
    "louvain_resume": {"entries": 854_844, "q": 0.657687},
}
Q_RECORDED_TOL = 1e-6

POOL_METHODS = (
    "sweep", "reload", "contract", "collect_entries", "intra_weight",
    "pagerank_iter", "pagerank_power", "cc_round", "lpa_sweep",
)
CKPT_METHODS = ("begin_level", "on_sweep", "end_level", "resume")

# per-layer metric -> unit; every workload reports all of them (0 where
# the workload does not exercise the layer)
PER_LAYER_UNITS = {
    "web.extract.s": "s",
    "web.extract.pages": "count",
    "web.links_to_edges.s": "s",
    "web.links_to_edges.edges": "count",
    "raydata.read.s": "s",
    "raydata.map.s": "s",
    "raydata.shuffle.s": "s",
    "pipelines.renumber_urls.s": "s",
    "pipelines.renumber_urls.vertices": "count",
    "graph.build_graph.s": "s",
    "graph.build_graph.entries": "count",
    "graph.build_graph.shard_skew": "ratio",
    "graph.build_graph.shard_mb": "MB",
    "louvain.s": "s",
    "louvain.levels": "count",
    "louvain.sweeps": "count",
    "louvain.moves": "count",
    "louvain.sweep_s.p50": "s",
    "louvain.sweep_s.max": "s",
    "louvain.driver_self_s": "s",
    "shard_pool.prespawn_s": "s",
    "shard_pool.sweep.calls": "count",
    "shard_pool.sweep.s": "s",
    "shard_pool.sweep.delta_share": "ratio",
    "shard_pool.sweep.put_mb": "MB",
    "shard_pool.reload.calls": "count",
    "shard_pool.reload.s": "s",
    "shard_pool.contract.s": "s",
    "shard_pool.collect_entries.s": "s",
    "shard_pool.intra_weight.s": "s",
    "shard_pool.pagerank_iter.calls": "count",
    "shard_pool.pagerank_iter.s": "s",
    "shard_pool.cc_round.calls": "count",
    "shard_pool.lpa_sweep.calls": "count",
    "pagerank.s": "s",
    "pagerank.iterations": "count",
    "components.s": "s",
    "components.rounds": "count",
    "lpa.s": "s",
    "lpa.sweeps": "count",
    "triangles.s": "s",
    "triangles.count": "count",
    "minhash.s": "s",
    "cosine_topk.s": "s",
    "ckpt.begin_level.s": "s",
    "ckpt.on_sweep.s": "s",
    "ckpt.end_level.s": "s",
    "ckpt.resume.s": "s",
    "ckpt.mb_written": "MB",
    "ckpt.files": "count",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
}

# counts that must agree between the untraced and the traced job
PATH_COUNTS = (
    "louvain.levels", "louvain.sweeps", "louvain.moves", "pagerank.iterations",
    "components.rounds", "lpa.sweeps",
)


class Interrupted(Exception):
    """Raised by the harness inside `on_sweep` to cut a Louvain run short."""


class SweepRecorder:
    """Checkpointer-shaped hook for `louvain(checkpointer=...)`: notes when
    each sweep ends and forwards every call to `inner` (a real
    `LouvainCheckpointer`) when one is given; without one it writes
    nothing. Raises `Interrupted` after `interrupt_after` sweeps."""

    def __init__(self, inner=None, interrupt_after: int | None = None):
        self.inner = inner
        self.interrupt_after = interrupt_after
        self.marks: list[tuple[str, float]] = []
        self.n_sweeps = 0

    def resume(self):
        return self.inner.resume() if self.inner is not None else None

    def load_level_graph(self, level: int):
        return self.inner.load_level_graph(level) if self.inner is not None else None

    def begin_level(self, level, graph, membership):
        if self.inner is not None:
            self.inner.begin_level(level, graph, membership)
        self.marks.append(("begin", time.perf_counter()))

    def on_sweep(self, level, sweep, assign, moves):
        if self.inner is not None:
            self.inner.on_sweep(level, sweep, assign, moves)
        self.marks.append(("sweep", time.perf_counter()))
        self.n_sweeps += 1
        if self.interrupt_after is not None and self.n_sweeps >= self.interrupt_after:
            raise Interrupted(f"interrupted after sweep {self.n_sweeps}")

    def end_level(self, level, metrics):
        if self.inner is not None:
            self.inner.end_level(level, metrics)

    def sweep_seconds(self) -> list[float]:
        return [
            t - self.marks[i - 1][1]
            for i, (kind, t) in enumerate(self.marks)
            if kind == "sweep" and i > 0
        ]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _steal_s():
    """CPU time the hypervisor gave to other guests since boot, summed over
    CPUs (the `steal` column of /proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _reset_peak_rss() -> None:
    """Reset this process's peak RSS (Linux: clear_refs 5 resets VmHWM)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    """The checkout's commit, None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _package_sha1() -> str:
    """A hash of the package's Python sources."""
    h = hashlib.sha1()
    pkg = os.path.join(ROOT, PKG)
    for dirpath, _, filenames in sorted(os.walk(pkg)):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    h.update(os.path.relpath(path, ROOT).encode() + f.read())
    return h.hexdigest()


def _dir_stats(path: str) -> tuple[int, int]:
    files = nbytes = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            files += 1
            nbytes += os.path.getsize(os.path.join(dirpath, name))
    return files, nbytes


def ray_temp_dir() -> str:
    """Ray's session directory, inside the checkout when the socket paths
    Ray derives from it fit the 107-byte Unix socket limit."""
    inside = os.path.join(ROOT, ".perfbench", "ray")
    if len(inside) <= 40:
        return inside
    import tempfile

    return os.path.join(tempfile.gettempdir(), f"pb-{os.getuid()}")


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.size = SIZES[args.workload][args.size]
        self.recorded = None
        if args.size == "default" and (args.seed == 0 or args.workload == "web_flagship"):
            self.recorded = RECORDED[args.workload]
        self.cache = os.path.join(ROOT, ".perfbench", "cache")
        self.scratch = os.path.join(ROOT, ".perfbench", "run")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.jobs: list[dict] = []
        self.setup: dict = {}
        self.traced: dict | None = None
        self.pool = None
        self.meta = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "loadavg_start": _loadavg(),
            "steal_s_start": _steal_s(),
            "cpu_count": os.cpu_count(),
            "ray_num_cpus": NUM_CPUS,
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "package_sha1": _package_sha1(),
        }

    # -- bookkeeping ------------------------------------------------------
    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def operation(self, name: str, fn):
        """Run one counted operation; an exception or a failed gate inside
        it counts it as failed."""
        self.attempted += 1
        before = len(self.failures)
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{name}: exception")
            out = None
        if len(self.failures) > before:
            self.failed += 1
        return out

    # -- set-up -----------------------------------------------------------
    def start_ray(self):
        import ray

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            logging_level=logging.WARNING,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=ray_temp_dir(),
        )
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def prespawn(self):
        import numpy as np
        import ray

        from parallel_louvain_method_ray.state.shard_pool import ShardPool

        pool = ShardPool()
        ref = ray.put(np.zeros(1, np.int64))
        ray.get([w.touch.remote([ref]) for w in pool.workers])
        return pool

    def set_up(self):
        t0 = time.perf_counter()
        import pyarrow
        import ray

        for name in PKG_MODULES:
            importlib.import_module(f"{PKG}.{name}")
        from parallel_louvain_method_ray._pickle import ensure_registered

        ensure_registered()
        import_s = time.perf_counter() - t0
        self.meta["ray_version"] = ray.__version__
        self.meta["pyarrow_version"] = pyarrow.__version__

        cycles, prespawn = [], []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.start_ray()
            t1 = time.perf_counter()
            pool = self.prespawn()
            t2 = time.perf_counter()
            cycles.append(t2 - t0)
            prespawn.append(t2 - t1)
            if i < SETUP_REPEATS - 1:
                pool.shutdown()
                ray.shutdown()
            else:
                self.pool = pool

        t0 = time.perf_counter()
        self.prepare_inputs()
        input_s = time.perf_counter() - t0
        self.setup = {
            "import_s": import_s,
            "ray_init_prespawn_s": cycles,
            "prespawn_s": prespawn,
            "input_s": input_s,
            "setup_s": import_s + _median(cycles) + input_s,
        }

    def prepare_inputs(self):
        import pyarrow.parquet as pq
        import ray.data

        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch, exist_ok=True)
        seed = self.args.seed
        if self.workload == "web_flagship":
            # keyed on the package sources and the Ray version, so pages
            # written by other code are never read
            n = self.size["pages"]
            key = f"pages-{n}-{self.meta['package_sha1'][:12]}-ray{ray.__version__}"
            self.pages_dir = os.path.join(self.cache, key)
            self.meta["pages_cache_hit"] = os.path.exists(os.path.join(self.pages_dir, "_done"))
            if not self.meta["pages_cache_hit"]:
                self.write_pages(n)
            self.docs_path = os.path.join(self.scratch, "documents.parquet")
            self.emb_path = os.path.join(self.scratch, "embeddings.parquet")
            pq.write_table(inputs.documents(self.size["docs"], seed), self.docs_path)
            pq.write_table(inputs.embeddings(self.size["vecs"], seed), self.emb_path)
        else:
            blocks = inputs.planted_edges(self.size["pages"], seed)
            self.edges = ray.data.from_arrow(blocks).materialize()

    def write_pages(self, n_pages: int):
        """The pages table in the BASELINE input_hint schema, written once
        per size and package version (it does not depend on the seed)."""
        import ray.data

        from parallel_louvain_method_ray.web.pages import synthesize_pages

        tmp = self.pages_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        ids = ray.data.range(n_pages, override_num_blocks=16)
        synthesize_pages(
            ids, n_pages=n_pages, n_domains=max(50, n_pages // 400),
            n_hub_pages=3, id_column="id",
        ).write_parquet(tmp)
        open(os.path.join(tmp, "_done"), "w").close()
        shutil.rmtree(self.pages_dir, ignore_errors=True)
        os.replace(tmp, self.pages_dir)

    def check_golden(self):
        """The reference's 16-vertex Louvain fixture: Q -0.0714286 before,
        0.346301 after, 4 communities."""
        import numpy as np

        from parallel_louvain_method_ray.algos.louvain import louvain_level, modularity
        from parallel_louvain_method_ray.config import EngineConfig
        from parallel_louvain_method_ray.graph.build import graph_from_entry_arrays

        sys.path.insert(0, ROOT)
        from tests.fixtures import (
            LOUVAIN16_EDGES, LOUVAIN16_FINAL_MODULARITY,
            LOUVAIN16_INITIAL_MODULARITY, LOUVAIN16_N_COMMUNITIES, edges_xyz,
        )

        src, dst, w = edges_xyz(LOUVAIN16_EDGES)
        g = graph_from_entry_arrays(src, dst, w, EngineConfig(num_partitions=1))
        q0 = modularity(g, np.arange(g.n, dtype=np.int64))
        assign, _, metrics = louvain_level(g, tie_break="reference")
        self.gate(abs(q0 - LOUVAIN16_INITIAL_MODULARITY) <= 1e-6, f"golden Q0 {q0}")
        self.gate(
            abs(metrics.modularity_after - LOUVAIN16_FINAL_MODULARITY) <= 1e-6,
            f"golden Q {metrics.modularity_after}",
        )
        self.gate(
            np.unique(assign).shape[0] == LOUVAIN16_N_COMMUNITIES,
            "golden community count",
        )

    # -- jobs -------------------------------------------------------------
    def config(self):
        from parallel_louvain_method_ray.config import EngineConfig

        if "max_sweeps" in self.size:
            return EngineConfig(num_partitions=8, max_sweeps=self.size["max_sweeps"])
        return EngineConfig(num_partitions=8)

    def run_job(self, tracer: Tracer, wrapped=contextlib.nullcontext) -> dict:
        fn = {
            "web_flagship": self.job_web,
            "graph_iterative": self.job_graph,
            "louvain_resume": self.job_resume,
        }[self.workload]
        _reset_peak_rss()
        t0 = time.perf_counter()
        with wrapped(), tracer.span("job") as job:
            out = fn(tracer)
        out["job_s"] = time.perf_counter() - t0
        out["stages"] = {}
        for s in tracer.spans:
            if s["parent"] == job["id"]:
                out["stages"][s["name"]] = out["stages"].get(s["name"], 0.0) + s["end"] - s["start"]
        out["rss_mb"] = _peak_rss_mb()
        return out

    def graph_algos(self, tr: Tracer, o: dict, cfg, m_mode: str, pr_iters: int) -> None:
        """Louvain, PageRank, CC and LPA on `o["graph"]`, all on the
        prespawned pool."""
        from parallel_louvain_method_ray.algos.components import connected_components
        from parallel_louvain_method_ray.algos.louvain import louvain
        from parallel_louvain_method_ray.algos.lpa import label_propagation
        from parallel_louvain_method_ray.algos.pagerank import pagerank

        graph = o["graph"]
        o["m_mode"] = m_mode
        with tr.span("louvain") as s:
            o["louvain"] = louvain(
                graph, cfg, m_mode=m_mode, pool=self.pool, checkpointer=o["recorder"]
            )
        o["louvain_s"] = s["end"] - s["start"]
        with tr.span("pagerank") as s:
            o["ranks"], o["pr_meta"] = pagerank(graph, tol=0.0, max_iter=pr_iters, pool=self.pool)
        o["pagerank_s"] = s["end"] - s["start"]
        with tr.span("components"):
            o["labels"], o["cc_meta"] = connected_components(graph, pool=self.pool)
        with tr.span("lpa"):
            o["lpa_labels"], o["lpa_meta"] = label_propagation(graph, max_sweeps=5, pool=self.pool)

    def job_web(self, tr: Tracer) -> dict:
        import ray.data

        from parallel_louvain_method_ray.algos.triangles import triangle_counts
        from parallel_louvain_method_ray.dedup.minhash import minhash_signatures
        from parallel_louvain_method_ray.graph.build import build_graph
        from parallel_louvain_method_ray.pipelines.web_graph import renumber_urls
        from parallel_louvain_method_ray.sim.search import cosine_topk, queries_from_dataset
        from parallel_louvain_method_ray.web.extract import extract_pages, links_to_edges

        cfg = self.config()
        o: dict = {"recorder": SweepRecorder()}
        with tr.span("web.extract"):
            pages = ray.data.read_parquet(self.pages_dir)
            o["extracted"] = extract_pages(pages, batch_size=256).materialize()
        with tr.span("web.links_to_edges"):
            o["edges_str"] = links_to_edges(o["extracted"]).materialize()
        with tr.span("pipelines.renumber_urls"):
            edges, _vertices, n = renumber_urls(o["edges_str"])
        with tr.span("graph.build_graph"):
            o["graph"] = build_graph(edges, cfg, n_vertices=n)
        self.graph_algos(tr, o, cfg, m_mode="weight", pr_iters=10)
        with tr.span("triangles"):
            o["tri"], o["n_triangles"] = triangle_counts(o["graph"])
        with tr.span("minhash"):
            docs = ray.data.read_parquet(self.docs_path, columns=["doc_id", "text"])
            o["n_sigs"] = minhash_signatures(docs).materialize().count()
        with tr.span("cosine_topk"):
            emb = ray.data.read_parquet(self.emb_path, columns=["vec_id", "embedding"])
            qids, qmat = queries_from_dataset(emb, [0, 1, 2, 3, 4])
            o["topk"] = cosine_topk(emb, qmat, qids, k=10)
        o["pages_n"] = o["extracted"].count()
        o["edges_n"] = o["edges_str"].count()
        o["vertices_n"] = n
        return o

    def job_graph(self, tr: Tracer) -> dict:
        from parallel_louvain_method_ray.graph.build import build_graph

        cfg = self.config()
        o: dict = {"recorder": SweepRecorder()}
        with tr.span("graph.build_graph"):
            o["graph"] = build_graph(self.edges, cfg, n_vertices=self.size["pages"])
        self.graph_algos(tr, o, cfg, m_mode="count", pr_iters=20)
        return o

    def job_resume(self, tr: Tracer) -> dict:
        from parallel_louvain_method_ray.algos.louvain import louvain
        from parallel_louvain_method_ray.ckpt.manifest import LouvainCheckpointer
        from parallel_louvain_method_ray.graph.build import build_graph

        cfg = self.config()
        ckdir = os.path.join(self.scratch, f"ckpt-{len(self.jobs)}")
        rec = SweepRecorder(
            LouvainCheckpointer(ckdir, cfg), interrupt_after=self.size["interrupt"]
        )
        o: dict = {"recorder": rec, "ckdir": ckdir, "interrupted": False, "m_mode": "count"}
        with tr.span("graph.build_graph"):
            graph = o["graph"] = build_graph(self.edges, cfg, n_vertices=self.size["pages"])
        with tr.span("louvain") as s1:
            try:
                louvain(graph, cfg, pool=self.pool, checkpointer=rec)
            except Interrupted:
                o["interrupted"] = True
        rec.inner = LouvainCheckpointer(ckdir, cfg)
        rec.interrupt_after = None
        with tr.span("louvain") as s2:
            o["louvain"] = louvain(graph, cfg, pool=self.pool, checkpointer=rec)
        o["louvain_s"] = (s1["end"] - s1["start"]) + (s2["end"] - s2["start"])
        o["pagerank_s"] = 0.0
        return o

    # -- gates ------------------------------------------------------------
    @staticmethod
    def graph_entries(graph):
        import numpy as np
        import pyarrow as pa

        from parallel_louvain_method_ray.graph.csr import shard_to_entries, unpack_shards

        srcs, dsts, ws = [], [], []
        for b in graph.shards.iter_batches(batch_format="pyarrow"):
            for shard in unpack_shards(pa.table(b)):
                s, d, w = shard_to_entries(shard)
                srcs.append(s)
                dsts.append(d)
                ws.append(w)
        return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(ws)

    def check_job(self, o: dict):
        import numpy as np

        from parallel_louvain_method_ray.algos.components import components_oracle
        from parallel_louvain_method_ray.algos.pagerank import pagerank_oracle

        graph = o["graph"]
        src, dst, w = self.graph_entries(graph)
        self.gate(src.shape[0] == graph.n_entries, "entry count vs shards")
        res = o["louvain"]
        m2 = graph.total_weight if o["m_mode"] == "weight" else 2.0 * graph.m
        a = res.assignments
        intra = float(w[(src != dst) & (a[src] == a[dst])].sum())
        tot = np.bincount(a, weights=np.bincount(src, weights=w, minlength=graph.n))
        q = intra / m2 - float(((tot / m2) ** 2).sum())
        self.gate(abs(q - res.modularity) <= 1e-9, f"Louvain Q {res.modularity} vs recomputed {q}")

        if "ranks" in o:
            it = o["pr_meta"]["iterations"]
            oracle = pagerank_oracle(src, dst, w, graph.n, tol=0.0, max_iter=it)
            self.gate(np.allclose(o["ranks"], oracle, rtol=1e-6, atol=1e-12), "PageRank vs oracle")
            self.gate(
                np.array_equal(o["labels"], components_oracle(src, dst, graph.n)),
                "components vs oracle",
            )

        if self.workload == "web_flagship":
            import pyarrow.compute as pc

            bad = 0
            for b in o["extracted"].select_columns(["text_ok"]).iter_batches(batch_format="pyarrow"):
                col = b.column("text_ok")
                bad += len(col) - int(pc.sum(col).as_py() or 0)
            self.gate(bad == 0, f"text_ok false on {bad} pages")
            self.gate(o["pages_n"] == self.size["pages"], "page count")
            self.gate(o["n_sigs"] == self.size["docs"], "minhash row count")
            self.gate(o["topk"].num_rows == 50, "cosine_topk row count")
            self.gate(int(o["tri"].sum()) == 3 * o["n_triangles"], "triangle sum")

        if self.workload == "louvain_resume":
            self.gate(o["interrupted"], "Louvain run was not interrupted")
            ref = self.uninterrupted(graph)
            self.gate(
                np.array_equal(ref.assignments, res.assignments),
                "resumed assignment differs from uninterrupted run",
            )
            self.gate(ref.modularity == res.modularity, "resumed Q differs")

        if self.recorded is not None:
            want = self.recorded
            self.gate(graph.n_entries == want["entries"], f"entries {graph.n_entries}")
            self.gate(abs(res.modularity - want["q"]) <= Q_RECORDED_TOL, f"Q {res.modularity}")
            if "triangles" in want:
                self.gate(o["n_triangles"] == want["triangles"], f"triangles {o['n_triangles']}")

    def uninterrupted(self, graph):
        from parallel_louvain_method_ray.algos.louvain import louvain

        return louvain(graph, self.config(), pool=self.pool)

    # -- metrics ----------------------------------------------------------
    def counts(self, o: dict) -> dict:
        res = o["louvain"]
        return {
            "louvain.levels": len(res.levels),
            "louvain.sweeps": sum(lv.sweeps for lv in res.levels),
            "louvain.moves": sum(lv.moves for lv in res.levels),
            "pagerank.iterations": o["pr_meta"]["iterations"] if "pr_meta" in o else 0,
            "components.rounds": o["cc_meta"]["rounds"] if "cc_meta" in o else 0,
            "lpa.sweeps": o["lpa_meta"]["sweeps"] if "lpa_meta" in o else 0,
        }

    def job_record(self, o: dict) -> dict:
        """The numbers a job leaves behind once its outputs are dropped."""
        res, graph = o["louvain"], o["graph"]
        work = sum(2 * lv.m * lv.sweeps for lv in res.levels)
        if "pr_meta" in o:
            work += graph.n_entries * o["pr_meta"]["iterations"]
        return {
            "job_s": o["job_s"],
            "rss_mb": o["rss_mb"],
            "modularity": res.modularity,
            "edge_entries_per_s": work / (o["louvain_s"] + o["pagerank_s"]),
            "counts": self.counts(o),
            "stages": o["stages"],
            "check_s": o["check_s"],
        }

    def one_job(self, tracer: Tracer, wrapped=contextlib.nullcontext):
        """Run, time and check one job; its record goes to `self.jobs`.
        Returns the job's outputs, or None when it failed to run."""

        def go():
            o = self.run_job(tracer, wrapped)
            t0 = time.perf_counter()
            self.check_job(o)
            o["check_s"] = time.perf_counter() - t0
            return o

        o = self.operation(f"job {len(self.jobs) + 1}", go)
        if o is not None:
            self.jobs.append(self.job_record(o))
        return o

    def end_to_end(self) -> dict:
        jobs = self.jobs
        return {
            "job_s": (_median([j["job_s"] for j in jobs]), "s"),
            "setup_s": (self.setup["setup_s"], "s"),
            "edge_entries_per_s": (_median([j["edge_entries_per_s"] for j in jobs]), "1/s"),
            "modularity": (_median([j["modularity"] for j in jobs]), "Q"),
            "driver_peak_rss_mb": (_median([j["rss_mb"] for j in jobs]), "MB"),
            "ok_ratio": (1.0 - self.failed / max(self.attempted, 1), "ratio"),
        }

    def traced_job(self):
        """One job with the pool and checkpoint methods wrapped; returns
        the per-layer metrics."""
        from parallel_louvain_method_ray.ckpt.manifest import LouvainCheckpointer
        from parallel_louvain_method_ray.state.shard_pool import ShardPool

        tr = Tracer(f"{self.workload}-{self.args.seed}-traced")
        put = {"calls": 0, "delta": 0, "bytes": 0}

        def on_pool_call(name, pool, args, kwargs):
            if name != "sweep":
                return
            assign = args[0]
            tie_break = args[4] if len(args) > 4 else kwargs.get("tie_break")
            delta = kwargs.get("delta")
            active = kwargs.get("active")
            put["calls"] += 1
            if delta is not None and tie_break == "canonical" and getattr(pool, "_have_sweep_state", True):
                put["delta"] += 1
                put["bytes"] += delta[0].nbytes + delta[1].nbytes
            else:
                put["bytes"] += assign.shape[0] * 4
            if active is not None:
                put["bytes"] += active.nbytes

        @contextlib.contextmanager
        def wrapped():
            with wrap_methods(tr, ShardPool, POOL_METHODS, "shard_pool.", on_pool_call), \
                    wrap_methods(tr, LouvainCheckpointer, CKPT_METHODS, "ckpt."):
                yield

        o = self.one_job(tr, wrapped=wrapped)
        tr.write(os.path.join(ROOT, ".perfbench", "traces", f"{tr.run_id}.json"))
        if o is None:
            return None
        return self.layer_metrics(tr, o, self.jobs[-1], put)

    def layer_metrics(self, tr: Tracer, o: dict, rec: dict, put: dict) -> dict:
        m = {k: 0.0 for k in PER_LAYER_UNITS}
        for name in ("web.extract", "web.links_to_edges", "pipelines.renumber_urls",
                     "graph.build_graph", "louvain", "pagerank", "components", "lpa",
                     "triangles", "minhash", "cosine_topk"):
            m[f"{name}.s"] = tr.total(name)
        for meth in POOL_METHODS:
            if f"shard_pool.{meth}.s" in m:
                m[f"shard_pool.{meth}.s"] = tr.total(f"shard_pool.{meth}")
            if f"shard_pool.{meth}.calls" in m:
                m[f"shard_pool.{meth}.calls"] = tr.count(f"shard_pool.{meth}")
        for meth in CKPT_METHODS:
            m[f"ckpt.{meth}.s"] = tr.total(f"ckpt.{meth}")
        m.update(rec["counts"])
        graph = o["graph"]
        m["graph.build_graph.entries"] = graph.n_entries
        per_row = []
        for b in graph.shards.select_columns(["n_entries"]).iter_batches(batch_format="numpy"):
            per_row.extend(int(x) for x in b["n_entries"])
        m["graph.build_graph.shard_skew"] = max(per_row) / (sum(per_row) / len(per_row))
        m["graph.build_graph.shard_mb"] = graph.shards.size_bytes() / 1e6
        sweeps = o["recorder"].sweep_seconds()
        m["louvain.sweep_s.p50"] = _median(sweeps)
        m["louvain.sweep_s.max"] = max(sweeps) if sweeps else 0.0
        m["louvain.driver_self_s"] = sum(
            (s["end"] - s["start"]) - tr.outermost_within(s, "shard_pool.")
            for s in tr.named("louvain")
        )
        m["shard_pool.sweep.delta_share"] = put["delta"] / put["calls"] if put["calls"] else 0.0
        m["shard_pool.sweep.put_mb"] = put["bytes"] / 1e6
        m["shard_pool.prespawn_s"] = _median(self.setup["prespawn_s"])
        if self.workload == "web_flagship":
            m["web.extract.pages"] = o["pages_n"]
            m["web.links_to_edges.edges"] = o["edges_n"]
            m["pipelines.renumber_urls.vertices"] = o["vertices_n"]
            m["triangles.count"] = o["n_triangles"]
            m.update(self.raydata_times([o["extracted"], o["edges_str"], graph.shards]))
        else:
            m.update(self.raydata_times([graph.shards]))
        if "ckdir" in o:
            files, nbytes = _dir_stats(o["ckdir"])
            m["ckpt.files"] = files
            m["ckpt.mb_written"] = nbytes / 1e6
        return m

    @staticmethod
    def raydata_times(datasets) -> dict:
        """Ray Data operator wall time by kind, parsed from
        `Dataset.stats()` ("Operator N Name: ... in X.XXs"). An operator
        that appears in the lineage of several datasets counts once.
        Streaming operators overlap, so the sums can exceed a stage."""
        import re

        pat = re.compile(r"^Operator \d+ (.+?): .* in ([0-9.]+)s", re.M)
        out = {"raydata.read.s": 0.0, "raydata.map.s": 0.0, "raydata.shuffle.s": 0.0}
        seen = set()
        for ds in datasets:
            for name, secs in pat.findall(ds.stats()):
                if (name, secs) in seen:
                    continue
                seen.add((name, secs))
                if name.startswith(("Read", "From")):
                    kind = "read"
                elif any(k in name for k in ("Sort", "Aggregate", "Repartition", "Shuffle", "Join", "Groupby", "GroupBy")):
                    kind = "shuffle"
                else:
                    kind = "map"
                out[f"raydata.{kind}.s"] += float(secs)
        return out

    def check_same_path(self):
        """The traced job must take the untraced job's path: equal counts."""
        plain, traced = self.jobs[-2]["counts"], self.jobs[-1]["counts"]
        for k in PATH_COUNTS:
            self.gate(plain[k] == traced[k], f"traced run took another path: {k}")

    # -- the run ------------------------------------------------------------
    def run(self):
        self.operation("setup", self.set_up)
        if not self.setup:
            return
        self.operation("golden", self.check_golden)
        if self.args.trace:
            if self.one_job(Tracer("untraced")) is None:
                return
            layers = self.traced_job()
            if layers is not None:
                self.operation("same path traced", self.check_same_path)
                plain, traced = self.jobs[-2]["job_s"], self.jobs[-1]["job_s"]
                layers["trace.job_s"] = traced
                layers["trace.untraced_job_s"] = plain
                layers["trace.overhead_s"] = traced - plain
                self.traced = layers
            return
        start = time.perf_counter()
        while self.one_job(Tracer("untraced")) is not None:
            self.write_result(final=False)
            used = time.perf_counter() - start
            if used + self.jobs[-1]["job_s"] > self.args.seconds:
                break

    def result(self) -> dict | None:
        if not self.jobs or (self.args.trace and self.traced is None):
            return None
        if self.args.trace:
            metrics = {
                k: {"value": float(self.traced[k]), "unit": PER_LAYER_UNITS[k]}
                for k in PER_LAYER_UNITS
            }
        else:
            metrics = {
                k: {"value": float(v), "unit": u} for k, (v, u) in self.end_to_end().items()
            }
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def write_result(self, final: bool):
        self.meta["loadavg_end"] = _loadavg()
        self.meta["steal_s_end"] = _steal_s()
        payload = {
            "result": self.result(),
            "meta": dict(self.meta, setup=self.setup, jobs=self.jobs,
                         failures=self.failures, final=final),
        }
        tmp = self.args.result + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, self.args.result)

    def close(self):
        import ray

        if self.pool is not None:
            try:
                self.pool.shutdown()
            except Exception:
                traceback.print_exc()
        ray.shutdown()
        shutil.rmtree(self.scratch, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["default", "toy"], default="default")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, ROOT)
    bench = Bench(args)
    try:
        bench.run()
    finally:
        try:
            bench.close()
        finally:
            bench.write_result(final=True)
    return 0 if bench.result() is not None else 1


if __name__ == "__main__":
    sys.exit(main())
