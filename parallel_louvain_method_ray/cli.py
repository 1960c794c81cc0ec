"""CLI — the reference binaries' workflow, Ray-Data-native.

The reference's `community` binary (`/root/reference/src/
main_distributed_community.cpp:41-69`) runs ONE distributed Louvain level:
load per-rank edge shards -> modularity -> local-move phase -> write
per-community membership -> coarsen -> write coarse edge list. Users re-run
it on the written graph for the next level. This CLI reproduces that
workflow (plus a `--levels N`/`--all-levels` automation the reference
leaves manual):

    python -m parallel_louvain_method_ray <INPUT> <OUTDIR> [options]

INPUT: a text edge-list file/shard-dir (reference format, `u v w` lines)
or a parquet file/dir with (src, dst, weight). Outputs in OUTDIR:
`communities/` (vid, comm parquet), `graph_txt/` (coarse upper-triangle
text edge list, reference format), `metrics.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="parallel_louvain_method_ray",
        description="Ray-Data Louvain community detection (reference-"
        "compatible edge lists or parquet)",
    )
    ap.add_argument("input", help="edge list: text file/shard dir or parquet")
    ap.add_argument("outdir")
    ap.add_argument("--levels", type=int, default=1,
                    help="Louvain levels to run (reference binary: 1); "
                    "0 = until convergence")
    ap.add_argument("--partitions", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--m-mode", choices=["count", "weight"], default="count")
    ap.add_argument("--checkpoint-dir", default=None)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kw = {"address": "local", "include_dashboard": False}
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)

    import numpy as np
    import pyarrow as pa
    import ray.data

    from parallel_louvain_method_ray._pickle import ensure_registered
    from parallel_louvain_method_ray.algos.louvain import (
        coarsen,
        louvain,
        modularity,
    )
    from parallel_louvain_method_ray.ckpt.manifest import LouvainCheckpointer
    from parallel_louvain_method_ray.config import EngineConfig
    from parallel_louvain_method_ray.graph.build import build_graph, renumber
    from parallel_louvain_method_ray.sources.edges import (
        read_edge_list_text,
        write_edges_text,
        write_communities,
    )
    from parallel_louvain_method_ray.state.shard_pool import ShardPool

    ensure_registered()
    cfg = EngineConfig(num_partitions=args.partitions)

    if args.input.endswith(".parquet") or any(
        f.endswith(".parquet")
        for f in (os.listdir(args.input) if os.path.isdir(args.input) else [])
    ):
        edges = ray.data.read_parquet(args.input)
        bad = 0
    else:
        edges, bad = read_edge_list_text(args.input)

    edges, vertices, n = renumber(edges)
    graph = build_graph(edges, cfg, n_vertices=n)
    print(
        f"graph: {graph.n} vertices, m={graph.m}, {graph.n_entries} entries"
        + (f", {bad} bad input lines skipped" if bad else "")
    )

    # one pool for the whole run: modularity, every distributed Louvain
    # level and the final contraction reuse the same warm workers
    pool = ShardPool(graph)
    try:
        singletons = np.arange(graph.n, dtype=np.int64)
        q0 = modularity(graph, singletons, args.m_mode, pool)
        print(f"Modularity before: {q0:.6f}")

        ck = (
            LouvainCheckpointer(args.checkpoint_dir, cfg)
            if args.checkpoint_dir
            else None
        )
        cfg2 = cfg if args.levels == 0 else EngineConfig(
            num_partitions=args.partitions, max_levels=args.levels
        )
        res = louvain(
            graph, cfg2, m_mode=args.m_mode, checkpointer=ck, pool=pool
        )
        membership = res.assignments
        q1 = res.modularity
        n_comms = int(np.unique(membership).shape[0])
        sweeps = sum(l.sweeps for l in res.levels)
        coarse_graph, _ = coarsen(graph, membership, pool=pool)
    finally:
        pool.shutdown()

    print(f"Modularity after: {q1:.6f}  ({n_comms} communities, {sweeps} sweeps)")

    os.makedirs(args.outdir, exist_ok=True)
    assigns = ray.data.from_arrow(
        pa.table(
            {
                "vid": np.arange(graph.n, dtype=np.int64),
                "comm": membership.astype(np.int64),
            }
        )
    )
    write_communities(assigns, os.path.join(args.outdir, "communities"))

    from parallel_louvain_method_ray.graph.csr import shard_to_entries, unpack_shards

    def expand(batch: pa.Table) -> pa.Table:
        out = []
        for shard in unpack_shards(batch):
            s, d, w = shard_to_entries(shard)
            out.append(pa.table({"src": s, "dst": d, "weight": w}))
        return pa.concat_tables(out) if out else pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
             "weight": pa.array([], pa.float64())}
        )

    write_edges_text(
        coarse_graph.shards.map_batches(expand, batch_format="pyarrow"),
        os.path.join(args.outdir, "graph_txt"),
    )
    with open(os.path.join(args.outdir, "metrics.json"), "w") as f:
        json.dump(
            {
                "n_vertices": graph.n,
                "m": graph.m,
                "modularity_before": q0,
                "modularity_after": q1,
                "n_communities": n_comms,
                "sweeps": sweeps,
                "bad_input_lines": bad,
            },
            f,
            indent=1,
        )
    print(f"wrote {args.outdir}/{{communities,graph_txt,metrics.json}}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
