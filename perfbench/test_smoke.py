"""Smoke test of the benchmark at toy size: every workload's job, gates
and traced path, and the metric names `BENCHMARK.json` promises.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_toy_run(workload):
    res = run(workload, trace=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_toy_run():
    res = run("louvain_resume", trace=0)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
