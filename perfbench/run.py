"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload web_flagship --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload graph_iterative --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload louvain_resume --seed 1 --seconds 20 --trace 0 --size toy

Run from the root of a checkout. Clears any Ray cluster left behind, starts
`harness.py` in its own process group under a wall-clock limit, stops
everything it started, and prints two JSON lines on stdout: the run's
metadata, then the result
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
A run that hits the limit counts one more failed operation. Exits 2,
printing no result, when the package is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = "parallel_louvain_method_ray"
# the whole run must end within 180 s; keep room to stop the cluster
RUN_LIMIT_S = 160


def ray_processes() -> list[int]:
    """Pids of Ray daemons and workers on this machine (any session)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        exe = os.path.basename(argv[0])
        if exe in (b"raylet", b"gcs_server") or argv[0].startswith(b"ray::") or any(
            b"/ray/_private/" in a or b"/ray/dashboard/" in a for a in argv[1:3]
        ):
            pids.append(int(name))
    return pids


def stop_ray(temp_dir: str) -> None:
    """`ray stop --force` when any Ray process is left, wait (30 s at most)
    until none is, then drop the session directory."""
    if ray_processes():
        subprocess.run(
            [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
            check=False,
        )
    deadline = time.monotonic() + 30
    while ray_processes() and time.monotonic() < deadline:
        time.sleep(0.2)
    shutil.rmtree(temp_dir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["default", "toy"], default="default")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, PKG, "__init__.py")):
        print(f"perfbench: no {PKG} package under {ROOT}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from harness import ray_temp_dir

    temp_dir = ray_temp_dir()
    run_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, f"result-{os.getpid()}.json")
    stop_ray(temp_dir)

    cmd = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path, "--size", args.size,
    ]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    # the harness is a single-threaded driver; keep native pools at one
    # thread so the 2-CPU Ray cluster is the only parallelism
    env.setdefault("OMP_NUM_THREADS", "1")
    t0 = time.monotonic()
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        start_new_session=True,
    )
    timed_out = False
    try:
        child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        stop_ray(temp_dir)

    try:
        with open(result_path) as f:
            payload = json.load(f)
        os.remove(result_path)
    except (OSError, ValueError):
        payload = {"result": None, "meta": {}}
    result, meta = payload["result"], payload["meta"]
    meta["run_wall_s"] = time.monotonic() - t0
    meta["timed_out"] = timed_out
    meta["harness_exit"] = child.returncode
    if result is None:
        print(json.dumps({"meta": meta}), file=sys.stderr)
        return 1
    if timed_out:
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
        if "ok_ratio" in result["metrics"]:
            result["metrics"]["ok_ratio"]["value"] = (
                1.0 - result["failed"] / result["attempted"]
            )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if child.returncode == 0 and not timed_out else 1


if __name__ == "__main__":
    sys.exit(main())
