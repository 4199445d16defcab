#!/usr/bin/env python3
"""docling_ray benchmark: one batch job per workload on a local Ray pinned to
a fixed CPU count, in a closed loop, with output checks.

    python3 perfbench/run.py --workload convert --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the per-layer probes and the traced job instead
(see perfbench/NOTES.md).  The last stdout line is one short JSON object;
per-job, per-layer and span detail goes to a JSON file under
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RAY_CPUS = 3
SETUP_REPEATS = 3
RUN_DEADLINE_S = 165      # the whole invocation, including set-up


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["convert", "curate"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ray-cpus", type=int, default=RAY_CPUS,
                   help="logical CPUs given to the local Ray (min 2)")
    return p.parse_args()


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program() -> None:
    """Make the checkout's ``docling_ray`` importable here and in every Ray
    worker, and refuse to run against any other copy."""
    pkg = os.path.join(ROOT, "docling_ray", "__init__.py")
    if not os.path.isfile(pkg):
        fail(f"no docling_ray package under {ROOT}; run from a full checkout")
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, BENCH_DIR] + [p for p in os.environ.get("PYTHONPATH", "")
                             .split(os.pathsep) if p])
    import docling_ray

    if os.path.dirname(os.path.abspath(docling_ray.__file__)) != \
            os.path.dirname(pkg):
        fail(f"imported docling_ray from {docling_ray.__file__}, "
             f"not from {ROOT}")


def start_watchdog(docs: int) -> threading.Timer:
    """Per-run timeout: a hung job becomes a failed run, not a stuck one.
    Kills the whole process tree (Ray included) and exits non-zero."""
    import procfs

    def fire() -> None:
        print(f"perfbench: run exceeded {RUN_DEADLINE_S}s; killing it",
              file=sys.stderr)
        pids = procfs.descendants()[1:]
        procfs.wait_gone(pids, timeout_s=0)
        print(json.dumps({"correct": False, "attempted": docs,
                          "failed": docs, "metrics": {}}), flush=True)
        os._exit(3)

    timer = threading.Timer(RUN_DEADLINE_S, fire)
    timer.daemon = True
    timer.start()
    return timer


def measured_run(wl, inputs: dict, args, sessions, warm: str) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run the workload's job in a
    closed loop until ``--seconds`` of job time is spent.  The first job
    only finishes lazy set-up (actor and extra worker processes): it is
    checked and counted in the time, but not in the metrics."""
    import procfs
    from raysession import timed_setup

    # driver-side imports first, so every set-up times the same work
    import docling_ray.pipelines.corpus  # noqa: F401
    import docling_ray.pipelines.extract_pipeline  # noqa: F401
    import ray.data  # noqa: F401

    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            sessions.stop()
        setups.append(timed_setup(sessions, args.ray_cpus, warm))
    jobs = []
    busy = 0.0
    out_dir = os.path.join(WORK_DIR, "out", wl.name)
    while busy < args.seconds or len(jobs) < 2:
        shutil.rmtree(out_dir, ignore_errors=True)
        with procfs.TreeMonitor() as mon:
            t0 = time.perf_counter()
            result = wl.run(inputs, out_dir)
            wall = time.perf_counter() - t0
        failed, info = wl.check(inputs, out_dir, args.seed, result)
        jobs.append({"wall_s": wall, "cpu_s": mon.cpu_s, "peak_pss_mb": mon.peak_mb,
                     "failed": failed, "check": info})
        busy += wall
    sessions.stop()
    ok = [j for j in jobs[1:] if j["failed"] == 0]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    if ok:      # a job whose output failed its check is never a speed
        metrics.update({
            "docs_per_s": (statistics.median(wl.docs / j["wall_s"] for j in ok),
                           "docs/s"),
            "cpu_ms_per_doc": (statistics.median(1000 * j["cpu_s"] / wl.docs
                                                 for j in ok), "ms/doc"),
            "peak_mem_mb": (statistics.median(j["peak_pss_mb"] for j in ok),
                            "MB"),
        })
    return {"metrics": metrics, "attempted": wl.docs * len(jobs),
            "failed": sum(j["failed"] for j in jobs),
            "detail": {"setups_s": setups, "jobs": jobs}}


def main() -> None:
    args = parse_args()
    if args.ray_cpus < 2:
        fail(f"--ray-cpus {args.ray_cpus} refused: run_corpus hangs at 1 Ray "
             "CPU (a ReadParquet task holds the only CPU while the MinHash "
             "actor waits; see perfbench/NOTES.md); use 2 or more")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_program()
    import procfs
    from raysession import RaySessions
    from workloads import WORKLOADS, warm_corpus

    wl = WORKLOADS[args.workload]
    watchdog = start_watchdog(wl.docs)
    cache = os.path.join(WORK_DIR, "cache")
    os.makedirs(cache, exist_ok=True)
    inputs = wl.prepare(cache, args.seed)
    warm = warm_corpus(cache, args.seed)
    sessions = RaySessions(os.path.join(ROOT, ".bench_build", "rt"))
    try:
        if args.trace:
            import layers

            res = layers.traced_run(wl, inputs, args, sessions, warm, WORK_DIR)
        else:
            res = measured_run(wl, inputs, args, sessions, warm)
    finally:
        sessions.close()
    watchdog.cancel()

    host = procfs.host_facts(ROOT, args.ray_cpus)
    failed_ratio = res["failed"] / res["attempted"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "failed_ratio": failed_ratio, "metrics": metrics,
              "detail": res["detail"]}
    results = os.path.join(WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)
    correct = res["failed"] == 0
    print(f"host: {json.dumps(host)}")
    print(f"workload={args.workload} seed={args.seed} "
          f"failed_ratio={failed_ratio:.4f} detail={os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics},
                     separators=(",", ":")), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
