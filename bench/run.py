"""Benchmark for bhecke: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload report|oracle|gluing|residual \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-benchmark-json

Run from the root of a checkout. Each run starts the workload in a fresh
interpreter (bench/worker.py) with src/ on PYTHONPATH, single-threaded, on
a fixed list of operations made from the seed: whole rounds, their number
set by --seconds. Every output is checked. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run with the tracer of bench/layers.py installed.
setup_s is the median cold start of five fresh interpreters. A full
record of the run goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import per_layer_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

RUN_SECONDS = 20
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "report",
     "why": "build_report on distinct rank 12-36 data, m in 0..3: the main "
            "user query, where symbols truncated induction does most of the work"},
    {"name": "oracle",
     "why": "r_group and the W(B_8) brute-force scans on rank-8 data of eight "
            "simple-root shapes: _wscan masks and the 83 MB image table"},
    {"name": "gluing",
     "why": "can_glue, both pole orders and glue_strip_geometric for residual "
            "mu of weight <= 10, strips 1-12: many small gluings"},
    {"name": "residual",
     "why": "residual_partitions at weights 13-15: the O(l^2) root count in "
            "splitting over every partition, no symbols or scans"},
]

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return its cold-start time (to the "ready" line) and
    its JSON record (None with --setup-only)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def summarize(record: dict, setups: list[float], trace: bool) -> dict:
    """The result object of one run. A run that completes no operation, or
    whose outputs fail a check, is not correct."""
    latencies = record["latencies_s"]
    attempted = len(latencies)
    failed = record["failed"]
    completed = attempted - failed
    correct = completed >= 1 and record["error_count"] == 0
    if trace:
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        values = record["layers"]
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
        values = {
            "ops_per_s": completed / sum(latencies) if latencies else 0.0,
            "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3
                               if attempted >= 2 else 0.0),
            "peak_rss_mb": record["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setups),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "bhecke" / "__init__.py").is_file():
        print(f"bench: no bhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup, record = run_worker(worker_args)
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(worker_args + ["--setup-only"])[0])
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = summarize(record, setups, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "setups_s": setups, **record, "result": result}, indent=1) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
