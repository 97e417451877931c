"""One workload run in a fresh interpreter; run.py starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

Set-up (imports, inputs, the caches the first operation needs) ends with
the line "ready" on standard output, so that the parent can time the cold
start; with --setup-only the worker stops there. Otherwise it runs every
operation once, one at a time, under a per-operation time limit, checks
every output, and prints one JSON record as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import warnings


class TimeLimit(Exception):
    """The operation ran past the per-operation time limit."""


def _alarm(signum, frame):
    raise TimeLimit


def measure(run, ops, limit_s: float) -> tuple[list[float], list]:
    """Run each operation under the limit. A failed operation yields None
    and counts at the limit, so that mending it cannot read as slower."""
    latencies, outputs = [], []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for op in ops:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                out = run(op)
            except TimeLimit:
                out = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            latencies.append(limit_s if out is None else elapsed)
            outputs.append(out)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return latencies, outputs


def check_all(check, ops, outputs) -> list[str]:
    errors = []
    for op, out in zip(ops, outputs):
        if out is not None:
            errors.extend(f"{op}: {e}" for e in check(op, out))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # r_group warns on ambiguous glue labels; the checks do not use labels.
    warnings.simplefilter("ignore")
    import workloads

    w = workloads.WORKLOADS[args.workload]
    ops = w.make_ops(args.seed, workloads.rounds(args.seconds))
    w.prepare()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    try:
        latencies, outputs = measure(w.run, ops, w.limit_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = check_all(w.check, ops, outputs)
    record = {
        "latencies_s": latencies,
        "failed": sum(out is None for out in outputs),
        "errors": errors[:20],
        "error_count": len(errors),
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
