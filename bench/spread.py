"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload report --seeds 1-10 [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. It also checks that every run reports
the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, RUN_SECONDS

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    shares = {(r["failed"], r["attempted"]) for r in results}
    worst = 0.0
    for metric in END_TO_END:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:>16}: median {median:.5g} {metric['unit']}, "
              f"spread {spread:.3f} (bound {metric['bound']})")
    print(f"failed/attempted pairs: {sorted(shares)}; "
          f"largest spread/bound (setup_s aside): {worst:.2f}")
    return 0 if all(r["correct"] for r in results) and worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
