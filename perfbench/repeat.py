"""Run one workload k times with consecutive seeds and summarize each metric.

    python3 perfbench/repeat.py --workload fit-2d --runs 10 --first-seed 1 --seconds 45

Runs execute one after another (never in parallel), each as its own
process measuring the end-to-end metrics (`--trace 0`); `run.py` pins
BLAS and OpenMP to one thread. For every metric the summary gives the
median, the first and third quartiles (`statistics.quantiles(values,
n=4)`) and the spread, (q3 - q1) / median, which is what the bounds in
BENCHMARK.json are compared against. The last line of stdout is the
summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    summary = {"runs": len(results),
               "all_correct": all(r["correct"] for r in results),
               "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
               "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        results.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: done", file=sys.stderr, flush=True)
    summary = summarize(results)
    print(f"{args.workload}: {args.runs} runs, all correct: {summary['all_correct']},"
          f" failed share {summary['failed_share']}")
    print(f"{'metric':34s} {'unit':>7s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, m in summary["metrics"].items():
        print(f"{name:34s} {m['unit']:>7s} {m['median']:12.6g} {m['q1']:12.6g}"
              f" {m['q3']:12.6g} {m['spread']:7.2%}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
