"""Run-to-run spread of every metric over several seeds.

    python3 perfbench/spread.py --workload clean-updates --seeds 1-10 [--seconds 40] [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints each
metric's median and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values = {}
    for seed in seed_list(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: run failed: {proc.stderr.strip()[-1000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        middle = statistics.median(series)
        spread = 0.0
        if len(series) >= 2 and middle:
            quartiles = statistics.quantiles(series, n=4)
            spread = (quartiles[2] - quartiles[0]) / abs(middle)
        print(f"{name:40s} median={middle:<14.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
