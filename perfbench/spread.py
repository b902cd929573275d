"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload h4_exact --seeds 1 2 3 4 5 6 7 8 9 10

Runs the benchmark once per seed, one run at a time, for BENCHMARK.json's
``run_seconds``, and prints each metric's median and its interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``) beside the
metric's bound.  The raw result lines go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    lines = []
    for seed in args.seeds:
        tic = time.perf_counter()
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        lines.append(line)
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} wall={time.perf_counter() - tic:.1f}s", flush=True)

    (HERE / "results").mkdir(exist_ok=True)
    raw = HERE / "results" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    raw.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"{'metric':34s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
    for m in metrics:
        values = [line["metrics"][m["name"]]["value"] for line in lines]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        share = (q3 - q1) / abs(median) if median else float("nan")
        print(f"{m['name']:34s} {median:12.6g} {share:11.3f} {m.get('bound', ''):>6}")
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
