#!/usr/bin/env python3
"""Time pool scoring at the front, inside and at the back of final graphs.

Runs each benchmark workload once on its seed-1 input (perfbench's
workloads and sign gauge, BLAS threads pinned to 1), then times
``surrogate.cut_landscapes`` for the workload's full pool at a few cuts of
the final graph: the median of ``--calls`` calls after one warm-up call
(one call where a single call is slow).  Run from the root of a checkout:

    python3 scripts/cut_timings.py --calls 5 --rows rows.npz

Before the first run it runs one iteration on the H2 fixture, as
perfbench does, so that each run's "iterations in" time leaves out loading
the package's lazily imported modules.  It prints one line per cut
(milliseconds per call); ``--rows`` saves every
landscape row, so that two checkouts can be compared row by row.  With
``--fcidump`` it times one system instead, such as an H8 or H10 chain from
``scripts/make_fixtures.py``: a GGF run at ``--cutoff`` (0: none) for
``--iterations``, scored at the front, the middle and the back:

    python3 scripts/cut_timings.py --fcidump h8_chain_r20.fcidump --cutoff 6 --iterations 30
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from majprop import RunConfig, parse_fcidump, run_adapt_vmpe  # noqa: E402
from majprop.surrogate import cut_landscapes  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

# gate indices to score before; None is the back of the body
CUTS = {
    "h4_schro": {"back": None, "front": 0, "mid 2": 2},
    "h4_exact": {"front": 0, "back": None, "mid 15": 15},
    "h6_cut6": {"front": 0, "back": None, "mid 7": 7},
    "m20_grad": {"front": 0, "back": None},
}
SLOW_S = 1.0


def systems(args):
    """(name, integrals, config, cuts) of each system to score."""
    if args.fcidump is not None:
        config = RunConfig(max_iterations=args.iterations, cutoff=args.cutoff or None)
        yield args.fcidump.stem, parse_fcidump(args.fcidump.read_text()), config, None
        return
    for name, cuts in CUTS.items():
        workload = WORKLOADS[name]
        path, _ = write_input(workload, 1, ROOT, ROOT / "perfbench" / ".cache")
        yield name, parse_fcidump(path.read_text()), workload.run_config(), cuts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--rows", type=Path, help="save the landscape rows here (.npz)")
    parser.add_argument("--fcidump", type=Path, help="score this system instead of the workloads")
    parser.add_argument("--cutoff", type=int, default=6, help="with --fcidump; 0: no cutoff")
    parser.add_argument("--iterations", type=int, default=30, help="with --fcidump")
    args = parser.parse_args()
    rows = {}
    h2 = parse_fcidump((ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump").read_text())
    run_adapt_vmpe(h2, RunConfig(max_iterations=1))  # warm-up: first-use imports
    for name, tensors, config, cuts in systems(args):
        tic = time.perf_counter()
        result = run_adapt_vmpe(tensors, config)
        print(f"{name}: {len(result.trajectory) - 1} iterations in"
              f" {time.perf_counter() - tic:.2f} s", flush=True)
        gate_sets = [c.gates(result.params.size) for c in result.pool.candidates]
        graph, params = result.graph, result.params
        if cuts is None:
            cuts = {"front": 0, "mid": len(graph.steps) // 2, "back": None}
        for label, cut in cuts.items():
            where = len(graph.steps) if cut is None else cut
            tic = time.perf_counter()
            rows[f"{name} {label}"] = cut_landscapes(graph, params, where, gate_sets)
            calls = 1 if time.perf_counter() - tic > SLOW_S else args.calls
            seconds = []
            for _ in range(calls):
                tic = time.perf_counter()
                cut_landscapes(graph, params, where, gate_sets)
                seconds.append(time.perf_counter() - tic)
            print(f"{name:9s} {label:7s} {1e3 * statistics.median(seconds):9.1f} ms"
                  f"  ({calls} calls, {len(gate_sets)} candidates)", flush=True)
    if args.rows:
        np.savez(args.rows, **rows)


if __name__ == "__main__":
    main()
