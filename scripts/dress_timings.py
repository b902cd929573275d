#!/usr/bin/env python3
"""Time the dressed Hamiltonian on the final graphs of the benchmark workloads.

Runs each benchmark workload twice on its seed-1 input (perfbench's
workloads and sign gauge, BLAS threads pinned to 1): first with the
integral-map and pool caches cleared (the cold call, which builds both),
then again (a warm call, which reuses them).  Then it times on the final
graph at the final angles: an integral-map build
(``hamiltonian.integral_map`` after clearing its cache), one ``linearize``
plus its pullback of the dressed Hamiltonian the pruned sweep reads, and
one whole ``surrogate.eval_energy_and_gradient``.  Each of those figures is
the median of ``--calls`` calls after one warm-up call.  Run from the root
of a checkout:

    python3 scripts/dress_timings.py --calls 200

It prints one line per workload, with the map rows the pruned sweep reads
out of all rows.  The first workload's cold call also pays the process's
own first-call costs.
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
from majprop import parse_fcidump, run_adapt_vmpe  # noqa: E402
from majprop.hamiltonian import integral_map  # noqa: E402
from majprop.pool import build_majoranic_pool  # noqa: E402
from majprop.surrogate import eval_energy_and_gradient  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

MAP_CALLS = 5  # map builds are slower; fewer of them


def _median_ms(call, calls: int) -> float:
    call()
    seconds = []
    for _ in range(calls):
        tic = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - tic)
    return 1e3 * statistics.median(seconds)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args()
    print(f"{'workload':9s} {'cold call':>10s} {'warm call':>10s} {'rows read':>13s}"
          f" {'map build':>10s} {'dressing':>9s} {'eval+grad':>10s}  (ms)")
    for name, workload in WORKLOADS.items():
        path, _ = write_input(workload, 1, ROOT, ROOT / "perfbench" / ".cache")
        tensors = parse_fcidump(path.read_text())
        calls_ms = []
        integral_map.cache_clear()
        build_majoranic_pool.cache_clear()
        for _ in range(2):
            tic = time.perf_counter()
            result = run_adapt_vmpe(tensors, workload.run_config())
            calls_ms.append(1e3 * (time.perf_counter() - tic))
        graph, params = result.graph, result.params
        full, read = graph.hamiltonian, graph.pruned.hamiltonian

        def build():
            integral_map.cache_clear()
            integral_map(tensors.n_spatial, full.map.shared)

        build_ms = _median_ms(build, MAP_CALLS)
        dcoeffs = np.ones(read.keys.size)

        def dressing():
            read.linearize(params)[1](dcoeffs)

        dress_ms = _median_ms(dressing, args.calls)
        sweep_ms = _median_ms(lambda: eval_energy_and_gradient(graph, params), args.calls)
        rows = f"{read.keys.size}/{full.keys.size}"
        print(f"{name:9s} {calls_ms[0]:10.1f} {calls_ms[1]:10.1f} {rows:>13s} {build_ms:10.1f}"
              f" {dress_ms:9.3f} {sweep_ms:10.3f}", flush=True)


if __name__ == "__main__":
    main()
