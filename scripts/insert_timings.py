#!/usr/bin/env python3
"""Time graph insertion on the 16-mode H8 chain, one fresh process per cutoff.

Writes the H8 chain at 2.0 Angstrom spacing (STO-3G, integrals only: no
dense CI) into ``--cache`` with ``make_fixtures.hydrogen_chain_fcidump``,
then runs a GGF run of ``--iterations`` iterations at each cutoff (6, 8
and none), each in its own fresh ``python`` process with BLAS threads
pinned to 1, one after the other: an exact H8 run takes several GiB, so two
never run at once.  Each process first runs a one-iteration warm-up on the
H2 fixture, so the timed run pays no first-use imports.  One line per
run gives its wall time, the trajectory's summed ``score_s``,
``insert_s`` and ``optimize_s``, the final layer, the entries of the
recorded and of the pruned steps, and the process's peak RSS.  Run from
the root of a checkout:

    python3 scripts/insert_timings.py --iterations 30
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPACING_ANGSTROM = 2.0
CUTOFFS = (6, 8, 0)  # 0: no cutoff


def run(fcidump: Path, cutoff: int, iterations: int) -> dict:
    """One timed GGF run, after the H2 warm-up, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from majprop import RunConfig, parse_fcidump, run_adapt_vmpe

    h2 = parse_fcidump((ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump").read_text())
    run_adapt_vmpe(h2, RunConfig(max_iterations=1))
    tensors = parse_fcidump(fcidump.read_text())
    tic = time.perf_counter()
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=iterations, cutoff=cutoff or None))
    wall = time.perf_counter() - tic
    rows, graph = result.trajectory, result.graph
    return {
        "cutoff": cutoff or None,
        "iterations": len(rows) - 1,
        "wall_s": wall,
        **{name: sum(getattr(row, name) for row in rows)
           for name in ("score_s", "insert_s", "optimize_s")},
        "final_layer": int(graph.final_keys.size),
        "full_entries": sum(int(step.z.size) for step in graph.steps),
        "pruned_entries": sum(int(step.z.size) for step in graph.pruned.steps),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--cutoffs", type=int, nargs="+", default=CUTOFFS,
                        help="length cutoffs to run, 0 for none")
    parser.add_argument("--cache", type=Path, default=ROOT / "perfbench" / ".cache",
                        help="directory for the H8 FCIDUMP")
    parser.add_argument("--json", type=Path, help="also write the records here")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    fcidump = args.cache / "h8_chain_r20.fcidump"
    if args.child is not None:
        print(json.dumps(run(fcidump, args.child, args.iterations)))
        return
    if not fcidump.is_file():
        sys.path.insert(0, str(ROOT / "scripts"))
        import make_fixtures

        args.cache.mkdir(parents=True, exist_ok=True)
        make_fixtures.hydrogen_chain_fcidump(
            8, SPACING_ANGSTROM * make_fixtures.BOHR_PER_ANGSTROM, fcidump
        )
    records = []
    for cutoff in args.cutoffs:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(cutoff), "--iterations",
             str(args.iterations), "--cache", str(args.cache)],
            check=True, capture_output=True, text=True,
        )
        record = json.loads(done.stdout.splitlines()[-1])
        records.append(record)
        print(f"H8 cutoff {cutoff or 'none':>4}: {record['iterations']} iterations in"
              f" {record['wall_s']:.2f} s  score {record['score_s']:.2f} s"
              f"  insert {record['insert_s']:.2f} s  optimize {record['optimize_s']:.2f} s"
              f"  layer {record['final_layer']}  entries {record['full_entries']} full,"
              f" {record['pruned_entries']} pruned  peak RSS {record['peak_rss_mib']:.0f} MiB",
              flush=True)
    if args.json:
        args.json.write_text(json.dumps(records, indent=2) + "\n")


if __name__ == "__main__":
    main()
