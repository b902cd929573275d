#!/usr/bin/env python3
"""Time what a fresh interpreter pays to start majprop, one command at a time.

Each command runs in its own fresh ``python`` process, BLAS threads pinned
to 1, ``--processes`` times (the commands take turns), and the script
prints each command's median wall time from process start to exit:

* ``import majprop``;
* that import plus ``parse_fcidump`` of each benchmark workload's seed-1
  input (perfbench's workloads and ``write_input``), what the benchmark's
  ``setup_s`` times;
* ``majprop --help`` and ``majprop pool-info --occupied 2 --virtual 2``;
* one ``run_adapt_vmpe`` call per workload on the same input, which also
  pays every import that the package defers to its first use.

Run from the root of a checkout:

    python3 scripts/cold_start.py --processes 9
"""

from __future__ import annotations

import os

os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS, write_input  # noqa: E402

# argv[1] is the checkout's src, the rest the command's own arguments
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import majprop"
PARSE = IMPORT + "; majprop.parse_fcidump(open(sys.argv[2]).read())"
CLI = IMPORT + "; import majprop.cli; sys.exit(majprop.cli.main(sys.argv[2:]))"
RUN = IMPORT + (
    "; import json; majprop.run_adapt_vmpe(majprop.parse_fcidump(open(sys.argv[2]).read()),"
    " majprop.RunConfig(**json.loads(sys.argv[3])))"
)


def commands() -> list[tuple[str, list[str]]]:
    """(label, arguments after the interpreter) of every timed command."""
    src = str(ROOT / "src")
    inputs = {name: str(write_input(w, 1, ROOT, ROOT / "perfbench" / ".cache")[0])
              for name, w in WORKLOADS.items()}
    return [
        ("import majprop", ["-c", IMPORT, src]),
        *((f"import + parse {name}", ["-c", PARSE, src, path]) for name, path in inputs.items()),
        ("majprop --help", ["-c", CLI, src, "--help"]),
        ("majprop pool-info --occupied 2 --virtual 2",
         ["-c", CLI, src, "pool-info", "--occupied", "2", "--virtual", "2"]),
        *((f"run {name}", ["-c", RUN, src, path, json.dumps(WORKLOADS[name].config)])
          for name, path in inputs.items()),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int, default=9)
    args = parser.parse_args()
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    timed = commands()
    seconds: dict[str, list[float]] = {label: [] for label, _ in timed}
    for _ in range(args.processes):
        for label, argv in timed:
            tic = time.perf_counter()
            subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL)
            seconds[label].append(time.perf_counter() - tic)
    print(f"{'command':44s} {'median ms':>10s}  ({args.processes} processes each)")
    for label, values in seconds.items():
        print(f"{label:44s} {1e3 * statistics.median(values):10.0f}")


if __name__ == "__main__":
    main()
