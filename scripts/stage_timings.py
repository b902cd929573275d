#!/usr/bin/env python3
"""Time majprop stage by stage, on the benchmark workloads or on one FCIDUMP.

With BLAS threads pinned to 1, ``insertion`` times an H8 chain, the others each
benchmark workload's seed-1 input; ``--fcidump`` times one other system instead:

    python3 scripts/stage_timings.py start --processes 9
    python3 scripts/stage_timings.py cuts --calls 5 --rows rows.npz
    python3 scripts/stage_timings.py dressing --calls 200
    python3 scripts/stage_timings.py insertion --iterations 30 --cutoffs 6 8 0
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS, "1"))  # one BLAS thread, set before numpy loads
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "perfbench" / ".cache"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from majprop import RunConfig, build_majoranic_pool, parse_fcidump, run_adapt_vmpe  # noqa: E402
from majprop.hamiltonian import integral_map  # noqa: E402
from majprop.surrogate import cut_landscapes, eval_energy_and_gradient  # noqa: E402

SHARED = {  # options that more than one subcommand reads
    "--calls": dict(type=int, default=5, help="timed calls per figure"),
    "--iterations": dict(type=int, default=30, help="GGF iterations of the --fcidump or H8 run"),
    "--fcidump": dict(type=Path, help="time this system instead of the default ones")}
SLOW_S = 1.0  # a warm-up call slower than this is followed by one timed call
MAP_CALLS = 5  # map builds are slower; fewer of them
# the workloads' inner cuts (gate indices); m20_grad has one gate
MIDS = {"h4_exact": {"mid 15": 15}, "h6_cut6": {"mid 7": 7}, "h4_schro": {"mid 2": 2}}
# argv[1] is the checkout's src, the rest the command's own arguments
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import majprop"
PARSE = IMPORT + "; majprop.parse_fcidump(open(sys.argv[2]).read())"
CLI = IMPORT + "; import majprop.cli; sys.exit(majprop.cli.main(sys.argv[2:]))"
RUN = IMPORT + ("; import json; majprop.run_adapt_vmpe(majprop.parse_fcidump(open(sys.argv[2])"
                ".read()), majprop.RunConfig(**json.loads(sys.argv[3])))")
RECORD = ("{iterations} iterations in {wall_s:.2f} s  score {score_s:.2f} s  insert"
          " {insert_s:.2f} s  optimize {optimize_s:.2f} s  layer {final_layer}  entries"
          " {full_entries} full, {pruned_entries} pruned  peak RSS {peak_rss_mib:.0f} MiB")


def systems(fcidump=None, **config):
    """(name, FCIDUMP path, run configuration) of each workload, or of ``fcidump``."""
    if fcidump is not None:
        yield fcidump.stem, fcidump, config
        return
    # perfbench's modules load here, so that insertion's child does without them
    from workloads import WORKLOADS, write_input
    for name, workload in WORKLOADS.items():
        yield name, write_input(workload, 1, ROOT, CACHE)[0], workload.config


def warm_up() -> None:
    """One H2 iteration, as perfbench runs, to load the lazily imported modules."""
    h2 = parse_fcidump((ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump").read_text())
    run_adapt_vmpe(h2, RunConfig(max_iterations=1))


def median_ms(call, calls: int) -> tuple[float, int]:
    """Median milliseconds of ``calls`` calls after one warm-up call, and
    the number of calls timed: one where the warm-up takes over SLOW_S."""
    tic = time.perf_counter()
    call()
    calls = 1 if time.perf_counter() - tic > SLOW_S else calls
    seconds = []
    for _ in range(calls):
        tic = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - tic)
    return 1e3 * np.median(seconds), calls


def start(args) -> None:
    """Time what a fresh interpreter pays to start majprop, one command at a time.

    The median over ``--processes`` fresh processes, in turns, of ``import majprop``,
    of it plus ``parse_fcidump`` of each input (the benchmark's ``setup_s``), of two
    CLI calls and of one run per input (which pays every import deferred to first use)."""
    if args.processes < 1:
        sys.exit("start: --processes must be at least 1")
    src = str(ROOT / "src")
    inputs = [(name, str(path), json.dumps(config)) for name, path, config in systems()]
    timed = [
        ("import majprop", ["-c", IMPORT, src]),
        *((f"import + parse {name}", ["-c", PARSE, src, path]) for name, path, _ in inputs),
        ("majprop --help", ["-c", CLI, src, "--help"]),
        ("majprop pool-info --occupied 2 --virtual 2",
         ["-c", CLI, src, "pool-info", "--occupied", "2", "--virtual", "2"]),
        *((f"run {name}", ["-c", RUN, src, path, config]) for name, path, config in inputs),
    ]
    seconds: dict[str, list[float]] = {label: [] for label, _ in timed}
    for _ in range(args.processes):
        for label, argv in timed:
            tic = time.perf_counter()
            subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL)
            seconds[label].append(time.perf_counter() - tic)
    print(f"{'command':44s} {'median ms':>10s}  ({args.processes} processes each)")
    for label, values in seconds.items():
        print(f"{label:44s} {1e3 * np.median(values):10.0f}")


def cuts(args) -> None:
    """Time pool scoring at the front, inside and at the back of final graphs.

    After the H2 warm-up, runs each system once and times ``cut_landscapes``
    for the full pool at a few cuts of the final graph.  ``--rows`` saves
    every landscape row, so that two checkouts can be compared row by row."""
    rows = {}
    warm_up()
    for name, path, config in systems(args.fcidump, max_iterations=args.iterations,
                                      cutoff=args.cutoff or None):
        tensors = parse_fcidump(path.read_text())
        tic = time.perf_counter()
        result = run_adapt_vmpe(tensors, RunConfig(**config))
        print(f"{name}: {len(result.trajectory) - 1} iterations in"
              f" {time.perf_counter() - tic:.2f} s", flush=True)
        gate_sets = [c.gates(result.params.size) for c in result.pool.candidates]
        graph, params, n_gates = result.graph, result.params, len(result.graph.steps)
        mid = {"mid": n_gates // 2} if args.fcidump else MIDS.get(name, {})
        for label, where in {"front": 0, "back": n_gates, **mid}.items():
            def score(key=f"{name} {label}", where=where):
                rows[key] = cut_landscapes(graph, params, where, gate_sets)
            ms, calls = median_ms(score, args.calls)
            print(f"{name:9s} {label:7s} {ms:9.1f} ms"
                  f"  ({calls} calls, {len(gate_sets)} candidates)", flush=True)
    if args.rows:
        np.savez(args.rows, **rows)


def dressing(args) -> None:
    """Time the dressed Hamiltonian on final graphs.

    Runs each system cold (map and pool caches cleared), then warm, then
    times a map build, one ``linearize`` plus pullback of the pruned
    sweep's dressed Hamiltonian, and one ``eval_energy_and_gradient``."""
    print(f"{'workload':9s} {'cold call':>10s} {'warm call':>10s} {'rows read':>13s}"
          f" {'map build':>10s} {'dressing':>9s} {'eval+grad':>10s}  (ms)")
    for name, path, config in systems():
        tensors = parse_fcidump(path.read_text())
        calls_ms = []
        integral_map.cache_clear()
        build_majoranic_pool.cache_clear()
        for _ in range(2):
            tic = time.perf_counter()
            result = run_adapt_vmpe(tensors, RunConfig(**config))
            calls_ms.append(1e3 * (time.perf_counter() - tic))
        graph, params = result.graph, result.params
        full, read = graph.hamiltonian, graph.pruned.hamiltonian
        dcoeffs = np.ones(read.keys.size)
        build_ms, _ = median_ms(  # the map build that the cache would skip
            lambda: integral_map.__wrapped__(tensors.n_spatial, full.map.shared), MAP_CALLS)
        dress_ms, _ = median_ms(lambda: read.linearize(params)[1](dcoeffs), args.calls)
        sweep_ms, _ = median_ms(lambda: eval_energy_and_gradient(graph, params), args.calls)
        rows = f"{read.keys.size}/{full.keys.size}"  # of the map, read by the pruned sweep
        print(f"{name:9s} {calls_ms[0]:10.1f} {calls_ms[1]:10.1f} {rows:>13s} {build_ms:10.1f}"
              f" {dress_ms:9.3f} {sweep_ms:10.3f}", flush=True)


def insertion(args) -> None:
    """Time graph insertion, one fresh process per cutoff.

    The system defaults to the H8 chain at 2.0 Angstrom (STO-3G, no CI). Cutoffs run one
    at a time, each in a fresh process after the H2 warm-up: exact H8 takes several GiB."""
    if args.child is not None:
        warm_up()
        tensors = parse_fcidump(args.fcidump.read_text())
        tic = time.perf_counter()
        result = run_adapt_vmpe(tensors, RunConfig(max_iterations=args.iterations,
                                                   cutoff=args.child or None))
        wall, rows, graph = time.perf_counter() - tic, result.trajectory, result.graph
        print(json.dumps(dict(
            cutoff=args.child or None, iterations=len(rows) - 1, wall_s=wall,
            **{name: sum(getattr(row, name) for row in rows)
               for name in ("score_s", "insert_s", "optimize_s")},
            final_layer=int(graph.final_keys.size),
            full_entries=sum(int(step.z.size) for step in graph.steps),
            pruned_entries=sum(int(step.z.size) for step in graph.pruned.steps),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)))
        return
    name, fcidump = "H8", CACHE / "h8_chain_r20.fcidump"
    if args.fcidump is not None:
        name, fcidump = args.fcidump.stem, args.fcidump
    elif not fcidump.is_file():
        import make_fixtures  # this script's directory
        CACHE.mkdir(parents=True, exist_ok=True)
        make_fixtures.hydrogen_chain_fcidump(8, 2.0 * make_fixtures.BOHR_PER_ANGSTROM, fcidump)
    records = []
    for cutoff in args.cutoffs:
        child = [__file__, "insertion", "--child", str(cutoff), "--fcidump", str(fcidump),
                 "--iterations", str(args.iterations)]
        out = subprocess.run([sys.executable, *child], check=True, capture_output=True, text=True)
        records.append(json.loads(out.stdout.splitlines()[-1]))
        print(f"{name} cutoff {cutoff or 'none':>4}: " + RECORD.format(**records[-1]), flush=True)
    if args.json:
        args.json.write_text(json.dumps(records, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subcommands = parser.add_subparsers(required=True)

    def add(func, *shared):
        sub = subcommands.add_parser(func.__name__, help=func.__doc__.splitlines()[0],
                                     description=func.__doc__)
        for option in shared:
            sub.add_argument(option, **SHARED[option])
        sub.set_defaults(func=func)
        return sub

    add(start).add_argument("--processes", type=int, default=9)
    timed = add(cuts, "--calls", "--iterations", "--fcidump")
    timed.add_argument("--cutoff", type=int, default=6, help="with --fcidump; 0: none")
    timed.add_argument("--rows", type=Path, help="save the landscape rows here (.npz)")
    add(dressing, "--calls").set_defaults(calls=200)
    timed = add(insertion, "--iterations", "--fcidump")
    timed.add_argument("--cutoffs", type=int, nargs="+", default=[6, 8, 0], help="0: none")
    timed.add_argument("--json", type=Path, help="also write the records here")
    timed.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
