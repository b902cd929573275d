"""Closed-loop benchmark of majprop's adaptive driver on one workload.

    python3 perfbench/run.py --workload h4_exact --seed 1 --seconds 20 --trace 0

Runs ``run_adapt_vmpe`` on the workload's seeded input one call at a time,
from this single process with BLAS/OpenMP threads pinned to 1, until the
next call would overrun ``--seconds``.  Every call's output is checked
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics and the tracing overhead.  A table of every metric goes
to standard output, followed by one JSON line carrying the metrics that
BENCHMARK.json names; the full record, with the environment and the
spans, goes to perfbench/results/.
"""

from __future__ import annotations

import os

# pinned before numpy loads, for this process and the set-up children
THREAD_PINNING = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's own sources, not an installed copy
try:
    import majprop  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"error: cannot import majprop from {ROOT / 'src'}: {exc}")
from majprop import parse_fcidump, run_adapt_vmpe  # noqa: E402
from tracing import SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_result, time_to_chem_acc, write_input  # noqa: E402

SETUP_REPEATS = 5
MIN_CALLS = 2  # a traced run needs one untraced and one traced call
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import majprop;"
    "majprop.parse_fcidump(open(sys.argv[2]).read())"
)

END_TO_END_UNITS = {
    "time_to_energy_s": "s",
    "time_to_chem_acc_s": "s",
    "energy_error_mha": "mHa",
    "truncation_bias_mha": "mHa",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "error_rate": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("fraction", "per_accept")) else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(samples: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "thread_pinning": THREAD_PINNING,
        "samples_per_median": samples,
    }


def measure_setup(fcidump: Path) -> list[float]:
    """Interpreter start, ``import majprop`` and reading the input, in fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(fcidump)],
                       check=True)
        out.append(time.perf_counter() - tic)
    return out


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(majprop.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported majprop from {majprop.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    config = workload.run_config()
    fcidump, e_fci = write_input(workload, args.seed, ROOT, HERE / ".cache")
    text = fcidump.read_text()
    tensors = parse_fcidump(text)

    setup_samples = measure_setup(fcidump) if not args.trace else []
    # first-call costs (lazy imports, the compiled-path probe) paid on a tiny system
    h2 = parse_fcidump((ROOT / "tests" / "fixtures" / "h2_sto3g.fcidump").read_text())
    run_adapt_vmpe(h2, replace(config, max_iterations=2))

    recorder = SpanRecorder() if args.trace else None
    calls: list[dict] = []
    window = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        calls.append(one_call(workload, config, text, tensors, e_fci,
                              recorder if traced else None))
        done = [c["seconds"] for c in calls if c["seconds"] is not None] or [0.0]
        if len(calls) >= MIN_CALLS and time.perf_counter() - window + statistics.median(done) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(calls)
    failed = sum(1 for c in calls if c["errors"])
    completed = [c for c in calls if c["seconds"] is not None]
    untraced = [c for c in completed if not c["traced"]]
    traced_calls = [c for c in completed if c["traced"]]
    if not untraced or (args.trace and not traced_calls):
        errors = sorted({e for c in calls for e in c["errors"]})
        print(f"error: no call completed: {'; '.join(errors)}", file=sys.stderr)
        return 1

    def median_of(key, pool):
        values = [c[key] for c in pool if c.get(key) is not None]
        return statistics.median(values) if values else None

    metrics: dict[str, float | None] = {}
    if not args.trace:
        accuracy = [c["accuracy"] for c in untraced]
        metrics = {
            "time_to_energy_s": median_of("seconds", untraced),
            "time_to_chem_acc_s": median_of("time_to_chem_acc_s", untraced),
            "energy_error_mha": median_of("energy_error_mha", accuracy),
            "truncation_bias_mha": median_of("truncation_bias_mha", accuracy),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
            "error_rate": failed / attempted,
        }
        units = END_TO_END_UNITS
        wanted = spec["end_to_end"]
    else:
        metrics = {
            name: median_of(name, [c["layers"] for c in traced_calls])
            for name in traced_calls[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            median_of("seconds", traced_calls) - median_of("seconds", untraced)
        )
        units = {name: layer_unit(name) for name in metrics}
        wanted = spec["per_layer"]

    samples = {"untraced_calls": len(untraced), "traced_calls": len(traced_calls),
               "setup_repeats": len(setup_samples)}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config,
        "input": str(fcidump.relative_to(ROOT)),
        "e_fci": e_fci,
        "environment": environment(samples),
        "setup_samples_s": setup_samples,
        "calls": calls,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "spans": recorder.to_rows() if recorder else [],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out_file = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print_table(workload.name, args, metrics, units, untraced, traced_calls, out_file)
    missing = [m["name"] for m in wanted
               if metrics.get(m["name"]) is None or not math.isfinite(metrics[m["name"]])]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def one_call(workload, config, text, tensors, e_fci, recorder) -> dict:
    """One timed ``run_adapt_vmpe`` call, then its checks outside the timing."""
    gc.collect()
    out: dict = {"traced": recorder is not None, "seconds": None, "errors": []}
    try:
        if recorder is None:
            tic = time.perf_counter()
            result = run_adapt_vmpe(tensors, config)
            seconds = time.perf_counter() - tic
        else:
            recorder.run += 1
            with recorder.installed():
                with recorder.span("integrals.parse"):
                    parsed = parse_fcidump(text)
                with recorder.span("driver.run") as root:
                    result = run_adapt_vmpe(parsed, config)
            seconds = root.seconds
        out["seconds"] = seconds
        out["errors"], out["accuracy"] = check_result(workload, result, e_fci)
        out["time_to_chem_acc_s"], out["reached_chem_acc"] = time_to_chem_acc(
            result, seconds, e_fci
        )
        out["energy"] = result.energy
        out["iterations"] = len(result.trajectory) - 1
        if recorder is not None:
            out["layers"] = layer_metrics(recorder, recorder.run, result, seconds)
    except Exception as exc:  # a failed call counts against error_rate
        out["errors"].append(f"{type(exc).__name__}: {exc}")
    return out


def print_table(name, args, metrics, units, untraced, traced_calls, out_file) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{name}  seed {args.seed}  {mode}  calls: {len(untraced)} untraced, "
          f"{len(traced_calls)} traced")
    for key, value in metrics.items():
        shown = "n/a" if value is None or not math.isfinite(value) else f"{value:.6g}"
        note = ""
        if key == "time_to_energy_s":
            high = high_percentile([c["seconds"] for c in untraced])
            note = f"median of {len(untraced)}; " + (
                f"{high[0]} {high[1]:.6g} s" if high else "no percentile (needs > 10 calls)"
            )
        elif key == "time_to_chem_acc_s" and not any(c["reached_chem_acc"] for c in untraced):
            note = "censored at the end of the call: not reached or no exact reference"
        print(f"  {key:34s} {shown:>12s} {units[key]:6s} {note}")
    print(f"  record: {out_file.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
