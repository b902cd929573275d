"""The stage-timing harness reports what an in-process run of the same
system gives (each call runs the script in a fresh process)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from majprop import RunConfig, parse_fcidump, run_adapt_vmpe
from majprop.surrogate import cut_landscapes

CHECKOUT = Path(__file__).parents[1]
FIXTURES = CHECKOUT / "tests" / "fixtures"
H4 = FIXTURES / "h4_chain_r20.fcidump"


def _harness(*args) -> str:
    """Standard output of ``scripts/stage_timings.py`` run with ``args``."""
    script = CHECKOUT / "scripts" / "stage_timings.py"
    done = subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout


@pytest.fixture(scope="module")
def h4_run():
    """Three GGF iterations on H4 with no cutoff, in this process."""
    return run_adapt_vmpe(parse_fcidump(H4.read_text()), RunConfig(max_iterations=3, cutoff=None))


def test_cuts_saves_the_rows_of_an_in_process_run(tmp_path, h4_run):
    rows = tmp_path / "rows.npz"
    out = _harness("cuts", "--fcidump", H4, "--iterations", 3, "--cutoff", 0, "--calls", 1,
                   "--rows", rows)
    assert out.startswith("h4_chain_r20: 3 iterations in")
    graph, params = h4_run.graph, h4_run.params
    gate_sets = [c.gates(params.size) for c in h4_run.pool.candidates]
    cuts = {"front": 0, "mid": len(graph.steps) // 2, "back": len(graph.steps)}
    saved = np.load(rows)
    assert sorted(saved.files) == sorted(f"h4_chain_r20 {label}" for label in cuts)
    for label, where in cuts.items():
        expected = cut_landscapes(graph, params, where, gate_sets)
        assert np.array_equal(saved[f"h4_chain_r20 {label}"], expected)


def test_insertion_reports_the_counts_of_an_in_process_run(tmp_path, h4_run):
    records = tmp_path / "records.json"
    out = _harness("insertion", "--fcidump", H4, "--iterations", 3, "--cutoffs", 0,
                   "--json", records)
    assert out.startswith("h4_chain_r20 cutoff none: 3 iterations in")
    [record] = json.loads(records.read_text())
    graph = h4_run.graph
    assert record["iterations"] == len(h4_run.trajectory) - 1 == 3
    assert record["final_layer"] == graph.final_keys.size
    assert record["full_entries"] == sum(step.z.size for step in graph.steps)
    assert record["pruned_entries"] == sum(step.z.size for step in graph.pruned.steps)


def test_start_prints_one_line_per_command():
    # the workloads' runs take seconds each; the H2 fixture stands in for them
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import stage_timings as s;"
            " s.systems = lambda: [('h2_sto3g', s.ROOT / 'tests/fixtures/h2_sto3g.fcidump', {})];"
            " s.main()")
    argv = [sys.executable, "-c", code, str(CHECKOUT / "scripts"), "start", "--processes", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    labels = [line[:44].rstrip() for line in done.stdout.splitlines()[1:]]
    assert labels == ["import majprop", "import + parse h2_sto3g", "majprop --help",
                      "majprop pool-info --occupied 2 --virtual 2", "run h2_sto3g"]


@pytest.mark.parametrize("subcommand, options", [
    ("start", ["--processes"]),
    ("cuts", ["--calls", "--iterations", "--fcidump", "--cutoff", "--rows"]),
    ("dressing", ["--calls"]),
    ("insertion", ["--iterations", "--fcidump", "--cutoffs", "--json"]),
])
def test_every_subcommand_has_help_with_only_the_options_it_reads(subcommand, options):
    assert re.findall(r"\[(--[a-z]+)", _harness(subcommand, "--help")) == options
