"""End-to-end command line behavior, including exit-code mapping."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from majprop import FermionicCircuit
from majprop.cli import main
from majprop.driver import load_circuit_json

FIXTURES = Path(__file__).parent / "fixtures"
H2 = str(FIXTURES / "h2_sto3g.fcidump")
H4 = str(FIXTURES / "h4_chain_r20.fcidump")


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_help_and_bad_usage_exit_codes(tmp_path, capsys):
    assert main([]) == 0
    assert "Commands" in capsys.readouterr().out
    assert main(["no-such-command"]) == 1
    assert main(["pool-info", "--occupied", "many", "--virtual", "1"]) == 1
    assert main(["verify", "--threads", "2"]) == 1  # the option is gone
    assert main(["run", "--fcidump", H2, "--seed", "5"]) == 1  # run draws nothing at random
    capsys.readouterr()
    assert main(["verify", "--instances", "0"]) == 1  # no instance checks nothing
    assert "PASS" not in capsys.readouterr().out
    circuit = tmp_path / "circuit.json"
    circuit.write_text(FermionicCircuit(4, [], np.zeros(0)).to_json())  # no hf_occupation
    assert main(["evaluate", "--fcidump", H2, "--circuit", str(circuit)]) == 1
    assert "circuit JSON has no 'hf_occupation' field" in capsys.readouterr().err


def test_pool_info_reference_counts(capsys):
    assert main(["pool-info", "--occupied", "10", "--virtual", "10"]) == 0
    out = capsys.readouterr().out
    assert "singles 200" in out
    assert "doubles 14050" in out
    assert "total 14250" in out
    assert main(["pool-info", "--occupied", "1", "--virtual", "1"]) == 0
    assert "total 3" in capsys.readouterr().out


def test_run_writes_trajectory_and_circuit(tmp_path, capsys):
    rc = main([
        "run", "--fcidump", H2, "--out", str(tmp_path),
        "--iterations", "2", "--cutoff", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final energy" in out
    assert "stopped on improvement_floor" in out  # H2 stalls after one gate
    rows = _read_rows(tmp_path / "trajectory.csv")
    assert [r["iteration"] for r in rows] == [str(i) for i in range(len(rows))]
    energies = [float(r["energy"]) for r in rows]
    assert energies == sorted(energies, reverse=True)
    circuit, occupation = load_circuit_json((tmp_path / "circuit.json").read_text())
    assert occupation == 0b0011
    assert circuit.n_modes == 4


def test_run_warns_when_the_optimizer_budget_runs_out(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"opt_maxfun": 3, "max_iterations": 1, "cutoff": None}))
    h4 = str(FIXTURES / "h4_chain_r20.fcidump")
    assert main(["run", "--fcidump", h4, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert "iteration 1: the optimizer stopped unconverged" in capsys.readouterr().err


def test_run_over_the_memory_budget_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_live_monomials": 1}))
    assert main(["run", "--fcidump", H2, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "over the budget of 1" in capsys.readouterr().err


def test_run_iterations_zero_keeps_only_the_baseline(tmp_path):
    assert main([
        "run", "--fcidump", H2, "--out", str(tmp_path),
        "--iterations", "0", "--cutoff", "0",
    ]) == 0
    rows = _read_rows(tmp_path / "trajectory.csv")
    assert len(rows) == 1 and rows[0]["gate"] == "baseline"


def test_run_flags_override_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iterations": 5, "cutoff": None}))
    assert main([
        "run", "--fcidump", H2, "--config", str(config),
        "--out", str(tmp_path), "--iterations", "0",
    ]) == 0
    assert len(_read_rows(tmp_path / "trajectory.csv")) == 1


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cutofff": 8}))
    rc = main(["run", "--fcidump", H2, "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key", [({"trim_kappa": None}, "trim_kappa"), ({"max_iterations": "3"}, "max_iterations")]
)
def test_run_rejects_mistyped_config_values(tmp_path, capsys, data, key):
    """A config value of the wrong type is bad input (exit 1 with an error
    line naming the key), not a traceback from validation."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    rc = main(["run", "--fcidump", H2, "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_run_missing_fcidump_is_a_usage_error(tmp_path):
    assert main(["run", "--fcidump", str(tmp_path / "nope.fcidump")]) == 1


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    for sub in ("a", "b"):
        assert main([
            "run", "--fcidump", H2, "--out", str(tmp_path / sub),
            "--iterations", "2", "--cutoff", "0",
        ]) == 0
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows
    ]
    assert strip(_read_rows(tmp_path / "a" / "trajectory.csv")) == strip(
        _read_rows(tmp_path / "b" / "trajectory.csv")
    )


def test_evaluate_cutoff_ladder_with_dense_reference(tmp_path, capsys):
    assert main([
        "run", "--fcidump", H4, "--out", str(tmp_path),
        "--iterations", "2", "--cutoff", "6",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "evaluate", "--fcidump", H4, "--circuit", str(tmp_path / "circuit.json"),
        "--cutoffs", "4,6,0", "--out", str(tmp_path / "ladder.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("cutoff,energy,abs_error_exact")
    assert "# dense reference" in out
    rows = _read_rows(tmp_path / "ladder.csv")
    assert [r["cutoff"] for r in rows] == ["4", "6", "0"]
    # the untruncated row reproduces the dense reference
    assert float(rows[-1]["abs_error_exact"]) < 1e-10
    assert float(rows[0]["abs_error_exact"]) >= float(rows[-1]["abs_error_exact"])


def test_evaluate_rejects_mode_mismatch(tmp_path, capsys):
    assert main([
        "run", "--fcidump", H2, "--out", str(tmp_path),
        "--iterations", "0", "--cutoff", "0",
    ]) == 0
    rc = main([
        "evaluate", "--fcidump", H4, "--circuit", str(tmp_path / "circuit.json"),
    ])
    assert rc == 1


def test_bound_command(tmp_path, capsys):
    sidecar = tmp_path / "spectral.json"
    sidecar.write_text(json.dumps(
        {"e0": -2.0, "s1": -1.0, "s1_top": -1.5, "lambda2": 1.0, "lambda_p": 20.0}
    ))
    rc = main(["bound", "--spectral", str(sidecar), "--energy", "-1.6", "--penalty", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "two-level" in out and "penalty" in out and "gap-free" in out
    assert "0.475000" in out  # 0.6 - 0.25 * 0.5 with the gap factor
    assert "0.350000" in out  # 0.6 - 0.25 without it
    # a penalty expectation past lambda2 violates the bound's precondition
    assert main([
        "bound", "--spectral", str(sidecar), "--energy", "-1.6", "--penalty", "1.5",
    ]) == 1
    # an energy below e0 (truncation error) certifies nothing
    capsys.readouterr()
    assert main(["bound", "--spectral", str(sidecar), "--energy", "-2.05"]) == 1
    captured = capsys.readouterr()
    assert "below the ground-state energy" in captured.err
    assert "two-level" not in captured.out
    sidecar.write_text(json.dumps({"e0": -2.0, "s1": -1.0}))
    assert main(["bound", "--spectral", str(sidecar), "--energy", "-1.6"]) == 1


def test_verify_cross_checks_the_oracle(capsys):
    rc = main(["verify", "--modes", "6", "--instances", "2", "--gates", "8"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_failure_exits_two(capsys):
    rc = main([
        "verify", "--modes", "6", "--instances", "2", "--gates", "8",
        "--tolerance", "1e-30",
    ])
    assert rc == 2
    assert "exceeds tolerance" in capsys.readouterr().err


def test_bench_emits_timing_csv(tmp_path, capsys):
    rc = main([
        "bench", "--modes", "8", "--gates", "10", "--cutoff", "4",
        "--out", str(tmp_path / "bench.csv"),
    ])
    assert rc == 0
    rows = _read_rows(tmp_path / "bench.csv")
    assert len(rows) == 1
    assert rows[0]["n_modes"] == "8"
    assert float(rows[0]["build_s"]) > 0
