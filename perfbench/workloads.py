"""Workloads, seeded inputs and correctness checks for the majprop benchmark.

Each workload is one physical system plus one ``RunConfig``.  The seed picks
a random sign gauge for the spatial orbitals (phi_p -> s_p phi_p with
s_p = +-1): the integrals the program reads differ from seed to seed, while
the spectrum, the pool and the amount of work stay those of the system, so
runs with different seeds time the same computation.  The program receives
only the generated FCIDUMP file.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from majprop import IntegralTensors, RunConfig, emit_fcidump, expectation, parse_fcidump
from majprop.instances import random_restricted_integrals
from majprop.oracle import circuit_state, dense_expectation

CHEM_ACC_HA = 1.6e-3  # chemical accuracy
C09_GAP_HA = 1e-3  # the acceptance gate of the exact H4 run
DENSE_MAX_MODES = 14  # the oracle's full-space limit
VARIATIONAL_TOL_HA = 1e-9
REPROPAGATION_TOL_HA = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    system: str  # h4 | h6 | m20
    config: dict

    def run_config(self) -> RunConfig:
        return RunConfig(**self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h4_exact", "h4", dict(max_iterations=30, cutoff=None, selection="ggf")),
        Workload("h6_cut6", "h6", dict(max_iterations=15, cutoff=6, selection="ggf")),
        Workload("m20_grad", "m20", dict(max_iterations=1, cutoff=4, selection="gradient")),
        Workload(
            "h4_schro", "h4",
            dict(max_iterations=4, cutoff=None, selection="ggf", picture="schrodinger"),
        ),
    )
}

M20_BASE_SEED = 120  # the 20-mode instance of the polynomial-scaling check
H6_SPACING_ANGSTROM = 2.0


def _h6_chain(root: Path, cache: Path) -> tuple[Path, float]:
    """H6 chain integrals from scripts/make_fixtures.py, built once per checkout.

    Runs in a child process so that its memory and its printout stay out of
    the measured process.
    """
    fcidump, sidecar = cache / "h6_chain_r20.fcidump", cache / "h6_chain_r20.json"
    if not (fcidump.is_file() and sidecar.is_file()):
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            code = (
                "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]);"
                "import make_fixtures as mf;"
                "mf.hydrogen_chain(6, float(sys.argv[2]) * mf.BOHR_PER_ANGSTROM,"
                " 'h6_chain_r20', Path(sys.argv[3]))"
            )
            subprocess.run(
                [sys.executable, "-c", code, str(root / "scripts"),
                 str(H6_SPACING_ANGSTROM), tmp],
                check=True, capture_output=True, timeout=600,
            )
            for name in (fcidump.name, sidecar.name):
                os.replace(Path(tmp) / name, cache / name)
    return fcidump, json.loads(sidecar.read_text())["e_fci"]


def base_system(workload: Workload, root: Path, cache: Path) -> tuple[IntegralTensors, float | None]:
    """Integrals of the workload's system and its FCI energy, when known."""
    if workload.system == "h4":
        fixtures = root / "tests" / "fixtures"
        tensors = parse_fcidump((fixtures / "h4_chain_r20.fcidump").read_text())
        return tensors, json.loads((fixtures / "h4_chain_r20.json").read_text())["e_fci"]
    if workload.system == "h6":
        fcidump, e_fci = _h6_chain(root, cache)
        return parse_fcidump(fcidump.read_text()), e_fci
    tensors = random_restricted_integrals(
        10, np.random.default_rng(M20_BASE_SEED), n_electrons=10
    )
    return tensors, None


def sign_gauge(tensors: IntegralTensors, seed: int) -> IntegralTensors:
    """The same integrals in a seeded random orbital sign convention."""
    s = np.random.default_rng(seed).choice([-1.0, 1.0], size=tensors.n_spatial)
    return IntegralTensors(
        core_energy=tensors.core_energy,
        h1=tensors.h1 * np.einsum("p,q->pq", s, s),
        h2=tensors.h2 * np.einsum("p,q,r,t->pqrt", s, s, s, s),
        n_electrons=tensors.n_electrons,
        ms2=tensors.ms2,
    )


def write_input(workload: Workload, seed: int, root: Path, cache: Path) -> tuple[Path, float | None]:
    """Write the seeded FCIDUMP the program reads; returns (path, FCI energy)."""
    tensors, e_fci = base_system(workload, root, cache)
    path = cache / "inputs" / f"{workload.name}-seed{seed}.fcidump"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit_fcidump(sign_gauge(tensors, seed)))
    return path, e_fci


# ---- correctness --------------------------------------------------------------


def check_result(workload: Workload, result, e_fci: float | None) -> tuple[list[str], dict]:
    """Failed checks (empty when correct) and the accuracy figures of one run."""
    errors: list[str] = []
    config = result.config
    energies = result.trajectory.energies
    if not (np.diff(energies) <= 1e-12).all():
        errors.append("trajectory is not monotone")
    if workload.name == "h4_exact" and not -VARIATIONAL_TOL_HA < result.energy - e_fci < C09_GAP_HA:
        errors.append(f"final gap to FCI {result.energy - e_fci:.3e} Ha is outside the c09 gate")
    accuracy: dict = {}
    n_modes = result.hamiltonian.n_modes
    if e_fci is not None and n_modes <= DENSE_MAX_MODES:
        psi = circuit_state(result.circuit.rotation_sequence(), result.occupation, n_modes)
        dense = dense_expectation(result.hamiltonian, psi)
        if dense < e_fci - VARIATIONAL_TOL_HA:
            errors.append(f"dense energy {dense:.10f} lies below FCI {e_fci:.10f}")
        accuracy["energy_error_mha"] = 1e3 * (dense - e_fci)
        if config.cutoff is not None:
            accuracy["truncation_bias_mha"] = 1e3 * abs(result.energy - dense)
    if workload.name == "m20_grad":
        again = expectation(
            result.hamiltonian, result.circuit, result.occupation, config.policy(),
            config.picture,
        )
        if not abs(again - result.energy) <= REPROPAGATION_TOL_HA:
            errors.append(
                f"surrogate energy {result.energy:.12f} differs from re-propagation {again:.12f}"
            )
    return errors, accuracy


def time_to_chem_acc(result, seconds: float, e_fci: float | None) -> tuple[float, bool]:
    """(seconds, reached) until the trajectory is first within chemical accuracy.

    Time outside the trajectory rows plus the row times up to that row.  Only
    untruncated runs with a FCI reference can reach it; any other run is
    censored at its end, as is an exact run that never gets there.
    """
    rows = result.trajectory.rows
    if e_fci is None or result.config.cutoff is not None:
        return seconds, False
    elapsed = seconds - math.fsum(r.wall_time_s for r in rows)
    for row in rows:
        elapsed += row.wall_time_s
        if row.energy - e_fci <= CHEM_ACC_HA:
            return elapsed, True
    return seconds, False
