"""Operator-facing command line for runs, re-evaluations, and diagnostics.

Subcommands: ``run`` grows a circuit from an FCIDUMP and writes the
trajectory CSV plus circuit JSON; ``evaluate`` re-scores a saved circuit at
a ladder of cutoffs (with the dense reference appended at desk scale);
``pool-info`` prints pool sizes; ``bound`` turns reference energies and a
penalty expectation into overlap floors; ``verify`` cross-checks the
propagation engine against the dense oracle on random instances; ``bench``
emits a timing table.

Exit codes: 0 on success, 1 on bad input (flags, config files, paths,
malformed data), 2 on runtime aborts (non-finite optimization, memory
budget, failed verification).
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from .bounds import (
    SpectralData,
    lower_bound_penalty,
    lower_bound_simple,
    lower_bound_unknown_gap,
)
from .driver import (
    MemoryBudgetError,
    OptimizationError,
    RunConfig,
    load_circuit_json,
    run_adapt_vmpe,
)
from .engine import TruncationPolicy, expectation
from .hamiltonian import build_majorana_hamiltonian
from .integrals import parse_fcidump
from .oracle import circuit_state, dense_expectation
from .pool import build_majoranic_pool, reduce_pool_equivalence
from .surrogate import build_surrogate, eval_energy, eval_energy_and_gradient

_DENSE_LIMIT = 14


class VerificationFailure(RuntimeError):
    """The engine/oracle cross-check exceeded tolerance."""


def _emit_table(header: tuple[str, ...], rows: list[tuple], out_path: str | None) -> None:
    """Echo a CSV table, and write it to ``out_path`` when given; floats
    print as ``repr``, everything else as ``str``."""
    cells = [[repr(x) if isinstance(x, float) else str(x) for x in row] for row in rows]
    click.echo(",".join(header))
    for row in cells:
        click.echo(",".join(row))
    if out_path:
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(cells)


def _timed(fn) -> float:
    tic = time.perf_counter()
    fn()
    return time.perf_counter() - tic


@click.group()
def cli() -> None:
    """Adaptive fermionic circuit synthesis on the Majorana propagation engine."""


_seed_option = click.option(
    "--seed", type=int, default=0, show_default=True,
    help="Seed for the random instances of verify/bench.",
)


# ---- run -----------------------------------------------------------------------


@cli.command()
@click.option("--fcidump", "fcidump_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Integral file.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON with run settings; flags below override its fields.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for trajectory.csv and circuit.json.")
@click.option("--cutoff", type=int, default=None,
              help="Length cutoff in Majorana sites; 0 disables truncation.")
@click.option("--picture", type=click.Choice(["heisenberg", "schrodinger"]), default=None)
@click.option("--iterations", type=int, default=None, help="Adaptive iterations (0 = baseline only).")
@click.option("--selection", type=click.Choice(["gradient", "ggf", "mixed"]), default=None)
@click.option("--trim-tau", type=int, default=None, help="Pool survivors kept between refreshes.")
@click.option("--trim-kappa", type=int, default=None, help="Iterations between pool refreshes.")
def run(fcidump_path, config_path, out_dir, cutoff, picture, iterations,
        selection, trim_tau, trim_kappa) -> None:
    """Grow and optimize a circuit for the given integrals."""
    data = json.loads(Path(config_path).read_text()) if config_path else {}
    overrides = {
        "cutoff": cutoff,
        "picture": picture,
        "max_iterations": iterations,
        "selection": selection,
        "trim_tau": trim_tau,
        "trim_kappa": trim_kappa,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    if cutoff == 0:
        data["cutoff"] = None
    config = RunConfig.from_dict(data)
    tensors = parse_fcidump(Path(fcidump_path).read_text())

    result = run_adapt_vmpe(tensors, config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectory_path = out / "trajectory.csv"
    circuit_path = out / "circuit.json"
    result.trajectory.to_csv(str(trajectory_path))
    circuit_path.write_text(result.circuit_json())
    click.echo(f"wrote {trajectory_path} and {circuit_path}")
    click.echo(
        f"final energy {result.energy:.12f} after "
        f"{len(result.trajectory) - 1} iterations"
    )
    click.echo(f"stopped on {result.stop}")
    for row in result.trajectory:
        if not row.opt_converged:
            click.echo(f"warning: iteration {row.iteration}: the optimizer stopped unconverged "
                       f"after {row.opt_nfev} evaluations", err=True)


# ---- evaluate --------------------------------------------------------------------


@cli.command()
@click.option("--fcidump", "fcidump_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--circuit", "circuit_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Saved circuit JSON.")
@click.option("--cutoffs", default="4,6,8", show_default=True,
              help="Comma-separated length cutoffs; 0 means no truncation.")
@click.option("--picture", type=click.Choice(["heisenberg", "schrodinger"]),
              default="heisenberg", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the table as CSV.")
def evaluate(fcidump_path, circuit_path, cutoffs, picture, out_path) -> None:
    """Recompute a saved circuit's energy over a ladder of cutoffs."""
    try:
        ladder = [int(c) for c in cutoffs.split(",") if c.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --cutoffs value {cutoffs!r}: {exc}") from exc
    if not ladder:
        raise click.UsageError("--cutoffs named no cutoffs")
    tensors = parse_fcidump(Path(fcidump_path).read_text())
    hamiltonian = build_majorana_hamiltonian(tensors)
    policies = [TruncationPolicy(length_cutoff=None if c == 0 else c) for c in ladder]
    for policy in policies:
        policy.validate(hamiltonian.max_degree())
    circuit, occupation = load_circuit_json(Path(circuit_path).read_text())
    if circuit.n_modes != hamiltonian.n_modes:
        raise ValueError(
            f"circuit acts on {circuit.n_modes} modes but the integrals "
            f"describe {hamiltonian.n_modes}"
        )

    exact = None
    if circuit.n_modes <= _DENSE_LIMIT:
        psi = circuit_state(circuit.rotation_sequence(), occupation, circuit.n_modes)
        exact = dense_expectation(hamiltonian, psi)

    rows = []
    for c, policy in zip(ladder, policies):
        energy = expectation(hamiltonian, circuit, occupation, policy, picture)
        error = "" if exact is None else repr(abs(energy - exact))
        rows.append((c, energy, error))

    _emit_table(("cutoff", "energy", "abs_error_exact"), rows, out_path)
    if exact is not None:
        click.echo(f"# dense reference {exact!r}")


# ---- pool-info -------------------------------------------------------------------


@cli.command("pool-info")
@click.option("--occupied", type=int, required=True, help="Occupied spatial orbitals per sector.")
@click.option("--virtual", type=int, required=True, help="Virtual spatial orbitals per sector.")
def pool_info(occupied, virtual) -> None:
    """Print the spin-preserving pool sizes for an active-space shape."""
    pool = build_majoranic_pool(occupied + virtual, occupied, virtual)
    info = pool.describe()
    reduced = reduce_pool_equivalence(pool)
    click.echo(f"singles {info['singles']}")
    click.echo(f"doubles {info['doubles']}")
    click.echo(f"total {info['total']}")
    click.echo(f"reduced {len(reduced)}")


# ---- bound -----------------------------------------------------------------------


@cli.command()
@click.option("--spectral", "spectral_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON with e0, s1, s1_top and optionally lambda2, lambda_p.")
@click.option("--energy", type=float, required=True, help="State energy from an engine run.")
@click.option("--penalty", type=float, default=0.0, show_default=True,
              help="Penalty expectation from an engine run.")
def bound(spectral_path, energy, penalty) -> None:
    """Overlap floors from reference energies plus a penalty expectation."""
    sidecar = json.loads(Path(spectral_path).read_text())
    try:
        e0, s1, s1_top = sidecar["e0"], sidecar["s1"], sidecar["s1_top"]
    except KeyError as exc:
        raise ValueError(f"spectral sidecar is missing {exc.args[0]!r}") from exc
    lambda2 = sidecar.get("lambda2", 1.0)
    lambda_p = sidecar.get("lambda_p", None)

    simple = lower_bound_simple(energy, e0, min(s1, s1_top))
    click.echo(f"two-level   {simple.value:.6f}  (raw {simple.raw:.6f})")
    if lambda_p is not None:
        data = SpectralData(e0, s1, s1_top, lambda2, lambda_p, penalty, energy)
        with_gap = lower_bound_penalty(data)
        click.echo(f"penalty     {with_gap.value:.6f}  (raw {with_gap.raw:.6f})")
    gap_free = lower_bound_unknown_gap(
        energy, e0, s1, penalty, lambda2, s1top_below=s1_top < s1
    )
    click.echo(f"gap-free    {gap_free.value:.6f}  (raw {gap_free.raw:.6f})")


# ---- verify ----------------------------------------------------------------------


@cli.command()
@click.option("--modes", type=int, default=8, show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--gates", type=int, default=12, show_default=True)
@click.option("--tolerance", type=float, default=1e-10, show_default=True)
@_seed_option
def verify(modes, instances, gates, tolerance, seed) -> None:
    """Cross-check truncation-free propagation against the dense oracle."""
    if modes > _DENSE_LIMIT:
        raise click.UsageError(f"--modes above the dense oracle limit {_DENSE_LIMIT}")
    import majprop.instances as inst

    rng = np.random.default_rng(seed)
    policy = TruncationPolicy(length_cutoff=2 * modes)
    worst = 0.0
    for k in range(instances):
        h = inst.random_molecular_hamiltonian(modes, rng)
        circuit = inst.random_circuit(modes, gates, rng)
        occupation = int(rng.integers(0, 1 << modes))
        engine = expectation(h, circuit, occupation, policy)
        psi = circuit_state(circuit.rotation_sequence(), occupation, modes)
        oracle = dense_expectation(h, psi)
        diff = abs(engine - oracle)
        worst = max(worst, diff)
        click.echo(f"instance {k}: |dE| = {diff:.3e}")
    if worst > tolerance:
        raise VerificationFailure(
            f"engine/oracle mismatch {worst:.3e} exceeds tolerance {tolerance:.1e}"
        )
    click.echo(f"PASS ({instances} instances, worst {worst:.3e})")


# ---- bench -----------------------------------------------------------------------


@cli.command()
@click.option("--modes", default="8,12", show_default=True, help="Comma-separated mode counts.")
@click.option("--gates", type=int, default=30, show_default=True)
@click.option("--cutoff", type=int, default=4, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_seed_option
def bench(modes, gates, cutoff, out_path, seed) -> None:
    """Time surrogate construction, re-evaluation, and gradients."""
    import majprop.instances as inst

    try:
        sizes = [int(m) for m in modes.split(",") if m.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --modes value {modes!r}: {exc}") from exc
    rng = np.random.default_rng(seed)
    header = ("n_modes", "n_gates", "cutoff", "build_s", "eval_s", "grad_s", "final_monomials")
    rows = []
    for n in sizes:
        h = inst.random_molecular_hamiltonian(n, rng)
        circuit = inst.random_circuit(n, gates, rng)
        occupation = (1 << (n // 2)) - 1
        policy = TruncationPolicy(length_cutoff=cutoff)
        tic = time.perf_counter()
        graph = build_surrogate(h, circuit, occupation, policy)
        build_s = time.perf_counter() - tic
        theta = rng.uniform(-0.5, 0.5, circuit.n_slots)
        eval_s = min(
            _timed(lambda: eval_energy(graph, theta)) for _ in range(3)
        )
        grad_s = min(
            _timed(lambda: eval_energy_and_gradient(graph, theta)) for _ in range(3)
        )
        rows.append((n, gates, cutoff, build_s, eval_s, grad_s, int(graph.final_keys.size)))
    _emit_table(header, rows, out_path)


# ---- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Dispatch and map failures onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.NoArgsIsHelpError as exc:
        click.echo(exc.format_message())
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (OptimizationError, MemoryBudgetError, VerificationFailure) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
