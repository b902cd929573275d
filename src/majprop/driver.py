"""The adaptive outer loop: grow a fermionic circuit towards the ground state.

The ansatz keeps a fixed layout: reference determinant, then the adaptively
grown gate body, then a block of single-excitation "active rotations" that
stays outermost.  Each iteration scores the candidate pool (gradient
magnitude, greedy improvement, or a mixture on the trimming schedule), picks
the best candidate, places its gates at the configured end of the body with
a fresh shared angle, and reoptimizes every parameter with L-BFGS-B on the
surrogate graph.  Each reoptimization is preconditioned with the previous
one's inverse-Hessian estimate, padded with a unit diagonal for the new
slot, since the new problem is the old one plus one angle.  The recorded
energy can never increase: new gates start at an angle whose energy is at
or below the previous optimum, and the optimizer never returns anything
worse than its starting point.  Every trajectory row splits its wall time
into scoring, graph insertion and optimizer stages.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import IO

import numpy as np
import scipy.optimize

from .engine import (  # noqa: F401 -- perfbench/tracing.py wraps driver.propagate
    FermionicCircuit,
    Gate,
    TruncationPolicy,
    propagate,
)
from .hamiltonian import build_majorana_hamiltonian, spin_orbital_mode
from .integrals import IntegralTensors, aufbau_occupation, dress_integrals
from .operators import SparseOperator
from .pool import (
    Pool,
    build_majoranic_pool,
    is_refresh_iteration,
    rank_candidates,
    reduce_pool_equivalence,
    score_pool_ggf,
    score_pool_gradient,
    single_excitation_monomials,
    trim_pool,
)
from .surrogate import (
    SurrogateGraph,
    build_surrogate,
    eval_energy,
    eval_energy_and_gradient,
    extend_surrogate,
)

__all__ = [
    "AdaptResult",
    "MemoryBudgetError",
    "OptimizationError",
    "Optimum",
    "RunConfig",
    "Trajectory",
    "TrajectoryRow",
    "decompose_single_excitation",
    "init_active_rotations",
    "load_circuit_json",
    "optimize_parameters",
    "run_adapt_vmpe",
]


class OptimizationError(RuntimeError):
    """The surrogate energy went non-finite during optimization."""


class MemoryBudgetError(RuntimeError):
    """A propagation layer outgrew the configured monomial budget."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


# ---- circuit building blocks --------------------------------------------------


def decompose_single_excitation(
    p: int,
    q: int,
    sector: str,
    n_spatial: int,
    slot: int,
    label: str | None = None,
) -> list[Gate]:
    """Two commuting rotations implementing exp(theta (a+_p a_q - a+_q a_p)).

    ``p`` and ``q`` are 1-based spatial orbitals in one spin sector; both
    gates share ``slot`` so a single angle drives the excitation.  The gate
    sign absorbs the orientation: exciting the lower mode into the higher
    carries sign -1 under the exp(-i sign*theta/2 M) gate convention.
    """
    if p == q:
        raise ValueError("single excitation requires two distinct orbitals")
    mode_p = spin_orbital_mode(p, sector, n_spatial)
    mode_q = spin_orbital_mode(q, sector, n_spatial)
    a, b = single_excitation_monomials(mode_p, mode_q)
    sign = -1 if mode_p > mode_q else 1
    text = label if label is not None else f"x {sector[0]} {q}->{p}"
    return [
        Gate(a, slot=slot, sign=sign, label=text),
        Gate(b, slot=slot, sign=sign, label=text),
    ]


def init_active_rotations(
    n_spatial: int, sharing: str = "restricted"
) -> tuple[list[Gate], int, list[tuple[int, int, str, int]]]:
    """The outermost orbital-rotation block, all angles starting at zero.

    One rotation per spatial pair q < q' per spin sector.  Restricted
    sharing ties the alpha and beta angles of a pair to one parameter slot;
    unrestricted gives each sector its own.  Returns (gates, slot count,
    rotation spec) where the spec rows (p, q, sector, slot) are what the
    integral-dressing transform consumes.
    """
    if sharing not in ("restricted", "unrestricted"):
        raise ValueError(f"unknown rotation sharing {sharing!r}")
    gates: list[Gate] = []
    spec: list[tuple[int, int, str, int]] = []
    n_slots = 0
    for q, qp in ((a, b) for a in range(1, n_spatial + 1) for b in range(a + 1, n_spatial + 1)):
        pair_slot = n_slots
        for sector in ("alpha", "beta"):
            slot = pair_slot if sharing == "restricted" else n_slots
            if sharing == "unrestricted":
                n_slots += 1
            gates.extend(
                decompose_single_excitation(
                    q, qp, sector, n_spatial, slot,
                    label=f"r {sector[0]} {q}<->{qp}",
                )
            )
            spec.append((q, qp, sector, slot))
        if sharing == "restricted":
            n_slots += 1
    return gates, n_slots, spec


# ---- parameter optimization ----------------------------------------------------


# eigenvalue floor of a recycled inverse-Hessian estimate: keeps its
# Cholesky factor well defined however the previous run ended
_HESS_INV_FLOOR = 1e-6


class Optimum(tuple):
    """``(theta, energy)`` of one optimizer run, with its status attached.

    ``nfev`` counts the energy-and-gradient evaluations and ``nit`` the
    L-BFGS-B iterations; ``converged`` is False when L-BFGS-B stopped on its
    evaluation or iteration budget, or abnormally, instead of meeting its
    tolerance.  ``hess_inv`` is the run's final inverse-Hessian estimate in
    theta coordinates (n x n, symmetric positive definite), which the next
    run can take as its preconditioner.
    """

    def __new__(
        cls,
        theta: np.ndarray,
        energy: float,
        nfev: int,
        converged: bool,
        nit: int,
        hess_inv: np.ndarray,
    ):
        self = super().__new__(cls, (theta, energy))
        self.nfev, self.converged, self.nit = nfev, converged, nit
        self.hess_inv = hess_inv
        return self


def _preconditioner(hess_inv: np.ndarray | None, n: int) -> np.ndarray:
    """Lower Cholesky factor L of an earlier inverse-Hessian estimate.

    The k x k estimate (k <= n) covers the first k slots: it is symmetrized,
    its eigenvalues are clipped at ``_HESS_INV_FLOOR`` and it is padded to
    n x n with a unit diagonal for the slots added since.  None gives L = I.
    """
    factor = np.eye(n)
    if hess_inv is None:
        return factor
    h = np.asarray(hess_inv, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] > n:
        raise ValueError(
            f"inverse-Hessian estimate of shape {h.shape} does not fit {n} parameters"
        )
    if not np.all(np.isfinite(h)):
        raise ValueError("inverse-Hessian estimate has non-finite entries")
    k = h.shape[0]
    w, v = np.linalg.eigh(0.5 * (h + h.T))
    factor[:k, :k] = np.linalg.cholesky((v * np.maximum(w, _HESS_INV_FLOOR)) @ v.T)
    return factor


def optimize_parameters(
    graph: SurrogateGraph,
    theta0: np.ndarray,
    gtol: float = 1e-7,
    maxfun: int = 200,
    hess_inv: np.ndarray | None = None,
) -> Optimum:
    """Minimize the surrogate energy with L-BFGS-B and analytic gradients.

    ``hess_inv`` is an earlier run's inverse-Hessian estimate (see
    ``_preconditioner``).  With its factor H = L L^T the run minimizes
    z -> E(theta0 + L z) from z = 0, so L-BFGS-B starts from the recycled
    curvature instead of the identity, and it keeps up to n correction
    pairs (at least 10).  ``maxfun`` bounds the evaluations and ``gtol``
    applies to the gradient in z.

    Returns the best point seen during the run, which is never worse than
    the starting point (the first evaluation happens at ``theta0``), and
    the final estimate L H_z L^T in theta coordinates.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.size == 0:
        return Optimum(theta0, eval_energy(graph, theta0), 1, True, 0, np.zeros((0, 0)))
    factor = _preconditioner(hess_inv, theta0.size)
    best_f = math.inf
    best_x = theta0.copy()

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_f, best_x
        x = theta0 + factor @ z
        energy, grad = eval_energy_and_gradient(graph, x)
        if not math.isfinite(energy) or not np.all(np.isfinite(grad)):
            raise OptimizationError(
                f"non-finite surrogate energy {energy!r} during optimization"
            )
        if energy < best_f:
            best_f, best_x = energy, x
        return energy, factor.T @ grad

    result = scipy.optimize.minimize(
        objective,
        np.zeros(theta0.size),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "maxfun": maxfun, "maxcor": max(theta0.size, 10)},
    )
    curvature = factor @ result.hess_inv.todense() @ factor.T
    return Optimum(
        best_x, float(best_f), int(result.nfev), bool(result.success), int(result.nit),
        curvature,
    )


# ---- run records ----------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    energy: float
    gate: str
    theta_hash: str
    wall_time_s: float
    pool_evaluated: int
    live_monomials: int
    # the iteration's optimizer run: evaluations and iterations made, and
    # False when it stopped on its budget (or abnormally) instead of converging
    opt_nfev: int = 0
    opt_converged: bool = True
    opt_nit: int = 0
    # seconds spent scoring and picking a candidate, inserting its gates
    # (the baseline row: building the graph) and reoptimizing, all inside
    # wall_time_s
    score_s: float = 0.0
    insert_s: float = 0.0
    optimize_s: float = 0.0


_CSV_COLUMNS = (
    "iteration",
    "energy",
    "gate",
    "theta_hash",
    "wall_time_s",
    "pool_evaluated",
    "live_monomials",
)


@dataclass
class Trajectory:
    rows: list[TrajectoryRow] = field(default_factory=list)

    def append(self, row: TrajectoryRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.rows])

    @property
    def final_energy(self) -> float:
        return self.rows[-1].energy

    def to_csv(self, target: str | IO[str]) -> None:
        import csv

        def _write(handle: IO[str]) -> None:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        r.iteration,
                        repr(r.energy),
                        r.gate,
                        r.theta_hash,
                        repr(r.wall_time_s),
                        r.pool_evaluated,
                        r.live_monomials,
                    ]
                )

        if isinstance(target, str):
            with open(target, "w", newline="") as handle:
                _write(handle)
        else:
            _write(target)


def _theta_hash(theta: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(theta).tobytes()).hexdigest()[:16]


# ---- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything the adaptive loop needs beyond the integrals themselves."""

    max_iterations: int = 30
    cutoff: int | None = 6
    picture: str = "heisenberg"
    placement: str | None = None  # defaults to front (Heisenberg) / back (Schrodinger)
    selection: str = "ggf"  # gradient | ggf | mixed
    reduce_pool: bool = True
    trim_tau: int | None = None
    trim_kappa: int = 25
    opt_gtol: float = 1e-7
    opt_maxfun: int = 200
    gate_init: str | None = None  # zero | ggf_theta_star; None follows the scorer
    rotation_sharing: str = "restricted"
    improvement_floor: float = 1e-9
    paired_accept: bool | None = None
    max_live_monomials: int | None = None

    @property
    def resolved_placement(self) -> str:
        if self.placement is not None:
            return self.placement
        return "front" if self.picture == "heisenberg" else "back"

    def resolved_gate_init(self, used_gradient_scores: bool) -> str:
        if self.gate_init is not None:
            return self.gate_init
        return "zero" if used_gradient_scores else "ggf_theta_star"

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(length_cutoff=self.cutoff, paired_accept=self.paired_accept)

    def validate(self, hamiltonian_max_length: int) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.cutoff is not None:
            if self.cutoff % 2 or self.cutoff < hamiltonian_max_length:
                raise ValueError(
                    f"cutoff must be even and at least the longest Hamiltonian "
                    f"monomial ({hamiltonian_max_length}), got {self.cutoff}"
                )
        if self.picture not in ("heisenberg", "schrodinger"):
            raise ValueError(f"unknown picture {self.picture!r}")
        if self.placement not in (None, "front", "back"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.selection not in ("gradient", "ggf", "mixed"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.trim_tau is not None and self.trim_tau < 1:
            raise ValueError("trim_tau must be at least 1")
        if self.trim_kappa < 1:
            raise ValueError("trim_kappa must be at least 1")
        if self.gate_init not in (None, "zero", "ggf_theta_star"):
            raise ValueError(f"unknown gate_init {self.gate_init!r}")
        if self.rotation_sharing not in ("restricted", "unrestricted"):
            raise ValueError(f"unknown rotation sharing {self.rotation_sharing!r}")
        if self.improvement_floor <= 0:
            raise ValueError("improvement_floor must be positive")
        if self.opt_maxfun < 1:
            raise ValueError("opt_maxfun must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


# ---- results ----------------------------------------------------------------------


@dataclass
class AdaptResult:
    energy: float
    params: np.ndarray
    circuit: FermionicCircuit
    occupation: int
    trajectory: Trajectory
    graph: SurrogateGraph
    hamiltonian: SparseOperator
    pool: Pool
    rotation_spec: list[tuple[int, int, str, int]]
    tensors: IntegralTensors
    config: RunConfig

    def circuit_json(self) -> str:
        payload = json.loads(self.circuit.to_json())
        payload["hf_occupation"] = int(self.occupation)
        return json.dumps(payload, indent=2)

    def dressed_tensors(self) -> IntegralTensors:
        """Integrals with the final active rotations folded in."""
        rotations = [
            (p, q, float(self.params[slot]), sector)
            for p, q, sector, slot in self.rotation_spec
        ]
        return dress_integrals(self.tensors, rotations)


def load_circuit_json(text: str) -> tuple[FermionicCircuit, int]:
    payload = json.loads(text)
    occupation = int(payload.pop("hf_occupation"))
    return FermionicCircuit.from_json(json.dumps(payload)), occupation


# ---- the outer loop ---------------------------------------------------------------


def _check_budget(
    graph: SurrogateGraph, config: RunConfig, trajectory: Trajectory | None
) -> None:
    if config.max_live_monomials is None:
        return
    widest = graph.stats()["max_layer"]
    if widest > config.max_live_monomials:
        raise MemoryBudgetError(
            f"propagation layer holds {widest} monomials, over the budget of "
            f"{config.max_live_monomials}",
            trajectory,
        )


def run_adapt_vmpe(tensors: IntegralTensors, config: RunConfig) -> AdaptResult:
    """Grow and optimize an adaptive circuit for the given integrals.

    Iteration 0 optimizes the active rotations alone; each later iteration
    appends the best-scoring pool candidate at the configured end of the
    body and reoptimizes everything.  The loop stops after max_iterations,
    or as soon as the selected candidate's achievable improvement falls
    under the floor.
    """
    hamiltonian = build_majorana_hamiltonian(tensors)
    config.validate(hamiltonian.max_degree())
    n_spatial = tensors.n_spatial
    n_modes = 2 * n_spatial
    occupation = aufbau_occupation(tensors.n_electrons)
    occ_alpha = bin(occupation & 0x5555555555555555).count("1")
    occ_beta = bin(occupation & 0xAAAAAAAAAAAAAAAA).count("1")
    pool = build_majoranic_pool(n_spatial, (occ_alpha, occ_beta))
    placement = config.resolved_placement
    if config.reduce_pool and placement == "front":
        # new gates act directly on the reference state there, where whole
        # equivalence classes move it identically
        pool = reduce_pool_equivalence(pool)

    rot_gates, n_rot_slots, rotation_spec = init_active_rotations(
        n_spatial, config.rotation_sharing
    )
    trajectory = Trajectory()
    tic = time.perf_counter()
    circuit = FermionicCircuit(n_modes, list(rot_gates), np.zeros(n_rot_slots))
    graph = build_surrogate(hamiltonian, circuit, occupation, config.policy(), config.picture)
    n_body = 0
    _check_budget(graph, config, None)
    built = time.perf_counter()
    optimum = optimize_parameters(
        graph, np.zeros(n_rot_slots), config.opt_gtol, config.opt_maxfun
    )
    theta, energy = optimum
    toc = time.perf_counter()
    trajectory.append(
        TrajectoryRow(
            iteration=0,
            energy=energy,
            gate="baseline",
            theta_hash=_theta_hash(theta),
            wall_time_s=toc - tic,
            pool_evaluated=0,
            live_monomials=int(graph.final_keys.size),
            opt_nfev=optimum.nfev,
            opt_converged=optimum.converged,
            opt_nit=optimum.nit,
            insert_s=built - tic,
            optimize_s=toc - built,
        )
    )

    active = list(range(len(pool)))
    for iteration in range(1, config.max_iterations + 1):
        tic = time.perf_counter()
        refresh = is_refresh_iteration(iteration, config.trim_kappa)
        full_pool = refresh or config.trim_tau is None
        indices = list(range(len(pool))) if full_pool else active
        if not indices:
            break
        use_gradient = config.selection == "gradient" or (
            config.selection == "mixed" and refresh
        )
        # new gates go in at the circuit front or at the body's end: the
        # active rotations stay outermost
        cut = 0 if placement == "front" else n_body
        if use_gradient:
            scores = score_pool_gradient(pool, graph, theta, cut, indices)
        else:
            scores = score_pool_ggf(pool, graph, theta, cut, indices)
        if config.trim_tau is not None:
            active = trim_pool(
                scores, config.trim_tau, config.trim_kappa, iteration,
                larger_is_better=use_gradient,
            )
        best = rank_candidates(scores, larger_is_better=use_gradient)[0]
        if abs(best.improvement) < config.improvement_floor:
            break

        candidate = pool.candidates[best.index]
        init_angle = (
            best.theta_star
            if config.resolved_gate_init(use_gradient) == "ggf_theta_star"
            else 0.0
        )
        # the new slot is the last one, so the previous curvature estimate
        # covers every older slot
        gates = candidate.gates(theta.size)
        scored = time.perf_counter()
        graph = extend_surrogate(graph, gates, cut)
        n_body += len(gates)
        _check_budget(graph, config, trajectory)
        inserted = time.perf_counter()

        optimum = optimize_parameters(
            graph, np.append(theta, init_angle), config.opt_gtol, config.opt_maxfun,
            optimum.hess_inv,
        )
        theta, energy = optimum
        toc = time.perf_counter()
        trajectory.append(
            TrajectoryRow(
                iteration=iteration,
                energy=energy,
                gate=candidate.label,
                theta_hash=_theta_hash(theta),
                wall_time_s=toc - tic,
                pool_evaluated=len(indices),
                live_monomials=int(graph.final_keys.size),
                opt_nfev=optimum.nfev,
                opt_converged=optimum.converged,
                opt_nit=optimum.nit,
                score_s=scored - tic,
                insert_s=inserted - scored,
                optimize_s=toc - inserted,
            )
        )

    circuit = graph.circuit.copy()
    circuit.params = theta.copy()
    return AdaptResult(
        energy=energy,
        params=theta,
        circuit=circuit,
        occupation=occupation,
        trajectory=trajectory,
        graph=graph,
        hamiltonian=hamiltonian,
        pool=pool,
        rotation_spec=rotation_spec,
        tensors=tensors,
        config=config,
    )
