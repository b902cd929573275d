"""The adaptive outer loop: grow a fermionic circuit towards the ground state.

The ansatz keeps a fixed layout: reference determinant, then the adaptively
grown gate body, then a block of single-excitation "active rotations" that
stays outermost.  Each rotation is generated by length-2 Majorana
monomials, so the block maps every monomial to monomials of its own length
and length truncation never drops a branch inside it: the energy of the
whole circuit is that of the body against the orbital-dressed Hamiltonian
H(theta_rot) (the split orbital-optimized UCC uses).  The surrogate graph
therefore records the body alone, and a :class:`DressedHamiltonian` gives
its Hamiltonian weights, and their gradient, at the rotation angles of each
evaluation.  The rotations own the first parameter slots, and each accepted
candidate adds one slot after them.

Each iteration scores the candidate pool (gradient magnitude, greedy
improvement, or a mixture on the trimming schedule), picks the best
candidate, places its gates at the configured end of the body with a fresh
shared angle, and reoptimizes every parameter with L-BFGS-B on the
surrogate graph.  Each reoptimization is preconditioned with the previous
one's inverse-Hessian estimate, padded with a unit diagonal for the new
slot, since the new problem is the old one plus one angle.  The recorded
energy can never increase: new gates start at an angle whose energy is at
or below the previous optimum, and the optimizer never returns anything
worse than its starting point.  Every trajectory row splits its wall time
into scoring, graph insertion and optimizer stages, and gives the size of
the graph the optimizer swept.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import IO, get_args, get_type_hints

import numpy as np

from .engine import (  # noqa: F401 -- perfbench/tracing.py wraps driver.propagate
    FermionicCircuit,
    Gate,
    TruncationPolicy,
    propagate,
)
from .hamiltonian import DressedHamiltonian, build_majorana_hamiltonian, spin_orbital_mode
from .integrals import IntegralTensors, aufbau_occupation, dress_integrals
from .operators import SparseOperator
from .pool import (  # noqa: F401 -- perfbench/tracing.py wraps driver.reduce_pool_equivalence
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
# the loop stops once the best candidate's achievable improvement is below this
_IMPROVEMENT_FLOOR = 1e-9


class Optimum(tuple):
    """``(theta, energy)`` of one optimizer run, with its status attached.

    ``nfev`` counts the energy-and-gradient evaluations and ``nit`` the
    L-BFGS-B iterations; ``converged`` is False when L-BFGS-B stopped on its
    evaluation or iteration budget, or abnormally, instead of meeting its
    tolerance.  ``hess_inv`` is the run's final inverse-Hessian estimate in
    theta coordinates (n x n, symmetric positive definite), which the next
    run can take as its preconditioner.  ``grad_max`` is max|dE/dtheta| at
    the returned point (0 without parameters).
    """

    def __new__(
        cls,
        theta: np.ndarray,
        energy: float,
        nfev: int,
        converged: bool,
        nit: int,
        hess_inv: np.ndarray,
        grad_max: float,
    ):
        self = super().__new__(cls, (theta, energy))
        self.nfev, self.converged, self.nit = nfev, converged, nit
        self.hess_inv, self.grad_max = hess_inv, grad_max
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
    the starting point (the first evaluation happens at ``theta0``), the
    largest gradient component there, and the final estimate L H_z L^T in
    theta coordinates.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.size == 0:
        return Optimum(theta0, eval_energy(graph, theta0), 1, True, 0, np.zeros((0, 0)), 0.0)
    import scipy.optimize

    factor = _preconditioner(hess_inv, theta0.size)
    best_f = math.inf
    best_x = theta0.copy()
    best_g = np.zeros(theta0.size)

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_f, best_x, best_g
        x = theta0 + factor @ z
        energy, grad = eval_energy_and_gradient(graph, x)
        if not math.isfinite(energy) or not np.all(np.isfinite(grad)):
            raise OptimizationError(
                f"non-finite surrogate energy {energy!r} during optimization"
            )
        if energy < best_f:
            best_f, best_x, best_g = energy, x, grad
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
        curvature, float(np.abs(best_g).max()),
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
    # max|dE/dtheta| at the angles the optimizer returned
    opt_grad_max: float = 0.0
    # seconds spent scoring and picking a candidate, inserting its gates
    # (the baseline row: building the graph) and reoptimizing, all inside
    # wall_time_s
    score_s: float = 0.0
    insert_s: float = 0.0
    optimize_s: float = 0.0
    # size of the (pruned) graph the optimizer swept: keys and gate steps
    pruned_keys: int = 0
    steps: int = 0


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
    """Everything the adaptive loop needs beyond the integrals themselves.

    Truncation is by Majorana length alone (``cutoff``), keeping fully
    paired monomials in the Heisenberg picture only.  The loop's other
    choices are fixed (see :func:`run_adapt_vmpe`).
    """

    max_iterations: int = 30
    cutoff: int | None = 6
    picture: str = "heisenberg"
    placement: str | None = None  # defaults to front (Heisenberg) / back (Schrodinger)
    selection: str = "ggf"  # gradient | ggf | mixed
    trim_tau: int | None = None
    trim_kappa: int = 25
    opt_gtol: float = 1e-7
    opt_maxfun: int = 200
    max_live_monomials: int | None = None

    @property
    def resolved_placement(self) -> str:
        if self.placement is not None:
            return self.placement
        return "front" if self.picture == "heisenberg" else "back"

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(length_cutoff=self.cutoff)

    def validate(self, hamiltonian_max_length: int) -> None:
        """Refuse a value whose type does not fit its field, then a value
        outside its field's range, with a ``ValueError`` naming the field."""
        self._check_types()
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        self.policy().validate(hamiltonian_max_length)
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
        if self.opt_maxfun < 1:
            raise ValueError("opt_maxfun must be at least 1")

    def _check_types(self) -> None:
        """Every value fits its field's type; a float field also takes an
        int, and no field takes a bool."""
        hints = get_type_hints(type(self))
        for item in fields(self):
            value = getattr(self, item.name)
            allowed = get_args(hints[item.name]) or (hints[item.name],)
            if float in allowed:
                allowed += (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(
                    f"config key {item.name!r} must be {item.type}, got {value!r}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """A config from parsed JSON; refuses unknown keys, and any value
        whose type does not fit its field as :meth:`validate` does."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**data)
        config._check_types()
        return config


# ---- results ----------------------------------------------------------------------


@dataclass
class AdaptResult:
    """What a run returns.

    ``circuit`` is the whole ansatz, body then active rotations, at the
    final angles ``params``, and ``hamiltonian`` the undressed Hamiltonian,
    so the two evaluate on their own.  ``graph`` is the surrogate graph of
    the body against the dressed Hamiltonian; ``rotation_spec`` rows
    (p, q, sector, slot) give the rotations' orbitals and slots.
    ``setup`` gives the seconds the call spent before its first trajectory
    row: ``dressing_s`` on the integral map and the dressed Hamiltonian,
    ``hamiltonian_s`` on the undressed Hamiltonian and ``pool_s`` on the
    pool.  The map and the pool are built once per process and size and
    then shared, so after the first call at a size ``dressing_s`` holds
    only the dressed Hamiltonian's set-up and ``pool_s`` reads near zero.
    In a fresh process the baseline row's ``optimize_s`` also includes
    loading ``scipy.optimize`` (about 0.23 s on a 2-CPU Xeon VM), which
    loads with its first use.  ``pool`` is that shared, immutable pool.
    The first graph build is the baseline row's ``insert_s``.  ``stop`` says
    which exit ended the loop: "max_iterations", "improvement_floor" (the
    best candidate's achievable improvement fell under the floor) or
    "empty_pool" (no candidate left to score).
    """

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
    stop: str
    setup: dict[str, float] = field(default_factory=dict)

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
    if "hf_occupation" not in payload:
        raise ValueError("circuit JSON has no 'hf_occupation' field")
    return FermionicCircuit.from_json(text), int(payload["hf_occupation"])


# ---- the outer loop ---------------------------------------------------------------


def _check_budget(
    graph: SurrogateGraph, config: RunConfig, trajectory: Trajectory | None
) -> None:
    if config.max_live_monomials is None:
        return
    widest = int(graph.final_keys.size)  # layers only grow: the last is the widest
    if widest > config.max_live_monomials:
        raise MemoryBudgetError(
            f"propagation layer holds {widest} monomials, over the budget of "
            f"{config.max_live_monomials}",
            trajectory,
        )


def _swept(graph: SurrogateGraph) -> dict:
    """Trajectory-row fields for the size of the sweep the optimizer runs."""
    return {"pruned_keys": int(graph.pruned.source.size), "steps": len(graph.pruned.steps)}


def run_adapt_vmpe(tensors: IntegralTensors, config: RunConfig) -> AdaptResult:
    """Grow and optimize an adaptive circuit for the given integrals.

    The baseline is iteration 0 of the one loop: it builds the graph of
    the empty body and optimizes the active rotations alone, one angle per
    spatial orbital pair shared by both spins.  Each later iteration first
    scores the pool and appends the best candidate at the configured end of
    the body; then every iteration checks the budget, reoptimizes
    everything and records one row.  The new angle starts at zero after
    gradient scoring and at the landscape fit's optimum after GGF scoring.
    The loop stops after max_iterations, as soon as the selected
    candidate's achievable improvement falls under ``_IMPROVEMENT_FLOOR``,
    or when no candidate is left to score; ``AdaptResult.stop`` says which.

    The reference determinant is the aufbau fill of the header's NELEC
    electrons, so NELEC must lie in 1..2*NORB and MS2 must be that fill's
    2S_z, NELEC mod 2; anything else raises ``ValueError``.
    """
    start = time.perf_counter()
    n_spatial = tensors.n_spatial
    n_modes = 2 * n_spatial
    n_electrons, ms2 = tensors.n_electrons, tensors.ms2
    if not 1 <= n_electrons <= n_modes:
        raise ValueError(f"NELEC={n_electrons} must lie in 1..{n_modes} (2*NORB)")
    if ms2 != n_electrons % 2:
        raise ValueError(
            f"MS2={ms2} is not the aufbau reference's 2S_z: NELEC={n_electrons} "
            f"fills to MS2={n_electrons % 2}"
        )
    rot_gates, n_rot_slots, rotation_spec = init_active_rotations(n_spatial)
    dressed = DressedHamiltonian(tensors, rotation_spec)
    dressed_at = time.perf_counter()
    hamiltonian = build_majorana_hamiltonian(dressed)
    config.validate(hamiltonian.max_degree())
    occupation = aufbau_occupation(n_electrons)
    occ_alpha = bin(occupation & 0x5555555555555555).count("1")
    occ_beta = bin(occupation & 0xAAAAAAAAAAAAAAAA).count("1")
    built_at = time.perf_counter()
    pool = build_majoranic_pool(n_spatial, (occ_alpha, occ_beta))
    placement = config.resolved_placement
    setup = {
        "dressing_s": dressed_at - start,
        "hamiltonian_s": built_at - dressed_at,
        "pool_s": time.perf_counter() - built_at,
    }

    trajectory = Trajectory()
    theta, hess_inv = np.zeros(n_rot_slots), None
    active = list(range(len(pool)))
    stop = "max_iterations"
    for iteration in range(config.max_iterations + 1):
        tic = time.perf_counter()
        if iteration:
            refresh = is_refresh_iteration(iteration, config.trim_kappa)
            full_pool = refresh or config.trim_tau is None
            indices = list(range(len(pool))) if full_pool else active
            if not indices:
                stop = "empty_pool"
                break
            use_gradient = config.selection == "gradient" or (
                config.selection == "mixed" and refresh
            )
            # new gates go in at the circuit front or at the body's end: the
            # active rotations stay outermost
            if use_gradient:
                scores = score_pool_gradient(pool, graph, theta, placement, indices)
            else:
                scores = score_pool_ggf(pool, graph, theta, placement, indices)
            if config.trim_tau is not None:
                active = trim_pool(
                    scores, config.trim_tau, config.trim_kappa, iteration,
                    larger_is_better=use_gradient,
                )
            best = rank_candidates(scores, larger_is_better=use_gradient)[0]
            if abs(best.improvement) < _IMPROVEMENT_FLOOR:
                stop = "improvement_floor"
                break

            candidate = pool.candidates[best.index]
            label, evaluated = candidate.label, len(indices)
            # the new slot is the last one, so the previous curvature estimate
            # covers every older slot
            gates = candidate.gates(theta.size)
            theta = np.append(theta, 0.0 if use_gradient else best.theta_star)
            scored = time.perf_counter()
            graph = extend_surrogate(graph, gates, placement)
        else:
            # the baseline: the active rotations alone, on an empty body
            label, evaluated, scored = "baseline", 0, tic
            body = FermionicCircuit(n_modes, [], theta)
            graph = build_surrogate(dressed, body, occupation, config.policy(), config.picture)
        # a budget error carries the rows so far, None before the first one
        _check_budget(graph, config, trajectory or None)
        inserted = time.perf_counter()

        optimum = optimize_parameters(
            graph, theta, config.opt_gtol, config.opt_maxfun, hess_inv
        )
        theta, energy = optimum
        hess_inv = optimum.hess_inv
        toc = time.perf_counter()
        trajectory.append(
            TrajectoryRow(
                iteration=iteration,
                energy=energy,
                gate=label,
                theta_hash=_theta_hash(theta),
                wall_time_s=toc - tic,
                pool_evaluated=evaluated,
                live_monomials=int(graph.final_keys.size),
                opt_nfev=optimum.nfev,
                opt_converged=optimum.converged,
                opt_nit=optimum.nit,
                opt_grad_max=optimum.grad_max,
                score_s=scored - tic,
                insert_s=inserted - scored,
                optimize_s=toc - inserted,
                **_swept(graph),
            )
        )

    circuit = FermionicCircuit(n_modes, graph.gates + rot_gates, theta.copy())
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
        stop=stop,
        setup=setup,
    )
