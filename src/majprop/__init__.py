"""majprop: Majorana-propagation toolkit for adaptive fermionic circuits.

The package is organised around a few layers:

* ``monomials`` / ``operators`` -- exact algebra of Majorana monomials and
  sparse real-coefficient operators built from them.
* ``engine`` -- Heisenberg/Schrodinger propagation of operators through
  fermionic rotation circuits, truncated by Majorana length.
* ``surrogate`` -- an angle-independent computational graph recorded from one
  propagation sweep, enabling fast re-evaluation and gradients.
* ``pool``, ``driver`` -- operator pools, selection scoring and the adaptive
  outer loop that grows a circuit towards a molecular ground state.
* ``bounds`` -- certified lower bounds on the squared ground-state overlap.
* ``oracle`` -- small-system exact statevector reference implementations.
"""

from .monomials import (
    MajoranaMonomial,
    SignedMonomial,
    monomial_product,
    monomials_commute,
    pairing_support,
    paired_eigenvalue,
)
from .operators import SparseOperator
from .engine import (
    Gate,
    FermionicCircuit,
    TruncationPolicy,
    expand_fock_projector,
    propagate,
    expectation,
    fock_expectation,
    trace_overlap,
)
from .surrogate import (
    SurrogateGraph,
    build_surrogate,
    eval_energy,
    eval_energy_and_gradient,
    extend_surrogate,
)
from .pool import (
    Pool,
    PoolCandidate,
    SelectionScore,
    build_majoranic_pool,
    reduce_pool_equivalence,
    score_pool_ggf,
    score_pool_gradient,
    trim_pool,
)
from .driver import (
    AdaptResult,
    MemoryBudgetError,
    OptimizationError,
    RunConfig,
    Trajectory,
    TrajectoryRow,
    load_circuit_json,
    run_adapt_vmpe,
)
from .bounds import (
    OverlapBound,
    SpectralData,
    build_penalty_hamiltonian,
    lower_bound_known_alpha,
    lower_bound_penalty,
    lower_bound_simple,
    lower_bound_unknown_gap,
)
from .integrals import (
    IntegralTensors,
    aufbau_occupation,
    dress_integrals,
    emit_fcidump,
    parse_fcidump,
)
from .hamiltonian import build_majorana_hamiltonian

__all__ = [
    "MajoranaMonomial",
    "SignedMonomial",
    "monomial_product",
    "monomials_commute",
    "pairing_support",
    "paired_eigenvalue",
    "SparseOperator",
    "Gate",
    "FermionicCircuit",
    "TruncationPolicy",
    "expand_fock_projector",
    "propagate",
    "expectation",
    "fock_expectation",
    "trace_overlap",
    "SurrogateGraph",
    "build_surrogate",
    "eval_energy",
    "eval_energy_and_gradient",
    "extend_surrogate",
    "Pool",
    "PoolCandidate",
    "SelectionScore",
    "build_majoranic_pool",
    "reduce_pool_equivalence",
    "score_pool_ggf",
    "score_pool_gradient",
    "trim_pool",
    "AdaptResult",
    "MemoryBudgetError",
    "OptimizationError",
    "RunConfig",
    "Trajectory",
    "TrajectoryRow",
    "load_circuit_json",
    "run_adapt_vmpe",
    "OverlapBound",
    "SpectralData",
    "build_penalty_hamiltonian",
    "lower_bound_known_alpha",
    "lower_bound_penalty",
    "lower_bound_simple",
    "lower_bound_unknown_gap",
    "IntegralTensors",
    "aufbau_occupation",
    "dress_integrals",
    "emit_fcidump",
    "parse_fcidump",
    "build_majorana_hamiltonian",
]

__version__ = "0.1.0"
