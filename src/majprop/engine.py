"""Propagation of Majorana-basis operators through fermionic rotation circuits.

A circuit is a product U = U_K ... U_2 U_1 of rotations
U_k = exp(-i theta_k/2 M_{gamma_k}) whose generators are single Majorana
monomials; the first gate in the list acts on the reference state first.
Because every generator squares to one, conjugating a monomial through one
gate either leaves it alone (commuting case) or splits it into a cosine
branch and one new sine-branch monomial:

    U^dag M U = cos(theta) M + sin(theta) s M'   when {M, M_gamma} = 0,

with M' = the XOR-combined monomial and s a +/-1 sign fixed by the product
phase.  Propagating an operator term-by-term through the whole circuit and
discarding branches according to a truncation policy is the entire engine;
both the Heisenberg picture (evolve the observable backwards through the
circuit) and the Schrodinger picture (evolve the reference-state projector
forwards) reduce to the same kernel with a flipped sine sign and reversed
gate order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from . import _kernels
from .monomials import MajoranaMonomial
from .operators import SparseOperator

__all__ = [
    "Gate",
    "FermionicCircuit",
    "TruncationPolicy",
    "Picture",
    "expand_fock_projector",
    "propagate",
    "expectation",
]

Picture = Literal["heisenberg", "schrodinger"]

CIRCUIT_FORMAT_VERSION = 1


def _check_picture(picture: str) -> str:
    if picture not in ("heisenberg", "schrodinger"):
        raise ValueError(f"unknown picture {picture!r}")
    return picture


# ---- circuits ---------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One Majorana rotation exp(-i sign*theta[slot]/2 * M_generator).

    ``generator`` is the monomial bitmask; ``slot`` indexes the circuit's
    parameter vector so several gates may share one variational angle (with
    individual signs); ``label`` is free-form provenance for bookkeeping.
    """

    generator: int
    slot: int
    sign: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("gate sign must be +1 or -1")
        if self.generator <= 0:
            raise ValueError("gate generator must be a nonempty monomial")
        if bin(self.generator).count("1") % 2:
            raise ValueError("gate generator must have even length (parity symmetry)")


@dataclass
class FermionicCircuit:
    """An ordered gate list plus the shared parameter vector."""

    n_modes: int
    gates: list[Gate] = field(default_factory=list)
    params: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.gates:
            top = max(g.slot for g in self.gates)
            if top >= self.params.size:
                raise ValueError(
                    f"gate slot {top} out of range for {self.params.size} parameters"
                )

    @property
    def n_slots(self) -> int:
        return int(self.params.size)

    def __len__(self) -> int:
        return len(self.gates)

    def angle_of(self, gate: Gate, params: np.ndarray | None = None) -> float:
        p = self.params if params is None else params
        return float(gate.sign * p[gate.slot])

    def rotation_sequence(
        self, params: np.ndarray | None = None
    ) -> list[tuple[MajoranaMonomial, float]]:
        """(generator, angle) pairs in application order, for exact references."""
        return [
            (MajoranaMonomial(g.generator, self.n_modes), self.angle_of(g, params))
            for g in self.gates
        ]

    def copy(self) -> "FermionicCircuit":
        return FermionicCircuit(self.n_modes, list(self.gates), self.params.copy())

    # ---- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format_version": CIRCUIT_FORMAT_VERSION,
            "n_modes": self.n_modes,
            "params": self.params.tolist(),
            "gates": [
                {
                    "generator": MajoranaMonomial(g.generator, self.n_modes).to_hex(),
                    "slot": g.slot,
                    "sign": g.sign,
                    "label": g.label,
                }
                for g in self.gates
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FermionicCircuit":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != CIRCUIT_FORMAT_VERSION:
            raise ValueError(f"unsupported circuit format_version: {version!r}")
        n_modes = int(payload["n_modes"])
        gates = [
            Gate(
                generator=MajoranaMonomial.from_hex(g["generator"]).bits,
                slot=int(g["slot"]),
                sign=int(g.get("sign", 1)),
                label=str(g.get("label", "")),
            )
            for g in payload["gates"]
        ]
        return cls(
            n_modes=n_modes,
            gates=gates,
            params=np.asarray(payload["params"], dtype=np.float64),
        )


# ---- truncation -------------------------------------------------------------


@dataclass(frozen=True)
class TruncationPolicy:
    """Rule deciding which sine-branch monomials survive a gate step.

    A new monomial is dropped when its Majorana length exceeds
    ``length_cutoff``, unless it is fully paired and ``paired_accept``
    applies.  The rule never looks at coefficients, so the surviving set
    depends only on the circuit structure, not on its angles.

    ``paired_accept`` left as None defers to the picture default: on when
    evolving observables (their paired part carries the whole Fock
    expectation), off when evolving a state projector.  ``hygiene_eps``
    drops propagated terms whose coefficient has cancelled below it.
    """

    length_cutoff: int | None = None
    paired_accept: bool | None = None
    hygiene_eps: float = 1e-15

    def resolved(self, picture: str) -> "TruncationPolicy":
        if self.paired_accept is not None:
            return self
        return replace(self, paired_accept=(picture == "heisenberg"))

    def survivor_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean keep-mask for candidate sine-branch keys."""
        if self.length_cutoff is None:
            return np.ones(keys.shape, dtype=bool)
        keep = _kernels.popcount(keys) <= self.length_cutoff
        if self.paired_accept:
            keep |= _kernels.is_paired(keys)
        return keep


# ---- reference-state projector ----------------------------------------------


def expand_fock_projector(
    occupation: int, n_modes: int, max_pair_count: int | None = None
) -> SparseOperator:
    """Majorana expansion of the projector |occupation><occupation|.

    The projector factorizes over modes into (1 +/- pair term)/2, so its
    expansion runs over all fully paired monomials, each weighted by its
    eigenvalue on the reference state divided by 2^n.  ``max_pair_count``
    caps the number of mode pairs kept, which is the state-side analogue of
    an observable length cutoff (a term with k pairs has Majorana length 2k).
    """
    if occupation < 0 or occupation >> n_modes:
        raise ValueError(f"occupation {occupation:#x} does not fit in {n_modes} modes")
    if max_pair_count is not None and max_pair_count > n_modes:
        raise ValueError(f"pair budget {max_pair_count} exceeds {n_modes} modes")
    top = n_modes if max_pair_count is None else max_pair_count
    keys = []
    for size in range(top + 1):
        for modes in itertools.combinations(range(n_modes), size):
            bits = 0
            for j in modes:
                bits |= 3 << (2 * j)
            keys.append(bits)
    key_arr = np.array(sorted(keys), dtype=np.uint64)
    coeffs = _kernels.paired_eigenvalues(key_arr, occupation) / float(2**n_modes)
    return SparseOperator(n_modes=n_modes, keys=key_arr, coeffs=coeffs)


def _reference_projector(
    occupation: int, n_modes: int, policy: TruncationPolicy | None
) -> SparseOperator:
    """The reference projector a Schrodinger sweep starts from, expanded to
    the pair budget of the policy: half its length cutoff, every mode when
    uncut."""
    cutoff = None if policy is None else policy.length_cutoff
    budget = n_modes if cutoff is None else min(cutoff // 2, n_modes)
    return expand_fock_projector(occupation, n_modes, budget)


# ---- gate kernel ------------------------------------------------------------


def _gate_step(
    keys: np.ndarray,
    coeffs: np.ndarray,
    gamma: int,
    angle: float,
    sin_sign: float,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """One conjugation step on raw key/coefficient arrays."""
    anti = _kernels.anticommutes_with(gamma, keys)
    if not anti.any():
        return keys, coeffs
    out_coeffs = np.where(anti, coeffs * math.cos(angle), coeffs)
    cand_keys = keys[anti] ^ np.uint64(gamma)
    cand_coeffs = (
        sin_sign
        * math.sin(angle)
        * _kernels.product_sign_with(gamma, keys[anti])
        * coeffs[anti]
    )
    keep = policy.survivor_mask(cand_keys)
    merged_coeffs, merged_keys = _kernels.summed(
        np.concatenate([out_coeffs, cand_coeffs[keep]]),
        np.concatenate([keys, cand_keys[keep]]),
    )
    if policy.hygiene_eps > 0:
        live = np.abs(merged_coeffs) >= policy.hygiene_eps
        merged_keys, merged_coeffs = merged_keys[live], merged_coeffs[live]
    return merged_keys, merged_coeffs


def propagate(
    op: SparseOperator,
    circuit: FermionicCircuit,
    picture: Picture = "heisenberg",
    policy: TruncationPolicy | None = None,
    params: np.ndarray | None = None,
) -> SparseOperator:
    """Push an operator through a whole circuit.

    Heisenberg evolution U^dag op U peels gates off the circuit from the
    last applied to the first; Schrodinger evolution U op U^dag consumes
    them in application order with the opposite sine sign.
    """
    _check_picture(picture)
    policy = (policy or TruncationPolicy()).resolved(picture)
    if params is not None and circuit.gates:
        top = max(g.slot for g in circuit.gates)
        if top >= np.asarray(params).size:
            raise ValueError(f"gate slot {top} out of range for given params")
    sin_sign = 1.0 if picture == "heisenberg" else -1.0
    order = reversed(circuit.gates) if picture == "heisenberg" else iter(circuit.gates)
    keys, coeffs = op.keys, op.coeffs
    for gate in order:
        angle = circuit.angle_of(gate, params)
        keys, coeffs = _gate_step(keys, coeffs, gate.generator, angle, sin_sign, policy)
    return SparseOperator(op.n_modes, keys, coeffs)


# ---- expectation values -------------------------------------------------------


def fock_expectation(op: SparseOperator, occupation: int) -> float:
    """<n| op |n> of an operator expansion on a Fock basis state.

    Only fully paired monomials are diagonal in the Fock basis, so the
    value is the sum of their coefficients times their +/-1 eigenvalues
    (the identity term contributes its coefficient).
    """
    mask = _kernels.is_paired(op.keys)
    if not mask.any():
        return 0.0
    eigs = _kernels.paired_eigenvalues(op.keys[mask], occupation)
    return float(np.dot(op.coeffs[mask], eigs))


def trace_overlap(state: SparseOperator, op: SparseOperator) -> float:
    """Tr[state * op] for a propagated reference projector against an observable.

    Monomial orthogonality reduces the trace to a dot product over shared
    keys; the 2^n from Tr[M^2] cancels the 1/2^n normalization carried by
    the projector expansion.
    """
    if state.n_modes != op.n_modes:
        raise ValueError("operators live on different mode counts")
    common, ia, ib = np.intersect1d(
        state.keys, op.keys, assume_unique=True, return_indices=True
    )
    if not common.size:
        return 0.0
    return float(2**op.n_modes * np.dot(state.coeffs[ia], op.coeffs[ib]))


def expectation(
    hamiltonian: SparseOperator,
    circuit: FermionicCircuit | None = None,
    occupation: int = 0,
    policy: TruncationPolicy | None = None,
    picture: Picture = "heisenberg",
    params: np.ndarray | None = None,
) -> float:
    """<n| U^dag H U |n> evaluated by truncated propagation.

    Heisenberg mode evolves the observable backwards through the circuit
    and reads off its paired part on the reference state.  Schrodinger mode
    expands the reference projector to the pair budget implied by the
    length cutoff (half of it; the full mode count when uncut), pushes it
    forward, and overlaps with the untouched observable.  Under a pure
    length policy both routes keep exactly the same branch paths and agree
    to rounding.
    """
    _check_picture(picture)
    if circuit is None:
        circuit = FermionicCircuit(n_modes=hamiltonian.n_modes)
    if picture == "heisenberg":
        evolved = propagate(hamiltonian, circuit, "heisenberg", policy, params)
        return fock_expectation(evolved, occupation)
    state = _reference_projector(occupation, hamiltonian.n_modes, policy)
    state = propagate(state, circuit, "schrodinger", policy, params)
    return trace_overlap(state, hamiltonian)
