"""Seeded random instances for validation and benchmarking.

Random "molecular-form" Hamiltonians (real combinations of low-length even
monomials plus an identity shift) and random rotation circuits with
length-4 generators reproduce the unstructured regime in which length
truncation has known error behaviour; they are used by ``majprop verify``,
throughout the test suite and, with random integrals, by the benchmark.
"""

from __future__ import annotations

import numpy as np

from .engine import FermionicCircuit, Gate
from .operators import SparseOperator

__all__ = [
    "random_monomial_bits",
    "random_molecular_hamiltonian",
    "random_circuit",
    "random_restricted_integrals",
]


def random_monomial_bits(
    n_modes: int, degree: int, rng: np.random.Generator
) -> int:
    """Uniformly random monomial bitmask with exactly ``degree`` factors."""
    sites = rng.choice(2 * n_modes, size=degree, replace=False)
    bits = 0
    for s in sites:
        bits |= 1 << int(s)
    return bits


def random_molecular_hamiltonian(
    n_modes: int,
    rng: np.random.Generator,
    n_two_body: int | None = None,
    n_four_body: int | None = None,
) -> SparseOperator:
    """Random Hermitian operator with the shape of a molecular Hamiltonian.

    Identity shift plus real-coefficient monomials of length 2 and 4 --
    the even, low-length structure that second-quantized Hamiltonians take
    in the Majorana basis.  Duplicate draws merge by summation.
    """
    if n_two_body is None:
        n_two_body = 2 * n_modes
    if n_four_body is None:
        n_four_body = 4 * n_modes
    keys = [0]
    coeffs = [float(rng.normal())]
    for _ in range(n_two_body):
        keys.append(random_monomial_bits(n_modes, 2, rng))
        coeffs.append(float(rng.normal()))
    for _ in range(n_four_body):
        keys.append(random_monomial_bits(n_modes, 4, rng))
        coeffs.append(float(rng.normal()) * 0.5)
    return SparseOperator.from_arrays(
        n_modes, np.array(keys, dtype=np.uint64), np.array(coeffs)
    )


def random_circuit(
    n_modes: int,
    n_gates: int,
    rng: np.random.Generator,
    generator_degree: int = 4,
) -> FermionicCircuit:
    """Random rotation circuit with one parameter per gate, angles in [0, 2pi)."""
    gates = [
        Gate(
            generator=random_monomial_bits(n_modes, generator_degree, rng),
            slot=j,
        )
        for j in range(n_gates)
    ]
    params = rng.uniform(0.0, 2.0 * np.pi, size=n_gates)
    return FermionicCircuit(n_modes=n_modes, gates=gates, params=params)


def random_restricted_integrals(
    n_spatial: int, rng: np.random.Generator, n_electrons: int | None = None
):
    """Random spin-free molecular integrals with full 8-fold index symmetry.

    The resulting Hamiltonian commutes with particle number, z-spin and
    total spin, which is what the overlap-bound machinery assumes of its
    inputs.  Returns an ``IntegralTensors``.
    """
    from .integrals import IntegralTensors, index_symmetries

    if n_electrons is None:
        n_electrons = n_spatial
    h1 = rng.normal(size=(n_spatial, n_spatial))
    h1 = 0.5 * (h1 + h1.T)
    raw = rng.normal(size=(n_spatial,) * 4) * 0.25
    h2 = sum(raw.transpose(perm) for perm in index_symmetries("aa")) / 8.0
    return IntegralTensors(
        core_energy=float(rng.normal()), h1=h1, h2=h2, n_electrons=n_electrons
    )
