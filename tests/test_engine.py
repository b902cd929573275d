"""Propagation engine pinned against dense conjugation and unitarity."""

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from majprop import _kernels
from majprop.engine import (
    FermionicCircuit,
    Gate,
    TruncationPolicy,
    expand_fock_projector,
    expectation,
    fock_expectation,
    propagate,
    trace_overlap,
)
from majprop.instances import (
    random_circuit,
    random_molecular_hamiltonian,
    random_monomial_bits,
)
from majprop.monomials import MajoranaMonomial
from majprop.operators import SparseOperator
from majprop.oracle import (
    basis_state,
    circuit_state,
    dense_expectation,
    dense_monomial,
    dense_operator,
)


def _dense_gate(gamma_bits, theta, n_modes):
    return scipy.linalg.expm(
        -0.5j * theta * dense_monomial(MajoranaMonomial(gamma_bits, n_modes))
    )


# ---- single-gate conjugation ---------------------------------------------------


def _one_gate(n_modes, gamma, theta):
    return FermionicCircuit(n_modes, [Gate(int(gamma), slot=0)], np.array([theta]))


def test_conjugate_matches_dense_heisenberg(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    gamma = random_monomial_bits(n, 4, rng)
    theta = 0.8137
    out = propagate(op, _one_gate(n, gamma, theta), picture="heisenberg")
    U = _dense_gate(gamma, theta, n)
    want = U.conj().T @ dense_operator(op) @ U
    assert np.allclose(dense_operator(out), want, atol=1e-12)


def test_conjugate_matches_dense_schrodinger(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    gamma = random_monomial_bits(n, 2, rng)
    theta = -1.91
    out = propagate(op, _one_gate(n, gamma, theta), picture="schrodinger")
    U = _dense_gate(gamma, theta, n)
    want = U @ dense_operator(op) @ U.conj().T
    assert np.allclose(dense_operator(out), want, atol=1e-12)


def test_conjugate_identity_cases(rng):
    n = 3
    op = SparseOperator.from_terms(n, [(0b000011, 0.5), (0b111100, -0.25)])
    out = propagate(op, _one_gate(n, 0b001111, 0.0))
    assert np.array_equal(out.keys, op.keys)
    assert np.allclose(out.coeffs, op.coeffs)
    # generator commuting with every term: a full mode pair against paired terms
    out = propagate(op, _one_gate(n, 0b110000, 2.13))
    assert np.array_equal(out.keys, op.keys)
    assert np.allclose(out.coeffs, op.coeffs)


def test_coefficients_stay_real_through_propagation(rng):
    n = 5
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 12, rng)
    out = propagate(op, circ)
    assert out.coeffs.dtype == np.float64
    assert np.all(np.isfinite(out.coeffs))


# ---- whole-circuit propagation -------------------------------------------------


def test_propagate_matches_dense_both_pictures(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 6, rng)
    U = np.eye(1 << n, dtype=complex)
    for gamma, theta in circ.rotation_sequence():
        U = _dense_gate(gamma.bits, theta, n) @ U
    heis = propagate(op, circ, picture="heisenberg")
    assert np.allclose(
        dense_operator(heis), U.conj().T @ dense_operator(op) @ U, atol=1e-11
    )
    schr = propagate(op, circ, picture="schrodinger")
    assert np.allclose(
        dense_operator(schr), U @ dense_operator(op) @ U.conj().T, atol=1e-11
    )


def test_propagate_inverse_circuit_recovers_operator(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 8, rng)
    inverse = FermionicCircuit(
        n_modes=n,
        gates=list(reversed(circ.gates)),
        params=-circ.params,
    )
    forward = propagate(op, circ)
    back = propagate(forward, inverse)
    assert np.array_equal(back.keys, op.keys)
    assert np.allclose(back.coeffs, op.coeffs, atol=1e-12)


def test_propagate_empty_circuit_is_identity(rng):
    n = 3
    op = random_molecular_hamiltonian(n, rng)
    out = propagate(op, FermionicCircuit(n_modes=n))
    assert np.array_equal(out.keys, op.keys)


def test_propagate_checks_param_slots(rng):
    n = 3
    circ = random_circuit(n, 3, rng)
    op = random_molecular_hamiltonian(n, rng)
    with pytest.raises(ValueError):
        propagate(op, circ, params=np.zeros(2))


# ---- Fock projector ------------------------------------------------------------


def test_projector_expansion_is_exact_outer_product():
    n = 3
    occ = 0b101
    rho = expand_fock_projector(occ, n)
    psi = basis_state(occ, n)
    assert np.allclose(dense_operator(rho), np.outer(psi, psi.conj()), atol=1e-14)


def test_projector_term_counts():
    assert len(expand_fock_projector(0b0000, 4, max_pair_count=2)) == 1 + 4 + 6
    ident = expand_fock_projector(0b0101, 4, max_pair_count=0)
    assert len(ident) == 1
    assert ident.coefficient(0) == pytest.approx(1.0 / 16)


def test_projector_rejects_budget_beyond_modes():
    with pytest.raises(ValueError):
        expand_fock_projector(0, 3, max_pair_count=4)


# ---- expectation values --------------------------------------------------------


def test_fock_expectation_of_number_operator():
    n = 2
    eps = 0.731
    # eps * n_1  ==  eps/2 * (identity + canonical pair monomial on mode 1)
    h = SparseOperator.from_terms(n, [(0, eps / 2), (0b0011, eps / 2)])
    assert fock_expectation(h, 0b01) == pytest.approx(eps)
    assert fock_expectation(h, 0b10) == pytest.approx(0.0)
    assert expectation(h, occupation=0b01) == pytest.approx(eps)


def test_expectation_matches_dense_oracle_exact_mode(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 10, rng)
    occ = 0b0110
    psi = circuit_state(circ.rotation_sequence(), occ, n)
    want = dense_expectation(op, psi)
    got_h = expectation(op, circ, occ, picture="heisenberg")
    got_s = expectation(op, circ, occ, picture="schrodinger")
    assert got_h == pytest.approx(want, abs=1e-10)
    assert got_s == pytest.approx(want, abs=1e-10)


def test_trace_overlap_vs_fock_expectation(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    occ = 0b1010
    rho = expand_fock_projector(occ, n)
    assert trace_overlap(rho, op) == pytest.approx(fock_expectation(op, occ))


def test_picture_equivalence_under_pure_length_cutoff(rng):
    n = 5
    for cutoff in (4, 6):
        policy = TruncationPolicy(length_cutoff=cutoff, paired_accept=False)
        for _ in range(3):
            op = random_molecular_hamiltonian(n, rng)
            circ = random_circuit(n, 8, rng)
            occ = int(rng.integers(0, 1 << n))
            e_h = expectation(op, circ, occ, policy, picture="heisenberg")
            e_s = expectation(op, circ, occ, policy, picture="schrodinger")
            assert e_h == pytest.approx(e_s, abs=1e-12)


def test_single_excitation_circuits_are_truncation_free(rng):
    # length-2 generators only change anticommuting monomials into equal-length
    # ones, so any cutoff covering the Hamiltonian itself is exact
    n = 5
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 10, rng, generator_degree=2)
    occ = 0b00111
    policy = TruncationPolicy(length_cutoff=4, paired_accept=False)
    truncated = expectation(op, circ, occ, policy)
    exact = expectation(op, circ, occ)
    assert truncated == pytest.approx(exact, abs=1e-12)


# ---- truncation policy behaviour ------------------------------------------------


def test_term_count_bound_pure_length_cutoff(rng):
    n = 5
    cutoff = 4
    policy = TruncationPolicy(length_cutoff=cutoff, paired_accept=False)
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 15, rng)
    out = propagate(op, circ, policy=policy)
    assert int(_kernels.popcount(out.keys).max()) <= cutoff
    bound = sum(scipy.special.comb(2 * n, k, exact=True) for k in range(cutoff + 1))
    assert len(out) <= bound


def test_enlarging_cutoff_only_adds_monomials(rng):
    n = 5
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 10, rng)
    keys_small = propagate(
        op,
        circ,
        policy=TruncationPolicy(length_cutoff=4, paired_accept=False, hygiene_eps=0.0),
    ).keys
    keys_large = propagate(
        op,
        circ,
        policy=TruncationPolicy(length_cutoff=6, paired_accept=False, hygiene_eps=0.0),
    ).keys
    assert np.isin(keys_small, keys_large).all()


def test_paired_acceptance_keeps_long_paired_terms(rng):
    n = 5
    op = random_molecular_hamiltonian(n, rng)
    circ = random_circuit(n, 15, rng)
    pure = TruncationPolicy(length_cutoff=4, paired_accept=False)
    accepting = TruncationPolicy(length_cutoff=4, paired_accept=True)
    out = propagate(op, circ, policy=accepting)
    paired = _kernels.is_paired(out.keys)
    assert int(_kernels.popcount(out.keys[~paired]).max()) <= 4
    # the accepting run must retain at least as many paired monomials
    out_pure = propagate(op, circ, policy=pure)
    assert paired.sum() >= _kernels.is_paired(out_pure.keys).sum()


def test_policy_picture_defaults():
    policy = TruncationPolicy(length_cutoff=4)
    assert policy.resolved("heisenberg").paired_accept is True
    assert policy.resolved("schrodinger").paired_accept is False
    pinned = TruncationPolicy(length_cutoff=4, paired_accept=False)
    assert pinned.resolved("heisenberg").paired_accept is False


# ---- gates and circuits ----------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(generator=0, slot=0)
    with pytest.raises(ValueError):
        Gate(generator=0b0111, slot=0)  # odd length breaks parity symmetry
    with pytest.raises(ValueError):
        Gate(generator=0b0011, slot=0, sign=2)


def test_circuit_json_roundtrip(rng):
    circ = random_circuit(5, 6, rng)
    circ.gates[2] = Gate(
        generator=circ.gates[2].generator, slot=2, sign=-1, label="paired partner"
    )
    clone = FermionicCircuit.from_json(circ.to_json())
    assert clone.n_modes == circ.n_modes
    assert clone.gates == circ.gates
    assert np.allclose(clone.params, circ.params)


def test_circuit_rejects_unknown_format_version(rng):
    text = random_circuit(3, 2, rng).to_json().replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(ValueError):
        FermionicCircuit.from_json(text)


def test_insert_front_and_shared_slots():
    circ = FermionicCircuit(n_modes=3, gates=[Gate(0b0011, slot=0)], params=np.array([0.4]))
    circ.params = np.append(circ.params, 0.9)
    circ.gates[:0] = [Gate(0b1100, slot=1), Gate(0b1111, slot=1, sign=-1)]
    assert [g.generator for g in circ.gates] == [0b1100, 0b1111, 0b0011]
    assert circ.angle_of(circ.gates[0]) == pytest.approx(0.9)
    assert circ.angle_of(circ.gates[1]) == pytest.approx(-0.9)
    assert circ.angle_of(circ.gates[2]) == pytest.approx(0.4)
