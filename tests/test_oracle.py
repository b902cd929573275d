"""Statevector reference machinery checked against first principles."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from majprop.hamiltonian import build_majorana_hamiltonian
from majprop.instances import random_molecular_hamiltonian
from majprop.integrals import parse_fcidump
from majprop.monomials import MajoranaMonomial
from majprop.operators import SparseOperator
from majprop.oracle import (
    apply_majorana_site,
    apply_monomial,
    apply_operator,
    apply_rotation,
    basis_state,
    circuit_state,
    dense_monomial,
    dense_operator,
    dense_expectation,
    eigensolve_sector,
    embed_sector_vector,
    exact_overlap,
    sector_indices,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _number_operator(mode, n_modes):
    # n_p = (1 + M_pair)/2 since the canonical pair monomial i*m m has
    # eigenvalue 2n_p - 1
    pair = 0b11 << (2 * (mode - 1))
    return SparseOperator.from_terms(n_modes, [(0, 0.5), (pair, 0.5)])


def test_number_operator_is_diagonal_occupation():
    n = 3
    for mode in (1, 2, 3):
        mat = dense_operator(_number_operator(mode, n))
        want = np.diag([(occ >> (mode - 1)) & 1 for occ in range(8)]).astype(complex)
        assert np.allclose(mat, want)


def test_majorana_site_action_squares_to_identity(rng):
    n = 3
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    for site in range(1, 7):
        twice = apply_majorana_site(apply_majorana_site(psi, site, n), site, n)
        assert np.allclose(twice, psi)


def test_apply_monomial_matches_dense(rng):
    n = 3
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    for bits in rng.integers(1, 64, size=10).tolist():
        m = MajoranaMonomial(int(bits), n)
        assert np.allclose(apply_monomial(psi, m), dense_monomial(m) @ psi)


def test_apply_operator_matches_dense(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.allclose(apply_operator(psi, op), dense_operator(op) @ psi)


def test_rotation_matches_matrix_exponential(rng):
    n = 3
    gamma = MajoranaMonomial(0b011011, n)
    theta = 0.7321
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    U = scipy.linalg.expm(-0.5j * theta * dense_monomial(gamma))
    assert np.allclose(apply_rotation(psi, gamma, theta), U @ psi)
    rotated = apply_rotation(psi, gamma, theta)
    assert np.vdot(rotated, rotated) == pytest.approx(np.vdot(psi, psi))


def test_circuit_state_applies_gates_in_order(rng):
    n = 3
    g1 = MajoranaMonomial(0b000011, n)
    g2 = MajoranaMonomial(0b011110, n)
    gates = [(g1, 0.3), (g2, -1.1)]
    psi = circuit_state(gates, occupation=0b101, n_modes=n)
    U1 = scipy.linalg.expm(-0.5j * 0.3 * dense_monomial(g1))
    U2 = scipy.linalg.expm(+0.5j * 1.1 * dense_monomial(g2))
    want = U2 @ U1 @ basis_state(0b101, n)
    assert np.allclose(psi, want)


def test_dense_expectation_is_real_quadratic_form(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    H = dense_operator(op)
    assert np.allclose(H, H.conj().T)
    assert dense_expectation(op, psi) == pytest.approx(
        np.vdot(psi, H @ psi).real, abs=1e-12
    )


def test_sector_indices_counts():
    n = 4
    assert sector_indices(n).size == 16
    assert sector_indices(n, n_particles=2).size == 6
    # modes 1,3 are alpha, 2,4 beta: one of each spin
    sector = sector_indices(n, n_particles=2, twice_sz=0)
    assert sorted(sector.tolist()) == [0b0011, 0b0110, 0b1001, 0b1100]


def test_spin_sectors_partition_each_particle_sector():
    """Every 2 S_z, negative ones included, picks its own determinants, and
    together they cover the particle-number sector."""
    assert sector_indices(4, n_particles=2, twice_sz=2).tolist() == [0b0101]
    assert sector_indices(4, n_particles=2, twice_sz=-2).tolist() == [0b1010]
    for n_particles in range(7):
        parts = [sector_indices(6, n_particles, sz) for sz in range(-6, 7)]
        assert np.array_equal(np.sort(np.concatenate(parts)), sector_indices(6, n_particles))


@pytest.mark.parametrize("name", ["h2_sto3g", "h4_chain_r15", "h4_chain_r20", "h4_chain_r25"])
def test_eigensolve_matches_scipy_on_the_fixtures(name):
    """numpy's eigh gives scipy's eigenvalues to 1e-12 on each fixture's sector."""
    t = parse_fcidump((FIXTURE_DIR / f"{name}.fcidump").read_text())
    h = build_majorana_hamiltonian(t)
    w, _, cols = eigensolve_sector(h, t.n_electrons, t.ms2)
    block = dense_operator(h)[np.ix_(cols, cols)]
    np.testing.assert_allclose(w, scipy.linalg.eigh(block, eigvals_only=True), rtol=0, atol=1e-12)


def test_eigensolve_matches_scipy_on_random_sectors(rng):
    for n, n_particles, twice_sz in [(4, 2, 0), (4, 1, -1), (6, 3, 1), (6, 2, -2), (6, None, None)]:
        op = random_molecular_hamiltonian(n, rng)
        w, v, cols = eigensolve_sector(op, n_particles, twice_sz)
        block = dense_operator(op)[np.ix_(cols, cols)]
        np.testing.assert_allclose(
            w, scipy.linalg.eigh(block, eigvals_only=True), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(block @ v, v * w, rtol=0, atol=1e-11)


def test_eigensolve_full_space_matches_dense(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    w, v, cols = eigensolve_sector(op)
    dense_w = np.linalg.eigvalsh(dense_operator(op))
    assert np.allclose(w, dense_w)
    assert cols.size == 16
    ground = embed_sector_vector(v[:, 0], cols, n)
    assert dense_expectation(op, ground) == pytest.approx(w[0])


def test_eigensolve_sector_matches_projected_dense(rng):
    n = 4
    op = random_molecular_hamiltonian(n, rng)
    w, v, cols = eigensolve_sector(op, n_particles=2)
    H = dense_operator(op)
    block = H[np.ix_(cols, cols)]
    assert np.allclose(w, np.linalg.eigvalsh(block))


def test_exact_overlap_basics():
    n = 2
    a = basis_state(0b01, n)
    b = basis_state(0b10, n)
    assert exact_overlap(a, a) == pytest.approx(1.0)
    assert exact_overlap(a, b) == pytest.approx(0.0)
    mix = (a + b) / np.sqrt(2)
    assert exact_overlap(mix, a) == pytest.approx(0.5)


def test_basis_state_rejects_bad_occupation():
    with pytest.raises(ValueError):
        basis_state(0b100, 2)
