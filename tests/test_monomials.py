"""Monomial algebra pinned against dense matrices built from the ladder operators."""

import numpy as np
import pytest

from majprop import _kernels
from majprop.monomials import (
    MajoranaMonomial,
    monomial_product,
    monomials_commute,
    paired_eigenvalue,
    pairing_support,
)
from majprop.oracle import basis_state, dense_monomial


def _all_monomials(n_modes):
    return [MajoranaMonomial(b, n_modes) for b in range(1 << (2 * n_modes))]


def test_single_majorana_matrices_square_to_identity_and_anticommute():
    n = 3
    mats = [dense_monomial(MajoranaMonomial(1 << k, n)) for k in range(2 * n)]
    dim = 1 << n
    for i, mi in enumerate(mats):
        assert np.allclose(mi @ mi, np.eye(dim))
        assert np.allclose(mi, mi.conj().T)
        for mj in mats[i + 1 :]:
            assert np.allclose(mi @ mj + mj @ mi, 0.0)


def test_monomials_are_hermitian_and_self_inverse():
    for m in _all_monomials(2):
        mat = dense_monomial(m)
        assert np.allclose(mat, mat.conj().T), m
        assert np.allclose(mat @ mat, np.eye(4)), m


def test_trace_orthogonality():
    n = 2
    monos = _all_monomials(n)
    for a in monos:
        for b in monos:
            tr = np.trace(dense_monomial(a) @ dense_monomial(b))
            want = 2**n if a.bits == b.bits else 0.0
            assert abs(tr - want) < 1e-12


def test_product_phase_matches_dense_matrices_exhaustively():
    n = 2
    monos = _all_monomials(n)
    mats = {m.bits: dense_monomial(m) for m in monos}
    for a in monos:
        for b in monos:
            signed = monomial_product(a, b)
            lhs = mats[a.bits] @ mats[b.bits]
            rhs = signed.phase * mats[signed.monomial.bits]
            assert np.allclose(lhs, rhs), (a, b, signed.phase)


def test_commutation_rule_matches_dense_matrices():
    n = 2
    monos = _all_monomials(n)
    mats = {m.bits: dense_monomial(m) for m in monos}
    for a in monos:
        for b in monos:
            comm = mats[a.bits] @ mats[b.bits] - mats[b.bits] @ mats[a.bits]
            assert monomials_commute(a, b) == np.allclose(comm, 0.0), (a, b)


def test_product_phase_real_iff_commuting():
    for a in _all_monomials(2):
        for b in _all_monomials(2):
            phase = monomial_product(a, b).phase
            if monomials_commute(a, b):
                assert phase.imag == 0.0
            else:
                assert phase.real == 0.0


def test_pairing_support_and_eigenvalue_against_dense():
    n = 3
    for m in _all_monomials(n):
        support = pairing_support(m)
        mat = dense_monomial(m)
        diag = np.allclose(mat, np.diag(np.diagonal(mat)))
        assert (support is not None) == diag, m
        if support is None:
            with pytest.raises(ValueError):
                paired_eigenvalue(m, 0)
            continue
        for occ in range(1 << n):
            psi = basis_state(occ, n)
            want = np.vdot(psi, mat @ psi).real
            assert paired_eigenvalue(m, occ) == pytest.approx(want, abs=1e-12)


def test_pairing_support_reports_mode_mask():
    m = MajoranaMonomial(0b110011, 3)  # pairs on modes 1 and 3
    assert pairing_support(m) == 0b101
    assert pairing_support(MajoranaMonomial(0b000110, 3)) is None


def test_hex_roundtrip_and_padding():
    m = MajoranaMonomial(0x3, 4)
    assert m.to_hex() == "N=4:0x03"
    assert MajoranaMonomial.from_hex("N=4:0x03") == m
    assert MajoranaMonomial.from_hex("N=4:0x3") == m  # unpadded accepted
    wide = MajoranaMonomial(0x1F, 10)
    assert wide.to_hex() == "N=10:0x0001f"
    assert MajoranaMonomial.from_hex(wide.to_hex()) == wide


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        MajoranaMonomial(1 << 4, 2)
    with pytest.raises(ValueError):
        MajoranaMonomial(-1, 2)


def test_product_requires_matching_mode_counts():
    with pytest.raises(ValueError):
        monomial_product(MajoranaMonomial(1, 2), MajoranaMonomial(1, 3))


# ---- vectorized kernels agree with the scalar reference ----------------------


def test_kernels_match_scalar_exhaustively():
    n = 2
    keys = np.arange(16, dtype=np.uint64)
    monos = _all_monomials(n)
    for gamma in range(1, 16):
        g = MajoranaMonomial(gamma, n)
        anti = _kernels.anticommutes_with(gamma, keys)
        for m, flag in zip(monos, anti):
            assert flag == (not monomials_commute(g, m))
        signs = _kernels.product_sign_with(gamma, keys)
        for m, s in zip(monos, signs):
            if monomials_commute(g, m):
                continue
            signed = monomial_product(g, m)
            assert 1j * signed.phase == pytest.approx(s)


def test_kernels_match_scalar_randomized(rng):
    n = 8
    keys = rng.integers(0, 1 << (2 * n), size=300).astype(np.uint64)
    gamma = int(rng.integers(1, 1 << (2 * n)))
    g = MajoranaMonomial(gamma, n)
    anti = _kernels.anticommutes_with(gamma, keys)
    signs = _kernels.product_sign_with(gamma, keys)
    paired = _kernels.is_paired(keys)
    for bits, a_flag, s, p_flag in zip(keys.tolist(), anti, signs, paired):
        m = MajoranaMonomial(int(bits), n)
        assert a_flag == (not monomials_commute(g, m))
        assert p_flag == (pairing_support(m) is not None)
        if a_flag:
            assert 1j * monomial_product(g, m).phase == pytest.approx(s)


def test_kernels_broadcast_generators_against_keys(rng):
    """One generator per key, or a column of generators against a row of
    keys, matches the scalar reference; gamma = 0 commutes with everything."""
    n = 8
    keys = rng.integers(0, 1 << (2 * n), size=200).astype(np.uint64)
    gammas = rng.integers(0, 1 << (2 * n), size=200).astype(np.uint64)
    gammas[:10] = 0
    anti = _kernels.anticommutes_with(gammas, keys)
    signs = _kernels.product_sign_with(gammas, keys)
    for gamma, bits, a_flag, s in zip(gammas.tolist(), keys.tolist(), anti, signs):
        g, m = MajoranaMonomial(int(gamma), n), MajoranaMonomial(int(bits), n)
        assert a_flag == (not monomials_commute(g, m))
        if a_flag:
            assert 1j * monomial_product(g, m).phase == pytest.approx(s)
    assert not anti[:10].any()
    grid = _kernels.anticommutes_with(gammas[:20, None], keys[None, :30])
    assert grid.shape == (20, 30)
    for gamma, row in zip(gammas[:20].tolist(), grid):
        assert np.array_equal(row, _kernels.anticommutes_with(int(gamma), keys[:30]))
    parity = _kernels.swap_parity_with(gammas[:20, None], keys[None, :30])
    for gamma, row in zip(gammas[:20].tolist(), parity):
        assert np.array_equal(row, _kernels.swap_parity_with(int(gamma), keys[:30]))


def test_paired_eigenvalue_kernel_matches_scalar(rng):
    n = 6
    pair_masks = []
    for _ in range(50):
        modes = int(rng.integers(0, 1 << n))
        bits = 0
        for j in range(n):
            if modes >> j & 1:
                bits |= 3 << (2 * j)
        pair_masks.append(bits)
    keys = np.array(pair_masks, dtype=np.uint64)
    for occ in rng.integers(0, 1 << n, size=8).tolist():
        vals = _kernels.paired_eigenvalues(keys, int(occ))
        for bits, v in zip(pair_masks, vals):
            assert v == paired_eigenvalue(MajoranaMonomial(bits, n), int(occ))


def _summed_in_order(values, *keys):
    """Reference sums: a Python loop adding each key tuple's values in input order."""
    sums = {}
    zero = 0j if np.iscomplexobj(values) else 0.0
    for value, *key in zip(values.tolist(), *(k.tolist() for k in keys)):
        sums[tuple(key)] = sums.get(tuple(key), zero) + value
    return sums


@pytest.mark.parametrize("dtype", [float, complex])
def test_summed_adds_each_key_in_input_order(rng, dtype):
    """Runs of ~40 equal keys (past the 8 at which ``np.add.reduceat``
    stops adding in input order) sum bit for bit like the in-order loop."""
    pool = rng.integers(0, 2**64, size=5, dtype=np.uint64)
    keys = pool[rng.integers(0, pool.size, size=200)]
    scale = 10.0 ** rng.integers(-8, 9, size=(2, keys.size))
    values = rng.normal(size=keys.size) * scale[0]
    if dtype is complex:
        values = values + 1j * rng.normal(size=keys.size) * scale[1]
    sums, uniq = _kernels.summed(values, keys)
    reference = _summed_in_order(values, keys)
    assert uniq.dtype == np.uint64 and sums.dtype == dtype
    assert uniq.tolist() == sorted(key for key, in reference)
    expected = np.array([reference[(key,)] for key in uniq.tolist()])
    assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))
    # the order matters at these magnitudes: reversed input sums differ
    assert _summed_in_order(values[::-1], keys[::-1]) != reference


def test_summed_groups_key_tuples_in_lexicographic_order(rng):
    keys = rng.integers(0, 2**64, size=4, dtype=np.uint64)[rng.integers(0, 4, size=300)]
    columns = rng.integers(0, 6, size=300).astype(np.int32)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, size=300)
    sums, uniq, cols = _kernels.summed(values, keys, columns)
    reference = _summed_in_order(values, keys, columns)
    pairs = list(zip(uniq.tolist(), cols.tolist()))
    assert pairs == sorted(reference) and cols.dtype == np.int32
    expected = np.array([reference[pair] for pair in pairs])
    assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))


def test_summed_of_nothing_is_empty():
    sums, keys = _kernels.summed(np.zeros(0), np.zeros(0, np.uint64))
    assert sums.shape == keys.shape == (0,)
    assert sums.dtype == np.float64 and keys.dtype == np.uint64
    sums, keys, columns = _kernels.summed(
        np.zeros(0, complex), np.zeros(0, np.uint64), np.zeros(0, np.int32)
    )
    assert sums.size == keys.size == columns.size == 0 and sums.dtype == complex
