"""Integral handling and Majorana Hamiltonian assembly against dense references."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from majprop import _kernels
from majprop.engine import expectation
from majprop.hamiltonian import (
    assemble_operator,
    build_majorana_hamiltonian,
    ladder_product,
    ladder_terms,
    spin_orbital_mode,
)
from majprop.instances import random_restricted_integrals
from majprop.integrals import (
    FcidumpError,
    IntegralTensors,
    aufbau_occupation,
    dress_integrals,
    emit_fcidump,
    hartree_fock_energy,
    parse_fcidump,
)
from majprop.monomials import MajoranaMonomial
from majprop.oracle import basis_state, dense_monomial, dense_operator

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = """\
&FCI NORB=1,NELEC=2,MS2=0,
 ORBSYM=1,
 ISYM=1,
&END
 0.5 1 1 1 1
 1.0 1 1 0 0
 -0.7 0 0 0 0
"""


def _random_unrestricted(rng, n=2):
    base = random_restricted_integrals(n, rng)
    other = random_restricted_integrals(n, rng)
    mixed = rng.normal(size=(n,) * 4)
    mixed = mixed + mixed.transpose(1, 0, 2, 3)
    mixed = mixed + mixed.transpose(0, 1, 3, 2)
    return IntegralTensors(
        core_energy=base.core_energy,
        h1=base.h1,
        h2=base.h2,
        n_electrons=2,
        h1_beta=other.h1,
        h2_bb=other.h2,
        h2_ab=0.25 * mixed,
    )


# ---- FCIDUMP ------------------------------------------------------------------


def test_parse_minimal_fcidump():
    t = parse_fcidump(MINIMAL)
    assert t.n_spatial == 1
    assert t.n_electrons == 2
    assert t.h1[0, 0] == 1.0
    assert t.h2[0, 0, 0, 0] == 0.5
    assert t.core_energy == -0.7
    assert t.is_restricted


def test_parse_empty_body():
    t = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0 &END\n")
    assert t.n_spatial == 2
    assert not t.h1.any() and not t.h2.any()
    assert t.core_energy == 0.0


def _support(tensor):
    return {tuple(int(x) for x in idx) for idx in np.argwhere(tensor)}


def test_parse_applies_eightfold_symmetry():
    text = "&FCI NORB=2,NELEC=2,MS2=0 &END\n 0.25 2 1 2 2\n"
    t = parse_fcidump(text)
    for idx in [(1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]:
        assert t.h2[idx] == 0.25
    # a line fills every member of its orbit and nothing else: (31|21) has
    # eight distinct members in a same-spin block, four in the mixed block
    i, j, k, l = 2, 0, 1, 0
    within = {(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k)}
    eightfold = within | {(k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)}
    assert len(eightfold) == 8
    t = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0 &END\n 0.25 3 1 2 1\n 0.5 3 1 0 0\n")
    assert _support(t.h2) == eightfold and set(t.h2[t.h2 != 0]) == {0.25}
    assert _support(t.h1) == {(2, 0), (0, 2)} and set(t.h1[t.h1 != 0]) == {0.5}
    delimiter = " 0.0 0 0 0 0\n"
    t = parse_fcidump(
        "&FCI NORB=3,NELEC=2,MS2=0,UHF=.TRUE. &END\n" + 2 * delimiter
        + " 0.25 3 1 2 1\n" + delimiter + " 0.5 3 1 0 0\n" + delimiter + " 0.75 2 1 0 0\n"
    )
    assert _support(t.h2_ab) == within and set(t.h2_ab[t.h2_ab != 0]) == {0.25}
    assert not t.h2.any() and not t.h2_bb.any()
    assert _support(t.h1) == {(2, 0), (0, 2)} and set(t.h1[t.h1 != 0]) == {0.5}
    assert _support(t.h1_beta) == {(1, 0), (0, 1)} and set(t.h1_beta[t.h1_beta != 0]) == {0.75}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FcidumpError, match="line 2"):
        parse_fcidump("&FCI NORB=1,NELEC=1 &END\n not numbers here x\n")
    with pytest.raises(FcidumpError, match="line 2"):
        parse_fcidump("&FCI NORB=1,NELEC=1 &END\n 1.0 2 1 0 0\n")
    with pytest.raises(FcidumpError, match="NORB"):
        parse_fcidump("&FCI NELEC=1 &END\n")
    with pytest.raises(FcidumpError):
        parse_fcidump("&FCI NORB=1\n 1.0 1 1 0 0\n")
    # the blank line and the orbital-energy line (value i 0 0 0) are
    # skipped, but still counted
    restricted = "&FCI NORB=2,NELEC=2 &END\n\n -0.5 1 0 0 0\n"
    uhf = "&FCI NORB=2,NELEC=2,UHF=.TRUE. &END\n 0.25 1 1 1 1\n"
    delimiters = 3 * " 0.0 0 0 0 0\n"
    t = parse_fcidump(restricted + " 0.3 1 1 0 0\n")
    assert _support(t.h1) == {(0, 0)} and not t.h2.any() and t.core_energy == 0.0
    for text, match in [
        (restricted + " 1.0 1 x 1 1\n", "line 4: non-numeric field"),
        (restricted + " 1.0 1 0 1 1\n", "line 4: partial zero indices"),
        (uhf + " 1.0 2 1 0 0\n", "line 3: one-electron entry in two-electron section"),
        (uhf + delimiters + " 1.0 2 1 1 1\n", "line 6: two-electron entry in one-electron"),
    ]:
        with pytest.raises(FcidumpError, match=match):
            parse_fcidump(text)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.fcidump")), ids=lambda p: p.stem)
def test_fcidump_fixtures_round_trip_byte_for_byte(path):
    """Writing a parsed fixture gives its text back: the orbit storage and
    the emission order (each orbit's largest index tuple, ascending)."""
    text = path.read_text()
    assert emit_fcidump(parse_fcidump(text)) == text


def test_fcidump_roundtrip_restricted(rng):
    t = random_restricted_integrals(3, rng)
    back = parse_fcidump(emit_fcidump(t))
    assert np.allclose(back.h1, t.h1, atol=1e-12)
    assert np.allclose(back.h2, t.h2, atol=1e-12)
    assert back.core_energy == pytest.approx(t.core_energy)


def test_fcidump_roundtrip_unrestricted(rng):
    t = _random_unrestricted(rng)
    text = emit_fcidump(t)
    assert "UHF=.TRUE." in text
    back = parse_fcidump(text)
    assert not back.is_restricted
    assert np.allclose(back.h1, t.h1, atol=1e-12)
    assert np.allclose(back.h1_beta, t.h1_beta, atol=1e-12)
    assert np.allclose(back.h2_bb, t.h2_bb, atol=1e-12)
    assert np.allclose(back.h2_ab, t.h2_ab, atol=1e-12)
    assert back.core_energy == pytest.approx(t.core_energy)


# ---- Hamiltonian assembly -------------------------------------------------------


def test_single_orbital_number_operator():
    eps = 0.9137
    t = IntegralTensors(core_energy=0.0, h1=np.array([[eps]]), h2=np.zeros((1, 1, 1, 1)))
    h = build_majorana_hamiltonian(t)
    # one alpha electron in the single spatial orbital
    assert expectation(h, occupation=0b01) == pytest.approx(eps)
    assert expectation(h, occupation=0b00) == pytest.approx(0.0)
    assert expectation(h, occupation=0b11) == pytest.approx(2 * eps)


def test_hamiltonian_has_even_low_length_terms_only(rng):
    t = random_restricted_integrals(3, rng)
    h = build_majorana_hamiltonian(t)
    degrees = _kernels.popcount(h.keys)
    assert set(np.unique(degrees)).issubset({0, 2, 4})


def _dense_ladder(mode, dagger, n_modes):
    odd = dense_monomial(MajoranaMonomial(1 << (2 * mode - 2), n_modes))
    even = dense_monomial(MajoranaMonomial(1 << (2 * mode - 1), n_modes))
    return 0.5 * (odd - 1j * even) if dagger else 0.5 * (odd + 1j * even)


def _dense_terms(keys, values, n_modes):
    dim = 1 << n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for k, v in zip(keys, values):
        out += v * dense_monomial(MajoranaMonomial(int(k), n_modes))
    return out


def _dense_from_ladders(t):
    """Independent dense build: multiply explicit ladder matrices."""
    n = t.n_spatial
    n_modes = 2 * n
    dim = 1 << n_modes
    create = {m: _dense_ladder(m, True, n_modes) for m in range(1, n_modes + 1)}
    destroy = {m: _dense_ladder(m, False, n_modes) for m in range(1, n_modes + 1)}
    H = t.core_energy * np.eye(dim, dtype=complex)
    for sector in ("alpha", "beta"):
        h1 = t.h1_block(sector)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                mp = spin_orbital_mode(p, sector, n)
                mq = spin_orbital_mode(q, sector, n)
                H += h1[p - 1, q - 1] * create[mp] @ destroy[mq]
    for s1, s2, pair in (
        ("alpha", "alpha", "aa"),
        ("alpha", "beta", "ab"),
        ("beta", "alpha", "ba"),
        ("beta", "beta", "bb"),
    ):
        h2 = t.h2_block(pair)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        v = h2[i - 1, j - 1, k - 1, l - 1]
                        if abs(v) < 1e-16:
                            continue
                        mi = spin_orbital_mode(i, s1, n)
                        mj = spin_orbital_mode(j, s1, n)
                        mk = spin_orbital_mode(k, s2, n)
                        ml = spin_orbital_mode(l, s2, n)
                        H += (
                            0.5
                            * v
                            * create[mi]
                            @ create[mk]
                            @ destroy[ml]
                            @ destroy[mj]
                        )
    return H


def test_hamiltonian_matches_dense_ladder_construction(rng):
    t = random_restricted_integrals(3, rng)
    h = build_majorana_hamiltonian(t)
    assert np.allclose(dense_operator(h), _dense_from_ladders(t), atol=1e-12)


def test_hamiltonian_matches_dense_ladder_construction_unrestricted(rng):
    t = _random_unrestricted(rng)
    h = build_majorana_hamiltonian(t)
    assert np.allclose(dense_operator(h), _dense_from_ladders(t), atol=1e-12)


def test_hf_expectation_matches_slater_condon(rng):
    t = random_restricted_integrals(3, rng, n_electrons=4)
    h = build_majorana_hamiltonian(t)
    occ = aufbau_occupation(4)
    assert expectation(h, occupation=occ) == pytest.approx(
        hartree_fock_energy(t), abs=1e-10
    )
    # open-shell determinant as well
    occ = 0b010011
    assert expectation(h, occupation=occ) == pytest.approx(
        hartree_fock_energy(t, occupation=occ), abs=1e-10
    )


def test_hf_expectation_matches_slater_condon_unrestricted(rng):
    t = _random_unrestricted(rng)
    h = build_majorana_hamiltonian(t)
    for occ in (0b0011, 0b0110, 0b1010):
        assert expectation(h, occupation=occ) == pytest.approx(
            hartree_fock_energy(t, occupation=occ), abs=1e-10
        )


def test_ladder_product_reproduces_anticommutator():
    # {a_1, a+_1} = 1 expands to the identity monomial
    left = ladder_product([(1, False), (1, True)])
    right = ladder_product([(1, True), (1, False)])
    total = {k: left.get(k, 0) + right.get(k, 0) for k in set(left) | set(right)}
    assert total[0] == pytest.approx(1.0)
    assert all(abs(v) < 1e-15 for k, v in total.items() if k != 0)
    # n_2 = (1 + M_pair)/2 on the canonical pair monomial, a_2 a+_2 = 1 - n_2
    pair = 0b11 << 2
    assert ladder_product([(2, True), (2, False)]) == {0: 0.5, pair: 0.5}
    assert ladder_product([(2, False), (2, True)]) == {0: 0.5, pair: -0.5}
    # a+_2 a+_2 = 0, and {a_1, a+_2} = 0 cancels term by term
    assert ladder_product([(2, True), (2, True)]) == {}
    left = ladder_product([(1, False), (2, True)])
    right = ladder_product([(2, True), (1, False)])
    assert left == {k: -v for k, v in right.items()}


@pytest.mark.parametrize("n_modes", [3, 4])
def test_ladder_terms_match_dense_ladder_products(rng, n_modes):
    """Random strings of 0-4 ladder operators, repeated modes included."""
    for length in range(5):
        daggers = tuple(bool(d) for d in rng.integers(0, 2, size=length))
        modes = rng.integers(1, n_modes + 1, size=(5, length))
        weights = rng.normal(size=5)
        keys, values = ladder_terms(modes, daggers, weights)
        assert keys.size == 5 << length
        want = np.zeros((1 << n_modes,) * 2, dtype=complex)
        for row, w in zip(modes, weights):
            string = np.eye(1 << n_modes, dtype=complex)
            for mode, dagger in zip(row, daggers):
                string = string @ _dense_ladder(mode, dagger, n_modes)
            want += w * string
            single = ladder_product(list(zip(row.tolist(), daggers)))
            assert np.allclose(_dense_terms(single, single.values(), n_modes), string, atol=1e-12)
        assert np.allclose(_dense_terms(keys, values, n_modes), want, atol=1e-12)


def test_ladder_terms_reject_modes_outside_the_key_width():
    for mode in (0, 33):
        with pytest.raises(ValueError, match="1..32"):
            ladder_product([(1, False), (mode, True)])


def test_assembling_a_non_hermitian_term_raises():
    hop = np.array([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="non-Hermitian"):
        assemble_operator([ladder_terms(hop[:1], (True, False), [1.0])], 2)
    op = assemble_operator([ladder_terms(hop, (True, False), [1.0, 1.0])], 2)
    assert np.allclose(dense_operator(op), _dense_terms(*ladder_terms(hop, (True, False), [1, 1]), 2))


# ---- dressing -------------------------------------------------------------------


def test_dressing_zero_angles_is_identity(rng):
    t = random_restricted_integrals(3, rng)
    d = dress_integrals(t, [(1, 2, 0.0, "alpha"), (1, 2, 0.0, "beta")])
    assert np.allclose(d.h1, t.h1)
    assert np.allclose(d.h2, t.h2)
    assert d.is_restricted


def test_dressing_inverse_roundtrip(rng):
    t = random_restricted_integrals(3, rng)
    rot = [(1, 3, 0.37, "alpha"), (1, 3, 0.37, "beta")]
    inv = [(1, 3, -0.37, "alpha"), (1, 3, -0.37, "beta")]
    d = dress_integrals(dress_integrals(t, rot), inv)
    assert np.allclose(d.h1, t.h1, atol=1e-12)
    assert np.allclose(d.h2, t.h2, atol=1e-12)


def test_dressing_preserves_spectrum(rng):
    t = random_restricted_integrals(3, rng)
    rot = [
        (1, 2, 0.4, "alpha"),
        (1, 2, 0.4, "beta"),
        (2, 3, -0.9, "alpha"),
        (2, 3, -0.9, "beta"),
    ]
    w0 = np.linalg.eigvalsh(dense_operator(build_majorana_hamiltonian(t)))
    w1 = np.linalg.eigvalsh(
        dense_operator(build_majorana_hamiltonian(dress_integrals(t, rot)))
    )
    assert np.allclose(w0, w1, atol=1e-9)


def test_dressing_unequal_sectors_promotes_to_unrestricted(rng):
    t = random_restricted_integrals(2, rng)
    d = dress_integrals(t, [(1, 2, 0.3, "alpha")])
    assert not d.is_restricted
    w0 = np.linalg.eigvalsh(dense_operator(build_majorana_hamiltonian(t)))
    w1 = np.linalg.eigvalsh(dense_operator(build_majorana_hamiltonian(d)))
    assert np.allclose(w0, w1, atol=1e-9)


def test_dressing_energy_equivalence(rng):
    # <HF| R^dag H R |HF> must equal <HF| H-dressed |HF> where R applies the
    # same rotations to the state; pins the direction of the transform
    n = 3
    t = random_restricted_integrals(n, rng, n_electrons=2)
    rotations = [(1, 2, 0.41), (2, 3, -0.77), (1, 3, 0.23)]
    entries = []
    for p, q, theta in rotations:
        entries.append((p, q, theta, "alpha"))
        entries.append((p, q, theta, "beta"))
    dressed = dress_integrals(t, entries)

    h = build_majorana_hamiltonian(t)
    n_modes = 2 * n
    occ = aufbau_occupation(2)
    psi = basis_state(occ, n_modes).astype(complex)
    for p, q, theta in rotations:
        for sector in ("alpha", "beta"):
            mp = spin_orbital_mode(p, sector, n)
            mq = spin_orbital_mode(q, sector, n)
            create = 0.5 * (
                dense_monomial(MajoranaMonomial(1 << (2 * mp - 2), n_modes))
                - 1j * dense_monomial(MajoranaMonomial(1 << (2 * mp - 1), n_modes))
            )
            destroy_q = 0.5 * (
                dense_monomial(MajoranaMonomial(1 << (2 * mq - 2), n_modes))
                + 1j * dense_monomial(MajoranaMonomial(1 << (2 * mq - 1), n_modes))
            )
            create_q = 0.5 * (
                dense_monomial(MajoranaMonomial(1 << (2 * mq - 2), n_modes))
                - 1j * dense_monomial(MajoranaMonomial(1 << (2 * mq - 1), n_modes))
            )
            destroy_p = 0.5 * (
                dense_monomial(MajoranaMonomial(1 << (2 * mp - 2), n_modes))
                + 1j * dense_monomial(MajoranaMonomial(1 << (2 * mp - 1), n_modes))
            )
            generator = create @ destroy_q - create_q @ destroy_p
            psi = scipy.linalg.expm(theta * generator) @ psi
    rotated_energy = np.vdot(psi, dense_operator(h) @ psi).real
    dressed_energy = expectation(build_majorana_hamiltonian(dressed), occupation=occ)
    assert dressed_energy == pytest.approx(rotated_energy, abs=1e-9)


def test_dressing_validates_indices(rng):
    t = random_restricted_integrals(2, rng)
    with pytest.raises(ValueError):
        dress_integrals(t, [(1, 3, 0.1, "alpha")])
    with pytest.raises(ValueError):
        dress_integrals(t, [(1, 1, 0.1, "alpha")])
    with pytest.raises(ValueError):
        dress_integrals(t, [(1, 2, 0.1, "gamma")])
