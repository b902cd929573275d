"""Penalty operators and the overlap floor estimates against dense spectra."""

from math import comb

import numpy as np
import pytest

import majprop.instances as inst
from majprop.bounds import (
    SpectralData,
    build_penalty_hamiltonian,
    lower_bound_known_alpha,
    lower_bound_penalty,
    lower_bound_simple,
    lower_bound_unknown_gap,
)
from majprop.engine import fock_expectation
from majprop.hamiltonian import build_majorana_hamiltonian
from majprop.oracle import dense_operator

ODD = 0x5555555555555555


def _counts(occ: int) -> tuple[int, int, int]:
    n_alpha = bin(occ & ODD).count("1")
    n_beta = bin(occ & ~ODD).count("1")
    n_paired = bin(occ & (occ >> 1) & ODD).count("1")
    return n_alpha, n_beta, n_paired


# ---- penalty operator -------------------------------------------------------


def test_penalty_null_space_is_the_correct_sector_singlets():
    n_modes, nexp = 6, 2
    op, lambda2, _ = build_penalty_hamiltonian(n_modes, nexp)
    dense = dense_operator(op)
    assert np.allclose(dense, dense.conj().T)
    w, v = np.linalg.eigh(dense)
    assert w[0] > -1e-10  # nonnegative
    null = v[:, np.abs(w) < 1e-8]
    weyl_singlets = comb(3, 1) ** 2 - comb(3, 2) * comb(3, 0)
    assert null.shape[1] == weyl_singlets
    # the floor is conservative: the true smallest positive eigenvalue sits above it
    assert w[np.abs(w) > 1e-8][0] >= lambda2 - 1e-10

    number_sq = dense_operator(build_penalty_hamiltonian(n_modes, nexp, 1.0, 0.0, 0.0)[0])
    s_sq = dense_operator(build_penalty_hamiltonian(n_modes, nexp, 0.0, 0.0, 1.0)[0])
    assert np.linalg.norm(number_sq @ null) < 1e-8
    assert np.linalg.norm(s_sq @ null) < 1e-8


def test_penalty_expectations_on_reference_states():
    op, lambda2, _ = build_penalty_hamiltonian(6, 2)
    assert lambda2 == 1.0
    assert fock_expectation(op, 0b000011) == pytest.approx(0.0, abs=1e-12)
    # one particle too many: at least the full number penalty
    assert fock_expectation(op, 0b000111) >= 1.0 - 1e-12
    # two aligned spins form a triplet; its penalty clears the floor
    triplet = fock_expectation(op, 0b010001)
    assert triplet == pytest.approx(2 * 4.0 / 3.0, abs=1e-12)
    assert triplet >= lambda2


def test_number_and_sz_penalties_are_diagonal(rng):
    n_modes, nexp = 8, 4
    number_only, _, _ = build_penalty_hamiltonian(n_modes, nexp, 2.0, 0.0, 0.0)
    sz_only, _, _ = build_penalty_hamiltonian(n_modes, nexp, 0.0, 3.0, 0.0)
    for occ in rng.integers(0, 1 << n_modes, 25):
        occ = int(occ)
        n_alpha, n_beta, _ = _counts(occ)
        assert fock_expectation(number_only, occ) == pytest.approx(
            2.0 * (n_alpha + n_beta - nexp) ** 2, abs=1e-10
        )
        assert fock_expectation(sz_only, occ) == pytest.approx(
            3.0 * ((n_alpha - n_beta) / 2.0) ** 2, abs=1e-10
        )


def test_total_spin_matches_the_determinant_formula(rng):
    s_sq, _, _ = build_penalty_hamiltonian(8, 0, 0.0, 0.0, 1.0)
    for occ in rng.integers(0, 1 << 8, 25):
        occ = int(occ)
        n_alpha, n_beta, n_paired = _counts(occ)
        ms = (n_alpha - n_beta) / 2.0
        expected = ms * (ms + 1.0) + n_beta - n_paired
        assert fock_expectation(s_sq, occ) == pytest.approx(expected, abs=1e-10)


def test_total_spin_spectrum_sits_on_the_spin_grid():
    s_sq, _, _ = build_penalty_hamiltonian(6, 0, 0.0, 0.0, 1.0)
    w = np.linalg.eigvalsh(dense_operator(s_sq))
    grid = [s * (s + 1.0) for s in (0.0, 0.5, 1.0, 1.5)]
    assert all(min(abs(x - g) for g in grid) < 1e-9 for x in w)


@pytest.mark.parametrize("nexp", [0, 2, 3, 6])
def test_lambda_p_conventions_cover_the_spectrum(nexp):
    op, lambda2, lambda_p = build_penalty_hamiltonian(6, nexp)
    top = np.linalg.eigvalsh(dense_operator(op))[-1]
    assert lambda_p == pytest.approx(top, abs=1e-9)
    assert lambda2 <= lambda_p


@pytest.mark.parametrize(
    "a, b, c, nexp",
    [(1.0, 10.0, 4.0 / 3.0, 3), (0.05, 0.0, 4.0 / 3.0, 3), (0.05, 2.0, 1.0, 2),
     (2.0, 0.5, 0.0, 4), (0.0, 1.0, 1.0, 6), (1.0, 3.0, 0.25, 0)],
)
def test_lambda_p_is_the_top_eigenvalue(a, b, c, nexp):
    """lambda_p caps the spectrum for any valid constants, with Sz^2 walls
    (b > 0) and a weak number term (small a) too; a closed form below the
    top eigenvalue would let ``lower_bound_penalty`` overstate its floor."""
    op, _, lambda_p = build_penalty_hamiltonian(6, nexp, a, b, c)
    assert lambda_p == pytest.approx(np.linalg.eigvalsh(dense_operator(op))[-1], abs=1e-9)


def test_penalty_rejects_bad_inputs():
    with pytest.raises(ValueError, match="nonnegative"):
        build_penalty_hamiltonian(6, 2, a=-1.0)
    with pytest.raises(ValueError, match="not all zero"):
        build_penalty_hamiltonian(6, 2, a=0.0, b=0.0, c=0.0)
    with pytest.raises(ValueError, match="even"):
        build_penalty_hamiltonian(5, 2)
    with pytest.raises(ValueError, match="outside"):
        build_penalty_hamiltonian(6, 7)


# ---- bound formulas ----------------------------------------------------------


def test_simple_bound_endpoints_and_clamping():
    assert lower_bound_simple(-2.0, -2.0, -1.0).value == 1.0
    assert lower_bound_simple(-1.0, -2.0, -1.0).value == 0.0
    assert lower_bound_simple(-1.5, -2.0, -1.0).value == 0.5
    over = lower_bound_simple(-0.5, -2.0, -1.0)
    assert over.value == 0.0 and over.raw == pytest.approx(-0.5)
    with pytest.raises(ValueError, match="e0 < e1"):
        lower_bound_simple(-1.5, -1.0, -1.0)


def test_bounds_refuse_sub_ground_energies():
    """An energy below e0 (a truncated run can report one) is not variational,
    so no floor may turn it into an overlap certificate."""
    e = -2.0 - 1e-6
    for call in (
        lambda: lower_bound_simple(e, -2.0, -1.0),
        lambda: lower_bound_known_alpha(e, -2.0, -1.0, -1.3, 0.0),
        lambda: lower_bound_penalty(
            SpectralData(-2.0, -1.0, -1.5, 1.0, 20.0, 0.0, e)
        ),
        lambda: lower_bound_unknown_gap(e, -2.0, -1.0, 0.0, 1.0),
    ):
        with pytest.raises(ValueError, match="below the ground-state energy"):
            call()
    # roundoff under e0 still certifies the ground state
    assert lower_bound_simple(-2.0 - 1e-12, -2.0, -1.0).value == 1.0


def test_known_alpha_reductions():
    ratio = lower_bound_known_alpha(-1.6, -2.0, -1.0, -1.3, 0.0)
    assert ratio.raw == pytest.approx((-1.0 + 1.6) / (-1.0 + 2.0))
    # a coinciding out-of-sector level reduces to the two-level bound
    coincide = lower_bound_known_alpha(-1.6, -2.0, -1.0, -1.0, 0.37)
    assert coincide.raw == pytest.approx(lower_bound_simple(-1.6, -2.0, -1.0).raw)
    with pytest.raises(ValueError, match="alpha_sq"):
        lower_bound_known_alpha(-1.6, -2.0, -1.0, -1.3, 1.2)
    with pytest.raises(ValueError, match="e0 < s1"):
        lower_bound_known_alpha(-1.6, -1.0, -2.0, -1.3, 0.0)


def test_penalty_bound_branches_and_preconditions():
    base = dict(e0=-2.0, s1=-1.0, lambda2=1.0, lambda_p=20.0, e=-1.6)
    below = lower_bound_penalty(SpectralData(s1_top=-1.5, p=0.0, **base))
    assert below.raw == pytest.approx(0.6)
    # p = 0 collapses both branches to the plain ratio
    above = lower_bound_penalty(SpectralData(s1_top=-0.5, p=0.0, **base))
    assert above.raw == pytest.approx(0.6)
    # the out-of-sector gap factor scales with p/lambda2 when that level is lower
    assert lower_bound_penalty(
        SpectralData(s1_top=-1.5, p=0.5, **base)
    ).raw == pytest.approx(0.6 - 0.5 * 0.5)
    # ... and with the much smaller p/lambda_p when it is higher (a bonus term)
    assert lower_bound_penalty(
        SpectralData(s1_top=-0.5, p=0.5, **base)
    ).raw == pytest.approx(0.6 + 0.5 / 20.0 * 0.5)
    with pytest.raises(ValueError, match="exceeds lambda2"):
        lower_bound_penalty(SpectralData(s1_top=-1.5, p=1.5, **base))
    with pytest.raises(ValueError, match="e0 < s1"):
        SpectralData(e0=-1.0, s1=-2.0, s1_top=-1.5, lambda2=1.0, lambda_p=2.0, p=0.0, e=-1.6)
    with pytest.raises(ValueError, match="negative"):
        SpectralData(e0=-2.0, s1=-1.0, s1_top=-1.5, lambda2=1.0, lambda_p=2.0, p=-0.1, e=-1.6)
    with pytest.raises(ValueError, match="lambda2 <= lambda_p"):
        SpectralData(e0=-2.0, s1=-1.0, s1_top=-1.5, lambda2=3.0, lambda_p=2.0, p=0.0, e=-1.6)


def test_unknown_gap_bound():
    assert lower_bound_unknown_gap(-2.0, -2.0, -1.0, 0.0, 1.0).value == 1.0
    assert lower_bound_unknown_gap(-1.6, -2.0, -1.0, 0.25, 1.0).raw == pytest.approx(0.35)
    # with the out-of-sector level known to sit higher, p carries no cost
    assert lower_bound_unknown_gap(
        -1.6, -2.0, -1.0, 0.25, 1.0, s1top_below=False
    ).raw == pytest.approx(0.6)
    with pytest.raises(ValueError, match="e0 < s1"):
        lower_bound_unknown_gap(-1.6, -1.0, -2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="lambda2"):
        lower_bound_unknown_gap(-1.6, -2.0, -1.0, 0.0, 0.0)


# ---- soundness against dense spectra ------------------------------------------


def _resolve_symmetry(w, v, pi_s):
    """Rotate degenerate eigenvector clusters to sector-pure combinations."""
    i = 0
    while i < len(w):
        j = i
        while j + 1 < len(w) and w[j + 1] - w[i] < 1e-9:
            j += 1
        if j > i:
            block = v[:, i : j + 1]
            _, rot = np.linalg.eigh(block.conj().T @ pi_s @ block)
            v[:, i : j + 1] = block @ rot
        i = j + 1
    weights = np.einsum("ji,jk,ki->i", v.conj(), pi_s, v).real
    return v, weights


def _spectral_fixture(seed):
    """Dense eigendecomposition of a random molecule, sector-classified.

    Returns None when the ground state is degenerate or not a singlet, so
    callers can skip seeds outside the theorems' assumptions.
    """
    rng = np.random.default_rng(seed)
    tensors = inst.random_restricted_integrals(3, rng)
    h = build_majorana_hamiltonian(tensors)
    h_dense = dense_operator(h)
    w, v = np.linalg.eigh(h_dense)
    if w[1] - w[0] < 1e-6:
        return None
    popcounts = np.array([bin(i).count("1") for i in range(w.size)])
    n0 = int(round(float(popcounts @ (np.abs(v[:, 0]) ** 2))))
    hp, lambda2, lambda_p = build_penalty_hamiltonian(6, n0)
    hp_dense = dense_operator(hp)
    wp, vp = np.linalg.eigh(hp_dense)
    null = vp[:, np.abs(wp) < 1e-8]
    pi_s = null @ null.conj().T
    v, weights = _resolve_symmetry(w, v, pi_s)
    if weights[0] < 1.0 - 1e-9:
        return None
    assert np.all((weights < 1e-7) | (weights > 1.0 - 1e-7))
    singlet = weights > 0.5
    s1_pos = np.nonzero(singlet[1:])[0]
    top_pos = np.nonzero(~singlet)[0]
    if s1_pos.size == 0 or top_pos.size == 0:
        return None
    return {
        "h": h_dense,
        "hp": hp_dense,
        "pi_s": pi_s,
        "w": w,
        "v": v,
        "e0": float(w[0]),
        "e1": float(w[1]),
        "s1": float(w[1:][singlet[1:]][0]),
        "s1_top": float(w[~singlet][0]),
        "vs": v[:, 1 + s1_pos[0]],
        "vt": v[:, top_pos[0]],
        "lambda2": lambda2,
        "lambda_p": lambda_p,
    }


def _trial_states(fx, rng):
    v0, vs, vt = fx["v"][:, 0], fx["vs"], fx["vt"]
    for x in (0.0, 0.25, 0.7):
        for y in (0.0, 0.15, 0.4):
            psi = v0 + x * vs + y * vt
            yield psi / np.linalg.norm(psi)
    for _ in range(4):
        noise = rng.normal(size=v0.size) + 1j * rng.normal(size=v0.size)
        psi = v0 + 0.3 * noise / np.linalg.norm(noise)
        yield psi / np.linalg.norm(psi)


def test_bounds_are_sound_and_ordered_on_dense_spectra():
    """Every floor stays below the true overlap, and the hierarchy holds:
    knowing more yields tighter bounds (exact leakage >= penalty bracket >=
    gap-free penalty)."""
    checks = violations = 0
    rng = np.random.default_rng(411)
    for seed in range(40, 64):
        fx = _spectral_fixture(seed)
        if fx is None:
            continue
        e0, e1, s1, s1_top = fx["e0"], fx["e1"], fx["s1"], fx["s1_top"]
        lambda2, lambda_p = fx["lambda2"], fx["lambda_p"]
        v0 = fx["v"][:, 0]
        for psi in _trial_states(fx, rng):
            overlap = float(abs(np.vdot(v0, psi)) ** 2)
            e = float(np.real(np.vdot(psi, fx["h"] @ psi)))
            p = max(0.0, float(np.real(np.vdot(psi, fx["hp"] @ psi))))
            alpha_sq = min(1.0, max(0.0, 1.0 - float(np.real(np.vdot(psi, fx["pi_s"] @ psi)))))

            results = []
            if e0 < e < e1:
                results.append(lower_bound_simple(e, e0, e1))
            if e0 < e < s1:
                thm2 = lower_bound_known_alpha(e, e0, s1, s1_top, alpha_sq)
                thm4 = lower_bound_unknown_gap(
                    e, e0, s1, p, lambda2, s1top_below=s1_top < s1
                )
                results += [thm2, thm4]
                if p <= lambda2:
                    thm3 = lower_bound_penalty(
                        SpectralData(e0, s1, s1_top, lambda2, lambda_p, p, e)
                    )
                    results.append(thm3)
                    # exact leakage beats the penalty bracket beats no gap info
                    assert thm2.raw >= thm3.raw - 1e-9
                    assert thm3.raw >= thm4.raw - 1e-9
                if s1_top < s1 and e < s1_top:
                    # the sector-aware bound improves on the two-level one
                    assert thm2.raw >= lower_bound_simple(e, e0, s1_top).raw - 1e-9
            for bound in results:
                checks += 1
                if bound.raw > overlap + 1e-9:
                    violations += 1
    assert checks >= 120, f"only {checks} bound evaluations ran"
    assert violations == 0
