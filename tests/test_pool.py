"""Pool construction, orbit reduction, and both selection scorers."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import majprop.instances as inst
import majprop.surrogate as surrogate
from majprop import TruncationPolicy, expectation
from majprop.driver import init_active_rotations
from majprop.engine import (
    FermionicCircuit,
    Gate,
    propagate,
)
from majprop.hamiltonian import DressedHamiltonian, build_majorana_hamiltonian, ladder_product
from majprop.integrals import aufbau_occupation, parse_fcidump
from majprop.monomials import MajoranaMonomial
from majprop.operators import SparseOperator
from majprop.oracle import circuit_state, dense_expectation, dense_monomial
from majprop.pool import (
    Pool,
    PoolCandidate,
    SelectionScore,
    build_majoranic_pool,
    is_refresh_iteration,
    landscape_minima,
    landscape_minimum,
    probe_landscape,
    rank_candidates,
    reduce_pool_equivalence,
    score_pool_ggf,
    score_pool_gradient,
    single_excitation_monomials,
    trim_pool,
)
from majprop.surrogate import (
    build_surrogate,
    cut_landscapes,
    eval_energy,
    extend_surrogate,
)

N = 8
OCC = 0b00001111
FIXTURES = Path(__file__).parent / "fixtures"


def _empty_circuit(n_modes=N):
    return FermionicCircuit(n_modes, [], np.zeros(0))


def _extended_energy(h, circuit, theta, cand, angle, where, policy=None,
                     picture="heisenberg", occ=OCC):
    """Brute-force E(angle) with the candidate placed at one circuit end."""
    trial = circuit.copy()
    trial.params = np.append(theta, angle)
    at = 0 if where == "front" else len(trial)
    trial.gates[at:at] = cand.gates(slot=theta.size)
    return expectation(h, trial, occ, policy, picture, params=trial.params)


# ---- construction -----------------------------------------------------------


def test_pool_counts_at_reference_scale():
    pool = build_majoranic_pool(20, 10)
    assert pool.describe() == {
        "n_modes": 40,
        "singles": 200,
        "doubles": 14050,
        "total": 14250,
    }


def test_pool_counts_minimal():
    pool = build_majoranic_pool(2, 1)
    info = pool.describe()
    assert (info["singles"], info["doubles"], info["total"]) == (2, 1, 3)
    # the lone double excites both electrons of spatial 1 into spatial 2:
    # odd sites on modes 1..3, even site on mode 4
    double = [c for c in pool.candidates if not c.is_composite][0]
    assert double.generators == (0b10010101,)


def test_pool_empty_without_occupied_orbitals():
    assert len(build_majoranic_pool(3, 0)) == 0


def test_pool_sector_resolved_counts():
    pool = build_majoranic_pool(4, (2, 1))
    info = pool.describe()
    assert info["singles"] == 2 * 2 + 1 * 3
    # one aa pair (C(2,2)C(2,2)), no bb pairs, 4*3 opposite-spin
    assert info["doubles"] == 1 + 12
    labels = [c.label for c in pool.candidates]
    assert len(set(labels)) == len(labels)


def test_pool_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_spatial"):
        build_majoranic_pool(4, 3, n_virtual=3)
    with pytest.raises(ValueError, match="align"):
        PoolCandidate((0b0101,), (1, 1), "bad")
    with pytest.raises(ValueError, match="length 2 or 4"):
        PoolCandidate((0b111111,), (1,), "six sites")


def test_single_excitation_monomial_bits():
    odd, even = single_excitation_monomials(1, 2)
    assert (odd, even) == (0b0101, 0b1010)
    assert single_excitation_monomials(2, 1) == (odd, even)
    with pytest.raises(ValueError, match="distinct"):
        single_excitation_monomials(3, 3)


def test_single_excitation_pair_equals_ladder_exponential(rng):
    """exp(theta (a+_p a_q - a+_q a_p)) splits into two commuting rotations."""
    n = 4
    for _ in range(6):
        p, q = map(int, rng.choice(np.arange(1, n + 1), size=2, replace=False))
        lo, hi = sorted((p, q))
        theta = float(rng.uniform(-np.pi, np.pi))
        gen = {}
        for bits, coeff in ladder_product([(hi, True), (lo, False)]).items():
            gen[bits] = gen.get(bits, 0.0) + coeff
        for bits, coeff in ladder_product([(lo, True), (hi, False)]).items():
            gen[bits] = gen.get(bits, 0.0) - coeff
        g_dense = sum(
            coeff * dense_monomial(MajoranaMonomial(bits, n))
            for bits, coeff in gen.items()
        )
        direct = scipy.linalg.expm(theta * g_dense)
        # gate sign -1 on both rotations: exp(-i (-theta)/2 M_a) exp(-i (-theta)/2 M_b)
        a, b = single_excitation_monomials(lo, hi)
        split = scipy.linalg.expm(
            0.5j * theta * dense_monomial(MajoranaMonomial(a, n))
        ) @ scipy.linalg.expm(0.5j * theta * dense_monomial(MajoranaMonomial(b, n)))
        assert np.allclose(direct, split, atol=1e-12)
    # the pool stores exactly that convention
    single = build_majoranic_pool(2, 1).candidates[0]
    assert single.signs == (-1, -1)


def test_double_representative_lies_in_the_fermionic_expansion():
    """a+a+aa - h.c. expands over one-per-mode monomials with an odd number
    of odd sites; the pool representative is one of them."""
    n = 4
    modes = [1, 2, 3, 4]
    gen = {}
    for bits, coeff in ladder_product(
        [(3, True), (4, True), (2, False), (1, False)]
    ).items():
        gen[bits] = gen.get(bits, 0.0) + coeff
    for bits, coeff in ladder_product(
        [(1, True), (2, True), (4, False), (3, False)]
    ).items():
        gen[bits] = gen.get(bits, 0.0) - coeff
    survivors = {b for b, c in gen.items() if abs(c) > 1e-14}
    assert len(survivors) == 8
    odd_mask = 0b01010101
    for bits in survivors:
        assert bin(bits).count("1") == 4
        assert bin(bits & odd_mask).count("1") % 2 == 1
        assert abs(gen[bits].real) < 1e-14  # anti-Hermitian generator
    from majprop.pool import _double_representative

    assert _double_representative(modes) in survivors


# ---- orbit-equivalence reduction ---------------------------------------------


def _one_per_mode_variants(modes):
    out = []
    for pick in range(2 ** len(modes)):
        bits = 0
        for j, mode in enumerate(modes):
            site = 2 * (mode - 1) + ((pick >> j) & 1)
            bits |= 1 << site
        out.append(bits)
    return out


def test_reduction_keeps_one_representative_per_parity_class():
    variants = _one_per_mode_variants([1, 2, 3, 4])
    assert len(variants) == 16
    cands = [
        PoolCandidate((bits,), (1,), f"v{i}") for i, bits in enumerate(variants)
    ]
    reduced = reduce_pool_equivalence(Pool(N, cands))
    assert len(reduced) == 2
    # first occurrence of each parity wins: all-odd (v0) and one-even (v1)
    assert [c.label for c in reduced.candidates] == ["v0", "v1"]


def test_reduction_passes_composites_and_repeated_modes_through():
    a, b = single_excitation_monomials(1, 3)
    comp1 = PoolCandidate((a, b), (1, 1), "c1")
    comp2 = PoolCandidate((a, b), (1, -1), "c2")
    paired = PoolCandidate((0b1111,), (1,), "two sites on two modes")
    pool = Pool(N, [comp1, comp2, paired, comp1])
    reduced = reduce_pool_equivalence(pool)
    assert [c.label for c in reduced.candidates] == ["c1", "c2", "two sites on two modes"]


@pytest.mark.parametrize("n_spatial", range(2, 9))
def test_built_pools_hold_one_candidate_per_orbit(n_spatial):
    """Singles are composites and a double's four modes fix its
    occupied/virtual split, so the reduction keeps every built candidate."""
    for o in range(1, n_spatial):
        for occupied in ((o, o), (o, o - 1)):
            pool = build_majoranic_pool(n_spatial, occupied)
            assert reduce_pool_equivalence(pool).candidates == pool.candidates


def test_orbit_members_share_the_energy_improvement(rng):
    """All same-parity one-per-mode monomials move a Fock state identically
    up to the rotation direction, so their GGF scores coincide."""
    h = inst.random_molecular_hamiltonian(N, rng)
    variants = _one_per_mode_variants([1, 2, 5, 7])
    pool = Pool(N, [PoolCandidate((b,), (1,), f"v{i}") for i, b in enumerate(variants)])
    for occupation in (0b00001111, 0b01100101):
        graph = build_surrogate(h, _empty_circuit(), occupation)
        scores = score_pool_ggf(pool, graph, np.zeros(0), where="front")
        by_parity = {0: [], 1: []}
        odd_mask = 0b01010101
        for cand, s in zip(pool.candidates, scores):
            parity = bin(cand.generators[0] & odd_mask).count("1") % 2
            by_parity[parity].append(s)
        for members in by_parity.values():
            assert len(members) == 8
            ref = members[0]
            for s in members[1:]:
                assert s.score == pytest.approx(ref.score, abs=1e-10)
                assert abs(s.theta_star) == pytest.approx(
                    abs(ref.theta_star), abs=1e-10
                )


# ---- gradient scoring ---------------------------------------------------------


def test_gradient_score_is_the_derivative_heisenberg(rng):
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 5, rng)
    theta = rng.uniform(-1.0, 1.0, circuit.n_slots)
    evolved = propagate(h, circuit, "heisenberg", params=theta)
    pool = build_majoranic_pool(4, 2)
    graph = build_surrogate(evolved, _empty_circuit(), OCC)
    scores = score_pool_gradient(pool, graph, np.zeros(0))
    step = 1e-5
    for idx in (0, 3, 8, 9, 14, 25):
        plus = _extended_energy(h, circuit, theta, pool.candidates[idx], step, "front")
        minus = _extended_energy(h, circuit, theta, pool.candidates[idx], -step, "front")
        fd = (plus - minus) / (2 * step)
        assert scores[idx].score == pytest.approx(abs(fd), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_gradient_score_is_the_derivative_at_a_mid_cut(rng, picture):
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 6, rng)
    theta = rng.uniform(-1.0, 1.0, circuit.n_slots)
    pool = build_majoranic_pool(4, 2)
    graph = build_surrogate(h, circuit, OCC, None, picture)
    scores = score_pool_gradient(pool, graph, theta, where=3)
    step = 1e-5
    for idx in (0, 3, 8, 9, 14, 25):
        trial = _spliced(circuit, theta, pool.candidates[idx], 3)
        plus, minus = (
            expectation(h, trial, OCC, None, picture, params=np.append(theta, t))
            for t in (step, -step)
        )
        fd = (plus - minus) / (2 * step)
        assert scores[idx].score == pytest.approx(abs(fd), rel=1e-6, abs=1e-9)


def test_gradient_score_zero_for_commuting_generator():
    gamma = 0b01010101  # anticommutes with nothing even
    evolved = SparseOperator.from_arrays(
        N, np.array([0, gamma], dtype=np.uint64), np.array([0.3, 0.7])
    )
    pool = Pool(N, [PoolCandidate((int(gamma),), (1,), "self")])
    graph = build_surrogate(evolved, _empty_circuit(), OCC)
    scores = score_pool_gradient(pool, graph, np.zeros(0))
    assert scores[0].score == 0.0


def test_gradient_score_requires_matching_context(rng):
    """The pool must act on the graph's modes, and the angles must cover
    the graph's parameter slots."""
    h = inst.random_molecular_hamiltonian(N, rng)
    pool = build_majoranic_pool(4, 2)
    graph = build_surrogate(h, _empty_circuit(), OCC)
    with pytest.raises(ValueError, match="modes"):
        score_pool_gradient(build_majoranic_pool(5, 2), graph, np.zeros(0))
    graph = build_surrogate(h, inst.random_circuit(N, 3, rng), OCC)
    with pytest.raises(ValueError, match="params"):
        score_pool_gradient(pool, graph, np.zeros(0))


def test_gradient_scoring_respects_index_subset(rng):
    h = inst.random_molecular_hamiltonian(N, rng)
    pool = build_majoranic_pool(4, 2)
    graph = build_surrogate(h, _empty_circuit(), OCC)
    full = score_pool_gradient(pool, graph, np.zeros(0))
    part = score_pool_gradient(pool, graph, np.zeros(0), indices=[2, 7, 11])
    assert [s.index for s in part] == [2, 7, 11]
    for s in part:
        assert s.score == full[s.index].score


@pytest.mark.parametrize("where", ["front", 3])
def test_gradient_scores_carry_the_ggf_minimum(rng, where):
    """A gradient score carries the improvement and theta* that GGF scoring
    reports for the same candidate scored alone, bit for bit."""
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 6, rng)
    theta = rng.uniform(-1.0, 1.0, circuit.n_slots)
    pool = build_majoranic_pool(4, 2)
    graph = build_surrogate(h, circuit, OCC)
    for s in score_pool_gradient(pool, graph, theta, where):
        alone = score_pool_ggf(pool, graph, theta, where, [s.index])[0]
        assert (s.improvement, s.theta_star) == (alone.score, alone.theta_star)
        assert alone.improvement == alone.score


# ---- GGF scoring --------------------------------------------------------------


def _per_row_minimum(coeffs):
    """One row at a time, through np.roots: the reference for the batch."""
    _, a1, b1, a2, b2 = coeffs
    c1, c2 = a1 - 1j * b1, a2 - 1j * b2
    roots = np.roots([2 * c2, c1, 0.0, -np.conj(c1), -2 * np.conj(c2)])
    angles = np.append(0.0, np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6]))
    z = np.exp(1j * angles)
    values = (c1 * z + c2 * z * z).real
    lowest = values <= values.min() + 1e-12
    nearest = lowest & (np.abs(angles) <= np.abs(angles[lowest]).min() + 1e-9)
    best = np.flatnonzero(nearest)[np.argmax(angles[nearest])]
    return min(float(values[best] - values[0]), 0.0), float(angles[best])


def test_batched_landscape_minima_equal_the_per_row_roots(rng):
    """Random rows, rows without first or second harmonics, flat rows and
    rows whose minima tie at +-t or t and t + pi: the batch gives exactly
    what np.roots gives row by row."""
    rows = rng.normal(size=(240, 5))
    rows[:30, 1:3] = 0.0  # c1 = 0
    rows[30:60, 3:] = 0.0  # c2 = 0 (a single gate)
    rows[60:70, 1:] = 0.0  # flat
    rows[70:80, 1:] = rng.normal(scale=1e-13, size=(10, 4))  # flat to the tie rule
    rows[80:110, 2::2] = 0.0  # even in t: minima at +-t
    rows[110:140, 1:3] = rng.normal(scale=1e-15, size=(30, 2))  # pi-periodic to roundoff
    rows[140:170] = np.round(rows[140:170], 1)
    drops, stars = landscape_minima(rows)
    for row, drop, star in zip(rows, drops, stars):
        assert (drop, star) == _per_row_minimum(row)
        assert landscape_minimum(row) == (drop, star)


def test_ggf_single_monomial_landscape_is_a_sinusoid(rng):
    """Even on a truncated graph the single-gate landscape is exactly
    A sin(theta+B) + C, so the three-point fit reproduces every angle --
    also without paired acceptance, where the survivor mask drops partners."""
    for paired_accept in (None, False):
        h = inst.random_molecular_hamiltonian(N, rng)
        circuit = inst.random_circuit(N, 8, rng)
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        policy = TruncationPolicy(length_cutoff=4, paired_accept=paired_accept)
        graph = build_surrogate(h, circuit, OCC, policy)
        cand = PoolCandidate((int(inst.random_monomial_bits(N, 4, rng)),), (1,), "probe")
        pool = Pool(N, [cand])
        (score,) = score_pool_ggf(pool, graph, theta, where="front")

        e0 = eval_energy(graph, theta)
        ep = _extended_energy(h, circuit, theta, cand, np.pi / 2, "front", policy)
        em = _extended_energy(h, circuit, theta, cand, -np.pi / 2, "front", policy)
        c = 0.5 * (ep + em)
        a_sin, a_cos = e0 - c, 0.5 * (ep - em)
        for _ in range(10):
            t = float(rng.uniform(-np.pi, np.pi))
            fitted = c + a_sin * math.cos(t) + a_cos * math.sin(t)
            brute = _extended_energy(h, circuit, theta, cand, t, "front", policy)
            assert fitted == pytest.approx(brute, abs=1e-10)

        at_star = _extended_energy(h, circuit, theta, cand, score.theta_star, "front", policy)
        assert at_star == pytest.approx(e0 + score.score, abs=1e-10)
        grid = [
            _extended_energy(h, circuit, theta, cand, t, "front", policy)
            for t in np.linspace(-np.pi, np.pi, 201)
        ]
        assert at_star <= min(grid) + 1e-12
        assert score.score <= 0.0


def test_ggf_composite_landscape_has_two_harmonics(rng):
    for paired_accept in (None, False):
        h = inst.random_molecular_hamiltonian(N, rng)
        circuit = inst.random_circuit(N, 6, rng)
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        policy = TruncationPolicy(length_cutoff=4, paired_accept=paired_accept)
        graph = build_surrogate(h, circuit, OCC, policy)
        a, b = single_excitation_monomials(2, 4)
        cand = PoolCandidate((a, b), (1, 1), "single excitation")
        pool = Pool(N, [cand])
        (score,) = score_pool_ggf(pool, graph, theta, where="front")

        # pin the five harmonic coefficients from five brute-force energies
        probes = [0.0, np.pi / 2, -np.pi / 2, np.pi / 4, -np.pi / 4]
        rows = [
            [1.0, math.cos(t), math.sin(t), math.cos(2 * t), math.sin(2 * t)]
            for t in probes
        ]
        vals = [
            _extended_energy(h, circuit, theta, cand, t, "front", policy) for t in probes
        ]
        coeff = np.linalg.solve(np.array(rows), np.array(vals))
        for _ in range(10):
            t = float(rng.uniform(-np.pi, np.pi))
            fitted = float(
                coeff @ [1.0, math.cos(t), math.sin(t), math.cos(2 * t), math.sin(2 * t)]
            )
            brute = _extended_energy(h, circuit, theta, cand, t, "front", policy)
            assert fitted == pytest.approx(brute, abs=1e-10)

        e0 = eval_energy(graph, theta)
        at_star = _extended_energy(h, circuit, theta, cand, score.theta_star, "front", policy)
        assert at_star == pytest.approx(e0 + score.score, abs=1e-10)
        grid = [
            _extended_energy(h, circuit, theta, cand, t, "front", policy)
            for t in np.linspace(-np.pi, np.pi, 2001)
        ]
        assert at_star <= min(grid) + 1e-10


def test_ggf_flat_landscape_scores_zero():
    h = SparseOperator.from_arrays(
        N, np.array([0b1111], dtype=np.uint64), np.array([0.5])
    )
    graph = build_surrogate(h, _empty_circuit(), OCC)
    pool = Pool(N, [PoolCandidate((0b1111,), (1,), "commutes")])
    (score,) = score_pool_ggf(pool, graph, np.zeros(0))
    assert score.score == 0.0
    assert score.theta_star == 0.0


def test_ggf_back_placement_on_schrodinger_graph(rng):
    # paired_accept None resolves to off for states; on keeps long paired terms
    for paired_accept in (None, True):
        h = inst.random_molecular_hamiltonian(N, rng)
        circuit = inst.random_circuit(N, 4, rng)
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        policy = TruncationPolicy(length_cutoff=6, paired_accept=paired_accept)
        graph = build_surrogate(h, circuit, OCC, policy, "schrodinger")
        a, b = single_excitation_monomials(1, 3)
        pool = Pool(
            N,
            [
                PoolCandidate((a, b), (1, 1), "pair"),
                PoolCandidate((int(inst.random_monomial_bits(N, 4, rng)),), (1,), "mono"),
            ],
        )
        for score, cand in zip(
            score_pool_ggf(pool, graph, theta, where="back"), pool.candidates
        ):
            e0 = eval_energy(graph, theta)
            at_star = _extended_energy(
                h, circuit, theta, cand, score.theta_star, "back", policy, "schrodinger"
            )
            assert at_star == pytest.approx(e0 + score.score, abs=1e-10)
            assert score.score <= 0.0


def test_ggf_rebuild_placement_matches_brute_force(rng):
    """Scoring away from the natural end (Heisenberg + back, Schrodinger +
    front) probes rebuilt graphs and must agree with independent
    propagation."""
    for picture, where in (("heisenberg", "back"), ("schrodinger", "front")):
        h = inst.random_molecular_hamiltonian(N, rng)
        circuit = inst.random_circuit(N, 5, rng)
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        policy = TruncationPolicy(length_cutoff=4)
        graph = build_surrogate(h, circuit, OCC, policy, picture)
        a, b = single_excitation_monomials(2, 5)
        pool = Pool(
            N,
            [
                PoolCandidate((int(inst.random_monomial_bits(N, 4, rng)),), (1,), "mono"),
                PoolCandidate((a, b), (-1, -1), "pair"),
            ],
        )
        e0 = eval_energy(graph, theta)
        for score, cand in zip(
            score_pool_ggf(pool, graph, theta, where=where), pool.candidates
        ):
            at_star = _extended_energy(
                h, circuit, theta, cand, score.theta_star, where, policy, picture
            )
            assert at_star == pytest.approx(e0 + score.score, abs=1e-10)
            probe = _extended_energy(h, circuit, theta, cand, 0.8, where, policy, picture)
            assert probe >= e0 + score.score - 1e-10


def _random_candidates(rng, n_each=3):
    cands = [
        PoolCandidate((int(inst.random_monomial_bits(N, d, rng)),), (1,), f"m{d}")
        for d in (2, 4)
        for _ in range(n_each)
    ]
    for _ in range(n_each):
        p, q = rng.choice(np.arange(1, N + 1), size=2, replace=False)
        signs = tuple(int(x) for x in rng.choice([-1, 1], size=2))
        cands.append(PoolCandidate(single_excitation_monomials(p, q), signs, "s"))
    return cands


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_ggf_closed_form_matches_probed_graphs(rng, picture):
    """The closed-form landscape at the natural end equals the energies of
    the recorded extension: scores to 1e-12 and theta* to 1e-9 against the
    probe-and-fit route, and the coefficients reproduce a fresh build at
    random angles, with and without the survivor mask on partners."""
    where = "front" if picture == "heisenberg" else "back"
    for paired_accept in (None, False, True):
        for _ in range(3):
            h = inst.random_molecular_hamiltonian(N, rng)
            circuit = inst.random_circuit(N, 6, rng)
            theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
            occ = int(rng.integers(0, 1 << N))
            policy = TruncationPolicy(length_cutoff=4, paired_accept=paired_accept)
            graph = build_surrogate(h, circuit, occ, policy, picture)
            pool = Pool(N, _random_candidates(rng))
            slot = circuit.n_slots
            scores = score_pool_ggf(pool, graph, theta, where=where)
            natural_end = 0 if picture == "heisenberg" else len(graph.steps)
            coeffs = cut_landscapes(
                graph, theta, natural_end, [c.gates(slot) for c in pool.candidates]
            )
            e0 = eval_energy(graph, theta)
            for cand, score, row in zip(pool.candidates, scores, coeffs):
                extended = graph
                for gate in cand.gates(slot):
                    extended = extend_surrogate(extended, [gate], where)
                probed = probe_landscape(
                    lambda t: eval_energy(extended, np.append(theta, t)),
                    e0,
                    cand.is_composite,
                )
                ref_score, ref_star = landscape_minimum(probed)
                assert score.score == pytest.approx(ref_score, abs=1e-12)
                assert score.theta_star == pytest.approx(ref_star, abs=1e-9)
                trial = circuit.copy()
                trial.params = np.append(theta, 0.0)
                at = 0 if where == "front" else len(trial)
                trial.gates[at:at] = cand.gates(slot)
                fresh = build_surrogate(h, trial, occ, policy, picture)
                for t in rng.uniform(-np.pi, np.pi, 3):
                    model = row @ [1.0, np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)]
                    brute = eval_energy(fresh, np.append(theta, t))
                    assert model == pytest.approx(brute, abs=1e-12)


def test_ggf_front_composite_prefers_the_smaller_degenerate_angle(rng):
    """A composite acting on the Fock state has a pi-periodic landscape, so
    theta* and theta* +- pi tie; the tie must resolve to the smaller |theta|
    whatever roundoff leaves in the first harmonic."""
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 5, rng)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
    graph = build_surrogate(h, circuit, OCC)
    cand = PoolCandidate(single_excitation_monomials(2, 6), (1, 1), "occ->virt")
    (score,) = score_pool_ggf(Pool(N, [cand]), graph, theta, where="front")
    assert score.score < -1e-6
    assert abs(score.theta_star) <= 0.5 * np.pi
    at_star = _extended_energy(h, circuit, theta, cand, score.theta_star, "front")
    shifted = score.theta_star - math.copysign(np.pi, score.theta_star)
    at_shifted = _extended_energy(h, circuit, theta, cand, shifted, "front")
    assert at_shifted == pytest.approx(at_star, abs=1e-12)
    assert at_star == pytest.approx(eval_energy(graph, theta) + score.score, abs=1e-10)
    (row,) = cut_landscapes(graph, theta, 0, [cand.gates(circuit.n_slots)])
    assert max(abs(row[1]), abs(row[2])) < 1e-12
    for da, db in rng.normal(scale=1e-15, size=(20, 2)):
        noisy = row + np.array([0.0, da, db, 0.0, 0.0])
        assert landscape_minimum(noisy)[1] == pytest.approx(score.theta_star, abs=1e-9)


def _spliced(circuit, theta, cand, cut):
    trial = circuit.copy()
    trial.params = np.append(theta, 0.0)
    trial.gates[cut:cut] = cand.gates(slot=theta.size)
    return trial


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_ggf_scores_at_any_cut_match_probed_fresh_builds(rng, picture):
    """Closed-form landscapes at the front, mid-body and back equal
    probe-and-fit on a fresh build of the circuit with the candidate spliced
    in at the cut (scores to 1e-12, theta* to 1e-9), for every cutoff and
    paired-acceptance rule, singles and composites."""
    for cutoff in (None, 4, 6):
        for paired_accept in (None, False, True):
            h = inst.random_molecular_hamiltonian(N, rng)
            circuit = inst.random_circuit(N, 6, rng)
            theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
            occ = int(rng.integers(0, 1 << N))
            policy = TruncationPolicy(length_cutoff=cutoff, paired_accept=paired_accept)
            graph = build_surrogate(h, circuit, occ, policy, picture)
            pool = Pool(N, _random_candidates(rng, n_each=2))
            e0 = eval_energy(graph, theta)
            for where, cut in (("front", 0), (3, 3), ("back", len(circuit))):
                scores = score_pool_ggf(pool, graph, theta, where=where)
                for score, cand in zip(scores, pool.candidates):
                    fresh = build_surrogate(
                        h, _spliced(circuit, theta, cand, cut), occ, policy, picture
                    )
                    probed = probe_landscape(
                        lambda t: eval_energy(fresh, np.append(theta, t)),
                        e0,
                        cand.is_composite,
                    )
                    ref_score, ref_star = landscape_minimum(probed)
                    assert score.score == pytest.approx(ref_score, abs=1e-12)
                    assert score.theta_star == pytest.approx(ref_star, abs=1e-9)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_mid_body_landscape_matches_the_dense_oracle(rng, picture):
    """H4 exact: the landscape of a candidate placed inside the body, or
    between the body and the active rotations, reproduces dense statevector
    energies."""
    tensors = parse_fcidump((FIXTURES / "h4_chain_r20.fcidump").read_text())
    h = build_majorana_hamiltonian(tensors)
    occ = aufbau_occupation(tensors.n_electrons)
    rotations, n_rot, _ = init_active_rotations(tensors.n_spatial)
    pool = build_majoranic_pool(tensors.n_spatial, 2)
    body = [g for c in pool.candidates[::9] for g in c.gates(slot=n_rot)]
    body = [Gate(g.generator, n_rot + k, g.sign) for k, g in enumerate(body)]
    circuit = FermionicCircuit(h.n_modes, body + rotations, np.zeros(n_rot + len(body)))
    theta = rng.uniform(-0.5, 0.5, circuit.n_slots)
    graph = build_surrogate(h, circuit, occ, None, picture)
    cands = [pool.candidates[1], pool.candidates[-1]]  # a single and a double
    for cut in (2, len(body)):
        rows = cut_landscapes(graph, theta, cut, [c.gates(theta.size) for c in cands])
        for cand, row in zip(cands, rows):
            trial = _spliced(circuit, theta, cand, cut)
            for t in rng.uniform(-np.pi, np.pi, 5):
                psi = circuit_state(
                    trial.rotation_sequence(np.append(theta, t)), occ, h.n_modes
                )
                model = row @ [1.0, np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)]
                assert model == pytest.approx(dense_expectation(h, psi), abs=1e-10)


@functools.lru_cache(maxsize=None)
def _dressed_system(name):
    """(dressed Hamiltonian, rotation slots, occupation, pool) of the H4
    fixture or the 20-mode instance of c12, as the driver sets them up."""
    if name == "h4":
        tensors = parse_fcidump((FIXTURES / "h4_chain_r20.fcidump").read_text())
    else:
        tensors = inst.random_restricted_integrals(10, np.random.default_rng(120), n_electrons=10)
    _, n_rot, spec = init_active_rotations(tensors.n_spatial)
    pool = build_majoranic_pool(tensors.n_spatial, tensors.n_electrons // 2)
    return DressedHamiltonian(tensors, spec), n_rot, aufbau_occupation(tensors.n_electrons), pool


def _dressed_graph(name, body, picture, cutoff, rng):
    """Graph of a body of pool candidates against the dressed Hamiltonian,
    and random angles for its rotation and body slots."""
    dressed, n_rot, occ, pool = _dressed_system(name)
    gates = [g for k, c in enumerate(body) for g in pool.candidates[c].gates(n_rot + k)]
    circuit = FermionicCircuit(dressed.n_modes, gates, np.zeros(n_rot + len(body)))
    theta = rng.uniform(-0.3, 0.3, circuit.n_slots)
    policy = TruncationPolicy(length_cutoff=cutoff)
    return build_surrogate(dressed, circuit, occ, policy, picture), theta, policy


def _far_weights_sizes(monkeypatch):
    """Sizes of the key sets ``cut_landscapes`` records the far half from."""
    sizes = []
    record = surrogate._far_weights

    def spy(graph, params, coeffs, keys, gates):
        sizes.append(keys.size)
        return record(graph, params, coeffs, keys, gates)

    monkeypatch.setattr(surrogate, "_far_weights", spy)
    return sizes


def test_twenty_mode_back_cut_matches_probed_fresh_builds(rng):
    """c12's 20-mode instance at cutoff 4 with a one-gate body: candidates
    inserted at the Heisenberg back cut, where the far half is the body,
    score as probe-and-fit on fresh builds with the candidate spliced in
    (scores to 1e-12, theta* to 1e-9), singles and doubles alike."""
    graph, theta, policy = _dressed_graph("m20", [300], "heisenberg", 4, rng)
    dressed, _, occ, pool = _dressed_system("m20")
    cands = pool.candidates[:50:10] + pool.candidates[50::120]
    assert sum(c.is_composite for c in cands) == 5 and len(cands) == 12
    scores = score_pool_ggf(Pool(pool.n_modes, cands), graph, theta, where="back")
    e0 = eval_energy(graph, theta)
    for score, cand in zip(scores, cands):
        body = FermionicCircuit(graph.n_modes, graph.gates, theta)
        fresh = build_surrogate(
            dressed, _spliced(body, theta, cand, len(body)), occ, policy, "heisenberg"
        )
        probed = probe_landscape(
            lambda t: eval_energy(fresh, np.append(theta, t)), e0, cand.is_composite
        )
        ref_score, ref_star = landscape_minimum(probed)
        assert score.score == pytest.approx(ref_score, abs=1e-12)
        assert score.theta_star == pytest.approx(ref_star, abs=1e-9)


def test_twenty_mode_back_cut_records_the_far_half_from_fewer_keys_than_the_layer(
    rng, monkeypatch
):
    """Away from the natural end the far half is recorded once, from the
    endpoints of the paths whose pairing defect the far gates can still
    cancel: fewer keys than the live layer at c12's back cut."""
    graph, theta, _ = _dressed_graph("m20", [300], "heisenberg", 4, rng)
    _, _, _, pool = _dressed_system("m20")
    sizes = _far_weights_sizes(monkeypatch)
    cut_landscapes(graph, theta, "back", [c.gates(theta.size) for c in pool.candidates])
    live = np.count_nonzero(graph.hamiltonian.linearize(theta)[0])
    assert len(sizes) == 1 and 0 < sizes[0] < live


def test_schrodinger_natural_end_records_only_the_weighed_keys(rng, monkeypatch):
    """At the Schrodinger natural end the far half is empty and only the
    Hamiltonian's weighed keys are looked up: no more keys than it weighs."""
    graph, theta, _ = _dressed_graph("h4", [3, 17, 9], "schrodinger", None, rng)
    _, _, _, pool = _dressed_system("h4")
    sizes = _far_weights_sizes(monkeypatch)
    cut_landscapes(graph, theta, "back", [c.gates(theta.size) for c in pool.candidates])
    weighed = np.count_nonzero(graph.hamiltonian.linearize(theta)[0])
    assert len(sizes) == 1 and 0 < sizes[0] <= weighed


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("cutoff", [None, 4, 6])
def test_landscape_rows_do_not_depend_on_the_chunk_size(rng, monkeypatch, picture, cutoff):
    """H4 against the dressed Hamiltonian: every landscape row is bit-identical
    whether the cosine table and the path walk take the default chunks or
    chunks of at most 5 entries (one row at a time), at the front, inside
    the body and at the back."""
    graph, theta, _ = _dressed_graph("h4", [3, 17, 9], picture, cutoff, rng)
    _, _, _, pool = _dressed_system("h4")
    cuts = ("front", len(graph.gates) // 2, "back")
    rows = [surrogate.landscape_rows(graph, theta, where, pool.generators, pool.signs)
            for where in cuts]
    monkeypatch.setattr(surrogate, "_BLOCK", 5)
    for where, expected in zip(cuts, rows):
        chunked = surrogate.landscape_rows(graph, theta, where, pool.generators, pool.signs)
        assert chunked.tobytes() == expected.tobytes()
        gate_sets = [c.gates(theta.size) for c in pool.candidates]
        assert cut_landscapes(graph, theta, where, gate_sets).tobytes() == expected.tobytes()


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("cutoff", [None, 4])
def test_landscape_rows_do_not_depend_on_the_block_size(rng, monkeypatch, picture, cutoff):
    """A random 8-mode graph scored with the 4-orbital pool: the rows at
    the front, inside the body and at the back are equal with ``_BLOCK``
    at its default, 2^6 (many chunks everywhere) and 2^18 (one chunk even
    for the exact Schrodinger front's 2e5 paths), since every pattern of a
    row sums in one chunk."""
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 12, rng)
    graph = build_surrogate(h, circuit, OCC, TruncationPolicy(length_cutoff=cutoff), picture)
    pool = build_majoranic_pool(N // 2, 2)
    cuts = ("front", len(circuit) // 2, "back")

    def rows():
        return [surrogate.landscape_rows(graph, circuit.params, where, pool.generators, pool.signs)
                for where in cuts]

    expected = rows()
    for block in (1 << 6, 1 << 18):
        monkeypatch.setattr(surrogate, "_BLOCK", block)
        for got, want in zip(rows(), expected):
            assert np.array_equal(got, want)


def test_the_pool_is_shared_and_read_only():
    """The same arguments give the same pool object: an immutable tuple of
    candidates whose generator and sign arrays refuse writes."""
    pool = build_majoranic_pool(4, 2)
    assert build_majoranic_pool(4, 2) is pool
    assert isinstance(pool.candidates, tuple)
    assert pool.generators.shape == pool.signs.shape == (len(pool), 2)
    for array in (pool.generators, pool.signs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_three_gate_sets_are_refused_through_both_doors(rng):
    """Landscapes are resolved for gate pairs: a three-gate candidate is
    refused when a pool lays out its arrays, and a three-gate set when
    ``cut_landscapes`` scores it."""
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 3, rng)
    graph = build_surrogate(h, circuit, OCC)
    triple = PoolCandidate((0b0011, 0b1100, 0b110000), (1, 1, -1), "triple")
    with pytest.raises(ValueError, match="at most two gates"):
        score_pool_ggf(Pool(N, [triple]), graph, circuit.params)
    with pytest.raises(ValueError, match="at most two gates"):
        cut_landscapes(graph, circuit.params, "front", [triple.gates(circuit.n_slots)])


def test_ggf_rejects_a_cut_outside_the_circuit(rng):
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, 3, rng)
    graph = build_surrogate(h, circuit, OCC)
    pool = Pool(N, _random_candidates(rng, n_each=1))
    for where in (-1, len(circuit) + 1, "middle"):
        with pytest.raises(ValueError):
            score_pool_ggf(pool, graph, circuit.params, where=where)


# ---- trimming and ranking ------------------------------------------------------


def test_refresh_schedule():
    assert [it for it in range(1, 10) if is_refresh_iteration(it, 3)] == [1, 3, 6, 9]
    assert all(is_refresh_iteration(it, 1) for it in range(1, 5))


def test_rank_candidates_breaks_ties_by_index():
    scores = [
        SelectionScore(0, 0.5),
        SelectionScore(1, 0.9),
        SelectionScore(2, 0.9),
        SelectionScore(3, 0.1),
    ]
    assert [s.index for s in rank_candidates(scores)] == [1, 2, 0, 3]
    neg = [SelectionScore(s.index, -s.score) for s in scores]
    assert [s.index for s in rank_candidates(neg, larger_is_better=False)] == [
        1, 2, 0, 3,
    ]
    # roundoff-level differences are ties too: the lower index still leads
    near = [SelectionScore(4, -0.25 - 4e-16), SelectionScore(2, -0.25), SelectionScore(7, -0.3)]
    assert [s.index for s in rank_candidates(near, larger_is_better=False)] == [7, 2, 4]


def test_trim_pool_semantics():
    scores = [
        SelectionScore(0, 0.5),
        SelectionScore(1, 0.9),
        SelectionScore(2, 0.9),
        SelectionScore(3, 0.1),
    ]
    assert trim_pool(scores, 2, kappa=5, iteration=1) == [1, 2]
    # between refreshes the active set passes through untouched
    assert trim_pool(scores[1:3], 2, kappa=5, iteration=3) == [1, 2]
    # tau at or above the pool size keeps everything
    assert trim_pool(scores, 10, kappa=5, iteration=5) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="tau_keep"):
        trim_pool(scores, 0, kappa=5, iteration=1)

