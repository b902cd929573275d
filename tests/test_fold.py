"""The active-rotation block folded into the Hamiltonian, against its gates.

A graph of the body alone against the dressed Hamiltonian H(theta_rot) must
give the energy, gradient and scores of a graph that records the rotation
gates after the body, as the driver's circuit holds them.
"""

import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from majprop import FermionicCircuit, TruncationPolicy, _kernels, hamiltonian
from majprop.driver import init_active_rotations
from majprop.hamiltonian import (
    DressedHamiltonian,
    build_majorana_hamiltonian,
    integral_map,
    ladder_terms,
    spin_orbital_mode,
)
from majprop.integrals import (
    aufbau_occupation,
    dress_integrals,
    index_symmetries,
    parse_fcidump,
    rotation_matrix,
)
from majprop.pool import build_majoranic_pool
from majprop.surrogate import (
    build_surrogate,
    cut_landscapes,
    eval_energy,
    eval_energy_and_gradient,
    extend_surrogate,
    _sweep_gradient,
)
from test_hamiltonian import _random_unrestricted

FIXTURES = Path(__file__).parent / "fixtures"


def _h4():
    return parse_fcidump((FIXTURES / "h4_chain_r20.fcidump").read_text())


def _systems(rng):
    """Restricted H4 integrals and random UHF integrals on three orbitals."""
    uhf = _random_unrestricted(rng, 3)
    uhf.n_electrons = 4
    return {"restricted": _h4(), "uhf": uhf}


def _body(tensors, n_rot_slots, n_gates, rng):
    """Random pool candidates on the slots after the rotation block."""
    n = tensors.n_spatial
    half = tensors.n_electrons // 2
    pool = build_majoranic_pool(n, (half, half))
    picks = rng.choice(len(pool), n_gates, replace=False)
    gates = []
    for k, index in enumerate(picks):
        gates += pool.candidates[index].gates(n_rot_slots + k)
    return gates


def _pair(tensors, sharing, body, picture, cutoff, paired_accept=None):
    """The folded graph of the body and the gate graph of body + rotations."""
    rot_gates, n_rot, spec = init_active_rotations(tensors.n_spatial, sharing)
    n_slots = n_rot + len({g.slot for g in body})
    occ = aufbau_occupation(tensors.n_electrons)
    policy = TruncationPolicy(length_cutoff=cutoff, paired_accept=paired_accept)
    n_modes = 2 * tensors.n_spatial
    folded = build_surrogate(
        DressedHamiltonian(tensors, spec),
        FermionicCircuit(n_modes, list(body), np.zeros(n_slots)), occ, policy, picture,
    )
    gated = build_surrogate(
        build_majorana_hamiltonian(tensors),
        FermionicCircuit(n_modes, list(body) + rot_gates, np.zeros(n_slots)), occ, policy,
        picture,
    )
    return folded, gated, n_slots


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
@pytest.mark.parametrize("system", ["restricted", "uhf"])
def test_folded_energy_and_gradient_match_the_rotation_gates(rng, picture, sharing, system):
    """At random angles, every cutoff and paired-acceptance rule, over the
    pruned and the full sweep, without writing to the graph."""
    tensors = _systems(rng)[system]
    for cutoff, paired_accept in ((None, None), (4, None), (4, True), (4, False), (6, None)):
        _, n_rot, _ = init_active_rotations(tensors.n_spatial, sharing)
        body = _body(tensors, n_rot, 3, rng)
        folded, gated, n_slots = _pair(tensors, sharing, body, picture, cutoff, paired_accept)
        assert len(folded.steps) == len(body)
        before = pickle.dumps(folded)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, n_slots)
            energy, grad = eval_energy_and_gradient(folded, theta)
            ref_energy, ref_grad = eval_energy_and_gradient(gated, theta)
            assert energy == pytest.approx(ref_energy, abs=1e-10)
            assert eval_energy(folded, theta) == pytest.approx(ref_energy, abs=1e-10)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)
            full_energy, full_grad = _sweep_gradient(folded, folded, theta)  # unpruned
            assert full_energy == pytest.approx(ref_energy, abs=1e-10)
            np.testing.assert_allclose(full_grad, ref_grad, rtol=0, atol=1e-10)
        assert pickle.dumps(folded) == before


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("placement", ["front", "back"])
def test_folded_scores_and_insertions_match_the_rotation_gates(rng, picture, placement):
    """Landscapes of pool candidates at the front or at the body's end, and
    the graphs after inserting one there, equal those of the gate graph at
    the same cut; the folded insertion equals a fresh folded build."""
    for system, tensors in _systems(rng).items():
        for sharing in ("restricted", "unrestricted"):
            _, n_rot, spec = init_active_rotations(tensors.n_spatial, sharing)
            body = _body(tensors, n_rot, 2, rng)
            folded, gated, n_slots = _pair(tensors, sharing, body, picture, 4)
            theta = rng.uniform(-np.pi, np.pi, n_slots)
            half = tensors.n_electrons // 2
            pool = build_majoranic_pool(tensors.n_spatial, (half, half))
            gate_sets = [cand.gates(n_slots) for cand in pool.candidates]
            cut = 0 if placement == "front" else len(body)
            rows = cut_landscapes(folded, theta, placement, gate_sets)
            ref = cut_landscapes(gated, theta, cut, gate_sets)
            np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-10)

            gates = gate_sets[int(rng.integers(len(gate_sets)))]
            grown, grown_ref = (
                extend_surrogate(folded, gates, placement), extend_surrogate(gated, gates, cut)
            )
            circuit = FermionicCircuit(grown.n_modes, grown.gates, np.zeros(n_slots + 1))
            fresh = build_surrogate(
                folded.hamiltonian, circuit, folded.occupation, folded.policy, picture
            )
            assert np.array_equal(grown.final_keys, fresh.final_keys)
            assert np.array_equal(grown.sink, fresh.sink)
            theta = np.append(theta, rng.uniform(-np.pi, np.pi))
            energy, grad = eval_energy_and_gradient(grown, theta)
            assert energy == eval_energy_and_gradient(fresh, theta)[0]
            ref_energy, ref_grad = eval_energy_and_gradient(grown_ref, theta)
            assert energy == pytest.approx(ref_energy, abs=1e-10), (system, sharing)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
@pytest.mark.parametrize("system", ["restricted", "uhf"])
def test_dressed_coefficients_match_the_dressed_integrals(rng, sharing, system):
    """The map applied to rotated integrals equals the Hamiltonian of
    ``dress_integrals`` on every key, zero where that one has no term."""
    tensors = _systems(rng)[system]
    _, n_rot, spec = init_active_rotations(tensors.n_spatial, sharing)
    dressed = DressedHamiltonian(tensors, spec)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, n_rot)
        ref = build_majorana_hamiltonian(
            dress_integrals(tensors, [(p, q, theta[slot], s) for p, q, s, slot in spec])
        )
        at = np.searchsorted(dressed.keys, ref.keys)
        assert np.array_equal(dressed.keys[at], ref.keys)
        expected = np.zeros(dressed.keys.size)
        expected[at] = ref.coeffs
        np.testing.assert_allclose(dressed.linearize(theta)[0], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
@pytest.mark.parametrize("system", ["restricted", "uhf"])
def test_rotation_pullback_matches_central_differences(rng, sharing, system):
    tensors = _systems(rng)[system]
    _, n_rot, spec = init_active_rotations(tensors.n_spatial, sharing)
    dressed = DressedHamiltonian(tensors, spec)
    theta = rng.uniform(-np.pi, np.pi, n_rot + 2)  # body slots get nothing
    dcoeffs = rng.normal(size=dressed.keys.size)
    grad = dressed.linearize(theta)[1](dcoeffs)
    step = 1e-6
    for k in range(theta.size):
        shift = np.zeros(theta.size)
        shift[k] = step
        up, down = (dcoeffs @ dressed.linearize(theta + s)[0] for s in (shift, -shift))
        assert grad[k] == pytest.approx((up - down) / (2 * step), abs=1e-7)
    assert not grad[n_rot:].any()


def test_integral_map_covers_every_conserving_key():
    """The map's rows are the identity and every spin- and number-conserving
    one- and two-body key (H4: 361), whatever the integral values."""
    shared = integral_map(4, True)
    assert shared.keys.size == 361
    assert np.array_equal(integral_map(4, False).keys, shared.keys)
    assert build_majorana_hamiltonian(_h4()).keys.size < 361


def test_integral_map_refuses_integrals_it_cannot_read(rng):
    """A shared map reads restricted integrals only, and every map needs the
    integrals' index symmetry, since it reads one entry per orbit."""
    uhf = _systems(rng)["uhf"]
    with pytest.raises(ValueError, match="cannot read"):
        integral_map(3, True).entries(uhf)
    with pytest.raises(ValueError, match="cannot read"):
        integral_map(4, False).entries(uhf)
    lopsided = _h4()
    lopsided.h1 = lopsided.h1 + np.triu(np.ones((4, 4)), 1)
    with pytest.raises(ValueError, match="symmetry"):
        build_majorana_hamiltonian(lopsided)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
def test_pruned_sweep_reads_only_its_rows_of_the_map(rng, picture, sharing):
    """The pruned sweep's dressed Hamiltonian holds only the map rows of the
    keys it weighs, and gives energies and gradients equal to the same sweep
    with the whole map."""
    tensors = _h4()
    _, n_rot, _ = init_active_rotations(tensors.n_spatial, sharing)
    body = _body(tensors, n_rot, 3, rng)
    folded, _, n_slots = _pair(tensors, sharing, body, picture, 4)
    pruned, full = folded.pruned, folded.hamiltonian
    assert pruned.hamiltonian.keys.size < full.keys.size
    rows = np.searchsorted(full.keys, pruned.hamiltonian.keys)
    assert np.array_equal(full.keys[rows], pruned.hamiltonian.keys)
    whole = replace(pruned, hamiltonian=full, ham_of=rows[pruned.ham_of])
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, n_slots)
        energy, grad = _sweep_gradient(folded, whole, theta)
        assert eval_energy(folded, theta) == energy
        assert eval_energy_and_gradient(folded, theta)[0] == energy
        assert np.array_equal(eval_energy_and_gradient(folded, theta)[1], grad)
        assert np.array_equal(pruned.hamiltonian.linearize(theta)[0], full.linearize(theta)[0][rows])


def test_rotation_trail_holds_the_prefix_products(rng):
    """Each rotation leaves the columns (lower, higher orbital) of the
    product of explicit plane rotations up to it, in either orientation."""
    n = 6
    pairs = [tuple(rng.choice(n, 2, replace=False)) for _ in range(20)]
    angles = rng.uniform(-np.pi, np.pi, len(pairs))
    trail = np.empty((len(pairs), 2, n))
    v = rotation_matrix(n, pairs, angles, trail)
    prefix = np.eye(n)
    for (p, q), theta, cols in zip(pairs, angles, trail):
        plane = np.eye(n)
        plane[p, p] = plane[q, q] = np.cos(theta)
        plane[q, p], plane[p, q] = np.sin(theta), -np.sin(theta)
        prefix = prefix @ plane
        np.testing.assert_allclose(cols, prefix[:, sorted((p, q))].T, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, prefix, rtol=0, atol=1e-15)
    assert np.array_equal(rotation_matrix(n, pairs, angles), v)


@pytest.mark.parametrize(
    "row, match",
    [((2, 2, "alpha", 0), "distinct"), ((1, 7, "alpha", 0), "outside"),
     ((0, 1, "beta", 0), "outside"), ((1, 2, "gamma", 0), "sector"),
     ((1, 2, "alpha", -1), "slot")],
)
def test_dressed_hamiltonian_refuses_bad_rotations(row, match):
    """A rotation spec row that ``dress_integrals`` would refuse, or one on
    a negative slot, fails at construction, not at the first evaluation."""
    _, _, spec = init_active_rotations(4, "restricted")
    with pytest.raises(ValueError, match=match):
        DressedHamiltonian(_h4(), spec + [row])


def _every_tuple_map(n, shared):
    """Keys and matrix of the integral map with every index tuple expanded
    (a same-spin (ij|kl) and (kl|ij) once, weighted by 2), the reference the
    conjugate-pair build must reproduce bit for bit."""
    mode = {s: np.array([spin_orbital_mode(p, sector, n) for p in range(1, n + 1)])
            for s, sector in (("a", "alpha"), ("b", "beta"))}
    if shared:
        layout = [("a", [("a", 1.0), ("b", 1.0)]),
                  ("aa", [("aa", 0.5), ("bb", 0.5), ("ab", 1.0)])]
    else:
        layout = [("a", [("a", 1.0)]), ("b", [("b", 1.0)]), ("aa", [("aa", 0.5)]),
                  ("bb", [("bb", 0.5)]), ("ab", [("ab", 1.0)])]
    keys, values, columns = [np.zeros(1, np.uint64)], [np.ones(1, complex)], [np.zeros(1, int)]
    start = 1
    for name, uses in layout:
        dims = (n,) * 2 * len(name)
        idx = np.indices(dims).reshape(len(dims), -1).T
        orbit = np.minimum.reduce([
            np.ravel_multi_index(idx[:, list(perm)].T, dims)
            for perm in index_symmetries(name)
        ])
        reps, col = np.unique(orbit, return_inverse=True)
        for spins, weight in uses:
            m1, m2 = mode[spins[0]], mode[spins[-1]]
            at, where, weights = idx, col, np.full(len(idx), weight)
            if len(dims) == 4 and spins[0] == spins[1]:
                first, second = idx[:, :2] @ [n, 1], idx[:, 2:] @ [n, 1]
                once = first <= second
                at, where = idx[once], col[once]
                weights = np.where(first < second, 2.0, 1.0)[once] * weight
            if len(dims) == 2:
                modes, daggers = m1[at], (True, False)
            else:
                i, j, k, l = at.T
                modes = np.stack([m1[i], m2[k], m2[l], m1[j]], axis=1)
                daggers = (True, True, False, False)
            term_keys, term_values = ladder_terms(modes, daggers, weights)
            keys.append(term_keys)
            values.append(term_values)
            columns.append(np.repeat(where + start, 1 << len(daggers)))
        start += reps.size
    keys, values, columns = (np.concatenate(x) for x in (keys, values, columns))
    uniq, rows = np.unique(keys, return_inverse=True)
    matrix = scipy.sparse.csr_array((values, (rows, columns)), shape=(uniq.size, start))
    matrix.sum_duplicates()
    assert np.abs(matrix.data.imag).max() <= 1e-12
    matrix = matrix.real
    matrix.eliminate_zeros()
    live = np.diff(matrix.indptr) > 0
    return uniq[live], matrix[live]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_integral_map_equals_the_every_tuple_expansion(n, shared):
    """Expanding one tuple per conjugate orbit gives the keys and entries of
    expanding every tuple, bit for bit and in CSR order."""
    keys, matrix = _every_tuple_map(n, shared)
    built = integral_map(n, shared)
    assert np.array_equal(built.keys, keys)
    assert np.array_equal(built.rows, np.repeat(np.arange(keys.size), np.diff(matrix.indptr)))
    assert np.array_equal(built.columns, matrix.indices)
    assert np.array_equal(built.values, matrix.data)
    assert built.n_columns == matrix.shape[1]


def _csr(mapping):
    """The map as a canonical scipy CSR matrix, read off its entries."""
    indptr = np.append(0, np.cumsum(np.bincount(mapping.rows, minlength=mapping.keys.size)))
    return scipy.sparse.csr_array(
        (mapping.values, mapping.columns, indptr), shape=(mapping.keys.size, mapping.n_columns)
    )


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("n", range(1, 11))
def test_map_products_keep_the_csr_bits(rng, n, shared):
    """Both products of the map, full and restricted to sorted random rows,
    equal scipy's CSR products bit for bit: ``np.bincount`` adds each row's
    and each column's terms in the order the CSR kernels add them."""
    mapping = integral_map(n, shared)
    matrix = _csr(mapping)
    assert matrix.has_canonical_format
    for _ in range(3):
        rows = np.sort(rng.choice(mapping.keys.size, rng.integers(mapping.keys.size + 1),
                                  replace=False))
        for part, reference in ((mapping, matrix), (mapping.restrict(rows), matrix[rows])):
            x = rng.normal(size=mapping.n_columns)
            d = rng.normal(size=part.keys.size)
            assert np.array_equal(part.apply(x), reference @ x)
            assert np.array_equal(part.apply_transpose(d), reference.T.tocsr() @ d)
        assert np.array_equal(mapping.restrict(rows).keys, mapping.keys[rows])


def _csr_linearize(dressed, matrix, params):
    """:meth:`DressedHamiltonian.linearize` with the map as the CSR
    ``matrix`` (and its transpose) and the slot scatter by ``np.add.at``,
    the reference its bincount products must match bit for bit."""
    params = np.asarray(params, dtype=np.float64)
    n = dressed.tensors.n_spatial
    v, trails = {}, {}
    for spin, (pairs, slots, _) in dressed._rotations.items():
        trails[spin] = np.empty((len(pairs), 2, n))
        v[spin] = rotation_matrix(n, pairs, params[slots], trails[spin])
    v.setdefault("b", v["a"])
    parts, partials = [dressed._core], []
    for block, h, _ in dressed._blocks:
        spins = hamiltonian._index_spins(block.spins)
        dressed_h, partial = hamiltonian._transform(h, [v[spin] for spin in spins])
        parts.append(dressed_h.ravel()[block.last])
        partials.append(partial)
    coeffs = matrix @ np.concatenate(parts)

    def pullback(dcoeffs):
        du = matrix.T.tocsr() @ dcoeffs
        dv = {"a": np.zeros((n, n)), "b": np.zeros((n, n))}
        for (block, h, swapped), partial in zip(dressed._blocks, partials):
            g = (du[block.columns] * block.share).reshape(h.shape)
            if swapped is None:
                dv[block.spins[0]] += h.ndim * (g.reshape(n, -1) @ partial.reshape(-1, n))
                continue
            _, partial_b = hamiltonian._transform(swapped, [v["b"], v["b"], v["a"], v["a"]])
            g_b = g.transpose(2, 3, 0, 1)
            dv["a"] += 2.0 * (g.reshape(n, -1) @ partial.reshape(-1, n))
            dv["b"] += 2.0 * (g_b.reshape(n, -1) @ partial_b.reshape(-1, n))
        grad = np.zeros(params.size)
        for spin, trail in trails.items():
            a = dv[spin] @ v[spin].T
            a -= a.T
            _, slots, orient = dressed._rotations[spin]
            np.add.at(grad, slots, -orient * ((trail[:, 0] @ a) * trail[:, 1]).sum(1))
        return grad

    return coeffs, pullback


@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
@pytest.mark.parametrize("system", ["restricted", "uhf"])
def test_linearize_keeps_the_csr_bits(rng, sharing, system):
    """Coefficients and pullbacks of the dressed Hamiltonian, full and
    restricted to sorted random rows, equal the CSR formula's bit for bit,
    also when slots repeat within and across spins."""
    tensors = _systems(rng)[system]
    _, n_rot, spec = init_active_rotations(tensors.n_spatial, sharing)
    for rotations in (spec, spec + [(1, 2, "alpha", 0), (2, 3, "alpha", 0), (1, 3, "beta", 0)]):
        full = DressedHamiltonian(tensors, rotations)
        matrix = _csr(full.map)
        rows = np.sort(rng.choice(full.keys.size, full.keys.size // 3, replace=False))
        for dressed, reference in ((full, matrix), (full.restrict(rows), matrix[rows])):
            theta = rng.uniform(-np.pi, np.pi, n_rot + 1)
            coeffs, pullback = dressed.linearize(theta)
            ref_coeffs, ref_pullback = _csr_linearize(dressed, reference, theta)
            assert np.array_equal(coeffs, ref_coeffs)
            dcoeffs = rng.normal(size=dressed.keys.size)
            assert np.array_equal(pullback(dcoeffs), ref_pullback(dcoeffs))


@pytest.mark.parametrize("daggers", [(True, False), (True, True, False, False),
                                     (False, True, True, False), (True, False, True, False)])
def test_conjugate_string_expands_to_the_complex_conjugate(rng, daggers):
    """The Hermitian conjugate of a ladder string (reversed, creators and
    annihilators swapped) expands to the complex conjugate, term by key."""
    modes = rng.integers(1, 9, size=(50, len(daggers)))
    weights = rng.normal(size=50)
    conj_daggers = [not d for d in reversed(daggers)]
    for row, weight in zip(modes, weights):
        values, keys = _kernels.summed(*ladder_terms([row], daggers, [weight])[::-1])
        c_values, c_keys = _kernels.summed(
            *ladder_terms([row[::-1]], conj_daggers, [weight])[::-1]
        )
        assert np.array_equal(keys, c_keys)
        assert np.array_equal(values, c_values.conj())


def test_integral_map_still_refuses_a_non_hermitian_expansion(monkeypatch):
    """A phase error in the expansion leaves self-conjugate tuples (a+_p a_p,
    a+_p a+_q a_q a_p) with an imaginary part, which the build refuses."""
    honest = hamiltonian.ladder_terms

    def off_by_i(modes, daggers, weights):
        keys, values = honest(modes, daggers, weights)
        return keys, 1j * values

    monkeypatch.setattr(hamiltonian, "ladder_terms", off_by_i)
    integral_map.cache_clear()  # a cached map would skip the build
    for shared in (True, False):
        with pytest.raises(ValueError, match="non-Hermitian"):
            integral_map(3, shared)


_OFF_BY_I = """
from majprop import hamiltonian

honest = hamiltonian.ladder_terms


def off_by_i(modes, daggers, weights):
    keys, values = honest(modes, daggers, weights)
    return keys, 1j * values


hamiltonian.ladder_terms = off_by_i
print(__debug__)
for shared in (True, False):
    try:
        hamiltonian.integral_map(3, shared)
    except ValueError as exc:
        print(exc)
"""


def test_non_hermitian_refusal_is_no_assert():
    """The refusal above is a raise that ``python -O`` keeps: with the same
    phase error, an optimized interpreter refuses both builds."""
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_BY_I],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, check=True, timeout=120,
    )
    message = "an integral orbit expands to a non-Hermitian term"
    assert done.stdout.splitlines() == ["False", message, message]


def test_integral_map_build_peaks_near_what_it_keeps():
    """A cold build of the 10-orbital shared map peaks at no more than
    7 MiB under tracemalloc (the sort-and-sum assembly holds one use's
    expansion at a time), and the arrays the map keeps take under 1 MiB."""
    integral_map.cache_clear()
    tracemalloc.start()
    try:
        mapping = integral_map(10, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = [mapping.keys, mapping.rows, mapping.columns, mapping.values]
    kept += [getattr(b, name) for b in mapping.blocks for name in ("reps", "columns", "share", "last")]
    assert peak <= 7 * 2**20
    assert sum(array.nbytes for array in kept) < 2**20


def test_integral_map_is_shared_and_read_only():
    """The same (orbital count, sharing) gives the same map object, whose
    keys, entries and blocks refuse writes, as do those of a restriction."""
    mapping = integral_map(4, True)
    assert integral_map(4, True) is mapping
    assert integral_map(4, False) is not mapping
    part = mapping.restrict(np.arange(0, mapping.keys.size, 2))
    for array in (mapping.keys, mapping.rows, mapping.columns, mapping.values,
                  mapping.blocks[-1].share, part.keys, part.rows, part.columns, part.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
