"""Surrogate graphs against direct propagation, finite differences, rebuilds."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

import majprop.instances as inst
from majprop import TruncationPolicy, _kernels, expectation, fock_expectation, surrogate
from majprop.engine import FermionicCircuit, Gate
from majprop.operators import SparseOperator
from majprop.surrogate import (
    SurrogateGraph,
    build_surrogate,
    cut_landscapes,
    eval_energy,
    eval_energy_and_gradient,
    extend_surrogate,
    _coset,
    _echelon,
    _layer_keys,
    _record_step,
    _sweep_gradient,
)

N = 8
OCC = 0b00001111  # four modes filled
POLICY = TruncationPolicy(length_cutoff=4)


def _instance(rng, n_gates=12):
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = inst.random_circuit(N, n_gates, rng)
    return h, circuit


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_eval_matches_direct_propagation(rng, picture):
    h, circuit = _instance(rng)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        direct = expectation(h, circuit, OCC, POLICY, picture, params=theta)
        assert eval_energy(graph, theta) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_zero_angles_give_reference_energy(rng, picture):
    h, circuit = _instance(rng)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    e0 = fock_expectation(h, OCC)
    assert eval_energy(graph, np.zeros(circuit.n_slots)) == pytest.approx(e0, abs=1e-12)


def test_two_pi_periodicity(rng):
    h, circuit = _instance(rng, n_gates=6)
    graph = build_surrogate(h, circuit, OCC, POLICY)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
    shift = theta + 2.0 * np.pi * rng.integers(-2, 3, theta.size)
    assert eval_energy(graph, shift) == pytest.approx(
        eval_energy(graph, theta), abs=1e-10
    )


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_gradient_matches_finite_differences(rng, picture):
    h, circuit = _instance(rng, n_gates=8)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
    energy, grad = eval_energy_and_gradient(graph, theta)
    assert energy == pytest.approx(eval_energy(graph, theta), abs=1e-13)
    step = 1e-5
    for k in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        fd = (eval_energy(graph, plus) - eval_energy(graph, minus)) / (2 * step)
        assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gradient_accumulates_over_shared_slots(rng):
    h = inst.random_molecular_hamiltonian(N, rng)
    g1 = int(inst.random_monomial_bits(N, 4, rng))
    g2 = int(inst.random_monomial_bits(N, 4, rng))
    gates = [Gate(g1, slot=0), Gate(g2, slot=0, sign=-1), Gate(g1, slot=1)]
    circuit = FermionicCircuit(N, gates, np.zeros(2))
    graph = build_surrogate(h, circuit, OCC, POLICY)
    theta = rng.uniform(-1.0, 1.0, 2)
    _, grad = eval_energy_and_gradient(graph, theta)
    step = 1e-5
    for k in range(2):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        fd = (eval_energy(graph, plus) - eval_energy(graph, minus)) / (2 * step)
        assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def _assert_same_graph(graph, reference):
    assert np.array_equal(graph.final_keys, reference.final_keys)
    assert np.array_equal(graph.sorted_keys, reference.sorted_keys)
    assert np.array_equal(graph.order, reference.order)
    assert graph.layer_sizes == reference.layer_sizes
    assert np.array_equal(graph.source, reference.source)
    assert np.array_equal(graph.sink, reference.sink)
    assert len(graph.steps) == len(reference.steps)
    for step, ref in zip(graph.steps, reference.steps):
        for name, value in vars(step).items():
            assert np.array_equal(value, getattr(ref, name)), name
    sweep, reference = graph.pruned, reference.pruned
    for name in ("source", "sink", "ham_at", "ham_of"):
        value, ref = getattr(sweep, name), getattr(reference, name)
        assert np.array_equal(value, ref) and value.dtype == ref.dtype, name
    assert len(sweep.steps) == len(reference.steps)
    for step, ref in zip(sweep.steps, reference.steps):
        for name, value in vars(step).items():
            assert np.array_equal(value, getattr(ref, name)), name
            assert np.asarray(value).dtype == np.asarray(getattr(ref, name)).dtype, name
    for name in ("keys", "coeffs"):
        assert np.array_equal(getattr(sweep.hamiltonian, name), getattr(reference.hamiltonian, name))


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("where", ["front", 3, "back"])
def test_extend_matches_rebuild(rng, picture, where):
    """Inserting one or two gates at the front, mid-circuit or the back
    gives exactly the graph a fresh build of the extended circuit records,
    keys in birth order, edges, pruned sweep and energies bit for bit,
    with and without a cutoff; the
    gates enter the sweep in list order, and the result extends again."""
    for policy in (TruncationPolicy(), POLICY):
        for n_new in (1, 2):
            h, circuit = _instance(rng, n_gates=6)
            graph = build_surrogate(h, circuit, OCC, policy, picture)
            slot = circuit.n_slots
            gates = [
                Gate(int(inst.random_monomial_bits(N, 2 + 2 * (k % 2), rng)), slot=slot)
                for k in range(n_new)
            ]
            extended = extend_surrogate(graph, gates, where)

            cut = {"front": 0, "back": len(circuit)}.get(where, where)
            reference = circuit.copy()
            reference.params = np.append(reference.params, 0.0)
            reference.gates[cut:cut] = gates[::-1] if picture == "heisenberg" else gates
            assert extended.gates == reference.gates
            rebuilt = build_surrogate(h, reference, OCC, policy, picture)
            _assert_same_graph(extended, rebuilt)
            for _ in range(3):
                theta = rng.uniform(-np.pi, np.pi, slot + 1)
                assert eval_energy(extended, theta) == eval_energy(rebuilt, theta)

            gate2 = Gate(int(inst.random_monomial_bits(N, 4, rng)), slot=slot + 1)
            again = extend_surrogate(extended, [gate2], where)
            assert len(again.steps) == len(circuit.gates) + n_new + 1
            again_circuit = FermionicCircuit(N, again.gates, np.zeros(slot + 2))
            _assert_same_graph(
                again, build_surrogate(h, again_circuit, OCC, policy, picture)
            )


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_insertion_moves_no_key_and_shares_the_steps_before_the_cut(rng, picture):
    """Keys are numbered in birth order, so an insertion keeps every key of
    the layer at its cut where it was and shares the recorded steps before
    the cut; at the natural end that is every old key and every step."""
    h, circuit = _instance(rng, n_gates=6)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    natural = "front" if picture == "heisenberg" else "back"
    for where, depth in ((natural, len(circuit)), (3, 3)):
        gate = Gate(int(inst.random_monomial_bits(N, 4, rng)), slot=circuit.n_slots)
        grown = extend_surrogate(graph, [gate], where)
        size = graph.final_keys.size if where == natural else graph.layer_sizes[depth]
        assert np.array_equal(grown.final_keys[:size], graph.final_keys[:size])
        assert np.array_equal(grown.sink[:size], graph.sink[:size])
        assert grown.layer_sizes[: depth + 1] == graph.layer_sizes[: depth + 1]
        assert all(new is old for new, old in zip(grown.steps[:depth], graph.steps[:depth]))


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_recorded_steps_are_compact_and_the_pruned_sweep_wide(rng, picture):
    """Recorded steps hold int32 positions and int8 signs (9 bytes an
    entry); the pruned sweep that evaluations run over, intp and float64."""
    h, circuit = _instance(rng, n_gates=6)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    gate = Gate(int(inst.random_monomial_bits(N, 4, rng)), slot=circuit.n_slots)
    for where in ("front", 3, "back"):
        grown = extend_surrogate(graph, [gate], where)
        for step in grown.steps:
            assert (step.z.dtype, step.p.dtype, step.sw.dtype) == (np.int32, np.int32, np.int8)
        for step in grown.pruned.steps:
            assert (step.z.dtype, step.p.dtype, step.sw.dtype) == (np.intp, np.intp, np.float64)


def test_a_layer_past_int32_positions_raises(rng, monkeypatch):
    """A layer that would outgrow the recorded steps' int32 positions raises
    a real error (the bound is lowered here rather than grown past)."""
    h, circuit = _instance(rng, n_gates=4)
    monkeypatch.setattr(surrogate, "_MAX_POSITION", 10)
    with pytest.raises(OverflowError, match="int32"):
        build_surrogate(h, circuit, OCC, POLICY)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_layer_keys_are_the_keys_of_a_partial_build(rng, picture):
    """The layer after the first d processed gates holds exactly the keys a
    fresh build of those d gates ends on, in the same (birth) order and
    with the same sorted view, at every d, also when a source term has
    weight 0 (the build leaves it out)."""
    for policy in (TruncationPolicy(), POLICY):
        h, circuit = _instance(rng, n_gates=8)
        h.coeffs[3] = 0.0
        graph = build_surrogate(h, circuit, OCC, policy, picture)
        processed = circuit.gates[::-1] if picture == "heisenberg" else circuit.gates
        for depth in range(len(processed) + 1):
            gates = processed[:depth]
            partial = FermionicCircuit(
                N, gates[::-1] if picture == "heisenberg" else gates, circuit.params
            )
            fresh = build_surrogate(h, partial, OCC, policy, picture)
            keys, sorted_keys, order = _layer_keys(graph, depth)
            assert np.array_equal(keys, fresh.final_keys), depth
            assert np.array_equal(sorted_keys, fresh.sorted_keys), depth
            assert np.array_equal(order, fresh.order), depth


def test_extend_rejects_a_cut_outside_the_circuit(rng):
    h, circuit = _instance(rng, n_gates=4)
    graph = build_surrogate(h, circuit, OCC, POLICY)
    gate = Gate(int(inst.random_monomial_bits(N, 4, rng)), slot=circuit.n_slots)
    for where in (-1, len(circuit) + 1, "middle"):
        with pytest.raises(ValueError):
            extend_surrogate(graph, [gate], where)


def test_build_ignores_stored_angles(rng):
    """A graph holds no angle: builds of one circuit at different angles are
    equal, array for array, and hold the circuit's gates in circuit order."""
    h, circuit = _instance(rng, n_gates=6)
    other = circuit.copy()
    other.params = rng.uniform(-np.pi, np.pi, other.n_slots)
    for picture in ("heisenberg", "schrodinger"):
        g1 = build_surrogate(h, circuit, OCC, POLICY, picture)
        g2 = build_surrogate(h, other, OCC, POLICY, picture)
        _assert_same_graph(g1, g2)
        assert g1.gates == g2.gates == circuit.gates
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        assert eval_energy(g1, theta) == eval_energy(g2, theta)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_empty_circuit_evaluates_reference(rng, picture):
    h = inst.random_molecular_hamiltonian(N, rng)
    circuit = FermionicCircuit(N, [], np.zeros(0))
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    assert eval_energy(graph, np.zeros(0)) == pytest.approx(
        fock_expectation(h, OCC), abs=1e-12
    )


def test_missing_parameter_slot_raises(rng):
    h, circuit = _instance(rng, n_gates=3)
    graph = build_surrogate(h, circuit, OCC, POLICY)
    with pytest.raises(ValueError, match="slot"):
        eval_energy(graph, np.zeros(circuit.n_slots - 1))


def test_stats_summary(rng):
    h, circuit = _instance(rng, n_gates=5)
    graph = build_surrogate(h, circuit, OCC, POLICY)
    stats = graph.stats()
    assert stats["gates"] == 5
    assert stats["final_layer"] <= stats["max_layer"]
    assert stats["total_edges"] > 0
    assert isinstance(graph, SurrogateGraph)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_pruned_evaluation_matches_the_full_sweep_without_side_effects(rng, picture):
    """Energies and gradients run over the pruned steps; they equal the
    sweep over every recorded step, and neither evaluation nor scoring nor
    an insertion at any cut writes to the graph."""
    h, circuit = _instance(rng)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    before = pickle.dumps(graph)
    for _ in range(8):
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        energy, grad = eval_energy_and_gradient(graph, theta)
        ref_energy, ref_grad = _sweep_gradient(graph, graph, theta)
        assert energy == pytest.approx(ref_energy, abs=1e-13)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-13)
        assert eval_energy(graph, theta) == pytest.approx(ref_energy, abs=1e-13)
    assert pickle.dumps(graph) == before
    theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
    gates = [[Gate(int(inst.random_monomial_bits(N, 4, rng)), slot=circuit.n_slots)]]
    for where in ("front", 5, "back"):
        cut_landscapes(graph, theta, where, gates)
        extend_surrogate(graph, gates[0], where)
        assert pickle.dumps(graph) == before, where


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_fixed_hamiltonian_pruned_sweep_holds_only_its_terms(rng, picture):
    """The pruned sweep of a fixed operator holds the operator restricted to
    the keys it weighs, fewer than the whole one, and gives energies and
    gradients equal bit for bit to the same sweep with the whole operator."""
    h, circuit = _instance(rng)
    graph = build_surrogate(h, circuit, OCC, POLICY, picture)
    pruned = graph.pruned
    assert isinstance(pruned.hamiltonian, SparseOperator)
    assert 0 < pruned.hamiltonian.keys.size < h.keys.size
    rows = np.searchsorted(h.keys, pruned.hamiltonian.keys)
    assert np.array_equal(h.keys[rows], pruned.hamiltonian.keys)
    assert np.array_equal(h.coeffs[rows], pruned.hamiltonian.coeffs)
    whole = replace(pruned, hamiltonian=h, ham_of=rows[pruned.ham_of])
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        energy, grad = _sweep_gradient(graph, whole, theta)
        assert eval_energy(graph, theta) == energy
        assert eval_energy_and_gradient(graph, theta)[0] == energy
        assert np.array_equal(eval_energy_and_gradient(graph, theta)[1], grad)


def test_recorded_layers_merge_like_union1d(rng):
    """A recorded step's next layer is ``np.union1d`` of the layer and its
    kept partners, also with no anticommuting key and with partners that
    are already in the layer; it updates the layer's anticommuting keys,
    pairs each with its partner, and its sine branches land exactly on the
    kept partners, signed."""
    for policy in (TruncationPolicy(), POLICY):
        for trial in range(30):
            gamma = int(inst.random_monomial_bits(N, 2 + 2 * (trial % 2), rng))
            keys = np.array(
                [inst.random_monomial_bits(N, d, rng) for d in rng.integers(1, 7, 40)],
                dtype=np.uint64,
            )
            anti = _kernels.anticommutes_with(gamma, keys)
            if trial % 3 == 0:
                keys = keys[~anti]
            elif trial % 3 == 1:  # some partners hit keys of the layer
                keys = np.concatenate([keys, keys[anti][::2] ^ np.uint64(gamma)])
            keys = np.unique(keys)
            next_keys, order, new, step = _record_step(
                keys, np.arange(keys.size), Gate(gamma, slot=0), 1.0, policy
            )
            cand = keys[_kernels.anticommutes_with(gamma, keys)] ^ np.uint64(gamma)
            kept = cand[policy.survivor_mask(cand)]
            assert np.array_equal(next_keys, np.union1d(keys, kept))
            assert next_keys.dtype == np.uint64
            # new keys are numbered on after the layer's, in ascending order
            assert np.array_equal(new, np.setdiff1d(kept, keys))
            born = np.concatenate([keys, new])
            assert np.array_equal(born[order], next_keys)
            z = born[step.z]
            land, partner = step.sw != 0.0, z ^ np.uint64(gamma)
            paired = np.isin(partner, z)
            assert np.array_equal(z, next_keys[_kernels.anticommutes_with(gamma, next_keys)])
            assert np.array_equal(z[land], np.sort(kept))
            assert np.array_equal(step.sw[land], _kernels.product_sign_with(gamma, partner[land]))
            assert np.array_equal(z[step.p[paired]], partner[paired])
            assert np.array_equal(step.p[~paired], np.flatnonzero(~paired))


def test_colliding_sine_branches_raise_a_real_error():
    """The distinct-sine-target invariant survives ``python -O``: a layer
    holding one anticommuting key twice must raise, not corrupt the step."""
    keys = np.array([0b110, 0b110], dtype=np.uint64)
    with pytest.raises(RuntimeError, match="collide"):
        _record_step(keys, np.arange(2), Gate(0b11, slot=0), 1.0, TruncationPolicy())


def test_coset_representatives_agree_exactly_within_the_span(rng):
    """Reduction modulo the span of a few <= 10-bit defects, against the
    span enumerated by brute force: two vectors share a representative
    exactly when their XOR lies in the span, the representative lies in
    the vector's own coset, and the basis is reduced (no vector holds
    another's pivot bit)."""
    for trial in range(40):
        defects = rng.integers(0, 1 << 10, int(rng.integers(0, 7))).tolist()
        if trial % 4 == 0 and defects:  # dependent vectors
            defects.append(defects[0] ^ defects[-1])
        span = {0}
        for d in defects:
            span |= {x ^ d for x in span}
        basis = _echelon(defects)
        assert len(span) == 1 << len(basis)
        for bit, b in basis:
            assert b.bit_length() - 1 == bit
            assert all(c == b or not c >> bit & 1 for _, c in basis)
        a = rng.integers(0, 1 << 10, 200).astype(np.uint64)
        b = np.where(
            rng.random(200) < 0.5,
            a ^ np.array(sorted(span), np.uint64)[rng.integers(0, len(span), 200)],
            rng.integers(0, 1 << 10, 200).astype(np.uint64),
        )
        ra, rb = _coset(a, basis), _coset(b, basis)
        assert np.array_equal(ra == rb, [int(x) in span for x in a ^ b])
        assert all(int(x) in span for x in a ^ ra)
