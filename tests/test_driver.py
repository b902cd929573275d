"""Ansatz building blocks, the optimizer contract, and the adaptive loop."""

import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import majprop.instances as inst
from majprop import FermionicCircuit, Gate, TruncationPolicy, expectation, fock_expectation
from majprop.driver import (
    MemoryBudgetError,
    OptimizationError,
    RunConfig,
    Trajectory,
    TrajectoryRow,
    decompose_single_excitation,
    init_active_rotations,
    load_circuit_json,
    optimize_parameters,
    run_adapt_vmpe,
)
from majprop.hamiltonian import (
    DressedHamiltonian,
    build_majorana_hamiltonian,
    integral_map,
    ladder_product,
    spin_orbital_mode,
)
from majprop.integrals import aufbau_occupation, dress_integrals, parse_fcidump
from majprop.monomials import MajoranaMonomial
from majprop.oracle import basis_state, circuit_state, dense_monomial
from majprop.pool import (
    Pool,
    PoolCandidate,
    build_majoranic_pool,
    score_pool_gradient,
    single_excitation_monomials,
)
from majprop.surrogate import build_surrogate, eval_energy, eval_energy_and_gradient
from test_hamiltonian import _random_unrestricted

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name):
    tensors = parse_fcidump((FIXTURES / f"{name}.fcidump").read_text())
    sidecar = json.loads((FIXTURES / f"{name}.json").read_text())
    return tensors, sidecar


# ---- single-excitation decomposition -------------------------------------------


def _excitation_dense(mode_p, mode_q, n_modes):
    gen = {}
    for bits, coeff in ladder_product([(mode_p, True), (mode_q, False)]).items():
        gen[bits] = gen.get(bits, 0.0) + coeff
    for bits, coeff in ladder_product([(mode_q, True), (mode_p, False)]).items():
        gen[bits] = gen.get(bits, 0.0) - coeff
    return sum(
        c * dense_monomial(MajoranaMonomial(b, n_modes)) for b, c in gen.items()
    )


@pytest.mark.parametrize("sector", ["alpha", "beta"])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 1)])
def test_decompose_matches_matrix_exponential(rng, sector, p, q):
    n_spatial, n_modes = 2, 4
    gates = decompose_single_excitation(p, q, sector, n_spatial, slot=0)
    assert {g.slot for g in gates} == {0}
    mode_p = spin_orbital_mode(p, sector, n_spatial)
    mode_q = spin_orbital_mode(q, sector, n_spatial)
    g_dense = _excitation_dense(mode_p, mode_q, n_modes)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        circuit = FermionicCircuit(n_modes, list(gates), np.array([theta]))
        exact = scipy.linalg.expm(theta * g_dense)
        for occ in range(2**n_modes):
            via_gates = circuit_state(circuit.rotation_sequence(), occ, n_modes)
            assert np.allclose(via_gates, exact @ basis_state(occ, n_modes), atol=1e-12)


def test_excitation_half_pi_transfers_the_particle():
    """On two modes, theta = pi/2 maps |10> onto |01> up to sign."""
    a, b = single_excitation_monomials(1, 2)
    gates = [Gate(a, slot=0, sign=-1), Gate(b, slot=0, sign=-1)]
    circuit = FermionicCircuit(2, gates, np.array([np.pi / 2]))
    psi = circuit_state(circuit.rotation_sequence(), 0b01, 2)
    target = basis_state(0b10, 2)
    assert abs(np.vdot(target, psi)) == pytest.approx(1.0, abs=1e-12)


def test_decompose_rejects_equal_orbitals():
    with pytest.raises(ValueError, match="distinct"):
        decompose_single_excitation(2, 2, "alpha", 4, slot=0)


# ---- active rotations -----------------------------------------------------------


def test_active_rotation_block_shapes():
    gates, n_slots, spec = init_active_rotations(2, "restricted")
    assert (len(gates), n_slots) == (4, 1)
    assert all(g.slot == 0 for g in gates)
    assert [row[:3] for row in spec] == [(1, 2, "alpha"), (1, 2, "beta")]

    gates, n_slots, spec = init_active_rotations(2, "unrestricted")
    assert (len(gates), n_slots) == (4, 2)
    assert sorted({g.slot for g in gates}) == [0, 1]

    gates, n_slots, _ = init_active_rotations(4, "restricted")
    assert (len(gates), n_slots) == (4 * 6, 6)
    with pytest.raises(ValueError, match="sharing"):
        init_active_rotations(2, "shared-ish")


def test_zero_rotations_leave_the_reference_energy(rng):
    tensors = inst.random_restricted_integrals(3, rng, n_electrons=2)
    h = build_majorana_hamiltonian(tensors)
    occ = aufbau_occupation(2)
    gates, n_slots, _ = init_active_rotations(3)
    circuit = FermionicCircuit(6, gates, np.zeros(n_slots))
    assert expectation(h, circuit, occ) == pytest.approx(
        fock_expectation(h, occ), abs=1e-12
    )


@pytest.mark.parametrize("sharing", ["restricted", "unrestricted"])
def test_rotation_energy_matches_dressed_hamiltonian(rng, sharing):
    """Running the rotations on the state equals folding them into the
    integrals and keeping the bare reference."""
    tensors = inst.random_restricted_integrals(3, rng, n_electrons=4)
    h = build_majorana_hamiltonian(tensors)
    occ = aufbau_occupation(4)
    gates, n_slots, spec = init_active_rotations(3, sharing)
    theta = rng.uniform(-0.7, 0.7, n_slots)
    circuit = FermionicCircuit(6, gates, theta)
    with_rotations = expectation(h, circuit, occ)
    dressed = dress_integrals(
        tensors, [(p, q, float(theta[slot]), sector) for p, q, sector, slot in spec]
    )
    without = fock_expectation(build_majorana_hamiltonian(dressed), occ)
    assert with_rotations == pytest.approx(without, abs=1e-9)


# ---- optimizer -------------------------------------------------------------------


def test_optimizer_finds_the_sinusoid_minimum(rng):
    h = inst.random_molecular_hamiltonian(8, rng)
    circuit = FermionicCircuit(
        8, [Gate(int(inst.random_monomial_bits(8, 4, rng)), slot=0)], np.zeros(1)
    )
    graph = build_surrogate(h, circuit, 0b00001111)
    e0 = eval_energy(graph, np.zeros(1))
    ep = eval_energy(graph, np.array([np.pi / 2]))
    em = eval_energy(graph, np.array([-np.pi / 2]))
    c = 0.5 * (ep + em)
    amplitude = math.hypot(e0 - c, 0.5 * (ep - em))
    theta, energy = optimize_parameters(graph, np.array([0.3]))
    assert energy == pytest.approx(c - amplitude, abs=1e-8)
    assert energy <= eval_energy(graph, np.array([0.3])) + 1e-12
    assert eval_energy(graph, theta) == pytest.approx(energy, abs=1e-12)


def test_optimizer_never_worsens_an_optimal_start(rng):
    h = inst.random_molecular_hamiltonian(8, rng)
    circuit = inst.random_circuit(8, 4, rng)
    graph = build_surrogate(h, circuit, 0b00001111)
    theta, energy = optimize_parameters(graph, np.zeros(4))
    again, energy2 = optimize_parameters(graph, theta)
    assert energy2 <= energy + 1e-12


def test_optimizer_aborts_on_nonfinite_energy(monkeypatch, rng):
    h = inst.random_molecular_hamiltonian(8, rng)
    circuit = inst.random_circuit(8, 2, rng)
    graph = build_surrogate(h, circuit, 0b00001111)
    import majprop.driver as drv

    monkeypatch.setattr(
        drv, "eval_energy_and_gradient", lambda g, x: (float("nan"), np.zeros(x.size))
    )
    with pytest.raises(OptimizationError, match="non-finite"):
        optimize_parameters(graph, np.zeros(2))


def test_optimizer_handles_empty_parameter_vector(rng):
    h = inst.random_molecular_hamiltonian(8, rng)
    graph = build_surrogate(h, FermionicCircuit(8, [], np.zeros(0)), 0b00001111)
    optimum = optimize_parameters(graph, np.zeros(0))
    theta, energy = optimum
    assert theta.size == 0 and optimum.grad_max == 0.0
    assert energy == pytest.approx(fock_expectation(h, 0b00001111), abs=1e-12)


def _kicked_optimum():
    """A six-angle random problem, its optimum, and a start kicked off it."""
    rng = np.random.default_rng(5)
    h = inst.random_molecular_hamiltonian(8, rng)
    circuit = inst.random_circuit(8, 6, rng)
    graph = build_surrogate(h, circuit, 0b00001111)
    optimum = optimize_parameters(graph, circuit.params)
    return graph, optimum, optimum[0] + 0.05 * rng.standard_normal(optimum[0].size)


def test_optimizer_returns_a_positive_definite_curvature():
    _, optimum, _ = _kicked_optimum()
    hess_inv = optimum.hess_inv
    assert hess_inv.shape == (6, 6)
    assert np.allclose(hess_inv, hess_inv.T, rtol=0.0, atol=1e-12)
    assert np.linalg.eigvalsh(hess_inv).min() > 0.0


def test_optimizer_pads_a_smaller_curvature_for_new_slots():
    graph, optimum, kick = _kicked_optimum()
    padded = np.eye(6)
    padded[:5, :5] = optimum.hess_inv[:5, :5]
    short = optimize_parameters(graph, kick, hess_inv=optimum.hess_inv[:5, :5])
    full = optimize_parameters(graph, kick, hess_inv=padded)
    assert short.hess_inv.shape == (6, 6)
    assert short[1] == pytest.approx(full[1], abs=1e-10)
    assert short[1] <= eval_energy(graph, kick)


def test_recycled_curvature_saves_evaluations_near_an_optimum():
    graph, optimum, kick = _kicked_optimum()
    cold = optimize_parameters(graph, kick)
    warm = optimize_parameters(graph, kick, hess_inv=optimum.hess_inv)
    assert cold.converged and warm.converged
    assert warm.nfev < cold.nfev
    assert warm[1] == pytest.approx(cold[1], abs=1e-8)
    assert warm[1] == pytest.approx(optimum[1], abs=1e-8)


@pytest.mark.parametrize(
    "hess_inv",
    [np.eye(7), np.ones((6, 5)), np.ones(6), np.diag([1.0, np.nan, 1.0]), np.full((2, 2), np.inf)],
)
def test_optimizer_rejects_a_malformed_curvature(hess_inv):
    graph, _, kick = _kicked_optimum()
    with pytest.raises(ValueError):
        optimize_parameters(graph, kick, hess_inv=hess_inv)


# ---- configuration ---------------------------------------------------------------


def test_config_validation():
    RunConfig(cutoff=6).validate(4)
    with pytest.raises(ValueError, match="even"):
        RunConfig(cutoff=5).validate(4)
    with pytest.raises(ValueError, match="even"):
        RunConfig(cutoff=2).validate(4)
    with pytest.raises(ValueError, match="selection"):
        RunConfig(selection="random").validate(4)
    with pytest.raises(ValueError, match="non-negative"):
        RunConfig(max_iterations=-1).validate(4)
    with pytest.raises(ValueError, match="picture"):
        RunConfig(picture="interaction").validate(4)
    with pytest.raises(ValueError, match="trim_tau"):
        RunConfig(trim_tau=0).validate(4)


def test_config_from_dict_rejects_unknown_keys():
    cfg = RunConfig.from_dict({"cutoff": 8, "selection": "mixed"})
    assert (cfg.cutoff, cfg.selection) == (8, "mixed")
    with pytest.raises(ValueError, match="unknown config keys: cutofff"):
        RunConfig.from_dict({"cutofff": 8})
    # options of earlier versions: an old config file fails loudly
    for key, value in (
        ("reduce_pool", False),
        ("gate_init", "zero"),
        ("rotation_sharing", "unrestricted"),
        ("improvement_floor", 1e-6),
        ("paired_accept", False),
    ):
        with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
            RunConfig.from_dict({key: value})


def test_config_from_dict_checks_value_types():
    """Each value must fit its field's type: a bool is no int, an optional
    field takes None, and the float field also takes an int."""
    cfg = RunConfig.from_dict(
        {"cutoff": None, "placement": None, "trim_tau": 4, "opt_gtol": 0, "max_live_monomials": None}
    )
    assert (cfg.cutoff, cfg.trim_tau, cfg.opt_gtol) == (None, 4, 0)
    assert RunConfig.from_dict({"opt_gtol": 1e-5, "picture": "schrodinger"}).opt_gtol == 1e-5
    for key, value in (
        ("max_iterations", "3"),
        ("max_iterations", True),
        ("max_iterations", 2.0),
        ("trim_kappa", None),
        ("trim_tau", "4"),
        ("cutoff", 6.0),
        ("picture", None),
        ("placement", 0),
        ("opt_gtol", "1e-7"),
        ("opt_gtol", False),
    ):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            RunConfig.from_dict({key: value})


def test_config_built_directly_gets_its_types_checked():
    """A config built without ``from_dict`` (the library, the benchmark's
    workloads) is type-checked by ``validate``, with a ValueError naming the key."""
    for key, value in (("trim_kappa", None), ("max_iterations", "3"), ("opt_maxfun", 2.5)):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            RunConfig(**{key: value}).validate(4)


def test_placement_defaults_follow_the_picture():
    assert RunConfig(picture="heisenberg").resolved_placement == "front"
    assert RunConfig(picture="schrodinger").resolved_placement == "back"
    assert RunConfig(picture="schrodinger", placement="front").resolved_placement == "front"


# ---- the adaptive loop -----------------------------------------------------------


def _record(result):
    """Everything a trajectory row holds but its timings."""
    timings = {"wall_time_s", "score_s", "insert_s", "optimize_s"}
    return [{k: v for k, v in vars(row).items() if k not in timings}
            for row in result.trajectory]


@pytest.mark.parametrize("system", ["h4", "random10"])
def test_runs_match_with_a_cold_and_a_warm_cache(system):
    """The integral map and the pool are built once per size and shared: a
    run after clearing both caches and a run that reuses them give the same
    rows bit for bit (H4 exact; c12's 10-orbital instance at cutoff 4)."""
    if system == "h4":
        tensors, _ = _fixture("h4_chain_r20")
        config = RunConfig(max_iterations=4, cutoff=None)
    else:
        tensors = inst.random_restricted_integrals(10, np.random.default_rng(120), n_electrons=10)
        config = RunConfig(max_iterations=1, cutoff=4, selection="gradient")
    integral_map.cache_clear()
    build_majoranic_pool.cache_clear()
    cold = run_adapt_vmpe(tensors, config)
    warm = run_adapt_vmpe(tensors, config)
    assert warm.pool is cold.pool
    assert warm.graph.hamiltonian.map is cold.graph.hamiltonian.map
    assert _record(warm) == _record(cold)
    assert warm.params.tobytes() == cold.params.tobytes()


@pytest.mark.parametrize("system", ["h4", "uhf"])
def test_a_run_applies_the_integral_map_once(rng, monkeypatch, system):
    """A run reads its undressed Hamiltonian off the dressed one's
    coefficients: the map's ``entries`` is called once per run, the
    driver's ``build_majorana_hamiltonian`` (the benchmark tracer's
    Hamiltonian span) once, and the result equals a build from the
    integrals, array for array (H4; random UHF integrals on 3 orbitals)."""
    import majprop.driver as drv
    from majprop.hamiltonian import IntegralMap

    if system == "h4":
        tensors, _ = _fixture("h4_chain_r20")
    else:
        tensors = _random_unrestricted(rng, 3)
        tensors.n_electrons = 4
    entries, builds = [], []
    read, build = IntegralMap.entries, drv.build_majorana_hamiltonian
    monkeypatch.setattr(IntegralMap, "entries", lambda self, t: entries.append(t) or read(self, t))
    monkeypatch.setattr(drv, "build_majorana_hamiltonian",
                        lambda *args: builds.append(args) or build(*args))
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=2, cutoff=None))
    assert len(entries) == len(builds) == 1
    monkeypatch.undo()
    expected = build_majorana_hamiltonian(tensors)
    assert np.array_equal(result.hamiltonian.keys, expected.keys)
    assert np.array_equal(result.hamiltonian.coeffs, expected.coeffs)


def test_h2_run_reaches_full_ci():
    tensors, ref = _fixture("h2_sto3g")
    config = RunConfig(max_iterations=6, cutoff=None, selection="ggf")
    result = run_adapt_vmpe(tensors, config)
    assert result.energy == pytest.approx(ref["e_fci"], abs=1e-6)
    energies = result.trajectory.energies
    assert (np.diff(energies) <= 1e-12).all()
    assert energies[0] == pytest.approx(ref["e_hf"], abs=1e-6) or energies[0] < ref["e_hf"]


def test_hf_exact_problem_stops_without_gates():
    """Diagonal one-body integrals make the reference determinant exact."""
    n = 3
    tensors = parse_fcidump(
        "&FCI NORB=3,NELEC=2,MS2=0,\n ORBSYM=1,1,1,\n ISYM=1,\n&END\n"
        " -1.5 1 1 0 0\n -0.7 2 2 0 0\n -0.2 3 3 0 0\n 0.0 0 0 0 0\n"
    )
    config = RunConfig(max_iterations=5, cutoff=None)
    result = run_adapt_vmpe(tensors, config)
    assert len(result.trajectory) == 1
    assert result.trajectory.rows[0].gate == "baseline"
    h = build_majorana_hamiltonian(tensors)
    assert result.energy == pytest.approx(
        fock_expectation(h, aufbau_occupation(2)), abs=1e-9
    )
    # body stayed empty: only the 2*3 rotation pairs' gates remain
    assert len(result.circuit.gates) == 4 * 3


def test_k_zero_records_only_the_baseline():
    tensors, ref = _fixture("h2_sto3g")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=0, cutoff=None))
    assert len(result.trajectory) == 1
    assert result.energy <= ref["e_hf"] + 1e-10


def test_stop_names_the_exit_the_loop_took():
    """The iteration budget, the improvement floor (H4 exact at back
    placement stalls at 14 gates) and an empty pool (every orbital
    occupied) each end a run under their own name."""
    h4, _ = _fixture("h4_chain_r20")
    assert run_adapt_vmpe(h4, RunConfig(max_iterations=0)).stop == "max_iterations"
    stalled = run_adapt_vmpe(h4, RunConfig(max_iterations=30, cutoff=None, placement="back"))
    assert (stalled.stop, len(stalled.trajectory) - 1) == ("improvement_floor", 14)
    full = inst.random_restricted_integrals(2, np.random.default_rng(0), n_electrons=4)
    empty = run_adapt_vmpe(full, RunConfig(max_iterations=3))
    assert (empty.stop, len(empty.pool), len(empty.trajectory)) == ("empty_pool", 0, 1)


def test_exhausted_optimizer_budget_is_reported():
    tensors, _ = _fixture("h4_chain_r20")
    rows = {
        maxfun: run_adapt_vmpe(
            tensors, RunConfig(max_iterations=2, cutoff=None, opt_maxfun=maxfun)
        ).trajectory.rows
        for maxfun in (3, 200)
    }
    assert [r.gate for r in rows[3]] == [r.gate for r in rows[200]]
    for starved, full in zip(rows[3][1:], rows[200][1:]):
        assert not starved.opt_converged and starved.opt_nfev > 3
        assert full.opt_converged and 3 < full.opt_nfev <= 200
        assert 1 <= full.opt_nit <= full.opt_nfev
        assert starved.energy > full.energy


def test_twenty_mode_gradient_iteration_converges():
    """The 20-mode gradient iteration of c12 reoptimizes within the default
    evaluation budget once it starts from the baseline's curvature."""
    tensors = inst.random_restricted_integrals(10, np.random.default_rng(120), n_electrons=10)
    result = run_adapt_vmpe(
        tensors, RunConfig(max_iterations=1, cutoff=4, selection="gradient")
    )
    assert len(result.trajectory) == 2
    assert all(row.opt_converged for row in result.trajectory)


def test_stage_times_fit_inside_each_row():
    tensors, _ = _fixture("h4_chain_r20")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=3, cutoff=4))
    baseline, *rows = result.trajectory.rows
    assert baseline.score_s == 0.0 and baseline.insert_s > 0.0 and baseline.optimize_s > 0.0
    assert rows
    for row in result.trajectory:
        stages = (row.score_s, row.insert_s, row.optimize_s)
        assert min(stages) >= 0.0
        assert sum(stages) <= row.wall_time_s


def test_setup_and_rows_account_for_the_call():
    """The setup record times what precedes the first row; with the rows it
    stays within the call's wall time, and the CSV leaves it out."""
    tensors, _ = _fixture("h4_chain_r20")
    tic = time.perf_counter()
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=2, cutoff=4))
    wall = time.perf_counter() - tic
    assert set(result.setup) == {"dressing_s", "hamiltonian_s", "pool_s"}
    assert min(result.setup.values()) >= 0.0
    rows = math.fsum(row.wall_time_s for row in result.trajectory)
    assert math.fsum(result.setup.values()) + rows <= wall
    out = io.StringIO()
    result.trajectory.to_csv(out)
    assert "dressing" not in out.getvalue()


def test_memory_budget_stops_the_run_with_its_trajectory():
    """The exact H4 graph holds 361 keys at the baseline and 529 after the
    first body gate: a 400-key budget stops the run there and hands back the
    baseline row; a budget below the baseline graph stops it before any row."""
    tensors, _ = _fixture("h4_chain_r20")
    with pytest.raises(MemoryBudgetError, match="529 monomials") as caught:
        run_adapt_vmpe(tensors, RunConfig(cutoff=None, max_live_monomials=400))
    assert [r.gate for r in caught.value.trajectory] == ["baseline"]
    with pytest.raises(MemoryBudgetError) as caught:
        run_adapt_vmpe(tensors, RunConfig(cutoff=None, max_live_monomials=1))
    assert caught.value.trajectory is None


def _rows_sans_time(trajectory):
    return [
        (r.iteration, r.energy, r.gate, r.theta_hash, r.pool_evaluated, r.live_monomials)
        for r in trajectory
    ]


def test_trimming_at_pool_size_is_a_no_op():
    tensors, _ = _fixture("h4_chain_r20")
    base_cfg = RunConfig(max_iterations=3, cutoff=4, selection="ggf")
    base = run_adapt_vmpe(tensors, base_cfg)
    pool_size = len(base.pool)
    trimmed = run_adapt_vmpe(
        tensors,
        RunConfig(
            max_iterations=3, cutoff=4, selection="ggf",
            trim_tau=pool_size, trim_kappa=2,
        ),
    )
    assert _rows_sans_time(base.trajectory) == _rows_sans_time(trimmed.trajectory)


def test_mixed_selection_with_trimming_on_schrodinger_back():
    """Exercises the general placement path: body gates spliced in before
    the rotations, gradient scores at refreshes, greedy scores between."""
    tensors, ref = _fixture("h2_sto3g")
    config = RunConfig(
        max_iterations=3,
        cutoff=4,
        picture="schrodinger",
        selection="mixed",
        trim_tau=2,
        trim_kappa=3,
    )
    result = run_adapt_vmpe(tensors, config)
    energies = result.trajectory.energies
    assert (np.diff(energies) <= 1e-12).all()
    assert result.energy < ref["e_hf"] - 1e-4
    # rotations stayed outermost: the last four gates are the rotation block
    tail = result.circuit.gates[-4:]
    assert all(g.label.startswith("r ") for g in tail)
    assert any(not g.label.startswith("r ") for g in result.circuit.gates)


def test_gradient_selection_runs_heisenberg_front():
    tensors, ref = _fixture("h2_sto3g")
    config = RunConfig(max_iterations=3, cutoff=None, selection="gradient")
    result = run_adapt_vmpe(tensors, config)
    assert result.energy == pytest.approx(ref["e_fci"], abs=1e-5)
    assert (np.diff(result.trajectory.energies) <= 1e-12).all()


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("placement", ["front", "back"])
def test_gradient_scores_are_derivatives_of_the_rebuilt_graph(rng, picture, placement):
    """Each gradient score is |dE/dt| at t = 0 of a fresh build with the
    candidate spliced in at the placement's cut (central differences, to
    1e-8), whatever the cutoff and the paired-acceptance rule."""
    n, n_body, step = 8, 3, 1e-5
    for cutoff in (None, 4):
        for paired_accept in (None, False, True):
            for _ in range(2):
                h = inst.random_molecular_hamiltonian(n, rng)
                circuit = inst.random_circuit(n, 6, rng)
                theta = rng.uniform(-np.pi, np.pi, circuit.n_slots)
                occ = int(rng.integers(0, 1 << n))
                policy = TruncationPolicy(length_cutoff=cutoff, paired_accept=paired_accept)
                graph = build_surrogate(h, circuit, occ, policy, picture)
                cands = [
                    PoolCandidate((int(inst.random_monomial_bits(n, d, rng)),), (1,), "m")
                    for d in (2, 4, 4, 4)
                ] + [
                    PoolCandidate(single_excitation_monomials(p, q), (1, -1), "s")
                    for p, q in ((1, 4), (2, 7))
                ]
                cut = 0 if placement == "front" else n_body
                scores = score_pool_gradient(Pool(n, cands), graph, theta, cut)
                for score, cand in zip(scores, cands):
                    trial = circuit.copy()
                    trial.params = np.append(theta, 0.0)
                    trial.gates[cut:cut] = cand.gates(theta.size)
                    fresh = build_surrogate(h, trial, occ, policy, picture)
                    up, down = (eval_energy(fresh, np.append(theta, t)) for t in (step, -step))
                    assert score.score == pytest.approx(abs(up - down) / (2 * step), abs=1e-8)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("placement", ["front", "back"])
def test_final_graph_is_a_fresh_build_of_the_final_circuit(picture, placement):
    """Every accepted gate goes into the graph by one insertion at the cut
    it was scored at; the run's final graph is exactly what a fresh folded
    build of the returned circuit's body records, its energy is the
    reported one, and a gate build of the whole returned circuit against
    the undressed Hamiltonian agrees with it."""
    tensors, _ = _fixture("h4_chain_r20")
    config = RunConfig(max_iterations=3, cutoff=4, picture=picture, placement=placement)
    result = run_adapt_vmpe(tensors, config)
    assert len(result.trajectory) == 4
    n_rotation_gates = 2 * len(result.rotation_spec)
    body, rotations = (
        result.circuit.gates[:-n_rotation_gates], result.circuit.gates[-n_rotation_gates:]
    )
    assert all(g.label.startswith("r ") for g in rotations)
    graph = result.graph
    fresh = build_surrogate(
        DressedHamiltonian(result.tensors, result.rotation_spec),
        FermionicCircuit(result.circuit.n_modes, body, result.params),
        result.occupation, config.policy(), picture,
    )
    assert np.array_equal(graph.final_keys, fresh.final_keys)
    assert np.array_equal(graph.sink, fresh.sink)
    assert len(graph.steps) == len(fresh.steps) == len(body)
    for step, ref in zip(graph.steps, fresh.steps):
        for name, value in vars(step).items():
            assert np.array_equal(value, getattr(ref, name)), name
    assert eval_energy(fresh, result.params) == result.energy
    gated = build_surrogate(
        result.hamiltonian, result.circuit, result.occupation, config.policy(), picture
    )
    assert eval_energy(gated, result.params) == pytest.approx(result.energy, abs=1e-10)


def test_rows_give_the_size_of_the_swept_graph():
    tensors, _ = _fixture("h4_chain_r20")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=3, cutoff=4))
    baseline, *_, last = result.trajectory.rows
    assert (baseline.steps, last.steps) == (0, len(result.graph.pruned.steps))
    assert last.pruned_keys == result.graph.pruned.source.size > 0
    assert last.steps == len(result.graph.steps) > 0


def test_rows_give_the_gradient_at_the_returned_angles():
    """Each row carries max|dE/dtheta| at the optimizer's returned point, the
    gradient of its best evaluation; the CSV leaves it out."""
    tensors, _ = _fixture("h4_chain_r20")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=3, cutoff=4))
    last = result.trajectory.rows[-1]
    _, grad = eval_energy_and_gradient(result.graph, result.params)
    assert last.opt_grad_max == np.abs(grad).max()
    assert all(row.opt_grad_max > 0.0 for row in result.trajectory)
    buffer = io.StringIO()
    result.trajectory.to_csv(buffer)
    assert "opt_grad_max" not in buffer.getvalue()


def test_circuit_json_roundtrip():
    tensors, _ = _fixture("h2_sto3g")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=2, cutoff=None))
    text = result.circuit_json()
    circuit, occupation = load_circuit_json(text)
    assert occupation == result.occupation
    assert len(circuit.gates) == len(result.circuit.gates)
    assert np.array_equal(circuit.params, result.circuit.params)
    assert [g.generator for g in circuit.gates] == [
        g.generator for g in result.circuit.gates
    ]


def test_dressed_tensors_use_final_rotation_angles():
    tensors, _ = _fixture("h2_sto3g")
    result = run_adapt_vmpe(tensors, RunConfig(max_iterations=1, cutoff=None))
    dressed = result.dressed_tensors()
    h_dressed = build_majorana_hamiltonian(dressed)
    # bare reference on the dressed integrals == rotations-only energy on the
    # original ones (body gates excluded on both sides)
    rot_only = FermionicCircuit(
        4,
        [g for g in result.circuit.gates if g.label.startswith("r ")],
        result.params,
    )
    h = build_majorana_hamiltonian(tensors)
    assert fock_expectation(h_dressed, result.occupation) == pytest.approx(
        expectation(h, rot_only, result.occupation), abs=1e-9
    )


def test_trajectory_csv_round_trips_energies():
    rows = [
        TrajectoryRow(0, -1.2345678901234567, "baseline", "ab" * 8, 0.5, 0, 10),
        TrajectoryRow(1, -1.3, "d ab 1,1->2,2", "cd" * 8, 0.1, 3, 12),
    ]
    trajectory = Trajectory(rows=list(rows))
    buffer = io.StringIO()
    trajectory.to_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == (
        "iteration,energy,gate,theta_hash,wall_time_s,pool_evaluated,live_monomials"
    )
    first = lines[1].split(",")
    assert float(first[1]) == rows[0].energy
    assert len(lines) == 3
