"""Release acceptance gate: twelve end-to-end checks, one test per line.

Run `pytest tests/test_acceptance.py -v` to get a single pass/fail line per
check.  Every check is seeded and deterministic up to wall-clock noise; the
timing checks (c11, c12) warm caches and take the best of several repeats so
they stay robust on shared machines.  Budgets are asserted where a check is
explicitly time-boxed.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import majprop.instances as inst
from majprop.bounds import (
    SpectralData,
    lower_bound_known_alpha,
    lower_bound_penalty,
    lower_bound_simple,
    lower_bound_unknown_gap,
)
from majprop.driver import RunConfig, init_active_rotations, run_adapt_vmpe
from majprop.engine import (
    FermionicCircuit,
    Gate,
    TruncationPolicy,
    expectation,
    fock_expectation,
)
from majprop.hamiltonian import build_majorana_hamiltonian
from majprop.integrals import aufbau_occupation, dress_integrals, parse_fcidump
from majprop.oracle import (
    circuit_state,
    dense_expectation,
    dense_operator,
    eigensolve_sector,
)
from majprop.pool import Pool, PoolCandidate, build_majoranic_pool, fit_sinusoid, score_pool_ggf
from majprop.surrogate import (
    build_surrogate,
    eval_energy,
    eval_energy_and_gradient,
    extend_surrogate,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name):
    tensors = parse_fcidump((FIXTURES / f"{name}.fcidump").read_text())
    sidecar = json.loads((FIXTURES / f"{name}.json").read_text())
    return tensors, sidecar


def _random_occupation(n_modes, rng):
    return int(rng.integers(0, 1 << n_modes))


# ---- c01: lossless sweeps reproduce the dense oracle ---------------------------


def test_c01_truncation_free_sweeps_match_the_dense_oracle():
    """Fifty random molecules and circuits, cutoff set above the largest
    possible monomial length: the sweep must agree with dense state-vector
    simulation to 1e-10."""
    tic = time.perf_counter()
    rng = np.random.default_rng(9101)
    worst = 0.0
    for i in range(50):
        n = (8, 10, 12)[i % 3]
        h = inst.random_molecular_hamiltonian(n, rng)
        circuit = inst.random_circuit(n, 20, rng)
        occ = _random_occupation(n, rng)
        e = expectation(h, circuit, occ, TruncationPolicy(length_cutoff=2 * n))
        psi = circuit_state(circuit.rotation_sequence(), occ, n)
        worst = max(worst, abs(e - dense_expectation(h, psi)))
    dt = time.perf_counter() - tic
    print(f"\n[c01] 50 instances, worst |dE| = {worst:.2e}  ({dt:.1f}s)")
    assert worst < 1e-10
    assert dt < 300.0


# ---- c02: truncation error decays with the cutoff -------------------------------


def test_c02_truncation_error_decays_with_the_length_cutoff():
    """Mean absolute energy error over 30 random 10-mode instances must fall
    strictly at every cutoff step and at better than half per step.  Rotation
    angles are drawn uniform(-0.35, 0.35) — the magnitude the optimizer
    actually settles on — because the decay rate degrades towards maximally
    mixing circuits (at angles near pi the ratio approaches 1)."""
    tic = time.perf_counter()
    rng = np.random.default_rng(9202)
    cutoffs = (2, 4, 6, 8)
    errs = np.zeros((30, len(cutoffs)))
    for i in range(30):
        h = inst.random_molecular_hamiltonian(10, rng)
        base = inst.random_circuit(10, 15, rng)
        circuit = FermionicCircuit(
            10, base.gates, rng.uniform(-0.35, 0.35, base.n_slots)
        )
        occ = _random_occupation(10, rng)
        exact = dense_expectation(h, circuit_state(circuit.rotation_sequence(), occ, 10))
        for j, c in enumerate(cutoffs):
            approx = expectation(h, circuit, occ, TruncationPolicy(length_cutoff=c))
            errs[i, j] = abs(approx - exact)
    means = errs.mean(axis=0)
    ratios = means[1:] / means[:-1]
    dt = time.perf_counter() - tic
    print(f"\n[c02] mean errors {np.array2string(means, precision=2)}  "
          f"ratios {np.array2string(ratios, precision=2)}  ({dt:.1f}s)")
    assert (np.diff(means) < 0).all(), f"means not strictly decreasing: {means}"
    assert ratios.mean() < 0.5
    assert dt < 600.0


# ---- c03: both pictures agree under pure length truncation ----------------------


def test_c03_both_pictures_agree_under_pure_length_cutoffs():
    """With a plain length cutoff (no paired-acceptance), operator-side and
    state-side sweeps truncate mirror monomial sets and must agree to 1e-12."""
    rng = np.random.default_rng(9303)
    worst = 0.0
    for _ in range(30):
        h = inst.random_molecular_hamiltonian(8, rng)
        circuit = inst.random_circuit(8, 10, rng)
        occ = _random_occupation(8, rng)
        for c in (4, 6):
            policy = TruncationPolicy(length_cutoff=c, paired_accept=False)
            eh = expectation(h, circuit, occ, policy, picture="heisenberg")
            es = expectation(h, circuit, occ, policy, picture="schrodinger")
            worst = max(worst, abs(eh - es))
    print(f"\n[c03] 30 instances x cutoffs (4, 6), worst |E_H - E_S| = {worst:.2e}")
    assert worst < 1e-12


# ---- c04: analytic gradients ----------------------------------------------------


def test_c04_analytic_gradients_match_central_differences():
    """Twenty truncated surrogates with 11 parameters each (two gates share a
    slot); every component must match a central difference to 1e-6 relative.
    The relative error floors at 1e-3 so near-zero components compare on an
    absolute scale."""
    rng = np.random.default_rng(9404)
    step, worst = 1e-5, 0.0
    for _ in range(20):
        h = inst.random_molecular_hamiltonian(8, rng)
        base = inst.random_circuit(8, 12, rng)
        gates = list(base.gates[:-1]) + [replace(base.gates[-1], slot=0)]
        params = rng.uniform(-1.2, 1.2, 11)
        circuit = FermionicCircuit(8, gates, params)
        assert circuit.n_slots == 11
        occ = _random_occupation(8, rng)
        graph = build_surrogate(h, circuit, occ, TruncationPolicy(length_cutoff=4))
        _, grad = eval_energy_and_gradient(graph, params)
        for k in range(params.size):
            bumped = params.copy()
            bumped[k] = params[k] + step
            ep = eval_energy(graph, bumped)
            bumped[k] = params[k] - step
            em = eval_energy(graph, bumped)
            fd = (ep - em) / (2.0 * step)
            rel = abs(grad[k] - fd) / max(abs(grad[k]), abs(fd), 1e-3)
            worst = max(worst, rel)
    print(f"\n[c04] 20 instances x 11 slots, worst relative error = {worst:.2e}")
    assert worst < 1e-6


# ---- c05: the three-point landscape fit -----------------------------------------


def test_c05_three_point_fit_reproduces_the_rotation_landscape():
    """The energy along one appended rotation is an exact sinusoid, so three
    probes determine it everywhere (checked at 10 random angles to 1e-10) and
    the fitted minimum matches a 1000-point brute-force grid: equal on the
    grid to 1e-8, and never above the grid minimum."""
    rng = np.random.default_rng(9505)
    grid = np.linspace(-np.pi, np.pi, 1000, endpoint=False)
    worst_pt = worst_grid = 0.0
    for _ in range(5):
        h = inst.random_molecular_hamiltonian(8, rng)
        circuit = inst.random_circuit(8, 6, rng)
        params = np.asarray(circuit.params, dtype=float)
        occ = _random_occupation(8, rng)
        graph = build_surrogate(h, circuit, occ)
        e0 = eval_energy(graph, params)
        bits = int(inst.random_monomial_bits(8, 4, rng))
        ext = extend_surrogate(graph, [Gate(bits, slot=circuit.n_slots)], "front")

        def landscape(theta):
            return eval_energy(ext, np.append(params, theta))

        ep, em = landscape(np.pi / 2), landscape(-np.pi / 2)
        improvement, theta_star = fit_sinusoid(e0, ep, em)
        offset = 0.5 * (ep + em)
        a_sin, a_cos = e0 - offset, 0.5 * (ep - em)

        def model(theta):
            return offset + a_cos * np.sin(theta) + a_sin * np.cos(theta)

        for theta in rng.uniform(-np.pi, np.pi, 10):
            worst_pt = max(worst_pt, abs(landscape(theta) - model(theta)))
        true_grid = np.array([landscape(t) for t in grid])
        worst_grid = max(worst_grid, abs(float(model(grid).min()) - true_grid.min()))
        assert e0 + improvement <= true_grid.min() + 1e-10
        assert abs(landscape(theta_star) - (e0 + improvement)) < 1e-10
        # the packaged scorer reports the same minimum as the raw fit
        pool = Pool(8, [PoolCandidate((bits,), (1,), "probe")])
        (score,) = score_pool_ggf(pool, graph, params, where="front")
        assert score.score == pytest.approx(improvement, abs=1e-12)
    print(f"\n[c05] worst fit error: {worst_pt:.2e} at random angles, "
          f"{worst_grid:.2e} at the grid minimum")
    assert worst_pt < 1e-10
    assert worst_grid < 1e-8


# ---- c06: pool sizes ------------------------------------------------------------


def test_c06_pool_sizes_match_the_closed_form_counts():
    big = build_majoranic_pool(20, 10, 10)
    assert big.describe() == {
        "n_modes": 40, "singles": 200, "doubles": 14050, "total": 14250,
    }
    assert len(big) == 14250
    small = build_majoranic_pool(2, 1, 1)
    assert small.describe() == {"n_modes": 4, "singles": 2, "doubles": 1, "total": 3}
    assert len(small) == 3
    print("\n[c06] pool sizes 14250 (10 occupied x 10 virtual) and 3 (1 x 1)")


# ---- c07: orbit members are interchangeable -------------------------------------


def test_c07_every_orbit_member_yields_the_same_improvement():
    """All 16 one-per-mode monomials over four modes split into two parity
    classes of eight; within a class every member must score the same energy
    improvement on random Fock states to 1e-10."""
    rng = np.random.default_rng(9707)
    h = inst.random_molecular_hamiltonian(8, rng)
    odd_mask = sum(1 << (2 * p) for p in range(8))
    spreads = []
    for modes in ((1, 2, 5, 7), (2, 3, 4, 8)):
        variants = []
        for pick in range(16):
            bits = 0
            for j, mode in enumerate(modes):
                bits |= 1 << (2 * (mode - 1) + ((pick >> j) & 1))
            variants.append(bits)
        pool = Pool(8, [PoolCandidate((b,), (1,), f"v{i}") for i, b in enumerate(variants)])
        for _ in range(3):
            occ = _random_occupation(8, rng)
            graph = build_surrogate(h, FermionicCircuit(8, [], np.zeros(0)), occ)
            scores = score_pool_ggf(pool, graph, np.zeros(0), where="front")
            groups = {0: [], 1: []}
            for cand, s in zip(pool.candidates, scores):
                parity = bin(cand.generators[0] & odd_mask).count("1") % 2
                groups[parity].append(s.score)
            for members in groups.values():
                assert len(members) == 8
                spreads.append(max(members) - min(members))
    print(f"\n[c07] 12 orbit classes, worst in-class spread = {max(spreads):.2e}")
    assert max(spreads) < 1e-10


# ---- c08: integral dressing -----------------------------------------------------


def test_c08_integral_dressing_preserves_the_spectrum():
    """Folding orbital rotations into the integrals is a unitary change of
    frame: the full spectrum is preserved to 1e-9, and the rotated-state
    energy equals the bare reference on the dressed integrals."""
    rng = np.random.default_rng(9808)
    worst_spec = 0.0
    for n_spatial in (3, 5):
        tensors = inst.random_restricted_integrals(n_spatial, rng)
        _, n_slots, spec = init_active_rotations(n_spatial, "unrestricted")
        theta = rng.uniform(-0.9, 0.9, n_slots)
        rotations = [(p, q, float(theta[slot]), sector) for p, q, sector, slot in spec]
        w0 = np.linalg.eigvalsh(dense_operator(build_majorana_hamiltonian(tensors)))
        dressed = dress_integrals(tensors, rotations)
        w1 = np.linalg.eigvalsh(dense_operator(build_majorana_hamiltonian(dressed)))
        worst_spec = max(worst_spec, float(np.abs(w0 - w1).max()))
    assert worst_spec < 1e-9

    tensors = inst.random_restricted_integrals(5, rng, n_electrons=6)
    occ = aufbau_occupation(6)
    h = build_majorana_hamiltonian(tensors)
    gates, n_slots, spec = init_active_rotations(5, "restricted")
    theta = rng.uniform(-0.7, 0.7, n_slots)
    with_rotations = expectation(h, FermionicCircuit(10, gates, theta), occ)
    dressed = dress_integrals(
        tensors, [(p, q, float(theta[slot]), sector) for p, q, sector, slot in spec]
    )
    without = fock_expectation(build_majorana_hamiltonian(dressed), occ)
    print(f"\n[c08] worst eigenvalue shift {worst_spec:.2e}, "
          f"rotation-vs-dressed energy gap {abs(with_rotations - without):.2e}")
    assert abs(with_rotations - without) < 1e-9


# ---- c09: end-to-end ground-state search ----------------------------------------


def _rows_sans_time(trajectory):
    return [
        (r.iteration, r.energy, r.gate, r.theta_hash, r.pool_evaluated, r.live_monomials)
        for r in trajectory
    ]


def test_c09_h4_chain_reaches_the_dense_ground_state():
    """Exact-mode run on the stretched H4 chain: within 1e-3 Ha of the dense
    sector ground energy in at most 30 iterations, monotone trajectory, and a
    rerun with trimming at the full pool size reproduces every row."""
    tic = time.perf_counter()
    tensors, ref = _fixture("h4_chain_r20")
    config = RunConfig(max_iterations=30, cutoff=None, selection="ggf")
    result = run_adapt_vmpe(tensors, config)
    w, _, _ = eigensolve_sector(result.hamiltonian, n_particles=4, twice_sz=0)
    assert abs(float(w[0]) - ref["e_fci"]) < 1e-8
    energies = result.trajectory.energies
    assert (np.diff(energies) <= 1e-12).all(), "trajectory not monotone"
    assert len(result.trajectory) <= 31
    gap = result.energy - float(w[0])
    assert -1e-9 < gap < 1e-3, f"final gap to ground energy {gap:.2e}"
    # each reoptimization starts from the previous iteration's curvature
    nfev = sum(r.opt_nfev for r in result.trajectory)
    assert nfev <= 900, f"{nfev} optimizer evaluations"

    rerun = run_adapt_vmpe(
        tensors,
        RunConfig(
            max_iterations=30, cutoff=None, selection="ggf",
            trim_tau=len(result.pool), trim_kappa=2,
        ),
    )
    assert _rows_sans_time(rerun.trajectory) == _rows_sans_time(result.trajectory)
    dt = time.perf_counter() - tic
    print(f"\n[c09] E = {result.energy:.9f}, ground = {float(w[0]):.9f}, "
          f"gap = {gap:.2e} after {len(result.trajectory) - 1} iterations, "
          f"{nfev} optimizer evaluations  ({dt:.1f}s)")
    assert dt < 600.0


def test_c09_h8_casci_reference_optional():
    """Given externally generated H8/STO-3G integrals (``h8_sto3g.fcidump``),
    the sector eigensolve must reproduce the published reference energy to
    1e-5."""
    path = FIXTURES / "h8_sto3g.fcidump"
    if not path.exists():
        pytest.skip("optional H8 integrals not bundled; place h8_sto3g.fcidump "
                    "in tests/fixtures to enable")
    tensors = parse_fcidump(path.read_text())
    h = build_majorana_hamiltonian(tensors)
    w, _, _ = eigensolve_sector(h, n_particles=tensors.n_electrons, twice_sz=0)
    assert float(w[0]) == pytest.approx(-9.057128, abs=1e-5)


# ---- c10: overlap floors are sound ----------------------------------------------


def test_c10_overlap_floors_never_exceed_the_true_overlap():
    """At least 500 bound evaluations across random dense spectra and trial
    states: no floor may exceed the true ground-state overlap, and knowing
    more must never hurt (exact leakage >= penalty bracket >= gap-free)."""
    from test_bounds import _spectral_fixture, _trial_states

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
                thm_alpha = lower_bound_known_alpha(e, e0, s1, s1_top, alpha_sq)
                thm_nogap = lower_bound_unknown_gap(
                    e, e0, s1, p, lambda2, s1top_below=s1_top < s1
                )
                results += [thm_alpha, thm_nogap]
                if p <= lambda2:
                    thm_penalty = lower_bound_penalty(
                        SpectralData(e0, s1, s1_top, lambda2, lambda_p, p, e)
                    )
                    results.append(thm_penalty)
                    assert thm_alpha.raw >= thm_penalty.raw - 1e-9
                    assert thm_penalty.raw >= thm_nogap.raw - 1e-9
                if s1_top < s1 and e < s1_top:
                    assert thm_alpha.raw >= lower_bound_simple(e, e0, s1_top).raw - 1e-9
            for bound in results:
                checks += 1
                if bound.raw > overlap + 1e-9:
                    violations += 1
    print(f"\n[c10] {checks} bound evaluations, {violations} violations")
    assert checks >= 500, f"only {checks} bound evaluations ran"
    assert violations == 0


# ---- c11: surrogate reuse beats rebuilding --------------------------------------


def test_c11_surrogate_reuse_outpaces_rebuilds():
    """On a 300-gate, 20-mode circuit at cutoff 4: re-evaluating a recorded
    sweep at new angles must be at least 20x faster than rebuilding it, and a
    combined energy+gradient evaluation at most 3.5x an energy-only one."""
    rng = np.random.default_rng(9911)
    h = inst.random_molecular_hamiltonian(20, rng)
    circuit = inst.random_circuit(20, 300, rng)
    occ = (1 << 10) - 1
    policy = TruncationPolicy(length_cutoff=4)
    theta = np.asarray(circuit.params, dtype=float)

    t_build, graph = np.inf, None
    for _ in range(3):
        tic = time.perf_counter()
        graph = build_surrogate(h, circuit, occ, policy)
        t_build = min(t_build, time.perf_counter() - tic)
    for _ in range(4):  # trigger compilation and warm the caches
        eval_energy(graph, theta)
        eval_energy_and_gradient(graph, theta)

    def best_of(fn, repeats=7):
        best = np.inf
        for _ in range(repeats):
            tic = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - tic)
        return best

    t_eval = best_of(lambda: eval_energy(graph, theta))
    t_grad = best_of(lambda: eval_energy_and_gradient(graph, theta))
    print(f"\n[c11] build {t_build * 1e3:.0f}ms, eval {t_eval * 1e6:.0f}us, "
          f"grad {t_grad * 1e6:.0f}us | rebuild/re-eval {t_build / t_eval:.0f}x, "
          f"grad/eval {t_grad / t_eval:.2f}x")
    assert t_build >= 20.0 * t_eval
    assert t_grad <= 3.5 * t_eval


# ---- c12: iteration cost scales polynomially ------------------------------------


def test_c12_iteration_cost_scales_polynomially():
    """One gradient-selection iteration at cutoff 4 across system sizes 8 to
    20 modes: the fitted log-log slope of wall time against size must stay at
    or below 8 (the worst case for quartic Hamiltonians and a quartic pool)."""
    tic = time.perf_counter()
    sizes = (8, 12, 16, 20)
    times = []
    for n_modes in sizes:
        n_spatial = n_modes // 2
        n_electrons = n_spatial - (n_spatial % 2)
        tensors = inst.random_restricted_integrals(
            n_spatial, np.random.default_rng(100 + n_modes), n_electrons=n_electrons
        )
        config = RunConfig(max_iterations=1, cutoff=4, selection="gradient")
        best = np.inf
        for _ in range(2):
            result = run_adapt_vmpe(tensors, config)
            rows = result.trajectory.rows
            assert len(rows) == 2, "expected the baseline row plus one iteration"
            best = min(best, rows[1].wall_time_s)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    dt = time.perf_counter() - tic
    print(f"\n[c12] iteration seconds {np.array2string(np.array(times), precision=3)}, "
          f"log-log slope {slope:.2f}  ({dt:.1f}s)")
    assert 0.0 < slope <= 8.0
    assert dt < 1800.0
