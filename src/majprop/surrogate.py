"""Angle-independent surrogate graphs for fast re-evaluation and gradients.

Length truncation reads only keys, so the set of monomials that survive
propagation -- and the copy/cosine/sine branching between them -- depends
only on the circuit structure, never on the angles.  Recording one sweep
therefore yields a layered linear graph: layer k holds the monomials alive
after the k-th processed gate, and each gate contributes three edge families

    copy:  commuting monomials carried through unchanged,
    cos:   anticommuting monomials scaled by cos(theta),
    sin:   new monomials weighted by +/- sin(theta),

so re-evaluating the energy at new angles is a handful of fancy-indexing
passes per gate.  Gradients use a two-copy sweep: the forward pass keeps
each gate's gathered inputs, a rolling adjoint runs backwards, and the
derivative of each gate is two dot products -- at most a threefold
overhead on top of one energy evaluation, independent of the parameter
count.

Building or extending a graph also prunes it once: every monomial with no
branch path to a nonzero sink weight is dropped -- typically the vast
majority, since layers only ever grow while few keys measure.  Energies
and gradients run over the pruned steps, whose layers hold the carried keys
first and the new keys last, so the carried values land in slices.  Every
surviving intermediate value is reproduced bit for bit (each output slot
receives at most a carried value plus one sine branch, so no sum is
reassociated); only the closing dot products see a different summation
tree, leaving energies and gradients equal to the full sweep's to roundoff.
Evaluation never writes to the graph.  The scoring landscapes keep running
over the full recorded steps, since a new gate can turn keys that reach no
sink weight into ones that do.

A graph takes new gates at any cut of its gate list: the steps before the
cut are kept, and the new gates and the rest of the sweep are recorded
from the layer at the cut.  At the end the graph was recorded towards
(front of the circuit in the Heisenberg picture, back in the Schrodinger
picture) that rest is empty.  Scoring inserts nothing: a gate's landscape
at any cut sums the paths of the layer's keys through it that end on a
weighted key, and one kernel finds those paths for a whole pool from the
weighted side and sums them in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from . import _kernels
from .engine import (
    FermionicCircuit,
    Gate,
    Picture,
    TruncationPolicy,
    expand_fock_projector,
    _check_picture,
)
from .operators import SparseOperator

__all__ = [
    "SurrogateGraph",
    "build_surrogate",
    "cut_landscapes",
    "eval_energy",
    "eval_energy_and_gradient",
    "extend_surrogate",
]


@dataclass
class _Step:
    """Edge arrays for one processed gate (all indices are layer positions).

    A pruned step's copy and cosine targets are slices of its output layer.
    """

    slot: int
    copy_src: np.ndarray
    copy_dst: np.ndarray | slice
    cos_src: np.ndarray
    cos_dst: np.ndarray | slice
    sin_src: np.ndarray
    sin_dst: np.ndarray
    sin_w: np.ndarray  # +/-1 branch sign x gate sign x picture sign
    n_in: int
    n_out: int

    @property
    def n_edges(self) -> int:
        return int(self.copy_src.size + self.cos_src.size + self.sin_src.size)


@dataclass
class _Sweep:
    """Source weights, steps and sink weights of one evaluable sweep."""

    source: np.ndarray
    steps: list[_Step]
    sink: np.ndarray


def _keep_masks(graph: SurrogateGraph) -> list[np.ndarray]:
    """Per-layer masks of slots with some branch path to a nonzero sink."""
    masks = [graph.sink != 0.0]
    for step in reversed(graph.steps):
        out = masks[-1]
        prev = np.zeros(step.n_in, dtype=bool)
        prev[step.copy_src[out[step.copy_dst]]] = True
        prev[step.cos_src[out[step.cos_dst]]] = True
        prev[step.sin_src[out[step.sin_dst]]] = True
        masks.append(prev)
    masks.reverse()
    return masks


def _prune(graph: SurrogateGraph) -> _Sweep:
    """The recorded sweep restricted to slots that can reach the sink.

    Each pruned layer lists the kept copy targets, then the kept cosine
    targets, then the kept keys only a sine branch reaches.  A kept carried
    slot always has a kept input, so no edge into a kept slot is lost.
    """
    masks = _keep_masks(graph)
    renum = np.cumsum(masks[0]) - 1  # pruned position of each kept slot
    n_in = int(np.count_nonzero(masks[0]))
    steps = []
    for step, keep in zip(graph.steps, masks[1:]):
        m_copy, m_cos, m_sin = keep[step.copy_dst], keep[step.cos_dst], keep[step.sin_dst]
        copy_dst, cos_dst = step.copy_dst[m_copy], step.cos_dst[m_cos]
        n_copy, n_carried = copy_dst.size, copy_dst.size + cos_dst.size
        n_out = int(np.count_nonzero(keep))
        pos = np.full(step.n_out, -1)
        pos[copy_dst] = np.arange(n_copy)
        pos[cos_dst] = np.arange(n_copy, n_carried)
        pos[keep & (pos < 0)] = np.arange(n_carried, n_out)
        steps.append(
            _Step(
                slot=step.slot,
                copy_src=renum[step.copy_src[m_copy]],
                copy_dst=slice(0, n_copy),
                cos_src=renum[step.cos_src[m_cos]],
                cos_dst=slice(n_copy, n_carried),
                sin_src=renum[step.sin_src[m_sin]],
                sin_dst=pos[step.sin_dst[m_sin]],
                sin_w=step.sin_w[m_sin],
                n_in=n_in,
                n_out=n_out,
            )
        )
        renum, n_in = pos, n_out
    sink = np.zeros(n_in)
    sink[renum[masks[-1]]] = graph.sink[masks[-1]]
    return _Sweep(graph.source[masks[0]], steps, sink)


@dataclass
class SurrogateGraph:
    """Recorded branch structure of one truncated propagation sweep.

    ``steps`` and ``sink`` cover every recorded key; ``pruned`` is the same
    sweep restricted to the keys that reach a nonzero sink weight, and is
    what energies and gradients run over.
    """

    n_modes: int
    picture: str
    occupation: int
    policy: TruncationPolicy
    circuit: FermionicCircuit
    hamiltonian: SparseOperator
    source: np.ndarray
    steps: list[_Step] = field(default_factory=list)
    final_keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    sink: np.ndarray = field(default_factory=lambda: np.empty(0))
    pruned: _Sweep | None = field(default=None, repr=False)

    @property
    def n_slots(self) -> int:
        return int(self.circuit.params.size)

    def stats(self) -> dict:
        """Size summary (for logging and the CLI graph-info output)."""
        layer_sizes = [int(self.source.size)] + [s.n_out for s in self.steps]
        return {
            "picture": self.picture,
            "gates": len(self.steps),
            "max_layer": max(layer_sizes),
            "final_layer": layer_sizes[-1],
            "total_edges": int(sum(s.n_edges for s in self.steps)),
            "parameters": self.n_slots,
        }


def _processed_gates(circuit: FermionicCircuit, picture: str) -> list[Gate]:
    gates = list(circuit.gates)
    return gates[::-1] if picture == "heisenberg" else gates


def _record_step(
    keys: np.ndarray, gate: Gate, sin_sign: float, policy: TruncationPolicy
) -> tuple[np.ndarray, _Step]:
    """Branch one layer's sorted keys through a gate, recording edge positions."""
    gamma = gate.generator
    anti = _kernels.anticommutes_with(gamma, keys)
    cand = keys[anti] ^ np.uint64(gamma)
    keep = policy.survivor_mask(cand)
    kept = cand[keep]
    # merge the sorted layer with the sorted partners it lacks (no hashing)
    partners = np.sort(kept)
    # each new key comes from a distinct source, so sine targets never clash
    if np.any(partners[1:] == partners[:-1]):
        raise RuntimeError(f"sine branches of gate {gamma:#x} collide in one key")
    at = np.minimum(np.searchsorted(keys, partners), keys.size - 1)
    next_keys = np.concatenate([keys, partners[keys[at] != partners]])
    next_keys.sort(kind="stable")
    pos_old = np.searchsorted(next_keys, keys)
    positions = np.arange(keys.size)
    sin_w = (
        _kernels.product_sign_with(gamma, keys[anti])[keep] * sin_sign * gate.sign
    )
    step = _Step(
        slot=gate.slot,
        copy_src=positions[~anti],
        copy_dst=pos_old[~anti],
        cos_src=positions[anti],
        cos_dst=pos_old[anti],
        sin_src=positions[anti][keep],
        sin_dst=np.searchsorted(next_keys, kept),
        sin_w=sin_w,
        n_in=int(keys.size),
        n_out=int(next_keys.size),
    )
    return next_keys, step


def build_surrogate(
    hamiltonian: SparseOperator,
    circuit: FermionicCircuit,
    occupation: int,
    policy: TruncationPolicy | None = None,
    picture: Picture = "heisenberg",
) -> SurrogateGraph:
    """Record the branch structure of one propagation sweep.

    Heisenberg graphs start from the Hamiltonian terms and sink into paired
    eigenvalues on the reference state; Schrodinger graphs start from the
    truncated reference projector and sink into the Hamiltonian
    coefficients.  The truncation rule reads only keys, so the recorded
    branch structure holds at every angle.
    """
    _check_picture(picture)
    policy = (policy or TruncationPolicy()).resolved(picture)
    if picture == "heisenberg":
        keys = hamiltonian.keys.copy()
        source = hamiltonian.coeffs.copy()
    else:
        cutoff = policy.length_cutoff
        budget = (
            hamiltonian.n_modes
            if cutoff is None
            else min(cutoff // 2, hamiltonian.n_modes)
        )
        rho = expand_fock_projector(occupation, hamiltonian.n_modes, budget)
        keys = rho.keys
        source = rho.coeffs
    graph = SurrogateGraph(
        n_modes=hamiltonian.n_modes,
        picture=picture,
        occupation=occupation,
        policy=policy,
        circuit=circuit.copy(),
        hamiltonian=hamiltonian,
        source=source,
    )
    keys, graph.steps = _record(graph, keys, _processed_gates(circuit, picture))
    return _close(graph, keys)


def _record(
    graph: SurrogateGraph, keys: np.ndarray, gates: Sequence[Gate]
) -> tuple[np.ndarray, list[_Step]]:
    """Record ``gates`` in sweep order from the layer ``keys``; returns the
    last layer's keys and the steps."""
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0
    steps = []
    for gate in gates:
        keys, step = _record_step(keys, gate, sin_sign, graph.policy)
        steps.append(step)
    return keys, steps


def _close(graph: SurrogateGraph, keys: np.ndarray) -> SurrogateGraph:
    """Attach the final layer's keys and sink weights, then prune the sweep."""
    graph.final_keys = keys
    graph.sink = _sink_weights(graph, keys)
    graph.pruned = _prune(graph)
    return graph


def _sink_weights(graph: SurrogateGraph, keys: np.ndarray) -> np.ndarray:
    if graph.picture == "heisenberg":
        sink = np.zeros(keys.size)
        paired = _kernels.is_paired(keys)
        sink[paired] = _kernels.paired_eigenvalues(keys[paired], graph.occupation)
        return sink
    h = graph.hamiltonian
    sink = np.zeros(keys.size)
    pos = np.searchsorted(h.keys, keys)
    pos_c = np.minimum(pos, max(len(h) - 1, 0))
    hit = (h.keys[pos_c] == keys) if len(h) else np.zeros(keys.size, bool)
    sink[hit] = (2.0**graph.n_modes) * h.coeffs[pos_c[hit]]
    return sink


def _check_params(graph: SurrogateGraph, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if graph.steps:
        top = max(s.slot for s in graph.steps)
        if top >= params.size:
            raise ValueError(f"parameter slot {top} missing from params")
    return params


def _forward(
    sweep: SurrogateGraph | _Sweep,
    params: np.ndarray,
    depth: int | None = None,
    gathers: list | None = None,
) -> np.ndarray:
    """Layer ``depth`` (default: the final one) of a sweep at the given angles.

    With ``gathers`` given, each step's gathered cosine inputs and signed
    sine inputs are appended to it for the derivative dots.
    """
    angles = params.tolist()  # Python floats: cheaper per-gate indexing
    v = sweep.source
    for step in sweep.steps[:depth]:
        theta = angles[step.slot]
        out = np.zeros(step.n_out)
        out[step.copy_dst] = v[step.copy_src]
        g_cos, g_sin = v[step.cos_src], None
        out[step.cos_dst] = math.cos(theta) * g_cos
        if step.sin_src.size:
            g_sin = step.sin_w * v[step.sin_src]
            out[step.sin_dst] += math.sin(theta) * g_sin
        if gathers is not None:
            gathers.append((g_cos, g_sin))
        v = out
    return v


def eval_energy(graph: SurrogateGraph, params: np.ndarray) -> float:
    """Energy at the given angles from one forward pass over the pruned graph."""
    params = _check_params(graph, params)
    return float(np.dot(_forward(graph.pruned, params), graph.pruned.sink))


def eval_energy_and_gradient(
    graph: SurrogateGraph, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and its gradient w.r.t. every parameter slot, from one
    :func:`_sweep_gradient` over the pruned graph."""
    return _sweep_gradient(graph.pruned, _check_params(graph, params))


def _sweep_gradient(
    sweep: SurrogateGraph | _Sweep, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and gradient from a forward pass and a rolling backward adjoint.

    The derivative of gate k is two dot products between the adjoint on its
    outputs and the inputs the forward pass gathered, accumulated into the
    gate's slot (shared slots sum by the chain rule).
    """
    grad = np.zeros(params.size)
    gathers: list = []
    v = _forward(sweep, params, gathers=gathers)
    energy = float(np.dot(v, sweep.sink))
    w = sweep.sink
    angles = params.tolist()
    for k in range(len(sweep.steps) - 1, -1, -1):
        step = sweep.steps[k]
        theta = angles[step.slot]
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        g_cos, g_sin = gathers[k]
        d_theta = -sin_t * float(np.dot(w[step.cos_dst], g_cos))
        if step.sin_src.size:
            d_theta += cos_t * float(np.dot(w[step.sin_dst], g_sin))
        grad[step.slot] += d_theta
        if k:
            w = _adjoint_step(step, w, cos_t, sin_t)
    return energy, grad


def _adjoint_step(step: _Step, w: np.ndarray, cos_t: float, sin_t: float) -> np.ndarray:
    """Weights on a step's input keys from the weights on its output keys."""
    w_prev = np.zeros(step.n_in)
    w_prev[step.copy_src] = w[step.copy_dst]
    w_prev[step.cos_src] = cos_t * w[step.cos_dst]
    if step.sin_src.size:
        w_prev[step.sin_src] += (step.sin_w * sin_t) * w[step.sin_dst]
    return w_prev


def _cut(graph: SurrogateGraph, where: Literal["front", "back"] | int) -> tuple[int, int]:
    """(gate index, sweep depth) of "front", "back" or a gate index: new
    gates go before that gate, after the first ``depth`` recorded steps."""
    n_gates = len(graph.steps)
    cut = {"front": 0, "back": n_gates}.get(where, where)
    if not isinstance(cut, (int, np.integer)) or not 0 <= cut <= n_gates:
        raise ValueError(f"cannot insert at {where!r}: not front, back or 0..{n_gates}")
    return int(cut), int(n_gates - cut if graph.picture == "heisenberg" else cut)


def extend_surrogate(
    graph: SurrogateGraph, gates: Sequence[Gate], where: Literal["front", "back"] | int
) -> SurrogateGraph:
    """Graph for the circuit with ``gates`` inserted at ``where``.

    ``where`` is "front", "back" or a gate index, and the gates enter the
    sweep in list order, as one row of :func:`cut_landscapes` scores them
    (so a Heisenberg graph, which sweeps the circuit from its back, holds
    them in reverse).  The steps before the cut are kept, and the new gates
    and the rest of the circuit are recorded from the layer at the cut, so
    the result equals a fresh build of the extended circuit.  At the
    natural end (front in the Heisenberg picture, back in the Schrodinger
    picture) only the new gates are recorded.
    """
    cut, depth = _cut(graph, where)
    gates = list(gates)
    circuit = graph.circuit.copy()
    n_slots = max((gate.slot + 1 for gate in gates), default=0)
    circuit.params = np.pad(circuit.params, (0, max(n_slots - circuit.n_slots, 0)))
    circuit.gates[cut:cut] = gates[::-1] if graph.picture == "heisenberg" else gates
    far = _processed_gates(graph.circuit, graph.picture)[depth:]
    keys, steps = _record(graph, _layer_keys(graph, depth), gates + far)
    return _close(replace(graph, circuit=circuit, steps=graph.steps[:depth] + steps), keys)


# [a0, a1, b1, a2, b2] of c^i s^j of the new angle t, row i + 3j: c^2 =
# (1 + cos 2t)/2, s^2 = (1 - cos 2t)/2, cs = (sin 2t)/2 (c^2 s never occurs)
_HARMONICS = np.array([[1.0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0.5, 0, 0, 0.5, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 0, 0.5], [0, 0, 0, 0, 0], [0.5, 0, 0, -0.5, 0]])
_BLOCK = 1 << 18  # paths followed at once


def _layer_keys(graph: SurrogateGraph, depth: int) -> np.ndarray:
    """Keys of layer ``depth``, walked back from the final layer (a step
    carries every input key to its own output slot)."""
    keys = graph.final_keys
    for step in reversed(graph.steps[depth:]):
        prev = np.empty(step.n_in, dtype=np.uint64)
        prev[step.copy_src] = keys[step.copy_dst]
        prev[step.cos_src] = keys[step.cos_dst]
        keys = prev
    return keys


def _far_weights(
    graph: SurrogateGraph, params: np.ndarray, keys: np.ndarray, gates: Sequence[Gate]
) -> np.ndarray:
    """Sink weights pulled back through ``gates`` onto ``keys``.

    The gates are recorded from ``keys`` exactly as a build records them
    (each key branches and truncates on its own), then one adjoint sweep at
    ``params`` carries the sink back to the start.
    """
    keys, steps = _record(graph, keys, gates)
    w = _sink_weights(graph, keys)
    for step in reversed(steps):
        theta = params[step.slot]
        w = _adjoint_step(step, w, math.cos(theta), math.sin(theta))
    return w


def _spans(starts: np.ndarray, counts: np.ndarray):
    """(owner, position) of starts[i] + [0, counts[i]), in chunks of whole owners."""
    ends = np.cumsum(counts)
    first, lo = ends - counts, 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, first[lo] + _BLOCK, "right")))
        owner = np.repeat(np.arange(lo, hi), counts[lo:hi])
        yield owner, starts[owner] + np.arange(owner.size) + first[lo] - first[owner]
        lo = hi


def cut_landscapes(
    graph: SurrogateGraph,
    params: np.ndarray,
    where: Literal["front", "back"] | int,
    gate_sets: Sequence[Sequence[Gate]],
) -> np.ndarray:
    """Landscape coefficients of each gate set inserted at ``where``.

    Row k holds [a0, a1, b1, a2, b2] of E(t) = a0 + a1 cos t + b1 sin t +
    a2 cos 2t + b2 sin 2t for the (at most two) gates of ``gate_sets[k]``
    entering the sweep in list order at the cut with one new angle t
    (``where`` is "front", "back" or the index of the gate the set goes
    before, as for :func:`extend_surrogate`).  E(t) sums v(x) c^i s^j w(z)
    over the paths of the live keys x of the layer at the cut that end on
    a key z = x ^ gamma_F of nonzero weight (F: the gates whose sine branch
    the path takes).  At the Heisenberg natural end w weighs paired keys,
    and z is paired iff x has gamma_F's pairing defect.  Elsewhere the far
    half of the sweep, recorded once from the layer's keys and all their
    partners, pulls the sink back onto them as a fresh build of the
    extended circuit would, and each weighted z ^ gamma_F is looked up.
    """
    params = _check_params(graph, params)
    _, depth = _cut(graph, where)
    v = _forward(graph, params, depth=depth)
    live = v != 0.0
    keys, v = _layer_keys(graph, depth)[live], v[live]
    gens, signs = np.zeros((len(gate_sets), 2), np.uint64), np.ones((len(gate_sets), 2))
    for row, gates in enumerate(gate_sets):
        if len(gates) > 2:
            raise ValueError("landscapes are resolved for at most two gates")
        for k, gate in enumerate(gates):
            gens[row, k], signs[row, k] = gate.generator, gate.sign
    # pattern 4 * row + F; a lone gate pairs with the identity, which has no sine branch
    sine = (np.arange(4)[:, None] >> np.arange(2)) & 1 == 1
    valid = ~(sine & (gens[:, None] == 0)).any(2).ravel()
    gamma = np.bitwise_xor.reduce(np.where(sine, gens[:, None], 0), axis=2).ravel()
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0

    def walk(pattern, ix):
        """Paths of the keys ``keys[ix]`` through the pairs ``gens[pattern >> 2]``,
        taking gate k's sine branch where bit k of ``pattern`` is set: each
        path's final key, whether it exists (a sine branch needs an
        anticommuting gate and a kept partner), its harmonic and its sign."""
        row, key = pattern >> 2, keys[ix]
        harmonic, sign = np.zeros(ix.size, int), np.ones(ix.size)
        exists = np.ones(ix.size, bool)
        for k in (0, 1):
            gen, flip = gens[row, k], (pattern >> k) & 1 == 1
            harmonic += _kernels.anticommutes_with(gen, key) & ~flip
            at = np.flatnonzero(flip)
            src, gen = key[at], gen[at]
            key = key.copy()
            key[at] = partner = src ^ gen
            kept = graph.policy.survivor_mask(partner)
            exists[at] &= _kernels.anticommutes_with(gen, src) & kept
            sign[at] *= sin_sign * signs[row[at], k] * _kernels.product_sign_with(gen, src)
            harmonic[at] += 3
        return key, exists, harmonic, sign

    if depth == len(graph.steps) and graph.picture == "heisenberg":
        defect = _kernels.pairing_defect(keys)
        order = np.argsort(defect, kind="stable")
        target = _kernels.pairing_defect(gamma)
        starts = np.searchsorted(defect[order], target, "left")
        counts = np.where(valid, np.searchsorted(defect[order], target, "right") - starts, 0)

        def resolve(pattern, pos):
            ix = order[pos]
            return pattern, ix, _sink_weights(graph, keys[ix] ^ gamma[pattern])
    else:
        split = np.where(valid & (np.arange(valid.size) % 4 > 0), keys.size, 0)
        partners = [keys]
        for pattern, ix in _spans(np.zeros_like(split), split):
            z, exists, _, _ = walk(pattern, ix)
            partners.append(z[exists])
        weighted = np.unique(np.concatenate(partners))
        far = _processed_gates(graph.circuit, graph.picture)[depth:]
        weights = _far_weights(graph, params, weighted, far)
        weighted, weights = weighted[weights != 0.0], weights[weights != 0.0]
        starts, counts = np.zeros(valid.size, int), np.where(valid, weighted.size, 0)

        def resolve(pattern, pos):
            x = weighted[pos] ^ gamma[pattern]
            at = np.minimum(np.searchsorted(keys, x), keys.size - 1)
            hit = keys[at] == x
            return pattern[hit], at[hit], weights[pos[hit]]

    sums = np.zeros((valid.size, 7))
    for pattern, pos in _spans(starts, counts):
        pattern, ix, weight = resolve(pattern, pos)
        _, exists, harmonic, sign = walk(pattern, ix)
        values = np.where(exists, v[ix] * sign * weight, 0.0)
        sums += np.bincount(7 * pattern + harmonic, values, sums.size).reshape(-1, 7)
    rows = sums.reshape(-1, 4, 7).sum(1)  # each row's patterns in order, whatever the batch
    return (rows[:, :, None] * _HARMONICS).sum(1)
