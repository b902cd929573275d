"""Angle-independent surrogate graphs for fast re-evaluation and gradients.

Length truncation reads only keys, so the set of monomials that survive
propagation -- and the cosine/sine branching between them -- depends only
on the circuit structure, never on the angles.  A gate leaves commuting
monomials alone and maps each anticommuting one to cos(theta) times itself
plus +/- sin(theta) times its partner k ^ gamma, which anticommutes too.
Layers only grow, so one vector over the final layer's keys holds every
layer (a key not created yet holds 0), and recording one sweep yields one
in-place update per gate of the keys z it touches,

    v[z] = cos(theta) v[z] + sin(theta) sw v[z ^ gamma],

where the sign sw is +/-1 where the sine branch lands (z ^ gamma is in the
layer before and the truncation rule keeps z) and 0 elsewhere.  The keys
are numbered in birth order (the source's, then each gate's new ones), so
every layer is a prefix of the final one and a key never moves as the
graph grows; a sorted view (the keys in ascending order with their
positions) serves every lookup by key.  The recorded steps store int32
positions and int8 signs.  For gradients the forward pass keeps each
gate's gathered inputs, an in-place adjoint runs backwards, and the
derivative of each gate is two dot products -- at most a threefold
overhead on top of one energy evaluation, independent of the parameter
count.

Building or extending a graph also prunes it once: every key with no
branch path to a nonzero sink weight is dropped -- typically the vast
majority, since layers only ever grow while few keys measure -- and so is
every update of a key that reaches no sink weight from that gate on,
unless a kept sine branch reads it.  The kept keys are numbered in
ascending key order.  Pruning is one backward pass over every recorded
entry.  Energies and gradients run over the pruned steps.
Every value that still reaches the sink is reproduced bit for bit; only
the closing dot products see a different summation tree, leaving energies
and gradients equal to the full sweep's to roundoff.  Evaluation never
writes to the graph.  The scoring landscapes keep running over the full
recorded steps, since a new gate can turn keys that reach no sink weight
into ones that do.

A graph takes new gates at any cut of its gate list: the steps before the
cut are kept as they are, and the new gates and the rest of the sweep,
read off the steps, which hold their gates, are recorded from the layer at
the cut.  At the natural end, the end the graph was recorded towards (front
of the circuit in the Heisenberg picture, back in the Schrodinger
picture), that rest is empty: an insertion records its new gates from the
final layer, re-indexes no kept step, and then prunes the grown graph.  A
build is the insertion of the whole circuit into the source layer.

Scoring inserts nothing: a gate's landscape at any cut sums the paths of
the layer's keys through it that end on a key of nonzero weight after the
rest of the sweep, and one kernel sums them for a whole pool.  The paths
that take no sine branch end where they start, on the same keys for every
candidate, so one (candidates x keys) table sums them; the kernel finds
the others from the sink side and walks them.  In the Heisenberg picture
a path can end on a paired key only if its pairing defect lies in the
span of the remaining gates' defects, so the layer is bucketed by defect
modulo that span; in the Schrodinger picture the Hamiltonian's weighed
keys are closed backward through the remaining gates.  Only the keys
found so record the rest of the sweep.

The Hamiltonian's coefficients are the source of a Heisenberg graph and,
scaled by 2^n, the sink of a Schrodinger graph.  Every evaluation takes
them at its angles through ``hamiltonian.linearize``, and a gradient their
pullback.  A :class:`SparseOperator` owns no angles: its coefficients are
fixed and it has no pullback.  A :class:`hamiltonian.DressedHamiltonian`
makes them functions of the angles of an orbital-rotation block folded into
the integrals, so the graph is recorded over every key it can weigh.
Pruning restricts the Hamiltonian to the keys the pruned sweep weighs (for
a dressed one, a few hundred of the map's thousands of rows), so energies
and gradients dress only those; scoring, which reads the full recorded
sweep, dresses every key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from . import _kernels
from .engine import (
    FermionicCircuit,
    Gate,
    Picture,
    TruncationPolicy,
    _check_picture,
    _reference_projector,
)
from .hamiltonian import DressedHamiltonian
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
    """The in-place update of the key vector by the step's ``gate``.

    ``z`` indexes the keys the gate updates (the anticommuting keys of the
    layer after it), in ascending key order.  ``p`` points each entry at
    the entry of its partner z ^ gamma, or at itself where the partner is
    not there, so it pairs the entries off.  ``sw`` is the sign (branch x
    gate x picture) of the sine branch from the partner where it lands on
    z -- the partner is in the layer before and the truncation rule keeps
    z -- and 0 elsewhere.  A recorded step stores them compactly (int32
    positions, int8 signs: 9 bytes an entry); a pruned one, which energies
    and gradients run over, as intp positions and float64 signs.
    """

    gate: Gate
    z: np.ndarray
    p: np.ndarray
    sw: np.ndarray


@dataclass
class _Sweep:
    """Source weights, steps and sink weights of one evaluable sweep.

    ``ham_at`` holds the positions of the Hamiltonian's weighed keys in the
    key vector, and ``ham_of`` their indices in ``hamiltonian.keys``, which
    is the graph's Hamiltonian restricted to those keys.
    """

    source: np.ndarray
    steps: list[_Step]
    sink: np.ndarray
    ham_at: np.ndarray
    ham_of: np.ndarray
    hamiltonian: SparseOperator | DressedHamiltonian


def _prune(graph: SurrogateGraph) -> _Sweep:
    """The recorded sweep restricted to what can reach the sink.

    One backward pass over every recorded entry marks the keys with a
    branch path to a sink weight that can be nonzero (in the Schrodinger
    picture, every key the Hamiltonian weighs, whatever its value now).  A
    key that reaches it from one layer also reaches it from every earlier
    layer it is in (its cosine branch carries it), so a mark taken at a
    step says whether the key still reaches the sink after that gate.  A
    step keeps the updates of such keys and of the partners their sine
    branches read; the others only touch values no weight reads.  The
    marked keys are renumbered in ascending key order, and the Hamiltonian
    is restricted to the kept keys it weighs, so that evaluations dress
    only those (multiply only those rows of a dressed Hamiltonian's map).
    A build and every insertion run this pass.
    """
    need = graph.sink != 0.0
    if graph.picture == "schrodinger":
        need[graph.ham_at] = True
    kept = []
    for step in reversed(graph.steps):
        step = _widened(step)
        mark = need[step.z]
        lands = mark & (step.sw != 0)
        need[step.z[step.p[lands]]] = True
        kept.append(np.flatnonzero(mark | lands[step.p]))
    # few keys are needed: sort them by key rather than walk the whole sorted view
    at = np.flatnonzero(need)
    at = at[np.argsort(graph.final_keys[at])]
    renum = np.zeros(need.size, np.int32)  # one per recorded key, so as narrow as positions
    renum[at] = np.arange(at.size)
    steps = []
    for step, entries in zip(graph.steps, reversed(kept)):
        # a kept entry whose partner is dropped reads no sine branch: it pairs with itself
        own, slot_of = np.arange(entries.size), np.full(step.z.size, -1, np.int32)
        slot_of[entries] = own
        partner = slot_of[step.p[entries].astype(np.intp)]
        steps.append(_Step(
            step.gate, renum[step.z[entries].astype(np.intp)].astype(np.intp),
            np.where(partner >= 0, partner, own), step.sw[entries].astype(np.float64),
        ))
    held = need[graph.ham_at]
    return _Sweep(
        graph.source[at], steps, graph.sink[at], renum[graph.ham_at[held]].astype(np.intp),
        np.arange(np.count_nonzero(held)), graph.hamiltonian.restrict(graph.ham_of[held]),
    )


@dataclass
class SurrogateGraph:
    """Recorded branch structure of one truncated propagation sweep.

    ``final_keys`` holds every recorded key in birth order: the source's
    keys, then each step's new keys in ascending order.  A layer holds the
    keys born up to it, so layer d is the first ``layer_sizes[d]`` of them,
    and a recorded key keeps its position as the graph grows.  The sorted
    view, ``sorted_keys`` and their positions ``order``, serves every
    lookup by key.  ``source``, ``sink``, ``ham_at`` and the indices of
    ``steps`` all address ``final_keys``.  ``pruned`` is the same sweep
    restricted to the keys that reach a sink weight, numbered in ascending
    key order, with its own Hamiltonian restricted to those keys, and is
    what energies and gradients run over.  The Hamiltonian's side (source
    in the Heisenberg picture, sink in the Schrodinger picture) holds its
    coefficients as built (those of a dressed Hamiltonian at zero rotation
    angles); every evaluation rebuilds it from ``hamiltonian.linearize`` at
    its own angles (:func:`_ends`).  The graph holds no angle: each step
    holds its gate, and ``gates`` reads the circuit's gates off the steps.
    """

    n_modes: int
    picture: str
    occupation: int
    policy: TruncationPolicy
    hamiltonian: SparseOperator | DressedHamiltonian
    source: np.ndarray
    steps: list[_Step] = field(default_factory=list)
    final_keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    sorted_keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    order: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    layer_sizes: list[int] = field(default_factory=list)
    sink: np.ndarray = field(default_factory=lambda: np.empty(0))
    ham_at: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    ham_of: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pruned: _Sweep | None = field(default=None, repr=False)

    @property
    def gates(self) -> list[Gate]:
        """The recorded gates in circuit order: the sweep's, reversed for Heisenberg."""
        gates = [step.gate for step in self.steps]
        return gates[::-1] if self.picture == "heisenberg" else gates

    @property
    def n_slots(self) -> int:
        """Angles an evaluation reads: those of the gates and the Hamiltonian's."""
        return max([self.hamiltonian.n_slots] + [step.gate.slot + 1 for step in self.steps])

    def stats(self) -> dict:
        """Size summary (the benchmark's tracer reads it); layers only grow,
        so the final one is the widest, and the edges count each update and
        each landing sine branch."""
        return {
            "picture": self.picture,
            "gates": len(self.steps),
            "max_layer": int(self.final_keys.size),
            "final_layer": int(self.final_keys.size),
            "total_edges": int(sum(s.z.size + np.count_nonzero(s.sw) for s in self.steps)),
            "parameters": self.n_slots,
        }


_MAX_POSITION = np.iinfo(np.int32).max


def _record_step(
    keys: np.ndarray, order: np.ndarray, gate: Gate, sin_sign: float, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Step]:
    """Branch one layer through a gate, given as its sorted ``keys`` and
    their positions ``order``: the next layer the same way, its new keys
    (ascending, numbered on from ``keys.size``) and the step."""
    odd = _kernels.anticommutes_with(np.uint64(gate.generator), keys)
    new, step = _branch(keys[odd], order[odd], keys.size, gate, sin_sign, policy)
    old = _slots(keys, new)
    next_order = _interleave(old, order, np.arange(keys.size, old.size), np.int32)
    return _interleave(old, keys, new, keys.dtype), next_order, new, step


def _branch(
    a: np.ndarray, at: np.ndarray, size: int, gate: Gate, sin_sign: float, policy: TruncationPolicy
) -> tuple[np.ndarray, _Step]:
    """The keys a gate creates from a layer of ``size`` keys, ascending,
    and its step, given the layer's sorted anticommuting keys ``a`` at
    positions ``at``.

    The gate updates the ``a`` and the keys it creates.  Each a sends a
    sine branch to its partner a ^ gamma, which anticommutes too, so a
    partner already in the layer is one of the ``a``; the branch lands on
    the partner, or creates it, where the truncation rule keeps it.  So
    partners are looked up among the ``a`` alone.
    """
    gamma = np.uint64(gate.generator)
    # distinct sources send their sine branches to distinct keys
    if np.any(a[1:] == a[:-1]):
        raise RuntimeError(f"sine branches of gate {gate.generator:#x} collide in one key")
    partner = a ^ gamma
    mate, there = _lookup(a, partner)
    src = np.flatnonzero(~there & policy.survivor_mask(partner))
    src = src[np.argsort(partner[src])]  # sources of the new keys, which come out ascending
    new = partner[src]
    if size + new.size > _MAX_POSITION:
        raise OverflowError(f"a layer of {size + new.size} keys outgrows int32 positions")
    was = _slots(a, new)
    ia, inew = np.flatnonzero(was), np.flatnonzero(~was)
    p = np.arange(was.size, dtype=np.int32)
    p[ia[there]] = ia[mate[there]]
    p[ia[src]], p[inew] = inew, ia[src]
    # a sine branch lands on an a whose partner is in the layer where the rule
    # keeps the a, and on every new key; its sign is read off its source
    lands = np.flatnonzero(there & policy.survivor_mask(a))
    sw = np.zeros(was.size, np.int8)
    sw[np.concatenate([ia[lands], inew])] = _kernels.product_sign_with(
        gamma, np.concatenate([partner[lands], a[src]])
    ) * sin_sign * gate.sign
    z = _interleave(was, at, np.arange(size, size + new.size), np.int32)
    return new, _Step(gate, z, p, sw)


def _slots(keys: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Where the sorted ``keys`` go when the sorted ``new`` keys, none of
    them among ``keys``, are merged in: a mask over the merged array."""
    old = np.ones(keys.size + new.size, bool)
    old[np.searchsorted(keys, new) + np.arange(new.size)] = False
    return old


def _interleave(old: np.ndarray, values: np.ndarray, new: np.ndarray, dtype) -> np.ndarray:
    """``values`` at the ``old`` slots of the mask and ``new`` at the others."""
    if not new.size:
        return values.astype(dtype, copy=False)
    merged = np.empty(old.size, dtype)
    merged[old], merged[~old] = values, new
    return merged


def _merge(keys: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Union of two sorted, duplicate-free key arrays (no hashing)."""
    new = new[~_lookup(keys, new)[1]]
    return _interleave(_slots(keys, new), keys, new, keys.dtype)


def _lookup(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each ``x`` in the sorted ``keys``, and whether it is there."""
    if not keys.size:
        return np.zeros(x.shape, int), np.zeros(x.shape, bool)
    at = np.minimum(np.searchsorted(keys, x), keys.size - 1)
    return at, keys[at] == x


def build_surrogate(
    hamiltonian: SparseOperator | DressedHamiltonian,
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
    branch structure holds at every angle.  Terms of weight 0 are left out
    while no angle moves the coefficients; a Hamiltonian with parameter
    slots (a dressed one) weighs all its keys.  The build is the insertion
    of the whole circuit, in sweep order, into the source layer.
    """
    _check_picture(picture)
    policy = (policy or TruncationPolicy()).resolved(picture)
    if picture == "heisenberg":
        weighed = _weighed(hamiltonian)
        first, weights = hamiltonian.keys[weighed], hamiltonian.coeffs[weighed]
    else:
        start = _reference_projector(occupation, hamiltonian.n_modes, policy)
        nonzero = start.coeffs != 0.0
        first, weights = start.keys[nonzero], start.coeffs[nonzero]
    graph = SurrogateGraph(
        n_modes=hamiltonian.n_modes,
        picture=picture,
        occupation=occupation,
        policy=policy,
        hamiltonian=hamiltonian,
        source=weights,
        layer_sizes=[first.size],
    )
    _attach(graph, first, first, np.arange(first.size, dtype=np.int32), np.empty(0))
    gates = circuit.gates[::-1] if picture == "heisenberg" else circuit.gates
    return extend_surrogate(graph, gates, 0)


def _weighed(hamiltonian: SparseOperator | DressedHamiltonian) -> np.ndarray:
    """Which of the Hamiltonian's keys can carry a nonzero weight: the
    nonzero terms, or every term once angles move the coefficients."""
    return (hamiltonian.coeffs != 0.0) | (hamiltonian.n_slots > 0)


def _ends(
    graph: SurrogateGraph, sweep: SurrogateGraph | _Sweep, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A sweep's source and sink weights with the Hamiltonian's
    coefficients ``coeffs`` on its side."""
    weights = np.zeros(sweep.source.size)
    if graph.picture == "heisenberg":
        weights[sweep.ham_at] = coeffs[sweep.ham_of]
        return weights, sweep.sink
    weights[sweep.ham_at] = (2.0**graph.n_modes) * coeffs[sweep.ham_of]
    return sweep.source, weights


def _record(
    graph: SurrogateGraph,
    keys: np.ndarray,
    sorted_keys: np.ndarray,
    order: np.ndarray,
    gates: Sequence[Gate],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[_Step], list[int]]:
    """Record ``gates`` in sweep order from the layer ``keys`` (in birth
    order) with its sorted view, ``sorted_keys`` at positions ``order``.
    Returns the last layer's keys (``keys``, then each gate's new keys in
    ascending order), which hold every key the sweep met, their sorted
    view, the steps, indexed against those keys, and the size of the layer
    after each step."""
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0
    born, steps, sizes = [keys], [], []
    for gate in gates:
        sorted_keys, order, new, step = _record_step(
            sorted_keys, order, gate, sin_sign, graph.policy
        )
        born.append(new)
        steps.append(step)
        sizes.append(sorted_keys.size)
    return np.concatenate(born), sorted_keys, order, steps, sizes


def _attach(
    graph: SurrogateGraph,
    keys: np.ndarray,
    sorted_keys: np.ndarray,
    order: np.ndarray,
    sink: np.ndarray,
) -> None:
    """Attach the final layer, ``keys`` in birth order with their sorted
    view, and where the Hamiltonian weighs them.  The source weights stay on
    the first layer's keys; ``sink`` holds the sink weights of the first
    keys, and those of the others are computed."""
    first = graph.layer_sizes[0]
    graph.source = np.concatenate([graph.source[:first], np.zeros(keys.size - first)])
    graph.sink = np.concatenate(
        [sink, _sink_weights(graph, keys[sink.size:], graph.hamiltonian.coeffs)]
    )
    graph.final_keys, graph.sorted_keys, graph.order = keys, sorted_keys, order
    at, hit = _lookup(sorted_keys, graph.hamiltonian.keys)
    hit &= _weighed(graph.hamiltonian)
    graph.ham_at, graph.ham_of = order[at[hit]].astype(np.intp), np.flatnonzero(hit)


def _sink_weights(graph: SurrogateGraph, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sink weights of ``keys``, the Hamiltonian's coefficients ``coeffs``
    where the Schrodinger picture reads them."""
    sink = np.zeros(keys.size)
    if graph.picture == "heisenberg":
        paired = _kernels.is_paired(keys)
        sink[paired] = _kernels.paired_eigenvalues(keys[paired], graph.occupation)
    else:
        at, hit = _lookup(graph.hamiltonian.keys, keys)
        sink[hit] = (2.0**graph.n_modes) * coeffs[at[hit]]
    return sink


def _check_params(graph: SurrogateGraph, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if graph.n_slots > params.size:
        raise ValueError(f"parameter slot {graph.n_slots - 1} missing from params")
    return params


def _widened(step: _Step) -> _Step:
    """A recorded step with intp positions, for a sweep over the recorded
    steps: numpy indexes with int32 arrays several times slower."""
    return _Step(step.gate, step.z.astype(np.intp), step.p.astype(np.intp), step.sw)


def _forward(
    source: np.ndarray,
    steps: Iterable[_Step],
    params: np.ndarray,
    gathers: list | None = None,
) -> np.ndarray:
    """Key vector after ``steps`` from ``source`` at the given angles.

    With ``gathers`` given, each step's gathered inputs v[z] are appended
    to it for the derivative dots.
    """
    angles = params.tolist()  # Python floats: cheaper per-gate indexing
    v = source.copy()
    for step in steps:
        theta = angles[step.gate.slot]
        g = v[step.z]
        v[step.z] = math.cos(theta) * g + math.sin(theta) * (step.sw * g[step.p])
        if gathers is not None:
            gathers.append(g)
    return v


def _backward(
    steps: Iterable[_Step],
    w: np.ndarray,
    params: np.ndarray,
    gathers: Iterator[np.ndarray] | None = None,
) -> np.ndarray | None:
    """Pull the weights ``w`` back through ``steps``, given last first, at
    the given angles, in place: the adjoint of :func:`_forward`.

    ``p`` pairs the entries off, so the sine branches landing on z carry
    back to their partners through ``p`` itself.  With ``gathers``, the
    inputs a forward pass gathered (also last first), returns the gradient:
    the derivative of a gate is two dot products between its inputs and
    the adjoint's cosine and sine parts, accumulated into the gate's slot
    (shared slots sum by the chain rule).
    """
    angles = params.tolist()
    grad = None if gathers is None else np.zeros(params.size)
    for step in steps:
        theta = angles[step.gate.slot]
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        w_z = w[step.z]
        w_p = (step.sw * w_z)[step.p]
        w[step.z] = cos_t * w_z + sin_t * w_p
        if grad is not None:
            g = next(gathers)
            grad[step.gate.slot] += cos_t * g.dot(w_p) - sin_t * g.dot(w_z)
    return grad


def eval_energy(graph: SurrogateGraph, params: np.ndarray) -> float:
    """Energy at the given angles from one forward pass over the pruned graph."""
    params = _check_params(graph, params)
    sweep = graph.pruned
    source, sink = _ends(graph, sweep, sweep.hamiltonian.linearize(params)[0])
    return float(np.dot(_forward(source, sweep.steps, params), sink))


def eval_energy_and_gradient(
    graph: SurrogateGraph, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and its gradient w.r.t. every parameter slot, from one
    :func:`_sweep_gradient` over the pruned graph."""
    return _sweep_gradient(graph, graph.pruned, _check_params(graph, params))


def _sweep_gradient(
    graph: SurrogateGraph, sweep: SurrogateGraph | _Sweep, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and gradient from a forward pass and an in-place backward adjoint.

    A dressed Hamiltonian's angles get the pullback of dE/d(coefficients):
    the adjoint on the source layer (Heisenberg), or 2^n times the forward
    vector at the sink (Schrodinger).
    """
    coeffs, pullback = sweep.hamiltonian.linearize(params)
    source, sink = _ends(graph, sweep, coeffs)
    gathers: list = []
    v = _forward(source, sweep.steps, params, gathers)
    energy = float(np.dot(v, sink))
    w = sink.copy()
    grad = _backward(reversed(sweep.steps), w, params, reversed(gathers))
    if pullback is not None:
        dcoeffs = np.zeros(coeffs.size)
        if graph.picture == "heisenberg":
            dcoeffs[sweep.ham_of] = w[sweep.ham_at]
        else:
            dcoeffs[sweep.ham_of] = (2.0**graph.n_modes) * v[sweep.ham_at]
        grad += pullback(dcoeffs)
    return energy, grad


def _cut(graph: SurrogateGraph, where: Literal["front", "back"] | int) -> int:
    """Sweep depth of "front", "back" or a gate index: new gates go before
    that gate, after the first ``depth`` recorded steps."""
    n_gates = len(graph.steps)
    cut = {"front": 0, "back": n_gates}.get(where, where)
    if not isinstance(cut, (int, np.integer)) or not 0 <= cut <= n_gates:
        raise ValueError(f"cannot insert at {where!r}: not front, back or 0..{n_gates}")
    return int(n_gates - cut if graph.picture == "heisenberg" else cut)


def _layer_keys(
    graph: SurrogateGraph, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys of layer ``depth`` in birth order, the first keys of the final
    layer, and their sorted view (keys and positions)."""
    size = graph.layer_sizes[depth]
    if size == graph.final_keys.size:
        return graph.final_keys, graph.sorted_keys, graph.order
    born = graph.order < size
    return graph.final_keys[:size], graph.sorted_keys[born], graph.order[born]


def extend_surrogate(
    graph: SurrogateGraph, gates: Sequence[Gate], where: Literal["front", "back"] | int
) -> SurrogateGraph:
    """Graph for the circuit with ``gates`` inserted at ``where``.

    ``where`` is "front", "back" or a gate index, and the gates enter the
    sweep in list order, as one row of :func:`cut_landscapes` scores them
    (so a Heisenberg graph, which sweeps the circuit from its back, holds
    them in reverse).  The steps before the cut are kept as they are, since
    the layer at the cut is the first keys of the final one, and the new
    gates and the rest of the circuit, read off the steps after the cut,
    are recorded from that layer, so the result equals a fresh build of the
    extended circuit, array for array.  At the natural end (front in the
    Heisenberg picture, back in the Schrodinger picture) only the new gates
    are recorded, from the whole final layer.  Every insertion then prunes
    the whole graph anew (:func:`_prune`).
    """
    depth = _cut(graph, where)
    far = [step.gate for step in graph.steps[depth:]]
    keys, sorted_keys, order, steps, sizes = _record(
        graph, *_layer_keys(graph, depth), list(gates) + far
    )
    grown = replace(
        graph, steps=graph.steps[:depth] + steps,
        layer_sizes=graph.layer_sizes[: depth + 1] + sizes,
    )
    _attach(grown, keys, sorted_keys, order, graph.sink[: graph.layer_sizes[depth]])
    grown.pruned = _prune(grown)
    return grown


# [a0, a1, b1, a2, b2] of c^i s^j of the new angle t, row i + 3j: c^2 =
# (1 + cos 2t)/2, s^2 = (1 - cos 2t)/2, cs = (sin 2t)/2 (c^2 s never occurs)
_HARMONICS = np.array([[1.0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0.5, 0, 0, 0.5, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 0, 0.5], [0, 0, 0, 0, 0], [0.5, 0, 0, -0.5, 0]])
_BLOCK = 1 << 15  # paths followed at once


def _far_weights(
    graph: SurrogateGraph,
    params: np.ndarray,
    coeffs: np.ndarray,
    keys: np.ndarray,
    gates: Sequence[Gate],
) -> np.ndarray:
    """Sink weights pulled back through ``gates`` onto the sorted ``keys``.

    The gates are recorded from ``keys`` exactly as a build records them,
    then one adjoint sweep at ``params`` carries the sink, with the
    Hamiltonian's coefficients ``coeffs``, back to the start.  Each key
    branches and truncates on its own, so the weight a key gets depends
    only on the key, not on which other keys are recorded with it: any set
    of keys holding the ones a caller reads gives those bit-identical
    weights.
    """
    last, _, _, steps, _ = _record(graph, keys, keys, np.arange(keys.size, dtype=np.int32), gates)
    w = _sink_weights(graph, last, coeffs)
    _backward(map(_widened, reversed(steps)), w, params)
    return w[: keys.size]


def _spans(starts: np.ndarray, counts: np.ndarray):
    """(owner, position) of starts[i] + [0, counts[i]), in chunks of whole owners."""
    ends = np.cumsum(counts)
    first, lo = ends - counts, 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, first[lo] + _BLOCK, "right")))
        owner = np.repeat(np.arange(lo, hi), counts[lo:hi])
        yield owner, starts[owner] + np.arange(owner.size) + first[lo] - first[owner]
        lo = hi


def _echelon(vectors: Sequence[int]) -> list[tuple[int, int]]:
    """Reduced row-echelon basis of the GF(2) span of ``vectors``: pairs
    (pivot bit, vector), where each vector's highest bit is its pivot and
    no other vector has that bit set."""
    basis: list[tuple[int, int]] = []
    for x in vectors:
        for bit, b in basis:
            if x >> bit & 1:
                x ^= b
        if x:
            top = x.bit_length() - 1
            basis = [(bit, b ^ x if b >> top & 1 else b) for bit, b in basis]
            basis.append((top, x))
    return basis


def _coset(x: np.ndarray, basis: list[tuple[int, int]]) -> np.ndarray:
    """Canonical representative of each ``x`` modulo the span of ``basis``
    (from :func:`_echelon`): x with every pivot bit cleared by its vector,
    so two keys share it exactly when their XOR lies in the span."""
    x = np.array(x, dtype=np.uint64)
    for bit, b in basis:
        x ^= np.where(x >> np.uint64(bit) & np.uint64(1) == 1, np.uint64(b), np.uint64(0))
    return x


def _sources(graph: SurrogateGraph, keys: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Sorted keys from which a sweep through ``gates`` can reach one of the
    sorted ``keys``, closed backward from the last gate: a key y after gate
    gamma came from y, or from y ^ gamma where y anticommutes with gamma
    and the truncation rule keeps y."""
    for gate in reversed(gates):
        gamma = np.uint64(gate.generator)
        came = keys[_kernels.anticommutes_with(gamma, keys) & graph.policy.survivor_mask(keys)]
        keys = _merge(keys, np.sort(came ^ gamma))
    return keys


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
    before, as for :func:`extend_surrogate`).  Only the gates' generators
    and signs matter; :func:`landscape_rows` computes the rows from those.
    """
    pairs = gate_pairs([[(gate.generator, gate.sign) for gate in gates] for gates in gate_sets])
    return landscape_rows(graph, params, where, *pairs)


def gate_pairs(gate_sets: Sequence[Sequence[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
    """Gate sets of (generator, sign) pairs as the read-only (rows, 2) arrays
    :func:`landscape_rows` reads; a lone gate pairs with the identity."""
    generators, signs = np.zeros((len(gate_sets), 2), np.uint64), np.ones((len(gate_sets), 2))
    for row, gates in enumerate(gate_sets):
        if len(gates) > 2:
            raise ValueError("landscapes are resolved for at most two gates")
        for k, (generator, sign) in enumerate(gates):
            generators[row, k], signs[row, k] = generator, sign
    generators.flags.writeable = signs.flags.writeable = False
    return generators, signs


def landscape_rows(
    graph: SurrogateGraph,
    params: np.ndarray,
    where: Literal["front", "back"] | int,
    generators: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Landscape rows, as :func:`cut_landscapes` gives them, of the gate
    pairs ``generators[k]`` with gate signs ``signs[k]`` ((rows, 2) arrays;
    generator 0, the identity, leaves a lone gate).

    E(t) sums v(x) c^i s^j w(z) over the paths of the live keys x of the
    layer at the cut that end on a key z = x ^ gamma_F of nonzero weight
    (F: the gates whose sine branch the path takes); w is the sink pulled
    back through the far half of the sweep, as a fresh build of the
    extended circuit would record it.  A path with F empty takes only
    cosine branches and ends where it starts, so every row reads the same
    keys for it: those of the layer with a nonzero weight.  Those paths are
    summed as one (rows x keys) table of f = v w over the count of gates
    each key anticommutes with.  The other paths are found from the sink
    side and walked one by one.  In the Heisenberg picture z can end
    paired only if its pairing defect lies in the span of the far gates'
    defects, so the layer is bucketed by defect modulo that span, each
    (row, F) walks the bucket of gamma_F's defect, and the table reads the
    bucket of defect 0; at the natural end the span is {0} and w is the
    sink itself, elsewhere the far half is recorded once from the
    endpoints of the walked paths and the table's keys.  In the
    Schrodinger picture the far half is recorded from the keys that reach
    a weighted Hamiltonian key through it (the Hamiltonian's own keys at
    the natural end); each weighted z ^ gamma_F is looked up, and the
    table reads the weighted keys in the layer.  Both sums run in
    ascending key order and in chunks of whole rows, so a row does not
    depend on the others.
    """
    params = _check_params(graph, params)
    depth = _cut(graph, where)
    gens, signs = np.asarray(generators, np.uint64), np.asarray(signs, np.float64)
    coeffs = graph.hamiltonian.linearize(params)[0]
    recorded = map(_widened, graph.steps[:depth])
    # widened first: numpy gathers through int32 indices much slower
    v = _forward(_ends(graph, graph, coeffs)[0], recorded, params)[graph.order.astype(np.intp)]
    live = v != 0.0
    keys, v = graph.sorted_keys[live], v[live]
    # pattern 4 * row + F; a lone gate pairs with the identity, which has no
    # sine branch; the table sums F = 0
    sine = (np.arange(4)[:, None] >> np.arange(2)) & 1 == 1
    walked = ~(sine & (gens[:, None] == 0)).any(2).ravel()
    walked[::4] = False
    gamma = np.bitwise_xor.reduce(np.where(sine, gens[:, None], 0), axis=2).ravel()
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0
    far = [step.gate for step in graph.steps[depth:]]

    def walk(pattern, ix, ends_only=False):
        """Paths of the keys ``keys[ix]`` through the pairs ``gens[pattern >> 2]``,
        taking gate k's sine branch where bit k of ``pattern`` is set: each
        path's final key, whether it exists (a sine branch needs an
        anticommuting gate and a kept partner) and, unless ``ends_only``,
        its harmonic and its sign."""
        row, key = pattern >> 2, keys[ix]
        harmonic, sign = np.zeros(ix.size, int), np.ones(ix.size)
        exists = np.ones(ix.size, bool)
        for k in (0, 1):
            gen, flip = gens[row, k], (pattern >> k) & 1 == 1
            if not ends_only:
                harmonic += _kernels.anticommutes_with(gen, key) & ~flip
            at = np.flatnonzero(flip)
            src, gen = key[at], gen[at]
            key = key.copy()
            key[at] = partner = src ^ gen
            kept = graph.policy.survivor_mask(partner)
            exists[at] &= _kernels.anticommutes_with(gen, src) & kept
            if not ends_only:
                sign[at] *= sin_sign * signs[row[at], k] * _kernels.product_sign_with(gen, src)
                harmonic[at] += 3
        return key, exists, harmonic, sign

    if graph.picture == "heisenberg":
        far_defects = _kernels.pairing_defect(np.array([g.generator for g in far], np.uint64))
        span = _echelon(far_defects.tolist())
        defect = _coset(_kernels.pairing_defect(keys), span)
        order = np.argsort(defect, kind="stable")
        target = _coset(_kernels.pairing_defect(gamma), span)
        starts = np.searchsorted(defect[order], target, "left")
        counts = np.where(walked, np.searchsorted(defect[order], target, "right") - starts, 0)
        # defect 0 is the lowest, and the stable sort keeps its keys ascending
        cosine = order[: np.searchsorted(defect[order], 0, "right")]
        if far:
            ends = [keys[cosine]]
            for pattern, pos in _spans(starts, counts):
                z, exists, _, _ = walk(pattern, order[pos], ends_only=True)
                ends.append(z[exists])
            weighted = np.sort(np.concatenate(ends))
            weighted = weighted[_kernels.run_starts(weighted)]
            weights = _far_weights(graph, params, coeffs, weighted, far)
            cosine_w = weights[np.searchsorted(weighted, keys[cosine])]
        else:
            cosine_w = _sink_weights(graph, keys[cosine], coeffs)

        def resolve(pattern, pos):
            ix = order[pos]
            z = keys[ix] ^ gamma[pattern]
            if not far:
                return pattern, ix, _sink_weights(graph, z, coeffs)
            at, hit = _lookup(weighted, z)
            return pattern[hit], ix[hit], weights[at[hit]]
    else:
        weighted = _sources(graph, graph.hamiltonian.keys[coeffs != 0.0], far)
        weights = _far_weights(graph, params, coeffs, weighted, far)
        weighted, weights = weighted[weights != 0.0], weights[weights != 0.0]
        starts, counts = np.zeros(walked.size, int), np.where(walked, weighted.size, 0)
        at, hit = _lookup(keys, weighted)
        cosine, cosine_w = at[hit], weights[hit]

        def resolve(pattern, pos):
            at, hit = _lookup(keys, weighted[pos] ^ gamma[pattern])
            return pattern[hit], at[hit], weights[pos[hit]]

    sums = np.zeros((walked.size, 7))
    _cosine_table(sums, gens, keys[cosine], v[cosine] * cosine_w)
    for pattern, pos in _spans(starts, counts):
        pattern, ix, weight = resolve(pattern, pos)
        _, exists, harmonic, sign = walk(pattern, ix)
        values = np.where(exists, v[ix] * sign * weight, 0.0)
        sums += np.bincount(7 * pattern + harmonic, values, sums.size).reshape(-1, 7)
    rows = sums.reshape(-1, 4, 7).sum(1)  # each row's patterns in order, whatever the batch
    return (rows[:, :, None] * _HARMONICS).sum(1)


def _cosine_table(sums: np.ndarray, gens: np.ndarray, keys: np.ndarray, f: np.ndarray) -> None:
    """Add each row's cosine-only paths to its pattern F = 0 of ``sums``.

    The path of key x through the gate pair ``gens[row]`` that takes no
    sine branch contributes f(x) to harmonic c^i, i the number of the
    pair's gates x anticommutes with.  One bincount per chunk of whole rows
    adds them up in the order of ``keys`` (ascending), as the path walk
    does; zero terms are left out, which changes no sum.
    """
    keys, f = keys[f != 0.0], f[f != 0.0]
    step = max(1, _BLOCK // max(keys.size, 1))
    for lo in range(0, gens.shape[0], step):
        pair = gens[lo: lo + step, :, None]
        n = pair.shape[0]
        harmonic = (_kernels.anticommutes_with(pair[:, 0], keys).astype(int)
                    + _kernels.anticommutes_with(pair[:, 1], keys))
        bins = (28 * np.arange(n)[:, None] + harmonic).ravel()
        sums[4 * lo: 4 * (lo + n)] += np.bincount(bins, np.tile(f, n), 28 * n).reshape(-1, 7)
