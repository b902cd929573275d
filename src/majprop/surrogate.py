"""Angle-independent surrogate graphs for fast re-evaluation and gradients.

Under a pure length policy the set of monomials that survive propagation --
and the copy/cosine/sine branching between them -- depends only on the
circuit structure, never on the angles.  Recording one sweep therefore
yields a layered linear graph: layer k holds the monomials alive after the
k-th processed gate, and each gate contributes three edge families

    copy:  commuting monomials carried through unchanged,
    cos:   anticommuting monomials scaled by cos(theta),
    sin:   new monomials weighted by +/- sin(theta),

so re-evaluating the energy at new angles is a handful of fancy-indexing
passes per gate.  Gradients use a two-copy sweep: the forward pass stores
each layer's vector, a rolling adjoint runs backwards, and the derivative
of each gate is two dot products -- at most a threefold overhead on top of
one energy evaluation, independent of the parameter count.

Graphs that get differentiated (parameter optimization) are additionally
compiled, on their first gradient call, into per-gate CSR matrices whose
copy entries are constant 1 and whose cos/sin entries are rewritten in one
vectorized pass per evaluation; each gate is then a single C matvec, and
the adjoint sweep reuses the same arrays as the transpose.  Compilation
also prunes every monomial with no branch path to a nonzero sink weight --
typically the vast majority, since layers only ever grow while few keys
measure.  Every surviving intermediate value is reproduced bit for bit
(each output slot receives at most a carried value plus one sine branch,
so no sum is reassociated); only the closing dot products see a different
summation tree, leaving energies and gradients equal to roundoff.  Because
the shared coefficient buffer is rewritten in place, concurrent
evaluations of one graph from several threads are not supported.

Graphs extend cheaply at the end they were recorded towards (front of the
circuit in the Heisenberg picture, back in the Schrodinger picture); the
other end triggers a rebuild from the stored inputs.  Scoring a new gate
needs neither: its single-angle landscape at any insertion point is
closed-form.  The graph's layer at the cut is split through the gate, and
the rest of the sweep, recorded once from all split keys together, weighs
each key by its sink weight pulled back to the cut.  At the natural end
that rest is empty and the final layer alone gives the landscape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

try:  # private but stable for decades; verified once before first use
    from scipy.sparse import _sparsetools as _spt

    _CSR_MATVEC = _spt.csr_matvec
    _CSC_MATVEC = _spt.csc_matvec
except (ImportError, AttributeError):  # pragma: no cover - scipy too old/new
    _CSR_MATVEC = _CSC_MATVEC = None

__all__ = [
    "SurrogateGraph",
    "UnsupportedPolicyError",
    "build_surrogate",
    "cut_landscapes",
    "eval_energy",
    "eval_energy_and_gradient",
    "extend_surrogate",
    "final_layer",
    "natural_end_landscapes",
]


class UnsupportedPolicyError(ValueError):
    """Raised for truncation policies whose decisions depend on coefficients."""


@dataclass
class _Step:
    """Edge arrays for one processed gate (all indices are layer positions)."""

    slot: int
    copy_src: np.ndarray
    copy_dst: np.ndarray
    cos_src: np.ndarray
    cos_dst: np.ndarray
    sin_src: np.ndarray
    sin_dst: np.ndarray
    sin_w: np.ndarray  # +/-1 branch sign x gate sign x picture sign
    n_out: int

    @property
    def n_edges(self) -> int:
        return int(self.copy_src.size + self.cos_src.size + self.sin_src.size)


_kernel_state: bool | None = None


def _kernels_usable() -> bool:
    """One-time sanity check of the raw scipy matvec kernels."""
    global _kernel_state
    if _kernel_state is None:
        if _CSR_MATVEC is None:
            _kernel_state = False
        else:
            # y += A @ x and y += A.T @ w for A = [[2, 0, 3], [0, 5, 0]]
            indptr = np.array([0, 2, 3], dtype=np.int32)
            indices = np.array([0, 2, 1], dtype=np.int32)
            data = np.array([2.0, 3.0, 5.0])
            x = np.array([1.0, 10.0, 100.0])
            y = np.zeros(2)
            w = np.array([1.0, 1.0])
            z = np.zeros(3)
            try:
                _CSR_MATVEC(2, 3, indptr, indices, data, x, y)
                _CSC_MATVEC(3, 2, indptr, indices, data, w, z)
                _kernel_state = np.array_equal(y, [302.0, 50.0]) and np.array_equal(
                    z, [2.0, 5.0, 3.0]
                )
            except Exception:  # pragma: no cover - incompatible signature
                _kernel_state = False
    return _kernel_state


@dataclass
class _CompiledSweep:
    """Pruned per-gate CSR matrices sharing one rewritable coefficient buffer.

    Monomials with no branch path to a nonzero sink weight can never touch
    the energy, and in practice they dominate the recorded layers (the final
    layer keeps every key ever created, but only paired keys measure).  The
    compile pass therefore drops everything outside the backward-reachable
    set before building the matrices.  Every kept slot receives precisely
    the same contributions as in the recording pass (within a row the
    carried entry precedes any colliding sine entry, matching its
    write-then-add order); dropped terms are exact zeros, so results differ
    from the recording pass only through the closing dots' summation tree.
    """

    # per gate: (n_out, n_in, indptr, indices, data view into `data`)
    gates: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    slots: np.ndarray  # per-gate parameter slot
    source: np.ndarray
    sink: np.ndarray
    data: np.ndarray
    cos_pos: np.ndarray  # positions in `data` holding cos(theta[slot])
    cos_slot: np.ndarray
    sin_pos: np.ndarray  # positions holding +/- sin(theta[slot])
    sin_slot: np.ndarray
    sin_w: np.ndarray
    max_width: int
    # gradient scratch: [source | layer 1 | ... | layer K] and its adjoint
    # twin, plus the per-gate output windows into each
    layer_buf: np.ndarray
    adj_buf: np.ndarray
    out_views: list[np.ndarray]
    adj_views: list[np.ndarray]
    # derivative edges in buffer coordinates, segmented by gate index
    dot_cos_src: np.ndarray
    dot_cos_dst: np.ndarray
    dot_cos_gate: np.ndarray
    dot_sin_src: np.ndarray
    dot_sin_dst: np.ndarray
    dot_sin_gate: np.ndarray
    dot_sin_w: np.ndarray

    def refresh(self, params: np.ndarray) -> None:
        self.data[self.cos_pos] = np.cos(params)[self.cos_slot]
        if self.sin_pos.size:
            self.data[self.sin_pos] = self.sin_w * np.sin(params)[self.sin_slot]


def _keep_masks(graph: SurrogateGraph) -> list[np.ndarray]:
    """Per-layer masks of slots with some branch path to a nonzero sink."""
    masks = [graph.sink != 0.0]
    for step in reversed(graph.steps):
        out = masks[-1]
        prev = np.zeros(step.copy_src.size + step.cos_src.size, dtype=bool)
        prev[step.copy_src[out[step.copy_dst]]] = True
        prev[step.cos_src[out[step.cos_dst]]] = True
        prev[step.sin_src[out[step.sin_dst]]] = True
        masks.append(prev)
    masks.reverse()
    return masks


def _compile_sweep(graph: SurrogateGraph) -> _CompiledSweep:
    masks = _keep_masks(graph)
    renum = [np.cumsum(m, dtype=np.int64) - 1 for m in masks]
    widths = [int(m.sum()) for m in masks]
    layer_off = np.concatenate([[0], np.cumsum(widths)])
    chunks: list[np.ndarray] = []
    meta = []
    cos_pos, cos_slot, sin_pos, sin_slot, sin_wts = [], [], [], [], []
    d_cs, d_cd, d_cg, d_ss, d_sd, d_sg, d_sw = [], [], [], [], [], [], []
    offset = 0
    for k, step in enumerate(graph.steps):
        new_in, new_out = renum[k], renum[k + 1]
        keep_out = masks[k + 1]
        m_copy = keep_out[step.copy_dst]
        m_cos = keep_out[step.cos_dst]
        m_sin = keep_out[step.sin_dst]
        copy_src = new_in[step.copy_src[m_copy]]
        copy_dst = new_out[step.copy_dst[m_copy]]
        cos_src = new_in[step.cos_src[m_cos]]
        cos_dst = new_out[step.cos_dst[m_cos]]
        sin_src = new_in[step.sin_src[m_sin]]
        sin_dst = new_out[step.sin_dst[m_sin]]
        sin_w = step.sin_w[m_sin]
        n_in, n_out = widths[k], widths[k + 1]
        rows = np.concatenate([copy_dst, cos_dst, sin_dst])
        cols = np.concatenate([copy_src, cos_src, sin_src])
        kind = np.repeat(
            np.array([0, 1, 2], dtype=np.int8),
            [copy_src.size, cos_src.size, sin_src.size],
        )
        vals = np.concatenate([np.ones(copy_src.size + cos_src.size), sin_w])
        order = np.argsort(rows, kind="stable")  # carried entry before sine
        rows, cols, kind, vals = rows[order], cols[order], kind[order], vals[order]
        indptr = np.zeros(n_out + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_out), out=indptr[1:])
        local_cos = np.flatnonzero(kind == 1)
        local_sin = np.flatnonzero(kind == 2)
        cos_pos.append((local_cos + offset).astype(np.intp))
        cos_slot.append(np.full(local_cos.size, step.slot, dtype=np.intp))
        sin_pos.append((local_sin + offset).astype(np.intp))
        sin_slot.append(np.full(local_sin.size, step.slot, dtype=np.intp))
        sin_wts.append(vals[local_sin])
        meta.append((n_out, n_in, indptr.astype(np.int32), cols.astype(np.int32), offset))
        d_cs.append(cos_src + layer_off[k])
        d_cd.append(cos_dst + layer_off[k + 1])
        d_cg.append(np.full(cos_src.size, k, dtype=np.intp))
        d_ss.append(sin_src + layer_off[k])
        d_sd.append(sin_dst + layer_off[k + 1])
        d_sg.append(np.full(sin_src.size, k, dtype=np.intp))
        d_sw.append(sin_w)
        chunks.append(vals)
        offset += vals.size
    data = np.concatenate(chunks) if chunks else np.empty(0)
    layer_buf = np.zeros(int(layer_off[-1]))
    layer_buf[: widths[0]] = graph.source[masks[0]]
    adj_buf = np.zeros_like(layer_buf)
    out_views = [
        layer_buf[layer_off[k + 1] : layer_off[k + 2]]
        for k in range(len(graph.steps))
    ]
    adj_views = [
        adj_buf[layer_off[k + 1] : layer_off[k + 2]] for k in range(len(graph.steps))
    ]

    def _cat(parts, dtype=np.intp):
        return (
            np.concatenate(parts).astype(np.intp, copy=False)
            if parts
            else np.empty(0, dtype=dtype)
        )

    return _CompiledSweep(
        gates=[
            (n_out, n_i, indptr, indices, data[o : o + indices.size])
            for n_out, n_i, indptr, indices, o in meta
        ],
        slots=np.array([s.slot for s in graph.steps], dtype=np.intp),
        source=graph.source[masks[0]],
        sink=graph.sink[masks[-1]],
        data=data,
        cos_pos=_cat(cos_pos),
        cos_slot=_cat(cos_slot),
        sin_pos=_cat(sin_pos),
        sin_slot=_cat(sin_slot),
        sin_w=np.concatenate(sin_wts) if sin_wts else np.empty(0),
        max_width=max(widths),
        layer_buf=layer_buf,
        adj_buf=adj_buf,
        out_views=out_views,
        adj_views=adj_views,
        dot_cos_src=_cat(d_cs),
        dot_cos_dst=_cat(d_cd),
        dot_cos_gate=_cat(d_cg),
        dot_sin_src=_cat(d_ss),
        dot_sin_dst=_cat(d_sd),
        dot_sin_gate=_cat(d_sg),
        dot_sin_w=np.concatenate(d_sw) if d_sw else np.empty(0),
    )


def _compiled_plan(
    graph: SurrogateGraph, params: np.ndarray, may_compile: bool
) -> _CompiledSweep | None:
    """The graph's kernel plan refreshed at ``params``, compiled on demand.

    Only gradient calls compile: energy-only probes (``probe_landscape``)
    evaluate one-shot trial graphs and should never pay for it.
    """
    if graph._compiled is None:
        if not may_compile or not graph.steps or graph.source.size == 0 or not _kernels_usable():
            return None
        graph._compiled = _compile_sweep(graph)
    graph._compiled.refresh(params)
    return graph._compiled


def _kernel_energy(plan: _CompiledSweep) -> float:
    v = plan.source
    ping = np.empty(plan.max_width)
    pong = np.empty(plan.max_width)
    for n_out, n_in, indptr, indices, data in plan.gates:
        y = ping[:n_out]
        y.fill(0.0)
        _CSR_MATVEC(n_out, n_in, indptr, indices, data, v, y)
        v = y
        ping, pong = pong, ping
    return float(np.dot(v, plan.sink))


def _kernel_gradient(
    plan: _CompiledSweep, params: np.ndarray, grad: np.ndarray
) -> float:
    """Forward layers, adjoint layers, then all derivative dots in one go.

    Both sweeps land in the plan's scratch buffers; the per-gate derivative
    is assembled afterwards from every branching edge at once (gathers plus
    a segmented sum), so its cost does not grow with the parameter count.
    """
    n_gates = len(plan.gates)
    plan.layer_buf[plan.source.size :].fill(0.0)
    v = plan.source
    for (n_out, n_in, indptr, indices, data), y in zip(plan.gates, plan.out_views):
        _CSR_MATVEC(n_out, n_in, indptr, indices, data, v, y)
        v = y
    energy = float(np.dot(v, plan.sink))
    adj = plan.adj_views[-1]
    plan.adj_buf[plan.source.size : plan.adj_buf.size - adj.size].fill(0.0)
    adj[:] = plan.sink
    for k in range(n_gates - 1, 0, -1):
        n_out, n_in, indptr, indices, data = plan.gates[k]
        _CSC_MATVEC(n_in, n_out, indptr, indices, data, plan.adj_views[k], plan.adj_views[k - 1])
    lay, aj = plan.layer_buf, plan.adj_buf
    seg_cos = np.bincount(
        plan.dot_cos_gate,
        weights=lay[plan.dot_cos_src] * aj[plan.dot_cos_dst],
        minlength=n_gates,
    )
    seg_sin = np.bincount(
        plan.dot_sin_gate,
        weights=plan.dot_sin_w * lay[plan.dot_sin_src] * aj[plan.dot_sin_dst],
        minlength=n_gates,
    )
    angles = params[plan.slots]
    np.add.at(grad, plan.slots, np.cos(angles) * seg_sin - np.sin(angles) * seg_cos)
    return energy


@dataclass
class SurrogateGraph:
    """Compiled branch structure of one truncated propagation sweep."""

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
    _compiled: _CompiledSweep | None = field(
        default=None, repr=False, compare=False
    )

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
    """Branch one layer's keys through a gate, recording edge positions."""
    gamma = gate.generator
    anti = _kernels.anticommutes_with(gamma, keys)
    cand = keys[anti] ^ np.uint64(gamma)
    keep = policy.survivor_mask(cand, np.zeros(cand.shape))
    kept = cand[keep]
    next_keys = np.union1d(keys, kept)
    pos_old = np.searchsorted(next_keys, keys)
    positions = np.arange(keys.size)
    sin_w = (
        _kernels.product_sign_with(gamma, keys[anti])[keep] * sin_sign * gate.sign
    )
    sin_dst = np.searchsorted(next_keys, kept)
    # each new key comes from a distinct source, so sine targets never clash
    if np.unique(sin_dst).size != sin_dst.size:
        raise RuntimeError(f"sine branches of gate {gamma:#x} collide in one key")
    step = _Step(
        slot=gate.slot,
        copy_src=positions[~anti],
        copy_dst=pos_old[~anti],
        cos_src=positions[anti],
        cos_dst=pos_old[anti],
        sin_src=positions[anti][keep],
        sin_dst=sin_dst,
        sin_w=sin_w,
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
    coefficients.  Policies that look at coefficients are rejected: their
    survivor sets change with the angles, so no fixed graph exists.
    """
    _check_picture(picture)
    policy = (policy or TruncationPolicy()).resolved(picture)
    if not policy.angle_independent:
        raise UnsupportedPolicyError(
            "surrogate graphs require angle-independent truncation rules"
        )
    sin_sign = 1.0 if picture == "heisenberg" else -1.0
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
    for gate in _processed_gates(circuit, picture):
        keys, step = _record_step(keys, gate, sin_sign, policy)
        graph.steps.append(step)
    graph.final_keys = keys
    graph.sink = _sink_weights(graph, keys)
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
    graph: SurrogateGraph, params: np.ndarray, keep_layers: bool, depth: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Layer ``depth`` (default: the final one) and, optionally, all before it."""
    v = graph.source
    layers = [v] if keep_layers else []
    for step in graph.steps[:depth]:
        theta = params[step.slot]
        out = np.zeros(step.n_out)
        out[step.copy_dst] = v[step.copy_src]
        out[step.cos_dst] = math.cos(theta) * v[step.cos_src]
        if step.sin_src.size:
            out[step.sin_dst] += (step.sin_w * math.sin(theta)) * v[step.sin_src]
        v = out
        if keep_layers:
            layers.append(v)
    return v, layers


def final_layer(graph: SurrogateGraph, params: np.ndarray) -> np.ndarray:
    """Propagated coefficients over ``graph.final_keys`` at the given angles."""
    return _forward(graph, _check_params(graph, params), keep_layers=False)[0]


def eval_energy(graph: SurrogateGraph, params: np.ndarray) -> float:
    """Energy at the given angles from one forward pass over the graph."""
    params = _check_params(graph, params)
    plan = _compiled_plan(graph, params, may_compile=False)
    if plan is not None:
        return _kernel_energy(plan)
    return float(np.dot(final_layer(graph, params), graph.sink))


def eval_energy_and_gradient(
    graph: SurrogateGraph, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and its gradient w.r.t. every parameter slot.

    The first call compiles the graph; without the compiled kernels every
    call runs the interpreted :func:`_sweep_gradient`.
    """
    params = _check_params(graph, params)
    plan = _compiled_plan(graph, params, may_compile=True)
    if plan is None:
        return _sweep_gradient(graph, params)
    grad = np.zeros(params.size)
    return _kernel_gradient(plan, params, grad), grad


def _sweep_gradient(graph: SurrogateGraph, params: np.ndarray) -> tuple[float, np.ndarray]:
    """The interpreted gradient sweep over the recorded steps.

    Forward pass with stored layers, then a rolling backward adjoint; the
    derivative of gate k is two dot products between the stored layer and
    the adjoint, accumulated into the gate's slot (shared slots sum by the
    chain rule).
    """
    grad = np.zeros(params.size)
    v, layers = _forward(graph, params, keep_layers=True)
    energy = float(np.dot(v, graph.sink))
    w = graph.sink.copy()
    for k in range(len(graph.steps) - 1, -1, -1):
        step = graph.steps[k]
        theta = params[step.slot]
        prev = layers[k]
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        d_cos = -sin_t * float(np.dot(w[step.cos_dst], prev[step.cos_src]))
        d_sin = cos_t * float(
            np.dot(step.sin_w * w[step.sin_dst], prev[step.sin_src])
        )
        grad[step.slot] += d_cos + d_sin
        w = _adjoint_step(step, w, cos_t, sin_t)
    return energy, grad


def _adjoint_step(step: _Step, w: np.ndarray, cos_t: float, sin_t: float) -> np.ndarray:
    """Weights on a step's input keys from the weights on its output keys."""
    w_prev = np.zeros(step.copy_src.size + step.cos_src.size)
    w_prev[step.copy_src] = w[step.copy_dst]
    w_prev[step.cos_src] = cos_t * w[step.cos_dst]
    if step.sin_src.size:
        w_prev[step.sin_src] += (step.sin_w * sin_t) * w[step.sin_dst]
    return w_prev


def extend_surrogate(
    graph: SurrogateGraph, gate: Gate, where: Literal["front", "back"]
) -> SurrogateGraph:
    """Graph for the circuit extended by one gate at the given placement.

    The placement that matches the recording direction (circuit front in
    the Heisenberg picture, back in the Schrodinger picture) appends one
    recorded step; the opposite placement replays the whole build.  Either
    way the result equals a fresh build of the extended circuit.
    """
    if where not in ("front", "back"):
        raise ValueError(f"unknown placement {where!r}")
    circuit = graph.circuit.copy()
    if gate.slot >= circuit.params.size:
        grown = np.zeros(gate.slot + 1)
        grown[: circuit.params.size] = circuit.params
        circuit.params = grown
    if where == "front":
        circuit.insert_front([gate])
    else:
        circuit.append_back([gate])
    natural = (graph.picture == "heisenberg") == (where == "front")
    if not natural:
        return build_surrogate(
            graph.hamiltonian, circuit, graph.occupation, graph.policy, graph.picture
        )
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0
    keys, step = _record_step(graph.final_keys, gate, sin_sign, graph.policy)
    out = SurrogateGraph(
        n_modes=graph.n_modes,
        picture=graph.picture,
        occupation=graph.occupation,
        policy=graph.policy,
        circuit=circuit,
        hamiltonian=graph.hamiltonian,
        source=graph.source,
        steps=list(graph.steps) + [step],
        final_keys=keys,
    )
    out.sink = _sink_weights(out, keys)
    return out


# c^i s^j of the shared angle as [a0, a1, b1, a2, b2], by (i, j): c^2 =
# (1 + cos 2t)/2, s^2 = (1 - cos 2t)/2, cs = (sin 2t)/2
_HARMONICS = {
    (0, 0): np.array([1.0, 0, 0, 0, 0]), (1, 0): np.array([0, 1.0, 0, 0, 0]),
    (0, 1): np.array([0, 0, 1.0, 0, 0]), (2, 0): np.array([0.5, 0, 0, 0.5, 0]),
    (0, 2): np.array([0.5, 0, 0, -0.5, 0]), (1, 1): np.array([0, 0, 0, 0, 0.5]),
}


def _layer_keys(graph: SurrogateGraph, depth: int) -> np.ndarray:
    """Keys of layer ``depth``, walked back from the final layer (a step
    carries every input key to its own output slot)."""
    keys = graph.final_keys
    for step in reversed(graph.steps[depth:]):
        prev = np.empty(step.copy_src.size + step.cos_src.size, dtype=np.uint64)
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
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0
    steps = []
    for gate in gates:
        keys, step = _record_step(keys, gate, sin_sign, graph.policy)
        steps.append(step)
    w = _sink_weights(graph, keys)
    for step in reversed(steps):
        theta = params[step.slot]
        w = _adjoint_step(step, w, math.cos(theta), math.sin(theta))
    return w


def cut_landscapes(
    graph: SurrogateGraph, params: np.ndarray, cut: int, gate_sets: Sequence[Sequence[Gate]]
) -> np.ndarray:
    """Landscape coefficients of each gate set inserted at ``cut`` in the gate list.

    Row k holds [a0, a1, b1, a2, b2] of E(t) = a0 + a1 cos t + b1 sin t +
    a2 cos 2t + b2 sin 2t for the (at most two) gates of ``gate_sets[k]``
    placed before ``graph.circuit.gates[cut]`` with one new angle t (cut 0
    is the front, ``len(graph.circuit)`` the back).  The graph's own layer
    at the cut (the near half) is split per gate set in c = cos t and
    s = sin t; the rest of the sweep (the far half) is recorded once from
    the union of all split keys and its sink pulled back to the cut, which
    weighs every key as a fresh build of the extended circuit would.  At
    the natural end the far half is empty and the weights are the sink's.
    """
    params = _check_params(graph, params)
    n_steps = len(graph.steps)
    if not 0 <= cut <= n_steps:
        raise ValueError(f"cut {cut} lies outside the gate list 0..{n_steps}")
    depth = n_steps - cut if graph.picture == "heisenberg" else cut
    v = _forward(graph, params, keep_layers=False, depth=depth)[0]
    live = v != 0.0
    keys, v = _layer_keys(graph, depth)[live], v[live]
    sin_sign = 1.0 if graph.picture == "heisenberg" else -1.0

    def landscapes(weigh):
        """Per gate set, (cos power, sin power) -> keys, weights, sink weights.

        A commuting key keeps its factor, an anticommuting key gains c, and
        its partner k ^ gamma gains the signed s where the policy keeps it.
        """
        base = {(0, 0): (keys, v, weigh(keys))}
        for gates in gate_sets:
            if len(gates) > 2:
                raise ValueError("landscapes are resolved for at most two gates")
            terms = base
            for gate in gates:
                split: dict[tuple[int, int], list] = {}
                for (i, j), (k, w, h) in terms.items():
                    anti = _kernels.anticommutes_with(gate.generator, k)
                    partner = k[anti] ^ np.uint64(gate.generator)
                    keep = graph.policy.survivor_mask(partner, np.zeros(partner.shape))
                    sign = _kernels.product_sign_with(gate.generator, k[anti][keep])
                    sin_w = (sin_sign * gate.sign) * sign * w[anti][keep]
                    split.setdefault((i, j), []).append((k[~anti], w[~anti], h[~anti]))
                    split.setdefault((i + 1, j), []).append((k[anti], w[anti], h[anti]))
                    split.setdefault((i, j + 1), []).append(
                        (partner[keep], sin_w, weigh(partner[keep]))
                    )
                terms = {ij: tuple(map(np.concatenate, zip(*parts))) for ij, parts in split.items()}
            yield terms

    if depth == n_steps:
        weigh = lambda k: _sink_weights(graph, k)  # noqa: E731
    else:
        # terms without a sine factor hold layer keys only
        seen = [k for terms in landscapes(lambda k: k) for (_, j), (k, _, _) in terms.items() if j]
        union = np.unique(np.concatenate([keys] + seen))
        far = _processed_gates(graph.circuit, graph.picture)[depth:]
        pulled = _far_weights(graph, params, union, far)
        weigh = lambda k: pulled[np.searchsorted(union, k)]  # noqa: E731
    out = np.zeros((len(gate_sets), 5))
    for row, terms in zip(out, landscapes(weigh)):
        for ij, (_, w, h) in terms.items():
            row += float(np.dot(w, h)) * _HARMONICS[ij]
    return out


def natural_end_landscapes(
    graph: SurrogateGraph, params: np.ndarray, gate_sets: Sequence[Sequence[Gate]]
) -> np.ndarray:
    """:func:`cut_landscapes` at the end the graph was recorded towards
    (circuit front in the Heisenberg picture, back in the Schrodinger one)."""
    cut = 0 if graph.picture == "heisenberg" else len(graph.steps)
    return cut_landscapes(graph, params, cut, gate_sets)
