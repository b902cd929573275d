"""Second-quantized Hamiltonians in the Majorana monomial basis.

The ladder operators expand as a_p = (m_{2p-1} + i m_{2p})/2 and its
adjoint with the opposite sign, so every one- and two-body integral term
becomes a short real combination of even monomials of length at most four.
Spin orbitals map to modes interleaved: spatial orbital p holds modes 2p-1
(alpha) and 2p (beta), so each orbital's pair of modes stays adjacent.
:func:`spin_orbital_mode` is the one place that layout is decided.

Every term is expanded in its normal-ordered form (a+_p a_q for one body,
a+ a+ a a for two) by one batched kernel, :func:`ladder_terms`: a whole
block of weighted ladder strings is multiplied out one Majorana factor at a
time on uint64 keys, with the phase tracked exactly as a power of i.  The
blocks' terms are then summed by key with :func:`_kernels.summed`.

The coefficients are linear in the integrals, so one :class:`IntegralMap`,
the sparse matrix from the unique integral entries to the coefficients of
every spin- and number-conserving one- and two-body key, holds for all
integrals of a size.  :class:`DressedHamiltonian` uses it to give the
Hamiltonian with a block of orbital rotations folded into the integrals,
H(theta) = R(theta)^dag H R(theta), and the pullback of a gradient on its
coefficients onto the rotation angles, at every evaluation.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .integrals import IntegralTensors, check_rotation, index_symmetries, rotation_matrix
from .operators import SparseOperator

__all__ = [
    "DressedHamiltonian",
    "IntegralMap",
    "build_majorana_hamiltonian",
    "integral_map",
    "spin_orbital_mode",
    "ladder_terms",
    "ladder_product",
    "assemble_operator",
]

_PRUNE = 1e-14
_CACHED_MAPS = 4  # integral maps kept per process, one per (orbital count, sharing)
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def spin_orbital_mode(p: int, sector: str, n_spatial: int) -> int:
    """1-based mode index of spatial orbital p with the given spin."""
    if not 1 <= p <= n_spatial:
        raise ValueError(f"spatial orbital {p} outside 1..{n_spatial}")
    return 2 * p - 1 if sector == "alpha" else 2 * p


def ladder_terms(
    modes: np.ndarray, daggers: Sequence[bool], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Majorana expansion of T weighted products of L ladder operators.

    Row t of the (T, L) array ``modes`` holds the 1-based modes of string t
    in operator order (leftmost first); ``daggers`` flags which of the L
    positions are creators, shared by all rows.  Returns the T * 2^L
    unmerged (key, complex coefficient) terms of sum_t weights[t] * string_t.

    Each factor a_p or a+_p splits into m_{2p-1}/2 and +-i m_{2p}/2; right
    multiplying a monomial S by one Majorana m_b gives
    i^(r(|S|) - r(|S^b|)) (-1)^popcount(S >> (b+1)) M_{S^b}, with r the
    canonical phase exponent, so the phase stays an exact power of i.
    """
    weights = np.asarray(weights, dtype=np.float64)
    modes = np.asarray(modes, dtype=np.int64).reshape(weights.size, len(daggers))
    if modes.size and not 1 <= modes.min() <= modes.max() <= _kernels.MAX_MODES:
        raise ValueError(f"ladder modes must lie in 1..{_kernels.MAX_MODES}")
    keys = np.zeros((weights.size, 1), dtype=np.uint64)
    power = np.zeros((weights.size, 1), dtype=np.int64)
    for col, dagger in enumerate(daggers):
        # bit sites of m_{2p-1} and m_{2p}, shaped (T, 1, 2) against keys (T, 2^col, 1)
        site = (2 * modes[:, col, None, None] - 2 + np.arange(2)).astype(np.uint64)
        factor = np.uint64(1) << site
        # the factor's own phase: 1 for m_{2p-1}, -i (creator) or +i for m_{2p}
        own = np.array([0, 3 if dagger else 1])
        left = keys[:, :, None]
        out = left ^ factor
        power = (
            power[:, :, None]
            + own
            + _kernels.phase_exponent(_kernels.popcount(left))
            - _kernels.phase_exponent(_kernels.popcount(out))
            + 2 * _kernels.popcount((left >> site) >> np.uint64(1)).astype(np.int64)
        ).reshape(weights.size, 2 << col)
        keys = out.reshape(weights.size, 2 << col)
    values = (weights * 0.5 ** len(daggers))[:, None] * _I_POWERS[power % 4]
    return keys.ravel(), values.ravel()


def ladder_product(ops: Sequence[tuple[int, bool]]) -> dict[int, complex]:
    """Majorana expansion of one product of ladder operators.

    ``ops`` lists (mode, is_creation) factors in operator order (leftmost
    first).  Returns a map from monomial bitmask to its nonzero complex
    coefficient.
    """
    keys, values = ladder_terms([[m for m, _ in ops]], [d for _, d in ops], [1.0])
    values, keys = _kernels.summed(values, keys)
    return {int(k): complex(v) for k, v in zip(keys, values) if v}


def assemble_operator(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], n_modes: int
) -> SparseOperator:
    """Merge (keys, complex coefficients) parts into a real SparseOperator.

    Hermitian combinations of ladder terms always cancel their imaginary
    parts on the canonical monomial basis; a residual above roundoff means
    the accumulated operator was not Hermitian.  Terms at or below 1e-14
    are dropped.
    """
    keys, values = (np.concatenate(part) for part in zip(*parts))
    values, keys = _kernels.summed(values, keys)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    worst = float(np.abs(values.imag).max(initial=0.0))
    if worst > 1e-10 * scale:
        raise ValueError(f"non-Hermitian accumulation: imaginary residue {worst:.3e}")
    return _operator(n_modes, keys, values.real)


def build_majorana_hamiltonian(t: IntegralTensors | DressedHamiltonian) -> SparseOperator:
    """Expand H = E_core + sum h_pq a+_p a_q + 1/2 sum (ij|kl) a+ a+ a a.

    The two-electron part uses the chemist-ordered integrals directly:
    (ij|kl) weighs a+_{i s1} a+_{k s2} a_{l s2} a_{j s1} over all
    spin-sector pairs.  The coefficients are the :class:`IntegralMap` of
    ``t``'s size applied to its unique entries.  A
    :class:`DressedHamiltonian` in place of the integrals gives its
    Hamiltonian at zero angles from the coefficients it already holds,
    without applying the map again.  Terms at or below 1e-14 are dropped.
    The result contains the identity plus even monomials of length 2 and 4
    only, with real coefficients.
    """
    if isinstance(t, DressedHamiltonian):
        return _operator(t.n_modes, t.keys, t.coeffs)
    mapping = integral_map(t.n_spatial, t.is_restricted)
    return _operator(2 * t.n_spatial, mapping.keys, mapping.apply(mapping.entries(t)))


def _operator(n_modes: int, keys: np.ndarray, coeffs: np.ndarray) -> SparseOperator:
    """The terms of ``coeffs`` on the sorted ``keys`` above the pruning floor."""
    keep = np.abs(coeffs) > _PRUNE
    return SparseOperator(n_modes, keys[keep], coeffs[keep])


# ---- the integral map and the dressed Hamiltonian ------------------------------


@dataclass(frozen=True)
class _Block:
    """One integral block's columns of the map: ``spins`` names the block
    ("a", "b": one-body; "aa", "bb", "ab": two-body), ``reps`` holds the
    flat tensor index of each column's representative entry, ``columns``
    the column of every tensor entry, ``share`` each entry's share of its
    orbit and ``last`` where the last step of a transform leaves each
    representative."""

    spins: str
    reps: np.ndarray
    columns: np.ndarray
    share: np.ndarray
    last: np.ndarray


@dataclass(frozen=True)
class IntegralMap:
    """Majorana coefficients as a linear map of the unique integral entries.

    Row r of the matrix is key ``keys[r]``; its ``n_columns`` columns are
    the core energy and then, block by block, one entry per symmetry orbit
    of the integral tensors.  ``shared`` maps have one one-body and one
    two-body block that serve both spins (restricted integrals under one
    rotation for both spins); the others keep the alpha, beta and mixed
    blocks apart.  The rows cover every key the blocks can reach at any
    integral values, since rotating the orbitals fills terms that are zero
    by symmetry.  The nonzeros are ``values`` at (``rows``, ``columns``)
    in CSR order (by row, then column), 24 bytes each: 0.50 MiB at 10
    orbitals (22,031 nonzeros).  Both products add each row's and each
    column's terms in that order.  A map is shared by every caller of
    :func:`integral_map`, so its arrays are read-only.
    """

    n_spatial: int
    shared: bool
    keys: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    n_columns: int
    blocks: tuple[_Block, ...]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The coefficients on ``keys`` of the map's input ``x``."""
        return _scatter(self.rows, self.values * x[self.columns], self.keys.size)

    def apply_transpose(self, d: np.ndarray) -> np.ndarray:
        """The pullback of a gradient ``d`` on ``keys`` onto the map's input."""
        return _scatter(self.columns, self.values * d[self.rows], self.n_columns)

    def restrict(self, rows: np.ndarray) -> IntegralMap:
        """The map's ``rows`` alone, renumbered in that order, entries kept in order."""
        first = np.searchsorted(self.rows, rows)
        count = np.searchsorted(self.rows, rows, "right") - first
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        part = replace(self, keys=self.keys[rows], rows=np.repeat(np.arange(rows.size), count),
                       columns=self.columns[at], values=self.values[at])
        _read_only(part.keys, part.rows, part.columns, part.values)
        return part

    def entries(self, t: IntegralTensors) -> np.ndarray:
        """The map's input for the integrals ``t``: core energy, then each
        block's representative entries."""
        if t.n_spatial != self.n_spatial or (self.shared and not t.is_restricted):
            raise ValueError(
                f"a {'shared' if self.shared else 'spin-resolved'} map of {self.n_spatial} "
                f"orbitals cannot read {t.spin_mode} integrals of {t.n_spatial}"
            )
        parts = [np.array([t.core_energy])]
        for block in self.blocks:
            tensor = _tensor(t, block.spins)
            for perm in index_symmetries(block.spins):
                if not np.allclose(tensor.transpose(perm), tensor, rtol=0.0, atol=1e-10):
                    raise ValueError(f"the {block.spins} integrals lack their index symmetry")
            parts.append(tensor.ravel()[block.reps])
        return np.concatenate(parts)


_SECTORS = {"a": "alpha", "b": "beta"}


def _tensor(t: IntegralTensors, spins: str) -> np.ndarray:
    return t.h2_block(spins) if len(spins) == 2 else t.h1_block(_SECTORS[spins])


def _conjugates(spins: str) -> list[tuple[int, ...]]:
    """Index maps of the operators a use expands that give the same
    operator or its Hermitian conjugate: the identity and the conjugate
    (p, q) -> (q, p) of a+_p a_q, or (i, j, k, l) -> (j, i, l, k) of
    a+_i a+_k a_l a_j; a same-spin term also equals its pair swap
    (i, j, k, l) -> (k, l, i, j) and the swap's conjugate."""
    if len(spins) == 1:
        return [(0, 1), (1, 0)]
    group = [(0, 1, 2, 3), (1, 0, 3, 2)]
    return group if spins[0] != spins[1] else group + [(2, 3, 0, 1), (3, 2, 1, 0)]


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _scatter(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The sums of ``values`` at ``at`` in input order, as floats even for no values."""
    return np.bincount(at, values, size).astype(float, copy=False)


def _expanded(
    modes: np.ndarray, daggers: Sequence[bool], weights: np.ndarray,
    columns: np.ndarray, hermitian: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One use of a block: the real parts of its tuples' expansions summed
    per (key, column), and the imaginary parts of its self-conjugate
    tuples' terms, as (values, keys, columns)."""
    keys, values = ladder_terms(modes, daggers, weights)
    columns = np.repeat(columns.astype(np.int32), 1 << len(daggers))
    real = values.real != 0.0
    imag = np.repeat(hermitian, 1 << len(daggers)) & (values.imag != 0.0)
    return (_kernels.summed(values.real[real], keys[real], columns[real]),
            (values.imag[imag], keys[imag], columns[imag]))


@functools.lru_cache(maxsize=_CACHED_MAPS)
def integral_map(n_spatial: int, shared: bool) -> IntegralMap:
    """The integral map of ``n_spatial`` orbitals (see :class:`IntegralMap`).

    It depends on its two arguments alone, so it is built once per process
    and kept, with read-only arrays, for the last few argument pairs
    (``integral_map.cache_clear()`` drops them): the first call at a size
    pays the build, every later one gets the same object.

    The index tuples of each spin combination fall into orbits under
    :func:`_conjugates`: an orbit's operators are one term and its
    Hermitian conjugate, whose expansion is the complex conjugate of the
    term's.  So one tuple per orbit is expanded with :func:`ladder_terms`,
    weighted by the orbit's size, and only the real part of its expansion
    is credited to the column of its integrals' symmetry orbit.  A tuple
    whose conjugate is the same operator keeps its imaginary part, which
    must cancel; the non-Hermitian check reads it once every use is summed,
    since uses of one block can meet on a (key, column).

    The matrix is assembled by sort and sum: each use's nonzero real terms
    are summed per (key, column) as soon as they are expanded, the uses'
    sums are summed the same way, and the entries are the sorted pairs
    that do not cancel.  Every term is a dyadic rational, so the sums are
    exact in any order.  The build holds one use's expansion and the summed
    pairs at a time: at 10 orbitals it peaks near 6 MiB (tracemalloc) for a
    map of under 1 MiB.
    """
    n = n_spatial
    mode = {s: np.array([spin_orbital_mode(p, sector, n) for p in range(1, n + 1)])
            for s, sector in _SECTORS.items()}
    # (block, its uses): a use is the spins of its operator pairs and its
    # weight; a beta-alpha term equals the alpha-beta term of the transposed
    # block entry (both operator pairs swap), so the mixed block counts once
    if shared:
        layout = [("a", [("a", 1.0), ("b", 1.0)]),
                  ("aa", [("aa", 0.5), ("bb", 0.5), ("ab", 1.0)])]
    else:
        layout = [("a", [("a", 1.0)]), ("b", [("b", 1.0)]), ("aa", [("aa", 0.5)]),
                  ("bb", [("bb", 0.5)]), ("ab", [("ab", 1.0)])]
    # summed (value, key, column) runs: the core energy is the identity's
    # column 0; ``residue`` holds the self-conjugate tuples' imaginary parts
    runs = [(np.ones(1), np.zeros(1, np.uint64), np.zeros(1, np.int32))]
    residue = []
    blocks, start = [], 1
    for name, uses in layout:
        dims = (n,) * 2 * len(name)
        idx = np.indices(dims).reshape(len(dims), -1).T
        orbit = np.minimum.reduce([
            np.ravel_multi_index(idx[:, list(perm)].T, dims) for perm in index_symmetries(name)
        ])
        reps, col = np.unique(orbit, return_inverse=True)
        at = np.unravel_index(reps, dims)
        last = np.ravel_multi_index(at[1:] + at[:1], dims)
        for spins, weight in uses:
            m1, m2 = mode[spins[0]], mode[spins[-1]]
            # image of every tuple under each map; the smallest one expands the orbit
            images = np.stack([
                np.ravel_multi_index(idx[:, list(perm)].T, dims) for perm in _conjugates(spins)
            ])
            once = images[0] == images.min(0)
            images = images[:, once]
            size = 1 + np.count_nonzero(np.diff(np.sort(images, 0), axis=0), 0)
            # its own conjugate: the conjugate is the tuple or its pair swap
            hermitian = (images[1] == images[0]) | (images[1] == images[-2])
            at, where = idx[once], col[once]
            if len(dims) == 2:
                modes, daggers = m1[at], (True, False)
            else:
                i, j, k, l = at.T
                modes = np.stack([m1[i], m2[k], m2[l], m1[j]], axis=1)
                daggers = (True, True, False, False)
            run, imag = _expanded(modes, daggers, weight * size, where + start, hermitian)
            runs.append(run)
            residue.append(imag)
        blocks.append(_Block(name, reps, start + col, 1.0 / np.bincount(col)[col], last))
        _read_only(blocks[-1].reps, blocks[-1].columns, blocks[-1].share, last)
        start += reps.size
    imag, *_ = _kernels.summed(*(np.concatenate(part) for part in zip(*residue)))
    if np.abs(imag).max(initial=0.0) > 1e-12:
        raise ValueError("an integral orbit expands to a non-Hermitian term")
    values, keys, columns = _kernels.summed(*(np.concatenate(part) for part in zip(*runs)))
    kept = values != 0.0
    keys, columns, values = keys[kept], columns[kept], values[kept]
    keys, rows = np.unique(keys, return_inverse=True)
    columns = columns.astype(np.intp)
    _read_only(keys, rows, columns, values)
    return IntegralMap(n, shared, keys, rows, columns, values, start, tuple(blocks))


def _transform(h: np.ndarray, vs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``h`` with ``vs[k]`` applied to its index k, h'[p..] = sum V[p, i] ... h[i..].

    One index at a time, from the last: each step contracts the last axis
    and moves the new index to the front.  Returns h' with its first index
    last (axes q.., p, as a (rest, n) matrix) and the tensor before that
    last step, every index but the first transformed (axes q.., i, as an
    (n, rest) matrix), which dE/dV of the first index contracts with dE/dh'.
    """
    n = h.shape[0]
    x = h
    for v in vs[:0:-1]:
        x = (x.reshape(-1, n) @ v.T).T
    return x.reshape(-1, n) @ vs[0].T, x


class DressedHamiltonian:
    """H(theta): the integrals' Hamiltonian with orbital rotations folded in.

    ``rotation_spec`` rows (p, q, sector, slot) are the single-excitation
    rotations exp(theta_slot (a+_p a_q - a+_q a_p)) on 1-based orbitals, in
    the order they act on the reference state, as
    :func:`integrals.dress_integrals` takes them; a row of two distinct
    orbitals in 1..n, a known sector and a slot >= 0.  Per spin the product
    of plane rotations V (:func:`integrals.rotation_matrix`) acts on every
    index of the integrals, h1' = V h1 V^T and h2' = (V (x) V) H2
    (V (x) V)^T, and the :class:`IntegralMap` turns them into coefficients
    on ``keys``; ``coeffs`` holds them at zero angles.  Restricted integrals
    under restricted sharing (the same slots for both spins) dress one V.
    :meth:`restrict` gives the same H(theta) on some of the keys.
    """

    def __init__(
        self, tensors: IntegralTensors, rotation_spec: Sequence[tuple[int, int, str, int]]
    ):
        n = tensors.n_spatial
        rotations: dict[str, list[tuple[int, int, int]]] = {"alpha": [], "beta": []}
        for p, q, sector, slot in rotation_spec:
            check_rotation(n, p, q, sector)
            if slot < 0:
                raise ValueError(f"rotation ({p}, {q}) has the negative slot {slot}")
            rotations[sector].append((p - 1, q - 1, int(slot)))
        shared = tensors.is_restricted and rotations["alpha"] == rotations["beta"]
        self.n_modes = 2 * n
        self.tensors = tensors
        self.map = integral_map(n, shared)
        self.keys = self.map.keys
        self.coeffs = self.map.apply(self.map.entries(tensors))
        self.n_slots = 1 + max((slot for *_, slot in rotation_spec), default=-1)
        self._core = np.array([tensors.core_energy])
        # per spin: each rotation's orbitals, its slot, and +1 where it
        # turns from its lower orbital
        self._rotations = {
            spin[0]: (np.array([(p, q) for p, q, _ in rots], np.int64).reshape(-1, 2),
                      np.array([slot for *_, slot in rots], int),
                      np.array([1.0 if p < q else -1.0 for p, q, _ in rots]))
            for spin, rots in list(rotations.items())[: 1 if shared else 2]
        }
        # per block: its integrals, the mixed one also with its pairs swapped
        self._blocks = []
        for block in self.map.blocks:
            h = _tensor(tensors, block.spins)
            swapped = np.ascontiguousarray(h.transpose(2, 3, 0, 1)) if block.spins == "ab" else None
            self._blocks.append((block, h, swapped))

    def restrict(self, rows: np.ndarray) -> DressedHamiltonian:
        """The same H(theta) on ``keys[rows]`` alone: it shares the integrals
        and rotations and keeps only those rows of the map.  Its coefficients
        equal the full ones on those keys bit for bit, and with sorted
        ``rows`` so does its pullback of a gradient zero on the other keys."""
        part = copy.copy(self)
        part.map = self.map.restrict(rows)
        part.keys, part.coeffs = part.map.keys, self.coeffs[rows]
        return part

    def linearize(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Coefficients on ``keys`` at the angles ``params``, and the pullback
        of a gradient on them onto ``params``.

        The rotation product takes every angle's cosine and sine at once
        and leaves its trail in one array.  The pullback maps dE/dc through
        :meth:`IntegralMap.apply_transpose` onto the representative entries
        and spreads each evenly over its orbit, giving a dE/dh' with the
        integrals' symmetry.  That makes the derivative through every index
        of a block with one V the same, so dE/dV is that of the first index
        times the number of indices; the mixed block takes the beta one
        from its transpose.  For the rotation R_k of the pair (p, q) on
        V = P_k S_(k+1) (prefix ending with R_k, suffix after it),
        dE/dtheta_k is -(c_p^T A c_q) with A = G V^T - V G^T, G = dE/dV and
        c_p, c_q the columns p and q of P_k, the trail of
        :func:`rotation_matrix`; these add onto their slots in rotation
        order, the alpha rotations first.
        """
        params = np.asarray(params, dtype=np.float64)
        n = self.tensors.n_spatial
        v, trails = {}, {}
        for spin, (pairs, slots, _) in self._rotations.items():
            trails[spin] = np.empty((len(pairs), 2, n))
            v[spin] = rotation_matrix(n, pairs, params[slots], trails[spin])
        v.setdefault("b", v["a"])
        parts = [self._core]
        partials = []
        for block, h, _ in self._blocks:
            dressed, partial = _transform(h, [v[spin] for spin in _index_spins(block.spins)])
            parts.append(dressed.ravel()[block.last])
            partials.append(partial)
        coeffs = self.map.apply(np.concatenate(parts))

        def pullback(dcoeffs: np.ndarray) -> np.ndarray:
            du = self.map.apply_transpose(dcoeffs)
            dv = {"a": np.zeros((n, n)), "b": np.zeros((n, n))}
            for (block, h, swapped), partial in zip(self._blocks, partials):
                g = (du[block.columns] * block.share).reshape(h.shape)
                if swapped is None:
                    dv[block.spins[0]] += h.ndim * (g.reshape(n, -1) @ partial.reshape(-1, n))
                    continue
                _, partial_b = _transform(swapped, [v["b"], v["b"], v["a"], v["a"]])
                g_b = g.transpose(2, 3, 0, 1)
                dv["a"] += 2.0 * (g.reshape(n, -1) @ partial.reshape(-1, n))
                dv["b"] += 2.0 * (g_b.reshape(n, -1) @ partial_b.reshape(-1, n))
            slots, dtheta = [], []
            for spin, trail in trails.items():  # trail: (rotation, lower/higher orbital, n)
                a = dv[spin] @ v[spin].T
                a -= a.T
                _, spin_slots, orient = self._rotations[spin]
                slots.append(spin_slots)
                dtheta.append(-orient * ((trail[:, 0] @ a) * trail[:, 1]).sum(1))
            return _scatter(np.concatenate(slots), np.concatenate(dtheta), params.size)

        return coeffs, pullback


def _index_spins(spins: str) -> str:
    """Spin of each index of a block's tensor: (ij|kl) pairs i, j and k, l."""
    return spins * 2 if len(spins) == 1 else spins[0] * 2 + spins[1] * 2
