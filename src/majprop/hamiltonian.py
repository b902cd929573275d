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
blocks are then merged by key in a single pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .integrals import IntegralTensors
from .operators import SparseOperator

__all__ = [
    "build_majorana_hamiltonian",
    "spin_orbital_mode",
    "ladder_terms",
    "ladder_product",
    "assemble_operator",
]

_PRUNE = 1e-14
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


def _merge(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted unique keys with the summed real and imaginary coefficients."""
    keys = np.concatenate([k for k, _ in parts])
    values = np.concatenate([v for _, v in parts])
    uniq, inverse = np.unique(keys, return_inverse=True)
    real = np.bincount(inverse, weights=values.real, minlength=uniq.size)
    imag = np.bincount(inverse, weights=values.imag, minlength=uniq.size)
    return uniq, real, imag


def ladder_product(ops: Sequence[tuple[int, bool]]) -> dict[int, complex]:
    """Majorana expansion of one product of ladder operators.

    ``ops`` lists (mode, is_creation) factors in operator order (leftmost
    first).  Returns a map from monomial bitmask to its nonzero complex
    coefficient.
    """
    keys, real, imag = _merge([ladder_terms([[m for m, _ in ops]], [d for _, d in ops], [1.0])])
    return {int(k): complex(re, im) for k, re, im in zip(keys, real, imag) if re or im}


def assemble_operator(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], n_modes: int, prune: float = _PRUNE
) -> SparseOperator:
    """Merge (keys, complex coefficients) parts into a real SparseOperator.

    Hermitian combinations of ladder terms always cancel their imaginary
    parts on the canonical monomial basis; a residual above roundoff means
    the accumulated operator was not Hermitian.
    """
    keys, real, imag = _merge(parts)
    scale = max(1.0, float(np.abs(real + 1j * imag).max(initial=0.0)))
    worst = float(np.abs(imag).max(initial=0.0))
    if worst > 1e-10 * scale:
        raise ValueError(f"non-Hermitian accumulation: imaginary residue {worst:.3e}")
    keep = np.abs(real) > prune
    return SparseOperator(n_modes, keys[keep], real[keep])


def build_majorana_hamiltonian(t: IntegralTensors) -> SparseOperator:
    """Expand H = E_core + sum h_pq a+_p a_q + 1/2 sum (ij|kl) a+ a+ a a.

    The two-electron part uses the chemist-ordered integrals directly:
    (ij|kl) weighs a+_{i s1} a+_{k s2} a_{l s2} a_{j s1} over all
    spin-sector pairs.  Integrals below 1e-16 in magnitude are skipped.  The
    result contains the identity plus even monomials of length 2 and 4
    only, with real coefficients.
    """
    n = t.n_spatial
    spins = ("alpha", "beta")
    mode = {s: np.array([spin_orbital_mode(p, s, n) for p in range(1, n + 1)])
            for s in spins}
    parts = [ladder_terms([[]], (), [t.core_energy])]  # the empty string is the identity
    for s in spins:
        h1 = t.h1_block(s)
        p, q = np.nonzero(np.abs(h1) >= 1e-16)
        modes = np.stack([mode[s][p], mode[s][q]], axis=1)
        parts.append(ladder_terms(modes, (True, False), h1[p, q]))
    for s1 in spins:
        for s2 in spins:
            h2 = t.h2_block(s1[0] + s2[0])
            i, j, k, l = np.nonzero(np.abs(h2) >= 1e-16)
            modes = np.stack([mode[s1][i], mode[s2][k], mode[s2][l], mode[s1][j]], axis=1)
            parts.append(ladder_terms(modes, (True, True, False, False), 0.5 * h2[i, j, k, l]))
    return assemble_operator(parts, 2 * n)
