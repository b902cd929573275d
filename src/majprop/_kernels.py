"""Vectorized bit-level kernels on uint64 monomial keys.

A Majorana monomial on ``n_modes`` fermionic modes is encoded as an integer
whose bit ``k`` flags the presence of the Majorana factor ``m_{k+1}`` (bits
are 0-indexed, operators 1-indexed; factors are kept in ascending index
order with a canonical phase prefactor that is never stored).  All hot loops
operate on numpy ``uint64`` arrays of such keys, which caps supported
systems at 32 modes (64 Majorana bits) -- plenty for the intended problem
sizes and checked at the API boundary.

Everything in here is branch-free numpy on arrays; generators ``gamma``
broadcast against the keys (gamma = 0 is the identity).  The scalar
reference implementations live in :mod:`majprop.monomials` and the two are
cross-checked in the test suite.

:func:`summed` is the package's one sum by key: the propagation step,
:class:`operators.SparseOperator`, the Hamiltonian assembly and the
integral map all merge duplicate keys through it, adding each key's values
in input order.
"""

from __future__ import annotations

import numpy as np

# Bit 2j selects the odd Majorana m_{2j+1} of mode j+1, bit 2j+1 the even
# one; this mask picks out the odd (first-of-mode) positions.
ODD_SITE_MASK = np.uint64(0x5555555555555555)

MAX_MODES = 32


def popcount(keys: np.ndarray) -> np.ndarray:
    """Number of Majorana factors in each key (monomial degree)."""
    return np.bitwise_count(keys)


def pairing_defect(keys: np.ndarray) -> np.ndarray:
    """Odd-site mask of the modes a key touches once; linear under XOR, so
    ``a ^ b`` is paired exactly where ``a`` and ``b`` have equal defects."""
    k = np.asarray(keys, dtype=np.uint64)
    return (k ^ (k >> np.uint64(1))) & ODD_SITE_MASK


def is_paired(keys: np.ndarray) -> np.ndarray:
    """True where a key only contains complete mode pairs m_{2j-1}m_{2j}."""
    return pairing_defect(keys) == 0


def phase_exponent(degree: np.ndarray) -> np.ndarray:
    """Canonical phase exponent r = d(d-1)/2 (mod 4) for degree-d monomials."""
    d = degree.astype(np.int64, copy=False)
    return (d * (d - 1) // 2) % 4


def swap_parity_with(gamma, keys: np.ndarray) -> np.ndarray:
    """Parity of the factor reordering in the product M_gamma * M_key.

    Interleaving the (sorted) factors of ``gamma`` to the left of those of
    each ``key`` into one sorted word costs one transposition per pair
    (i in gamma, j in key) with i > j; this returns that count mod 2 as a
    0/1 int array.
    """
    k = np.asarray(keys, dtype=np.uint64)
    g = np.asarray(gamma, dtype=np.uint64)
    total = np.zeros(np.broadcast_shapes(g.shape, k.shape), dtype=np.uint8)
    while g.any():
        rest = g & (g - (g != 0))  # clear the lowest set bit
        low = g ^ rest
        total += np.bitwise_count(k & (low - (low != 0)))  # factors of key below it
        g = rest
    return (total & 1).astype(np.int64)


def anticommutes_with(gamma, keys: np.ndarray) -> np.ndarray:
    """Boolean mask of keys whose monomial anticommutes with M_gamma.

    Two monomials commute iff |a|*|b| - |a & b| is even.
    """
    k = np.asarray(keys, dtype=np.uint64)
    g = np.asarray(gamma, dtype=np.uint64)
    odd = (np.bitwise_count(g) & np.bitwise_count(k)) ^ np.bitwise_count(k & g)
    return (odd & 1) == 1


def product_sign_with(gamma, keys: np.ndarray) -> np.ndarray:
    """Sign of the anticommuting branch i*M_gamma*M_key = sign * M_{gamma^key}.

    For anticommuting pairs the product phase i^{r_a + r_b - r_{a^b}} *
    (-1)^s is purely imaginary, so multiplying by the explicit ``i`` of the
    rotation branch leaves a real sign; this returns that +/-1 as float64.
    Only meaningful where :func:`anticommutes_with` is True.
    """
    k = np.asarray(keys, dtype=np.uint64)
    g = np.asarray(gamma, dtype=np.uint64)
    degree = np.bitwise_count
    r = (phase_exponent(degree(g)) + phase_exponent(degree(k)) - phase_exponent(degree(k ^ g))) % 4
    # r is 1 or 3 (mod 4) on the anticommuting set: i * i^1 = -1, i * i^3 = +1.
    flip = (r == 1) ^ (swap_parity_with(g, k) == 1)
    return np.where(flip, -1.0, 1.0)


def paired_eigenvalues(keys: np.ndarray, occupation: int) -> np.ndarray:
    """Eigenvalue of each fully paired monomial on a Fock basis state.

    A paired key with k mode pairs equals (-1)^k times the product of the
    number-like operators -i*m_{2j-1}m_{2j} = 1 - 2n_j over its support, so
    its eigenvalue on ``|occupation>`` is (-1)^(k + occupied pairs).  Only
    meaningful where :func:`is_paired` is True.
    """
    k = keys.astype(np.uint64, copy=False)
    pairs = np.bitwise_count(k).astype(np.int64) >> 1
    occ_mask = np.uint64(_expand_occupation(int(occupation)))
    hits = np.bitwise_count(k & occ_mask).astype(np.int64) >> 1
    return np.where((pairs + hits) & 1 == 1, -1.0, 1.0)


def _expand_occupation(occupation: int) -> int:
    """Spread mode occupation bits onto both Majorana bit positions."""
    out = 0
    j = 0
    occ = occupation
    while occ:
        if occ & 1:
            out |= 3 << (2 * j)
        occ >>= 1
        j += 1
    return out


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries starts, in arrays sorted together:
    the positions at which any of ``keys`` differs from the entry before."""
    start = np.ones(keys[0].size, bool)
    start[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return np.flatnonzero(start)


def summed(values: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum real or complex ``values`` over equal tuples of ``keys``: returns
    the sums, then the distinct tuples in ascending order (the first key
    array most significant), in the order of the arguments.

    One stable lexsort, the run starts, and one ``np.bincount`` over run
    ids for the real part and one for the imaginary part, so each sum is
    added in input order.
    """
    order = np.lexsort(keys[::-1])
    keys = tuple(k[order] for k in keys)
    values = values[order]
    first = run_starts(*keys)
    run = np.zeros(values.size, np.int64)
    run[first[1:]] = 1
    run = np.cumsum(run)
    # bincount gives int64 for no entries, float64 otherwise
    sums = np.bincount(run, weights=values.real, minlength=first.size).astype(float, copy=False)
    if np.iscomplexobj(values):
        sums = sums.astype(complex)
        sums.imag = np.bincount(run, weights=values.imag, minlength=first.size)
    return sums, *(k[first] for k in keys)
