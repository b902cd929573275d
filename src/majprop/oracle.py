"""Exact statevector references for small systems.

Everything in this module works directly on full 2^n Fock-space vectors and
is built straight from the defining action of the fermionic ladder
operators,

    a_p |x> = (-1)^(n_1 + ... + n_{p-1}) n_p |x - e_p>,

with mode p stored in bit p-1 of the basis index.  Spin orbitals are
interleaved: odd modes carry alpha spin, even modes beta.  None of the fast
array algebra is used here, which makes this module an independent check on
the sign and phase conventions of the rest of the package.

Dense matrices are only ever materialized in a particle-number/spin sector
(or for deliberately tiny full spaces), never for production-size systems.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .monomials import MajoranaMonomial
from .operators import SparseOperator

__all__ = [
    "basis_state",
    "apply_majorana_site",
    "apply_monomial",
    "apply_operator",
    "apply_rotation",
    "circuit_state",
    "dense_monomial",
    "dense_operator",
    "dense_expectation",
    "sector_indices",
    "eigensolve_sector",
    "exact_overlap",
]

_FULL_SPACE_LIMIT = 14  # modes; 2^14 x 2^14 complex is the most we ever build dense


def basis_state(occupation: int, n_modes: int) -> np.ndarray:
    """Fock basis vector |occupation> as a complex statevector."""
    if occupation < 0 or occupation >> n_modes:
        raise ValueError(f"occupation {occupation:#x} does not fit in {n_modes} modes")
    psi = np.zeros(1 << n_modes, dtype=np.complex128)
    psi[occupation] = 1.0
    return psi


def _site_action(
    site: int, idx: np.ndarray, amp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Track (index, amplitude) pairs through one Majorana factor m_site.

    ``m_{2p-1} = a_p^dag + a_p`` flips mode p with the Jordan-Wigner prefix
    sign; ``m_{2p} = i(a_p^dag - a_p)`` additionally distinguishes creation
    from annihilation, giving an extra i(1 - 2 n_p) before the flip.
    """
    p = (site + 1) // 2
    bit = p - 1
    prefix = np.bitwise_count(idx & ((1 << bit) - 1))
    sign = 1.0 - 2.0 * (prefix & 1)
    if site % 2 == 1:
        amp = amp * sign
    else:
        occ = (idx >> bit) & 1
        amp = amp * (1j * sign * (1.0 - 2.0 * occ))
    return idx ^ (1 << bit), amp


def apply_majorana_site(psi: np.ndarray, site: int, n_modes: int) -> np.ndarray:
    """Apply a single Majorana factor m_site (1-based) to a statevector."""
    if not 1 <= site <= 2 * n_modes:
        raise ValueError(f"site {site} outside 1..{2 * n_modes}")
    idx = np.arange(psi.size, dtype=np.int64)
    new_idx, amp = _site_action(site, idx, psi.astype(np.complex128, copy=False))
    out = np.empty_like(amp)
    out[new_idx] = amp
    return out


def apply_monomial(psi: np.ndarray, mono: MajoranaMonomial) -> np.ndarray:
    """Apply a canonically phased monomial M_nu to a statevector."""
    idx = np.arange(psi.size, dtype=np.int64)
    amp = psi.astype(np.complex128, copy=True)
    for site in reversed(mono.factors()):
        idx, amp = _site_action(site, idx, amp)
    d = mono.degree
    amp *= 1j ** ((d * (d - 1) // 2) % 4)
    out = np.empty_like(amp)
    out[idx] = amp
    return out


def apply_operator(psi: np.ndarray, op: SparseOperator) -> np.ndarray:
    """Apply a sparse Majorana-basis operator to a statevector."""
    out = np.zeros_like(psi, dtype=np.complex128)
    for mono, c in op:
        out += c * apply_monomial(psi, mono)
    return out


def apply_rotation(
    psi: np.ndarray, generator: MajoranaMonomial, angle: float
) -> np.ndarray:
    """Apply exp(-i angle/2 M_generator); monomials square to one, so this
    is cos(angle/2) minus i sin(angle/2) times the generator's action."""
    return np.cos(angle / 2.0) * psi - 1j * np.sin(angle / 2.0) * apply_monomial(
        psi, generator
    )


def circuit_state(
    gates: Iterable[tuple[MajoranaMonomial, float]],
    occupation: int,
    n_modes: int,
) -> np.ndarray:
    """State prepared by a rotation sequence acting on a Fock state.

    Gates are given as (generator, angle) pairs and applied in iteration
    order, the first pair hitting the reference state first.
    """
    psi = basis_state(occupation, n_modes)
    for gamma, theta in gates:
        psi = apply_rotation(psi, gamma, theta)
    return psi


# ---- dense matrices -------------------------------------------------------


def _monomial_columns(
    mono_bits: int, n_modes: int, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and amplitudes of M_nu restricted to the given columns.

    Each monomial has exactly one nonzero per column; this walks the factor
    list once, carrying (row, amplitude) for every requested column.
    """
    mono = MajoranaMonomial(mono_bits, n_modes)
    idx = cols.astype(np.int64, copy=True)
    amp = np.ones(cols.size, dtype=np.complex128)
    for site in reversed(mono.factors()):
        idx, amp = _site_action(site, idx, amp)
    d = mono.degree
    amp *= 1j ** ((d * (d - 1) // 2) % 4)
    return idx, amp


def dense_monomial(mono: MajoranaMonomial) -> np.ndarray:
    """Full 2^n x 2^n matrix of one monomial (small systems only)."""
    if mono.n_modes > _FULL_SPACE_LIMIT:
        raise ValueError("refusing to build a dense matrix this large")
    dim = 1 << mono.n_modes
    cols = np.arange(dim, dtype=np.int64)
    rows, amps = _monomial_columns(mono.bits, mono.n_modes, cols)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[rows, cols] = amps
    return out


def dense_operator(op: SparseOperator) -> np.ndarray:
    """Full dense matrix of a sparse operator (small systems only)."""
    if op.n_modes > _FULL_SPACE_LIMIT:
        raise ValueError("refusing to build a dense matrix this large")
    dim = 1 << op.n_modes
    cols = np.arange(dim, dtype=np.int64)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for bits, c in zip(op.keys.tolist(), op.coeffs.tolist()):
        rows, amps = _monomial_columns(int(bits), op.n_modes, cols)
        out[rows, cols] += c * amps
    return out


def dense_expectation(op: SparseOperator, psi: np.ndarray) -> float:
    """<psi| op |psi> for a Hermitian sparse operator (real by construction)."""
    val = np.vdot(psi, apply_operator(psi, op))
    return float(val.real)


# ---- sector eigensolves ---------------------------------------------------


def sector_indices(
    n_modes: int,
    n_particles: int | None = None,
    twice_sz: int | None = None,
) -> np.ndarray:
    """Basis indices of a particle-number / spin-projection sector.

    ``twice_sz`` counts (alpha - beta) occupations, matching the MS2
    convention of integral files.  Either filter may be None to leave that
    quantum number unconstrained.
    """
    idx = np.arange(1 << n_modes, dtype=np.int64)
    keep = np.ones(idx.size, dtype=bool)
    if n_particles is not None:
        keep &= np.bitwise_count(idx) == n_particles
    if twice_sz is not None:
        alpha = sum(1 << bit for bit in range(0, n_modes, 2))  # the odd (alpha) modes
        n_a = np.bitwise_count(idx & alpha).astype(np.int64)  # a uint8 difference wraps
        keep &= n_a - np.bitwise_count(idx & ~np.int64(alpha)) == twice_sz
    return idx[keep]


def eigensolve_sector(
    op: SparseOperator,
    n_particles: int | None = None,
    twice_sz: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact spectrum of an operator projected onto a Fock sector.

    Returns (eigenvalues ascending, eigenvectors as columns in sector
    coordinates, global basis indices of the sector).  The operator is
    projected as P H P; for sector-conserving operators this is simply the
    diagonal block.
    """
    cols = sector_indices(op.n_modes, n_particles, twice_sz)
    m = cols.size
    if m == 0:
        raise ValueError("empty sector")
    H = np.zeros((m, m), dtype=np.complex128)
    for bits, c in zip(op.keys.tolist(), op.coeffs.tolist()):
        rows, amps = _monomial_columns(int(bits), op.n_modes, cols)
        pos_clipped = np.minimum(np.searchsorted(cols, rows), m - 1)
        valid = cols[pos_clipped] == rows
        H[pos_clipped[valid], np.flatnonzero(valid)] += c * amps[valid]
    if not np.allclose(H, H.conj().T, atol=1e-10):
        raise ValueError("projected operator is not Hermitian")
    w, v = np.linalg.eigh(H)
    return w, v, cols


def exact_overlap(psi: np.ndarray, phi: np.ndarray) -> float:
    """Squared overlap |<phi|psi>|^2 of two statevectors."""
    return float(abs(np.vdot(phi, psi)) ** 2)


def embed_sector_vector(
    vec: np.ndarray, cols: np.ndarray, n_modes: int
) -> np.ndarray:
    """Lift a sector-coordinate eigenvector back to the full Fock space."""
    psi = np.zeros(1 << n_modes, dtype=np.complex128)
    psi[cols] = vec
    return psi
