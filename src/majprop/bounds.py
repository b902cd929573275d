"""Symmetry penalties and floors on the ground-state overlap.

A propagation gives energies but no direct overlap with the ground state,
so the overlap is bracketed from below instead.  Every floor needs a
variational energy, e >= e0; a truncated propagation can report less, and
such energies are refused rather than certified.  The
energy alone already forces a floor: a state between the ground and first
excited energies cannot avoid the ground state entirely.  Spectral gaps
within the correct symmetry sector sharpen it, provided the weight leaking
outside the sector is known, and that leakage is exactly the expectation of
a penalty operator built from the number and spin symmetries.  The four
``lower_bound_*`` functions trade available information for tightness, from
energies alone down to a penalty expectation with unknown gap ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonian import assemble_operator, ladder_terms
from .operators import SparseOperator

__all__ = [
    "OverlapBound",
    "SpectralData",
    "build_penalty_hamiltonian",
    "lower_bound_simple",
    "lower_bound_known_alpha",
    "lower_bound_penalty",
    "lower_bound_unknown_gap",
]


class OverlapBound(NamedTuple):
    """A lower bound on |<psi|ground>|^2, clamped to [0,1] plus the raw value."""

    value: float
    raw: float


def _floor(raw: float, e: float, e0: float) -> OverlapBound:
    if e < e0 - 1e-9:
        raise ValueError(f"energy {e!r} lies below the ground-state energy {e0!r}; "
                         "a sub-ground energy (truncation error) certifies no overlap")
    return OverlapBound(min(1.0, max(0.0, raw)), raw)


# ---- penalty operator -------------------------------------------------------


def build_penalty_hamiltonian(
    n_modes: int,
    n_expected: int,
    a: float = 1.0,
    b: float = 0.0,
    c: float = 4.0 / 3.0,
) -> tuple[SparseOperator, float, float]:
    """A(N - N_exp)^2 + B Sz^2 + C S^2 with its eigenvalue brackets.

    The operator is nonnegative, and with A, C > 0 its null space is
    exactly the singlet states carrying ``n_expected`` particles (B only
    steepens the walls; breaking Sz already breaks S^2).  Returns the
    operator together with lambda2, a floor on its smallest positive
    eigenvalue, and lambda_p, its largest one.

    lambda2 treats each symmetry violation independently: one particle off
    costs at least A, a triplet costs at least 2C, a half-unit of Sz at
    least B/4.  lambda_p is the largest eigenvalue itself: each particle
    number n allows spins up to S = min(n, n_modes - n)/2, and Sz = S
    maximizes the B and C terms together, so a scan over n finds it.
    """
    if n_modes < 2 or n_modes % 2:
        raise ValueError("penalty operator needs an even number of modes >= 2")
    if not 0 <= n_expected <= n_modes:
        raise ValueError(f"expected particle count {n_expected} outside 0..{n_modes}")
    if min(a, b, c) < 0 or max(a, b, c) == 0:
        raise ValueError("penalty constants must be nonnegative and not all zero")

    n_spatial = n_modes // 2
    modes = np.arange(1, n_modes + 1)
    # alpha modes are odd under the interleaved layout
    sigma = np.where(modes % 2, 1.0, -1.0)
    m, mp = np.repeat(modes, n_modes), np.tile(modes, n_modes)
    p, q = np.repeat(modes[::2], n_spatial), np.tile(modes[::2], n_spatial)  # alpha modes
    number, number_pair = (True, False), (True, False, True, False)
    operator = assemble_operator(
        [
            ladder_terms([[]], (), [a * n_expected**2]),  # the empty string is the identity
            # the linear parts of A(N - N_exp)^2 and of Sz(Sz+1) inside S^2
            ladder_terms(
                np.stack([modes, modes], axis=1), number, -2.0 * a * n_expected + 0.5 * c * sigma
            ),
            # A N^2, plus Sz^2 on its own and inside S^2 = S-S+ + Sz(Sz+1)
            ladder_terms(
                np.stack([m, m, mp, mp], axis=1),
                number_pair,
                a + 0.25 * (b + c) * sigma[m - 1] * sigma[mp - 1],
            ),
            # C S-S+ = C sum_pq b+_p a_p a+_q b_q, beta mode = alpha mode + 1
            ladder_terms(np.stack([p + 1, p, q, q + 1], axis=1), number_pair, np.full(p.size, c)),
        ],
        n_modes,
    )

    lambda2 = min(v for v in (a, 2.0 * c, 0.25 * b) if v > 0)
    lambda_p = max(
        a * (n - n_expected) ** 2 + b * s * s + c * s * (s + 1.0)
        for n in range(n_modes + 1)
        for s in (min(n, n_modes - n) / 2.0,)
    )
    return operator, lambda2, lambda_p


# ---- overlap lower bounds -----------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Inputs for the penalty-based overlap bound.

    ``e0`` and ``s1`` are the ground and first-excited singlet energies of
    the correct particle sector, ``s1_top`` the lowest energy outside that
    sector (wrong spin or wrong particle count), ``e`` the state's energy,
    and ``p`` its penalty expectation.  The lambda values bracket the
    penalty operator's nonzero spectrum.
    """

    e0: float
    s1: float
    s1_top: float
    lambda2: float
    lambda_p: float
    p: float
    e: float

    def __post_init__(self) -> None:
        if not self.e0 < self.s1:
            raise ValueError("need e0 < s1 for a spectral overlap bound")
        if self.p < 0:
            raise ValueError("penalty expectation cannot be negative")
        if not 0 < self.lambda2 <= self.lambda_p:
            raise ValueError("need 0 < lambda2 <= lambda_p")


def lower_bound_simple(e: float, e0: float, e1: float) -> OverlapBound:
    """1 - (e - e0)/(e1 - e0): the floor from energies alone.

    Worst case is a state split between the ground and first excited
    levels; anything at energy ``e`` must keep at least this much ground
    state.
    """
    if not e0 < e1:
        raise ValueError("need e0 < e1 for the two-level overlap bound")
    return _floor(1.0 - (e - e0) / (e1 - e0), e, e0)


def lower_bound_known_alpha(
    e: float, e0: float, s1: float, s1_top: float, alpha_sq: float
) -> OverlapBound:
    """The sector-aware floor when the out-of-sector weight is known exactly.

    ``alpha_sq`` is the state's weight outside the correct-sector singlet
    space.  When the out-of-sector gap ``s1_top`` lies above ``s1`` the
    correction enters with a negative sign and tightens the plain ratio.
    """
    if not e0 < s1:
        raise ValueError("need e0 < s1 for the sector-resolved overlap bound")
    if not 0.0 <= alpha_sq <= 1.0:
        raise ValueError("alpha_sq is a squared overlap and must lie in [0, 1]")
    gap = s1 - e0
    return _floor((s1 - e) / gap - alpha_sq * (s1 - s1_top) / gap, e, e0)


def lower_bound_penalty(data: SpectralData) -> OverlapBound:
    """The sector-aware floor from a penalty expectation value.

    The out-of-sector weight is unknown but bracketed by p/lambda_p <=
    alpha_sq <= p/lambda2, so the worst bracket end replaces it: the upper
    end when the out-of-sector state sits below s1 (its weight hurts), the
    lower end otherwise (its weight helps).
    """
    if data.p > data.lambda2:
        raise ValueError(
            "penalty expectation exceeds lambda2; the worst-case weight "
            "p/lambda2 would pass 1 and the bound no longer applies"
        )
    gap = data.s1 - data.e0
    rate = data.lambda2 if data.s1_top < data.s1 else data.lambda_p
    raw = (data.s1 - data.e) / gap - (data.p / rate) * (data.s1 - data.s1_top) / gap
    return _floor(raw, data.e, data.e0)


def lower_bound_unknown_gap(
    e: float,
    e0: float,
    s1: float,
    p: float,
    lambda2: float,
    s1top_below: bool = True,
) -> OverlapBound:
    """The penalty floor when the out-of-sector gap itself is unknown.

    Discards the gap ratio: with the out-of-sector level known to sit
    below ``s1`` the full worst-case weight p/lambda2 is subtracted;
    otherwise the plain ratio already holds.  ``s1top_below=True`` is the
    safe choice when the ordering is unknown.
    """
    if not e0 < s1:
        raise ValueError("need e0 < s1 for the sector-resolved overlap bound")
    if p < 0:
        raise ValueError("penalty expectation cannot be negative")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")
    raw = (s1 - e) / (s1 - e0)
    if s1top_below:
        raw -= p / lambda2
    return _floor(raw, e, e0)
