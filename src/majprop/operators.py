"""Sparse real-coefficient operators in the Majorana monomial basis.

Hermitian fermionic operators expand as H = sum_nu c_nu M_nu with real
coefficients, because every canonically phased monomial is itself Hermitian.
The expansion is stored column-wise: one sorted, duplicate-free uint64 key
array and one float64 coefficient array.  Keeping the keys sorted makes
merges deterministic and lets the propagation engine work on raw arrays
without per-term Python objects.

The trace inner product Tr[M_nu M_mu] = 2^N delta_{nu,mu} makes the stored
coefficients exactly the (normalized) trace coordinates of the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .monomials import MajoranaMonomial

__all__ = ["SparseOperator"]


@dataclass
class SparseOperator:
    """A real linear combination of Majorana monomials on ``n_modes`` modes.

    ``keys`` must be sorted and unique; use :meth:`from_terms` or
    :meth:`from_arrays` instead of the raw constructor unless both
    invariants already hold.
    """

    n_modes: int
    keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    coeffs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    # parameter slots that move the coefficients: none (see linearize)
    n_slots = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n_modes <= _kernels.MAX_MODES:
            raise ValueError(
                f"n_modes must be in [1, {_kernels.MAX_MODES}], got {self.n_modes}"
            )
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.keys.shape != self.coeffs.shape:
            raise ValueError("keys and coeffs must have matching shapes")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def from_arrays(
        cls, n_modes: int, keys: np.ndarray, coeffs: np.ndarray
    ) -> "SparseOperator":
        """Build from unsorted/duplicated arrays, merging repeated keys."""
        keys = np.asarray(keys, dtype=np.uint64)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        coeffs, keys = _kernels.summed(coeffs, keys)
        return cls(n_modes=n_modes, keys=keys, coeffs=coeffs)

    @classmethod
    def from_terms(
        cls,
        n_modes: int,
        terms: Iterable[tuple[MajoranaMonomial | int, float]],
    ) -> "SparseOperator":
        """Build from (monomial, coefficient) pairs; duplicates are summed."""
        keys = []
        coeffs = []
        for mono, c in terms:
            bits = mono.bits if isinstance(mono, MajoranaMonomial) else int(mono)
            if bits >> (2 * n_modes):
                raise ValueError(f"key {bits:#x} does not fit in {2 * n_modes} sites")
            keys.append(bits)
            coeffs.append(float(c))
        return cls.from_arrays(
            n_modes, np.array(keys, dtype=np.uint64), np.array(coeffs)
        )

    # ---- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.keys.size)

    def __iter__(self) -> Iterator[tuple[MajoranaMonomial, float]]:
        for k, c in zip(self.keys.tolist(), self.coeffs.tolist()):
            yield MajoranaMonomial(int(k), self.n_modes), c

    def coefficient(self, mono: MajoranaMonomial | int) -> float:
        """Coefficient of one monomial (0.0 if absent)."""
        bits = mono.bits if isinstance(mono, MajoranaMonomial) else int(mono)
        pos = np.searchsorted(self.keys, np.uint64(bits))
        if pos < self.keys.size and self.keys[pos] == np.uint64(bits):
            return float(self.coeffs[pos])
        return 0.0

    def max_degree(self) -> int:
        if not self.keys.size:
            return 0
        return int(_kernels.popcount(self.keys).max())

    # ---- as a surrogate graph's Hamiltonian -------------------------------

    def linearize(self, params: np.ndarray) -> tuple[np.ndarray, None]:
        """Coefficients at the angles ``params``, which do not move them, and
        no pullback: the interface of :class:`hamiltonian.DressedHamiltonian`
        for a fixed operator."""
        return self.coeffs, None

    def restrict(self, rows: np.ndarray) -> "SparseOperator":
        """The terms at the sorted positions ``rows`` alone."""
        return SparseOperator(self.n_modes, self.keys[rows], self.coeffs[rows])

    def __repr__(self) -> str:
        return f"SparseOperator(n_modes={self.n_modes}, terms={len(self)})"
