"""Exact scalar algebra of Majorana monomials.

Each mode pair of fermionic creation/annihilation operators (a_p, a_p^dag)
defines two Hermitian Majorana operators

    m_{2p-1} = a_p^dag + a_p,       m_{2p} = i (a_p^dag - a_p),

which square to one and mutually anticommute.  A monomial is an ordered
product of distinct Majorana factors together with the canonical phase
i^{r}, r = d(d-1)/2 for degree d, which makes every monomial Hermitian and
self-inverse.  We store only the factor set, as an integer bitmask whose
bit k flags m_{k+1}.

This module is the scalar reference implementation: plain Python integers,
no numpy, valid for any number of modes.  The vectorized uint64 twin lives
in ``_kernels`` and is cross-checked against this one in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MajoranaMonomial",
    "SignedMonomial",
    "monomial_product",
    "monomials_commute",
    "pairing_support",
    "paired_eigenvalue",
]


def _phase_exponent(degree: int) -> int:
    return (degree * (degree - 1) // 2) % 4


def _swap_parity(a: int, b: int) -> int:
    """Transpositions (mod 2) needed to merge sorted factor lists a and b.

    Counts pairs (i in a, j in b) with i > j, i.e. the inversions created by
    concatenating a's factors to the left of b's and resorting.
    """
    parity = 0
    rest = a
    while rest:
        low = rest & (rest - 1)
        i = (rest ^ low).bit_length() - 1
        parity ^= bin(b & ((1 << i) - 1)).count("1") & 1
        rest = low
    return parity


@dataclass(frozen=True, order=True)
class MajoranaMonomial:
    """A canonically phased product of Majorana operators.

    Attributes
    ----------
    bits:
        Bitmask of Majorana factors; bit k set means m_{k+1} is present.
    n_modes:
        Number of fermionic modes the monomial is defined on.  The mask must
        fit in 2*n_modes bits.
    """

    bits: int
    n_modes: int

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        if self.bits < 0 or self.bits >> (2 * self.n_modes):
            raise ValueError(
                f"bitmask {self.bits:#x} does not fit in {2 * self.n_modes} Majorana sites"
            )

    @property
    def degree(self) -> int:
        """Number of Majorana factors."""
        return bin(self.bits).count("1")

    def factors(self) -> tuple[int, ...]:
        """1-based indices of the Majorana factors, ascending."""
        return tuple(k + 1 for k in range(2 * self.n_modes) if self.bits >> k & 1)

    # ---- serialization ----------------------------------------------------

    def to_hex(self) -> str:
        """Render as ``N=<modes>:0x<mask>`` with the mask zero-padded."""
        width = (2 * self.n_modes + 3) // 4
        return f"N={self.n_modes}:0x{self.bits:0{width}x}"

    @classmethod
    def from_hex(cls, text: str) -> "MajoranaMonomial":
        """Parse the ``N=<modes>:0x<mask>`` form (padding optional)."""
        head, sep, tail = text.strip().partition(":")
        if not sep or not head.startswith("N="):
            raise ValueError(f"malformed monomial literal: {text!r}")
        return cls(bits=int(tail, 16), n_modes=int(head[2:]))

    def __str__(self) -> str:
        return self.to_hex()


@dataclass(frozen=True)
class SignedMonomial:
    """A monomial together with the phase picked up by an algebraic operation."""

    phase: complex
    monomial: MajoranaMonomial


def _odd_site_mask(n_modes: int) -> int:
    mask = 0
    for j in range(n_modes):
        mask |= 1 << (2 * j)
    return mask


def monomial_product(a: MajoranaMonomial, b: MajoranaMonomial) -> SignedMonomial:
    """Product M_a M_b = phase * M_{a xor b} of two canonical monomials.

    Shared factors square away pairwise, leaving the symmetric difference of
    the factor sets; the phase collects the canonical prefactors and the
    reordering sign.  It is +/-1 when the monomials commute and +/-i when
    they anticommute.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("monomials live on different mode counts")
    r = _phase_exponent(a.degree) + _phase_exponent(b.degree)
    out_bits = a.bits ^ b.bits
    out = MajoranaMonomial(out_bits, a.n_modes)
    r -= _phase_exponent(out.degree)
    phase = (1j) ** (r % 4)
    if _swap_parity(a.bits, b.bits):
        phase = -phase
    return SignedMonomial(phase=complex(phase), monomial=out)


def monomials_commute(a: MajoranaMonomial, b: MajoranaMonomial) -> bool:
    """Whether M_a and M_b commute.

    Swapping the full factor lists costs (-1)^(|a||b|) with one sign cancelled
    per shared factor, so the pair commutes iff |a|*|b| - |a&b| is even.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("monomials live on different mode counts")
    shared = bin(a.bits & b.bits).count("1")
    return (a.degree * b.degree - shared) % 2 == 0


def pairing_support(m: MajoranaMonomial) -> int | None:
    """Mode mask of a fully paired monomial, or None if it is not paired.

    A monomial is paired when its factors come exclusively in complete mode
    pairs m_{2j-1}m_{2j}; such monomials are diagonal in the Fock basis.
    """
    odd = _odd_site_mask(m.n_modes)
    if (m.bits ^ (m.bits >> 1)) & odd:
        return None
    support = 0
    folded = m.bits & odd
    j = 0
    while folded:
        if folded & 1:
            support |= 1 << j
        folded >>= 2
        j += 1
    return support


def paired_eigenvalue(m: MajoranaMonomial, occupation: int) -> int:
    """Eigenvalue (+1 or -1) of a paired monomial on a Fock basis state.

    The canonical pair -i m_{2j-1} m_{2j} acts as 1 - 2 n_j, so a paired
    monomial with k pairs carries a global (-1)^k on top of one -1 per
    occupied mode in its support.
    """
    support = pairing_support(m)
    if support is None:
        raise ValueError("monomial is not diagonal: unpaired Majorana factors")
    k = m.degree // 2
    hits = bin(support & occupation).count("1")
    return -1 if (k + hits) % 2 else 1
