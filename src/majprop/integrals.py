"""Electronic-structure integrals: FCIDUMP I/O and orbital-rotation dressing.

Integrals are held as full spatial-orbital tensors in the chemist ordering
(pq|rs) used by FCIDUMP files, with optional separate beta-spin or
mixed-spin blocks for unrestricted problems.  Unrestricted files follow the
common multi-section convention: ``UHF=.TRUE.`` in the header and the
aa-ERI, bb-ERI, ab-ERI, alpha-h1, beta-h1 and core sections separated by
``0.0 0 0 0 0`` delimiter lines.

:func:`index_symmetries` is the one statement of the blocks' index
symmetry: the parser stores each line on its whole orbit, the writer
writes one entry per orbit, and the integral map of
:mod:`majprop.hamiltonian` and the random instances read it too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Sequence

import numpy as np

__all__ = [
    "IntegralTensors",
    "FcidumpError",
    "index_symmetries",
    "parse_fcidump",
    "emit_fcidump",
    "dress_integrals",
    "rotation_matrix",
    "hartree_fock_energy",
    "aufbau_occupation",
]

_WRITE_TOL = 1e-14


class FcidumpError(ValueError):
    """Malformed FCIDUMP content; message carries the offending line number."""


@dataclass
class IntegralTensors:
    """Spatial-orbital integrals in chemist (pq|rs) ordering, 1-based on disk.

    ``h1``/``h2`` are the alpha (and, when restricted, the only) blocks;
    unrestricted problems carry ``h1_beta``, ``h2_bb`` and the mixed block
    ``h2_ab`` with the alpha pair first.
    """

    core_energy: float
    h1: np.ndarray
    h2: np.ndarray
    n_electrons: int = 0
    ms2: int = 0
    h1_beta: np.ndarray | None = None
    h2_bb: np.ndarray | None = None
    h2_ab: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.h1 = np.asarray(self.h1, dtype=np.float64)
        self.h2 = np.asarray(self.h2, dtype=np.float64)
        n = self.h1.shape[0]
        if self.h1.shape != (n, n) or self.h2.shape != (n, n, n, n):
            raise ValueError("integral tensor shapes are inconsistent")

    @property
    def n_spatial(self) -> int:
        return self.h1.shape[0]

    @property
    def is_restricted(self) -> bool:
        return self.h1_beta is None and self.h2_bb is None and self.h2_ab is None

    @property
    def spin_mode(self) -> str:
        return "restricted" if self.is_restricted else "unrestricted"

    def h1_block(self, sector: str) -> np.ndarray:
        if sector == "alpha":
            return self.h1
        if sector == "beta":
            return self.h1_beta if self.h1_beta is not None else self.h1
        raise ValueError(f"unknown spin sector {sector!r}")

    def h2_block(self, sectors: str) -> np.ndarray:
        """ERI block by spin pair: 'aa', 'bb', 'ab' or 'ba' (chemist pairs)."""
        if sectors == "aa":
            return self.h2
        if sectors == "bb":
            return self.h2_bb if self.h2_bb is not None else self.h2
        if sectors == "ab":
            return self.h2_ab if self.h2_ab is not None else self.h2
        if sectors == "ba":
            return self.h2_block("ab").transpose(2, 3, 0, 1)
        raise ValueError(f"unknown spin-sector pair {sectors!r}")


def index_symmetries(spins: str) -> list[tuple[int, ...]]:
    """Index permutations that leave an integral block unchanged, the
    identity first: ``tensor.transpose(perm)`` equals the tensor for each.

    A one-body block ("a", "b") has (pq) = (qp).  A same-spin two-body
    block ("aa", "bb") has the 8-fold symmetry of real orbitals (Knowles and
    Handy, Comput. Phys. Commun. 54, 75 (1989)): (ij|kl) = (ji|kl) = (ij|lk)
    = (kl|ij) and their products.  The mixed block ("ab") keeps the 4-fold
    symmetry within each pair only.
    """
    if len(spins) == 1:
        return [(0, 1), (1, 0)]
    within = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]
    if spins[0] != spins[1]:
        return within
    # the same four with the pairs swapped: (kl|ij), (lk|ij), (kl|ji), (lk|ji)
    return within + [tuple((axis + 2) % 4 for axis in perm) for perm in within]


# ---- FCIDUMP parsing --------------------------------------------------------


def _parse_namelist(header: str) -> dict[str, str]:
    # Fortran namelist: KEY=value pairs separated by commas/whitespace;
    # ORBSYM may carry a comma-separated list, so split on keys explicitly.
    body = header.strip()
    body = re.sub(r"^&FCI", "", body, flags=re.IGNORECASE)
    body = re.sub(r"&END|\$END|/", " ", body, flags=re.IGNORECASE).strip()
    fields: dict[str, str] = {}
    for match in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=(?:[,\s]+[A-Za-z_][A-Za-z0-9_]*\s*=)|$)", body):
        fields[match.group(1).upper()] = match.group(2).strip().rstrip(",")
    return fields


def parse_fcidump(text: str) -> IntegralTensors:
    """Parse FCIDUMP text into full integral tensors.

    Restricted files fill the shared blocks; ``UHF=.TRUE.`` files are read
    section by section.  Lines of the form ``value i 0 0 0`` (orbital
    energies, written by some programs) are ignored.
    """
    lines = text.splitlines()
    header_parts: list[str] = []
    data_start = None
    for ln, raw in enumerate(lines):
        stripped = raw.strip()
        header_parts.append(stripped)
        if re.search(r"&END|\$END|^/$|/\s*$", stripped, flags=re.IGNORECASE):
            data_start = ln + 1
            break
    if data_start is None:
        raise FcidumpError("line 1: header never terminated (&END or / missing)")
    fields = _parse_namelist(" ".join(header_parts))
    try:
        norb = int(fields["NORB"])
    except (KeyError, ValueError):
        raise FcidumpError("line 1: missing or malformed NORB in header") from None
    n_electrons = int(fields.get("NELEC", "0"))
    ms2 = int(fields.get("MS2", "0"))
    unrestricted = fields.get("UHF", "").upper().lstrip(".").startswith("T")

    h2_aa = np.zeros((norb,) * 4)
    h2_bb = np.zeros((norb,) * 4) if unrestricted else None
    h2_ab = np.zeros((norb,) * 4) if unrestricted else None
    h1_a = np.zeros((norb, norb))
    h1_b = np.zeros((norb, norb)) if unrestricted else None
    core = 0.0
    # unrestricted section order: aa ERI, bb ERI, ab ERI, alpha h1, beta h1, core
    section = 0
    # each line is stored on its whole orbit under the block's index symmetry
    orbit = {spins: [itemgetter(*perm) for perm in index_symmetries(spins)]
             for spins in ("a", "aa", "ab")}

    for ln, raw in enumerate(lines[data_start:], start=data_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {ln}: expected 'value i j k l', got {stripped!r}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError(f"line {ln}: non-numeric field in {stripped!r}") from None
        if min(i, j, k, l) < 0 or max(i, j, k, l) > norb:
            raise FcidumpError(f"line {ln}: orbital index outside 1..{norb}")
        if i == 0 and j == 0 and k == 0 and l == 0:
            if unrestricted and value == 0.0 and section < 5:
                section += 1
            else:
                core = value
            continue
        if k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy line
            if unrestricted and section not in (3, 4):
                raise FcidumpError(f"line {ln}: one-electron entry in two-electron section")
            tensor = h1_b if section == 4 else h1_a
            spins, at = "a", (i - 1, j - 1)
        else:
            if min(i, j, k, l) == 0:
                raise FcidumpError(f"line {ln}: partial zero indices in {stripped!r}")
            if section > 2:
                raise FcidumpError(f"line {ln}: two-electron entry in one-electron section")
            tensor = (h2_aa, h2_bb, h2_ab)[section]
            spins, at = "ab" if section == 2 else "aa", (i - 1, j - 1, k - 1, l - 1)
        for image in orbit[spins]:
            tensor[image(at)] = value

    return IntegralTensors(
        core_energy=core,
        h1=h1_a,
        h2=h2_aa,
        n_electrons=n_electrons,
        ms2=ms2,
        h1_beta=h1_b,
        h2_bb=h2_bb,
        h2_ab=h2_ab,
    )


# ---- FCIDUMP emission --------------------------------------------------------


def _line(v: float, i: int, j: int, k: int, l: int) -> str:
    return f" {v:.16g} {i:4d} {j:4d} {k:4d} {l:4d}"


def _orbit_lines(tensor: np.ndarray, spins: str) -> list[str]:
    """FCIDUMP lines of a block: each orbit's largest index tuple, in
    ascending order, where its entry is above the write tolerance."""
    dims = tensor.shape
    idx = np.indices(dims).reshape(len(dims), -1)
    images = [np.ravel_multi_index(idx[list(perm)], dims) for perm in index_symmetries(spins)]
    top = np.flatnonzero(images[0] == np.maximum.reduce(images))
    top = top[np.abs(tensor.ravel()[top]) > _WRITE_TOL]
    at = np.transpose(np.unravel_index(top, dims)) + 1
    zeros = [0] * (4 - len(dims))
    return [_line(v, *ix, *zeros) for v, ix in zip(tensor.ravel()[top].tolist(), at.tolist())]


def emit_fcidump(t: IntegralTensors) -> str:
    """Render integral tensors back to FCIDUMP text."""
    n = t.n_spatial
    orbsym = ",".join(["1"] * n)
    flags = "" if t.is_restricted else "\n UHF=.TRUE.,"
    out = [
        f"&FCI NORB={n},NELEC={t.n_electrons},MS2={t.ms2},",
        f" ORBSYM={orbsym},",
        f" ISYM=1,{flags}",
        "&END",
    ]
    if t.is_restricted:
        out += _orbit_lines(t.h2, "aa") + _orbit_lines(t.h1, "a")
    else:
        blocks = [(t.h2_block(s), s) for s in ("aa", "bb", "ab")]
        blocks += [(t.h1_block(s), s[0]) for s in ("alpha", "beta")]
        for tensor, spins in blocks:
            out += _orbit_lines(tensor, spins) + [_line(0.0, 0, 0, 0, 0)]
    out.append(_line(t.core_energy, 0, 0, 0, 0))
    return "\n".join(out) + "\n"


# ---- orbital dressing ---------------------------------------------------------


def rotation_matrix(
    n: int,
    pairs: Sequence[tuple[int, int]],
    angles: np.ndarray,
    trail: np.ndarray | None = None,
) -> np.ndarray:
    """One-particle matrix V = R_1 R_2 ... of plane rotations, in list order.

    Rotation k, on the 0-based orbitals ``pairs[k]`` = (p, q), p != q, at
    ``angles[k]`` = theta, is R = exp(theta (E_qp - E_pq)): the identity
    except R[p, p] = R[q, q] = cos theta and R[q, p] = -R[p, q] = sin
    theta.  The product is built in closed form, one pair of rows of V^T
    per rotation.  With ``trail`` given, an array of shape (rotation, 2, n),
    rotation k writes into ``trail[k]`` the columns (lower orbital, higher
    orbital) of the prefix product ending with it.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    angles = np.asarray(angles, dtype=np.float64)
    # the same rotation, seen from its lower orbital
    angles = np.where(pairs[:, 0] > pairs[:, 1], -angles, angles)
    c, s = np.cos(angles), np.sin(angles)
    blocks = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)
    if trail is None:
        trail = np.empty((len(pairs), 2, n))
    vt = np.eye(n)
    for k, (p, q) in enumerate(np.sort(pairs, axis=1).tolist()):
        rows = vt[p : q + 1 : q - p]
        np.matmul(blocks[k], rows, out=trail[k])
        rows[...] = trail[k]
    return vt.T


def check_rotation(n: int, p: int, q: int, sector: str) -> None:
    """Refuse a rotation of 1-based orbitals (p, q) that is not one of two
    distinct orbitals in 1..n within one known spin sector."""
    if sector not in ("alpha", "beta"):
        raise ValueError(f"unknown spin sector {sector!r}")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"orbital pair ({p}, {q}) outside 1..{n}")
    if p == q:
        raise ValueError("rotation requires two distinct orbitals")


def dress_integrals(
    t: IntegralTensors,
    rotations: Sequence[tuple[int, int, float, str]],
) -> IntegralTensors:
    """Fold a sequence of single-excitation rotations into the integrals.

    Each entry (p, q, theta, sector) is one rotation exp(theta (a+_p a_q -
    a+_q a_p)) on the named spin sector, listed in the order they act on
    the reference state.  Conjugating the Hamiltonian by the full product
    maps every creation operator by a one-particle matrix V, so the
    integrals transform by the congruence h -> V h V^T (and its four-index
    analogue), leaving the spectrum untouched.
    """
    n = t.n_spatial
    per_sector: dict[str, list[tuple[int, int, float]]] = {"alpha": [], "beta": []}
    for p, q, theta, sector in rotations:
        check_rotation(n, p, q, sector)
        per_sector[sector].append((p, q, theta))

    def _total(seq: list[tuple[int, int, float]]) -> np.ndarray:
        return rotation_matrix(
            n, [(p - 1, q - 1) for p, q, _ in seq], np.array([theta for *_, theta in seq])
        )

    v_alpha = _total(per_sector["alpha"])
    same = per_sector["alpha"] == per_sector["beta"]

    def _transform_h1(h1: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v @ h1 @ v.T

    def _transform_h2(h2: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        return np.einsum("pi,qj,rk,sl,ijkl->pqrs", v1, v1, v2, v2, h2, optimize=True)

    if t.is_restricted and same:
        return replace(
            t,
            h1=_transform_h1(t.h1, v_alpha),
            h2=_transform_h2(t.h2, v_alpha, v_alpha),
        )
    v_beta = v_alpha if same else _total(per_sector["beta"])
    return IntegralTensors(
        core_energy=t.core_energy,
        h1=_transform_h1(t.h1_block("alpha"), v_alpha),
        h2=_transform_h2(t.h2_block("aa"), v_alpha, v_alpha),
        n_electrons=t.n_electrons,
        ms2=t.ms2,
        h1_beta=_transform_h1(t.h1_block("beta"), v_beta),
        h2_bb=_transform_h2(t.h2_block("bb"), v_beta, v_beta),
        h2_ab=_transform_h2(t.h2_block("ab"), v_alpha, v_beta),
    )


# ---- reference-determinant energy ---------------------------------------------


def aufbau_occupation(n_electrons: int) -> int:
    """Fill the lowest spin orbitals; with the interleaved layout and an even
    electron count this is the closed-shell reference determinant."""
    return (1 << n_electrons) - 1


def _mode_spin_spatial(mode: int) -> tuple[str, int]:
    """Spin sector and 1-based spatial index of a 1-based spin-orbital mode
    (the inverse of ``hamiltonian.spin_orbital_mode``)."""
    return ("alpha", (mode + 1) // 2) if mode % 2 else ("beta", mode // 2)


def hartree_fock_energy(t: IntegralTensors, occupation: int | None = None) -> float:
    """Determinant energy straight from the integrals (Slater--Condon rules).

    E = core + sum_P h_PP + 1/2 sum_PQ (<PQ|PQ> - <PQ|QP>) over occupied
    spin orbitals; an independent check on the Majorana-basis Hamiltonian.
    """
    if occupation is None:
        occupation = aufbau_occupation(t.n_electrons)
    n = t.n_spatial
    occ = [m for m in range(1, 2 * n + 1) if occupation >> (m - 1) & 1]
    spins = {m: _mode_spin_spatial(m) for m in occ}
    energy = t.core_energy
    for m in occ:
        sp, p = spins[m]
        energy += t.h1_block(sp)[p - 1, p - 1]
    for m1 in occ:
        s1, p = spins[m1]
        for m2 in occ:
            s2, q = spins[m2]
            pair = ("a" if s1 == "alpha" else "b") + ("a" if s2 == "alpha" else "b")
            coulomb = t.h2_block(pair)[p - 1, p - 1, q - 1, q - 1]
            exchange = (
                t.h2_block(pair)[p - 1, q - 1, q - 1, p - 1] if s1 == s2 else 0.0
            )
            energy += 0.5 * (coulomb - exchange)
    return float(energy)
