#!/usr/bin/env python3
"""Generate hydrogen-chain FCIDUMP fixtures with reference energies.

Self-contained minimal-basis (STO-3G) integrals for hydrogen chains: all
basis functions are s-type Gaussians, for which overlap, kinetic,
nuclear-attraction and repulsion integrals have closed forms.  A plain
restricted Hartree-Fock loop produces the molecular orbitals, and an
independent determinant-basis configuration-interaction solve (working
directly on occupation bitmasks, no package code involved) produces the
exact ground-state reference energies stored in the JSON sidecars.

Run from the repository root:

    python3 scripts/make_fixtures.py

The outputs in tests/fixtures/ are committed; this script exists to
regenerate or extend them.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import erf

BOHR_PER_ANGSTROM = 1.8897259886

# STO-3G hydrogen 1s: exponents and contraction coefficients
H_EXPONENTS = np.array([3.42525091, 0.62391373, 0.16885540])
H_COEFFS = np.array([0.15432897, 0.53532814, 0.44463454])


def boys0(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    mask = t > 1e-12
    out[mask] = 0.5 * np.sqrt(np.pi / t[mask]) * erf(np.sqrt(t[mask]))
    return out


class SBasis:
    """Contracted s-type Gaussians on a set of centers."""

    def __init__(self, centers: np.ndarray):
        self.centers = np.asarray(centers, dtype=float)
        self.n = len(centers)
        norms = (2.0 * H_EXPONENTS / np.pi) ** 0.75
        self.coeffs = H_COEFFS * norms
        self.exps = H_EXPONENTS

    def pairs(self):
        for a, ca in zip(self.exps, self.coeffs):
            for b, cb in zip(self.exps, self.coeffs):
                yield a, ca, b, cb


def overlap_kinetic(basis: SBasis) -> tuple[np.ndarray, np.ndarray]:
    n = basis.n
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            rab2 = float(np.sum((basis.centers[i] - basis.centers[j]) ** 2))
            s = t = 0.0
            for a, ca, b, cb in basis.pairs():
                p = a + b
                mu = a * b / p
                pref = ca * cb * (np.pi / p) ** 1.5 * math.exp(-mu * rab2)
                s += pref
                t += pref * mu * (3.0 - 2.0 * mu * rab2)
            S[i, j] = s
            T[i, j] = t
    return S, T


def nuclear_attraction(basis: SBasis, charges: list[tuple[float, np.ndarray]]) -> np.ndarray:
    n = basis.n
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ra, rb = basis.centers[i], basis.centers[j]
            rab2 = float(np.sum((ra - rb) ** 2))
            total = 0.0
            for a, ca, b, cb in basis.pairs():
                p = a + b
                mu = a * b / p
                rp = (a * ra + b * rb) / p
                pref = ca * cb * 2.0 * np.pi / p * math.exp(-mu * rab2)
                for z, rc in charges:
                    t = p * float(np.sum((rp - rc) ** 2))
                    total -= pref * z * float(boys0(t))
            V[i, j] = total
    return V


def electron_repulsion(basis: SBasis) -> np.ndarray:
    n = basis.n
    eri = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            rij2 = float(np.sum((basis.centers[i] - basis.centers[j]) ** 2))
            for k in range(n):
                for l in range(n):
                    rkl2 = float(np.sum((basis.centers[k] - basis.centers[l]) ** 2))
                    total = 0.0
                    for a, ca, b, cb in basis.pairs():
                        p = a + b
                        rp = (a * basis.centers[i] + b * basis.centers[j]) / p
                        ea = math.exp(-a * b / p * rij2)
                        for c, cc, d, cd in basis.pairs():
                            q = c + d
                            rq = (c * basis.centers[k] + d * basis.centers[l]) / q
                            eb = math.exp(-c * d / q * rkl2)
                            t = p * q / (p + q) * float(np.sum((rp - rq) ** 2))
                            total += (
                                ca
                                * cb
                                * cc
                                * cd
                                * 2.0
                                * np.pi**2.5
                                / (p * q * math.sqrt(p + q))
                                * ea
                                * eb
                                * float(boys0(t))
                            )
                    eri[i, j, k, l] = total
    return eri


def restricted_hartree_fock(
    S: np.ndarray, hcore: np.ndarray, eri: np.ndarray, n_occ: int, e_nuc: float
) -> tuple[float, np.ndarray]:
    """Plain damped Roothaan SCF; returns (total energy, MO coefficients)."""
    w, u = np.linalg.eigh(S)
    x = u @ np.diag(w**-0.5) @ u.T
    density = np.zeros_like(S)
    energy = 0.0
    for _ in range(500):
        coulomb = np.einsum("pqrs,rs->pq", eri, density)
        exchange = np.einsum("prqs,rs->pq", eri, density)
        fock = hcore + coulomb - 0.5 * exchange
        _, c_prime = np.linalg.eigh(x.T @ fock @ x)
        c = x @ c_prime
        new_density = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        new_energy = 0.5 * np.sum((hcore + fock) * new_density) + e_nuc
        if np.max(np.abs(new_density - density)) < 1e-12:
            return float(new_energy), c
        density = 0.5 * density + 0.5 * new_density
        energy = new_energy
    # fall through with the damped iterate; chains at these spacings converge
    return float(energy), c


def mo_transform(
    hcore: np.ndarray, eri: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    h1 = c.T @ hcore @ c
    h2 = np.einsum("pi,qj,rk,sl,pqrs->ijkl", c, c, c, c, eri, optimize=True)
    return h1, h2


# ---- independent determinant CI (no package imports) -------------------------


def fci_ground_energy(h1: np.ndarray, h2: np.ndarray, core: float, n_elec: int) -> float:
    """Exact ground energy by dense CI over spin-orbital occupation bitmasks.

    Spin orbital 2p (even bit) is spatial p alpha, 2p+1 beta, 0-based; the
    ladder operators act on bitmasks with the usual ordering sign.
    """
    n = h1.shape[0]
    n_so = 2 * n
    dets = [
        sum(1 << b for b in combo)
        for combo in itertools.combinations(range(n_so), n_elec)
    ]
    index = {d: i for i, d in enumerate(dets)}
    dim = len(dets)
    H = np.zeros((dim, dim))

    def annihilate(det: int, so: int) -> tuple[int, int] | None:
        if not det >> so & 1:
            return None
        sign = -1 if bin(det & ((1 << so) - 1)).count("1") % 2 else 1
        return det ^ (1 << so), sign

    def create(det: int, so: int) -> tuple[int, int] | None:
        if det >> so & 1:
            return None
        sign = -1 if bin(det & ((1 << so) - 1)).count("1") % 2 else 1
        return det | (1 << so), sign

    def add_term(coeff: float, ops: list[tuple[int, bool]]):
        # ops in operator order (leftmost first); apply rightmost first
        for col, det in enumerate(dets):
            state = det
            sign = 1
            ok = True
            for so, dagger in reversed(ops):
                step = create(state, so) if dagger else annihilate(state, so)
                if step is None:
                    ok = False
                    break
                state, s = step
                sign *= s
            if ok and state in index:
                H[index[state], col] += coeff * sign

    for p in range(n):
        for q in range(n):
            if abs(h1[p, q]) < 1e-15:
                continue
            for spin in (0, 1):
                add_term(h1[p, q], [(2 * p + spin, True), (2 * q + spin, False)])
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = h2[p, q, r, s]
                    if abs(v) < 1e-15:
                        continue
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            add_term(
                                0.5 * v,
                                [
                                    (2 * p + s1, True),
                                    (2 * r + s2, True),
                                    (2 * s + s2, False),
                                    (2 * q + s1, False),
                                ],
                            )
    return float(np.linalg.eigvalsh(H)[0] + core)


# ---- FCIDUMP writer (self-contained) ------------------------------------------


def write_fcidump(path: Path, h1: np.ndarray, h2: np.ndarray, core: float, n_elec: int):
    n = h1.shape[0]
    lines = [
        f"&FCI NORB={n},NELEC={n_elec},MS2=0,",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, i + 1):
                for l in range(1, (j if k == i else k) + 1):
                    v = h2[i - 1, j - 1, k - 1, l - 1]
                    if abs(v) > 1e-14:
                        lines.append(f" {v:.16g} {i:4d} {j:4d} {k:4d} {l:4d}")
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            v = h1[i - 1, j - 1]
            if abs(v) > 1e-14:
                lines.append(f" {v:.16g} {i:4d} {j:4d} {0:4d} {0:4d}")
    lines.append(f" {core:.16g} {0:4d} {0:4d} {0:4d} {0:4d}")
    path.write_text("\n".join(lines) + "\n")


def hydrogen_chain_fcidump(
    n_atoms: int, spacing_bohr: float, path: Path
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Write the FCIDUMP of an evenly spaced hydrogen chain to ``path``:
    STO-3G integrals over the restricted Hartree-Fock orbitals.  Returns
    the Hartree-Fock energy, the MO integrals and the nuclear repulsion.
    It runs no CI, so it also serves chains too long for the dense one."""
    centers = np.array([[i * spacing_bohr, 0.0, 0.0] for i in range(n_atoms)])
    charges = [(1.0, c) for c in centers]
    e_nuc = sum(
        1.0 / float(np.linalg.norm(centers[i] - centers[j]))
        for i in range(n_atoms)
        for j in range(i + 1, n_atoms)
    )
    basis = SBasis(centers)
    S, T = overlap_kinetic(basis)
    V = nuclear_attraction(basis, charges)
    eri = electron_repulsion(basis)
    hcore = T + V
    n_occ = n_atoms // 2
    e_hf, c = restricted_hartree_fock(S, hcore, eri, n_occ, e_nuc)
    h1, h2 = mo_transform(hcore, eri, c)
    write_fcidump(path, h1, h2, e_nuc, n_atoms)
    return e_hf, h1, h2, e_nuc


def hydrogen_chain(n_atoms: int, spacing_bohr: float, name: str, out_dir: Path):
    e_hf, h1, h2, e_nuc = hydrogen_chain_fcidump(
        n_atoms, spacing_bohr, out_dir / f"{name}.fcidump"
    )
    e_fci = fci_ground_energy(h1, h2, e_nuc, n_atoms)
    sidecar = {
        "system": f"H{n_atoms} chain",
        "spacing_bohr": spacing_bohr,
        "n_spatial": n_atoms,
        "n_electrons": n_atoms,
        "nuclear_repulsion": e_nuc,
        "e_hf": e_hf,
        "e_fci": e_fci,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"{name}: HF {e_hf:.8f}  FCI {e_fci:.8f}  (corr {e_fci - e_hf:.6f})")
    return e_hf, e_fci


def main():
    out_dir = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)

    # H2 at 1.4 bohr: textbook minimal-basis reference values
    e_hf, e_fci = hydrogen_chain(2, 1.4, "h2_sto3g", out_dir)
    assert abs(e_hf - (-1.1167)) < 2e-3, e_hf
    assert abs(e_fci - (-1.1373)) < 2e-3, e_fci

    for spacing_angstrom, tag in ((1.5, "r15"), (2.0, "r20"), (2.5, "r25")):
        hydrogen_chain(4, spacing_angstrom * BOHR_PER_ANGSTROM, f"h4_chain_{tag}", out_dir)


if __name__ == "__main__":
    main()
