"""Candidate gate pools, orbit-equivalence reduction, and selection scoring.

The pool holds spin-preserving occupied-to-virtual excitations in Majorana
form: each single excitation becomes a composite of two commuting length-2
rotations sharing one angle, and each double excitation is represented by a
single length-4 monomial (all monomials acting once per mode with the same
odd-site parity move a Fock state along the same orbit, so one
representative per excitation suffices).

Both scoring schemes read the exact single-angle landscape of each
candidate -- a sinusoid for a single-monomial gate, second harmonics for a
composite -- whose coefficients ``surrogate.landscape_rows`` gives in
closed form for the whole pool at once, from the pool's generator and sign
arrays, at any insertion point of the surrogate graph's circuit.  Gradient scores are the slope at theta = 0.
GGF (greedy gradient-free) scores minimize the landscape, one eigenvalue
call per companion-matrix size for the whole pool, and report the
achievable energy improvement together with the minimizing angle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .engine import Gate
from .hamiltonian import spin_orbital_mode
from .surrogate import (  # noqa: F401 -- perfbench/tracing.py wraps pool.extend_surrogate
    SurrogateGraph,
    extend_surrogate,
    landscape_rows,
)

__all__ = [
    "Pool",
    "PoolCandidate",
    "SelectionScore",
    "build_majoranic_pool",
    "reduce_pool_equivalence",
    "score_pool_gradient",
    "fit_sinusoid",
    "landscape_minima",
    "landscape_minimum",
    "probe_landscape",
    "score_pool_ggf",
    "single_excitation_monomials",
    "trim_pool",
    "is_refresh_iteration",
]


def _mode_bits(mode: int) -> tuple[int, int]:
    """(odd-site bit, even-site bit) for a 1-based mode index."""
    return 1 << (2 * (mode - 1)), 1 << (2 * (mode - 1) + 1)


def single_excitation_monomials(mode_p: int, mode_q: int) -> tuple[int, int]:
    """The two commuting length-2 generators of exp(theta (a+_p a_q - a+_q a_p)).

    For the low-to-high orientation (exciting the lower mode into the
    higher) both rotations take the shared angle with gate sign -1;
    reversing the orientation flips the shared sign.
    """
    if mode_p == mode_q:
        raise ValueError("single excitation needs two distinct modes")
    lo, hi = sorted((mode_p, mode_q))
    odd_lo, even_lo = _mode_bits(lo)
    odd_hi, even_hi = _mode_bits(hi)
    return odd_lo | odd_hi, even_lo | even_hi


def _double_representative(modes: Sequence[int]) -> int:
    """One length-4 monomial from the double-excitation orbit class.

    The fermionic expansion keeps monomials with an odd number of odd-site
    factors; we pick odd sites everywhere except the highest mode.
    """
    ordered = sorted(modes)
    bits = 0
    for mode in ordered[:-1]:
        bits |= _mode_bits(mode)[0]
    bits |= _mode_bits(ordered[-1])[1]
    return bits


@dataclass(frozen=True)
class PoolCandidate:
    """One pool entry: generator bit patterns sharing a single angle."""

    generators: tuple[int, ...]
    signs: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.signs):
            raise ValueError("generators and signs must align")
        for bits in self.generators:
            degree = int(bin(bits).count("1"))
            if degree not in (2, 4):
                raise ValueError(f"pool generators must have length 2 or 4, got {degree}")

    @property
    def is_composite(self) -> bool:
        return len(self.generators) > 1

    def gates(self, slot: int) -> list[Gate]:
        return [
            Gate(bits, slot=slot, sign=sign, label=self.label)
            for bits, sign in zip(self.generators, self.signs)
        ]


@dataclass(frozen=True)
class Pool:
    """An immutable tuple of candidates on ``n_modes`` modes.

    ``generators`` and ``signs`` hold every candidate's generators and gate
    signs as read-only (candidates, 2) arrays, the layout
    :func:`surrogate.landscape_rows` reads (a lone gate pairs with generator
    0, the identity, of sign 1).  They are built on first use, since
    generators fit ``uint64`` only up to the 32 modes propagation supports.
    """

    n_modes: int
    candidates: tuple[PoolCandidate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))

    @functools.cached_property
    def generators(self) -> np.ndarray:
        return self._padded("generators", 0, np.uint64)

    @functools.cached_property
    def signs(self) -> np.ndarray:
        return self._padded("signs", 1, np.float64)

    def _padded(self, name: str, fill: int, dtype: type) -> np.ndarray:
        out = np.full((len(self.candidates), 2), fill, dtype)
        for row, cand in enumerate(self.candidates):
            values = getattr(cand, name)
            if len(values) > 2:
                raise ValueError("landscapes are resolved for at most two gates")
            out[row, : len(values)] = values
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return len(self.candidates)

    def describe(self) -> dict:
        singles = sum(1 for c in self.candidates if c.is_composite)
        return {
            "n_modes": self.n_modes,
            "singles": singles,
            "doubles": len(self.candidates) - singles,
            "total": len(self.candidates),
        }


@dataclass(frozen=True)
class SelectionScore:
    """Candidate ranking entry: |gradient| or GGF improvement (<= 0).

    Both scorers also read the landscape's minimum off the same row: the
    achievable ``improvement`` (<= 0) and the angle ``theta_star`` reaching it.
    """

    index: int
    score: float
    theta_star: float | None = None
    improvement: float | None = None


def _per_sector(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return int(value[0]), int(value[1])
    return int(value), int(value)


_CACHED_POOLS = 8  # pools kept per process, one per argument tuple


@functools.lru_cache(maxsize=_CACHED_POOLS)
def build_majoranic_pool(
    n_spatial: int,
    n_occupied: int | tuple[int, int],
    n_virtual: int | tuple[int, int] | None = None,
) -> Pool:
    """Spin-preserving occupied-to-virtual singles and doubles.

    Occupied orbitals are 1..o per sector (energy order), virtuals the rest.
    Counts: 2ov singles, 2 C(o,2) C(v,2) same-spin doubles, (ov)^2
    opposite-spin doubles.  The pool depends on the arguments alone and is
    immutable, so it is built once per process and kept for the last few
    argument tuples (``build_majoranic_pool.cache_clear()`` drops them):
    the first call pays the build, every later one gets the same object.
    """
    occ = _per_sector(n_occupied)
    virt = _per_sector(n_virtual) if n_virtual is not None else tuple(
        n_spatial - o for o in occ
    )
    for o, v in zip(occ, virt):
        if o < 0 or v < 0 or o + v != n_spatial:
            raise ValueError(
                f"occupied + virtual must equal n_spatial per sector, "
                f"got {o}+{v} != {n_spatial}"
            )

    def mode(p: int, sector: int) -> int:
        return spin_orbital_mode(p, ("alpha", "beta")[sector], n_spatial)

    candidates: list[PoolCandidate] = []
    sector_names = ("a", "b")
    for s, name in enumerate(sector_names):
        for q in range(1, occ[s] + 1):
            for p in range(occ[s] + 1, n_spatial + 1):
                a, b = single_excitation_monomials(mode(q, s), mode(p, s))
                candidates.append(
                    PoolCandidate((a, b), (-1, -1), f"s {name} {q}->{p}")
                )
    for s, name in enumerate(sector_names):
        for q1, q2 in itertools.combinations(range(1, occ[s] + 1), 2):
            for p1, p2 in itertools.combinations(
                range(occ[s] + 1, n_spatial + 1), 2
            ):
                bits = _double_representative(
                    [mode(q1, s), mode(q2, s), mode(p1, s), mode(p2, s)]
                )
                candidates.append(
                    PoolCandidate(
                        (bits,), (1,), f"d {name}{name} {q1},{q2}->{p1},{p2}"
                    )
                )
    for qa in range(1, occ[0] + 1):
        for pa in range(occ[0] + 1, n_spatial + 1):
            for qb in range(1, occ[1] + 1):
                for pb in range(occ[1] + 1, n_spatial + 1):
                    bits = _double_representative(
                        [mode(qa, 0), mode(pa, 0), mode(qb, 1), mode(pb, 1)]
                    )
                    candidates.append(
                        PoolCandidate((bits,), (1,), f"d ab {qa},{qb}->{pa},{pb}")
                    )
    if len(set(c.generators for c in candidates)) != len(candidates):
        raise ValueError("pool construction produced duplicate candidates")
    return Pool(n_modes=2 * n_spatial, candidates=candidates)


def _orbit_key(bits: int) -> tuple[int, int] | None:
    """Equivalence-class key for one-Majorana-per-mode even monomials.

    Plain int arithmetic: pool bookkeeping must work beyond the 32-mode
    propagation ceiling, where bitmasks outgrow uint64.
    """
    degree = bin(bits).count("1")
    odd_mask = int("5" * -(-bits.bit_length() // 4), 16) if bits else 0
    support = (bits & odd_mask) | ((bits >> 1) & odd_mask)
    if bin(support).count("1") != degree:
        return None
    odd_sites = bin(bits & odd_mask).count("1")
    return support, odd_sites % 2


def reduce_pool_equivalence(pool: Pool) -> Pool:
    """Keep one representative per Fock-orbit class of single-monomial gates.

    Valid when gates act directly on a Fock state (Heisenberg front
    placement): swapping which Majorana touches each mode only changes the
    rotation angle's sign.  Composites and monomials acting twice on a mode
    pass through untouched.
    """
    seen: set = set()
    kept: list[PoolCandidate] = []
    for cand in pool.candidates:
        if cand.is_composite:
            key = ("composite", cand.generators, cand.signs)
        else:
            orbit = _orbit_key(cand.generators[0])
            key = ("monomial", cand.generators[0]) if orbit is None else orbit
        if key in seen:
            continue
        seen.add(key)
        kept.append(cand)
    return Pool(n_modes=pool.n_modes, candidates=kept)


# ---- scoring ------------------------------------------------------------------


def _landscapes(pool, graph, params, where, indices) -> tuple[list[int], np.ndarray]:
    """Chosen candidate indices and their landscape rows at ``where``."""
    if pool.n_modes != graph.n_modes:
        raise ValueError(f"pool acts on {pool.n_modes} modes, the graph on {graph.n_modes}")
    if indices is None:
        chosen, generators, signs = range(len(pool)), pool.generators, pool.signs
    else:
        chosen = list(indices)
        generators, signs = pool.generators[chosen], pool.signs[chosen]
    return chosen, landscape_rows(graph, params, where, generators, signs)


def score_pool_gradient(
    pool: Pool,
    graph: SurrogateGraph,
    params: np.ndarray,
    where: Literal["front", "back"] | int = "front",
    indices: Sequence[int] | None = None,
) -> list[SelectionScore]:
    """|dE/dt| at t = 0 per candidate inserted at ``where`` with angle t.

    It is |b1 + 2 b2| of the candidate's landscape; a composite's gates
    share t, so their derivatives sum before the magnitude is taken.  The
    landscape minimum comes along, as :func:`score_pool_ggf` reports it.
    """
    chosen, rows = _landscapes(pool, graph, params, where, indices)
    slopes = np.abs(rows[:, 2] + 2.0 * rows[:, 4])
    drops, stars = landscape_minima(rows)
    return [
        SelectionScore(idx, float(slope), float(star), float(drop))
        for idx, slope, drop, star in zip(chosen, slopes, drops, stars)
    ]


# ---- GGF scoring ------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_PROBES = (_HALF_PI, -_HALF_PI, 0.5 * _HALF_PI, -0.5 * _HALF_PI)
_TIE_HA = 1e-12  # energies or scores this close count as tied


def landscape_minima(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(improvements, theta*) of rows [a0, a1, b1, a2, b2] of landscapes
    a0 + a1 cos t + b1 sin t + a2 cos 2t + b2 sin 2t.

    Stationary angles are roots of a quartic in z = e^{it} on the unit
    circle, from the companion matrices ``np.roots`` builds (one eigenvalue
    call per size).  Among those within 1e-12 Ha of the lowest (and t = 0),
    the one nearest zero wins, and the positive one of a +-t pair: a
    composite acting on a Fock state has a pi-periodic landscape, and
    roundoff in the roots must not pick between t* and t* +- pi.
    Improvements are <= 0; a landscape flat to 1e-12 gives (0, 0).
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    c1, c2 = rows[:, 1] - 1j * rows[:, 2], rows[:, 3] - 1j * rows[:, 4]
    poly = np.stack([2 * c2, c1, np.zeros_like(c1), -np.conj(c1), -2 * np.conj(c2)], 1)
    roots = np.zeros((len(rows), 4), dtype=complex)  # 0 is off the circle
    for degree, group in ((4, c2 != 0), (2, (c2 == 0) & (c1 != 0))):
        if group.any():  # poly with its zero ends stripped, as np.roots strips them
            q = poly[group, 2 - degree // 2: 3 + degree // 2]
            companion = np.zeros((len(q), degree, degree), dtype=complex)
            companion[:, 0] = -q[:, 1:] / q[:, :1]
            companion[:, range(1, degree), range(degree - 1)] = 1.0
            roots[group, :degree] = np.linalg.eigvals(companion)
    angles = np.concatenate([np.zeros((len(rows), 1)), np.angle(roots)], 1)
    z = np.exp(1j * angles)
    values = (c1[:, None] * z + c2[:, None] * z * z).real  # E(t) - a0
    values[:, 1:][np.abs(np.abs(roots) - 1.0) >= 1e-6] = np.inf
    lowest = values <= values.min(1, keepdims=True) + _TIE_HA
    size = np.abs(angles)
    nearest = lowest & (size <= np.where(lowest, size, np.inf).min(1, keepdims=True) + 1e-9)
    best = np.argmax(np.where(nearest, angles, -np.inf), 1)[:, None]
    drop = np.take_along_axis(values, best, 1)[:, 0] - values[:, 0]
    return np.where(drop > 0.0, 0.0, drop), np.take_along_axis(angles, best, 1)[:, 0]


def landscape_minimum(coeffs: Sequence[float]) -> tuple[float, float]:
    """(improvement, theta*) of one landscape row; see :func:`landscape_minima`."""
    drop, theta = landscape_minima(coeffs)
    return float(drop[0]), float(theta[0])


def probe_landscape(energy: Callable[[float], float], e0: float, composite: bool) -> np.ndarray:
    """Landscape coefficients fitted to energies at a few probe angles.

    ``energy(t)`` evaluates the circuit with the candidate at angle t, and
    ``e0`` is its value at t = 0.  A single-monomial gate's sinusoid is
    pinned by the probes at +-pi/2; a composite (two rotations sharing the
    angle) has harmonics up to 2 and needs +-pi/4 as well.
    """
    t = np.array((0.0,) + _PROBES[: 4 if composite else 2])
    basis = np.stack([np.ones_like(t), np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], 1)
    values = [e0] + [energy(x) for x in t[1:]]
    return np.append(np.linalg.solve(basis[:, : t.size], values), np.zeros(5 - t.size))


def fit_sinusoid(e0: float, ep: float, em: float) -> tuple[float, float]:
    """(improvement, theta*) of A sin(theta+B)+C from values at {0, +-pi/2}."""
    return landscape_minimum(probe_landscape({_HALF_PI: ep, -_HALF_PI: em}.get, e0, False))


def score_pool_ggf(
    pool: Pool,
    graph: SurrogateGraph,
    params: np.ndarray,
    where: Literal["front", "back"] | int = "front",
    indices: Sequence[int] | None = None,
) -> list[SelectionScore]:
    """Exact achievable improvement and optimal angle per candidate.

    ``where`` is the insertion point: "front", "back", or a gate index
    (the candidate goes before that gate of ``graph.circuit``).  The
    landscape coefficients come in closed form from ``landscape_rows`` at
    any point.  All improvements are <= 0; a flat landscape scores 0 with
    theta* = 0.
    """
    chosen, rows = _landscapes(pool, graph, params, where, indices)
    drops, stars = landscape_minima(rows)
    return [
        SelectionScore(idx, float(drop), float(star), float(drop))
        for idx, drop, star in zip(chosen, drops, stars)
    ]


# ---- trimming ---------------------------------------------------------------


def is_refresh_iteration(iteration: int, kappa: int) -> bool:
    """Full-pool rescoring happens at iteration 1 and every kappa-th one."""
    return iteration == 1 or iteration % kappa == 0


def rank_candidates(
    scores: Sequence[SelectionScore], larger_is_better: bool = True
) -> list[SelectionScore]:
    """Best-first ordering with lowest-index tie-breaking.

    Scores within 1e-12 of the first of their run count as tied, so that
    roundoff cannot choose between symmetry-equivalent candidates.
    """
    sign = -1.0 if larger_is_better else 1.0
    out: list[SelectionScore] = []
    run: list[SelectionScore] = []
    for s in sorted(scores, key=lambda s: sign * s.score):
        if run and sign * (s.score - run[0].score) > _TIE_HA:
            out += sorted(run, key=lambda r: r.index)
            run = []
        run.append(s)
    return out + sorted(run, key=lambda r: r.index)


def trim_pool(
    scores: Sequence[SelectionScore],
    tau_keep: int,
    kappa: int,
    iteration: int,
    larger_is_better: bool = True,
) -> list[int]:
    """Active candidate indices for the coming iterations.

    At refresh iterations the top tau_keep of the (full-pool) scores are
    retained; in between, the already-trimmed set passes through unchanged.
    A tau_keep at or above the pool size makes trimming a no-op.
    """
    if tau_keep < 1:
        raise ValueError("tau_keep must be at least 1")
    if not is_refresh_iteration(iteration, kappa):
        return sorted(s.index for s in scores)
    ranked = rank_candidates(scores, larger_is_better)
    return sorted(s.index for s in ranked[:tau_keep])

