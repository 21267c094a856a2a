"""Finite Jacobi matrices from hull windows: Sturm spectra, band defects.

The matrices are symmetric tridiagonal with zero diagonal; off-diagonal
entries come from mapping window letters to the two hopping values.
Eigenvalues are found by bisection on the Sturm pivot recursion (the
count of eigenvalues below a shift), deterministic and free of external
linear-algebra dependencies.  Free truncations sprout O(1) eigenvalues
inside spectral gaps; those are finite-volume boundary artifacts, which
the band-defect checks identify by their eigenvectors (weight
concentrated in the outer 10% of sites) and exclude.  The eigenvectors
come from the same pivots, run from both ends of the chain and joined at
a twist (Fernando; Parlett and Dhillon, Linear Algebra Appl. 267 (1997)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bands import _distance_to_bands, cover, sigma_k
from .tracemap import HoppingPair, trace_value
from .words import fib_prefix, fibonacci, omega_s

DEFAULT_PERIODS = 20
EDGE_FRACTION = 0.1
EDGE_WEIGHT_LIMIT = 0.5

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class JacobiWindow:
    """Off-diagonal hopping sequence of a free-boundary chain; zero diagonal."""

    hoppings: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hoppings) < 1:
            raise ValueError("JacobiWindow needs at least one hopping")
        if not all(math.isfinite(h) and h > 0 for h in self.hoppings):
            raise ValueError("hoppings must be positive and finite")

    @property
    def n_sites(self) -> int:
        return len(self.hoppings) + 1


@dataclass(frozen=True, eq=False)
class EigenvalueList:
    """Sorted eigenvalues with the bisection accuracy they carry.

    values is a read-only float array; eigenvalue lists compare by identity.
    """

    values: np.ndarray
    residual_bound: float
    n_sites: int
    boundary: str

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def build_window(window, p: HoppingPair) -> JacobiWindow:
    """Map window letters to hopping values (a -> p.a, b -> p.b)."""
    letters = getattr(window, "letters", window)
    if len(letters) == 0:
        raise ValueError("empty window")
    table = {"a": p.a, "b": p.b}
    return JacobiWindow(tuple(table[ch] for ch in letters))


def _sturm_count(e2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift, vectorized.

    Pivot recursion q_i = -shift - e_{i-1}^2 / q_{i-1} for the zero-diagonal
    matrix; the count of negative pivots equals the eigenvalue count below
    the shift.  Zero pivots are nudged to -tiny; infinities self-heal.
    """
    q = -shifts.astype(float)
    q = np.where(q == 0.0, -_TINY, q)
    count = (q < 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ee in e2:
            q = -shifts - ee / q
            q = np.where(q == 0.0, -_TINY, q)
            count += q < 0
    return count


def eigenvalue_count_below(j: JacobiWindow, shifts) -> np.ndarray:
    """Sturm counts at the given shifts."""
    e2 = np.array(j.hoppings, dtype=float) ** 2
    return _sturm_count(e2, np.atleast_1d(np.asarray(shifts, dtype=float)))


def eigenvalues_free(j: JacobiWindow, tol: float | None = None) -> EigenvalueList:
    """All eigenvalues of the free chain, each to absolute accuracy tol."""
    e = np.array(j.hoppings, dtype=float)
    n = len(e) + 1
    bound = 2.0 * float(e.max())
    if tol is None:
        tol = 1e-10 * bound
    e2 = e * e
    lo = np.full(n, -bound - tol)
    hi = np.full(n, bound + tol)
    idx = np.arange(n)
    rounds = max(1, int(math.ceil(math.log2((2 * bound + 2 * tol) / tol))))
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        c = _sturm_count(e2, mid)
        above = c > idx
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return EigenvalueList(0.5 * (lo + hi), float(tol), n, "free")


def _pivots(e2: np.ndarray, shift: float) -> np.ndarray:
    """Sturm pivots q_i = -shift - e_{i-1}^2 / q_{i-1} at one shift, top down.

    Zero pivots become -tiny, as in _sturm_count; infinities self-heal.
    """
    pivots = []
    q = 1.0
    for ee in [0.0, *e2.tolist()]:
        q = -shift - ee / q or -_TINY
        pivots.append(q)
    return np.array(pivots)


def _eigenvector(e: np.ndarray, lam: float) -> np.ndarray:
    """Unit eigenvector for the eigenvalue lam, from a twisted factorization.

    The top-down and bottom-up pivots of T - lam meet at the twist r that
    minimizes |q+_r + q-_r + lam|, where the vector is largest; from z_r = 1
    each side follows from the pivot ratios -e_i / q_i (Fernando's method).
    """
    e2 = e * e
    top = _pivots(e2, lam)
    bottom = _pivots(e2[::-1], lam)[::-1]
    r = int(np.argmin(np.abs(top + bottom + lam)))
    with np.errstate(over="ignore", invalid="ignore"):
        left = np.cumprod((-e[:r] / top[:r])[::-1])[::-1]
        right = np.cumprod(-e[r:] / bottom[r + 1 :])
    z = np.concatenate((left, [1.0], right))
    return z / np.linalg.norm(z)


def edge_weight(v: np.ndarray, fraction: float = EDGE_FRACTION) -> float:
    """Probability weight of a unit vector in the outer site fraction."""
    m = int(math.ceil(fraction * v.size))
    return float((v[:m] ** 2).sum() + (v[-m:] ** 2).sum())


def _defect_excluding_edge_states(e, lam, bands):
    """Max distance of bulk eigenvalues to bands; edge states skipped.

    Candidates are visited in decreasing distance; the first one whose
    eigenvector is not edge-localized sets the maximum, so only the few
    gap states ever need an eigenvector.
    """
    dist = _distance_to_bands(lam, bands)
    n_excluded = 0
    for i in np.argsort(dist)[::-1]:
        if dist[i] == 0.0:
            break
        if edge_weight(_eigenvector(e, float(lam[i]))) > EDGE_WEIGHT_LIMIT:
            n_excluded += 1
            continue
        return float(dist[i]), n_excluded
    return 0.0, n_excluded


def periodic_band_check(
    p: HoppingPair, k: int, tol: float | None = None, m: int = DEFAULT_PERIODS
) -> float:
    """Max distance from periodized-chain eigenvalues to the sigma_k bands.

    Builds the free chain of m repetitions of the level-k block (m*F_k
    sites), excludes edge-localized eigenvalues, and cross-checks that
    every in-band eigenvalue satisfies |x_k(lambda)| <= 1 + defect.
    """
    if not 1 <= k <= 16:
        raise ValueError(f"k must be in 1..16, got {k}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    jw = build_window((fib_prefix(k) * m)[:-1], p)
    if tol is None:
        tol = 1e-10 * p.norm_bound
    lam = eigenvalues_free(jw, tol).values
    bands = sigma_k(p, k)
    defect, _ = _defect_excluding_edge_states(np.array(jw.hoppings), lam, bands)
    inside = _distance_to_bands(lam, bands) == 0.0
    x = np.abs(trace_value(p, lam[inside], k))
    if np.any(x > 1.0 + defect + 1e-6):
        worst = float(lam[inside][np.argmax(x)])
        raise ArithmeticError(f"in-band eigenvalue {worst} has |x_{k}| = {x.max()} > 1 + defect")
    return defect


def truncation_spectrum_consistency(
    p: HoppingPair, k: int, L: int, tol: float | None = None
) -> float:
    """Max distance from bulk truncation eigenvalues to the level-k cover.

    The chain is the length-L truncation of the hull word (sites 1..L);
    eigenvalues whose eigenvector weight in the outer 10% of sites
    exceeds 50% are boundary artifacts and are excluded.
    """
    if L < 2 * fibonacci(k):
        raise ValueError(f"L must be >= 2 F_k = {2 * fibonacci(k)}, got {L}")
    jw = build_window(omega_s(1, L - 1), p)
    if tol is None:
        tol = 1e-10 * p.norm_bound
    lam = eigenvalues_free(jw, tol).values
    defect, _ = _defect_excluding_edge_states(np.array(jw.hoppings), lam, cover(p, k))
    return defect


def eigenvalues_to_dict(eig: EigenvalueList) -> dict:
    """The documented JSON shape of an eigenvalue list, as plain Python values."""
    return {
        "n": eig.n_sites,
        "boundary": eig.boundary,
        "values": eig.values.tolist(),
        "tol": eig.residual_bound,
    }


def eigenvalues_to_json(eig: EigenvalueList) -> str:
    return json.dumps(eigenvalues_to_dict(eig))


def eigenvalues_from_json(text: str) -> EigenvalueList:
    d = json.loads(text)
    return EigenvalueList(d["values"], float(d["tol"]), int(d["n"]), d["boundary"])
