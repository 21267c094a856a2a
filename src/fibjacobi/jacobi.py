"""Finite Jacobi matrices from hull windows: Sturm spectra, band defects.

The matrices are symmetric tridiagonal with zero diagonal; off-diagonal
entries come from mapping window letters to the two hopping values.
Eigenvalues are found by bisection on the Sturm pivot recursion (the
count of eigenvalues below a shift), deterministic and free of external
linear-algebra dependencies.  Free truncations sprout O(1) eigenvalues
inside spectral gaps; those are finite-volume boundary artifacts, which
the band-defect checks identify by inverse iteration (eigenvector weight
concentrated in the outer 10% of sites) and exclude.
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


@dataclass(frozen=True)
class EigenvalueList:
    """Sorted eigenvalues with the bisection accuracy they carry."""

    values: tuple[float, ...]
    residual_bound: float
    n_sites: int
    boundary: str


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
    values = 0.5 * (lo + hi)
    return EigenvalueList(tuple(float(v) for v in values), float(tol), n, "free")


def _tridiag_solve(e: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (T - shift I) x = rhs, T zero-diagonal tridiagonal, pivoted."""
    n = rhs.size
    d = np.empty(n)
    u1 = np.zeros(n)
    u2 = np.zeros(n)
    x = rhs.astype(float).copy()
    d[0] = -shift
    if n > 1:
        u1[0] = e[0]
    for i in range(n - 1):
        s = e[i]
        t = -shift
        v = e[i + 1] if i + 1 < n - 1 else 0.0
        if abs(s) > abs(d[i]):
            d[i], u1[i], u2[i], s, t, v = s, t, v, d[i], u1[i], u2[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        piv = d[i] if d[i] != 0.0 else _TINY
        m = s / piv
        d[i + 1] = t - m * u1[i]
        u1[i + 1] = v - m * u2[i]
        x[i + 1] -= m * x[i]
    x[n - 1] /= d[n - 1] if d[n - 1] != 0.0 else _TINY
    for i in range(n - 2, -1, -1):
        acc = x[i] - u1[i] * x[i + 1]
        if i + 2 < n:
            acc -= u2[i] * x[i + 2]
        x[i] = acc / (d[i] if d[i] != 0.0 else _TINY)
    return x


def _inverse_iteration_vector(e: np.ndarray, lam: float, tol: float) -> np.ndarray:
    """Normalized eigenvector for the eigenvalue nearest lam."""
    n = len(e) + 1
    detune = 13.0 * tol * max(1.0, 2.0 * float(e.max()))
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = _tridiag_solve(e, lam + detune, v)
        nv = np.linalg.norm(v)
        if not np.isfinite(nv) or nv == 0.0:
            detune *= 16.0
            v = rng.standard_normal(n)
            nv = np.linalg.norm(v)
        v /= nv
    return v


def edge_weight(v: np.ndarray, fraction: float = EDGE_FRACTION) -> float:
    """Probability weight of a unit vector in the outer site fraction."""
    m = int(math.ceil(fraction * v.size))
    return float((v[:m] ** 2).sum() + (v[-m:] ** 2).sum())


def _defect_excluding_edge_states(e, values, bands, tol):
    """Max distance of bulk eigenvalues to bands; edge states skipped.

    Candidates are visited in decreasing distance; the first one whose
    eigenvector is not edge-localized sets the maximum, so only the few
    gap states ever need inverse iteration.
    """
    lam = np.asarray(values)
    dist = _distance_to_bands(lam, bands)
    n_excluded = 0
    for i in np.argsort(dist)[::-1]:
        if dist[i] == 0.0:
            break
        v = _inverse_iteration_vector(e, float(lam[i]), tol)
        if edge_weight(v) > EDGE_WEIGHT_LIMIT:
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
    letters = fib_prefix(k) * m
    jw = build_window(letters[:-1], p)
    if tol is None:
        tol = 1e-10 * p.norm_bound
    eig = eigenvalues_free(jw, tol)
    bands = sigma_k(p, k)
    e = np.array(jw.hoppings, dtype=float)
    defect, _ = _defect_excluding_edge_states(e, eig.values, bands, tol)
    lam = np.array(eig.values)
    inside = _distance_to_bands(lam, bands) == 0.0
    x = np.abs(trace_value(p, lam[inside], k))
    if np.any(x > 1.0 + defect + 1e-6):
        worst = float(lam[inside][np.argmax(x)])
        raise ArithmeticError(
            f"in-band eigenvalue {worst} has |x_{k}| = {x.max()} > 1 + defect"
        )
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
    eig = eigenvalues_free(jw, tol)
    cov = cover(p, k)
    e = np.array(jw.hoppings, dtype=float)
    defect, _ = _defect_excluding_edge_states(e, eig.values, cov, tol)
    return defect


def eigenvalues_to_json(eig: EigenvalueList) -> str:
    return json.dumps(
        {
            "n": eig.n_sites,
            "boundary": eig.boundary,
            "values": list(eig.values),
            "tol": eig.residual_bound,
        }
    )


def eigenvalues_from_json(text: str) -> EigenvalueList:
    d = json.loads(text)
    return EigenvalueList(
        tuple(float(v) for v in d["values"]), float(d["tol"]), int(d["n"]), d["boundary"]
    )
