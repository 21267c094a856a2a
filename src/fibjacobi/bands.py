"""Band sets: sigma_k, nested covers, measures, escape approximations.

sigma_k = {E : |x_k(E)| <= 1} is a union of at most F_k closed bands, one
per zero of x_k.  The solver exploits three exact structural facts:

* containment: sigma_k lies inside sigma_{k-1} union sigma_{k-2}, since two
  consecutive half-traces beyond 1 force escape (so the complement of the
  union is trace-expanding at level k);
* counting: x_k has exactly F_k simple real zeros, so a sign-change search
  that has found F_k zeros has found them all;
* unimodality: |x_k| has exactly one interior peak between consecutive
  zeros, so golden-section peak search and bracketed bisection of
  |x_k| - 1 are exact, and a peak at or below 1 certifies a closed gap.

Levels are computed bottom-up; each level's bands become the next level's
search containers, which keeps the work proportional to the band structure
instead of the window volume.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tracemap import HoppingPair, escape_grid, trace_value
from .words import fibonacci

DEFAULT_TOL = 1e-10
MIN_TOL = 1e-13
ENERGY_MARGIN = 1e-6
# Band edges closer than MERGE_FACTOR * tol merge into one band.
MERGE_FACTOR = 10.0
# Refinement abort: total sign-grid points per level.
GRID_CAP = 1 << 24

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class RootIsolationError(RuntimeError):
    """Zero or edge isolation failed; carries what was found where."""

    def __init__(self, level: int, found: int, expected: int, points: int, detail: str = ""):
        self.level = level
        self.found = found
        self.expected = expected
        self.points = points
        msg = (
            f"level {level}: isolated {found} of {expected} trace zeros "
            f"using {points} grid points"
        )
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class Interval:
    """Closed energy interval."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ValueError(f"invalid interval ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class EnergyWindow:
    """Search window; must contain the norm-bound interval of the operator."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def energy_window(p: HoppingPair, margin: float = ENERGY_MARGIN) -> EnergyWindow:
    """Norm-bound window with a margin, since edges can sit exactly at it."""
    m = p.norm_bound
    return EnergyWindow(-m - margin, m + margin)


@dataclass(frozen=True, eq=False)
class BandSet:
    """Sorted disjoint closed bands [lo[i], hi[i]] with their provenance.

    lo and hi are read-only float arrays; `bands` gives one Interval per band
    on demand.  Band sets compare by identity.
    """

    lo: np.ndarray
    hi: np.ndarray
    kind: str
    level: int
    params: HoppingPair
    tol: float
    merged_gaps: int = 0

    def __post_init__(self) -> None:
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"lo and hi must be 1-d of equal length, got {lo.shape}, {hi.shape}")
        bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)) | (lo > hi))
        if bad.size:
            raise ValueError(f"invalid interval ({float(lo[bad[0]])}, {float(hi[bad[0]])})")
        if self.kind not in ("sigma_k", "cover", "escape"):
            raise ValueError(f"unknown band-set kind {self.kind!r}")
        bad = np.flatnonzero(lo[1:] <= hi[:-1])
        if bad.size:
            raise ValueError(
                f"bands must be disjoint and sorted, got ...{float(hi[bad[0]])}] "
                f"then [{float(lo[bad[0] + 1])}..."
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def bands(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lo.tolist(), self.hi.tolist()))

    def contains(self, x: float) -> bool:
        i = np.searchsorted(self.lo, x, side="right") - 1
        return bool(i >= 0 and x <= self.hi[i])

    def edges(self) -> list[float]:
        return np.column_stack((self.lo, self.hi)).ravel().tolist()


def lebesgue_measure(bs: BandSet) -> float:
    """Total length of the bands."""
    return float(sum((bs.hi - bs.lo).tolist()))


def _merge_intervals(lo: np.ndarray, hi: np.ndarray, gap: float):
    """Sorted union of the intervals, joining those at most `gap` apart."""
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = np.maximum.accumulate(hi[order])
    start = np.ones(lo.size, dtype=bool)
    start[1:] = lo[1:] - hi[:-1] > gap
    return lo[start], hi[np.roll(start, -1)]


def _batch_bisect(fn, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Roots of fn (vectorized, one sign change per bracket) to width <= tol."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    flo = fn(lo)
    width = float((hi - lo).max()) if lo.size else 0.0
    n_iter = max(1, int(math.ceil(math.log2(max(width / tol, 2.0)))) + 1)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _golden_max_abs(p: HoppingPair, level: int, lo: np.ndarray, hi: np.ndarray, width: float):
    """Peak position and value of |x_level| on unimodal brackets."""
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    span = float((b - a).max()) if a.size else 0.0
    if span <= width:
        n_iter = 1
    else:
        n_iter = int(math.ceil(math.log(width / span) / math.log(_INVPHI)))
    for _ in range(n_iter):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        f = np.abs(trace_value(p, np.concatenate((c, d)), level))
        keep = f[: c.size] >= f[c.size :]
        b = np.where(keep, d, b)
        a = np.where(keep, a, c)
    mid = 0.5 * (a + b)
    return mid, np.abs(trace_value(p, mid, level))


def _container_grid(lo: np.ndarray, hi: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.linspace(lo[c], hi[c], counts[c]) for every container c, concatenated.

    Built in one pass with linspace's own arithmetic, i * ((hi - lo) / (n - 1))
    + lo with the last point set to hi, so the points agree bit for bit.
    """
    ends = np.cumsum(counts)
    E = np.arange(ends[-1], dtype=float)
    E -= np.repeat(ends - counts, counts)
    E *= np.repeat((hi - lo) / (counts - 1), counts)
    E += np.repeat(lo, counts)
    E[ends - 1] = hi
    return E


def _locate_zeros(p: HoppingPair, level: int, clo: np.ndarray, chi: np.ndarray, tol: float):
    """All F_level zeros of x_level inside the containers, with container ids.

    Signs are sampled on per-container grids (about 8 F_level points in
    total, distributed by length) and the grids double until the bracketed
    count reaches F_level exactly; it can never exceed it, so equality
    certifies completeness.
    """
    target = fibonacci(level)
    lens = chi - clo
    total = float(lens.sum())
    base = np.maximum(9, np.ceil(8.0 * target * lens / max(total, 1e-300)).astype(int) + 1)
    mult = 1
    while True:
        counts = base * mult
        n_pts = int(counts.sum())
        if n_pts > GRID_CAP:
            raise RootIsolationError(level, -1, target, n_pts, "grid cap reached")
        E = _container_grid(clo, chi, counts)
        s = trace_value(p, E, level) >= 0.0
        ends = np.cumsum(counts) - 1
        flip = s[:-1] != s[1:]
        flip[ends[:-1]] = False  # pairs that straddle two containers
        flips = np.flatnonzero(flip)
        if len(flips) == target:
            break
        if len(flips) > target:
            raise RootIsolationError(
                level, len(flips), target, n_pts, "more sign changes than zeros exist"
            )
        mult *= 2
    zeros = _batch_bisect(lambda EE: trace_value(p, EE, level), E[flips], E[flips + 1], tol)
    order = np.argsort(zeros)
    return zeros[order], np.searchsorted(ends, flips)[order]


def _solve_level(p: HoppingPair, level: int, clo: np.ndarray, chi: np.ndarray, tol: float):
    """Bands (lo, hi) of sigma_level inside the containers, plus the merge count."""
    zeros, cid = _locate_zeros(p, level, clo, chi, tol)
    slack = max(tol, 1e3 * np.finfo(float).eps * fibonacci(level))

    def g(EE):
        return np.abs(trace_value(p, EE, level)) - 1.0

    # Gap i lies between zeros i and i + 1; its edge brackets end at the
    # container edges, or at the peak of |x| when both zeros share a
    # container.  A peak of |x| at or below 1 closes the gap.
    gap_lo = chi[cid[:-1]]
    gap_hi = clo[cid[1:]]
    is_open = cid[1:] != cid[:-1]
    same = np.flatnonzero(~is_open)
    if same.size:
        peak_pos, peak_val = _golden_max_abs(
            p, level, zeros[same], zeros[same + 1], width=max(10.0 * tol, 1e-11)
        )
        gap_lo[same] = gap_hi[same] = peak_pos
        is_open[same] = ~(peak_val <= 1.0 + slack)
    gaps = np.flatnonzero(is_open)
    closed_gaps = len(zeros) - 1 - gaps.size

    # Brackets alternate lower edge, upper edge, band by band.
    blo = np.column_stack(
        (np.append(clo[cid[0]], gap_hi[gaps]), np.append(zeros[gaps], zeros[-1]))
    ).ravel()
    bhi = np.column_stack(
        (np.append(zeros[0], zeros[gaps + 1]), np.append(gap_lo[gaps], chi[cid[-1]]))
    ).ravel()
    bad = np.flatnonzero(np.sign(g(blo)) == np.sign(g(bhi)))
    if bad.size:
        raise RootIsolationError(
            level, len(zeros), fibonacci(level), len(blo),
            f"edge bracket ({blo[bad[0]]}, {bhi[bad[0]]}) has no sign change of |x|-1",
        )
    edges = _batch_bisect(g, blo, bhi, tol)
    lo, hi = _merge_intervals(edges[0::2], edges[1::2], MERGE_FACTOR * tol)
    return lo, hi, closed_gaps + gaps.size + 1 - lo.size


@lru_cache(maxsize=128)
def _chain(p: HoppingPair, tol: float) -> list[BandSet]:
    """sigma_1, sigma_2, ... as far as computed at (p, tol); sigma_chain extends it."""
    return []


# Extending a cached chain is check-then-append on a shared list.
_CHAIN_LOCK = threading.Lock()


def sigma_chain(p: HoppingPair, k_max: int, tol: float = DEFAULT_TOL) -> list[BandSet]:
    """sigma_1 .. sigma_k_max, computed bottom-up (and cached per (p, tol))."""
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL}, got {tol}")
    tol = float(tol)
    with _CHAIN_LOCK:
        chain = _chain(p, tol)
        while len(chain) < k_max:
            k = len(chain) + 1
            if k <= 2:
                win = energy_window(p)
                clo, chi = np.array([win.lo]), np.array([win.hi])
            else:
                inflate = MERGE_FACTOR * tol
                clo, chi = _merge_intervals(
                    np.concatenate((chain[-1].lo, chain[-2].lo)) - inflate,
                    np.concatenate((chain[-1].hi, chain[-2].hi)) + inflate,
                    gap=0.0,
                )
            lo, hi, merged = _solve_level(p, k, clo, chi, tol)
            chain.append(BandSet(lo, hi, "sigma_k", k, p, tol, merged))
        return chain[:k_max]


def sigma_k(p: HoppingPair, k: int, tol: float = DEFAULT_TOL) -> BandSet:
    """The set {E : |x_k(E)| <= 1} as disjoint closed bands."""
    return sigma_chain(p, k, tol)[-1]


def cover(p: HoppingPair, k: int, tol: float = DEFAULT_TOL) -> BandSet:
    """sigma_k union sigma_{k+1}, the level-k outer cover of the spectrum."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fine, finer = sigma_chain(p, k + 1, tol)[k - 1 :]
    lo, hi = _merge_intervals(
        np.r_[fine.lo, finer.lo], np.r_[fine.hi, finer.hi], gap=MERGE_FACTOR * float(tol)
    )
    return BandSet(lo, hi, "cover", k, p, float(tol))


def escape_spectrum(
    p: HoppingPair, K_max: int, grid_step: float, window: EnergyWindow | None = None
) -> BandSet:
    """Union of grid cells not classified as escaped by level K_max.

    A cell is retained when any of its endpoints or midpoint stays Bounded,
    making the result an outer approximation at the grid resolution.
    """
    if window is None:
        window = energy_window(p)
    else:
        m = p.norm_bound
        if window.lo > -m or window.hi < m:
            raise ValueError(
                f"window [{window.lo}, {window.hi}] must contain [-{m}, {m}]"
            )
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be a positive finite number, got {grid_step}")
    if grid_step > 1e-3 * window.width:
        raise ValueError(
            f"grid_step {grid_step} too coarse for window width {window.width}"
        )
    n_cells = int(math.ceil(window.width / grid_step))
    edges = np.linspace(window.lo, window.hi, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    esc_edges, _, _ = escape_grid(p, edges, K_max)
    esc_mids, _, _ = escape_grid(p, mids, K_max)
    bounded_edges = ~esc_edges
    keep = bounded_edges[:-1] | bounded_edges[1:] | ~esc_mids
    # Runs of kept cells start where the step is +1 and end before a -1.
    step = np.diff(keep.astype(np.int8), prepend=0, append=0)
    return BandSet(edges[step == 1], edges[step == -1], "escape", K_max, p, float(grid_step))


def _distance_to_bands(xs: np.ndarray, bs: BandSet) -> np.ndarray:
    lo, hi = bs.lo, bs.hi
    idx = np.searchsorted(lo, xs, side="right") - 1
    left = np.clip(idx, 0, len(lo) - 1)
    inside = (idx >= 0) & (xs <= hi[left])
    d_left = np.where(idx >= 0, xs - hi[left], np.inf)
    right = np.clip(idx + 1, 0, len(lo) - 1)
    d_right = np.where(idx + 1 < len(lo), lo[right] - xs, np.inf)
    d = np.minimum(np.abs(d_left), np.abs(d_right))
    return np.where(inside, 0.0, d)


def hausdorff_distance(bs1: BandSet, bs2: BandSet) -> float:
    """Hausdorff distance between two nonempty closed band unions."""
    if not bs1.lo.size or not bs2.lo.size:
        raise ValueError("hausdorff_distance needs nonempty band sets")

    def directed(a: BandSet, b: BandSet) -> float:
        # Interior maxima of the distance occur at midpoints of b's gaps.
        mids = 0.5 * (b.hi[:-1] + b.lo[1:])
        pts = np.concatenate((a.lo, a.hi, mids[_distance_to_bands(mids, a) == 0.0]))
        return float(_distance_to_bands(pts, b).max())

    return max(directed(bs1, bs2), directed(bs2, bs1))


def bandset_to_dict(bs: BandSet) -> dict:
    """The documented JSON shape of a band set, as plain Python values."""
    return {
        "a": bs.params.a,
        "b": bs.params.b,
        "kind": bs.kind,
        "k": bs.level,
        "bands": np.column_stack((bs.lo, bs.hi)).tolist(),
        "tol": bs.tol,
    }


def bandset_to_json(bs: BandSet) -> str:
    """Serialize to the documented JSON shape (shortest round-trip decimals)."""
    return json.dumps(bandset_to_dict(bs))


def bandset_from_json(text: str) -> BandSet:
    d = json.loads(text)
    lo, hi = np.array([(lo, hi) for lo, hi in d["bands"]], dtype=float).reshape(-1, 2).T
    return BandSet(lo, hi, d["kind"], int(d["k"]), HoppingPair(d["a"], d["b"]), float(d["tol"]))
