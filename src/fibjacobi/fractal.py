"""Fractal dimension estimators for spectral band covers.

Two estimators that must agree on a genuine Cantor spectrum:

* box-fit: count eps-boxes meeting the finest available cover over a
  geometric ladder of scales and fit log N(eps) against log(1/eps);
* band-scaling: fit the exponent alpha in N_k * l_k^alpha ~ const across
  cover levels, where N_k is the band count and l_k the geometric mean
  band length of cover(k).

A band cover stands in for the spectrum, so box counts below the cover's
own resolution see full intervals and bias the slope toward 1.  The ladder
is therefore clipped to stay above twice the finest cover's mean band
length, and the smallest box must not be shorter than its longest band.
Covers that have stopped shrinking (the last two levels agree band for
band) are exact unions of intervals, not truncated Cantor approximations;
for those the resolution guard is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bands import DEFAULT_TOL, BandSet, _band_arrays, _check_tol, cover
from .tracemap import HoppingPair, _check_hopping, invariant_expected

MIN_SCALES = 4
# Two decades between the largest and smallest box size.
MIN_SPAN = 100.0
MAX_SCALING_LEVEL = 20
# Half-open box convention: endpoints are pulled inward by this fraction
# of eps before flooring, so bands ending exactly on a box boundary do not
# claim the neighbouring box.  Keeps triadic fixtures grid-exact.
_EDGE_NUDGE = 1e-9
# Endpoint agreement (in units of tol) under which two covers count as the
# same band set, i.e. the cover sequence has converged.
_CONVERGED_FACTOR = 1e3


@dataclass(frozen=True)
class DimensionEstimate:
    """A dimension fit together with the scales that produced it.

    scales_used rows are (scale id, box or band count, length): the ladder
    index and eps for box-fit, the cover level and geometric mean band
    length for band-scaling.  r_squared is always reported; a poor fit is
    visible, not hidden.  clamped marks a raw slope outside [0, 1];
    degenerate marks a fit with no usable length variation (equal hopping
    values), where the value 1.0 is a convention, not a fit.
    """

    value: float
    method: str
    r_squared: float
    scales_used: tuple[tuple[int, int, float], ...]
    clamped: bool = False
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("box-fit", "band-scaling"):
            raise ValueError(f"unknown estimator method {self.method!r}")
        if not (math.isfinite(self.value) and 0.0 <= self.value <= 1.0):
            raise ValueError(f"dimension value {self.value} outside [0, 1]")
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")
        if not self.scales_used:
            raise ValueError("no scales recorded")


@dataclass(frozen=True)
class SweepEntry:
    """One row of a coupling sweep; exactly one of estimate/error is set."""

    b: float
    estimate: DimensionEstimate | None
    invariant_expected: float
    error: str | None = None


def box_count(lo: Sequence[float], hi: Sequence[float], eps: float) -> int:
    """Number of grid boxes [j*eps, (j+1)*eps) meeting the sorted disjoint bands [lo[i], hi[i]].

    ValueError where the bands are not finite, sorted and disjoint, or |j| reaches 2^62.
    """
    if eps <= 0.0 or not math.isfinite(eps):
        raise ValueError(f"box size must be positive and finite, got {eps}")
    lo, hi = _band_arrays(lo, hi)
    d = _EDGE_NUDGE * eps
    with np.errstate(over="ignore"):
        j = np.floor(np.array((lo + d, hi - d)) / eps)
    # Below 2^62 every index, and every count of boxes between two, fits int64.
    if lo.size and np.abs(j).max() >= 2.0**62:
        raise ValueError(f"box indices reach 2^62 for bands [{lo[0]}, {hi[-1]}] at eps {eps}")
    jlo, jhi = j.astype(np.int64)
    jhi = np.maximum(jlo, jhi)
    # Bands are sorted and disjoint, so consecutive bands can share at most
    # the single box containing the gap between them.
    return int(np.sum(jhi - jlo + 1)) - int(np.sum(jlo[1:] <= jhi[:-1]))


def _fit_loglog(log_inv_scale: np.ndarray, log_count: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(log_inv_scale, log_count, 1)
    pred = slope * log_inv_scale + intercept
    ss_res = float(np.sum((log_count - pred) ** 2))
    ss_tot = float(np.sum((log_count - log_count.mean()) ** 2))
    if ss_tot <= 0.0:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return float(slope), r2


def _finest(covers: Sequence[BandSet]) -> tuple[BandSet, bool]:
    """The cover with the smallest longest band, and a convergence flag.

    Converged means the two finest covers agree band for band within
    _CONVERGED_FACTOR * tol; the cover is then an exact interval union
    (e.g. equal hoppings) rather than a truncated fractal approximation.
    """
    if not covers:
        raise ValueError("at least one band cover is required")
    for bs in covers:
        if not isinstance(bs, BandSet) or bs.lo.size == 0:
            raise ValueError("covers must be nonempty BandSet instances")
    ranked = sorted(covers, key=lambda bs: (float((bs.hi - bs.lo).max()), -bs.lo.size))
    finest = ranked[0]
    if len(ranked) < 2:
        return finest, False
    nxt = ranked[1]
    if finest.lo.size != nxt.lo.size:
        return finest, False
    atol = _CONVERGED_FACTOR * max(finest.tol, nxt.tol)
    dev = max(np.abs(finest.lo - nxt.lo).max(), np.abs(finest.hi - nxt.hi).max())
    return finest, bool(dev <= atol)


def eps_ladder(covers: Sequence[BandSet]) -> tuple[float, ...]:
    """Geometric ladder of ten box sizes adapted to the finest cover.

    Runs from a quarter of the cover's extent down to its resolution:
    max(2 * mean band length, longest band), or 1/500 of the top scale
    when the covers have converged to an exact interval union.
    """
    finest, converged = _finest(covers)
    lengths = finest.hi - finest.lo
    emax = float(finest.hi[-1] - finest.lo[0]) / 4.0
    if converged or float(lengths.max()) == 0.0:
        emin = emax / (5.0 * MIN_SPAN)
    else:
        emin = max(2.0 * float(lengths.mean()), float(lengths.max()))
    if emax <= 0.0 or emax / emin < MIN_SPAN:
        raise ValueError(
            f"insufficient scale span: {emax:.3g} over {emin:.3g} is below two "
            "decades; deepen the cover or widen the window"
        )
    return tuple(np.geomspace(emax, emin, 10))


def box_dimension(covers: Sequence[BandSet], eps_list: Sequence[float]) -> DimensionEstimate:
    """Box-counting dimension of the finest cover over the given scales.

    The scale list is deduplicated and sorted; entries below twice the
    finest cover's mean band length are dropped (they probe below the
    cover's resolution), unless the covers have converged.  After
    clipping there must remain at least MIN_SCALES scales spanning two
    decades, and the smallest scale must not be shorter than the longest
    band.  The slope is clamped to [0, 1] with the clamping flagged.
    """
    finest, converged = _finest(covers)
    # Sorted, then equal neighbours dropped: np.unique imports numpy.ma on first use.
    eps = np.sort(np.asarray(eps_list, dtype=float), axis=None)[::-1]
    eps = np.delete(eps, np.flatnonzero(eps[1:] == eps[:-1]))
    if eps.size == 0 or eps[-1] <= 0.0 or not np.all(np.isfinite(eps)):
        raise ValueError("box sizes must be positive and finite")
    lengths = finest.hi - finest.lo
    mean_len = float(lengths.mean())
    max_len = float(lengths.max())
    if not converged and mean_len > 0.0:
        eps = eps[eps >= 2.0 * mean_len]
    if eps.size < MIN_SCALES or eps[0] / eps[-1] < MIN_SPAN:
        kept = eps.size
        raise ValueError(
            f"insufficient scale span: {kept} scales over "
            f"{(eps[0] / eps[-1]) if kept else 0.0:.3g}x after clipping at twice "
            f"the mean band length {mean_len:.3g}"
        )
    if not converged and eps[-1] < max_len * (1.0 - 1e-12):
        raise ValueError(
            f"smallest box {eps[-1]:.3g} is below the finest cover's longest "
            f"band {max_len:.3g}"
        )
    counts = np.array([box_count(finest.lo, finest.hi, e) for e in eps])
    slope, r2 = _fit_loglog(np.log(1.0 / eps), np.log(counts.astype(float)))
    value = min(1.0, max(0.0, slope))
    scales = tuple((i, int(c), float(e)) for i, (c, e) in enumerate(zip(counts, eps)))
    return DimensionEstimate(value, "box-fit", r2, scales, clamped=value != slope)


def _check_levels(k_min: int, k_max: int) -> None:
    if k_min < 1 or k_max > MAX_SCALING_LEVEL or k_max - k_min < MIN_SCALES - 1:
        raise ValueError(
            f"need 1 <= k_min <= k_max - {MIN_SCALES - 1} and k_max <= "
            f"{MAX_SCALING_LEVEL}, got [{k_min}, {k_max}]"
        )


def band_scaling_dimension(
    p: HoppingPair,
    k_min: int = 6,
    k_max: int = 14,
    tol: float = DEFAULT_TOL,
) -> DimensionEstimate:
    """Exponent alpha with N_k * l_k^alpha ~ const across cover levels.

    l_k is the geometric mean band length of cover(k); the geometric mean
    matches the multiplicative refinement of the bands, where the
    arithmetic mean would be dominated by the few widest bands.  Equal
    hopping values leave l_k constant; that fit is degenerate and reports
    the interval value 1.0 by convention.
    """
    _check_levels(k_min, k_max)
    log_inv, log_n, scales = [], [], []
    for k in range(k_min, k_max + 1):
        c = cover(p, k, tol)
        lengths = c.hi - c.lo
        lengths = lengths[lengths > 0.0]
        if lengths.size == 0:
            raise ValueError(f"cover({k}) has no bands of positive length")
        geo = float(np.exp(np.mean(np.log(lengths))))
        log_inv.append(math.log(1.0 / geo))
        log_n.append(math.log(c.lo.size))
        scales.append((k, c.lo.size, geo))
    x = np.array(log_inv)
    if float(np.ptp(x)) < 1e-6:
        return DimensionEstimate(1.0, "band-scaling", 0.0, tuple(scales), degenerate=True)
    slope, r2 = _fit_loglog(x, np.array(log_n))
    value = min(1.0, max(0.0, slope))
    return DimensionEstimate(value, "band-scaling", r2, tuple(scales), clamped=value != slope)


def _restrict(bs: BandSet, lo: float, hi: float) -> BandSet:
    a, b = np.maximum(bs.lo, lo), np.minimum(bs.hi, hi)
    keep = b > a
    if not keep.any():
        raise ValueError(
            f"window ({lo:.6g}, {hi:.6g}) does not intersect the level-{bs.level} bands"
        )
    return BandSet(a[keep], b[keep], bs.kind, bs.level, bs.params, bs.tol)


def local_dimension(
    p: HoppingPair,
    e_center: float,
    delta: float,
    k_max: int = 14,
    tol: float = DEFAULT_TOL,
) -> DimensionEstimate:
    """Box-fit dimension of the cover restricted to (e_center +- delta).

    For a dynamically defined Cantor spectrum the local value should match
    the global one; comparing the two probes that self-similarity.  The
    window must intersect cover(k_max) and be wide enough, relative to the
    local band lengths, to leave a two-decade scale ladder.
    """
    if not (math.isfinite(e_center) and math.isfinite(delta)) or delta <= 0.0:
        raise ValueError(f"need a finite window, got center {e_center}, delta {delta}")
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    lo, hi = e_center - delta, e_center + delta
    fin = _restrict(cover(p, k_max, tol), lo, hi)
    # Nesting makes the coarser restriction nonempty whenever the finer is.
    prev = _restrict(cover(p, k_max - 1, tol), lo, hi)
    restricted = [prev, fin]
    return box_dimension(restricted, eps_ladder(restricted))


def dimension_sweep(
    a: float,
    b_values: Sequence[float],
    k_max: int = 14,
    tol: float = DEFAULT_TOL,
    k_min: int = 6,
) -> list[SweepEntry]:
    """Band-scaling estimates across hopping ratios, one row per b.

    Rows keep the input order.  A failing entry carries its error message
    and a None estimate; the sweep continues.  Expected dimensions fall as
    b moves away from a, but only the range (0, 1) is guaranteed, so the
    monotone trend is left to the caller to inspect.  A hopping a, level
    range or tol that no coupling accepts raises ValueError before the
    first row.
    """
    _check_hopping("a", a)
    _check_levels(k_min, k_max)
    _check_tol(tol)
    entries: list[SweepEntry] = []
    for b in b_values:
        inv = float("nan")
        try:
            p = HoppingPair(a, float(b))
            inv = invariant_expected(p)
            est = band_scaling_dimension(p, k_min, k_max, tol)
            entries.append(SweepEntry(float(b), est, inv, None))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            entries.append(SweepEntry(float(b), None, inv, str(exc)))
    return entries

