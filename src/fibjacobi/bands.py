"""Band sets: sigma_k, nested covers, measures, escape approximations.

sigma_k = {E : |x_k(E)| <= 1} is a union of at most F_k closed bands, one
per zero of x_k.  The solver exploits four exact structural facts:

* symmetry: with zero diagonal |x_k(-E)| = |x_k(E)|, and the trace kernel
  keeps it bit for bit, as IEEE negation, products and differences round
  symmetrically; each level is solved on the search containers with
  hi > 0 and returned with its exact mirror image;
* containment: sigma_k lies inside sigma_{k-1} union sigma_{k-2}, since two
  consecutive half-traces beyond 1 force escape (so the complement of the
  union is trace-expanding at level k);
* counting: x_k has exactly F_k simple real zeros, so a sign-change search
  that has found F_k zeros has found them all; each search container, a
  merged band of sigma_{k-1} union sigma_{k-2}, holds as many zeros of x_k
  as of x_{k-1} and x_{k-2} together.  The sign changes of a container on
  E > 0 count twice, for its mirror image, and those of the container
  across E = 0 once; no container shows more sign changes than it holds
  zeros, so a weighted count of F_k still proves that all were found;
* unimodality: |x_k| has exactly one interior peak between consecutive
  zeros, so any point between them with |x_k| > 1 splits the gap into two
  brackets that each hold exactly one crossing of |x_k| = 1.

Levels are computed bottom-up; each level's bands become the next level's
search containers, which keeps the work proportional to the band structure
instead of the window volume.  The containers are exact mirror images by
induction: the window is, and negation, the MERGE_FACTOR * tol inflation
and _merge_intervals' gap tests are all sign-symmetric.  sigma_k keeps
every gap certified open, and joins bands only where refined edges touch,
so each band holds one zero of x_k unless the peak search closed a gap
inside it.  A container's target is the number of parent bands it holds:
its zero count wherever no gap closed, and never more, as every band holds
a zero.

The sign grid gives each container a fixed number of points per target
zero.  After each grid whose weighted count of sign changes falls short of
F_k, the containers with fewer sign changes than their target double their
grids, or every container where none has fewer (a closed gap has hidden
zeros from a target); F_k stays the certificate.  The grid has
usually evaluated a point on each side of both edges of every band, so an
edge is bracketed by two adjacent grid points: an outer one with |x_k| > 1
in the gap (or a container end) and an inner one with |x_k| < 1 that
unimodality places in the band.  A gap is open when a grid point between
its zeros exceeds 1 + slack.  Only the rest is refined.  A zero is bisected
where the grid does not bracket both edges of its band (a band narrower
than the grid step, say) or where it bounds an unresolved gap.  A
golden-section peak search decides each unresolved gap:
its first probe above 1 + slack proves the gap open and bounds the edge
brackets there, and a peak at or below 1 + slack certifies a closed gap.
Every edge then ends within tol / 4 of its crossing: a level with more
than _BISECT_MAX edges runs regula falsi from |x_k| - 1 at both bracket
ends, certified by one probe tol / 4 beyond the estimate, and a level with
fewer bisects.  Bisection takes as many halvings per call of the trace
kernel as keep a batch within _SPLIT_POINTS points: one call evaluates
every point of the tree that bisection could visit in that many steps,
with the bits bisection would give it (_bisection_tree), so the roots keep
theirs.

A band set is arrays, not per-band objects: BandSet holds read-only lo and
hi, and bands, the (n, 2) array of [lo, hi] rows that the JSON and CSV
outputs read.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .tracemap import HoppingPair, escape_grid, trace_value
from .words import fibonacci

DEFAULT_TOL = 1e-10
MIN_TOL = 1e-13
ENERGY_MARGIN = 1e-6
# Search containers are parent bands widened by MERGE_FACTOR * tol on each
# side, and cover joins the gaps of its union at most MERGE_FACTOR * tol wide.
MERGE_FACTOR = 10.0
# Grid cap: sign-grid points per level of root isolation, cells of an escape scan.
GRID_CAP = 1 << 24

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# _batch_bisect halves n brackets s times per call of fn, evaluating
# n (2^s - 1) points, for the largest s <= _SPLIT_MAX that keeps them
# within _SPLIT_POINTS, and at least once.  On the jobs of the sweep and
# deep-cover benchmarks at seed 1 (interleaved in one process, 2-core VM)
# budgets of 2048 and 8192 points took 1.00 and 1.03 of the time of 4096
# on sweep, 1.03 each on deep-cover, and caps of 6 and 8 halvings 1.01
# each of that of 7 on sweep.
_SPLIT_POINTS = 4096
_SPLIT_MAX = 7

# _refine_edges bisects up to this many edge brackets and runs regula falsi
# on more.  The two give roots that differ in the last bits, so moving the
# switch would change outputs.  Against the split bisection, falsi took
# 0.63-0.89 of the time on 146-382 edges at b/a 1.5-5.1, but 1.02-1.33 at
# b/a 1.3 and 8 (levels 11-13, medians of 7 interleaved).
_BISECT_MAX = 512

# Sign-grid points per zero a container is known to hold.
_PER_ZERO = 8

# _refine_edges probes for a certificate after a regula falsi step shorter
# than this many tol, and bisects what _FALSI_ROUNDS steps leave open.  On
# twelve deep chains (b/a 1.27-4.58 to levels 21-23) thresholds of 1/4,
# 1/2, 1, 2 and 4 tol took 4.03, 3.96, 3.90, 3.86 and 3.85 calls per edge,
# and left 0.27, 0.26, 0.25, 0.25 and 0.49% of the edges to bisection
# after 8 steps (2.1% after 6 at 1 tol).
_PROBE_AFTER = 2.0
_FALSI_ROUNDS = 8


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
class EnergyWindow:
    """Search window: the norm-bound interval of the operator, widened."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def energy_window(p: HoppingPair) -> EnergyWindow:
    """Norm-bound window widened by ENERGY_MARGIN, since edges can sit exactly at it.

    Raises ValueError where its width, about 4 max(a, b), overflows.
    """
    m = p.norm_bound
    win = EnergyWindow(-m - ENERGY_MARGIN, m + ENERGY_MARGIN)
    if not math.isfinite(win.width):
        raise ValueError(f"norm bound 2 max(a, b) overflows at a = {p.a!r}, b = {p.b!r}")
    return win


def _band_arrays(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """lo, hi as new float arrays; ValueError unless they are sorted disjoint closed bands."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"lo and hi must be 1-d of equal length, got {lo.shape}, {hi.shape}")
    bad = (~(np.isfinite(lo) & np.isfinite(hi)) | (lo > hi)).nonzero()[0]
    if bad.size:
        raise ValueError(f"invalid interval ({float(lo[bad[0]])}, {float(hi[bad[0]])})")
    bad = (lo[1:] <= hi[:-1]).nonzero()[0]
    if bad.size:
        raise ValueError(
            f"bands must be disjoint and sorted, got ...{float(hi[bad[0]])}] "
            f"then [{float(lo[bad[0] + 1])}..."
        )
    return lo, hi


@dataclass(frozen=True, eq=False)
class BandSet:
    """Sorted disjoint closed bands [lo[i], hi[i]] with their provenance.

    lo, hi and bands, the (n, 2) array of [lo, hi] rows built on first use,
    are read-only float arrays.  Band sets compare by identity.  merged_gaps
    is, for sigma_k, F_k less the band count: the gaps the peak search closed
    (or where refined edges touch); for a cover, the gaps of its union at
    most MERGE_FACTOR * tol wide that it joins; for an escape scan, 0.
    """

    lo: np.ndarray
    hi: np.ndarray
    kind: str
    level: int
    params: HoppingPair
    tol: float
    merged_gaps: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sigma_k", "cover", "escape"):
            raise ValueError(f"unknown band-set kind {self.kind!r}")
        lo, hi = _band_arrays(self.lo, self.hi)
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @cached_property
    def bands(self) -> np.ndarray:
        """The read-only (n, 2) array of [lo, hi] rows."""
        bands = np.column_stack((self.lo, self.hi))
        bands.flags.writeable = False
        return bands

    def contains(self, x: float) -> bool:
        i = np.searchsorted(self.lo, x, side="right") - 1
        return bool(i >= 0 and x <= self.hi[i])


def lebesgue_measure(bs: BandSet) -> float:
    """Total length of the bands."""
    return float(sum((bs.hi - bs.lo).tolist()))


def _merge_intervals(lo: np.ndarray, hi: np.ndarray, gap: float):
    """Sorted union of the intervals, joining those at most `gap` apart."""
    order = lo.argsort(kind="stable")
    lo = lo[order]
    hi = np.maximum.accumulate(hi[order])
    start = np.ones(lo.size, dtype=bool)
    start[1:] = lo[1:] - hi[:-1] > gap
    end = np.ones(lo.size, dtype=bool)
    end[:-1] = start[1:]
    return lo[start], hi[end]


def _batch_bisect(
    fn, lo: np.ndarray, hi: np.ndarray, tol: float, f_lo=None, width: float | None = None
) -> np.ndarray:
    """Roots of fn (vectorized, one sign change per bracket) to width <= tol.

    f_lo, fn at lo, saves the first call where the caller has it.  The
    number of steps is planned for brackets `width` wide, by default the
    widest of lo, hi, to reach tol, or two steps past the one after which
    every bracket is two adjacent doubles, if fewer: such a bracket moves
    at most once more, so the roots keep their bits where tol is finer than
    the doubles in the brackets.  The steps go to as few calls of fn as
    take at most s each, split as evenly as they go (see _split_step), for
    the largest s <= _SPLIT_MAX at which s halvings of every bracket fit
    _SPLIT_POINTS points, or s = 1.  fn sees every point plain bisection
    visits, with its bits, and the roots are the same bit for bit.
    """
    lo = lo.astype(float)
    hi = hi.astype(float)
    sign_lo = np.sign(fn(lo) if f_lo is None else f_lo)
    if width is None:
        width = float((hi - lo).max()) if lo.size else 0.0
    steps = 1.0
    if width > 0.0:
        # In logs, as width / tol overflows at hopping scales near 1e299;
        # fine is log2 of half the spacing of the doubles nearest 0 in any bracket.
        low = np.abs(np.minimum(np.maximum(lo, 0.0), hi)).min()
        fine = max(math.frexp(low or 5e-324)[1] - 54, -1075)
        steps = max(math.log2(width) - max(math.log2(tol), fine), 1.0)
    n_iter = int(math.ceil(steps)) + 1
    split = max(1, min(_SPLIT_MAX, (_SPLIT_POINTS // max(lo.size, 1) + 1).bit_length() - 1))
    calls = -(-n_iter // split)
    for c in range(calls):
        # Halvings per call as even as can be, summing to n_iter.
        lo, hi = _split_step(fn, lo, hi, sign_lo, (n_iter + c) // calls)
    return 0.5 * (lo + hi)


def _bisection_tree(lo: np.ndarray, hi: np.ndarray, s: int) -> np.ndarray:
    """The (2^s + 1, n) points that s bisection steps of brackets (lo, hi) can visit.

    Row i is, for every bracket, point i of its 2^s-cell partition, in
    order: rows 0 and 2^s are lo and hi, and each other point is
    (left + right) * 0.5 of the two points whose cell it halves.  That is
    how bisection computes its midpoint (IEEE products commute), so a
    cell of the tree has the bits of the bracket bisection would leave.
    """
    m = 1 << s
    pts = np.empty((m + 1, lo.size))
    pts[0] = lo
    pts[m] = hi
    h = m >> 1
    while h:
        # Halved into the strided rows in one pass: faster than in place.
        np.multiply(np.add(pts[: m : 2 * h], pts[2 * h :: 2 * h]), 0.5, out=pts[h :: 2 * h])
        h >>= 1
    return pts


def _walk(up, n: int, s: int) -> np.ndarray:
    """Cells of a depth-s _bisection_tree where bisection of n roots ends.

    up(mid) says, for every root i, that it lies above tree point mid[i].
    """
    cell = np.zeros(n, dtype=np.intp)
    for j in reversed(range(s)):
        cell += up(cell + (1 << j)) * (1 << j)
    return cell


def _split_step(fn, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray, s: int):
    """s bisection steps of every bracket in one call of fn; the brackets they leave.

    fn sees the interior rows of the _bisection_tree point-major.  Where the
    signs, in order, equal sign_lo up to a point and differ after it,
    bisection ends in the cell at that change; the rare bracket whose signs
    change more than once walks the tree.
    """
    n = lo.size
    m = 1 << s
    pts = _bisection_tree(lo, hi, s)
    same = np.sign(fn(pts[1:m].ravel())).reshape(m - 1, n) == sign_lo
    cell = same.sum(axis=0)
    # Brackets where a point's sign equals sign_lo again after one that differs.
    multi = (same[1:] > same[:-1]).any(axis=0).nonzero()[0]
    if multi.size:
        cell[multi] = _walk(lambda mid: same[mid - 1, multi], multi.size, s)
    flat = pts.ravel()
    at = cell * n + np.arange(n)
    return flat[at], flat[at + n]


def _golden_max_abs(
    p: HoppingPair, level: int, lo: np.ndarray, hi: np.ndarray, width: float, above: float
):
    """Peak position and value of |x_level| on unimodal brackets, or a point above `above`.

    A bracket stops at its first probe with |x| > above and returns that
    probe and its value; the others narrow to `width` and return the midpoint
    of the final bracket.  The loop ends once every bracket has stopped, so
    above=inf is the full search.
    """
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    span = float((b - a).max()) if a.size else 0.0
    if span <= width:
        n_iter = 1
    else:
        n_iter = int(math.ceil(math.log(width / span) / math.log(_INVPHI)))
    pos = np.empty_like(a)
    val = np.empty_like(a)
    done = np.zeros(a.size, dtype=bool)
    for _ in range(n_iter):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        f = np.abs(trace_value(p, np.concatenate((c, d)), level))
        keep = f[: c.size] >= f[c.size :]
        best = np.maximum(f[: c.size], f[c.size :])
        hit = ~done & (best > above)
        if hit.any():
            pos[hit] = np.where(keep, c, d)[hit]
            val[hit] = best[hit]
            done |= hit
            if done.all():
                return pos, val
        b = np.where(keep, d, b)
        a = np.where(keep, a, c)
    mid = 0.5 * (a + b)
    return np.where(done, pos, mid), np.where(done, val, np.abs(trace_value(p, mid, level)))


def _container_grid(lo: np.ndarray, hi: np.ndarray, counts: np.ndarray, at=None) -> np.ndarray:
    """np.linspace(lo[c], hi[c], counts[c]) for every container c, concatenated.

    Built in one pass with linspace's own arithmetic, i * ((hi - lo) / (n - 1))
    + lo with the last point set to hi, so the points agree bit for bit.
    With at = (c, i), only points i and i + 1 of containers c, as the two
    rows of a (2, i.size) array.
    """
    if at is not None:
        c, i = at
        step = ((hi - lo) / (counts - 1))[c]
        E = np.array((i * step, (i + 1) * step))
        E += lo[c]
        last = (i + 2 == counts[c]).nonzero()[0]
        E[1, last] = hi[c[last]]
        return E
    ends = counts.cumsum()
    E = np.arange(ends[-1], dtype=float)
    E -= (ends - counts).repeat(counts)
    E *= ((hi - lo) / (counts - 1)).repeat(counts)
    E += lo.repeat(counts)
    E[ends - 1] = hi
    return E


def _locate_zeros(
    p: HoppingPair, level: int, clo: np.ndarray, chi: np.ndarray, target: np.ndarray,
    weight: np.ndarray,
):
    """The zeros of x_level inside the containers, as sign-grid data per zero.

    target[c] is the number of parent bands container c holds (see
    sigma_chain), its zero count unless a closed gap hides a zero from it.
    weight[c] is how many times its zeros count towards F_level: 2 for a
    container whose mirror image, which holds as many, is left out (see
    _solve_level), else 1.  Signs are sampled on a grid of
    _PER_ZERO * target[c] + 1 points per container.  One rule follows each
    grid whose weighted count of sign changes falls short of F_level: the
    containers with fewer sign changes than their target double their grids
    and the others keep their traces, or every grid doubles where none has
    fewer, as where a closed gap hides zeros from a target.  A target never
    exceeds the container's zero count: each parent band holds a zero of
    its level, and the container holds the zeros of both parent levels
    (Suto's containment), so a short container always has a zero left to
    find.  No container shows more sign changes than it holds zeros, so the
    weighted count can never exceed F_level, and equality certifies
    completeness whatever the targets say.  The grid is then reduced to
    per-zero values before anything is refined; for zero i, in container
    cid[i]:

    * at[:, i]: indices j in the zero's container whose pair of grid points
      (j, j + 1) brackets the zero, the band's lower edge and its upper edge
      (see _container_grid).  An edge pair holds the last point with |x| > 1
      before the zero, or the first one after it, within the zero's own gaps
      (else the container end), and its neighbour towards the zero;
    * xz[:, i]: x_level at the zero pair's points;
    * g[:, i]: |x| - 1 at both points of the lower-edge pair, then at both
      points of the upper-edge pair;
    * on_grid[:, i]: whether the lower- and upper-edge pairs bracket the
      edge, that is, hold a point with |x| > 1 in the gap (or a container end)
      and one with |x| < 1 in the zero's band;
    * peak[i]: the largest |x| on the grid between zeros i and i + 1.

    counts is the grid's points per container, for _container_grid.
    """
    total = fibonacci(level)
    counts = _PER_ZERO * target + 1
    counted = 0  # weighted sign changes on the last grid
    redo = None  # the containers whose grid doubled; None for all
    x = None
    while True:
        n_pts = int(counts.sum())
        if n_pts > GRID_CAP:
            raise RootIsolationError(level, counted, total, n_pts, "grid cap reached")
        if redo is None:
            del x  # before the doubled grid's traces are allocated
            x = trace_value(p, _container_grid(clo, chi, counts), level)
        else:
            kept = x[~redo.repeat(old)]
            fresh = redo.repeat(counts)
            x = np.empty(n_pts)
            x[fresh] = trace_value(p, _container_grid(clo[redo], chi[redo], counts[redo]), level)
            x[~fresh] = kept
            del kept, fresh
        s = x >= 0.0
        ends = counts.cumsum() - 1
        flip = s[:-1] != s[1:]
        del s
        flip[ends[:-1]] = False  # pairs that straddle two containers
        flips = flip.nonzero()[0]
        del flip
        cid = ends.searchsorted(flips)
        found = np.bincount(cid, minlength=clo.size)
        counted = int(weight @ found)  # zeros over the whole line
        if counted == total:
            break
        if counted > total:
            raise RootIsolationError(
                level, counted, total, n_pts, "more sign changes than zeros exist"
            )
        old = counts
        redo = found < target
        if not redo.any():
            redo = None
        counts = 2 * counts if redo is None else np.where(redo, 2 * counts, counts)
    xz = np.array((x[flips], x[flips + 1]))
    ax = np.abs(x, out=x)
    del x
    peak = np.maximum.reduceat(ax, flips + 1)[:-1]
    # outs[pos - 1] <= flips < outs[pos]
    outs = (ax > 1.0).nonzero()[0]
    pos = outs.searchsorted(flips, side="right")
    has_lo, has_hi = pos > 0, pos < outs.size
    j_lo = j_hi = flips
    if outs.size:
        j_lo, j_hi = outs[pos - 1], outs[np.minimum(pos, outs.size - 1)]
    del outs, pos
    # An outer point must lie in the zero's own gaps: after the previous zero
    # and before the next one, in the zero's container.
    end = ends[cid]
    start = end - counts[cid] + 1
    same = (cid[1:] == cid[:-1]).nonzero()[0]
    bound = start.copy()
    bound[same + 1] = flips[same] + 1
    has_lo &= j_lo >= bound
    bound = end.copy()
    bound[same] = flips[same + 1]
    has_hi &= j_hi <= bound
    del bound
    at = np.array((flips, np.where(has_lo, j_lo, start), np.where(has_hi, j_hi, end) - 1))
    g = ax[np.array((at[1], at[1] + 1, at[2], at[2] + 1))] - 1.0
    # The inner point lies in the zero's band when it is on the edge's side
    # of the zero, or on the other side before the first point with |x| > 1
    # (unimodality again); it must have |x| < 1.
    inside = (has_lo & (at[1] < flips)) | (has_hi & (at[2] > flips))
    on_grid = np.array((has_lo & inside & (g[1] < 0.0), has_hi & inside & (g[2] < 0.0)))
    return cid, at - start, xz, g, on_grid, peak, counts


def _edge_brackets(
    p: HoppingPair, level: int, clo: np.ndarray, chi: np.ndarray, target: np.ndarray,
    weight: np.ndarray, tol: float,
):
    """Brackets of the band edges of sigma_level in the containers, and |x| - 1 at their ends.

    Column b of the (2, 2 n_bands) bracket and value arrays holds the lower
    edge of band b, column n_bands + b its upper edge.
    """
    cid, at, xz, g, (on_lo, on_hi), peak, counts = _locate_zeros(
        p, level, clo, chi, target, weight
    )
    n = cid.size
    above = 1.0 + max(tol, 1e3 * np.finfo(float).eps * fibonacci(level))

    # Gap i lies between zeros i and i + 1.  It is open when the zeros lie in
    # different containers or a grid point between them has |x| > 1 + slack
    # (unimodality: the peak is at least as high).  The golden-section
    # search decides the other gaps from the refined zeros: its first probe
    # above 1 + slack opens the gap and is its gap point, a peak at or below
    # 1 + slack closes it.
    is_open = (cid[1:] != cid[:-1]) | (peak > above)
    unresolved = (~is_open).nonzero()[0]
    # Zeros are refined only for those gaps and for edges the grid does not
    # bracket; such an edge's bracket runs from the zero to the gap point,
    # the grid's point with |x| > 1 or the container end.
    refine = ~(on_lo & on_hi)
    refine[unresolved] = refine[unresolved + 1] = True
    ref = refine.nonzero()[0]
    zeros = np.full(n, np.nan)
    # Where both grid neighbours of a zero have |x| > 1 (a band narrower than
    # the grid step), every point between them with |x| < 1 lies in its band.
    # The zero bisection keeps the point of least |x| it evaluates there: the
    # inner end of the edge brackets where the refined zero falls outside.
    near = np.full(ref.size, np.nan)
    near_abs = np.full(ref.size, np.inf)
    if ref.size:
        narrow = (np.abs(xz[:, ref]) > 1.0).all(axis=0).nonzero()[0]

        def x_at(EE):
            x = trace_value(p, EE, level)
            ax = np.abs(x.reshape(-1, ref.size)[:, narrow])
            i = ax.argmin(axis=0)
            best = ax[i, np.arange(narrow.size)]
            better = best < near_abs[narrow]
            near[narrow[better]] = EE.reshape(-1, ref.size)[i, narrow][better]
            near_abs[narrow[better]] = best[better]
            return x

        zb = _container_grid(clo, chi, counts, (cid, at[0]))
        # Stepped for the widest zero bracket, as if every zero were refined.
        zeros[ref] = _batch_bisect(
            x_at if narrow.size else lambda EE: trace_value(p, EE, level),
            zb[0, ref], zb[1, ref], tol, xz[0, ref], width=float((zb[1] - zb[0]).max()),
        )
        del zb
    # The search's point in each unresolved gap, in slot i + 1 for gap i.
    gap_pt = np.full(n + 1, np.nan)
    gap_g = np.full(n + 1, np.nan)
    if unresolved.size:
        peak_pos, peak_val = _golden_max_abs(
            p, level, zeros[unresolved], zeros[unresolved + 1], width=max(10.0 * tol, 1e-11),
            above=above,
        )
        is_open[unresolved] = ~(peak_val <= above)
        gap_pt[unresolved + 1] = peak_pos
        gap_g[unresolved + 1] = peak_val - 1.0
    gaps = is_open.nonzero()[0]
    first = np.concatenate(([0], gaps + 1))
    last = np.concatenate((gaps, [n - 1]))
    del xz, peak, is_open, gaps

    # Lower edges [outer, inner], then upper edges [inner, outer], as the
    # columns of br, with |x| - 1 at both ends in gb.
    zi = np.concatenate((first, last))  # the zero whose band each edge bounds
    br = _container_grid(clo, chi, counts, (cid[zi], np.concatenate((at[1, first], at[2, last]))))
    gb = np.concatenate((g[:2, first], g[2:, last]), axis=1)
    del cid, at, g
    off = np.concatenate((~on_lo[first], ~on_hi[last])).nonzero()[0]
    if off.size:
        upper = (off >= first.size).astype(int)
        z = zi[off]
        g_in = np.abs(trace_value(p, zeros[z], level)) - 1.0
        k = ref.searchsorted(z)
        swap = (g_in >= 0.0) & (near_abs[k] < 1.0)
        br[1 - upper, off] = np.where(swap, near[k], zeros[z])
        gb[1 - upper, off] = np.where(swap, near_abs[k] - 1.0, g_in)
        slot = z + upper
        opened = ~np.isnan(gap_pt[slot])
        br[upper[opened], off[opened]] = gap_pt[slot[opened]]
        gb[upper[opened], off[opened]] = gap_g[slot[opened]]
    bad = (np.sign(gb[0]) == np.sign(gb[1])).nonzero()[0]
    if bad.size:
        # All F_level zeros were found; the grid covers the containers given.
        raise RootIsolationError(
            level, fibonacci(level), fibonacci(level), int(counts.sum()),
            f"edge bracket ({br[0, bad[0]]}, {br[1, bad[0]]}) has no sign change of |x|-1",
        )
    return br, gb


def _refine_edges(fn, lo, hi, f_lo, f_hi, tol: float) -> np.ndarray:
    """Roots of fn (vectorized, one sign change per bracket), each within tol / 4.

    f_lo and f_hi are fn at lo and hi.  Up to _BISECT_MAX brackets are
    bisected.  Larger batches take regula falsi steps, each of which keeps
    the bracket end across the root from its new point; a step whose point
    rounds outside the bracket takes its midpoint instead.  An end
    kept twice in a row has its value scaled down, by the Illinois factor
    1/2 (Dowell and Jarratt, BIT 11 (1971)) or, where positive, by Anderson
    and Bjorck's 1 - f(new) / f(previous) (BIT 13 (1973)), which took 3.9
    calls per edge on deep band chains where 1/2 alone took 4.7.  A step that moves
    the estimate by less than _PROBE_AFTER * tol is followed by a probe
    tol / 4 from the new point towards the kept end; where the sign changes
    between the two, the root is their midpoint, within tol / 8 of a sign
    change.  A bracket narrower than tol / 4 ends the same way.  Brackets
    still open after _FALSI_ROUNDS calls of fn are bisected.
    """
    if lo.size <= _BISECT_MAX:
        return _batch_bisect(fn, lo, hi, tol, f_lo)
    quarter = 0.25 * tol
    root = np.empty(lo.size)
    idx = np.arange(lo.size)
    # a is the newest point, b the end across the root from it.
    a, fa, b, fb = hi, f_hi, lo, f_lo
    probe = np.zeros(lo.size, dtype=bool)
    for _ in range(_FALSI_ROUNDS):
        c = (a * fb - b * fa) / (fb - fa)
        c = np.where((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), c, 0.5 * (a + b))
        c = np.where(probe, a + np.copysign(quarter, b - a), c)
        fc = fn(c)
        across = (fc < 0.0) != (fa < 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 1.0 - fc / fa
        b = np.where(across, a, b)
        fb = np.where(across, fa, np.where(scale > 0.0, scale, 0.5) * fb)
        done = (np.abs(c - b) <= quarter) | (probe & across)
        probe = ~probe & (np.abs(c - a) < _PROBE_AFTER * tol)
        a, fa = c, fc
        if done.any():
            root[idx[done]] = 0.5 * (a[done] + b[done])
            # One index array and a take per array: cheaper than masks.
            keep = (~done).nonzero()[0]
            if not keep.size:
                return root
            idx, a, fa, b, fb, probe = (v.take(keep) for v in (idx, a, fa, b, fb, probe))
    left = a < b
    root[idx] = _batch_bisect(
        fn, np.where(left, a, b), np.where(left, b, a), tol, np.where(left, fa, fb)
    )
    return root


def _solve_level(
    p: HoppingPair, level: int, clo: np.ndarray, chi: np.ndarray, target: np.ndarray, tol: float
):
    """Bands (lo, hi) of sigma_level inside the containers, and the merge count.

    target[c] is _locate_zeros's target for container c.  The containers
    are exact mirror images of each other under E -> -E, and so is
    sigma_level (see the module docstring).  Only the containers with
    hi > 0 are solved, the one across E = 0 (if any) whole, where its zeros
    count once and the others' twice.  Of the bands found, those with
    hi <= 0 are dropped, one across E = 0 becomes [-hi, hi], and the rest
    are returned with their exact negatives.  Every gap the grid or the peak
    search certified open stays; bands join only where their refined edges
    touch or cross, as those of a gap narrower than tol / 4 can.  The merge
    count is F_level less the band count.
    """
    half = chi > 0.0
    clo, chi, target = clo[half], chi[half], target[half]
    br, gb = _edge_brackets(p, level, clo, chi, target, np.where(clo > 0.0, 2, 1), tol)
    edges = _refine_edges(
        lambda EE: np.abs(trace_value(p, EE, level)) - 1.0, br[0], br[1], gb[0], gb[1], tol
    )
    lo, hi = _merge_intervals(*edges.reshape(2, -1), 0.0)
    up = hi > 0.0
    lo, hi = lo[up], hi[up]
    s = int(lo[0] <= 0.0)  # the band across E = 0 is its own mirror image
    lo, hi = np.concatenate((-hi[::-1], lo[s:])), np.concatenate((-lo[s:][::-1], hi))
    return lo, hi, fibonacci(level) - lo.size


def _check_tol(tol: float) -> None:
    """ValueError unless tol is a finite band-edge tolerance of at least MIN_TOL."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL}, got {tol}")


@lru_cache(maxsize=128)
def _chain(p: HoppingPair, tol: float) -> list[BandSet]:
    """sigma_1, sigma_2, ... as far as computed at (p, tol); sigma_chain extends it."""
    return []


# Extending a cached chain is check-then-append on a shared list.
_CHAIN_LOCK = threading.Lock()


def sigma_chain(p: HoppingPair, k_max: int, tol: float = DEFAULT_TOL) -> list[BandSet]:
    """sigma_1 .. sigma_k_max, computed bottom-up (and cached per (p, tol)).

    Level k searches the containers sigma_{k-1} union sigma_{k-2}, with band
    edges inflated by MERGE_FACTOR * tol and overlaps merged (the window at
    levels 1 and 2), those with hi > 0 and their mirror images (see
    _solve_level).  Each container holds as many zeros of x_k as of
    x_{k-1} and x_{k-2} together, the zero count of Suto's containment
    (CMP 111 (1987)).  A band of sigma_j holds one zero of x_j unless the
    peak search closed a gap, so the parent bands a container holds are
    _locate_zeros's target for it (F_k for the window).

    At a = b, E = 2a cos(theta) gives x_k(E) = cos(F_k theta), so sigma_k is
    the single band [-2a, 2a] holding all F_k zeros, returned as such.
    """
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    _check_tol(tol)
    win = energy_window(p)
    tol = float(tol)
    if p.equal:
        m = np.array([p.norm_bound])
        return [BandSet(-m, m, "sigma_k", k, p, tol, fibonacci(k) - 1) for k in range(1, k_max + 1)]
    with _CHAIN_LOCK:
        chain = _chain(p, tol)
        while len(chain) < k_max:
            k = len(chain) + 1
            if k <= 2:
                clo, chi = np.array([win.lo]), np.array([win.hi])
                target = np.array([fibonacci(k)])
            else:
                inflate = MERGE_FACTOR * tol
                lo = np.concatenate((chain[-1].lo, chain[-2].lo)) - inflate
                hi = np.concatenate((chain[-1].hi, chain[-2].hi)) + inflate
                clo, chi = _merge_intervals(lo, hi, gap=0.0)
                target = np.bincount(clo.searchsorted(lo, side="right") - 1, minlength=clo.size)
            lo, hi, merged = _solve_level(p, k, clo, chi, target, tol)
            chain.append(BandSet(lo, hi, "sigma_k", k, p, tol, merged))
        return chain[:k_max]


def sigma_k(p: HoppingPair, k: int, tol: float = DEFAULT_TOL) -> BandSet:
    """The set {E : |x_k(E)| <= 1} as disjoint closed bands."""
    return sigma_chain(p, k, tol)[-1]


def cover(p: HoppingPair, k: int, tol: float = DEFAULT_TOL) -> BandSet:
    """sigma_k union sigma_{k+1}, the level-k outer cover of the spectrum.

    Gaps of the union at most MERGE_FACTOR * tol wide are closed; merged_gaps
    counts them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fine, finer = sigma_chain(p, k + 1, tol)[k - 1 :]
    lo, hi = _merge_intervals(
        np.concatenate((fine.lo, finer.lo)), np.concatenate((fine.hi, finer.hi)), gap=0.0
    )
    close = lo[1:] - hi[:-1] <= MERGE_FACTOR * float(tol)
    lo, hi = lo[np.append(True, ~close)], hi[np.append(~close, True)]
    return BandSet(lo, hi, "cover", k, p, float(tol), int(np.count_nonzero(close)))


def escape_spectrum(p: HoppingPair, K_max: int, grid_step: float) -> BandSet:
    """Union of grid cells of energy_window(p) not classified as escaped by level K_max.

    A cell is retained when any of its endpoints or midpoint stays Bounded,
    making the result an outer approximation at the grid resolution.  The
    scan covers the whole window: unlike sigma_k it is not mirrored, as its
    cell edges i * step + lo are not symmetric about E = 0.
    """
    window = energy_window(p)
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be a positive finite number, got {grid_step}")
    if grid_step > 1e-3 * window.width:
        raise ValueError(
            f"grid_step {grid_step} too coarse for window width {window.width}"
        )
    cells = window.width / grid_step
    if cells > GRID_CAP:
        raise ValueError(
            f"grid_step {grid_step} needs {cells:.4g} cells over window width "
            f"{window.width}, more than GRID_CAP = {GRID_CAP}"
        )
    n_cells = int(math.ceil(cells))
    # The cell edges are np.linspace(window.lo, window.hi, n_cells + 1), made
    # with its arithmetic (i * step + lo, the last one hi) a block at a time,
    # so a scan holds one flag per cell and no array of energies.
    step = window.width / n_cells

    def edges(i):
        e = i * step + window.lo
        e[i == n_cells] = window.hi
        return e

    keep = np.empty(n_cells, dtype=bool)
    block = 1 << 16
    for first in range(0, n_cells, block):
        e = edges(np.arange(first, min(first + block, n_cells) + 1, dtype=float))
        mids = e[:-1] + e[1:]
        mids *= 0.5
        bounded = ~escape_grid(p, e, K_max)[0]
        keep[first : first + mids.size] = (
            ~escape_grid(p, mids, K_max)[0] | bounded[:-1] | bounded[1:]
        )
    # Runs of kept cells start where the step is +1 and end before a -1.
    runs = np.diff(keep.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    lo = edges(np.flatnonzero(runs == 1).astype(float))
    hi = edges(np.flatnonzero(runs == -1).astype(float))
    return BandSet(lo, hi, "escape", K_max, p, float(grid_step))


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
        "bands": bs.bands.tolist(),
        "tol": bs.tol,
    }


def bandset_to_json(bs: BandSet) -> str:
    """Serialize to the documented JSON shape (shortest round-trip decimals)."""
    return json.dumps(bandset_to_dict(bs))


def bandset_from_json(text: str) -> BandSet:
    d = json.loads(text)
    lo, hi = np.array([(lo, hi) for lo, hi in d["bands"]], dtype=float).reshape(-1, 2).T
    return BandSet(lo, hi, d["kind"], int(d["k"]), HoppingPair(d["a"], d["b"]), float(d["tol"]))
