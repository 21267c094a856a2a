"""Finite Jacobi matrices from hull windows: Sturm spectra, band defects.

The matrices are symmetric tridiagonal with zero diagonal; off-diagonal
entries come from mapping window letters to the two hopping values.
Eigenvalues are found by bisection on the Sturm pivot recursion (the
count of eigenvalues below a shift), deterministic and free of external
linear-algebra dependencies.  Every eigenvalue starts from the same
bracket, so one Sturm pass over the tree of points that _SHARED_DEPTH
rounds can visit settles those rounds for all of them; each later pass
counts on a tree of _LOCAL_DEPTH rounds under every distinct bracket
(clusters of the Cantor spectrum share brackets).  Each eigenvalue reads
the counts only at the midpoints one-shift-per-round bisection visits, so
the values are plain bisection's bit for bit, from far fewer passes over
the sites.  The pivots run in plain IEEE arithmetic, a zero followed by an
infinity (Demmel, Dhillon and Ren, ETNA 3 (1995)), and the count reads
their sign bits.  With zero diagonal the spectrum is mirrored, sigma =
-sigma, and so are the pivots, so the count at -s follows in closed form
from the pass at s, and a pass counts only at the distinct |s|.  Windows
whose squared hoppings leave the normal double range are bisected scaled
by a power of two.

Windows cut from the hull repeat a few blocks (w^M, s_k = s_{k-1} s_{k-2}),
and the negative-pivot count composes over blocks, as the rotation number
does (Johnson and Moser, Commun. Math. Phys. 84 (1982)).  So where the
hopping word's prefixes have short periods, the bisection passes count by
composing the 2x2 pivot maps of repeated blocks, reading only signs, in
far fewer steps than one per site.  Products of blocks round differently
from the site loop, so one site-loop pass then checks every eigenvalue's
final bracket, and an eigenvalue that fails is bisected again with the
site loop: the values stay those of the site loop bit for bit.  Free
truncations sprout O(1) eigenvalues inside spectral gaps; those are
finite-volume boundary artifacts, which the band-defect checks identify
by their eigenvectors (weight concentrated in the outer 10% of sites)
and exclude.  The eigenvectors come from the same pivots, run from both
ends of the chain and joined at a twist (Fernando; Parlett and Dhillon,
Linear Algebra Appl. 267 (1997)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bands import _bisection_tree, _distance_to_bands, _walk, cover, sigma_k
from .tracemap import HoppingPair, trace_value
from .words import _check_word, fib_prefix, fibonacci, omega_s

DEFAULT_PERIODS = 20
EDGE_FRACTION = 0.1
EDGE_WEIGHT_LIMIT = 0.5

_TINY = float(np.finfo(float).tiny)
# Hoppings in this range have squares in the normal double range.
_HOP_MIN, _HOP_MAX = 2.0**-511, 2.0**511
# Scaled tols from here up all take one bisection round; above it the
# bracket width 2 (bound + tol) would leave the double range.
_TOL_MAX = float(np.finfo(float).max) / 2
# The Sturm kernel's pivot buffer holds this many sites by this many shifts.
_BLOCK_SITES, _BLOCK_SHIFTS = 32, 4096
# Bisection rounds per Sturm pass: first over the common starting bracket,
# then under each distinct bracket.
_SHARED_DEPTH = 9
_LOCAL_DEPTH = 2


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
    _check_word(letters)
    table = {"a": p.a, "b": p.b}
    return JacobiWindow(tuple(table[ch] for ch in letters))


def _pivot_block(hops: list[float], q: np.ndarray, neg: np.ndarray, rows) -> None:
    """Pivots of the sites with squared hoppings hops, one per row, from pivots q.

    neg holds the negated shifts.
    """
    prev = q
    for ee, row in zip(hops, rows):
        np.divide(ee, prev, out=row)
        np.subtract(neg, row, out=row)
        prev = row


def _sturm_count(e2: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number of eigenvalues below each shift, vectorized.

    Pivot recursion q_i = -shift - e_{i-1}^2 / q_{i-1} for the zero-diagonal
    matrix, in plain IEEE arithmetic; a pivot counts when its sign bit is
    set.  A zero pivot is followed by an infinity of the other sign, then
    by exactly -shift, so one pivot of the pair counts.  A last pivot of +0
    makes the shift an eigenvalue, which counts as below it.  A zero square
    (a hopping that underflows in _scaled_squares) splits the matrix into
    chains, each counted from q = -shift.  The pivots of _BLOCK_SITES sites
    at a time go into one buffer, whose sign bits are counted once per
    block.  Shifts are taken _BLOCK_SHIFTS at a time, so the buffer stays
    the same size for any count of shifts.  Returns the counts and, per
    shift, the number of chains whose last pivot is +0.
    """
    neg_all = -np.asarray(shifts, dtype=float)
    out = np.empty((2, neg_all.size), dtype=np.int64)
    buf = np.empty((_BLOCK_SITES, min(neg_all.size, _BLOCK_SHIFTS)))
    mask = np.empty(buf.shape, dtype=bool)
    hops = e2.tolist()
    cuts = [i for i, ee in enumerate(hops) if ee == 0.0]
    chains = [hops[i + 1 : j] for i, j in zip([-1, *cuts], [*cuts, len(hops)])]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for cols in range(0, neg_all.size, _BLOCK_SHIFTS):
            neg = neg_all[cols : cols + _BLOCK_SHIFTS]
            count, zeros = np.zeros((2, neg.size), dtype=np.int64)
            for chain in chains:
                q = neg.copy()
                count += np.signbit(q)
                for start in range(0, len(chain), _BLOCK_SITES):
                    block = chain[start : start + _BLOCK_SITES]
                    pivots, flags = buf[: len(block), : neg.size], mask[: len(block), : neg.size]
                    _pivot_block(block, q, neg, pivots)
                    # A block holds fewer than 256 sites, so uint8 sums are exact.
                    np.signbit(pivots, out=flags)
                    count += np.add.reduce(flags.view(np.uint8), axis=0, dtype=np.uint8)
                    q[...] = pivots[-1]
                zeros += (q == 0.0) & ~np.signbit(q)
            out[:, cols : cols + _BLOCK_SHIFTS] = count + zeros, zeros
    return out[0], out[1]


def _mirrored_count(e2: np.ndarray, shifts: np.ndarray, plan=None) -> np.ndarray:
    """Sturm counts at shifts, from one pass at their distinct magnitudes.

    With zero diagonal every pivot at -s is exactly minus the pivot at s
    (IEEE division and subtraction are sign-symmetric), but for zero pivots
    away from shift 0, +0 at both.  A zero inside a chain is followed by
    -inf at both, so its pair counts once at each sign, and so does a last
    pivot of +0.  So a negative shift reads n - count(|s|) + (chains ending
    in +0 at |s|), and -0 reads as 0.  With a plan the pass is
    _block_count's, whose products at -s are exact sign flips of those at
    s; where a sign read there is zero, eigenvalues_free's check stands in.
    """
    mags, inv = np.unique(np.abs(shifts), return_inverse=True)
    counts, zeros = _sturm_count(e2, mags) if plan is None else (_block_count(plan, e2, mags), 0)
    return np.where(shifts < 0.0, (e2.size + 1 - counts + zeros)[inv], counts[inv])


def _block_plan(e2: np.ndarray) -> list[tuple[int, int, int, list[int]]] | None:
    """How _block_count composes the pivot map of a window, or None.

    map(L) is the pivot map of the sites behind the first L hoppings.  A
    prefix of the hopping word whose minimal period p (from the KMP failure
    function) is below L is its first a letters, a = p 2^j the longest such
    run that fits, then its first L - a letters; so map(L) is map(L - a)
    after map(a), or map(L / 2) twice where a = L.  Any other prefix is site
    L after map(L - 1).  Step (L, a, b, done) makes map(L) from map(a), then
    map(b), or site L when b = 0, and done lists the maps used for the last
    time.  w^M takes about |w| site steps and 2 log2 M compositions, and
    s_k one per level.  None where the steps cost more than the site loop,
    counting a step as eight sites (one costs 7 to 13 sites' time per shift),
    and where a square is zero: _block_count does not split the window into
    chains there, as _sturm_count does.
    """
    if not e2.all():
        return None
    word = e2.tolist()
    m = len(word)
    fail = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k and word[i] != word[k]:
            k = fail[k]
        if word[i] == word[k]:
            k += 1
        fail[i + 1] = k
    parts: dict[int, tuple[int, int]] = {}
    todo = [m]
    while todo:
        L = todo.pop()
        if L in parts:
            continue
        p = L - fail[L]
        a = p << ((L // p).bit_length() - 1)
        parts[L] = (L - 1, 0) if p == L else (L // 2, L // 2) if a == L else (a, L - a)
        todo += [x for x in parts[L] if x]
    if 8 * len(parts) >= m:
        return None
    order = sorted(parts)
    last = {x: L for L in order for x in parts[L] if x}
    return [(L, *parts[L], [x for x in set(parts[L]) if last.get(x) == L]) for L in order]


def _block_count(plan, e2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Sturm counts at shifts from the composed pivot maps of _block_plan.

    Site i's pivot step q -> -shift - e_{i-1}^2 / q is the Moebius map of
    M_i = [[-shift, -e_{i-1}^2], [1, 0]].  For a block B of sites and input
    pivot r, the count of negative pivots in the block is
    G_B - [r > r*] - [r < 0] + [F_B(r) < 0], with F_B the map of B, r* its
    pole -B22 / B21 and G_B one integer per shift: 1 for a site, and
    G_U + G_V - [(VU)21 U21 V21 > 0] for U then V.  Only signs are read,
    and every product is rescaled by a power of two.  The window starts at
    q_1 = -shift in front of the map of all its hoppings.  At shift 0 the
    pivots -e^2 / q alternate in sign from q_1 = -0, so ceil(n / 2) of the
    n sites count where no square is zero.
    Where products cancel, close to eigenvalues and further out at strong
    coupling, or a sign read is exactly zero, these counts can differ from
    the site loop's, so eigenvalues_free checks its final brackets with the
    site loop.
    """
    count = np.empty(shifts.shape, dtype=np.int64)
    hops = e2.tolist()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for cols in range(0, shifts.size, _BLOCK_SHIFTS):
            neg = -shifts[cols : cols + _BLOCK_SHIFTS]
            # map(L) is kept as (B, G_B - 1, B21 < 0).
            maps = {}
            for L, a, b, done in plan:
                if b:
                    (U, gu, su), (V, gv, sv) = maps[a], maps[b]
                else:
                    V = np.empty((2, 2, neg.size))
                    V[0, 0], V[0, 1], V[1, 0], V[1, 1] = neg, -hops[L - 1], 1.0, 0.0
                    gv, sv = 0, False
                    if not a:
                        maps[L] = V, gv, sv
                        continue
                    U, gu, su = maps[a]
                for x in done:
                    del maps[x]
                W = np.einsum("ijs,jks->iks", V, U)
                sw = W[1, 0] < 0.0
                W = np.ldexp(W, -np.frexp(np.abs(W).max(axis=(0, 1)))[1])
                maps[L] = W, gu + gv + (sw ^ su ^ sv), sw
            B, g, sb = maps[len(hops)]
            den = B[1, 0] * neg + B[1, 1]
            num = B[0, 0] * neg + B[0, 1]
            count[cols : cols + _BLOCK_SHIFTS] = (
                g + 1 - ((den > 0.0) != sb) + ((num < 0.0) != (den < 0.0))
            )
    count[shifts == 0.0] = (e2.size + 2) // 2
    return count


def _scaled_squares(e: np.ndarray) -> tuple[np.ndarray, int]:
    """Squares of the hoppings 2^s e, and the exponent s.

    s is 0 unless a square of e would leave the normal double range; then
    the largest scaled hopping lies in [0.5, 1).  The pivot recursion is
    homogeneous in (e, shift), so the counts of the scaled window at
    2^s shift are the counts at shift, and power-of-two scaling rounds no
    value.
    """
    smallest, largest = float(e.min()), float(e.max())
    s = 0 if _HOP_MIN <= smallest and largest <= _HOP_MAX else -math.frexp(largest)[1]
    e = np.ldexp(e, s)
    return e * e, s


def eigenvalue_count_below(j: JacobiWindow, shifts) -> np.ndarray:
    """Sturm counts at the given shifts; a NaN shift raises ValueError."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    nan = np.flatnonzero(np.isnan(shifts))
    if nan.size:
        raise ValueError(f"shift at flat index {nan[0]} is NaN; no eigenvalue count is below it")
    e2, s = _scaled_squares(np.array(j.hoppings, dtype=float))
    with np.errstate(over="ignore"):
        shifts = np.ldexp(shifts, s)
    return _mirrored_count(e2, shifts.ravel()).reshape(shifts.shape)


def _descend(
    e2: np.ndarray, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray, depth: int, plan
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (lo, hi) of eigenvalues idx after depth more bisection rounds.

    Each distinct bracket gets the _bisection_tree of depth rounds, and one
    Sturm pass counts at all its points, by the block maps of plan where it
    is given.  Eigenvalue i walks its bracket's tree, reading counts only
    where one-shift-per-round bisection would, so lo and hi are bit for bit
    those of depth rounds.
    """
    # Brackets keep the order of the eigenvalues, so equal ones are
    # neighbours.  Compare them by their bits, so a tree starts from the very
    # values each of its eigenvalues carries.
    kl, kh = lo.view(np.int64), hi.view(np.int64)
    new = np.concatenate(([True], (kl[1:] != kl[:-1]) | (kh[1:] != kh[:-1])))
    first, inv = np.flatnonzero(new), np.cumsum(new) - 1
    pts = _bisection_tree(lo[first], hi[first], depth)
    counts = _mirrored_count(e2, pts[1:-1].ravel(), plan).reshape(-1, first.size)
    cell = _walk(lambda mid: counts[mid - 1, inv] <= idx, idx.size, depth)
    return pts[cell, inv], pts[cell + 1, inv]


def _site_path(
    e2: np.ndarray, edge: float, hi: np.ndarray, idx: np.ndarray, rounds: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Where the site loop's bisection of eigenvalues idx leaves the path to hi.

    From (-edge, edge), bisection ends at the brackets with upper ends hi by
    keeping the lower half exactly where the midpoint is at or above hi.
    One site-loop pass counts at every midpoint of those paths.  Returns the
    first round at which a count, for any of idx, keeps the other half, and
    the brackets entering that round; up to there the site loop alone
    visits the same midpoints.
    """
    a, b = np.full(idx.size, -edge), np.full(idx.size, edge)
    los, his = [], []
    for _ in range(rounds):
        los.append(a)
        his.append(b)
        mid = 0.5 * (a + b)
        below = mid >= hi
        a, b = np.where(below, a, mid), np.where(below, mid, b)
    mids = 0.5 * (np.array(los) + np.array(his))
    below = _mirrored_count(e2, mids.ravel()).reshape(mids.shape) > idx
    t = int(np.argmax((below != (mids >= hi)).any(axis=1)))
    return t, los[t], his[t]


def eigenvalues_free(j: JacobiWindow, tol: float | None = None) -> EigenvalueList:
    """All eigenvalues of the free chain, each to absolute accuracy tol.

    Bisection from [-bound - tol, bound + tol], bound = 2 max(h), taken
    where _scaled_squares scales the window: each round halves every
    eigenvalue's bracket at 0.5 * (lo + hi) by the Sturm count there.  The
    first _SHARED_DEPTH rounds take one pass over the common start's tree,
    later ones _LOCAL_DEPTH rounds per pass (_descend).  Where the window
    has a _block_plan, those passes count by composed block maps, and one
    site-loop pass then checks count(lo) <= i < count(hi) at every final
    bracket.  The count is monotone in the shift, so a bracket that passes
    is the one the site loop alone gives; eigenvalues that fail are
    bisected again with the site loop from the first round where it
    disagrees (_site_path).
    """
    e = np.array(j.hoppings, dtype=float)
    n = len(e) + 1
    e2, s = _scaled_squares(e)
    bound_s = 2.0 * math.ldexp(float(e.max()), s)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    with np.errstate(over="ignore"):
        tol_s = 1e-10 * bound_s if tol is None else min(float(np.ldexp(tol, s)), _TOL_MAX)
    edge = bound_s + tol_s
    if not 0.0 < tol_s or 2 * edge / tol_s == math.inf:
        raise ValueError(f"tol {tol} is too small: the count of bisection rounds is not finite")
    rounds = max(1, int(math.ceil(math.log2(2 * edge / tol_s))))
    idx = np.arange(n)
    plan = _block_plan(e2)
    lo, hi = np.full(n, -edge), np.full(n, edge)
    lo, hi = _descend(e2, lo, hi, idx, min(rounds, _SHARED_DEPTH), plan)
    for done in range(_SHARED_DEPTH, rounds, _LOCAL_DEPTH):
        lo, hi = _descend(e2, lo, hi, idx, min(_LOCAL_DEPTH, rounds - done), plan)
    if plan is not None:
        count = _mirrored_count(e2, np.concatenate((lo, hi)))
        wrong = np.flatnonzero((count[:n] > idx) | (count[n:] <= idx))
        if wrong.size:
            t, a, b = _site_path(e2, edge, hi[wrong], wrong, rounds)
            for done in range(t, rounds, _LOCAL_DEPTH):
                a, b = _descend(e2, a, b, wrong, min(_LOCAL_DEPTH, rounds - done), None)
            lo[wrong], hi[wrong] = a, b
    tol = math.ldexp(tol_s, -s) if tol is None else float(tol)
    return EigenvalueList(np.ldexp(0.5 * (lo + hi), -s), tol, n, "free")


def _pivots(e2: np.ndarray, shift: float) -> np.ndarray:
    """Sturm pivots q_i = -shift - e_{i-1}^2 / q_{i-1} at one shift, top down.

    Zero pivots become -tiny, as Python floats raise on division by zero.
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


def edge_weight(v: np.ndarray) -> float:
    """Probability weight of a unit vector in its outer EDGE_FRACTION of sites at each end."""
    m = int(math.ceil(EDGE_FRACTION * v.size))
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


def periodic_band_check(p: HoppingPair, k: int, m: int = DEFAULT_PERIODS) -> float:
    """Max distance from periodized-chain eigenvalues to the sigma_k bands.

    Builds the free chain of m repetitions of the level-k block (m*F_k
    sites), excludes edge-localized eigenvalues, and cross-checks that
    every in-band eigenvalue satisfies |x_k(lambda)| <= 1 + defect.
    """
    if not 1 <= k <= 16:
        raise ValueError(f"k must be in 1..16, got {k}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    bands = sigma_k(p, k)
    jw = build_window((fib_prefix(k) * m)[:-1], p)
    lam = eigenvalues_free(jw, 1e-10 * p.norm_bound).values
    defect, _ = _defect_excluding_edge_states(np.array(jw.hoppings), lam, bands)
    inside = _distance_to_bands(lam, bands) == 0.0
    x = np.abs(trace_value(p, lam[inside], k))
    if np.any(x > 1.0 + defect + 1e-6):
        worst = float(lam[inside][np.argmax(x)])
        raise ArithmeticError(f"in-band eigenvalue {worst} has |x_{k}| = {x.max()} > 1 + defect")
    return defect


def truncation_spectrum_consistency(p: HoppingPair, k: int, L: int) -> float:
    """Max distance from bulk truncation eigenvalues to the level-k cover.

    The chain is the length-L truncation of the hull word (sites 1..L);
    eigenvalues whose eigenvector weight in the outer 10% of sites
    exceeds 50% are boundary artifacts and are excluded.
    """
    if L < 2 * fibonacci(k):
        raise ValueError(f"L must be >= 2 F_k = {2 * fibonacci(k)}, got {L}")
    bands = cover(p, k)
    jw = build_window(omega_s(1, L - 1), p)
    lam = eigenvalues_free(jw, 1e-10 * p.norm_bound).values
    defect, _ = _defect_excluding_edge_states(np.array(jw.hoppings), lam, bands)
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
