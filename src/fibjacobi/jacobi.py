"""Finite Jacobi matrices from hull windows: Sturm spectra, band counts.

The matrices are symmetric tridiagonal with zero diagonal; off-diagonal
entries come from mapping window letters to the two hopping values.
Eigenvalues are found by bisection on the Sturm pivot recursion (the
count of eigenvalues below a shift), deterministic and free of external
linear-algebra dependencies.  One Sturm pass counts at every point of
the tree that a few bisection rounds can visit under each distinct
bracket (all eigenvalues start from one bracket, and clusters of the
Cantor spectrum share brackets), as many rounds as the band solver takes
per kernel call for that many brackets (bands._split_depth).  Each
eigenvalue reads the counts only at the midpoints one-shift-per-round
bisection visits, so the values are plain bisection's bit for bit, from
far fewer passes over the sites.  The pivots run in plain IEEE arithmetic, a zero followed by an
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
site loop: the values stay those of the site loop bit for bit.

The band checks read Sturm counts only, at the band edges of sigma_k or
of a cover: no eigenvalue is computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bands import _bisection_tree, _split_depth, _walk, cover, sigma_k
from .tracemap import HoppingPair
from .words import _check_level, _check_word, fib_prefix, fibonacci, omega_s, periodize

DEFAULT_PERIODS = 20

# Hoppings in this range have squares in the normal double range.
_HOP_MIN, _HOP_MAX = 2.0**-511, 2.0**511
# Scaled tols from here up all take one bisection round; above it the
# bracket width 2 (bound + tol) would leave the double range.
_TOL_MAX = float(np.finfo(float).max) / 2
# The Sturm kernel's pivot buffer holds this many sites by this many shifts.
_BLOCK_SITES, _BLOCK_SHIFTS = 32, 4096
# The band checks take at most this many Sturm count steps, one per site and
# distinct shift plus _SITE_STEPS per site: on a 2-core VM a step took 1.7-1.9
# ns at 4096-17711 shifts, a site 1.4-3.7 us at 1-8.  Past _LEVEL_MAX 2 periods take more.
_COUNT_STEPS_MAX, _SITE_STEPS = 10**9, 2000
_LEVEL_MAX = max(
    k for k in range(1, 64) if (2 * fibonacci(k) - 1) * (fibonacci(k) + _SITE_STEPS) <= _COUNT_STEPS_MAX
)


@dataclass(frozen=True)
class JacobiWindow:
    """Off-diagonal hopping sequence of a free-boundary chain; zero diagonal."""

    hoppings: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hoppings) < 1:
            raise ValueError("JacobiWindow needs at least one hopping")
        # One pass over the array: a NaN fails both comparisons.
        h = np.fromiter(self.hoppings, float, len(self.hoppings))
        if not 0.0 < h.min() <= h.max() < math.inf:
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
    return JacobiWindow(tuple(p.hoppings(letters).tolist()))


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
    e2: np.ndarray, lo: np.ndarray, hi: np.ndarray, idx: np.ndarray, rounds: int, plan
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (lo, hi) of eigenvalues idx after rounds more bisection rounds.

    Each pass gives every distinct bracket the _bisection_tree of
    min(_split_depth(distinct brackets), rounds left) rounds, the band
    solver's budget, and one Sturm pass counts at all its points, by the
    block maps of plan where it is given.  Eigenvalue i walks its bracket's
    tree, reading counts only where one-shift-per-round bisection would, so
    lo and hi are bit for bit those of plain bisection.
    """
    while rounds > 0:
        # Brackets keep the order of the eigenvalues, so equal ones are
        # neighbours.  Compare them by their bits, so a tree starts from the
        # very values each of its eigenvalues carries.
        kl, kh = lo.view(np.int64), hi.view(np.int64)
        new = np.concatenate(([True], (kl[1:] != kl[:-1]) | (kh[1:] != kh[:-1])))
        first, inv = np.flatnonzero(new), np.cumsum(new) - 1
        depth = min(_split_depth(first.size), rounds)
        pts = _bisection_tree(lo[first], hi[first], depth)
        counts = _mirrored_count(e2, pts[1:-1].ravel(), plan).reshape(-1, first.size)
        cell = _walk(lambda mid: counts[mid - 1, inv] <= idx, idx.size, depth)
        lo, hi = pts[cell, inv], pts[cell + 1, inv]
        rounds -= depth
    return lo, hi


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
    eigenvalue's bracket at 0.5 * (lo + hi) by the Sturm count there.  A
    Sturm pass settles as many rounds for every distinct bracket as the
    band solver's bisection takes per kernel call (_descend).  Where the
    window has a _block_plan, those passes count by composed block maps,
    and one site-loop pass then checks count(lo) <= i < count(hi) at every
    final bracket.  The count is monotone in the shift, so a bracket that
    passes is the one the site loop alone gives; eigenvalues that fail are
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
    lo, hi = _descend(e2, np.full(n, -edge), np.full(n, edge), idx, rounds, plan)
    if plan is not None:
        count = _mirrored_count(e2, np.concatenate((lo, hi)))
        wrong = np.flatnonzero((count[:n] > idx) | (count[n:] <= idx))
        if wrong.size:
            t, a, b = _site_path(e2, edge, hi[wrong], wrong, rounds)
            lo[wrong], hi[wrong] = _descend(e2, a, b, wrong, rounds - t, None)
    tol = math.ldexp(tol_s, -s) if tol is None else float(tol)
    return EigenvalueList(np.ldexp(0.5 * (lo + hi), -s), tol, n, "free")


def _check_count_steps(what: str, sites: int, shifts: int) -> None:
    """ValueError unless sites times (distinct shifts + _SITE_STEPS) is within _COUNT_STEPS_MAX."""
    steps = sites * (shifts + _SITE_STEPS)
    if steps > _COUNT_STEPS_MAX:
        raise ValueError(
            f"{what} of {sites} sites at {shifts} distinct shifts takes {steps} "
            f"Sturm count steps ({_SITE_STEPS} per site), more than {_COUNT_STEPS_MAX:.0e}"
        )


def periodic_band_check(p: HoppingPair, k: int, m: int = DEFAULT_PERIODS) -> float:
    """Floquet counts of the periodized chain at the sigma_k band edges.

    m level-k blocks, one site short (m F_k - 1 sites), have m - 1
    eigenvalues inside each band of the F_k-periodic approximant, whose
    spectrum is sigma_k, and one in the closure of each gap (Teschl, Jacobi
    Operators and Completely Integrable Nonlinear Lattices, AMS 2000,
    ch. 7).  So the counts below lo - tol and hi + tol of a band read R m - 1
    or R m, with R the approximant bands below: R is the same across a gap,
    rises across a band (by 1, or by r where sigma_k joins r of them, as at
    a = b), and ends at F_k.  The Sturm count steps of the F_k distinct shifts
    of a full sigma_k are capped before any window is built.  Returns 0.0, or
    raises ArithmeticError naming the band, its edges and its counts.
    """
    if not 1 <= k <= _LEVEL_MAX:
        raise ValueError(
            f"k must be in 1..{_LEVEL_MAX}, where 2 periods take at most "
            f"{_COUNT_STEPS_MAX:.0e} Sturm count steps, got {k}"
        )
    f = fibonacci(k)
    if m < 2 or m * f < 3:
        raise ValueError(f"m must be >= 2 (>= 3 at k = 1), got {m}")
    _check_count_steps("periodic chain", m * f - 1, f)
    bands = sigma_k(p, k)
    jw = build_window(periodize(fib_prefix(k), m * f - 2), p)
    count = eigenvalue_count_below(jw, np.array((bands.lo - bands.tol, bands.hi + bands.tol)))
    below = (count + 1) // m
    start = np.concatenate(([0], below[1, :-1]))
    bad = ((count % m != 0) & ((count + 1) % m != 0)).any(axis=0)
    bad |= (below[0] != start) | (below[1] <= below[0])
    bad[-1] |= below[1, -1] != f
    if bad.any():
        j = int(np.argmax(bad))
        raise ArithmeticError(
            f"sigma_{k} band {j} of {bad.size}, [{bands.lo[j]}, {bands.hi[j]}]: {m} periods read "
            f"{count[0, j]} eigenvalues below lo - tol and {count[1, j]} below hi + tol; each must "
            f"be R m - 1 or R m, R rising across the band from {start[j]} and ending at F_{k} = {f}"
        )
    return 0.0


def truncation_spectrum_consistency(p: HoppingPair, k: int, L: int) -> float:
    """Counts of hull-truncation eigenvalues in the gaps of the level-k cover.

    The chain is the length-L truncation of the hull word (sites 1..L).
    The cover holds the spectrum, so its gaps are gaps of the whole-line
    operator, and cutting the two bonds at the truncation's ends is a
    rank-4 change: each gap, shrunk by tol at both ends, holds at most 4
    eigenvalues.  L times the gap count (the distinct shifts of a mirror
    image) plus _SITE_STEPS per site is capped before the window is built,
    and k before F_k is computed.  Returns 0.0, or raises ArithmeticError
    naming the gap, its edges and its count.
    """
    _check_level(f"truncation_spectrum_consistency at level {k}", k)
    if L < 2 * fibonacci(k):
        raise ValueError(f"L must be >= 2 F_k = {2 * fibonacci(k)}, got {L}")
    bands = cover(p, k)
    gaps = np.array((bands.hi[:-1] + bands.tol, bands.lo[1:] - bands.tol))
    if not gaps.size:
        return 0.0
    _check_count_steps("truncation", L, gaps.shape[1])
    count = np.diff(eigenvalue_count_below(build_window(omega_s(1, L - 1), p), gaps), axis=0)[0]
    if count.max() > 4:
        g = int(np.argmax(count))
        raise ArithmeticError(
            f"cover({k}) gap {g} of {count.size}, ({bands.hi[g]}, {bands.lo[g + 1]}): "
            f"the truncation of {L} sites has {count[g]} eigenvalues in it, more than 4"
        )
    return 0.0


def eigenvalues_to_dict(eig: EigenvalueList) -> dict:
    """The documented JSON shape of an eigenvalue list, with the values array for _floatjson.dumps."""
    return {
        "n": eig.n_sites,
        "boundary": eig.boundary,
        "values": eig.values,
        "tol": eig.residual_bound,
    }


def eigenvalues_to_json(eig: EigenvalueList) -> str:
    from . import _floatjson  # on first use, as in cli._write

    return _floatjson.dumps(eigenvalues_to_dict(eig))


def eigenvalues_from_json(text: str) -> EigenvalueList:
    d = json.loads(text)
    return EigenvalueList(d["values"], float(d["tol"]), int(d["n"]), d["boundary"])
