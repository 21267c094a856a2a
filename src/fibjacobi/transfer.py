"""Transfer-matrix cocycle over hull windows.

A solution of the difference equation w_{n+1} u_{n+1} + w_n u_{n-1} = E u_n
is propagated by the unimodular one-step matrices (1/w_n) [[E, -1], [w_n^2, 0]]
acting on states U_n = (u_n, w_n u_{n-1}).  Long products renormalize every
32 factors into a separately tracked log-scale, so Lyapunov exponents and
determinant checks stay finite at any depth.

Lyapunov scans on the special hull element (the default window) run the
matrix form of the trace map instead of one-step factors: the prefixes
s_j of F_j letters obey M(s_{j+1}) = M(s_{j-1}) M(s_j), so 22 2x2
products per energy reach n = 46368.  Their entries are double-double
(Dekker's split and two-product, two-sum), rescaled after every level by
an exact power of two, in a frame where a lies in [1, 2); against 50-digit
products they keep the Frobenius norm to 2 eps relative, and the scans
agree with 40-digit factor-by-factor products to 1e-13 in gamma and 1e-10
in the residual.  They leave double range only where a one-step factor
does (E/w past 1.8e308), while 32 one-step factors already do at about
|E| > 4e9 for unit hoppings.  Scans over an explicit window, cocycle(s),
cayley_hamilton_defect and the verify identities multiply one-step
factors; the identities compare the trace recursion with that
factor-by-factor product.

A product has one form, a row of m11, m12, m21, m22 and log_scale (the
physical matrix is e^log_scale times the entries).  cocycles multiplies
many windows at many energies of any shape in one pass, holding the
running products as one stacked (2, 2, windows, energies) array that
each step updates a whole row at a time, and returns the (lengths, 5,
windows, energies) table of such rows; _hull_products returns the same
table for the default window, and cocycle one energy's row.
trace_halves and physical_products read any slice of a table, folding
each scale in with math.exp one element at a time.  evolve_solution
returns a solution's states as two float arrays.  Every hopping comes
from HoppingPair.hoppings.

The half-trace of the cocycle over the level-k Fibonacci block reproduces
the trace-map value x_k, and over a repeated block the Cayley-Hamilton
identity M(2n) - 2 x M(n) + I = 0 holds; both are the operator facts the
non-decay argument for generalized eigenfunctions rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tracemap import HoppingPair, finite_traces
from .words import (
    SignedWindow,
    WindowCoverageError,
    fibonacci,
    square_prefix_block,
    square_prefix_check,
)

# Cocycle products extract their scale into log form this often.
RENORM_EVERY = 32

# Dekker's splitting factor 2^27 + 1 for double-double products.
_SPLIT = 134217729.0
# Below every exponent np.frexp gives, so zero entries never set a scale.
_NO_EXPONENT = -(2**62)
_LN2 = math.log(2.0)


class SquareStructureError(ValueError):
    """Window lacks the repeated-block prefix an operator identity needs."""


@dataclass(frozen=True)
class LyapunovEstimate:
    """Slope of log-cocycle-norm against n, fit over Fibonacci checkpoints."""

    gamma: float
    n_used: int
    residual: float


class CocycleRangeError(ArithmeticError):
    """A cocycle product left double range; carries the energy and the position."""

    def __init__(self, energy: float, position: int):
        self.energy = energy
        self.position = position
        super().__init__(
            f"cocycle product at E = {energy!r} leaves double range by position {position}"
        )


def _check_range(sq: np.ndarray, E: np.ndarray, pos: int) -> None:
    """Raise CocycleRangeError at the first energy where a size in sq is no positive finite double.

    sq holds squared norms, or largest entries, one row per window (or a
    single row), one column per energy.
    Its smallest and largest values decide; a NaN fails both comparisons.
    """
    if sq.size and not 0.0 < sq.min() <= sq.max() < math.inf:
        ok = np.isfinite(sq) & (sq > 0.0)
        raise CocycleRangeError(float(E[np.argmin(np.atleast_2d(ok).all(axis=0))]), pos)


def _square_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of stacked (2, 2, ...) products, adding m11, m12, m21, m22 in that order."""
    sq = m * m
    return sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]


def _energies(E) -> np.ndarray:
    """E, a float or an array of any shape, flat; ValueError names an energy that is not finite."""
    E = np.asarray(E, dtype=float).ravel()
    if not np.isfinite(E).all():
        raise ValueError(f"energies must be finite, got {float(E[~np.isfinite(E)][0])!r}")
    return E


def cocycles(windows: list[SignedWindow], p: HoppingPair, E, lengths: list[int]) -> np.ndarray:
    """Cocycles over 1..n for each n in lengths, for every window and energy of E, in one pass.

    lengths must be strictly increasing.  Returns shape (len(lengths), 5,
    len(windows), E.size) holding m11, m12, m21, m22 and log_scale; every
    RENORM_EVERY factors the scale moves into log_scale, so the stored
    entries stay of order one.  The running products are one stacked
    (2, 2, windows, energies) array whose rows [m11, m12] and [m21, m22]
    each step updates whole: top <- (E top - bottom) / w, bottom <- w top,
    with one hopping w per window.  Every operation acts element by
    element, so each (window, energy) product has the bits of its own
    one-window pass.  A product whose squared Frobenius norm overflows while
    its entries are finite is first divided by its largest entry.  Raises
    CocycleRangeError naming the energy and the position where a product's
    squared Frobenius norm is still no positive finite double.
    """
    E = _energies(E)
    if not lengths or any(b <= a for a, b in zip([0, *lengths], lengths)):
        raise ValueError(f"cocycle lengths must be positive and strictly increasing, got {lengths}")
    if not windows:
        raise ValueError("cocycles needs at least one window")
    n = lengths[-1]
    for window in windows:
        if not window.covers(1, n):
            raise WindowCoverageError(
                f"cocycle over 1..{n} needs those positions, window covers ({window.lo}, {window.hi})"
            )
    hops = p.hoppings("".join(w.slice(1, n) for w in windows)).reshape(len(windows), n)
    # Step pos multiplies by hops[pos - 1], a column with one hopping per
    # window, or a scalar for one window, which keeps NumPy's fastest loops
    # (as does giving every window its own contiguous row of energies).
    steps = hops[0] if len(windows) == 1 else hops.T[:, :, None]
    shape = (len(windows), E.size)
    energies = np.tile(E, (len(windows), 1))
    out = np.empty((len(lengths), 5, *shape))
    prod, spare = np.zeros((2, 2, *shape)), np.empty((2, 2, *shape))
    prod[0, 0] = prod[1, 1] = 1.0
    # The two buffers take turns holding the product, each step writing the
    # other; each comes with views of its top and bottom rows.
    cur, nxt = (prod, *prod), (spare, *spare)
    scale = np.zeros(shape)
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, w in enumerate(steps, 1):
            # Left-multiply by (1/w) [[E, -1], [w^2, 0]].
            _, top, bottom = cur
            prod, new_top, new_bottom = nxt
            np.multiply(energies, top, out=new_top)
            new_top -= bottom
            new_top /= w
            np.multiply(top, w, out=new_bottom)
            cur, nxt = nxt, cur
            renorm = pos % RENORM_EVERY == 0
            if renorm or pos == lengths[row]:
                sq = _square_norms(prod)
                over = np.isinf(sq)
                if over.any():
                    # Squares overflow before finite entries do: divide those
                    # products by their largest entry; the rest divide by 1.
                    big = np.abs(prod).max(axis=(0, 1))
                    f = np.where(over & np.isfinite(big), big, 1.0)
                    prod /= f
                    scale += np.log(f)
                    sq = _square_norms(prod)
                _check_range(sq, E, pos)
            if renorm:
                f = np.sqrt(sq)
                prod /= f
                scale += np.log(f)
            if pos == lengths[row]:
                out[row, :4] = prod.reshape(4, *shape)
                out[row, 4] = scale
                row += 1
    return out


def _split(x):
    """Dekker's split x = top + bottom into halves of at most 26 bits, whose products are exact.

    Holds for |x| up to about 2^996, where _SPLIT x stays finite.
    """
    c = _SPLIT * x
    top = c - (c - x)
    return top, x - top


def _two_quotient(x, y):
    """x / y as a double-double (hi, lo), for x and y of magnitude in [0.5, 2].

    lo is the exact residual x - hi y (Dekker's two-product) over y.
    """
    q = x / y
    (qt, qb), (yt, yb) = _split(q), _split(y)
    p = q * y
    err = ((qt * yt - p) + qt * yb + qb * yt) + qb * yb
    return q, ((x - p) - err) / y


def _pow2_shifts(hi: np.ndarray, exps) -> tuple[np.ndarray, np.ndarray]:
    """Shifts and exponents that write stacked (2, 2, energies) entries 2^exps hi as 2^top 2^shift hi.

    top is the exponent of each energy's largest nonzero entry, so that
    entry times 2^shift has magnitude in [0.5, 1); only powers of two
    apply, so no bit rounds unless an entry falls below the normal range.
    """
    mant, e = np.frexp(hi)
    top = np.where(mant == 0.0, _NO_EXPONENT, e + exps).max(axis=(0, 1))
    return exps - top, top


def _letter_factor(w: float, m: int, e_mant: np.ndarray, e_exp: np.ndarray):
    """The one-step factor of hopping w at every energy, in the frame of _hull_products, as a level product.

    In the frame, (1/w) [[E, -1], [w^2, 0]] has entries E/w, -2^m/w, w/2^m
    and 0.  Each is a mantissa quotient in double-double times a power of
    two, from the frexp parts E = e_mant 2^e_exp and w = w_mant 2^w_exp, so
    nothing leaves double range on the way; the largest entry sets the
    exponent.
    """
    w_mant, w_exp = math.frexp(w)
    hi, lo = np.zeros((2, 2, e_mant.size)), np.zeros((2, 2, e_mant.size))
    exps = np.zeros((2, 2, e_mant.size), dtype=np.int64)
    hi[0, 0], lo[0, 0] = _two_quotient(e_mant, w_mant)
    hi[0, 1], lo[0, 1] = _two_quotient(-1.0, w_mant)
    hi[1, 0] = w_mant
    exps[0, 0], exps[0, 1], exps[1, 0] = e_exp - w_exp, m - w_exp, w_exp - m
    shift, top = _pow2_shifts(hi, exps)
    hi = np.ldexp(hi, shift)
    return hi, np.ldexp(lo, shift), *_split(hi), top


def _level_product(left, right, buffers: list[np.ndarray], E: np.ndarray, pos: int):
    """left times right in double-double at every energy, a level product again.

    A level product is (hi, lo, top, bottom, exponent): stacked (2, 2,
    energies) arrays hi and lo, the Dekker halves of hi, and an int64
    exponent per energy, the matrix being 2^exponent (hi + lo) with the
    largest |hi| in [0.5, 1).  The three buffers are (2, 2, 2, energies),
    axes (i, l, k) holding left[i, l] times right[l, k].  Raises
    CocycleRangeError at position pos where the product has no positive
    finite largest entry.
    """
    prods, errs, terms = buffers
    lh, ll, lt, lb = (x[:, :, None] for x in left[:4])
    rh, rl, rt, rb = (x[None] for x in right[:4])
    np.multiply(lh, rh, out=prods)
    # Dekker's two-product: prods + errs is each product of high parts
    # exactly; then the products with the low parts, in doubles.
    np.multiply(lt, rt, out=errs)
    errs -= prods
    for x, y in ((lt, rb), (lb, rt), (lb, rb), (lh, rl), (ll, rh)):
        np.multiply(x, y, out=terms)
        errs += terms
    # The sum over l: two-sum of the high products, t = (p0 - (s - v)) +
    # (p1 - v) + errs, then a fast two-sum, each step in place.
    p0, p1 = prods[:, 0], prods[:, 1]
    s = p0 + p1
    v = s - p0
    t = s - v
    np.subtract(p0, t, out=t)
    np.subtract(p1, v, out=v)
    t += v
    t += errs[:, 0]
    t += errs[:, 1]
    hi = s + t
    # lo = t - (hi - s)
    np.subtract(hi, s, out=s)
    lo = np.subtract(t, s, out=t)
    # Divide by 2^k, k the exponent of the largest |hi|: nothing rounds.
    big = np.abs(hi).max(axis=(0, 1))
    _check_range(big, E, pos)
    k = np.frexp(big)[1]
    hi = np.ldexp(hi, -k)
    return hi, np.ldexp(lo, -k), *_split(hi), left[4] + right[4] + k


def _hull_products(p: HoppingPair, E, levels: list[int]) -> np.ndarray:
    """cocycles over the special hull element at lengths F_j for j in levels, by the trace-map recursion.

    Positions 1..F_j carry s_j, with s_0 = b, s_1 = a and s_{j+1} = s_j
    s_{j-1}, so the level products obey M(s_{j+1}) = M(s_{j-1}) M(s_j)
    from the two one-step factors M(s_0) and M(s_1): levels[-1] - 1 2x2
    products per energy, whose half-traces are the trace-map values x_j.
    Each entry is a double-double hi + lo: products by Dekker's split and
    two-product (NumPy has no fused multiply-add), sums by two-sum, every
    energy's arithmetic its own, so no result depends on the grid's
    chunking.  After each level the product is divided by an exact power
    of two (_level_product); the int64 sums of the exponents become a
    log-scale only at the levels returned.

    Since the factors are covariant, (1/w) [[E, -1], [w^2, 0]] at 2^m w and
    2^m E being D A D^-1 with D = diag(1, 2^m), the recursion runs at
    a / 2^m in [1, 2), E / 2^m, and the levels returned are conjugated back
    by powers of two.  The table has the layout of cocycles: the entries
    divided by a power of two near the largest, and the log-scale.

    Against the same recursion in 50-digit mpmath (levels 1-24, b/a from
    1 + 1e-4 to 2e3, a from 1e-200 to 1e200, energies within and beyond
    the spectrum), the Frobenius norms agree to 2 eps relative (times the
    log of the norm where that exceeds 1, the rounding of the log-scale)
    and the entries over the norm to 2 eps.  Raises ValueError for an
    energy that is not finite, and CocycleRangeError naming the energy and
    position 1 (letter a) or 2 (letter b) where a one-step factor has an
    entry no double holds (|E / w| past 1.8e308, as at a = 1e-10,
    E = 1e300), or position F_j where a level product has no positive
    finite largest entry; nothing returns NaN or warns.
    """
    E = _energies(E)
    m = math.frexp(p.a)[1] - 1
    e_mant, e_exp = np.frexp(E)
    left, right = (_letter_factor(w, m, e_mant, e_exp) for w in (p.b, p.a))
    # An entry of 2^1024 or more is no double.
    over_a, over_b = right[4] > 1024, left[4] > 1024
    if over_a.any() or over_b.any():
        i = int(np.argmax(over_a | over_b))
        raise CocycleRangeError(float(E[i]), 1 if over_a[i] else 2)
    rows = {j: row for row, j in enumerate(levels)}
    out = np.empty((len(levels), 5, E.size))
    buffers = [np.empty((2, 2, 2, E.size)) for _ in range(3)]
    offsets = np.array([[0, -m], [m, 0]])[:, :, None]
    for j in range(1, levels[-1] + 1):
        if j > 1:
            left, right = right, _level_product(left, right, buffers, E, fibonacci(j))
        if j in rows:
            # Conjugate back: m12 times 2^-m, m21 times 2^m.
            shift, top = _pow2_shifts(right[0], offsets)
            out[rows[j], :4] = np.ldexp(right[0], shift).reshape(4, E.size)
            out[rows[j], 4] = (right[4] + top) * _LN2
    return out


def cocycle(window: SignedWindow, p: HoppingPair, E: float, n: int) -> np.ndarray:
    """Product of the one-step factors over positions n..1 (rightmost first), E's read-only cocycles row."""
    row = cocycles([window], p, [float(E)], [n])[0, :, 0, 0]
    row.flags.writeable = False
    return row


def evolve_solution(
    window: SignedWindow, p: HoppingPair, E: float, u0: float, u1: float, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """States U_n = (u_n, w_n u_{n-1}), n = 0..n_max, as arrays (u, weighted_prev).

    U_0 closes the three-term recurrence at the origin for data (u_0, u_1):
    its weighted-prev component is E u_0 - w_1 u_1, which the position-1
    factor maps onto U_1 = (u_1, w_1 u_0).  Cocycle products over 1..n act on
    U_0.  The loop runs in Python floats: past double range, inf or nan, unwarned.
    """
    if not math.isfinite(E):
        raise ValueError(f"energies must be finite, got {E!r}")
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError(f"initial values must be finite, got u0 = {u0!r}, u1 = {u1!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not window.covers(1, n_max):
        raise WindowCoverageError(
            f"evolution to {n_max} needs positions 1..{n_max}, "
            f"window covers ({window.lo}, {window.hi})"
        )
    hops = p.hoppings(window.slice(1, n_max)).tolist()
    u_prev, u_cur = float(u0), float(u1)
    u, weighted_prev = [u_prev, u_cur], [E * u0 - hops[0] * u1, hops[0] * u_prev]
    for w_cur, w_next in zip(hops, hops[1:]):
        u_prev, u_cur = u_cur, (E * u_cur - w_cur * u_prev) / w_next
        u.append(u_cur)
        weighted_prev.append(w_next * u_prev)
    return np.array(u), np.array(weighted_prev)


def _fibonacci_checkpoints(n: int) -> list[int]:
    pts = []
    j = 1
    while fibonacci(j) <= n:
        pts.append(fibonacci(j))
        j += 1
    return pts


def lyapunov_grid(p: HoppingPair, E, n: int, window: SignedWindow | None = None):
    """Vectorized Lyapunov estimate over an energy grid.

    Returns (gamma, residual, n_used), arrays of E's shape ((1,) for a
    float).  One cocycle orbit per energy over the given window (the
    special hull element by default); the exponent is the least-squares
    slope of log Frobenius norm against n over the last half of the
    Fibonacci checkpoints, clamped at 0 from below.  The default
    window takes the level products M(s_j) of the trace-map recursion in
    double-double (_hull_products), within 1e-13 in gamma and 1e-10 in the
    residual of 40-digit products at (1, 3.3), E = +-4.01775, n = 17711 and
    46368; it raises CocycleRangeError only where a one-step factor has an
    entry past double range (|E / w| > 1.8e308).  An explicit window
    multiplies one-step factors, renormalized every RENORM_EVERY, and
    raises CocycleRangeError where 32 of them leave double range (about
    |E| > 4e9 at unit hoppings).

    Far from b/a = 1 a product's entries span more digits than are carried,
    so a row can cancel to zero: default-window scans gave values at every
    energy tried for 1e-19 <= b/a <= 1e19, but raise CocycleRangeError at
    b/a = 1e-20, E = b/2 (position 34) and from |log10 b/a| = 161.5 on near
    E = 0 (position 5).
    """
    if n < 5:
        raise ValueError(f"lyapunov needs n >= 5, got {n}")
    checkpoints = _fibonacci_checkpoints(n)
    n_used = checkpoints[-1]
    first = len(checkpoints) // 2
    xs = checkpoints[first:]
    shape = np.shape(E) or (1,)
    if window is None:
        prods = _hull_products(p, E, list(range(first + 1, len(checkpoints) + 1)))
    else:
        prods = cocycles([window], p, E, xs)[:, :, 0]
    m11, m12, m21, m22, scale = prods.transpose(1, 0, 2)
    ys = 0.5 * np.log(m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22) + scale
    # Centered least squares over the last half of the checkpoints.  Python's
    # sum adds the rows in order, so each energy's fit reads only its own
    # column and does not depend on how the grid is chunked.  The float
    # denominator is added left to right by np.add.accumulate: from Python
    # 3.12 on, sum compensates floats and would move its last bit.
    x_mean = sum(xs) / len(xs)
    x_var = np.add.accumulate([(x - x_mean) ** 2 for x in xs])[-1]
    slope = sum((x - x_mean) * y for x, y in zip(xs, ys)) / x_var
    intercept = sum(ys) / len(xs) - slope * x_mean
    residual = np.sqrt(sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs))
    gamma = np.clip(slope, 0.0, None)
    return gamma.reshape(shape), residual.reshape(shape), n_used


def lyapunov(p: HoppingPair, E: float, n: int, window: SignedWindow | None = None) -> LyapunovEstimate:
    """Lyapunov exponent estimate at a single energy; see lyapunov_grid."""
    gamma, residual, n_used = lyapunov_grid(p, np.array([float(E)]), n, window)
    return LyapunovEstimate(float(gamma[0]), n_used, float(residual[0]))


def _exps(log_scale: np.ndarray, overflow: float | None = None) -> np.ndarray:
    """math.exp of every log-scale, one element at a time.

    Where a scale leaves double range math.exp raises OverflowError, which
    this raises too, or gives overflow when that is set.
    """
    out = []
    for s in log_scale.ravel().tolist():
        try:
            out.append(math.exp(s))
        except OverflowError:
            if overflow is None:
                raise
            out.append(overflow)
    return np.array(out).reshape(log_scale.shape)


def trace_halves(rows: np.ndarray) -> np.ndarray:
    """Half-traces 0.5 (m11 + m22) math.exp(log_scale) of the products in a cocycles slice.

    rows holds m11, m12, m21, m22 and log_scale on its first axis, as a
    table's table[i] or a cocycle row does; OverflowError is raised where
    math.exp of a scale leaves double range.
    """
    m11, _, _, m22, scale = rows
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (m11 + m22) * _exps(scale)


def physical_products(rows: np.ndarray) -> np.ndarray:
    """Stacked (2, 2, ...) physical products math.exp(log_scale) times the entries.

    rows as for trace_halves; where math.exp of a scale leaves double range
    it counts as inf, so that product's entries are inf (nan where zero).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return rows[:4].reshape(2, 2, *rows.shape[1:]) * _exps(rows[4], math.inf)


def cayley_hamilton_defect(window: SignedWindow, p: HoppingPair, E, k: int):
    """Residual of M(2n) - 2 x M(n) + I = 0 over a level-k repeated block.

    n is the level-k half-block length and x the matching trace-map value;
    the defect is the Frobenius norm of the left side over 1 + |M(n)|_F^2,
    zero in exact arithmetic whenever the window starts with the square.
    E may be a float or an array of energies of any shape; the result matches it.
    Both norms are taken of the matrices divided by a power of two near the
    largest entry of M(n), so their squares stay in range where M(2n) does;
    ArithmeticError names the level and the energy where M(2n) does not.
    M(n) and M(2n) at every energy are stacked (2, 2, energies) arrays read
    from one cocycles table; only the two norms are taken energy by energy,
    each of one 2x2 matrix as np.linalg.norm and np.sum take it.
    """
    n = square_prefix_block(k)
    if not square_prefix_check(window, k):
        raise SquareStructureError(
            f"window does not start with a level-{k} repeated block on positions 1..{2 * n}"
        )
    energies = _energies(E)
    try:
        table = cocycles([window], p, energies, [n, 2 * n])[:, :, 0]
    except CocycleRangeError as exc:
        raise ArithmeticError(f"{exc}, level {k} (square over positions 1..{2 * n})") from None
    defects = _square_defects(p, energies, k, table[0], table[1])
    return float(defects[0]) if np.ndim(E) == 0 else defects.reshape(np.shape(E))


def _square_defects(p: HoppingPair, energies: np.ndarray, k: int, half, full) -> np.ndarray:
    """cayley_hamilton_defect at every energy, from the cocycles rows of M(n) and M(2n).

    half and full are one length each of a cocycles table, (5, energies)
    rows as trace_halves reads them; ArithmeticError as in
    cayley_hamilton_defect.
    """
    xs = finite_traces(p, energies, k + 1)
    m_half, m_full = physical_products(half), physical_products(full)
    finite = np.isfinite(m_half).all(axis=(0, 1)) & np.isfinite(m_full).all(axis=(0, 1))
    if not finite.all():
        e = energies.tolist()[int(np.argmin(finite))]
        raise ArithmeticError(
            f"cocycle M(2n) over the level-{k} square at E = {e!r} leaves double range"
        )
    # Dividing by a power of two rounds nothing, so in range the defect
    # keeps the bits of the unscaled quotient.
    s = np.ldexp(1.0, np.frexp(np.abs(m_half).max(axis=(0, 1)))[1] - 1)
    h = m_half / s
    lhs = m_full / s - 2.0 * xs * h + np.eye(2)[:, :, None] / s
    # One C-ordered 2x2 matrix per energy, as the norms read them.
    lhs, h2 = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (lhs, h * h))
    norms = np.array([np.linalg.norm(m) for m in lhs])
    squares = np.array([np.sum(m) for m in h2])
    return norms / (1.0 / s + s * squares)


def no_decay_witness(
    window: SignedWindow, p: HoppingPair, E: float, k: int, u0: float, u1: float
) -> float:
    """Smallest relative solution mass at the repeated-block return positions.

    Returns min over levels 2..k of max(|U(n')|, |U(2n')|) / |U(0)| with n'
    the level half-block length.  The identity U(2n') - 2x U(n') + U(0) = 0
    bounds this below by 1/(1 + 2 trace_bound) whenever the trace orbit is
    bounded, which is what rules out decaying solutions.  Levels whose mass
    leaves double range are skipped; ArithmeticError names E when none is
    left or |U(0)| itself leaves double range.
    """
    if u0 == 0.0 and u1 == 0.0:
        raise ValueError("the identically-zero solution carries no information")
    if k < 2:
        raise ValueError(f"witness needs level k >= 2, got {k}")
    for lvl in range(2, k + 1):
        if not square_prefix_check(window, lvl):
            raise SquareStructureError(
                f"window does not start with a level-{lvl} repeated block"
            )
    top = 2 * square_prefix_block(k)
    u, weighted_prev = evolve_solution(window, p, E, u0, u1, top)
    base = math.hypot(u[0], weighted_prev[0])
    halves = map(square_prefix_block, range(2, k + 1))
    masses = [max(math.hypot(u[i], weighted_prev[i]) for i in (n, 2 * n)) for n in halves]
    finite = [mass for mass in masses if math.isfinite(mass)]
    if not finite or not math.isfinite(base):
        raise ArithmeticError(f"solution at E = {E!r} has no finite relative mass on levels 2..{k}")
    return min(finite) / base
