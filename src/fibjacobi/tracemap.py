"""Trace-map dynamics driving the spectral analysis.

The half-traces x_k(E) of the transfer cocycle over Fibonacci blocks obey
the three-term recursion x_{k+1} = 2 x_k x_{k-1} - x_{k-2} with conserved
Fricke invariant I = x_{k+1}^2 + x_k^2 + x_{k-1}^2 - 2 x_{k+1} x_k x_{k-1} - 1.
An energy belongs to the spectrum exactly when its orbit stays bounded;
once two consecutive half-traces leave [-1, 1] the orbit escapes
superexponentially, |x_{k+l}| >= c^{F_l} with c > 1.

Half-traces and escape levels come from array kernels in plain doubles, a
single energy as a 0-d array.  Half-traces run the step x <- (2 x) y - z
in place, block by block.  The recursion steps in Python floats only in
_log_orbit, up to LINEAR_LIMIT, for growth certificates (and in the CLI's
verify invariant check, which can perturb each step).  The starting
triple (x_1, x_0, x_{-1}) = (E/2a, E/2b, (a^2 + b^2)/2ab) is trace_value
at k = 1, 0, -1.  Only growth_rate_after_escape continues an orbit from it
past |x| = 1e6, in (log|x|, sign) form, where it stays accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import fibonacci

# Classification guard: |x| counts as escaped only beyond 1 + ESCAPE_GUARD,
# so borderline energies stay Bounded (keeps the candidate spectrum larger).
ESCAPE_GUARD = 1e-12

# Switch point from plain doubles to (log, sign) orbit propagation.
LINEAR_LIMIT = 1.0e6

_LOG2 = math.log(2.0)

# Energies per block of the array trace recursion and of escape_grid.
# Over 400,000 energies at (1, 2.27), k = 16, the in-place three-op step
# takes 1.5 ns per energy and level at this size on a 2-core Xeon VM,
# 2.5 at 2048 and 1.3 at 16384.
_BLOCK = 1 << 13


class TraceDivergedError(ArithmeticError):
    """Trace recursion produced a non-finite value."""

    def __init__(self, level: int, message: str | None = None) -> None:
        self.level = level
        super().__init__(message or f"trace recursion diverged at level {level}")


def _check_hopping(name: str, value) -> float:
    """value as a float; ValueError unless it is a positive finite real."""
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"hopping {name} must be a positive finite real, got {value!r}")
    return v


@dataclass(frozen=True)
class HoppingPair:
    """Positive hopping amplitudes: a over one tile type, b over the other."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_hopping("a", self.a))
        object.__setattr__(self, "b", _check_hopping("b", self.b))

    @property
    def equal(self) -> bool:
        """True for the periodic reduction a = b, kept as a cross-check oracle."""
        return self.a == self.b

    @property
    def norm_bound(self) -> float:
        """max(2a, 2b); the operator norm never exceeds it (Gershgorin rows)."""
        return 2.0 * max(self.a, self.b)

    def hoppings(self, letters: str) -> np.ndarray:
        """The hopping at each letter of a word over 'ab': a for 'a', b for 'b'."""
        return np.where(np.frombuffer(letters.encode(), dtype=np.uint8) == ord("a"), self.a, self.b)


@dataclass(frozen=True)
class TraceTriple:
    """escape_classify's last_triple: (x_next, x_cur, x_prev) = (x_k, x_{k-1}, x_{k-2}).

    level is the index k of x_next; an orbit that escapes at once ends on
    the starting triple (x_1, x_0, x_{-1}), level 1.
    """

    x_next: float
    x_cur: float
    x_prev: float
    level: int


@dataclass(frozen=True)
class EscapeResult:
    """Outcome of scanning an orbit for two consecutive half-traces beyond 1."""

    escaped: bool
    k_escape: int | None
    k_max: int
    last_triple: TraceTriple
    diverged: bool = False

    @property
    def classification(self) -> str:
        if self.escaped:
            tag = "Escaped" if not self.diverged else "EscapedDiverged"
            return f"{tag}({self.k_escape})"
        return f"Bounded({self.k_max})"


def _x_minus_one(p: HoppingPair) -> float:
    """x_{-1} = (a^2 + b^2) / 2ab, the energy-independent start of every orbit.

    Computed as written while a and b lie in [2^-511, 2^511], where a^2, b^2
    and 2ab are normal doubles; outside that range as (a/b + b/a) / 2, whose
    quotients neither underflow nor overflow while b/a stays in range.
    """
    a, b = p.a, p.b
    if 2.0**-511 <= min(a, b) and max(a, b) <= 2.0**511:
        return (a * a + b * b) / (2.0 * a * b)
    return (a / b + b / a) / 2.0


def trace_value(p: HoppingPair, E, k: int):
    """Half-trace x_k(E) by the recursion, never via polynomial coefficients.

    E may be a float or an ndarray; the result matches its shape.  Both run
    the blocked kernel _trace_array, a float as a 0-d array.  Arrays let
    non-finite values propagate, for grid scans to mask; a float raises
    TraceDivergedError at the first non-finite level in 2..k.
    """
    if k < -1:
        raise ValueError(f"trace index must be >= -1, got {k}")
    if np.ndim(E) > 0:
        return _trace_array(p, np.asarray(E, dtype=float), k)
    E = np.asarray(float(E))
    x = float(_trace_array(p, E, k))
    # A finite x_k implies finite x_2..x_{k-1}: 2xy - z is finite only if x, y, z are.
    if k >= 2 and not math.isfinite(x):
        level = next(j for j in range(2, k + 1) if not np.isfinite(_trace_array(p, E, j)))
        raise TraceDivergedError(level)
    return x


def finite_traces(p: HoppingPair, E: np.ndarray, k: int) -> np.ndarray:
    """Array trace_value(p, E, k), which must be finite at every energy.

    Otherwise raises TraceDivergedError naming the first non-finite level
    in 2..k and the first energy of E where the recursion diverged.
    """
    x = trace_value(p, E, k)
    bad = ~np.isfinite(x)
    if bad.any():
        e = float(np.asarray(E, dtype=float)[bad][0])
        try:
            trace_value(p, e, k)
        except TraceDivergedError as exc:
            raise TraceDivergedError(exc.level, f"{exc} at E = {e!r}") from None
    return x


def _trace_array(p: HoppingPair, E: np.ndarray, k: int) -> np.ndarray:
    """x_k at every energy of E, a fresh array of E's shape.

    Runs the step x <- (2 x) y - z, in that order, from (E/2a, E/2b, x_{-1}),
    in blocks of _BLOCK energies on three buffers and the block's slice of
    the result, in place; k <= 1 takes no step.  Overflow, NaN and signed
    zeros propagate.
    """
    a, b = p.a, p.b
    z0 = _x_minus_one(p)
    with np.errstate(over="ignore", invalid="ignore"):
        flat = E.ravel()
        out = np.empty(flat.size)
        size = min(flat.size, _BLOCK)
        bufs = (np.empty(size), np.empty(size), np.empty(size))
        for start in range(0, flat.size, _BLOCK):
            e = flat[start : start + _BLOCK]
            if e.size < size:
                bufs = tuple(buf[: e.size] for buf in bufs)
            # After k - 1 rotations x_k sits in the buffer that started in
            # slot (1 - k) mod 3 of (x_next, x_cur, x_prev): out's slice.
            tmp, *xs = bufs
            xs.insert((1 - k) % 3, out[start : start + _BLOCK])
            x_next, x_cur, x_prev = xs
            np.divide(e, 2.0 * a, out=x_next)
            np.divide(e, 2.0 * b, out=x_cur)
            x_prev.fill(z0)
            for _ in range(k - 1):
                np.multiply(x_next, 2.0, out=tmp)
                tmp *= x_cur
                np.subtract(tmp, x_prev, out=x_prev)
                x_next, x_cur, x_prev = x_prev, x_next, x_cur
    return out.reshape(E.shape)


def invariant_expected(p: HoppingPair) -> float:
    """Closed-form invariant (a^2 + b^2)^2 / (4 a^2 b^2) - 1; zero iff a = b.

    Computed as ((a/b - b/a) / 2)^2, which does not cancel near a = b and
    overflows only where the value itself leaves double range.
    """
    half = 0.5 * (p.a / p.b - p.b / p.a)
    value = half * half
    if not math.isfinite(value):
        raise ArithmeticError(f"invariant at a = {p.a!r}, b = {p.b!r} leaves double range")
    return value


def trace_bound(p: HoppingPair) -> float:
    """Bound 1 + sqrt(invariant) valid for every bounded orbit value."""
    return 1.0 + math.sqrt(invariant_expected(p))


def escape_classify(p: HoppingPair, E: float, K_max: int) -> EscapeResult:
    """escape_grid at one energy: the first k where |x_k|, |x_{k+1}| > 1 + ESCAPE_GUARD.

    The scan stops at k = K_max - 2, so Bounded(K_max) means no pair among
    x_0..x_{K_max-1} escapes jointly and an escape sweep keeps the
    level-(K_max-2) band cover.  A non-finite value counts as escaped at the
    level reached, with diverged set.  last_triple is (x_{k+1}, x_k, x_{k-1})
    from _trace_array at that k.
    """
    E = np.asarray(float(E))
    escaped, k_escape, diverged = escape_grid(p, E, K_max)
    k = int(k_escape) if escaped else K_max - 2
    triple = TraceTriple(*(float(_trace_array(p, E, j)) for j in (k + 1, k, k - 1)), k + 1)
    return EscapeResult(bool(escaped), k if escaped else None, K_max, triple, bool(diverged))


def escape_grid(p: HoppingPair, E, K_max: int):
    """Vectorized escape scan over an energy grid.

    Returns (escaped, k_escape, diverged) arrays matching E's shape;
    k_escape is -1 where the orbit stayed bounded through K_max.  Each
    level recurses only the orbits still running, so a classified cell
    keeps the level it escaped at and later overflow cannot reach it.
    Cells run in blocks of _BLOCK, so the scan's temporaries stay in cache
    and only the three result arrays grow with the grid.
    """
    if K_max < 2:
        raise ValueError(f"K_max must be >= 2, got {K_max}")
    E = np.asarray(E, dtype=float)
    flat = E.ravel()
    k_escape = np.full(flat.size, -1, dtype=np.int64)
    diverged = np.zeros(flat.size, dtype=bool)
    thr = 1.0 + ESCAPE_GUARD
    z0 = _x_minus_one(p)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _BLOCK):
            e = flat[start : start + _BLOCK]
            running = np.arange(start, start + e.size)
            x_prev = np.full(e.size, z0)
            x_cur = e / (2.0 * p.b)
            x_next = e / (2.0 * p.a)
            # x_cur's flags at level k + 1 are x_next's at level k, carried.
            fin_cur, big_cur = np.isfinite(x_cur), np.abs(x_cur) > thr
            for k in range(K_max - 1):
                fin_next, big_next = np.isfinite(x_next), np.abs(x_next) > thr
                blown = ~(fin_cur & fin_next)
                done = blown | (big_cur & big_next)
                if done.any():
                    k_escape[running[done]] = k
                    diverged[running[blown]] = True
                    keep = ~done
                    running = running[keep]
                    x_next, x_cur, x_prev = x_next[keep], x_cur[keep], x_prev[keep]
                    fin_next, big_next = fin_next[keep], big_next[keep]
                if k == K_max - 2 or not running.size:
                    break
                x_next, x_cur, x_prev = 2.0 * x_next * x_cur - x_prev, x_next, x_cur
                fin_cur, big_cur = fin_next, big_next
    k_escape = k_escape.reshape(E.shape)
    return k_escape >= 0, k_escape, diverged.reshape(E.shape)


def _signed_log_sub(mA: float, sA: int, mB: float, sB: int) -> tuple[float, int]:
    """(m, s) with s*e^m = sA*e^mA - sB*e^mB, exact in signs."""
    if sA == 0:
        return mB, -sB
    if sB == 0:
        return mA, sA
    d = mA - mB
    if sA != sB:
        if d >= 0.0:
            return mA + math.log1p(math.exp(-d)), sA
        return mB + math.log1p(math.exp(d)), -sB
    if d > 0.0:
        return mA + math.log1p(-math.exp(-d)), sA
    if d < 0.0:
        return mB + math.log1p(-math.exp(d)), -sB
    return -math.inf, 0


def _log_orbit(p: HoppingPair, E: float, k_top: int) -> list[tuple[float, int]]:
    """(log|x_k|, sign x_k) for k = -1..k_top; entry [k + 1] belongs to index k.

    Runs in plain doubles until a value passes LINEAR_LIMIT, then switches
    to signed log propagation of the same recursion.  Raises
    TraceDivergedError at the first level of the starting triple
    (x_{-1}, x_0, x_1) that leaves double range.
    """
    xs = [trace_value(p, E, j) for j in (-1, 0, 1)]
    for j, x in zip((-1, 0, 1), xs):
        if not math.isfinite(x):
            raise TraceDivergedError(j, f"trace recursion diverged at level {j} at E = {E!r}")

    def pack(x: float) -> tuple[float, int]:
        if x == 0.0:
            return -math.inf, 0
        return math.log(abs(x)), (1 if x > 0.0 else -1)

    vals = [pack(x) for x in xs]
    linear = all(abs(x) <= LINEAR_LIMIT for x in xs)
    while len(vals) - 2 < k_top:
        if linear:
            x = 2.0 * xs[-1] * xs[-2] - xs[-3]
            xs.append(x)
            vals.append(pack(x))
            if abs(x) > LINEAR_LIMIT:
                linear = False
        else:
            m1, s1 = vals[-1]
            m2, s2 = vals[-2]
            m3, s3 = vals[-3]
            vals.append(_signed_log_sub(_LOG2 + m1 + m2, s1 * s2, m3, s3))
    return vals


def growth_rate_after_escape(p: HoppingPair, E: float, k_escape: int, L: int) -> float:
    """Largest c with |x_{k_escape + l}| >= c^{F_l} for all 0 <= l <= L.

    Equals min over l of |x_{k_escape+l}|^{1/F_l}, evaluated in the log
    domain so deep levels cannot overflow.  Raises ValueError when E is not
    finite or the orbit is not actually escaped at k_escape, and
    TraceDivergedError when its starting triple leaves double range.
    """
    if k_escape < 0:
        raise ValueError(f"k_escape must be >= 0, got {k_escape}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    E = float(E)
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got {E!r}")
    vals = _log_orbit(p, E, k_escape + L)
    log_thr = math.log1p(ESCAPE_GUARD)
    m_here = vals[k_escape + 1][0]
    m_next = vals[k_escape + 2][0]
    if not (m_here > log_thr and m_next > log_thr):
        raise ValueError(
            f"orbit at E={E} is not escaped at level {k_escape}: "
            f"|x_k|, |x_(k+1)| = {math.exp(m_here):.6g}, {math.exp(m_next):.6g}"
        )
    best = math.inf
    for l in range(L + 1):
        best = min(best, vals[k_escape + 1 + l][0] / fibonacci(l))
    return math.exp(best)
