"""Trace-map dynamics driving the spectral analysis.

The half-traces x_k(E) of the transfer cocycle over Fibonacci blocks obey
the three-term recursion x_{k+1} = 2 x_k x_{k-1} - x_{k-2} with conserved
Fricke invariant I = x_{k+1}^2 + x_k^2 + x_{k-1}^2 - 2 x_{k+1} x_k x_{k-1} - 1.
An energy belongs to the spectrum exactly when its orbit stays bounded;
once two consecutive half-traces leave [-1, 1] the orbit escapes
superexponentially, |x_{k+l}| >= c^{F_l} with c > 1.

Scalar evaluation is plain double precision while |x| <= 1e6; past that
the orbit continues in (log|x|, sign) form, where the recursion is
dominated by its product term and log-domain propagation stays accurate.
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

# Energies per block of the array trace recursion: its four float buffers
# (512 KiB) stay in a core's L2 cache.
_BLOCK = 1 << 14


class TraceDivergedError(ArithmeticError):
    """Trace recursion produced a non-finite value."""

    def __init__(self, level: int, message: str | None = None) -> None:
        self.level = level
        super().__init__(message or f"trace recursion diverged at level {level}")


@dataclass(frozen=True)
class HoppingPair:
    """Positive hopping amplitudes: a over one tile type, b over the other."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"hopping a must be a positive finite real, got {self.a!r}")
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"hopping b must be a positive finite real, got {self.b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def equal(self) -> bool:
        """True for the periodic reduction a = b, kept as a cross-check oracle."""
        return self.a == self.b

    @property
    def norm_bound(self) -> float:
        """max(2a, 2b); the operator norm never exceeds it (Gershgorin rows)."""
        return 2.0 * max(self.a, self.b)


@dataclass(frozen=True)
class TraceTriple:
    """Consecutive half-traces (x_next, x_cur, x_prev) = (x_k, x_{k-1}, x_{k-2}).

    level is the index k of x_next; the starting triple (x_1, x_0, x_{-1})
    has level 1.
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


def initial_triple(p: HoppingPair, E: float) -> TraceTriple:
    """Starting triple (x_1, x_0, x_{-1}) = (E/2a, E/2b, (a^2+b^2)/2ab)."""
    a, b = p.a, p.b
    return TraceTriple(E / (2.0 * a), E / (2.0 * b), (a * a + b * b) / (2.0 * a * b), 1)


def step(t: TraceTriple) -> TraceTriple:
    """One application of (x, y, z) -> (2xy - z, x, y); level goes up by one."""
    x = 2.0 * t.x_next * t.x_cur - t.x_prev
    if not math.isfinite(x):
        raise TraceDivergedError(t.level + 1)
    return TraceTriple(x, t.x_next, t.x_cur, t.level + 1)


def step_inverse(t: TraceTriple) -> TraceTriple:
    """One application of (x, y, z) -> (y, z, 2yz - x); exact inverse of step."""
    x = 2.0 * t.x_cur * t.x_prev - t.x_next
    if not math.isfinite(x):
        raise TraceDivergedError(t.level - 1)
    return TraceTriple(t.x_cur, t.x_prev, x, t.level - 1)


def trace_value(p: HoppingPair, E, k: int):
    """Half-trace x_k(E) by the scalar recursion, never via polynomial coefficients.

    E may be a float or an ndarray; the result matches its shape.  Scalar
    evaluation raises TraceDivergedError (with the level reached) if the
    recursion overflows; array evaluation lets non-finite values propagate,
    which callers scanning energy grids mask out themselves.
    """
    if k < -1:
        raise ValueError(f"trace index must be >= -1, got {k}")
    if np.ndim(E) == 0:
        return _trace_scalar(p, float(E), k)
    return _trace_array(p, np.asarray(E, dtype=float), k)


def _trace_scalar(p: HoppingPair, E: float, k: int) -> float:
    t = initial_triple(p, E)
    if k == -1:
        return t.x_prev
    if k == 0:
        return t.x_cur
    for _ in range(k - 1):
        t = step(t)
    return t.x_next


def _trace_array(p: HoppingPair, E: np.ndarray, k: int) -> np.ndarray:
    a, b = p.a, p.b
    z0 = (a * a + b * b) / (2.0 * a * b)
    if k == -1:
        return np.full(E.shape, z0)
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 0:
            return E / (2.0 * b)
        flat = E.ravel()
        out = np.empty(flat.size)
        # Blocks of _BLOCK energies keep the four buffers in cache.  Each step
        # computes (2 * x_next) * x_cur - x_prev in that order, so overflow,
        # NaN and signed zeros come out as they would without blocks.
        bufs = [np.empty(min(flat.size, _BLOCK)) for _ in range(4)]
        for start in range(0, flat.size, _BLOCK):
            e = flat[start : start + _BLOCK]
            x_next, x_cur, x_prev, tmp = (buf[: e.size] for buf in bufs)
            np.divide(e, 2.0 * a, out=x_next)
            np.divide(e, 2.0 * b, out=x_cur)
            x_prev.fill(z0)
            for _ in range(k - 1):
                np.multiply(x_next, 2.0, out=tmp)
                tmp *= x_cur
                np.subtract(tmp, x_prev, out=x_prev)
                x_next, x_cur, x_prev = x_prev, x_next, x_cur
            out[start : start + e.size] = x_next
    return out.reshape(E.shape)


def invariant_value(t: TraceTriple) -> float:
    """Fricke invariant x^2 + y^2 + z^2 - 2xyz - 1 of the triple."""
    x, y, z = t.x_next, t.x_cur, t.x_prev
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def invariant_expected(p: HoppingPair) -> float:
    """Closed-form invariant (a^2 + b^2)^2 / (4 a^2 b^2) - 1; zero iff a = b."""
    a2, b2 = p.a * p.a, p.b * p.b
    return (a2 + b2) ** 2 / (4.0 * a2 * b2) - 1.0


def trace_bound(p: HoppingPair) -> float:
    """Bound 1 + sqrt(invariant) valid for every bounded orbit value."""
    return 1.0 + math.sqrt(invariant_expected(p))


def escape_classify(p: HoppingPair, E: float, K_max: int) -> EscapeResult:
    """Scan pairs (x_k, x_{k+1}) for k = 0..K_max-2 for joint escape beyond 1.

    The scan examines levels strictly below K_max, so Bounded(K_max) means
    no pair among x_0..x_{K_max-1} escapes jointly; this makes the retained
    set of an escape sweep coincide with the level-(K_max-2) band cover.
    Values within ESCAPE_GUARD of 1 do not count as escaped, so borderline
    energies classify as Bounded.  A non-finite value counts as escaped at
    the level reached and is flagged via the diverged field.
    """
    if K_max < 2:
        raise ValueError(f"K_max must be >= 2, got {K_max}")
    thr = 1.0 + ESCAPE_GUARD
    t = initial_triple(p, float(E))
    while True:
        k = t.level - 1
        if abs(t.x_cur) > thr and abs(t.x_next) > thr:
            return EscapeResult(True, k, K_max, t)
        if k >= K_max - 2:
            return EscapeResult(False, None, K_max, t)
        try:
            t = step(t)
        except TraceDivergedError as err:
            return EscapeResult(True, err.level, K_max, t, diverged=True)


def escape_grid(p: HoppingPair, E, K_max: int):
    """Vectorized escape scan over an energy grid.

    Returns (escaped, k_escape, diverged) arrays matching E's shape;
    k_escape is -1 where the orbit stayed bounded through K_max.  Each
    level recurses only the orbits still running, so a classified cell
    keeps the level it escaped at and later overflow cannot reach it.
    """
    if K_max < 2:
        raise ValueError(f"K_max must be >= 2, got {K_max}")
    E = np.asarray(E, dtype=float)
    a, b = p.a, p.b
    thr = 1.0 + ESCAPE_GUARD
    k_escape = np.full(E.size, -1, dtype=np.int64)
    diverged = np.zeros(E.size, dtype=bool)
    running = np.arange(E.size)
    with np.errstate(over="ignore", invalid="ignore"):
        x_prev = np.full(E.size, (a * a + b * b) / (2.0 * a * b))
        x_cur = E.ravel() / (2.0 * b)
        x_next = E.ravel() / (2.0 * a)
        for k in range(K_max - 1):
            blown = ~(np.isfinite(x_cur) & np.isfinite(x_next))
            done = blown | ((np.abs(x_cur) > thr) & (np.abs(x_next) > thr))
            if done.any():
                k_escape[running[done]] = k
                diverged[running[blown]] = True
                keep = ~done
                running = running[keep]
                x_next, x_cur, x_prev = x_next[keep], x_cur[keep], x_prev[keep]
            if k == K_max - 2 or not running.size:
                break
            x_next, x_cur, x_prev = 2.0 * x_next * x_cur - x_prev, x_next, x_cur
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
    to signed log propagation of the same recursion.
    """
    t = initial_triple(p, E)
    xs = [t.x_prev, t.x_cur, t.x_next]

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
    domain so deep levels cannot overflow.  Raises ValueError when the
    orbit is not actually escaped at k_escape.
    """
    if k_escape < 0:
        raise ValueError(f"k_escape must be >= 0, got {k_escape}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    vals = _log_orbit(p, float(E), k_escape + L)
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
