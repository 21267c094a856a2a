"""Oracles and conservation properties for the trace-map layer.

Closed-form values at small (a, b, E) are iterated by hand; structural
facts (invariant conservation, parity, escape criterion) are
checked on seeded random ensembles.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fibjacobi.tracemap import (
    ESCAPE_GUARD,
    _BLOCK,
    _signed_log_sub,
    _x_minus_one,
    EscapeResult,
    HoppingPair,
    TraceDivergedError,
    escape_classify,
    escape_grid,
    finite_traces,
    growth_rate_after_escape,
    invariant_expected,
    trace_bound,
    trace_value,
)
from fibjacobi.words import fibonacci

# Energies where the recursion meets signed zeros, NaN, infinities and overflow.
SPECIAL_ENERGIES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]


def _triple(p, E, k):
    """(x_k, x_{k-1}, x_{k-2}) from trace_value; k = 1 gives the starting triple."""
    return tuple(trace_value(p, E, j) for j in (k, k - 1, k - 2))


def _fricke(x, y, z):
    """Fricke invariant x^2 + y^2 + z^2 - 2xyz - 1 of a triple."""
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def test_hopping_pair_validation():
    p = HoppingPair(1.0, 2.0)
    assert not p.equal
    assert p.norm_bound == 4.0
    assert HoppingPair(1.5, 1.5).equal
    for bad in [(0.0, 1.0), (-1.0, 2.0), (1.0, float("nan")), (1.0, float("inf"))]:
        with pytest.raises(ValueError):
            HoppingPair(*bad)


def test_hoppings_map_each_letter():
    # a for 'a' and b for 'b' at every letter of random words, as a float
    # array, over hopping scales from 1e-200 to 1e200.
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = float(10 ** rng.uniform(-200, 200))
        p = HoppingPair(a, a * float(10 ** rng.uniform(-2, 2)))
        word = "".join(rng.choice(["a", "b"], int(rng.integers(0, 500))))
        hops = p.hoppings(word)
        assert hops.dtype == np.float64
        assert hops.tolist() == [p.a if ch == "a" else p.b for ch in word]


def test_initial_triple_closed_forms():
    # (x_1, x_0, x_{-1}) = (E/2a, E/2b, (a^2 + b^2)/2ab), for a float and an array.
    assert _triple(HoppingPair(1, 1), 2.0, 1) == (1.0, 1.0, 1.0)
    assert _triple(HoppingPair(1, 2), 0.0, 1) == (0.0, 0.0, 1.25)
    assert _triple(HoppingPair(2, 1), 2.0, 1) == (0.5, 1.0, 1.25)
    got = _triple(HoppingPair(2, 1), np.array([2.0, -4.0]), 1)
    assert [x.tolist() for x in got] == [[0.5, -1.0], [1.0, -2.0], [1.25, 1.25]]


def test_power_of_two_scaled_hoppings_match_unit_scale_bit_for_bit():
    # Outside [2^-511, 2^511] a^2, b^2 or 2ab leave the normal doubles, and
    # x_{-1} = (a/b + b/a) / 2 keeps the orbit of (s, 2s) at s E that of
    # (1, 2) at E: every other step only multiplies by powers of two.
    E = np.linspace(-3.5, 3.5, 701) + 0.013
    unit = HoppingPair(1, 2)
    for s in (2.0**-700, 2.0**600):
        p = HoppingPair(s, 2 * s)
        for k in (-1, 0, 1, 2, 7, 15):
            assert trace_value(p, s * E, k).tobytes() == trace_value(unit, E, k).tobytes(), (s, k)
        for got, want in zip(escape_grid(p, s * E, 20), escape_grid(unit, E, 20)):
            assert np.array_equal(got, want), s


def test_step_fixed_point_and_hand_iteration():
    # (1, 1, 1) is a fixed point of (x, y, z) -> (2xy - z, x, y): at a = b = 1,
    # E = 2 every level is 1.  At (1, 2), E = 0 one step takes (0, 0, 5/4) to
    # (-5/4, 0, 0).
    for k in range(1, 31):
        assert _triple(HoppingPair(1, 1), 2.0, k) == (1.0, 1.0, 1.0)
    assert _triple(HoppingPair(1, 2), 0.0, 2) == (-1.25, 0.0, 0.0)


def test_step_overflow_raises():
    # At (1, 1), E = 2e200 the first step 2 x_1 x_0 - x_{-1} overflows: every
    # later level names level 2.
    for k in (2, 3, 10):
        with pytest.raises(TraceDivergedError, match=r"^trace recursion diverged at level 2$") as err:
            trace_value(HoppingPair(1, 1), 2e200, k)
        assert err.value.level == 2


def test_trace_value_small_indices():
    p = HoppingPair(1, 2)
    assert trace_value(p, 3.0, -1) == 1.25
    assert trace_value(p, 3.0, 0) == 0.75
    assert trace_value(p, 3.0, 1) == 1.5
    with pytest.raises(ValueError):
        trace_value(p, 3.0, -2)


def test_trace_value_hand_orbit():
    # At (a, b) = (1, 2), E = 0 the orbit is the 6-cycle 0, -5/4, 0, 0, 5/4, 0.
    p = HoppingPair(1, 2)
    cycle = [0.0, -1.25, 0.0, 0.0, 1.25, 0.0]
    for k in range(1, 31):
        assert trace_value(p, 0.0, k) == cycle[(k - 1) % 6]
    assert trace_value(p, 0.0, 2) == -1.25
    assert trace_value(p, 0.0, 3) == 0.0
    assert trace_value(p, 0.0, 5) == 1.25


def test_trace_value_array_matches_scalar():
    p = HoppingPair(0.8, 1.7)
    grid = np.linspace(-3.5, 3.5, 41)
    for k in [-1, 0, 1, 2, 5, 9]:
        arr = trace_value(p, grid, k)
        assert arr.shape == grid.shape
        for E, x in zip(grid, arr):
            assert x == trace_value(p, float(E), k)


def _trace_loop(p, E, k):
    """Reference: the three-op recursion x <- (2 x) y - z over the whole array."""
    a, b = p.a, p.b
    with np.errstate(over="ignore", invalid="ignore"):
        x_prev = np.full(E.shape, _x_minus_one(p))
        x_cur = E / (2.0 * b)
        x_next = E / (2.0 * a)
        if k == -1:
            return x_prev
        if k == 0:
            return x_cur
        for _ in range(k - 1):
            x_next, x_cur, x_prev = 2.0 * x_next * x_cur - x_prev, x_next, x_cur
    return x_next


def test_trace_value_blocked_matches_loop():
    p = HoppingPair(0.8, 1.7)
    n = 2 * _BLOCK + 123
    wide = np.linspace(-3.6, 3.6, n)
    # Special energies at the start, across the first block boundary and at the end.
    for at in (0, _BLOCK - 3, n - len(SPECIAL_ENERGIES)):
        wide[at : at + len(SPECIAL_ENERGIES)] = SPECIAL_ENERGIES
    grids = [wide, wide[: 3 * 4001].reshape(3, 4001), np.empty(0), np.empty((0, 4)),
             np.array(SPECIAL_ENERGIES)]
    for k in [-1, 0, 1, 2, 9, 40]:
        for E in grids:
            got = trace_value(p, E, k)
            want = _trace_loop(p, E, k)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    for E in (wide, grids[4]):
        first = trace_value(p, E, 9)
        kept = first.copy()
        second = trace_value(p, E, 9)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept, equal_nan=True)


def test_trace_value_matches_loop_on_overflowed_blocks():
    # Far outside the spectrum nearly every orbit overflows to inf and then
    # NaN in the kernel's buffers; the last block is mostly in-spectrum
    # energies.
    p = HoppingPair(0.8, 1.7)
    E = np.concatenate((np.linspace(-40.0, 40.0, 2 * _BLOCK), np.linspace(-3.0, 3.0, 123)))
    E[_BLOCK - 3 : _BLOCK - 3 + len(SPECIAL_ENERGIES)] = SPECIAL_ENERGIES
    for k in (12, 40):
        got = trace_value(p, E, k)
        want = _trace_loop(p, E, k)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert (~np.isfinite(want[: 2 * _BLOCK])).mean() > 0.9


def test_trace_value_matches_three_op_loop_bit_for_bit():
    # The blocked in-place kernel must give every value bit for bit as the
    # plain three-op loop does, overflowing orbits and subnormal products
    # included, across hopping scales and ratios.
    rng = np.random.default_rng(12)
    big = np.finfo(float).max
    scales = 10.0 ** rng.uniform(-250, 250, 22)
    ratios = np.where(np.arange(22) % 4 == 0, 1.0, 10.0 ** rng.uniform(-2.5, 2.5, 22))
    # 2a or 2b overflows at the last two.
    pairs = [HoppingPair(a, a * r) for a, r in zip(scales, ratios)]
    pairs += [HoppingPair(1e308, 1e308), HoppingPair(1e308, 3e305)]
    checked = 0
    for p in pairs:
        m = max(p.a, p.b)
        sign = rng.choice([-1.0, 1.0], 200)
        with np.errstate(over="ignore"):
            # Separate calls, one per kind of energy.
            groups = [
                np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1000 * m, big, -big,
                          math.inf, -math.inf, math.nan]),
                rng.uniform(-1.3, 1.3, 250) * p.norm_bound,
                sign * np.power(10.0, rng.uniform(-330, 330, 200)),
                # Tiny energies, some of whose products fall among the subnormals.
                sign[:80] * m * np.exp2(rng.uniform(-1080, -900, 80)),
            ]
        for E in groups:
            for k in range(-1, 46):
                got = trace_value(p, E, k)
                want = _trace_loop(p, E, k)
                assert np.array_equal(got, want, equal_nan=True), (p, E[:3], k)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (p, E[:3], k)
                checked += E.size
    assert checked > 500_000


def test_invariant_examples():
    assert _fricke(*_triple(HoppingPair(1, 1), 2.0, 1)) == 0.0
    assert _fricke(*_triple(HoppingPair(1, 2), 0.0, 1)) == pytest.approx(9 / 16)
    assert invariant_expected(HoppingPair(1, 1)) == 0.0
    assert invariant_expected(HoppingPair(1, 2)) == pytest.approx(9 / 16)
    assert invariant_expected(HoppingPair(2, 1)) == pytest.approx(9 / 16)


def test_invariant_expected_range_and_accuracy():
    # ((a/b - b/a) / 2)^2 holds at every ratio whose value is a double and
    # keeps its relative accuracy near a = b, where a^2 + b^2 cancels.
    for a, b in ((1.0, 1.0 + 2**-30), (1.0, 1.0 + 1e-12), (3.0, 3.1), (1.0, 1e100), (1e-150, 1.0)):
        fa, fb = Fraction(a), Fraction(b)
        want = float((fa * fa + fb * fb) ** 2 / (4 * fa * fa * fb * fb) - 1)
        assert invariant_expected(HoppingPair(a, b)) == pytest.approx(want, rel=1e-12)
    for a, b in ((1.0, 1e200), (1e-200, 1.0), (6e-309, 2.0)):
        with pytest.raises(ArithmeticError, match=re.escape(f"a = {a!r}, b = {b!r}")):
            invariant_expected(HoppingPair(a, b))


def test_invariant_matches_initial_triple():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0, size=2)
        E = rng.uniform(-6, 6)
        p = HoppingPair(a, b)
        got = _fricke(*_triple(p, E, 1))
        want = invariant_expected(p)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_invariant_conserved_under_step():
    # One step of the kernel's orbit, from level k to k + 1, keeps the
    # invariant wherever the triples stay below 3.
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(50):
        p = HoppingPair(*rng.uniform(0.5, 2.0, size=2))
        E = rng.uniform(-1.0, 1.0, size=40) * p.norm_bound
        for k in range(1, 12):
            here, there = np.array(_triple(p, E, k)), np.array(_triple(p, E, k + 1))
            small = (np.abs(here) <= 3.0).all(axis=0) & (np.abs(there) <= 3.0).all(axis=0)
            assert np.allclose(_fricke(*there)[small], _fricke(*here)[small], rtol=0.0, atol=1e-10)
            checked += small.sum()
    assert checked > 10_000


def test_invariant_conservation_along_orbits():
    # 10^4 random parameter points, evolved while |x| stays linear-safe.
    # Conservation to 1e-9 is checkable only while entries stay below ~1e3:
    # evaluating the invariant at magnitude-M triples costs ~M^3 * eps in
    # cancellation, which passes 1e-9 between M = 1e3 and 1e4.
    rng = np.random.default_rng(17)
    n = 10_000
    a = rng.uniform(0.2, 3.0, size=n)
    b = rng.uniform(0.2, 3.0, size=n)
    E = rng.uniform(-1.0, 1.0, size=n) * 2.2 * np.maximum(a, b)
    x_prev = (a * a + b * b) / (2 * a * b)
    x_cur = E / (2 * b)
    x_next = E / (2 * a)
    expected = (a * a + b * b) ** 2 / (4 * a * a * b * b) - 1.0
    tol = 1e-9 * (1.0 + np.abs(expected))
    active = np.ones(n, dtype=bool)
    for _ in range(40):
        mag = np.max(np.abs(np.stack([x_next, x_cur, x_prev])), axis=0)
        check = active & (mag <= 1e3)
        inv = x_next**2 + x_cur**2 + x_prev**2 - 2 * x_next * x_cur * x_prev - 1.0
        assert np.all(np.abs(inv[check] - expected[check]) <= tol[check])
        nxt = 2 * x_next * x_cur - x_prev
        active &= np.abs(nxt) <= 1e6
        x_prev = np.where(active, x_cur, x_prev)
        x_cur = np.where(active, x_next, x_cur)
        x_next = np.where(active, nxt, x_next)


def test_trace_bound_examples():
    assert trace_bound(HoppingPair(1, 1)) == 1.0
    assert trace_bound(HoppingPair(1, 2)) == pytest.approx(1.75)
    assert trace_bound(HoppingPair(1, 3)) == pytest.approx(1 + 4 / 3)


def test_parity_in_energy():
    # x_k(-E) = (-1)^{F_k} x_k(E), exactly in floating point.
    p = HoppingPair(1, 2)
    grid = np.linspace(-4.5, 4.5, 101)
    for k in range(0, 21):
        plus = trace_value(p, grid, k)
        minus = trace_value(p, -grid, k)
        m = np.isfinite(plus) & np.isfinite(minus)
        assert m.sum() >= 20
        sign = -1.0 if fibonacci(k) % 2 else 1.0
        assert np.array_equal(minus[m], sign * plus[m])


def test_trace_kernel_is_mirror_symmetric_bit_for_bit():
    # |x_k(-E)| = |x_k(E)| in every bit, overflowed and NaN entries included,
    # since IEEE negation, products and differences round symmetrically:
    # sigma_k is solved on E > 0 and mirrored.  Hopping scales 1e-300 to
    # 1e300, signed zeros, subnormal energies, tiny energies whose products
    # fall among the subnormals and orbits that overflow.
    rng = np.random.default_rng(21)
    checked = 0
    for scale in (1e-300, 1e-200, 1e-20, 0.37, 1.0, 3.3, 1e20, 1e200, 1e300):
        for ratio in (1.0, 1.0001, 1.3, 2.27, 20.0, 100.0, 1 / 7.3):
            p = HoppingPair(scale, scale * ratio)
            m = max(p.a, p.b)
            E = np.concatenate((
                [0.0, -0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-961 * m, 2.0**-959 * m],
                m * np.exp2(rng.uniform(-1080, -900, 30)),
                p.norm_bound * rng.uniform(0.0, 1.2, 300),
                # Escaping orbits: they overflow to inf, then to NaN.
                p.norm_bound * rng.uniform(1.2, 4.0, 30),
            ))
            for k in range(-1, 46):
                plus = np.abs(trace_value(p, E, k))
                minus = np.abs(trace_value(p, -E, k))
                assert np.array_equal(plus.view(np.int64), minus.view(np.int64)), (p, k)
                checked += E.size
            assert np.isnan(plus).any(), p
    assert checked > 1_000_000


def test_escape_classify_bounded_cases():
    res = escape_classify(HoppingPair(1, 2), 0.0, 100)
    assert not res.escaped
    assert res.k_escape is None
    assert res.classification == "Bounded(100)"
    res = escape_classify(HoppingPair(1, 1), 2.0, 100)
    assert not res.escaped


def test_escape_classify_escaped_case():
    # E = 10 is far outside [-4, 4], the norm bound at (1, 2).
    res = escape_classify(HoppingPair(1, 2), 10.0, 100)
    assert res.escaped
    assert res.k_escape == 0
    assert not res.diverged
    assert isinstance(res, EscapeResult)
    assert res.classification == "Escaped(0)"
    # An infinite half-trace counts as escaped, with diverged set.
    res = escape_classify(HoppingPair(1, 2), math.inf, 100)
    assert (res.escaped, res.diverged) == (True, True)
    assert res.classification == "EscapedDiverged(0)"
    with pytest.raises(ValueError):
        escape_classify(HoppingPair(1, 2), 10.0, 1)


def test_signed_log_sub_matches_float_subtraction():
    # (m, s) stands for s e^m, and zero for (-inf, 0): every sign pattern,
    # zeros and equal magnitudes give a - b as plain floats do.
    def signed_log(x):
        return (math.log(abs(x)), 1 if x > 0 else -1) if x else (-math.inf, 0)

    values = (3.0, -3.0, 0.5, -0.5, 1e-3, 0.0)
    for a in values:
        for b in values:
            m, s = _signed_log_sub(*signed_log(a), *signed_log(b))
            assert s == (a > b) - (a < b), (a, b)
            assert s * math.exp(m) == pytest.approx(a - b, rel=1e-14, abs=0.0), (a, b)


def test_escape_invariant_two_consecutive_large():
    # Escaped(k) must mean both |x_k| and |x_{k+1}| exceed 1.
    p = HoppingPair(0.9, 1.4)
    rng = np.random.default_rng(23)
    found = 0
    for E in rng.uniform(-6, 6, size=200):
        res = escape_classify(p, float(E), 30)
        if res.escaped:
            found += 1
            k = res.k_escape
            assert abs(trace_value(p, float(E), k)) > 1.0
            assert abs(trace_value(p, float(E), k + 1)) > 1.0
    assert found > 50


def test_escape_guard_band_defers_borderline_pairs():
    # At a = b = 1, x_0 = x_1 = E/2.  Just above 2 the first pair sits inside
    # the guard band and must not classify; the orbit still escapes once the
    # values genuinely pass 1 + guard a few levels later.
    p = HoppingPair(1, 1)
    res = escape_classify(p, 2.0 + 2e-13, 50)
    assert res.escaped and res.k_escape >= 3
    assert escape_classify(p, 2.0 + 2e-11, 50).k_escape == 0
    assert not escape_classify(p, 2.0, 50).escaped


def test_escape_grid_matches_scalar():
    p = HoppingPair(1, 2)
    grid = np.linspace(-5.0, 5.0, 201)
    assert not escape_grid(p, grid, 25)[2].any()
    # At a tiny a the first product overflows one level after the start.
    tiny = HoppingPair(6e-309, 1.0)
    cases = [(p, grid), (p, np.array(SPECIAL_ENERGIES)),
             (tiny, np.array([1.8, -1.8, 0.5, *SPECIAL_ENERGIES]))]
    for q, energies in cases:
        escaped, k_esc, diverged = escape_grid(q, energies, 25)
        for i, E in enumerate(energies.tolist()):
            res = escape_classify(q, E, 25)
            assert escaped[i] == res.escaped
            assert diverged[i] == res.diverged
            if res.escaped:
                assert k_esc[i] == res.k_escape
            else:
                assert k_esc[i] == -1 and res.k_escape is None
            # The scan stopped at k: the escape level, or K_max - 2 when bounded.
            k = res.k_escape if res.escaped else 23
            t = res.last_triple
            want = [trace_value(q, np.array([E]), j)[0] for j in (k + 1, k, k - 1)]
            assert t.level == k + 1
            assert np.array_equal([t.x_next, t.x_cur, t.x_prev], want, equal_nan=True)


def _step_loop(p, E, k):
    """Reference: x_k by the float step x <- 2 x y - z, raising TraceDivergedError at the first non-finite level."""
    x, y, z = E / (2.0 * p.a), E / (2.0 * p.b), _x_minus_one(p)
    for level in range(2, k + 1):
        x, y, z = 2.0 * x * y - z, x, y
        if not math.isfinite(x):
            raise TraceDivergedError(level)
    return (z, y, x)[min(k, 1) + 1]


def _outcome(fn):
    try:
        return repr(fn())
    except TraceDivergedError as err:
        return f"level {err.level}: {err}"


def test_trace_value_scalar_diverges_like_step_loop():
    p = HoppingPair(1, 2)
    tiny = HoppingPair(6e-309, 1.0)
    cases = [(p, E) for E in (1e154, -1e154, 1e200, 1e300, 3.0, *SPECIAL_ENERGIES)]
    cases += [(tiny, E) for E in (1.8, -1.8, 0.5)]
    for q, E in cases:
        for k in (-1, 0, 1, 2, 3, 5, 30):
            got = _outcome(lambda: trace_value(q, E, k))
            assert got == _outcome(lambda: _step_loop(q, E, k)), (q, E, k)
    assert _outcome(lambda: trace_value(p, 1e154, 5)) == "level 3: trace recursion diverged at level 3"


def _escape_masked(p, E, K_max):
    """Reference: the full-grid escape scan that freezes classified cells by mask."""
    E = np.asarray(E, dtype=float)
    a, b = p.a, p.b
    x_prev = np.full(E.shape, (a * a + b * b) / (2.0 * a * b))
    x_cur = E / (2.0 * b)
    x_next = E / (2.0 * a)
    thr = 1.0 + ESCAPE_GUARD
    k_escape = np.full(E.shape, -1, dtype=np.int64)
    diverged = np.zeros(E.shape, dtype=bool)
    active = np.ones(E.shape, dtype=bool)
    for k in range(K_max - 1):
        blown = active & ~(np.isfinite(x_cur) & np.isfinite(x_next))
        if blown.any():
            k_escape[blown] = k
            diverged[blown] = True
            active &= ~blown
        hit = active & (np.abs(x_cur) > thr) & (np.abs(x_next) > thr)
        if hit.any():
            k_escape[hit] = k
            active &= ~hit
        if k == K_max - 2 or not active.any():
            break
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = 2.0 * x_next * x_cur - x_prev
        x_prev = np.where(active, x_cur, x_prev)
        x_cur = np.where(active, x_next, x_cur)
        x_next = np.where(active, nxt, x_next)
    return k_escape >= 0, k_escape, diverged


def test_escape_grid_matches_masked_loop():
    p = HoppingPair(1, 2)
    wide = np.linspace(-4.5, 4.5, 40001)
    special = np.array(SPECIAL_ENERGIES + [0.3, 3.9, 4.2])
    # At a tiny a the first product overflows one level after the start.
    tiny = HoppingPair(6e-309, 1.0)
    cases = [
        (p, 0.3, 25), (p, np.array(9.0), 25), (p, wide[:600].reshape(20, 30), 25),
        (p, np.empty(0), 25), (p, special, 25), (tiny, np.array([1.8, -1.8, 0.5]), 25),
        (p, wide, 2), (p, wide, 30),
    ]
    for q, E, K in cases:
        got = escape_grid(q, E, K)
        want = _escape_masked(q, E, K)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
    assert escape_grid(p, special, 25)[2][2:5].all()
    _, k_esc, diverged = escape_grid(tiny, np.array([1.8, -1.8]), 25)
    assert diverged.all() and (k_esc == 1).all()


def test_growth_rate_hand_value():
    # (a, b) = (1, 1), E = 3: orbit 1.5, 1.5, 3.5, 9, 61.5, ... escapes at k = 0
    # and the slowest ratio |x_{l}|^{1/F_l} is the first one.
    p = HoppingPair(1, 1)
    res = escape_classify(p, 3.0, 50)
    assert res.escaped and res.k_escape == 0
    c = growth_rate_after_escape(p, 3.0, 0, 10)
    assert c == pytest.approx(1.5, rel=1e-12)


def test_growth_rate_deep_levels_stay_finite():
    p = HoppingPair(1, 1)
    c_short = growth_rate_after_escape(p, 3.0, 0, 10)
    c_deep = growth_rate_after_escape(p, 3.0, 0, 60)
    assert c_deep == pytest.approx(c_short, rel=1e-12)
    assert 1.0 < c_deep < 10.0


def test_growth_rate_exceeds_one_for_escaped_energies():
    p = HoppingPair(1, 2)
    rng = np.random.default_rng(29)
    checked = 0
    for E in rng.uniform(4.05, 8.0, size=25):
        res = escape_classify(p, float(E), 40)
        assert res.escaped
        c = growth_rate_after_escape(p, float(E), res.k_escape, 30)
        assert c > 1.0
        checked += 1
    assert checked == 25


def test_growth_rate_precondition():
    p = HoppingPair(1, 2)
    with pytest.raises(ValueError):
        growth_rate_after_escape(p, 0.0, 0, 10)
    with pytest.raises(ValueError):
        growth_rate_after_escape(p, 10.0, 0, 0)
    with pytest.raises(ValueError):
        growth_rate_after_escape(p, 10.0, -1, 10)


def test_growth_rate_refuses_energy_that_is_not_finite():
    # Formerly inf - inf in log form read as log 0 and gave c = 0.0; nan
    # failed as "not escaped".
    p = HoppingPair(1, 2)
    for E in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="energy must be finite"):
            growth_rate_after_escape(p, E, 0, 5)


def test_growth_rate_refuses_start_beyond_double_range():
    # x_0 = E/2b and x_1 = E/2a overflow at these finite energies, where the
    # growth rate formerly came out as a vacuous 0.0.
    for (a, b), E, level in (
        ((1e-10, 2e-10), 1e300, 0),
        ((1e-300, 2e-300), 1e10, 0),
        ((1e-300, 1e-290), 1e10, 1),
    ):
        with pytest.raises(TraceDivergedError, match=re.escape(f"at E = {E!r}")) as info:
            growth_rate_after_escape(HoppingPair(a, b), E, 0, 5)
        assert info.value.level == level


def test_escape_guard_constant():
    assert ESCAPE_GUARD == 1e-12


def test_finite_traces_names_level_and_energy():
    p = HoppingPair(1.0, 2.0)
    E = np.array([0.5, -1.5, 3.0])
    assert np.array_equal(finite_traces(p, E, 12), trace_value(p, E, 12))
    # The first energy that diverges is named, with its level (3 at 1e154),
    # though 1e200 further on diverges at level 2 already.
    with pytest.raises(TraceDivergedError, match=r"^trace recursion diverged at level 3 at E = 1e\+154$") as err:
        finite_traces(p, np.array([1.0, 1e154, 1e200]), 5)
    assert err.value.level == 3
