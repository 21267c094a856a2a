"""Oracles and conservation properties for the trace-map layer.

Closed-form values at small (a, b, E) are iterated by hand; structural
facts (invariant conservation, inversion, parity, escape criterion) are
checked on seeded random ensembles.
"""

import math

import numpy as np
import pytest

from fibjacobi.tracemap import (
    ESCAPE_GUARD,
    _BLOCK,
    EscapeResult,
    HoppingPair,
    TraceDivergedError,
    TraceTriple,
    escape_classify,
    escape_grid,
    growth_rate_after_escape,
    initial_triple,
    invariant_expected,
    invariant_value,
    step,
    step_inverse,
    trace_bound,
    trace_value,
)
from fibjacobi.words import fibonacci

# Energies where the recursion meets signed zeros, NaN, infinities and overflow.
SPECIAL_ENERGIES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]


def test_hopping_pair_validation():
    p = HoppingPair(1.0, 2.0)
    assert not p.equal
    assert p.norm_bound == 4.0
    assert HoppingPair(1.5, 1.5).equal
    for bad in [(0.0, 1.0), (-1.0, 2.0), (1.0, float("nan")), (1.0, float("inf"))]:
        with pytest.raises(ValueError):
            HoppingPair(*bad)


def test_initial_triple_closed_forms():
    t = initial_triple(HoppingPair(1, 1), 2.0)
    assert (t.x_next, t.x_cur, t.x_prev, t.level) == (1.0, 1.0, 1.0, 1)
    t = initial_triple(HoppingPair(1, 2), 0.0)
    assert (t.x_next, t.x_cur, t.x_prev) == (0.0, 0.0, 1.25)
    t = initial_triple(HoppingPair(2, 1), 2.0)
    assert (t.x_next, t.x_cur, t.x_prev) == (0.5, 1.0, 1.25)


def test_step_fixed_point_and_hand_iteration():
    fixed = TraceTriple(1.0, 1.0, 1.0, 1)
    out = step(fixed)
    assert (out.x_next, out.x_cur, out.x_prev, out.level) == (1.0, 1.0, 1.0, 2)
    t = step(TraceTriple(0.0, 0.0, 1.25, 1))
    assert (t.x_next, t.x_cur, t.x_prev, t.level) == (-1.25, 0.0, 0.0, 2)


def test_step_inverse_examples():
    t = step_inverse(TraceTriple(1.0, 1.0, 1.0, 3))
    assert (t.x_next, t.x_cur, t.x_prev, t.level) == (1.0, 1.0, 1.0, 2)
    t = step_inverse(TraceTriple(-1.25, 0.0, 0.0, 2))
    assert (t.x_next, t.x_cur, t.x_prev) == (0.0, 0.0, 1.25)


def test_step_inverse_twice_recovers_initial():
    p = HoppingPair(1.3, 0.7)
    t1 = initial_triple(p, 0.9)
    t3 = step(step(t1))
    back = step_inverse(step_inverse(t3))
    assert back.level == 1
    assert math.isclose(back.x_next, t1.x_next, rel_tol=1e-14)
    assert math.isclose(back.x_cur, t1.x_cur, rel_tol=1e-14)
    assert math.isclose(back.x_prev, t1.x_prev, rel_tol=1e-14)


def test_step_inversion_property():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x, y, z = rng.uniform(-10, 10, size=3)
        t = TraceTriple(float(x), float(y), float(z), 5)
        back = step_inverse(step(t))
        assert back.level == 5
        for got, want in [(back.x_next, x), (back.x_cur, y), (back.x_prev, z)]:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_step_overflow_raises():
    big = 1e200
    with pytest.raises(TraceDivergedError) as err:
        step(TraceTriple(big, big, 0.0, 9))
    assert err.value.level == 10


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
    """Reference: the plain recursion over the whole array, one temporary per step."""
    a, b = p.a, p.b
    with np.errstate(over="ignore", invalid="ignore"):
        x_prev = np.full(E.shape, (a * a + b * b) / (2.0 * a * b))
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


def test_invariant_examples():
    assert invariant_value(TraceTriple(1.0, 1.0, 1.0, 1)) == 0.0
    assert invariant_value(TraceTriple(0.0, 0.0, 1.25, 1)) == pytest.approx(9 / 16)
    assert invariant_expected(HoppingPair(1, 1)) == 0.0
    assert invariant_expected(HoppingPair(1, 2)) == pytest.approx(9 / 16)
    assert invariant_expected(HoppingPair(2, 1)) == pytest.approx(9 / 16)


def test_invariant_matches_initial_triple():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0, size=2)
        E = rng.uniform(-6, 6)
        p = HoppingPair(a, b)
        got = invariant_value(initial_triple(p, E))
        want = invariant_expected(p)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_invariant_conserved_under_step():
    rng = np.random.default_rng(13)
    for _ in range(500):
        t = TraceTriple(*rng.uniform(-3, 3, size=3), 1)
        assert invariant_value(step(t)) == pytest.approx(invariant_value(t), abs=1e-10)


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
    with pytest.raises(ValueError):
        escape_classify(HoppingPair(1, 2), 10.0, 1)


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
    escaped, k_esc, diverged = escape_grid(p, grid, 25)
    assert not diverged.any()
    for i, E in enumerate(grid):
        res = escape_classify(p, float(E), 25)
        assert escaped[i] == res.escaped
        if res.escaped:
            assert k_esc[i] == res.k_escape
        else:
            assert k_esc[i] == -1


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


def test_escape_guard_constant():
    assert ESCAPE_GUARD == 1e-12
