"""Band-set solver tests: closed forms, nesting, measures, escape sweeps."""

import json
import math
import re
import sys
import threading

import numpy as np
import pytest

import fibjacobi.bands as bands_module
from fibjacobi.bands import (
    BandSet,
    MERGE_FACTOR,
    RootIsolationError,
    _BISECT_MAX,
    _SPLIT_MAX,
    _batch_bisect,
    _container_grid,
    _golden_max_abs,
    bandset_from_json,
    bandset_to_json,
    cover,
    energy_window,
    escape_spectrum,
    hausdorff_distance,
    lebesgue_measure,
    sigma_chain,
    sigma_k,
    _chain,
    _merge_intervals,
)
from fibjacobi.cli import main
from fibjacobi.tracemap import HoppingPair, escape_classify, trace_bound, trace_value
from fibjacobi.words import fib_prefix, fibonacci

P11 = HoppingPair(1, 1)
# The peak search closes gaps here: 1, 2, 2 and 5 of them at levels 2-5.
P_CLOSING = HoppingPair(1, 1.00001)
P12 = HoppingPair(1, 2)
TOL = 1e-10


def _plain_bisect(fn, lo, hi, tol):
    """Reference: plain bisection, one midpoint per call of fn."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    sign_lo = np.sign(fn(lo))
    width = float((hi - lo).max()) if lo.size else 0.0
    n_iter = max(1, int(math.ceil(math.log2(max(width / tol, 2.0)))) + 1)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        same = np.sign(fn(mid)) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi), n_iter


def test_batch_bisect_equals_plain_bisection_bit_for_bit(monkeypatch):
    smooth = lambda x: np.sin(7.0 * x) + 0.3
    # Plateaus of exact zeros exercise the sign-0 comparisons.
    steps = lambda x: np.floor(8.0 * x) - 3.0
    # Whether any bracket of a tree's call showed signs that leave sign_lo
    # and come back, the case _split_step walks as bisection does.
    walked = []
    step = bands_module._split_step

    def spy(fn, lo, hi, sign_lo, s):
        def seen(x):
            f = fn(x)
            same = np.sign(f).reshape((1 << s) - 1, lo.size) == sign_lo
            walked.append(bool((same[1:] & ~same[:-1]).any()))
            return f

        return step(seen, lo, hi, sign_lo, s)

    monkeypatch.setattr(bands_module, "_split_step", spy)
    # The point budget is set so that each batch takes `split` halvings per
    # call of fn.
    for split in range(1, _SPLIT_MAX + 1):
        rng = np.random.default_rng(5)
        walked.clear()
        for n in (0, 1, 37, 600):
            monkeypatch.setattr(bands_module, "_SPLIT_POINTS", max(n, 1) * ((1 << split) - 1))
            lo = rng.uniform(-2.0, 2.0, n)
            width = rng.uniform(1e-3, 0.8, n)
            width[:1] = 0.8
            hi = lo + width

            def record(fn, calls):
                def call(x):
                    calls.append(x)
                    if n:
                        pts = x.reshape(-1, n)
                        assert ((lo <= pts) & (pts <= hi)).all(), "a point outside its bracket"
                    return fn(x)

                return call

            parities = set()
            for fn in (smooth, steps):
                for tol in (1e-10, 5e-11, 1e-13, 0.3):
                    plain, batch = [], []
                    want, n_iter = _plain_bisect(record(fn, plain), lo, hi, tol)
                    parities.add(n_iter % 2)
                    got = _batch_bisect(record(fn, batch), lo, hi, tol, fn(lo))
                    assert got.dtype == want.dtype and np.array_equal(got, want), (split, n, tol)
                    # Every point plain bisection evaluates, with its bits.
                    assert np.isin(
                        np.concatenate(plain[1:]), np.concatenate([x.ravel() for x in batch])
                    ).all()
                    if n:
                        assert len(batch) == -(-n_iter // split)
            assert parities == {0, 1} or n == 0
        # The 0.8-wide brackets of sin(7x) + 0.3 cross zero twice.
        assert any(walked) == (split >= 2), split


def test_batch_bisect_takes_several_halvings_per_call():
    # Two brackets 0.5 wide need 34 halvings to reach 1e-10: one step per
    # call took 34 calls of fn and two per call 17; at most _SPLIT_MAX per
    # call take ceil(34 / _SPLIT_MAX).
    calls = []
    fn = lambda x: np.sin(7.0 * x) + 0.3
    lo = np.array([0.1, 1.0])
    want, n_iter = _plain_bisect(fn, lo, lo + 0.5, TOL)
    got = _batch_bisect(lambda x: fn(calls.append(x) or x), lo, lo + 0.5, TOL, fn(lo))
    assert np.array_equal(got, want)
    assert n_iter == 34 and len(calls) <= 5


def test_interval_and_bandset_validation():
    with pytest.raises(ValueError):
        BandSet([2.0], [1.0], "sigma_k", 1, P11, TOL)
    with pytest.raises(ValueError):
        BandSet([0.0], [math.inf], "sigma_k", 1, P11, TOL)
    with pytest.raises(ValueError):
        BandSet([0, 1], [2, 3], "sigma_k", 1, P11, TOL)
    with pytest.raises(ValueError):
        BandSet([0], [1], "nonsense", 1, P11, TOL)
    with pytest.raises(ValueError, match="equal length"):
        BandSet([0.0, 2.0], [1.0], "sigma_k", 1, P11, TOL)
    with pytest.raises(ValueError):
        sigma_k(P12, 0)
    with pytest.raises(ValueError, match="got 0"):
        cover(P12, 0)
    with pytest.raises(ValueError):
        sigma_k(P12, 3, tol=1e-14)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tol must be a positive finite number, got {tol}"):
            cover(P12, 3, tol)


def test_batch_bisect_stops_where_brackets_collapse():
    # At a scale of 1e100 a tol of 1e-10 lies far below the spacing of the
    # doubles: every bracket collapses long before the 366 steps that tol
    # asks for, and the capped count returns the same roots bit for bit.
    rng = np.random.default_rng(7)
    s = 1e100
    fn = lambda x: np.sin(7.0 * x / s) + 0.3
    lo = rng.uniform(0.1, 2.0, 37) * s
    hi = lo + rng.uniform(1e-3, 0.8, 37) * s
    want, n_iter = _plain_bisect(fn, lo, hi, TOL)
    calls = []
    got = _batch_bisect(lambda x: fn(calls.append(x) or x), lo, hi, TOL, fn(lo))
    assert np.array_equal(got, want)
    assert len(calls) < 40 and n_iter > 300


@pytest.mark.parametrize("scale", [1e299, 1e300, 1e306])
def test_huge_hopping_scales_give_fibonacci_bands(scale):
    # width / tol overflows at these scales; sigma_14 scaled back matches
    # (1, 2)'s within tol at every edge.
    want = sigma_k(P12, 14, TOL)
    bs = sigma_k(HoppingPair(scale, 2 * scale), 14, TOL)
    assert bs.lo.size == fibonacci(14)
    assert np.abs(bs.lo / scale - want.lo).max() <= TOL
    assert np.abs(bs.hi / scale - want.hi).max() <= TOL


# (a, b, deepest level); (1, 40) fails at level 13.
SCALE_CASES = ((1.0, 2.0, 14), (0.3, 0.31, 14), (1.0, 1.0001, 14), (1.0, 40.0, 12))


@pytest.mark.parametrize("a, b, k", SCALE_CASES)
def test_power_of_two_scales_give_the_same_chain_times_the_scale(a, b, k):
    # H(2^m p) = 2^m H(p), and both are solved at the same a in [1, 2): every
    # edge, tol and window of 2^m p is p's times 2^m, bit for bit.
    p = HoppingPair(a, b)
    want = sigma_chain(p, k, TOL)
    want_cover = cover(p, k - 1, TOL)
    for m in (-600, -3, 1, 3, 600):
        q = HoppingPair(math.ldexp(a, m), math.ldexp(b, m))
        got = sigma_chain(q, k, TOL)
        assert len(got) == k
        for g, w in zip((*got, cover(q, k - 1, TOL)), (*want, want_cover)):
            assert g.lo.tobytes() == np.ldexp(w.lo, m).tobytes(), (m, g.kind, g.level)
            assert g.hi.tobytes() == np.ldexp(w.hi, m).tobytes(), (m, g.kind, g.level)
            assert g.tol == math.ldexp(w.tol, m) and g.params == q
            assert (g.kind, g.level, g.merged_gaps) == (w.kind, w.level, w.merged_gaps)
        win, want_win = energy_window(q), energy_window(p)
        assert (win.lo, win.hi) == (math.ldexp(want_win.lo, m), math.ldexp(want_win.hi, m))


def test_second_scale_of_a_solved_pair_evaluates_no_trace(monkeypatch):
    trace = bands_module.trace_value
    levels = []

    def spy(p, E, k):
        levels.append(k)
        return trace(p, E, k)

    monkeypatch.setattr(bands_module, "trace_value", spy)
    _chain.cache_clear()
    sigma_chain(HoppingPair(0.3, 0.31), 14, TOL)
    assert levels
    levels.clear()
    for m in (-3, 1, 3):
        q = HoppingPair(math.ldexp(0.3, m), math.ldexp(0.31, m))
        sigma_chain(q, 14, TOL)
        cover(q, 13, TOL)
        sigma_k(q, 11, TOL)
    assert not levels
    # cache_clear drops the one chain every scale shares.
    _chain.cache_clear()
    sigma_k(HoppingPair(2.4, 2.48), 14, TOL)
    assert levels
    _chain.cache_clear()


def test_scaled_band_sets_are_the_cached_chain_times_2_to_the_e():
    # A cache hit at a outside [1, 2) scales the cached chain by 2^e, bit
    # for bit, into read-only band sets of the caller's hoppings.
    p = HoppingPair(0.75, 1.5)
    want = sigma_chain(HoppingPair(1.5, 3.0), 14)
    got = sigma_chain(p, 14)
    assert sigma_k(p, 14).lo.tobytes() == got[-1].lo.tobytes()
    for g, w in zip(got, want, strict=True):
        assert g.lo.tobytes() == np.ldexp(w.lo, -1).tobytes()
        assert g.hi.tobytes() == np.ldexp(w.hi, -1).tobytes()
        assert not (g.lo.flags.writeable or g.hi.flags.writeable)
        assert (g.kind, g.level, g.params, g.tol) == ("sigma_k", w.level, p, w.tol / 2)
        assert g.bands.tobytes() == np.ldexp(w.bands, -1).tobytes()


def test_lebesgue_measure_adds_left_to_right():
    # One unit band, then twenty bands 1e-17 wide: each width alone is under
    # half an ulp of 1, so adding left to right stays at 1, while a
    # compensated sum (Python's own from 3.12 on) ends one ulp higher.
    lo = np.array([-2.0, *(i * 1e-15 for i in range(1, 21))])
    hi = np.array([-1.0, *(i * 1e-15 + 1e-17 for i in range(1, 21))])
    bs = BandSet(lo, hi, "cover", 1, P12, 1e-10)
    total = 0.0
    for width in (bs.hi - bs.lo).tolist():
        total += width
    assert total != math.fsum((bs.hi - bs.lo).tolist())
    assert lebesgue_measure(bs) == total
    assert lebesgue_measure(BandSet(lo[:0], hi[:0], "cover", 1, P12, 1e-10)) == 0.0


@pytest.mark.parametrize("a", [1e-200, 1e-100, 1e-20, 1e-10, 1e100, 1e200])
def test_tiny_and_huge_scales_give_fibonacci_bands(a):
    # tol and the solver's energy floors are in units of the power of two at
    # or below a, so no scale leaves them too coarse for its bands.
    p = HoppingPair(a, 2 * a)
    bs = sigma_k(p, 14, TOL)
    assert bs.lo.size == fibonacci(14) == 610
    win = energy_window(p)
    assert win.lo < bs.lo[0] and bs.hi[-1] < win.hi
    assert TOL * a / 2 < bs.tol <= TOL * a


def test_edge_bracket_error_names_energies_at_the_callers_scale():
    # (1, 40) fails at level 13; at 2^m (1, 40) the bracket named is its
    # bracket times 2^m, inside the caller's window.
    bracket = re.compile(r"edge bracket \(([^,]+), ([^)]+)\)")
    with pytest.raises(RootIsolationError) as exc:
        sigma_k(HoppingPair(1, 40), 13)
    want = [float(x) for x in bracket.search(str(exc.value)).groups()]
    for m in (-40, -5, 7):
        p = HoppingPair(math.ldexp(1.0, m), math.ldexp(40.0, m))
        with pytest.raises(RootIsolationError) as exc:
            sigma_k(p, 13)
        lo, hi = (float(x) for x in bracket.search(str(exc.value)).groups())
        assert (lo, hi) == tuple(math.ldexp(x, m) for x in want)
        win = energy_window(p)
        assert win.lo < lo < hi < win.hi


def test_scales_that_leave_the_normal_range_are_refused():
    # Edges and tol scaled back from a in [1, 2) to 1e-310 would be subnormal.
    for solve in (sigma_k, cover):
        with pytest.raises(ValueError, match=re.escape("normal range of doubles at scale 2^-1030")):
            solve(HoppingPair(1e-310, 2e-310), 5)
    # b / a itself is out of range: b scaled to a in [1, 2) underflows, or
    # overflows, also where a is subnormal.
    for a, b in ((1e300, 1e-300), (1e-300, 1e10), (1e-320, 1.0)):
        message = f"b / a leaves the range of doubles at a = {a!r}, b = {b!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sigma_k(HoppingPair(a, b), 3)
    # tol scaled back overflows while the edges stay finite.
    p = HoppingPair(2.0**1020, 1.5 * 2.0**1020)
    message = f"band edges at a = {p.a!r}, b = {p.b!r} leave the normal range of doubles at scale 2^1020"
    with pytest.raises(ValueError, match=re.escape(message)):
        sigma_k(p, 3, tol=100.0)


def test_root_isolation_error_payload():
    err = RootIsolationError(7, 12, 13, 4096, "grid cap reached")
    assert err.level == 7 and err.found == 12 and err.expected == 13
    assert "12 of 13" in str(err) and "grid cap" in str(err)


def test_sigma1_is_hopping_scaled_interval():
    for p in (P11, P12, HoppingPair(0.7, 1.9)):
        bs = sigma_k(p, 1)
        assert len(bs.bands) == 1
        assert bs.bands[0, 0] == pytest.approx(-2 * p.a, abs=2 * TOL)
        assert bs.bands[0, 1] == pytest.approx(2 * p.a, abs=2 * TOL)


def test_sigma2_closed_form():
    # |x_2| = 1 exactly at E = ±|a−b| and ±(a+b).
    for a, b in ((1.0, 2.0), (1.3, 2.1), (2.0, 0.5)):
        bs = sigma_k(HoppingPair(a, b), 2)
        assert len(bs.bands) == 2
        lo, hi = bs.bands
        assert lo[0] == pytest.approx(-(a + b), abs=2 * TOL)
        assert lo[1] == pytest.approx(-abs(a - b), abs=2 * TOL)
        assert hi[0] == pytest.approx(abs(a - b), abs=2 * TOL)
        assert hi[1] == pytest.approx(a + b, abs=2 * TOL)


def test_sigma3_closed_form_at_1_2():
    r3 = math.sqrt(3.0)
    bs = sigma_k(P12, 3)
    expected = [(-1 - r3, -2.0), (-(r3 - 1), r3 - 1), (2.0, 1 + r3)]
    assert len(bs.bands) == 3
    for (got_lo, got_hi), (lo, hi) in zip(bs.bands, expected):
        assert got_lo == pytest.approx(lo, abs=2 * TOL)
        assert got_hi == pytest.approx(hi, abs=2 * TOL)
    assert lebesgue_measure(bs) == pytest.approx(4 * (r3 - 1), abs=1e-8)


def test_free_case_collapses_to_single_band():
    # At a = b every gap is a tangency; all bands merge into [-2a, 2a].
    for k in (2, 5, 8, 11, 14):
        bs = sigma_k(P11, k)
        assert len(bs.bands) == 1
        assert bs.bands[0, 0] == pytest.approx(-2.0, abs=1e-8)
        assert bs.bands[0, 1] == pytest.approx(2.0, abs=1e-8)
        assert bs.merged_gaps == fibonacci(k) - 1


def test_free_case_is_exact_at_level_20():
    # At a = b, x_k(E) = cos(F_k theta) with E = 2a cos(theta), so sigma_k is
    # [-2a, 2a] at every level, also where a sign grid would need more than
    # GRID_CAP points to resolve the closest zeros.
    bs = sigma_k(P11, 20)
    assert bs.bands.tolist() == [[-2.0, 2.0]]
    assert bs.merged_gaps == fibonacci(20) - 1 == 10945
    assert sigma_k(HoppingPair(3, 3), 7).bands.tolist() == [[-6.0, 6.0]]


@pytest.mark.parametrize(
    "p", [HoppingPair(1e308, 5e307), HoppingPair(1e308, 1e308), HoppingPair(5e307, 7.5e307)]
)
def test_infinite_norm_bound_is_refused_before_any_grid(p, monkeypatch):
    # 2 max(a, b), or the window 4 max(a, b) wide, overflows: a typed error
    # naming the coupling, for b != a and for the a = b closed form, with no
    # warning and no grid point.
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(bands_module, "_container_grid", no_grid)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=re.escape(f"overflows at a = {p.a!r}, b = {p.b!r}")):
            sigma_k(p, 3)


def test_band_count_is_fibonacci_at_coupled_pair():
    for k in range(1, 17):
        bs = sigma_k(P12, k)
        assert len(bs.bands) == fibonacci(k)
        assert bs.merged_gaps == 0


def test_cover_level_one_at_1_2():
    c = cover(P12, 1)
    assert c.kind == "cover" and c.level == 1
    assert len(c.bands) == 1
    assert c.bands[0, 0] == pytest.approx(-3.0, abs=2 * TOL)
    assert c.bands[0, 1] == pytest.approx(3.0, abs=2 * TOL)


def test_cover_contains_bounded_orbit_energy():
    # E = 0 at (1,2) rides a 6-periodic trace orbit, so it is never shed.
    for k in range(1, 21):
        assert cover(P12, k).contains(0.0)


def _inside_single_band(inner: BandSet, outer: BandSet, eps: float) -> bool:
    lo, hi = outer.lo, outer.hi
    for iv_lo, iv_hi in inner.bands:
        j = np.searchsorted(lo, iv_lo + eps, side="right") - 1
        if j < 0 or iv_lo < lo[j] - eps or iv_hi > hi[j] + eps:
            return False
    return True


def test_cover_nesting_three_couplings():
    for ab in ((1, 1.2), (1, 2), (1, 5)):
        p = HoppingPair(*ab)
        covers = [cover(p, k) for k in range(1, 18)]
        for k in range(1, 17):
            assert _inside_single_band(covers[k], covers[k - 1], 1e-8), (ab, k + 1)


def test_measures():
    assert lebesgue_measure(sigma_k(P11, 1)) == pytest.approx(4.0, abs=1e-8)
    assert lebesgue_measure(sigma_k(P12, 2)) == pytest.approx(4.0, abs=1e-8)


def test_cover_measure_nonincreasing_and_decay():
    ms = [lebesgue_measure(cover(P12, k)) for k in range(1, 15)]
    for m1, m2 in zip(ms, ms[1:]):
        assert m2 <= m1 + 1e-12
    assert ms[5] / ms[13] >= 2.0  # k = 6 vs k = 14


def test_dichotomy_on_norm_bound_interval():
    # min(|x_1|, |x_0|) = |E| / (2 max(a,b)) <= 1 exactly on [-2max, 2max].
    for p in (P11, P12, HoppingPair(0.4, 3.0)):
        m = p.norm_bound
        E = np.linspace(-m, m, 4001)
        x1 = trace_value(p, E, 1)
        x0 = trace_value(p, E, 0)
        assert np.all(np.minimum(np.abs(x1), np.abs(x0)) <= 1 + 1e-12)


def test_trace_bound_on_cover_samples():
    c = cover(P12, 12)
    tb = trace_bound(P12)
    samples = []
    for lo, hi in c.bands:
        samples.extend((lo, 0.5 * (lo + hi), hi))
    E = np.array(samples)
    for j in range(2, 13):
        assert np.all(np.abs(trace_value(P12, E, j)) <= tb + 1e-6), j


# Couplings and the deepest level at which every sigma_k and cover is an
# exact mirror image: strong and weak coupling, a > b and a = 0.37.
MIRROR_CASES = ((1.0, 2.0, 10), (1.0, 5.0, 8), (1.0, 1.0001, 16), (1.0, 20.0, 14),
                (2.3, 0.7, 12), (0.37, 1.0, 12), (0.37, 0.5, 12))


def test_bandset_symmetry():
    # sigma_k is solved on E > 0 and mirrored, so lo is exactly -hi reversed,
    # and the cover of two mirror images is one too.
    for a, b, k in MIRROR_CASES:
        p = HoppingPair(a, b)
        chain = sigma_chain(p, k, TOL)
        for bs in (*chain, *(cover(p, j, TOL) for j in range(1, k))):
            assert np.array_equal(bs.lo, -bs.hi[::-1]), (a, b, bs.kind, bs.level)


def test_level_solves_evaluate_only_containers_with_hi_above_zero(monkeypatch):
    # Every energy at which the chain evaluates x_k lies in one of the search
    # containers with hi > 0: the one across E = 0, if any, and those on E > 0.
    solve = bands_module._solve_level
    trace = bands_module.trace_value
    levels = []

    def spy_solve(p, level, clo, chi, target, tol, e):
        levels.append((level, clo[chi > 0.0], chi[chi > 0.0], []))
        return solve(p, level, clo, chi, target, tol, e)

    def spy_trace(p, E, k):
        assert k == levels[-1][0]
        levels[-1][3].append(np.array(E, dtype=float, copy=True).ravel())
        return trace(p, E, k)

    monkeypatch.setattr(bands_module, "_solve_level", spy_solve)
    monkeypatch.setattr(bands_module, "trace_value", spy_trace)
    for a, b, k in ((1.0, 2.27, 16), (1.0, 1.0001, 14), (2.3, 0.7, 12), (1.0, 20.0, 13)):
        _chain.cache_clear()
        sigma_chain(HoppingPair(a, b), k, TOL)
    _chain.cache_clear()
    evaluated = 0
    for level, clo, chi, energies in levels:
        E = np.concatenate(energies)
        c = np.searchsorted(clo, E, side="right") - 1
        assert np.all((c >= 0) & (E <= chi[np.maximum(c, 0)])), level
        evaluated += E.size
    assert len(levels) == 16 + 14 + 12 + 13 and evaluated > 100_000


def test_band_edges_bracket_unit_crossing():
    # Certify each edge in the E domain: |x_k| - 1 flips sign within 2 tol.
    k = 8
    bs = sigma_k(P12, k)
    edges = bs.bands.ravel()
    g_in = np.abs(trace_value(P12, edges - 2 * TOL, k)) - 1.0
    g_out = np.abs(trace_value(P12, edges + 2 * TOL, k)) - 1.0
    assert np.all(np.sign(g_in) != np.sign(g_out))


def test_escape_within_cover_is_bounded_and_far_outside_escapes():
    k = 10
    c = cover(P12, k)
    for lo, hi in c.bands[:: max(1, len(c.bands) // 25)]:
        r = escape_classify(P12, 0.5 * (lo + hi), k)
        assert not r.escaped, (lo, hi)
    # gap midpoints at distance >= 0.1 from every band
    gaps = [
        0.5 * (prev_hi + cur_lo)
        for prev_hi, cur_lo in zip(c.hi[:-1], c.lo[1:])
        if cur_lo - prev_hi >= 0.2
    ]
    assert gaps, "expected at least one wide gap"
    for E in gaps:
        assert escape_classify(P12, E, k).escaped, E


def test_escape_spectrum_free_case():
    esc = escape_spectrum(P11, 20, grid_step=1e-3)
    ref = BandSet([-2.0], [2.0], "escape", 20, P11, 1e-3)
    assert hausdorff_distance(esc, ref) <= 2e-3


def test_escape_spectrum_matches_cover_cross_method():
    step = 1e-3
    esc = escape_spectrum(P12, 20, grid_step=step)
    assert hausdorff_distance(esc, cover(P12, 18)) <= 10 * step


def test_escape_spectrum_never_retains_far_energy():
    esc = escape_spectrum(P12, 20, grid_step=1e-3)
    assert not esc.contains(5.0)
    assert esc.kind == "escape" and esc.level == 20


def test_escape_spectrum_validation():
    with pytest.raises(ValueError):
        escape_spectrum(P12, 20, grid_step=0.5)  # coarser than 1e-3 * width
    for bad in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_step"):
            escape_spectrum(P12, 12, grid_step=bad)
    with pytest.raises(ValueError, match="8e\\+12 cells"):
        escape_spectrum(P12, 12, grid_step=1e-12)
    with pytest.raises(ValueError, match="inf cells"):
        escape_spectrum(HoppingPair(1e307, 2e307), 12, grid_step=1e-3)
    # The window 4 max(a, b) wide overflows: the error sigma_chain gives.
    for p in (HoppingPair(1e308, 5e307), HoppingPair(5e307, 7.5e307)):
        message = f"norm bound 2 max(a, b) overflows at a = {p.a!r}, b = {p.b!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            escape_spectrum(p, 12, grid_step=1e-3)


def test_energy_window_margin():
    w = energy_window(P12)
    assert w.lo == pytest.approx(-4 - 1e-6) and w.hi == pytest.approx(4 + 1e-6)
    assert w.width == pytest.approx(8 + 2e-6)


def test_hausdorff_examples():
    b22 = BandSet([-2], [2], "escape", 1, P11, 1e-3)
    b33 = BandSet([-3], [3], "escape", 1, P11, 1e-3)
    split = BandSet([-3, 1], [-1, 3], "escape", 1, P11, 1e-3)
    assert hausdorff_distance(b22, b22) == 0.0
    assert hausdorff_distance(b22, b33) == pytest.approx(1.0)
    assert hausdorff_distance(b22, split) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hausdorff_distance(b22, BandSet([], [], "escape", 1, P11, 1e-3))


def test_hausdorff_continuity_in_coupling():
    k = 8
    ds = [
        hausdorff_distance(cover(P12, k), cover(HoppingPair(1, 2 + h), k))
        for h in (0.1, 0.01, 0.001)
    ]
    assert ds[0] > ds[1] > ds[2]
    assert ds[2] < 0.01


def test_json_roundtrip():
    bs = sigma_k(P12, 6)
    text = bandset_to_json(bs)
    obj = json.loads(text)
    assert set(obj) == {"a", "b", "kind", "k", "bands", "tol"}
    assert obj["kind"] == "sigma_k" and obj["k"] == 6
    back = bandset_from_json(text)
    assert np.array_equal(back.bands, bs.bands)
    assert back.params == bs.params and back.tol == bs.tol


@pytest.mark.parametrize(
    "bands, message",
    [
        ("[[1.0, 0.5]]", r"invalid interval \(1\.0, 0\.5\)"),
        ("[[-1.0, Infinity]]", r"invalid interval \(-1\.0, inf\)"),
        ("[[0.0, 2.0], [1.0, 3.0]]", r"disjoint and sorted, got \.\.\.2\.0\] then \[1\.0\.\.\."),
        ("[[1.0, 2.0], [-1.0, 0.0]]", "disjoint and sorted"),
    ],
)
def test_json_input_validation(bands, message):
    text = '{"a": 1.0, "b": 2.0, "kind": "sigma_k", "k": 2, "bands": %s, "tol": 1e-10}' % bands
    with pytest.raises(ValueError, match=message):
        bandset_from_json(text)


def test_cached_band_sets_are_read_only():
    bs = sigma_k(P12, 4)
    with pytest.raises(ValueError):
        bs.lo[0] = -1.0
    with pytest.raises(ValueError):
        bs.hi[:] = 0.0
    with pytest.raises(ValueError):
        bs.bands[0, 1] = 0.0
    assert bs.bands.shape == (bs.lo.size, 2)
    assert np.array_equal(bs.bands, np.column_stack((bs.lo, bs.hi)))


def test_merge_matches_loop_reference():
    rng = np.random.default_rng(3)
    for gap in (0.0, 0.05):
        lo = np.round(rng.uniform(0.0, 10.0, 300), 2)
        hi = lo + np.round(rng.exponential(0.05, 300), 2)
        out = []
        joined = 0  # gaps wider than 0 and at most `gap`
        for a, b in sorted(zip(lo.tolist(), hi.tolist()), key=lambda iv: iv[0]):
            if out and a - out[-1][1] <= gap:
                joined += a - out[-1][1] > 0.0
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        mlo, mhi, mjoined = _merge_intervals(lo, hi, gap)
        assert np.column_stack((mlo, mhi)).tolist() == out
        assert mjoined == joined
        assert joined > 0 or gap == 0.0


def test_concurrent_chain_extension():
    p = HoppingPair(1.0, 2.25)
    chains = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: chains.append(sigma_chain(p, 12))) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(chains) == 4
    assert [bs.level for bs in sigma_chain(p, 14)] == list(range(1, 15))
    assert all(c == chains[0] for c in chains)


def _spy_solves(monkeypatch) -> list:
    """The (hoppings, level) of every _solve_level call from now on."""
    solve = bands_module._solve_level
    calls = []

    def spy(p, level, *args):
        calls.append((p, level))
        return solve(p, level, *args)

    monkeypatch.setattr(bands_module, "_solve_level", spy)
    return calls


def _chain_bytes(chain) -> int:
    return sum(bs.lo.nbytes + bs.hi.nbytes + bands_module._LEVEL_BYTES for bs in chain)


def test_chain_cache_is_bounded_by_band_bytes(monkeypatch):
    # 24 deep chains of 1.2 MB each: the cache holds at most _CHAIN_BYTES of
    # them, or the newest chain alone, and the newest is always kept.
    _chain.cache_clear()
    couplings = [HoppingPair(1, 1.9 + 0.05 * i) for i in range(24)]
    for p in couplings:
        sigma_k(p, 22, TOL)
    assert len(_chain) == 1 or _chain.nbytes <= bands_module._CHAIN_BYTES
    assert len(_chain) < 24
    calls = _spy_solves(monkeypatch)
    sigma_k(couplings[-1], 21, TOL)
    assert not calls
    _chain.cache_clear()


def test_chain_over_the_byte_budget_stays_cached_alone(monkeypatch):
    # (1, 2) to level 24 holds about 3.1 MB of bands, more than the budget:
    # the chain just used is never dropped.
    _chain.cache_clear()
    sigma_k(HoppingPair(1, 1.5), 20, TOL)
    chain = sigma_chain(P12, 24, TOL)
    assert _chain.nbytes == _chain_bytes(chain) > bands_module._CHAIN_BYTES
    assert len(_chain) == 1
    calls = _spy_solves(monkeypatch)
    sigma_k(P12, 23, TOL)
    assert not calls
    _chain.cache_clear()


def test_sweep_rounds_keep_every_chain_they_read_again(monkeypatch, tmp_path, capsys):
    # As a sweep round runs them: dimension, cover and bands at one coupling,
    # then six other couplings to level 17, then the first at 2^3 times its
    # hoppings, which reads its chain again and solves nothing.
    _chain.cache_clear()
    out = str(tmp_path / "job.out")
    hop = ["--a", "0.7", "--b", "1.33"]
    for argv in (["dimension", *hop, "--kmax", "16"], ["cover", *hop, "--k", "16"],
                 ["bands", *hop, "--k", "13"]):
        assert main([*argv, "--out", out]) == 0
    for b in (1.2, 1.7, 2.3, 3.1, 4.4, 6.0):
        sigma_k(HoppingPair(1, b), 17, TOL)
    calls = _spy_solves(monkeypatch)
    hop = ["--a", repr(math.ldexp(0.7, 3)), "--b", repr(math.ldexp(1.33, 3))]
    for argv in (["dimension", *hop, "--kmax", "16"], ["cover", *hop, "--k", "16"],
                 ["bands", *hop, "--k", "15"]):
        assert main([*argv, "--out", out]) == 0
    assert not calls
    capsys.readouterr()
    _chain.cache_clear()


def test_chain_cache_drops_the_least_recently_used_chain(monkeypatch):
    # Room for two level-12 chains: reading a's chain again makes b's the
    # oldest, so c's drops b's.
    a, b, c = (HoppingPair(1, x) for x in (1.3, 1.7, 2.9))
    _chain.cache_clear()
    one = _chain_bytes(sigma_chain(a, 12, TOL))
    monkeypatch.setattr(bands_module, "_CHAIN_BYTES", 2 * one + one // 2)
    sigma_k(b, 12, TOL)
    sigma_k(a, 10, TOL)
    sigma_k(c, 12, TOL)
    assert len(_chain) == 2
    calls = _spy_solves(monkeypatch)
    sigma_k(a, 12, TOL)
    assert not calls
    sigma_k(b, 12, TOL)
    assert [k for _, k in calls] == list(range(1, 13))
    _chain.cache_clear()


def test_dropped_chain_is_solved_again_bit_for_bit(monkeypatch):
    _chain.cache_clear()
    p = HoppingPair(1, 2.27)
    first = sigma_chain(p, 22, TOL)
    for b in (1.9, 2.6):  # 1.2 MB each, so p's chain, the oldest, goes
        sigma_k(HoppingPair(1, b), 22, TOL)
    calls = _spy_solves(monkeypatch)
    again = sigma_chain(p, 22, TOL)
    assert [k for _, k in calls] == list(range(1, 23))
    for old, new in zip(first, again, strict=True):
        assert old is not new
        assert old.lo.tobytes() == new.lo.tobytes() and old.hi.tobytes() == new.hi.tobytes()
        assert (old.tol, old.merged_gaps) == (new.tol, new.merged_gaps)
    _chain.cache_clear()


def test_shallow_chains_count_their_levels_against_the_budget(monkeypatch):
    # A level-3 chain takes about 1.65 KB (tracemalloc), 96 bytes of which
    # are edges; counting only the edges would keep 21,845 of them in 2 MiB.
    monkeypatch.setattr(bands_module, "_CHAIN_BYTES", 1 << 16)
    _chain.cache_clear()
    for i in range(100):
        sigma_k(HoppingPair(1, 1.5 + 1e-3 * i), 3, TOL)
    per_chain = 3 * bands_module._LEVEL_BYTES + 96
    assert len(_chain) == (1 << 16) // per_chain
    assert _chain.nbytes == len(_chain) * per_chain
    _chain.cache_clear()


def test_chain_cache_clear_drops_chains_and_bytes():
    sigma_k(P12, 16, TOL)
    assert len(_chain) and _chain.nbytes
    _chain.cache_clear()
    assert len(_chain) == 0 and _chain.nbytes == 0
    chain = sigma_chain(HoppingPair(1, 3), 12, TOL)
    assert _chain.nbytes == _chain_bytes(chain)
    _chain.cache_clear()


def test_band_outputs_leave_no_uncounted_arrays_in_the_chain_cache(tmp_path):
    # At a in [1, 2) the bands output writes a cached band set itself; its
    # (n, 2) rows must not stay on it, where nbytes does not count them.
    _chain.cache_clear()
    argv = ["bands", "--a", "1.5", "--b", "3.0", "--k", "12", "--out", str(tmp_path / "b.json")]
    assert main(argv) == 0
    (chain,) = _chain._chains.values()
    for bs in chain:
        arrays = [name for name, v in vars(bs).items() if isinstance(v, np.ndarray)]
        assert arrays == ["lo", "hi"], bs.level
    assert _chain.nbytes == _chain_bytes(chain)
    _chain.cache_clear()


def test_level_that_raises_still_trims_the_chain_cache(monkeypatch):
    # (1, 40) raises at level 13.  The trim runs anyway: it drops the (1, 2)
    # chain over the budget and keeps (1, 40)'s levels 1-12.
    _chain.cache_clear()
    sigma_chain(P12, 24, TOL)
    p = HoppingPair(1, 40)
    with pytest.raises(RootIsolationError, match="level 13: "):
        sigma_k(p, 13, TOL)
    assert len(_chain) == 1 and _chain.nbytes <= bands_module._CHAIN_BYTES
    calls = _spy_solves(monkeypatch)
    sigma_k(p, 12, TOL)
    assert not calls
    assert _chain.nbytes == _chain_bytes(sigma_chain(p, 12, TOL))
    _chain.cache_clear()


def test_container_grid_matches_linspace():
    rng = np.random.default_rng(7)
    lo = np.sort(rng.uniform(-4.0, 4.0, 40))
    hi = lo + rng.uniform(1e-9, 0.3, 40)
    hi[17] = lo[17] + 2 * MERGE_FACTOR * TOL
    counts = rng.integers(9, 200, 40)
    grid = _container_grid(lo, hi, counts)
    ref = np.concatenate([np.linspace(a, b, n) for a, b, n in zip(lo, hi, counts)])
    assert grid.tobytes() == ref.tobytes()
    assert np.array_equal(grid[np.cumsum(counts) - 1], hi)


def test_bracket_pairs_are_adjacent_points_of_the_last_grid(monkeypatch):
    # Each zero's three bracket pairs (zero, lower edge, upper edge) are two
    # adjacent points, bit for bit, of its container's np.linspace grid on
    # the last sign grid, also where regrids at (1, 1.00005) doubled some
    # containers' point counts and kept the others'.
    levels = _spy_sign_grids(monkeypatch)
    locate = bands_module._locate_zeros
    calls = []

    def spy(p, level, clo, chi, target, weight):
        out = locate(p, level, clo, chi, target, weight)
        calls.append((chi, out[0], out[1], out[-1]))
        return out

    monkeypatch.setattr(bands_module, "_locate_zeros", spy)
    for p, k in ((HoppingPair(1.0, 1.00005), 17), (P12, 12)):
        _chain.cache_clear()
        sigma_chain(p, k, TOL)
    _chain.cache_clear()
    partial = 0
    for (p, level, clo, *_, grids), (chi, cid, pairs, n_pts) in zip(levels, calls, strict=True):
        for (_, old, _), (lo, counts, _) in zip(grids, grids[1:]):
            doubled = counts == 2 * old
            assert np.array_equal(lo, clo) and np.all(doubled | (counts == old)), (p, level)
            partial += not doubled.all()
        points = grids[-1][1]
        assert n_pts == points.sum(), (p, level)
        grid = np.concatenate([np.linspace(a, b, n) for a, b, n in zip(clo, chi, points)])
        start = np.cumsum(points) - points
        for r in (0, 2, 4):
            j = np.searchsorted(grid, pairs[r])
            assert np.all((start[cid] <= j) & (j + 1 < start[cid] + points[cid])), (p, level, r)
            assert grid[j].tobytes() == pairs[r].tobytes(), (p, level, r)
            assert grid[j + 1].tobytes() == pairs[r + 1].tobytes(), (p, level, r)
    assert partial >= 10, partial


def test_deterministic_recompute():
    first = sigma_k(P12, 10)
    _chain.cache_clear()
    second = sigma_k(P12, 10)
    assert np.array_equal(first.bands, second.bands)
    assert first.merged_gaps == second.merged_gaps


def test_sigma_chain_shape():
    chain = sigma_chain(P12, 6)
    assert [bs.level for bs in chain] == [1, 2, 3, 4, 5, 6]
    assert all(bs.kind == "sigma_k" for bs in chain)


def test_gap_search_early_exit_keeps_every_decision(monkeypatch):
    # Each same-container gap search of _solve_level also runs the full
    # search (above=inf).  The open/closed decision must agree; a bracket that
    # exits early keeps a probe strictly between its zeros with |x| > 1 + slack,
    # and one that does not returns the full search's bits.
    seen = {"early": 0, "full": 0}

    def spy(p, level, lo, hi, width, above):
        pos, val = _golden_max_abs(p, level, lo, hi, width, above)
        full_pos, full_val = _golden_max_abs(p, level, lo, hi, width, math.inf)
        assert above == 1.0 + max(TOL, 1e3 * np.finfo(float).eps * fibonacci(level))
        np.testing.assert_array_equal(val <= above, full_val <= above)
        early = val > above
        assert np.all((lo[early] < pos[early]) & (pos[early] < hi[early]))
        assert np.array_equal(val[early], np.abs(trace_value(p, pos[early], level)))
        assert pos[~early].tobytes() == full_pos[~early].tobytes()
        assert val[~early].tobytes() == full_val[~early].tobytes()
        seen["early"] += int(early.sum())
        seen["full"] += int((~early).sum())
        return pos, val

    monkeypatch.setattr("fibjacobi.bands._golden_max_abs", spy)
    _chain.cache_clear()
    # Up to level 14 every gap at b/a >= 1.0001 exits early; at b/a = 1.00001
    # the peak search closes gaps, which runs the full search.
    for ratio in (1.0001, 1.05, 1.2, 2.0, 4.7, 20.0):
        sigma_chain(HoppingPair(1.0, ratio), 14, TOL)
    assert seen["full"] == 0
    sigma_chain(P_CLOSING, 14, TOL)
    _chain.cache_clear()
    assert seen["early"] > 0 and seen["full"] > 0


def test_golden_max_abs_takes_one_step_on_narrow_brackets():
    # Brackets no wider than width, one of them of zero width, where the
    # step count log(width / span) / log(1 / phi) would divide by zero: one
    # golden step, a midpoint inside each bracket, |x_level| there, and the
    # zero-width bracket's only point.
    lo = np.array([-2.1, -0.3, 0.0, 1.7])
    hi = lo + np.array([1e-9, 4e-10, 0.0, 1e-12])
    for above in (math.inf, 1.0):
        pos, val = _golden_max_abs(P12, 9, lo, hi, 1e-9, above)
        assert np.all((lo <= pos) & (pos <= hi))
        assert pos[2] == 0.0
        assert val.tobytes() == np.abs(trace_value(P12, pos, 9)).tobytes()
    pos, val = _golden_max_abs(P12, 9, np.array([0.5]), np.array([0.5]), 0.0, math.inf)
    assert (pos.tolist(), val.tolist()) == ([0.5], np.abs(trace_value(P12, np.array([0.5]), 9)).tolist())


# The couplings and deepest levels pinned in tests/golden/bands.json; at
# b/a = 40 level 13 raises RootIsolationError either way.
GOLDEN_COUPLINGS = ((1.0, 2.0, 16), (1.0, 1.0001, 14), (0.5, 7.3, 12), (1.0, 1.0, 8),
                    (0.3, 0.31, 15), (1.0, 40.0, 12))


def test_gap_search_early_exit_edge_bound(monkeypatch):
    # Ending the edge brackets at the early-exit probe instead of the peak
    # moves each band edge by at most tol / 2 (both bisections end within
    # tol / 4 of the same root) and changes no band count or merge.
    def full_search(p, level, lo, hi, width, above):
        return _golden_max_abs(p, level, lo, hi, width, math.inf)

    for a, b, k in GOLDEN_COUPLINGS:
        p = HoppingPair(a, b)
        _chain.cache_clear()
        early = sigma_chain(p, k, TOL)
        with monkeypatch.context() as m:
            m.setattr("fibjacobi.bands._golden_max_abs", full_search)
            _chain.cache_clear()
            full = sigma_chain(p, k, TOL)
        _chain.cache_clear()
        for e, f in zip(early, full):
            assert (e.lo.size, e.merged_gaps) == (f.lo.size, f.merged_gaps), (a, b, e.level)
            assert np.abs(e.lo - f.lo).max() <= TOL / 2, (a, b, e.level)
            assert np.abs(e.hi - f.hi).max() <= TOL / 2, (a, b, e.level)


def test_cover_counts_its_merges():
    # At (1, 20), sigma_13 union sigma_14 has two gaps about 6.5e-10 wide near
    # E = 0 (gap labels +-305), which the cover closes at MERGE_FACTOR * tol.
    c = cover(HoppingPair(1, 20), 13)
    assert (c.lo.size, c.merged_gaps) == (753, 2)
    assert "merged_gaps" not in json.loads(bandset_to_json(c))
    # Without merges the count is 0.
    assert cover(P12, 14).merged_gaps == 0


def _floquet_bands(p: HoppingPair, k: int, tol: float):
    """sigma_k from one F_k period with periodic and antiperiodic corners.

    The band edges of the F_k-periodic operator are the eigenvalues of the
    two Floquet matrices, sorted and paired (van Moerbeke 1976).  No bands
    are joined: at b != a every gap is open, and the solver keeps it.
    """
    h = np.array([p.a if ch == "a" else p.b for ch in fib_prefix(k)])
    site = np.arange(h.size)
    eig = []
    for corner in (1.0, -1.0):
        bond = h.copy()
        bond[-1] *= corner
        m = np.zeros((h.size, h.size))
        np.add.at(m, (site, (site + 1) % h.size), bond)
        np.add.at(m, ((site + 1) % h.size, site), bond)
        eig.append(np.linalg.eigvalsh(m))
    e = np.sort(np.concatenate(eig))
    return BandSet(e[0::2], e[1::2], "sigma_k", k, p, tol)


# b/a over the supported range, and the level where the chain stops with
# RootIsolationError (None: it reaches level 14).
FLOQUET_RATIOS = ((1.0001, None), (1.05, None), (1.3, None), (2.0, None), (3.3, None),
                  (4.7, None), (9.0, None), (20.0, None), (40.0, 13), (100.0, 11))


@pytest.mark.parametrize("ratio, failing", FLOQUET_RATIOS)
def test_bands_match_floquet_oracle(ratio, failing):
    p = HoppingPair(1.0, ratio)
    for k in range(1, 15):
        if k == failing:
            with pytest.raises(RootIsolationError, match=f"level {k}: "):
                sigma_k(p, k, TOL)
            return
        got = sigma_k(p, k, TOL)
        want = _floquet_bands(p, k, TOL)
        assert got.lo.size == want.lo.size == fibonacci(k), (ratio, k)
        assert hausdorff_distance(got, want) <= TOL, (ratio, k)
    assert failing is None


def test_edge_brackets_are_certified(monkeypatch):
    # Every edge bracket passed to _refine_edges has |x_k| > 1 at its outer
    # end (in the gap) and |x_k| <= 1 at its inner end, which lies in the band
    # the refinement returns: lower edges are [outer, inner], upper edges
    # [inner, outer].  At (1, 2.27) the sign grid brackets almost every edge,
    # so zero bisection (_batch_bisect outside _refine_edges) runs on few bands.
    # Only the containers with hi > 0 are solved, from the lowest of them up.
    calls = []
    solve = bands_module._solve_level
    bisect = bands_module._batch_bisect
    refine = bands_module._refine_edges
    refining = []

    def spy_solve(p, level, clo, chi, target, tol, e):
        calls.append((p, level, clo[chi > 0.0].min(), []))
        return solve(p, level, clo, chi, target, tol, e)

    def spy_bisect(fn, lo, hi, tol, f_lo, width=None):
        roots = bisect(fn, lo, hi, tol, f_lo, width)
        if not refining:
            calls[-1][3].append((lo.copy(), hi.copy(), roots))
        return roots

    def spy_refine(fn, lo, hi, f_lo, f_hi, tol):
        refining.append(True)
        try:
            roots = refine(fn, lo, hi, f_lo, f_hi, tol)
        finally:
            refining.pop()
        calls[-1][3].append((lo.copy(), hi.copy(), roots))
        return roots

    monkeypatch.setattr(bands_module, "_solve_level", spy_solve)
    monkeypatch.setattr(bands_module, "_batch_bisect", spy_bisect)
    monkeypatch.setattr(bands_module, "_refine_edges", spy_refine)
    chains = {}
    for ratio, k in ((1.2, 16), (2.27, 18), (4.7, 16), (20.0, 13)):
        _chain.cache_clear()
        chains[ratio] = sigma_chain(HoppingPair(1.0, ratio), k, TOL)
    _chain.cache_clear()
    checked = 0
    for p, level, lowest, bisections in calls:
        *zeros, (lo, hi, edges) = bisections
        assert len(zeros) <= 1
        n_bands = lo.size // 2  # before the merge at MERGE_FACTOR * tol
        x_lo = np.abs(trace_value(p, lo, level))
        x_hi = np.abs(trace_value(p, hi, level))
        lower = np.arange(lo.size) < n_bands
        assert np.all(np.where(lower, x_lo, x_hi) > 1.0), (p, level)
        assert np.all(np.where(lower, x_hi, x_lo) <= 1.0), (p, level)
        inner = np.where(lower, hi, lo).reshape(2, -1)
        band_lo, band_hi = edges.reshape(2, -1)
        # Each edge lies within tol / 4 of its crossing.
        assert np.all((band_lo - TOL / 4 <= inner) & (inner <= band_hi + TOL / 4)), (p, level)
        checked += lo.size
        if (p.b, level) == (2.27, 18):
            # Every band of sigma_18 from the lowest solved container up: the
            # positive half of F_18 and those the container across E = 0 holds.
            assert n_bands == np.count_nonzero(chains[2.27][17].lo >= lowest) < 0.51 * fibonacci(18)
            assert sum(z[0].size for z in zeros) < 0.1 * n_bands
    assert checked > 20_000


@pytest.mark.parametrize("b, k", [(17.526029525603104, 15), (14.779689717591916, 16)])
def test_least_abs_x_point_brackets_narrow_band_edges(b, k):
    # At these couplings a band of sigma_k is narrower than the grid step and
    # its refined zero falls outside it, so the zero bisection's point of
    # least |x| is the inner end of its edge brackets (without it, the level
    # raises RootIsolationError).  Every edge lies within tol of a crossing
    # of |x_k| = 1.
    p = HoppingPair(1.0, b)
    bs = sigma_k(p, k, TOL)
    assert bs.lo.size == fibonacci(k)
    edges = np.concatenate((bs.lo, bs.hi))
    scan = edges[:, None] + np.linspace(-TOL, TOL, 2001)
    g = np.abs(trace_value(p, scan, k)) - 1.0
    assert np.all((g.min(axis=1) <= 0.0) & (g.max(axis=1) > 0.0))


def test_edge_bracket_error_counts_grid_points():
    # The error counts zeros over the whole line and names the sign-grid
    # points evaluated: _PER_ZERO per zero plus one per container, over the
    # 145 containers with hi > 0, which hold 189 zeros (377 counted with
    # their mirrors), not the number of edge brackets (2 * 189).
    with pytest.raises(RootIsolationError, match="no sign change") as exc:
        sigma_k(HoppingPair(1, 40), 13)
    err = exc.value
    assert (err.level, err.found, err.expected, err.points) == (13, 377, 377, 8 * 189 + 145)
    assert "isolated 377 of 377 trace zeros using 1657 grid points" in str(err)


def test_regula_falsi_points_stay_inside_their_brackets():
    # In this bracket |x_3| - 1 is -1.04e-14 at the lower end and 3.87 at the
    # upper one, so the first regula falsi point rounds to one ulp below the
    # lower end, where |x_3| - 1 is positive again.  Taken as it is, the
    # tol / 4 test certifies that crossing, the band's lower edge.  Batches
    # above _BISECT_MAX take falsi steps; they must find the upper edge
    # that bisecting one copy finds.
    p = HoppingPair(0.23993068122206987, 5.550792379413606)
    fn = lambda E: np.abs(trace_value(p, E, 3)) - 1.0
    lo = np.full(_BISECT_MAX + 1, 5.550792379413606)
    hi = np.full(_BISECT_MAX + 1, 5.6107750463)
    roots = bands_module._refine_edges(fn, lo, hi, fn(lo), fn(hi), TOL)
    want = _batch_bisect(fn, lo[:1], hi[:1], TOL, fn(lo[:1]))
    assert want[0] == pytest.approx(5.571457253667, abs=1e-11)
    assert np.abs(roots - want).max() <= TOL / 2


def _x_zeros(p: HoppingPair, k: int) -> np.ndarray:
    """The F_k zeros of x_k: eigenvalues of one F_k period with corner phase i.

    The Floquet discriminant of the period is 2 x_k, and phase theta gives
    the energies where it equals 2 cos theta.
    """
    h = np.array([p.a if ch == "a" else p.b for ch in fib_prefix(k)], dtype=complex)
    site = np.arange(h.size)
    h[-1] *= 1j
    m = np.zeros((h.size, h.size), dtype=complex)
    m[site, (site + 1) % h.size] += h
    m[(site + 1) % h.size, site] += h.conj()
    return np.linalg.eigvalsh(m)


# b/a and the deepest level; at b/a = 20 and 40 the chain stops at levels 15 and 13.
COUNT_RATIOS = ((1.0001, 16), (1.05, 16), (1.3, 16), (2.0, 16), (4.0, 16), (9.0, 16),
                (20.0, 14), (40.0, 12))


@pytest.mark.parametrize("ratio, k_max", COUNT_RATIOS)
def test_containers_hold_the_zeros_of_both_parent_levels(ratio, k_max):
    # Each band of sigma_k holds one zero of x_k, so each search container of
    # level k, a merged band of sigma_{k-1} union sigma_{k-2}, holds as many
    # bands of sigma_k as of sigma_{k-1} and sigma_{k-2} together; the parent
    # counts are _locate_zeros's targets.
    p = HoppingPair(1.0, ratio)
    _chain.cache_clear()
    chain = sigma_chain(p, k_max, TOL)
    _chain.cache_clear()
    for k in range(1, k_max + 1):
        assert chain[k - 1].lo.size == fibonacci(k), k
    inflate = MERGE_FACTOR * TOL
    for k in range(3, k_max + 1):
        parents = chain[k - 2], chain[k - 3]
        clo, chi, _ = _merge_intervals(np.concatenate([bs.lo for bs in parents]) - inflate,
                                       np.concatenate([bs.hi for bs in parents]) + inflate, 0.0)

        def per_container(j):
            c = np.searchsorted(clo, chain[j - 1].lo, side="right") - 1
            assert np.all((c >= 0) & (chain[j - 1].hi <= chi[c])), (ratio, k, j)
            return np.bincount(c, minlength=clo.size)

        assert np.array_equal(per_container(k), per_container(k - 1) + per_container(k - 2)), k
    # One zero per band against the zeros themselves, at level 12.
    bs = chain[11]
    zeros = _x_zeros(p, 12)
    band = np.searchsorted(bs.lo, zeros, side="right") - 1
    assert np.all(zeros <= bs.hi[band])
    assert np.array_equal(band, np.arange(fibonacci(12)))
    if ratio == 1.0001:
        # Two gaps of sigma_16 are narrower than 1e-9, the distance at which
        # sigma_k once joined bands; each holds a point with |x_16| > 1 + slack.
        bs = chain[15]
        gaps = np.flatnonzero(bs.lo[1:] - bs.hi[:-1] < 1e-9)
        assert gaps.size == 2
        above = 1.0 + max(TOL, 1e3 * np.finfo(float).eps * fibonacci(16))
        for i in gaps:
            E = np.linspace(bs.hi[i], bs.lo[i + 1], 101)[1:-1]
            assert np.abs(trace_value(p, E, 16)).max() > above, i


def _spy_sign_grids(monkeypatch):
    """Record each level's (p, level, containers, targets, weights) and its full sign grids."""
    levels = []
    locate = bands_module._locate_zeros
    grid = bands_module._container_grid

    def spy_locate(p, level, clo, chi, target, weight):
        levels.append((p, level, clo, target, weight, []))
        return locate(p, level, clo, chi, target, weight)

    def spy_grid(lo, hi, counts):
        E = grid(lo, hi, counts)
        levels[-1][5].append((lo, counts, E))
        return E

    monkeypatch.setattr(bands_module, "_locate_zeros", spy_locate)
    monkeypatch.setattr(bands_module, "_container_grid", spy_grid)
    return levels


def _sign_changes(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sign changes of x on each container's stretch of a concatenated grid."""
    ends = np.cumsum(counts)
    return np.array([np.count_nonzero(np.diff(x[e - n : e] >= 0.0)) for e, n in zip(ends, counts)])


def _assert_same_bands(got, want):
    for g, w in zip(got, want):
        assert (g.lo.size, g.merged_gaps) == (w.lo.size, w.merged_gaps), g.level
        assert np.abs(g.lo - w.lo).max() <= TOL / 2, g.level
        assert np.abs(g.hi - w.hi).max() <= TOL / 2, g.level


def test_short_containers_are_gridded_again_alone(monkeypatch):
    # At 2 points per target zero some containers come up short.  Only they
    # double their point counts on the next whole grid, the others keep
    # theirs, and the band sets agree with the default allotment's.
    cases = ((1.3, 16), (1.05, 14))
    want = {}
    for ratio, k in cases:
        _chain.cache_clear()
        want[ratio] = sigma_chain(HoppingPair(1.0, ratio), k, TOL)
    monkeypatch.setattr(bands_module, "_PER_ZERO", 2)
    levels = _spy_sign_grids(monkeypatch)
    for ratio, k in cases:
        _chain.cache_clear()
        _assert_same_bands(sigma_chain(HoppingPair(1.0, ratio), k, TOL), want[ratio])
    _chain.cache_clear()
    regridded = 0
    for p, level, clo, target, weight, grids in levels:
        (lo, counts, E), *again = grids
        assert np.array_equal(lo, clo) and np.array_equal(counts, 2 * target + 1)
        found = _sign_changes(trace_value(p, E, level), counts)
        for lo, new, E in again:
            short = found < target
            assert np.array_equal(lo, clo) and short.any(), (p, level)
            assert np.array_equal(new, np.where(short, 2 * counts, counts)), (p, level)
            counts = new
            found = _sign_changes(trace_value(p, E, level), counts)
            regridded += 1
        assert weight @ found == fibonacci(level) and np.array_equal(found, target)
    assert regridded >= 20


def _first_grid_changes(p, level, clo, chi, target):
    """Sign changes per container on _locate_zeros's first grid for these targets."""
    counts = bands_module._PER_ZERO * target + 1
    return _sign_changes(trace_value(p, _container_grid(clo, chi, counts), level), counts)


def _stall(p, level, clo, chi, target, weight):
    # A short container's target lowered to what its grid then finds, the
    # missing zeros added to its neighbour: no count exceeds its target, the
    # neighbour is short for good and the short container is never doubled.
    found = _first_grid_changes(p, level, clo, chi, target)
    for b in np.flatnonzero(found < target):
        for m in range(1, target[b]):
            wrong = target.copy()
            wrong[b] = m
            wrong[b - 1] += target[b] - m
            if _first_grid_changes(p, level, clo, chi, wrong)[b] == m:
                return wrong
    return None


def test_regrids_double_the_short_containers_or_every_container(monkeypatch):
    # At (1, 1.00005) the peak search closes gaps, so some targets fall short
    # of their containers' zero counts: counts exceed targets on some grids,
    # and a grid on which no container is short doubles every container's
    # point count.  Every other regrid doubles exactly the counts of the
    # containers short of their target.  sigma_19 and sigma_20 keep their
    # closed gaps.
    p = HoppingPair(1.0, 1.00005)
    levels = _spy_sign_grids(monkeypatch)
    _chain.cache_clear()
    chain = sigma_chain(p, 20, TOL)
    _chain.cache_clear()
    over = every = 0
    for p, level, clo, target, weight, grids in levels:
        (lo, counts, E), *again = grids
        found = _sign_changes(trace_value(p, E, level), counts)
        for lo, new, E in again:
            assert np.array_equal(lo, clo), level
            over += bool((found > target).any())
            short = found < target
            every += not short.any()
            doubled = short if short.any() else np.ones_like(short)
            assert np.array_equal(new, np.where(doubled, 2 * counts, counts)), level
            counts = new
            found = _sign_changes(trace_value(p, E, level), counts)
        assert weight @ found == fibonacci(level)
    assert over >= 4 and every >= 4, (over, every)
    assert [fibonacci(k) - chain[k - 1].lo.size for k in (19, 20)] == [1818, 5373]


def test_target_above_a_zero_count_ends_in_a_typed_error(monkeypatch):
    # Suto's containment keeps every target within its container's zero
    # count.  A target raised above it, beside one lowered to what its first
    # grid finds, leaves the raised container short for good: it alone
    # doubles until the grid cap, a typed error and not a hang.
    monkeypatch.setattr(bands_module, "_PER_ZERO", 2)
    monkeypatch.setattr(bands_module, "GRID_CAP", 1 << 16)
    locate = bands_module._locate_zeros
    changed = []

    def wrong(p, level, clo, chi, target, weight):
        bad = _stall(p, level, clo, chi, target, weight) if clo.size > 1 else None
        if bad is not None:
            changed.append(level)
            target = bad
        return locate(p, level, clo, chi, target, weight)

    monkeypatch.setattr(bands_module, "_locate_zeros", wrong)
    _chain.cache_clear()
    with pytest.raises(RootIsolationError, match="grid cap reached") as exc:
        sigma_k(HoppingPair(1.0, 1.3), 14, TOL)
    _chain.cache_clear()
    assert exc.value.level == changed[0]
    assert exc.value.found < exc.value.expected and exc.value.points > 1 << 16


def test_more_sign_changes_than_zeros_is_a_typed_error(monkeypatch):
    # No container shows more sign changes than it holds zeros, so a first
    # grid whose weighted count exceeds F_level ends in a typed error at
    # once, not in a regrid.  Traces of alternating sign at one level give
    # a sign change between every two adjacent points of a container.
    level = 8
    real = bands_module.trace_value

    def alternating(p, E, k):
        x = real(p, E, k)
        return np.where(np.arange(x.size) % 2, 1.0, -1.0) if k == level and np.ndim(x) else x

    levels = _spy_sign_grids(monkeypatch)
    monkeypatch.setattr(bands_module, "trace_value", alternating)
    _chain.cache_clear()
    with pytest.raises(RootIsolationError, match="more sign changes than zeros exist") as exc:
        sigma_k(P12, level)
    _chain.cache_clear()
    _, at, _, _, weight, grids = levels[-1]
    ((_, counts, _),) = grids
    err = exc.value
    assert (err.level, err.expected, err.points) == (at, fibonacci(level), counts.sum())
    assert at == level and err.found == weight @ (counts - 1) > err.expected


def test_sign_grid_stays_within_its_allotment(monkeypatch):
    # With targets that hold, no level's final sign grid has more than
    # _PER_ZERO + 1 points per zero its containers hold, so a return to global
    # doubling (or to an allotment by length) fails here, not only in the
    # benchmark.  The targets sum to F_k with those of the containers on
    # E > 0 counted twice, for their mirror images.
    sizes = []
    locate = bands_module._locate_zeros

    def spy(p, level, clo, chi, target, weight):
        out = locate(p, level, clo, chi, target, weight)
        assert weight @ target == fibonacci(level), (p.b, level)
        sizes.append((p.b, level, int(target.sum()), out[-1]))
        return out

    monkeypatch.setattr(bands_module, "_locate_zeros", spy)
    for ratio in (2.0, 1.3):
        _chain.cache_clear()
        sigma_chain(HoppingPair(1.0, ratio), 20, TOL)
    _chain.cache_clear()
    assert len(sizes) == 40
    for b, level, zeros, n in sizes:
        assert n <= (bands_module._PER_ZERO + 1) * zeros, (b, level, n)


def test_grid_cap_error_counts_the_last_grid(monkeypatch):
    # The error names the weighted sign changes on the last grid evaluated,
    # and 0 where the cap stops the first grid.
    levels = _spy_sign_grids(monkeypatch)
    monkeypatch.setattr(bands_module, "GRID_CAP", 200)
    _chain.cache_clear()
    with pytest.raises(RootIsolationError, match="grid cap reached") as exc:
        sigma_k(P_CLOSING, 12)
    p, level, clo, target, weight, grids = levels[-1]
    lo, counts, E = grids[-1]
    assert clo.size == lo.size == 1
    found = int(weight @ _sign_changes(trace_value(p, E, level), counts))
    err = exc.value
    assert (err.level, err.found, err.points) == (level, found, 2 * counts.sum())
    assert 0 < err.found < err.expected == fibonacci(level) and err.points > 200
    monkeypatch.setattr(bands_module, "GRID_CAP", 8)
    _chain.cache_clear()
    with pytest.raises(RootIsolationError, match="isolated 0 of 1 trace zeros using 9 grid"):
        sigma_k(P_CLOSING, 5)
    _chain.cache_clear()
