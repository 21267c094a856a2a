"""Band-set solver tests: closed forms, nesting, measures, escape sweeps."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from fibjacobi.bands import (
    BandSet,
    EnergyWindow,
    Interval,
    MERGE_FACTOR,
    RootIsolationError,
    _container_grid,
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
from fibjacobi.tracemap import HoppingPair, escape_classify, trace_bound, trace_value
from fibjacobi.words import fibonacci

P11 = HoppingPair(1, 1)
P12 = HoppingPair(1, 2)
TOL = 1e-10


def test_interval_and_bandset_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
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


def test_root_isolation_error_payload():
    err = RootIsolationError(7, 12, 13, 4096, "grid cap reached")
    assert err.level == 7 and err.found == 12 and err.expected == 13
    assert "12 of 13" in str(err) and "grid cap" in str(err)


def test_sigma1_is_hopping_scaled_interval():
    for p in (P11, P12, HoppingPair(0.7, 1.9)):
        bs = sigma_k(p, 1)
        assert len(bs.bands) == 1
        assert bs.bands[0].lo == pytest.approx(-2 * p.a, abs=2 * TOL)
        assert bs.bands[0].hi == pytest.approx(2 * p.a, abs=2 * TOL)


def test_sigma2_closed_form():
    # |x_2| = 1 exactly at E = ±|a−b| and ±(a+b).
    for a, b in ((1.0, 2.0), (1.3, 2.1), (2.0, 0.5)):
        bs = sigma_k(HoppingPair(a, b), 2)
        assert len(bs.bands) == 2
        lo, hi = bs.bands
        assert lo.lo == pytest.approx(-(a + b), abs=2 * TOL)
        assert lo.hi == pytest.approx(-abs(a - b), abs=2 * TOL)
        assert hi.lo == pytest.approx(abs(a - b), abs=2 * TOL)
        assert hi.hi == pytest.approx(a + b, abs=2 * TOL)


def test_sigma3_closed_form_at_1_2():
    r3 = math.sqrt(3.0)
    bs = sigma_k(P12, 3)
    expected = [(-1 - r3, -2.0), (-(r3 - 1), r3 - 1), (2.0, 1 + r3)]
    assert len(bs.bands) == 3
    for iv, (lo, hi) in zip(bs.bands, expected):
        assert iv.lo == pytest.approx(lo, abs=2 * TOL)
        assert iv.hi == pytest.approx(hi, abs=2 * TOL)
    assert lebesgue_measure(bs) == pytest.approx(4 * (r3 - 1), abs=1e-8)


def test_free_case_collapses_to_single_band():
    # At a = b every gap is a tangency; all bands merge into [-2a, 2a].
    for k in (2, 5, 8, 11, 14):
        bs = sigma_k(P11, k)
        assert len(bs.bands) == 1
        assert bs.bands[0].lo == pytest.approx(-2.0, abs=1e-8)
        assert bs.bands[0].hi == pytest.approx(2.0, abs=1e-8)
        assert bs.merged_gaps == fibonacci(k) - 1


def test_band_count_is_fibonacci_at_coupled_pair():
    for k in range(1, 17):
        bs = sigma_k(P12, k)
        assert len(bs.bands) == fibonacci(k)
        assert bs.merged_gaps == 0


def test_cover_level_one_at_1_2():
    c = cover(P12, 1)
    assert c.kind == "cover" and c.level == 1
    assert len(c.bands) == 1
    assert c.bands[0].lo == pytest.approx(-3.0, abs=2 * TOL)
    assert c.bands[0].hi == pytest.approx(3.0, abs=2 * TOL)


def test_cover_contains_bounded_orbit_energy():
    # E = 0 at (1,2) rides a 6-periodic trace orbit, so it is never shed.
    for k in range(1, 21):
        assert cover(P12, k).contains(0.0)


def _inside_single_band(inner: BandSet, outer: BandSet, eps: float) -> bool:
    lo = np.array([iv.lo for iv in outer.bands])
    hi = np.array([iv.hi for iv in outer.bands])
    for iv in inner.bands:
        j = np.searchsorted(lo, iv.lo + eps, side="right") - 1
        if j < 0 or iv.lo < lo[j] - eps or iv.hi > hi[j] + eps:
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
    for iv in c.bands:
        samples.extend((iv.lo, 0.5 * (iv.lo + iv.hi), iv.hi))
    E = np.array(samples)
    for j in range(2, 13):
        assert np.all(np.abs(trace_value(P12, E, j)) <= tb + 1e-6), j


def test_bandset_symmetry():
    for bs in (sigma_k(P12, 9), cover(P12, 9), sigma_k(HoppingPair(1, 5), 7)):
        n = len(bs.bands)
        for i in range(n):
            assert bs.bands[i].lo == pytest.approx(-bs.bands[n - 1 - i].hi, abs=4 * TOL)
            assert bs.bands[i].hi == pytest.approx(-bs.bands[n - 1 - i].lo, abs=4 * TOL)


def test_band_edges_bracket_unit_crossing():
    # Certify each edge in the E domain: |x_k| - 1 flips sign within 2 tol.
    k = 8
    bs = sigma_k(P12, k)
    edges = np.array(bs.edges())
    g_in = np.abs(trace_value(P12, edges - 2 * TOL, k)) - 1.0
    g_out = np.abs(trace_value(P12, edges + 2 * TOL, k)) - 1.0
    assert np.all(np.sign(g_in) != np.sign(g_out))


def test_escape_within_cover_is_bounded_and_far_outside_escapes():
    k = 10
    c = cover(P12, k)
    for iv in c.bands[:: max(1, len(c.bands) // 25)]:
        r = escape_classify(P12, 0.5 * (iv.lo + iv.hi), k)
        assert not r.escaped, iv
    # gap midpoints at distance >= 0.1 from every band
    gaps = [
        0.5 * (prev.hi + cur.lo)
        for prev, cur in zip(c.bands, c.bands[1:])
        if cur.lo - prev.hi >= 0.2
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
    with pytest.raises(ValueError):
        escape_spectrum(P12, 20, grid_step=1e-3, window=EnergyWindow(-1.0, 1.0))
    for bad in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_step"):
            escape_spectrum(P12, 12, grid_step=bad)


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
    assert back.bands == bs.bands
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


def test_merge_matches_loop_reference():
    rng = np.random.default_rng(3)
    for gap in (0.0, 0.05):
        lo = np.round(rng.uniform(0.0, 10.0, 300), 2)
        hi = lo + np.round(rng.exponential(0.05, 300), 2)
        out = []
        for a, b in sorted(zip(lo.tolist(), hi.tolist()), key=lambda iv: iv[0]):
            if out and a - out[-1][1] <= gap:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        mlo, mhi = _merge_intervals(lo, hi, gap)
        assert np.column_stack((mlo, mhi)).tolist() == out


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


def test_deterministic_recompute():
    first = sigma_k(P12, 10)
    _chain.cache_clear()
    second = sigma_k(P12, 10)
    assert first.bands == second.bands
    assert first.merged_gaps == second.merged_gaps


def test_sigma_chain_shape():
    chain = sigma_chain(P12, 6)
    assert [bs.level for bs in chain] == [1, 2, 3, 4, 5, 6]
    assert all(bs.kind == "sigma_k" for bs in chain)
