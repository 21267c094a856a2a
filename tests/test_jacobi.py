"""Jacobi window spectra: Sturm solver, block counts, band checks by Sturm counts."""

import gc
import json
import math
import time

import numpy as np
import pytest

from fibjacobi import bands as bands_module
from fibjacobi import jacobi
from fibjacobi.jacobi import (
    EigenvalueList,
    JacobiWindow,
    build_window,
    eigenvalue_count_below,
    eigenvalues_free,
    eigenvalues_from_json,
    eigenvalues_to_json,
    periodic_band_check,
    truncation_spectrum_consistency,
    _block_count,
    _block_plan,
    _mirrored_count,
    _scaled_squares,
    _sturm_count,
)
from fibjacobi.bands import BandSet, cover, sigma_k
from fibjacobi.tracemap import HoppingPair
from fibjacobi.words import WordLengthError, fib_prefix, fibonacci, omega_s

P11 = HoppingPair(1, 1)
P12 = HoppingPair(1, 2)
_TINY = float(np.finfo(float).tiny)


def _dense(e):
    n = len(e) + 1
    T = np.zeros((n, n))
    i = np.arange(n - 1)
    T[i, i + 1] = e
    T[i + 1, i] = e
    return T


def _count_reference(e2, shifts):
    """Sturm counts site by site, one pivot array per site."""
    q = -shifts
    q = np.where(q == 0.0, -_TINY, q)
    count = (q < 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ee in e2:
            q = -shifts - ee / q
            q = np.where(q == 0.0, -_TINY, q)
            count += q < 0
    return count


def _pivots(e2, shift):
    """Sturm pivots at one shift, top down, in Python floats; zero pivots become -tiny."""
    pivots = []
    q = 1.0
    for ee in [0.0, *e2.tolist()]:
        q = -shift - ee / q or -_TINY
        pivots.append(q)
    return np.array(pivots)


def _bisect_reference(e):
    """Bisection with one Sturm count per eigenvalue and round, at default tol."""
    n = len(e) + 1
    bound = 2.0 * float(e.max())
    tol = 1e-10 * bound
    lo = np.full(n, -bound - tol)
    hi = np.full(n, bound + tol)
    idx = np.arange(n)
    for _ in range(max(1, math.ceil(math.log2((2 * bound + 2 * tol) / tol)))):
        mid = 0.5 * (lo + hi)
        above = _count_reference(e * e, mid) > idx
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


# Windows for the bisection checks: the smallest chains, equal hoppings,
# two copies coupled by 1e-12 (pairs of eigenvalues closer than tol, which
# share every bracket), b/a = 1.0001, 2 and 100 with odd and even site
# counts, and a chain longer than one pivot block of the kernel.
WINDOWS = {
    "n=2": JacobiWindow((1.3,)),
    "n=3": JacobiWindow((1.0, 2.0)),
    "equal": JacobiWindow((1.0,) * 40),
    "coupled copies": JacobiWindow((1.0, 2.0, 1.0, 1.0, 2.0, 1e-12, 1.0, 2.0, 1.0, 1.0, 2.0)),
    **{
        f"b/a={b} n={n}": build_window(omega_s(1, n - 1), HoppingPair(1.0, b))
        for b in (1.0001, 2.0, 100.0)
        for n in (89, 90)
    },
    "hull 700": build_window(omega_s(1, 699), P12),
}


@pytest.mark.parametrize("name", WINDOWS)
def test_eigenvalues_bit_identical_to_one_shift_bisection(name):
    jw = WINDOWS[name]
    e = np.array(jw.hoppings)
    got = eigenvalues_free(jw).values
    assert np.array_equal(got.view(np.int64), _bisect_reference(e).view(np.int64))


def test_zero_pivots_at_shift_zero():
    # The bisection's first midpoint is exactly 0.  There the pivots run
    # -0, +inf, -0, ... (the reference's run -tiny, +huge, ...), so every
    # other pivot counts, and odd chains count their zero eigenvalue as
    # below 0.  At -0 they run +0, -inf, ..., ending in +0 on odd chains,
    # which counts too; -0 is counted as 0.
    zeros = np.array([0.0, -0.0])
    for b in (1.0001, 2.0, 100.0):
        for n in (89, 90):
            e2 = np.array(WINDOWS[f"b/a={b} n={n}"].hoppings) ** 2
            assert np.any(_pivots(e2, 0.0)[1:] == -_TINY)
            count, ends = _sturm_count(e2, zeros)
            assert count.tolist() == [(n + 1) // 2] * 2
            assert ends.tolist() == [0, n % 2]
            assert _mirrored_count(e2, zeros).tolist() == [(n + 1) // 2] * 2


@pytest.mark.parametrize("name", WINDOWS)
def test_sturm_count_against_dense_oracle(name):
    # Counts equal the site-by-site reference exactly, and the number of
    # dense eigenvalues below the shift up to a backward-error margin
    # (exactly, wherever no dense eigenvalue lies within the margin).  More
    # shifts than the kernel takes at once make it run in several blocks.
    jw = WINDOWS[name]
    e = np.array(jw.hoppings)
    bound = 2.0 * e.max()
    rng = np.random.default_rng(5)
    shifts = np.concatenate(
        (rng.uniform(-bound, bound, 4200), [0.0], eigenvalues_free(jw).values)
    )
    count, _ = _sturm_count(e * e, shifts)
    assert np.array_equal(count, _count_reference(e * e, shifts))
    dense = np.linalg.eigvalsh(_dense(e))
    margin = 4.0 * jw.n_sites * np.finfo(float).eps * bound
    below = np.searchsorted(dense, shifts - margin)
    upto = np.searchsorted(dense, shifts + margin)
    assert np.all((below <= count) & (count <= upto))
    assert np.mean(below == upto) >= 0.9
    assert np.array_equal(count, eigenvalue_count_below(jw, shifts))


@pytest.mark.parametrize("name", WINDOWS)
def test_mirrored_count_matches_reference(name):
    # Shifts in +- pairs, with 0 and -0, +-1, the bounds, the eigenvalues and
    # points just off them: the mirrored counts equal site-by-site counts.
    jw = WINDOWS[name]
    e2 = np.array(jw.hoppings) ** 2
    bound = 2.0 * math.sqrt(e2.max())
    lam = eigenvalues_free(jw).values
    rng = np.random.default_rng(11)
    half = np.concatenate(
        (rng.uniform(0.0, bound, 500), [0.0, 1.0, bound, 2.0 * bound], lam, np.nextafter(lam, np.inf))
    )
    shifts = np.concatenate((half, -half, [-0.0]))
    rng.shuffle(shifts)
    assert np.array_equal(_mirrored_count(e2, shifts), _count_reference(e2, shifts))


def test_mirrored_count_after_zero_pivots():
    # Equal hoppings 1 at shift 1 give q_1 = -1, then q_2 = -1 + 1 = +0: a
    # zero pivot away from shift 0, +0 at shifts 1 and -1 alike and followed
    # by -inf, for an odd and an even number of sites.  On 41 sites the last
    # pivot at 1 is +0: 1 = 2 cos(14 pi / 42) is an eigenvalue, counted as
    # below itself, and -1 reads n - count(1) + 1.
    shifts = np.array([1.0, -1.0, 0.5])
    for hops in ((1.0,) * 40, (1.0,) * 41):
        e2 = np.array(hops) ** 2
        want = _count_reference(e2, shifts)
        count, ends = _sturm_count(e2, shifts)
        assert np.array_equal(count, want)
        assert np.array_equal(_mirrored_count(e2, shifts), want)
        on_eigenvalue = e2.size == 40
        assert ends.tolist() == [on_eigenvalue, on_eigenvalue, 0]
        below = _sturm_count(e2, np.nextafter(shifts[:1], 0.0))[0]
        assert count[0] - below[0] == on_eigenvalue
        assert want[1] == e2.size + 1 - want[0] + on_eigenvalue


def test_mirrored_count_of_scaled_shifts_past_double_range():
    # A window of hoppings near 1e-200 is counted scaled up by about 2^664;
    # shifts of 1e200 and beyond overflow to +-inf there and count as above
    # or below every eigenvalue, from either side of the mirror.
    jw = JacobiWindow(tuple(1e-200 * h for h in build_window(omega_s(1, 40), P12).hoppings))
    shifts = np.array([-1e300, 1e300, 1e200, -1e200, -1e-200, 1e-200, 0.0])
    e2, s = _scaled_squares(np.array(jw.hoppings))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(shifts, s)
    assert np.isinf(scaled[:4]).all()
    assert np.array_equal(eigenvalue_count_below(jw, shifts), _count_reference(e2, scaled))
    assert eigenvalue_count_below(jw, shifts[:4]).tolist() == [0, jw.n_sites, jw.n_sites, 0]


# Windows with hoppings 1e-200 and 1, whose scaled squares of 1e-200
# underflow to 0: the matrix splits there into chains.  The hull window of
# 100 sites is longer than one pivot block and has a block plan.
ZERO_SQUARE_WINDOWS = {
    "n=3": JacobiWindow((1e-200, 1.0)),
    "n=4": JacobiWindow((1e-200, 1.0, 1e-200)),
    "hull 100": build_window(omega_s(1, 99), HoppingPair(1e-200, 1.0)),
}


@pytest.mark.parametrize("name", ZERO_SQUARE_WINDOWS)
def test_counts_where_squares_underflow(name):
    # Each chain starts again from -shift, so a zero pivot at the end of one
    # chain never meets a zero square (0 / 0 would give NaN).  Counts at +-0,
    # at subnormal shifts, at the chains' eigenvalues +-1 and at the computed
    # eigenvalues equal the reference's; the eigenvalues equal one-shift
    # bisection bit for bit and the dense ones within tol.
    jw = ZERO_SQUARE_WINDOWS[name]
    e = np.array(jw.hoppings)
    e2, s = _scaled_squares(e)
    assert np.any(e2 == 0.0)
    eig = eigenvalues_free(jw)
    lam = eig.values
    half = np.concatenate(([0.0, 5e-324, 1e-300, 1e-200, 0.5, 1.0, 2.0], lam, np.nextafter(lam, np.inf)))
    shifts = np.concatenate((half, -half, [-0.0]))
    scaled = np.ldexp(shifts, s)
    want = _count_reference(e2, scaled)
    assert np.array_equal(eigenvalue_count_below(jw, shifts), want)
    assert np.array_equal(_sturm_count(e2, scaled)[0], want)
    assert np.array_equal(lam.view(np.int64), _bisect_reference(e).view(np.int64))
    assert np.abs(lam - np.linalg.eigvalsh(_dense(e))).max() <= eig.residual_bound / 2


@pytest.mark.parametrize("n", [100, 701, 2001])
def test_zero_squares_take_the_site_loop(n, monkeypatch):
    # Block counts do not split the window into chains at zero squares, so
    # hull windows at (1e-200, 1) have no block plan: nothing is bisected
    # twice, and the eigenvalues are one-shift bisection's bit for bit.
    jw = build_window(omega_s(1, n - 1), HoppingPair(1e-200, 1.0))
    e2, _ = _scaled_squares(np.array(jw.hoppings))
    assert not e2.all() and _block_plan(e2) is None
    rechecked = []
    real_path = jacobi._site_path

    def spy(e2, edge, hi, idx, rounds):
        rechecked.extend(idx.tolist())
        return real_path(e2, edge, hi, idx, rounds)

    monkeypatch.setattr(jacobi, "_site_path", spy)
    got = eigenvalues_free(jw).values
    assert rechecked == []
    assert np.array_equal(got.view(np.int64), _bisect_reference(np.array(jw.hoppings)).view(np.int64))


def test_window_refuses_a_hopping_not_positive_and_finite():
    # One bad hopping anywhere in a long window is refused; extreme but
    # valid ones, ints among them, are kept.
    good = build_window(fib_prefix(16), HoppingPair(1, 2)).hoppings
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, -0.0):
        for at in (0, len(good) // 2, len(good) - 1):
            hops = good[:at] + (bad,) + good[at + 1 :]
            with pytest.raises(ValueError, match="^hoppings must be positive and finite$"):
                JacobiWindow(hops)
    for hops in ((5e-324,), (1.7976931348623157e308, 1), (1, 2, 3)):
        assert JacobiWindow(hops).hoppings == hops
    with pytest.raises(ValueError, match="JacobiWindow needs at least one hopping"):
        JacobiWindow(())


def test_eigenvalue_count_below_rejects_nan_shifts():
    # A NaN shift has no count; its sign bit must not pick one.
    jw = JacobiWindow((1.0, 2.0))
    for shifts, at in (([math.nan], 0), ([0.5, -math.nan], 1), ([[0.0, 1.0], [math.nan, 2.0]], 2)):
        with pytest.raises(ValueError, match=f"shift at flat index {at} is NaN"):
            eigenvalue_count_below(jw, shifts)


def test_eigenvalues_at_extreme_hopping_scales():
    # Squares of these hoppings leave the normal double range; the window is
    # bisected scaled by a power of two, so values scale with the hoppings.
    jw = build_window(omega_s(1, 40), P12)
    ref = eigenvalues_free(jw).values
    for scale in (2.0**-600, 1e-200, 1e-160, 1e160, 1e200, 2.0**600):
        eig = eigenvalues_free(JacobiWindow(tuple(scale * h for h in jw.hoppings)))
        assert eig.residual_bound == pytest.approx(scale * 4e-10, rel=1e-15)
        assert np.abs(eig.values / scale - ref).max() <= 4e-10
    counts = eigenvalue_count_below(jw, ref[:-1] + 1e-6)
    tiny = JacobiWindow(tuple(1e-200 * h for h in jw.hoppings))
    assert np.array_equal(eigenvalue_count_below(tiny, 1e-200 * (ref[:-1] + 1e-6)), counts)
    assert np.array_equal(counts, np.arange(1, jw.n_sites))
    # Shifts far outside the spectrum may overflow when scaled; they count
    # as below or above every eigenvalue.
    assert eigenvalue_count_below(tiny, [-1e200, 1e200]).tolist() == [0, jw.n_sites]


def test_eigenvalues_past_double_range_of_the_norm_bound():
    # 2 max(h) overflows to inf; bound and tol are taken scaled, so the
    # eigenvalues 0 and +-sqrt(2) 1e308 come out finite, as does the tol.
    eig = eigenvalues_free(JacobiWindow((1e308, 1e308)))
    assert math.isfinite(eig.residual_bound)
    assert eig.residual_bound == pytest.approx(2e298, rel=1e-15)
    want = np.array([-math.sqrt(2.0) * 1e308, 0.0, math.sqrt(2.0) * 1e308])
    assert np.all(np.abs(eig.values - want) <= eig.residual_bound)


# Windows for the block counts: w^M (w = abab is itself periodic), s_k,
# hull truncations, periodized s_k, weak and strong coupling, and scales
# whose squares leave the double range.
BLOCK_WINDOWS = {
    "abbab^200 b/a=1.0001": build_window("abbab" * 200, HoppingPair(1, 1.0001)),
    "abbab^200 b/a=100": build_window("abbab" * 200, HoppingPair(1, 100)),
    "abab^150 b/a=2": build_window("abab" * 150, P12),
    "abab^150 b/a=100": build_window("abab" * 150, HoppingPair(1, 100)),
    **{f"s_{k} b/a=2": build_window(fib_prefix(k), P12) for k in (10, 13, 16)},
    "s_14 b/a=1.0001": build_window(fib_prefix(14), HoppingPair(1, 1.0001)),
    "omega_s(1, 900) b/a=2": build_window(omega_s(1, 900), P12),
    "s_10^5 b/a=2": build_window((fib_prefix(10) * 5)[:-1], P12),
    "s_12 x 1e-200": build_window(fib_prefix(12), HoppingPair(1e-200, 2e-200)),
    "abaab^100 x 1e200": build_window("abaab" * 100, HoppingPair(1e200, 2e200)),
}


@pytest.mark.parametrize("name", BLOCK_WINDOWS)
def test_block_counts_equal_site_loop_away_from_eigenvalues(name):
    # At random shifts and at shifts 1e5 eps |T| or more from every dense
    # eigenvalue, in both signs, block counts equal the site loop's, and
    # the mirror n - count(|s|) holds exactly for them.
    jw = BLOCK_WINDOWS[name]
    e2, s = _scaled_squares(np.array(jw.hoppings))
    plan = _block_plan(e2)
    assert plan is not None
    bound = 2.0 * math.sqrt(e2.max())
    lam = np.linalg.eigvalsh(_dense(np.sqrt(e2)))
    unit = 1e5 * np.finfo(float).eps * bound
    near = np.concatenate([lam + sign * d * unit for sign in (1, -1) for d in (1, 3, 30, 1e3)])
    dist = np.abs(near[:, None] - lam[None, :]).min(axis=1)
    rng = np.random.default_rng(17)
    shifts = np.concatenate((rng.uniform(-bound, bound, 2000), near[dist >= unit]))
    count = _block_count(plan, e2, shifts)
    assert np.array_equal(count, _sturm_count(e2, shifts)[0])
    assert np.array_equal(_block_count(plan, e2, -shifts), jw.n_sites - count)
    assert np.array_equal(_mirrored_count(e2, shifts, plan), count)
    # Eigenvalues lie within tol / 2 of the dense ones, scaled back.
    eig = eigenvalues_free(jw)
    assert np.abs(eig.values - np.ldexp(lam, -s)).max() <= eig.residual_bound / 2


def test_block_counts_at_shift_zero():
    # Each pivot -e^2 / q at shift 0 has the opposite sign of the one before,
    # from q_1 = -0: ceil(n / 2) pivots are negative, as the site loop counts.
    for jw in BLOCK_WINDOWS.values():
        e2, _ = _scaled_squares(np.array(jw.hoppings))
        zero = np.array([0.0])
        count = _block_count(_block_plan(e2), e2, zero)
        assert count.tolist() == _sturm_count(e2, zero)[0].tolist() == [(jw.n_sites + 1) // 2]


@pytest.mark.parametrize("word", ["abbab" * 200, fib_prefix(15), omega_s(1, 1000).letters])
def test_block_plan_composes_prefixes(word):
    # Each step's map covers a prefix made of the prefixes it composes, and
    # maps are dropped after their last use; w^M and s_k take few steps.
    e2 = build_window(word, HoppingPair(1, 2.5)).hoppings
    plan = _block_plan(np.array(e2) ** 2)
    made = set()
    for L, a, b, done in plan:
        if b:
            assert word[:L] == word[:a] + word[:b]
        else:
            assert a == L - 1
        assert {a, b} - {0} <= made
        made |= {L}
        made -= set(done)
    assert made == {len(word)}
    assert len(plan) <= 2 * math.log2(len(word)) + 5


def test_aperiodic_words_take_the_site_loop(monkeypatch):
    # No short period: composing would cost more than the sites themselves.
    rng = np.random.default_rng(2)
    word = "".join(rng.choice(["a", "b"], 600))
    calls = []
    monkeypatch.setattr("fibjacobi.jacobi._block_count", lambda *args: calls.append(args))
    for jw in (build_window(word, P12), WINDOWS["coupled copies"]):
        assert _block_plan(np.array(jw.hoppings) ** 2) is None
        eig = eigenvalues_free(jw)
        assert np.array_equal(eig.values, _bisect_reference(np.array(jw.hoppings)))
    assert calls == []


@pytest.mark.parametrize(
    "split_max, split_points, deepest",
    [(1, 4096, 1), (3, 4096, 3), (12, 1 << 20, 12), (7, 1, 1)],
    ids=["cap1", "cap3", "cap12", "one-halving-per-pass"],
)
def test_eigenvalues_bit_identical_at_any_tree_depths(
    split_max, split_points, deepest, monkeypatch
):
    # Trees of any depth, set through the point budget the band solver
    # shares, read the counts at the midpoints one-shift bisection visits:
    # on a window with a block plan, one whose certificate re-bisects with
    # the site loop, and an aperiodic one.
    monkeypatch.setattr(bands_module, "_SPLIT_MAX", split_max)
    monkeypatch.setattr(bands_module, "_SPLIT_POINTS", split_points)
    depths = []
    real_tree = jacobi._bisection_tree

    def spy(lo, hi, s):
        depths.append(s)
        return real_tree(lo, hi, s)

    monkeypatch.setattr(jacobi, "_bisection_tree", spy)
    rng = np.random.default_rng(3)
    aperiodic = build_window("".join(rng.choice(["a", "b"], 300)), P12)
    strong = build_window(fib_prefix(14), HoppingPair(1, 100))
    for jw in (BLOCK_WINDOWS["s_13 b/a=2"], strong, aperiodic):
        want = _bisect_reference(np.array(jw.hoppings))
        assert np.array_equal(eigenvalues_free(jw).values.view(np.int64), want.view(np.int64))
    assert max(depths) == deepest


def test_certificate_rebisects_a_planted_error(monkeypatch):
    # The block counter reads one too few in a short interval just above an
    # eigenvalue; that eigenvalue's bracket ends up above it, the site loop
    # rejects it, and it is bisected again: values equal the site loop's.
    jw = build_window(fib_prefix(13), P12)
    e = np.array(jw.hoppings)
    want = _bisect_reference(e)
    j = jw.n_sites - 40
    lam = want[j]
    real = _block_count
    flipped = []

    def planted(plan, e2, shifts):
        count = real(plan, e2, shifts)
        hit = (shifts > lam) & (shifts < lam + 1e-7)
        flipped.append(int(hit.sum()))
        count[hit] -= 1
        return count

    rechecked = []
    real_path = jacobi._site_path

    def spy(e2, edge, hi, idx, rounds):
        rechecked.append(idx.tolist())
        return real_path(e2, edge, hi, idx, rounds)

    monkeypatch.setattr(jacobi, "_block_count", planted)
    monkeypatch.setattr(jacobi, "_site_path", spy)
    got = eigenvalues_free(jw).values
    assert sum(flipped) > 0
    # Counts at -s are read as n - count(|s|), so the mirror image of the
    # eigenvalue is caught too.
    assert rechecked == [[jw.n_sites - 1 - j, j]]
    assert np.array_equal(got, want)


def test_strong_coupling_hull_windows_lean_on_the_certificate(monkeypatch):
    # At b/a = 100 products over s_k cancel far more than in the site loop:
    # block counts on s_14 already disagree with it at some bisection
    # midpoints, a few of them more than 1e5 eps |T| from any eigenvalue.
    # The site-loop check rejects those brackets and re-bisects them.
    jw = build_window(fib_prefix(14), HoppingPair(1, 100))
    rechecked = []
    real_path = jacobi._site_path

    def spy(e2, edge, hi, idx, rounds):
        rechecked.extend(idx.tolist())
        return real_path(e2, edge, hi, idx, rounds)

    monkeypatch.setattr(jacobi, "_site_path", spy)
    got = eigenvalues_free(jw).values
    assert rechecked
    assert np.array_equal(got, _bisect_reference(np.array(jw.hoppings)))


def test_block_passes_leave_no_reference_cycles():
    # Maps are freed when a pass ends, not when the collector next runs.
    jw = BLOCK_WINDOWS["s_13 b/a=2"]
    gc.collect()
    gc.disable()
    try:
        eigenvalues_free(jw)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_window_examples():
    jw = build_window("ab", P12)
    assert jw.hoppings == (1.0, 2.0)
    assert jw.n_sites == 3
    jw = build_window(fib_prefix(4), P12)
    assert jw.hoppings == (1.0, 2.0, 1.0, 1.0, 2.0)
    jw = build_window(omega_s(1, 3), P12)
    assert jw.hoppings == (1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        build_window("", P12)


def test_build_window_maps_letters_as_a_table():
    # The hoppings of random words, windows and scales are the letter-by-letter
    # table lookup, as Python floats; a letter outside 'ab' is refused.
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = float(10 ** rng.uniform(-200, 200))
        p = HoppingPair(a, a * float(10 ** rng.uniform(-2, 2)))
        word = "".join(rng.choice(["a", "b"], int(rng.integers(1, 2000))))
        table = {"a": p.a, "b": p.b}
        for window in (word, omega_s(-3, len(word) - 4)):
            letters = getattr(window, "letters", window)
            jw = build_window(window, p)
            assert jw.hoppings == tuple(table[ch] for ch in letters)
            assert all(type(h) is float for h in jw.hoppings)
    with pytest.raises(ValueError, match="letter 'c' outside 'ab' at position 3"):
        build_window("abcab", P12)


def test_jacobi_window_validation():
    with pytest.raises(ValueError):
        JacobiWindow(())
    with pytest.raises(ValueError):
        JacobiWindow((1.0, -2.0))


def test_eigenvalues_closed_forms():
    for a in (1.0, 2.0, 0.7):
        eig = eigenvalues_free(JacobiWindow((a,)), tol=1e-12)
        assert eig.values[0] == pytest.approx(-a, abs=1e-11)
        assert eig.values[1] == pytest.approx(a, abs=1e-11)
    eig = eigenvalues_free(JacobiWindow((1.0, 1.0)), tol=1e-12)
    r2 = math.sqrt(2.0)
    assert np.allclose(eig.values, [-r2, 0.0, r2], atol=1e-11)


def test_eigenvalues_against_dense_oracle():
    rng = np.random.default_rng(3)
    e = rng.uniform(0.5, 2.5, 49)
    eig = eigenvalues_free(JacobiWindow(tuple(e)), tol=1e-11)
    ref = np.linalg.eigvalsh(_dense(e))
    assert np.abs(np.array(eig.values) - ref).max() <= 2e-11


def test_free_chain_dispersion():
    # Uniform hoppings: eigenvalues are 2 cos(j pi / (N+1)).
    n = 12
    eig = eigenvalues_free(JacobiWindow((1.0,) * (n - 1)), tol=1e-12)
    ref = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(np.array(eig.values) - ref).max() <= 1e-11


def test_eigenvalue_list_invariants():
    jw = build_window(omega_s(1, 80), P12)
    eig = eigenvalues_free(jw)
    assert len(eig.values) == jw.n_sites
    assert all(x <= y for x, y in zip(eig.values, eig.values[1:]))
    bound = 2 * max(jw.hoppings)
    assert all(abs(v) <= bound + eig.residual_bound for v in eig.values)


def test_spectrum_symmetry():
    # Zero diagonal makes the chain bipartite: spectrum is symmetric.
    jw = build_window(omega_s(1, 101), P12)
    lam = np.array(eigenvalues_free(jw, tol=1e-11).values)
    assert np.abs(lam + lam[::-1]).max() <= 4e-11


def test_interlacing():
    rng = np.random.default_rng(11)
    e = rng.uniform(0.5, 2.0, 40)
    tol = 1e-11
    big = np.array(eigenvalues_free(JacobiWindow(tuple(e)), tol).values)
    small = np.array(eigenvalues_free(JacobiWindow(tuple(e[:-1])), tol).values)
    assert np.all(big[:-1] - 2 * tol <= small)
    assert np.all(small <= big[1:] + 2 * tol)


def test_band_count_cross_check():
    # Sturm counts over a 20-period chain see every band found by the
    # trace-map solver: each band holds at least one eigenvalue.
    for k in (6, 9, 12):
        bs = sigma_k(P12, k)
        jw = build_window((fib_prefix(k) * 20)[:-1], P12)
        delta = 1e-8
        lo = bs.bands[:, 0] - delta
        hi = bs.bands[:, 1] + delta
        inside = eigenvalue_count_below(jw, hi) - eigenvalue_count_below(jw, lo)
        assert int((inside > 0).sum()) == fibonacci(k)
        assert int(inside.sum()) >= 0.9 * jw.n_sites


def test_periodic_band_check_free_case():
    # At a = b sigma_k is one band, which holds all m F_k - 1 values.
    for k, m in ((6, 20), (20, 2)):
        assert sigma_k(P11, k).lo.size == 1
        assert periodic_band_check(P11, k, m) == 0.0


def test_periodic_band_check_coupled():
    assert periodic_band_check(P12, 2) <= 1e-6
    assert periodic_band_check(P12, 8) <= 1e-2


def test_periodic_band_check_strong_coupling():
    # The gap states of the chain are the one value per gap the counts allow.
    assert periodic_band_check(HoppingPair(0.5, 7.3), 10, m=20) <= 1e-8


def test_periodic_band_check_validation():
    with pytest.raises(ValueError):
        periodic_band_check(P12, 0)
    with pytest.raises(ValueError, match="Sturm count steps"):
        periodic_band_check(P12, 22)
    with pytest.raises(ValueError):
        periodic_band_check(P12, 4, m=1)
    with pytest.raises(ValueError, match="at k = 1"):
        periodic_band_check(P12, 1, m=2)


def test_band_checks_refuse_work_over_the_cap_before_any_window(monkeypatch):
    # m = 10^6 periods of s_16 would be 1.6e9 letters, and L = 10^9 sites a
    # window of 10^9 letters; both are refused before a letter is made.
    def no_window(*args):
        raise AssertionError("a window was built")

    for name in ("fib_prefix", "periodize", "omega_s", "build_window"):
        monkeypatch.setattr(jacobi, name, no_window)
    with pytest.raises(ValueError, match=r"1596999999 sites .* more than 1e\+09"):
        periodic_band_check(P12, 16, m=10**6)
    with pytest.raises(ValueError, match=r"1000000000 sites .* more than 1e\+09"):
        truncation_spectrum_consistency(P12, 10, 10**9)
    # One shift on 10^6 sites is 0.1% of the cap in site-shift steps, but the
    # site loop's own cost, charged per site, would take seconds.  At k = 3e5
    # F_k takes seconds and has too many digits to print.
    for call, error, match in (
        (lambda: periodic_band_check(P12, 1, m=10**6), ValueError,
         r"999999 sites at 1 distinct shifts .* \(2000 per site\), more than 1e\+09"),
        (lambda: truncation_spectrum_consistency(P12, 300_000, 100), WordLengthError,
         r"level 300000 needs s_300000, .* cap of 50000000"),
    ):
        start = time.perf_counter()
        with pytest.raises(error, match=match):
            call()
        assert time.perf_counter() - start < 0.1


def _without(bs, j):
    keep = np.arange(bs.lo.size) != j
    return BandSet(bs.lo[keep], bs.hi[keep], bs.kind, bs.level, bs.params, bs.tol, bs.merged_gaps)


@pytest.mark.parametrize("b, k", [(1.2, 12), (2, 12), (5, 12), (20, 9)])
def test_periodic_band_check_sees_a_dropped_band(monkeypatch, b, k):
    # The values of a dropped band fall into a gap, so R differs across it.
    p = HoppingPair(1, b)
    bs = sigma_k(p, k)
    for j in (0, bs.lo.size // 3, bs.lo.size - 1):
        monkeypatch.setattr(jacobi, "sigma_k", lambda p, k: _without(bs, j))
        with pytest.raises(ArithmeticError, match=rf"sigma_{k} band \d+ of {bs.lo.size - 1}"):
            periodic_band_check(p, k)


@pytest.mark.parametrize("b, k", [(1.2, 12), (2, 12), (5, 12), (20, 9)])
def test_truncation_consistency_sees_a_split_band(monkeypatch, b, k):
    # A fake gap in the middle of the widest band holds far more than 4 values.
    p = HoppingPair(1, b)
    c = cover(p, k)
    j = int(np.argmax(c.hi - c.lo))
    mid, w = 0.5 * (c.lo[j] + c.hi[j]), 0.125 * (c.hi[j] - c.lo[j])
    split = BandSet(
        np.insert(c.lo, j + 1, mid + w), np.insert(c.hi, j, mid - w),
        c.kind, c.level, c.params, c.tol, c.merged_gaps,
    )
    monkeypatch.setattr(jacobi, "cover", lambda p, k: split)
    with pytest.raises(ArithmeticError, match=rf"cover\({k}\) gap {j} of {c.lo.size}"):
        truncation_spectrum_consistency(p, k, 20_000)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.inf, -math.inf, math.nan, 1e-320])
def test_eigenvalues_free_rejects_tol_without_finite_rounds(tol):
    with pytest.raises(ValueError, match="tol"):
        eigenvalues_free(JacobiWindow((1.0, 2.0)), tol)


def test_eigenvalues_free_takes_a_tol_past_double_range():
    # Scaled by 2^995, tols like 1e300 leave the double range, and at (1, 2)
    # 1e308 makes the bracket width overflow.  Such a tol takes one round.
    for hops in ((1e-300, 2e-300), (1.0, 2.0)):
        dense = np.linalg.eigvalsh(_dense(np.array(hops)))
        for tol in (1e300, 1e308, np.finfo(float).max):
            eig = eigenvalues_free(JacobiWindow(hops), tol)
            assert eig.residual_bound == tol
            assert np.all(np.abs(eig.values - dense) <= tol)
    # One round from [-(4 + tol), 4 + tol] splits the values at 0.
    assert eigenvalues_free(JacobiWindow((1.0, 2.0)), 1e300).values.tolist() == [-5e299, -5e299, 5e299]


def test_band_checks_report_an_overflowing_norm_bound_first():
    # 2 max(a, b) = inf would make tol inf; the band set's typed error comes first.
    p = HoppingPair(1e308, 5e307)
    with pytest.raises(ValueError, match=r"norm bound 2 max\(a, b\) overflows"):
        periodic_band_check(p, 4)
    with pytest.raises(ValueError, match=r"norm bound 2 max\(a, b\) overflows"):
        truncation_spectrum_consistency(p, 3, 100)


def test_truncation_consistency():
    assert truncation_spectrum_consistency(P11, 3, 100) <= 1e-2
    assert truncation_spectrum_consistency(P12, 10, fibonacci(14)) <= 0.05


def test_truncation_length_precondition():
    with pytest.raises(ValueError):
        truncation_spectrum_consistency(P12, 10, 2 * fibonacci(10) - 1)


@pytest.mark.parametrize("b, k", [(1.2, 10), (2, 10), (5, 10), (20, 9)])
def test_gap_labels_of_cover_gaps(b, k):
    # The integrated density of states in a gap of the spectrum is
    # {m alpha mod 1}, alpha = (sqrt 5 - 1) / 2 (Bellissard, Bovier and
    # Ghez, Rev. Math. Phys. 4 (1992)).  Sturm counts on a hull window of n
    # sites never evaluate the trace map, so they check the band solver's
    # gaps: N at every gap midpoint of the cover lies within 2 / n of a
    # label, and the G gaps carry the labels +-1 .. +-G/2, once each.
    p = HoppingPair(1, b)
    c = cover(p, k)
    mids = 0.5 * (c.hi[:-1] + c.lo[1:])
    n = 75025
    ids = eigenvalue_count_below(build_window(omega_s(1, n - 1), p), mids) / n
    g = mids.size
    m = np.arange(-2 * g, 2 * g + 1)
    dist = np.abs(ids[:, None] - np.mod(m * ((math.sqrt(5.0) - 1.0) / 2.0), 1.0))
    dist = np.minimum(dist, 1.0 - dist)
    nearest = dist.argmin(axis=1)
    assert dist[np.arange(g), nearest].max() <= 2.0 / n
    assert np.all(np.diff(ids) > 0.0)
    labels = m[nearest]
    assert len(set(labels.tolist())) == g
    assert sorted(labels.tolist()) == [*range(-(g // 2), 0), *range(1, g // 2 + 1)]


def test_eigenvalue_json_roundtrip():
    eig = eigenvalues_free(build_window("abaab", P12), tol=1e-10)
    text = eigenvalues_to_json(eig)
    obj = json.loads(text)
    assert set(obj) == {"n", "boundary", "values", "tol"}
    back = eigenvalues_from_json(text)
    assert np.array_equal(back.values, eig.values)
    assert (back.residual_bound, back.n_sites, back.boundary) == (
        eig.residual_bound, eig.n_sites, eig.boundary
    )
    assert not back.values.flags.writeable
