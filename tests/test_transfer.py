"""Cocycle, solution-evolution, Lyapunov, and operator-identity oracles."""

import math

import numpy as np
import pytest

from fibjacobi.tracemap import HoppingPair, finite_traces, trace_bound, trace_value
from fibjacobi.transfer import (
    CocycleRangeError,
    LyapunovEstimate,
    SquareStructureError,
    RENORM_EVERY,
    _check_range,
    _fibonacci_checkpoints,
    _hull_products,
    cayley_hamilton_defect,
    cocycle,
    cocycles,
    evolve_solution,
    lyapunov,
    lyapunov_grid,
    no_decay_witness,
    physical_products,
    trace_halves,
)
from fibjacobi.words import (
    WindowCoverageError,
    fibonacci,
    cyclic_conjugates,
    omega_s,
    periodize,
    square_prefix_block,
    window_from_word,
)


# The per-element rules for a cocycle row [m11, m12, m21, m22, log_scale],
# as the references for trace_halves and physical_products.


def _trace_half(row):
    m11, _, _, m22, s = row
    return 0.5 * (m11 + m22) * math.exp(s)


def _physical(row):
    m11, m12, m21, m22, s = row
    return math.exp(s) * np.array([[m11, m12], [m21, m22]])


def _log_frobenius(row):
    m11, m12, m21, m22, s = row.tolist()
    return 0.5 * math.log(m11**2 + m12**2 + m21**2 + m22**2) + s


def _log_abs_det(row):
    # Meaningful only while eps |M|_F^2 stays below the accuracy wanted:
    # beyond that the stored entries cancel to rounding noise.
    m11, m12, m21, m22, s = row.tolist()
    return math.log(abs(m11 * m22 - m12 * m21)) + 2.0 * s


def test_one_letter_cocycle_rows():
    # Over one letter the row is the one-step factor (1/w) [[E, -1], [w^2, 0]]
    # with no scale: (E/w, -1/w, w, 0, 0).
    one = periodize("a", 1)
    assert cocycle(one, HoppingPair(1.0, 3.0), 0.0, 1).tolist() == [0.0, -1.0, 1.0, 0.0, 0.0]
    assert cocycle(one, HoppingPair(2.0, 3.0), 1.0, 1).tolist() == [0.5, -0.5, 2.0, 0.0, 0.0]
    # A hopping that is not positive has no factor: the pair refuses it.
    for hop in (0.0, -1.0):
        with pytest.raises(ValueError):
            HoppingPair(hop, 1.0)
        with pytest.raises(ValueError):
            HoppingPair(1.0, hop)


def test_one_letter_cocycle_unimodular():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = rng.uniform(0.1, 5.0)
        E = rng.uniform(-8.0, 8.0)
        m11, m12, m21, m22, s = cocycle(periodize("b", 1), HoppingPair(1.0, h), E, 1).tolist()
        assert (m11 * m22 - m12 * m21) * math.exp(2.0 * s) == pytest.approx(1.0, rel=1e-14)


def test_cocycle_single_factor():
    p = HoppingPair(1.3, 0.6)
    w = omega_s(1, 5)
    m = cocycle(w, p, 0.7, 1)
    # The first letter of the hull sequence is "a".
    assert m[:4].tolist() == pytest.approx([0.7 / p.a, -1.0 / p.a, p.a, 0.0])
    assert m[4] == 0.0
    # The row is read-only, as the tables' reads are.
    with pytest.raises(ValueError):
        m[0] = 1.0


def test_cocycle_two_factors_half_trace():
    # Over positions 1..2 the letters are "ab"; at a=1, b=2, E=1 the
    # half-trace is (E^2 - a^2 - b^2)/2ab = -1.
    p = HoppingPair(1, 2)
    m = cocycle(omega_s(1, 2), p, 1.0, 2)
    assert float(trace_halves(m)) == pytest.approx(-1.0, rel=1e-14)


def test_cocycle_unimodular_products():
    # Unimodularity is floating-checkable while eps * |M|^2 is below the
    # tolerance; products growing past that are filtered, not asserted.
    rng = np.random.default_rng(5)
    w = omega_s(1, 400)
    checked = 0
    for _ in range(60):
        p = HoppingPair(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
        E = rng.uniform(-1, 1) * 0.6 * min(p.a, p.b)
        n = int(rng.integers(1, 150))
        m = cocycle(w, p, E, n)
        if _log_frobenius(m) <= 6.0:
            assert abs(_log_abs_det(m)) <= 1e-10
            checked += 1
    assert checked >= 30


def test_cocycle_long_product_det_via_log():
    # Deep product at a bounded energy: norms stay small, so the tracked
    # determinant stays exactly unimodular through 5000 factors.
    p = HoppingPair(1, 2)
    m = cocycle(omega_s(1, 5000), p, 0.0, 5000)
    assert abs(_log_abs_det(m)) <= 1e-10
    # Far outside the spectrum the product reaches astronomical norms
    # without overflowing, which is what the tracked scale is for.
    m = cocycle(omega_s(1, 5000), p, 10.0, 5000)
    assert _log_frobenius(m) > 1000.0
    assert all(map(math.isfinite, m.tolist()))


def _cocycle_loop(window, p, E, n):
    # The scalar product loop, as the reference for the vectorized kernel.
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    scale = 0.0
    for pos in range(1, n + 1):
        w = p.a if window.letter(pos) == "a" else p.b
        m11, m12, m21, m22 = (E * m11 - m21) / w, (E * m12 - m22) / w, w * m11, w * m12
        if pos % RENORM_EVERY == 0:
            f = math.sqrt(m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22)
            m11, m12, m21, m22 = m11 / f, m12 / f, m21 / f, m22 / f
            scale += math.log(f)
    return [m11, m12, m21, m22, scale]


def test_cocycles_match_scalar_loop():
    # One pass over a batch of energies and lengths reproduces the scalar
    # loop bit for bit, and cocycle is the one-energy, one-length case,
    # whose row the table reads take as they take a table.
    rng = np.random.default_rng(17)
    w = omega_s(1, 5000)
    lengths = [1, 2, 31, 32, 33, 64, 233, 1000, 4181, 5000]
    for p in (HoppingPair(1, 2), HoppingPair(0.7, 3.9), HoppingPair(2.5, 0.4)):
        energies = np.concatenate([rng.uniform(-6.0, 6.0, 12), [0.0, -1.0, 9.5]])
        table = cocycles([w], p, energies, lengths)
        assert table.shape == (len(lengths), 5, 1, energies.size)
        for n, block in zip(lengths, table[:, :, 0]):
            row = block.T.tolist()
            assert row == [_cocycle_loop(w, p, float(e), n) for e in energies]
            one = cocycle(w, p, float(energies[3]), n)
            assert one.tolist() == row[3]
            if row[3][4] < 709.0:  # math.exp of the scale is a double
                assert float(trace_halves(one)) == _trace_half(row[3])
                assert physical_products(one).tobytes() == _physical(row[3]).tobytes()
    with pytest.raises(ValueError, match="strictly increasing"):
        cocycles([w], HoppingPair(1, 2), [0.0], [5, 5])


def _one_window_rows(window, p, E, lengths):
    """The one-window pass, as (lengths, energies, 5) rows."""
    return cocycles([window], p, E, lengths)[:, :, 0].transpose(0, 2, 1)


def test_batched_products_match_one_window_cocycles():
    # Every cyclic conjugate of levels 2..8 in one pass equals its own
    # one-window pass bit for bit; the 55-letter conjugates of level 8 cross
    # a renormalization at position 32.
    energies = np.concatenate([np.linspace(-3.0, 3.0, 20) + 0.037, [0.0, -7.25]])
    for p in (HoppingPair(1, 1.2), HoppingPair(1, 2), HoppingPair(0.4, 4.9)):
        for k in range(2, 9):
            words = cyclic_conjugates(k)
            windows = [periodize(word, len(word)) for word in words]
            n = len(words[0])
            lengths = sorted({1, (n + 1) // 2, n})
            batch = cocycles(windows, p, energies, lengths)
            assert batch.shape == (len(lengths), 5, len(windows), energies.size)
            for i, window in enumerate(windows):
                one = _one_window_rows(window, p, energies, lengths)
                assert np.array_equal(batch[:, :, i].transpose(0, 2, 1).view(np.int64), one.view(np.int64))


def test_batched_products_divide_overflowing_rows_alone():
    # At |E| = 1e5 the 32 factors over "a" (hopping 1) reach entries near
    # 1e160, whose squares overflow, so that row is divided by its largest
    # entry; over "b" (hopping 2) they stay near 1e150.  Each row keeps the
    # bits of its own pass.
    p = HoppingPair(1, 2)
    windows = [periodize(word, 40) for word in ("a", "b", "ab", "bba")]
    energies = np.array([1e5, 0.5, -1e5, 6e4])
    # The leading entry after 32 factors, from the scalar loop's 31.
    a32 = _cocycle_loop(periodize("a", 31), p, 1e5, 31)[0] * 1e5
    b32 = _cocycle_loop(periodize("b", 31), p, 1e5, 31)[0] * 5e4
    assert math.isinf(a32 * a32) and math.isfinite(b32 * b32)
    batch = cocycles(windows, p, energies, [32, 40])
    for i, window in enumerate(windows):
        one = _one_window_rows(window, p, energies, [32, 40])
        assert np.array_equal(batch[:, :, i].transpose(0, 2, 1).view(np.int64), one.view(np.int64))
    assert np.isfinite(batch).all()


def test_check_range_names_first_failing_energy():
    # Across windows, the first energy in grid order where any product
    # fails is named, not the first failure of the first window.
    E = np.array([1.0, 2.0, 3.0, 4.0])
    sq = np.array([[1.0, 1.0, np.inf, 1.0], [1.0, 0.0, 1.0, np.nan]])
    with pytest.raises(ArithmeticError, match=r"E = 2\.0 leaves double range by position 7$"):
        _check_range(sq, E, 7)
    _check_range(np.ones((3, 4)), E, 7)
    # Entries E / a overflow at the first letter of "ab" from E = 1e299 on.
    windows = [periodize(word, 2) for word in ("ba", "ab")]
    with pytest.raises(ArithmeticError, match=r"E = 1e\+299 leaves double range by position 1$"):
        cocycles(windows, HoppingPair(1e-10, 1.0), [1.0, 1e299, -1e300, 2.0], [1, 2])
    # A range failure keeps its energy and position as fields.
    with pytest.raises(CocycleRangeError) as info:
        cocycles([periodize("ab", 2)], HoppingPair(1e-10, 1.0), [1.0, 1e299], [1])
    assert (info.value.energy, info.value.position) == (1e299, 1)
    assert isinstance(info.value, ArithmeticError)


def test_non_finite_energies_rejected():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(6))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energies must be finite"):
            lyapunov(p, bad, 2584)
        with pytest.raises(ValueError, match="energies must be finite"):
            lyapunov_grid(p, [0.0, bad], 2584)
        with pytest.raises(ValueError, match="energies must be finite"):
            cocycle(w, p, bad, 10)
        with pytest.raises(ValueError, match="energies must be finite"):
            cayley_hamilton_defect(w, p, bad, 4)
    for n in (4, 0):
        with pytest.raises(ValueError, match=f"lyapunov needs n >= 5, got {n}"):
            lyapunov_grid(p, [0.0], n)


def test_products_leaving_double_range_raise():
    # Factors of norm ~|E| overflow a double within a renormalization block;
    # the error names the first such energy and the position, never NaN.
    p = HoppingPair(1, 2)
    # The default window multiplies level products, which stay in range
    # where the one-step factors do: it fails only where E / w is no double.
    with pytest.raises(ArithmeticError, match=r"E = 1e\+300 leaves double range by position 1$"):
        lyapunov(HoppingPair(1e-10, 2), 1e300, 2584)
    with pytest.raises(ArithmeticError, match=r"E = -1e\+300 leaves double range by position 2$"):
        lyapunov_grid(HoppingPair(2, 1e-10), [0.0, 1.0, -1e300, 5.0], 2584)
    with pytest.raises(ArithmeticError, match=r"E = 1e\+200 .* position 32$"):
        cocycle(omega_s(1, 100), p, 1e200, 100)
    with pytest.raises(ArithmeticError, match=r"position 1$"):
        cocycle(omega_s(1, 1), HoppingPair(1e-10, 2), 1e300, 1)
    # Scans over an explicit window take the one-factor loop.
    w = omega_s(1, 2584)
    with pytest.raises(ArithmeticError, match=r"E = 1000000000000\.0 leaves double range by position \d+"):
        lyapunov(p, 1e12, 2584, window=w)
    with pytest.raises(ArithmeticError, match=r"E = -1e\+30 "):
        lyapunov_grid(p, [0.0, 1.0, -1e30, 5.0], 2584, window=w)


def test_products_divide_by_largest_entry_when_squares_overflow():
    # At E = 1e5 the entries of a 32-factor block reach ~1e160: finite, but
    # their squares overflow.  For |E| >> w every factor grows by E / w_n,
    # so gamma follows log E, and 6e4 (in range before) fixes the offset.
    p = HoppingPair(1, 2)
    for window in (None, omega_s(1, 2584)):
        low = lyapunov(p, 6e4, 2584, window=window).gamma
        high = lyapunov(p, 1e5, 2584, window=window).gamma
        assert math.isfinite(high)
        assert high - low == pytest.approx(math.log(1e5 / 6e4), abs=1e-8)
    m = cocycle(omega_s(1, 1), p, 1e200, 1)
    assert _log_frobenius(m) == pytest.approx(math.log(1e200), rel=1e-15)
    assert m[:4].tolist() == [1.0, -1e-200, 1e-200, 0.0]


def test_cocycles_reject_empty_lengths():
    with pytest.raises(ValueError, match="strictly increasing, got \\[\\]"):
        cocycles([omega_s(1, 5)], HoppingPair(1, 2), [0.0], [])


def test_cocycles_reject_no_windows():
    with pytest.raises(ValueError, match="cocycles needs at least one window"):
        cocycles([], HoppingPair(1, 2), [0.5], [1])


def test_empty_energy_arrays_give_empty_results():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(12))
    for E in (np.array([]), []):
        assert cocycles([w, w], p, E, [5, 10]).shape == (2, 5, 2, 0)
        for window in (None, w):
            gamma, residual, n_used = lyapunov_grid(p, E, 144, window)
            assert gamma.shape == residual.shape == (0,) and n_used == 144
        defect = cayley_hamilton_defect(w, p, E, 5)
        assert isinstance(defect, np.ndarray) and defect.shape == (0,)


def test_energy_grids_of_any_shape_give_the_flattened_results():
    # A (2, 3) grid gives the bits of the flattened call: lyapunov_grid and
    # cayley_hamilton_defect in the grid's shape, cocycles in its E.size
    # layout.  A float keeps its result, and an energy that is not finite
    # is refused wherever it sits.
    p = HoppingPair(1, 2)
    square = omega_s(1, 2 * square_prefix_block(9))
    grid = np.array([[-3.1, 0.2, 1.7], [2.25, -0.6, 3.9]])
    flat = grid.ravel()
    for window in (None, omega_s(1, 2584)):
        gamma, residual, n_used = lyapunov_grid(p, grid, 2584, window)
        want = lyapunov_grid(p, flat, 2584, window)
        assert gamma.shape == residual.shape == (2, 3) and n_used == want[2]
        assert gamma.tobytes() == want[0].tobytes() and residual.tobytes() == want[1].tobytes()
        assert lyapunov_grid(p, 0.2, 2584, window)[0].shape == (1,)
    table = cocycles([square], p, grid, [5, 13])
    assert table.shape == (2, 5, 1, 6)
    assert table.tobytes() == cocycles([square], p, flat, [5, 13]).tobytes()
    defects = cayley_hamilton_defect(square, p, grid, 5)
    assert defects.shape == (2, 3)
    assert defects.tobytes() == cayley_hamilton_defect(square, p, flat, 5).tobytes()
    assert cayley_hamilton_defect(square, p, 0.2, 5) == float(defects[0, 1])
    bad = grid.copy()
    bad[1, 1] = math.inf
    for call in (
        lambda: lyapunov_grid(p, bad, 2584),
        lambda: lyapunov_grid(p, bad, 2584, omega_s(1, 2584)),
        lambda: cocycles([square], p, bad, [5]),
        lambda: cayley_hamilton_defect(square, p, bad, 5),
    ):
        with pytest.raises(ValueError, match="energies must be finite, got inf"):
            call()


def test_cocycle_window_coverage():
    p = HoppingPair(1, 2)
    with pytest.raises(WindowCoverageError):
        cocycle(omega_s(1, 5), p, 1.0, 6)
    with pytest.raises(ValueError):
        cocycle(omega_s(1, 5), p, 1.0, 0)


def test_half_trace_matches_trace_recursion():
    rng = np.random.default_rng(7)
    w = omega_s(1, fibonacci(12))
    for _ in range(100):
        p = HoppingPair(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
        E = rng.uniform(-4.0, 4.0)
        for k in range(1, 13):
            got = float(trace_halves(cocycle(w, p, E, fibonacci(k))))
            want = trace_value(p, E, k)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_cyclic_trace_invariance():
    # The one-period half-trace is the same over every rotation of a block.
    rng = np.random.default_rng(9)
    for k in range(2, 9):
        p = HoppingPair(rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0))
        E = rng.uniform(-3.0, 3.0)
        want = trace_value(p, E, k + 1)
        for word in cyclic_conjugates(k):
            win = periodize(word, len(word))
            got = float(trace_halves(cocycle(win, p, E, len(word))))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_evolve_solution_free_chain():
    # a = b = 1, E = 0: u_{n+1} = -u_{n-1}, so u cycles 0, 1, 0, -1.
    p = HoppingPair(1, 1)
    u, weighted_prev = evolve_solution(omega_s(1, 20), p, 0.0, 0.0, 1.0, 20)
    assert u[:8].tolist() == [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
    # One state per position 0..20.
    assert u.shape == weighted_prev.shape == (21,)


def test_evolve_solution_matches_cocycle():
    rng = np.random.default_rng(11)
    w = omega_s(1, 150)
    for _ in range(50):
        p = HoppingPair(rng.uniform(0.4, 2.2), rng.uniform(0.4, 2.2))
        E = rng.uniform(-4.0, 4.0)
        u0, u1 = rng.uniform(-2, 2, size=2)
        n = int(rng.integers(2, 150))
        u, weighted_prev = evolve_solution(w, p, E, u0, u1, n)
        vec = physical_products(cocycle(w, p, E, n)) @ [u[0], weighted_prev[0]]
        want = (u[n], weighted_prev[n])
        for got_c, want_c in zip(vec, want):
            assert abs(got_c - want_c) <= 1e-9 * max(1.0, abs(want_c))


def test_evolve_solution_growth_outside_spectrum():
    p = HoppingPair(1, 2)
    u, weighted_prev = evolve_solution(omega_s(1, 120), p, 10.0, 0.0, 1.0, 120)
    logs = [math.log(math.hypot(x, y)) for x, y in zip(u[10:], weighted_prev[10:])]
    # At E = 10 the solution gains at least half a unit of log-norm per step.
    gains = [(logs[-1] - logs[0]) / (len(logs) - 1)]
    assert gains[0] > 0.5


def _evolve_loop(window, p, E, u0, u1, n_max):
    # The per-site loop, one hopping per window.letter call, as the
    # reference for evolve_solution; the checks run first, as there.
    if not math.isfinite(E):
        raise ValueError(f"energies must be finite, got {E!r}")
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError(f"initial values must be finite, got u0 = {u0!r}, u1 = {u1!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not window.covers(1, n_max):
        raise WindowCoverageError("window")
    hop = {"a": p.a, "b": p.b}
    w_cur = hop[window.letter(1)]
    u_prev, u_cur = float(u0), float(u1)
    states = [(u_prev, E * u0 - w_cur * u1), (u_cur, w_cur * u_prev)]
    for pos in range(2, n_max + 1):
        w_next = hop[window.letter(pos)]
        u_prev, u_cur = u_cur, (E * u_cur - w_cur * u_prev) / w_next
        w_cur = w_next
        states.append((u_cur, w_cur * u_prev))
    return states


def _random_coupling(rng):
    # a from 1e-3 to 1e3, b/a from 1e-2 to 1e2, both log-uniform.
    a = float(10 ** rng.uniform(-3, 3))
    return HoppingPair(a, a * float(10 ** rng.uniform(-2, 2)))


def test_evolve_solution_matches_site_loop_bit_for_bit():
    # Random couplings, energies in and far outside the spectrum, initial
    # data up to 1e300 and windows starting at 1 and -5: the arrays hold the
    # per-site loop's states bit for bit, overflow to inf and nan included,
    # and every input the loop refuses is refused with the same error type.
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(600):
        p = _random_coupling(rng)
        E = [0.0, float(rng.uniform(-5, 5)) * max(p.a, p.b), 1e200, -1e300][rng.integers(4)]
        u0 = float(rng.uniform(-2, 2)) if rng.random() < 0.8 else 0.0
        u1 = float(rng.uniform(-1, 1) * 10 ** rng.uniform(0, 300))
        n_max = int(rng.integers(1, 401)) if rng.random() < 0.95 else int(rng.integers(-1, 1))
        window = omega_s(int(rng.choice([1, -5])), max(n_max, 2) + int(rng.integers(-1, 3)))
        try:
            want = _evolve_loop(window, p, E, u0, u1, n_max)
        except (ValueError, WindowCoverageError) as exc:
            with pytest.raises(type(exc)):
                evolve_solution(window, p, E, u0, u1, n_max)
            outcomes.add(type(exc))
            continue
        u, weighted_prev = evolve_solution(window, p, E, u0, u1, n_max)
        assert u.dtype == weighted_prev.dtype == np.float64
        assert u.tobytes() == np.array([s[0] for s in want]).tobytes()
        assert weighted_prev.tobytes() == np.array([s[1] for s in want]).tobytes()
        outcomes.add(bool(np.isfinite(u).all() and np.isfinite(weighted_prev).all()))
    assert outcomes == {True, False, ValueError, WindowCoverageError}


def test_no_decay_witness_matches_site_loop():
    # The witness from the per-site loop's states, norms by math.hypot: the
    # same float, or the same ArithmeticError when no level stays finite.
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(150):
        p = _random_coupling(rng)
        k = int(rng.integers(2, 12))
        E = [0.0, float(rng.uniform(-5, 5)) * max(p.a, p.b), 1e200][rng.integers(3)]
        u0, u1 = rng.uniform(-2, 2, size=2).tolist()
        w = omega_s(1, 2 * square_prefix_block(k))
        norms = [math.hypot(*s) for s in _evolve_loop(w, p, E, u0, u1, len(w.letters))]
        masses = [max(norms[n], norms[2 * n]) for n in map(square_prefix_block, range(2, k + 1))]
        finite = [m for m in masses if math.isfinite(m)]
        if finite and math.isfinite(norms[0]):
            assert no_decay_witness(w, p, E, k, u0, u1) == min(finite) / norms[0]
            outcomes.add("ok")
        else:
            with pytest.raises(ArithmeticError, match="no finite relative mass"):
                no_decay_witness(w, p, E, k, u0, u1)
            outcomes.add("error")
    assert outcomes == {"ok", "error"}


def test_evolve_solution_rejects_non_finite_input():
    p = HoppingPair(1, 2)
    w = omega_s(1, 20)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energies must be finite"):
            evolve_solution(w, p, bad, 0.0, 1.0, 20)
        with pytest.raises(ValueError, match="initial values must be finite"):
            evolve_solution(w, p, 0.0, bad, 1.0, 20)
        with pytest.raises(ValueError, match="initial values must be finite"):
            evolve_solution(w, p, 0.0, 0.0, bad, 20)


def test_evolve_solution_window_coverage():
    p = HoppingPair(1, 2)
    with pytest.raises(WindowCoverageError):
        evolve_solution(omega_s(1, 5), p, 1.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        evolve_solution(omega_s(1, 5), p, 1.0, 0.0, 1.0, 0)


def test_lyapunov_free_chain_zero():
    est = lyapunov(HoppingPair(1, 1), 0.0, fibonacci(16))
    assert isinstance(est, LyapunovEstimate)
    assert est.gamma <= 1e-4
    assert est.n_used == fibonacci(16)


def test_lyapunov_in_spectrum_small():
    est = lyapunov(HoppingPair(1, 2), 0.0, fibonacci(20))
    assert est.gamma <= 1e-2
    assert est.residual < 5.0


def test_lyapunov_outside_spectrum_large():
    est = lyapunov(HoppingPair(1, 2), 10.0, fibonacci(16))
    assert est.gamma >= math.log(2.0)
    # Compare against the direct solution growth rate.
    u, weighted_prev = evolve_solution(omega_s(1, 200), HoppingPair(1, 2), 10.0, 0.0, 1.0, 200)
    norm = [math.hypot(x, y) for x, y in zip(u.tolist(), weighted_prev.tolist())]
    direct = (math.log(norm[200]) - math.log(norm[100])) / 100.0
    assert est.gamma == pytest.approx(direct, rel=0.05)


def test_lyapunov_nonnegative_on_grid():
    grid = np.linspace(-5, 5, 41)
    gamma, residual, n_used = lyapunov_grid(HoppingPair(1, 2), grid, fibonacci(14))
    assert gamma.shape == grid.shape
    assert np.all(gamma >= 0.0)
    assert np.all(np.isfinite(residual))
    assert n_used == fibonacci(14)


def test_lyapunov_grid_independent_of_chunking():
    # Each exponent comes from its own energy's orbit alone: a split grid, or
    # a single energy, gives the same bits as the whole grid.
    p = HoppingPair(1, 2)
    grid = np.linspace(-5.0, 5.0, 2001)
    n = fibonacci(18)
    gamma, residual, _ = lyapunov_grid(p, grid, n)
    for parts in (2, 3, 7):
        chunks = [lyapunov_grid(p, c, n) for c in np.array_split(grid, parts)]
        assert np.concatenate([g for g, _, _ in chunks]).tobytes() == gamma.tobytes()
        assert np.concatenate([r for _, r, _ in chunks]).tobytes() == residual.tobytes()
    for i in range(0, grid.size, 50):
        est = lyapunov(p, float(grid[i]), n)
        assert (est.gamma, est.residual) == (gamma[i], residual[i])


def test_lyapunov_default_window_matches_linear_loop():
    # The default scan (the special hull element) agrees with the same scan
    # over the explicit window omega_s(1, n), the one-factor reference path,
    # from weak to strong coupling and from the shortest fit up.
    couplings = [HoppingPair(1, b) for b in (1.0001, 1.2, 2, 3.3, 4.7, 20, 100)]
    for p in [*couplings, HoppingPair(0.5, 1)]:
        hop = max(p.a, p.b)
        grid = np.linspace(-2.5 * hop, 2.5 * hop, 101)
        for n in (5, 6, 8, 13, 21, 100, 2584, 17711):
            gamma, residual, n_used = lyapunov_grid(p, grid, n)
            ref_gamma, ref_residual, ref_n = lyapunov_grid(p, grid, n, window=omega_s(1, n))
            assert n_used == ref_n
            assert np.max(np.abs(gamma - ref_gamma)) <= 1e-9, (p, n)
            assert np.max(np.abs(residual - ref_residual)) <= 1e-7, (p, n)


def _mpmath_levels(p, E, top):
    # M(s_j) for j = 1..top by the recursion M(s_{j+1}) = M(s_{j-1}) M(s_j)
    # from the one-step factors of b and a, at 50 digits, as (m11, m12, m21, m22).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = mpmath.mpf(E)
        left, right = ((e / w, -1 / w, w, mpmath.mpf(0)) for w in (mpmath.mpf(p.b), mpmath.mpf(p.a)))
        levels = [right]
        for _ in range(top - 1):
            (l11, l12, l21, l22), (r11, r12, r21, r22) = left, right
            left, right = right, (
                l11 * r11 + l12 * r21, l11 * r12 + l12 * r22, l21 * r11 + l22 * r21, l21 * r12 + l22 * r22
            )
            levels.append(right)
        return levels


@pytest.mark.parametrize("b", [1.0001, 1.3, 2.7, 4.9, 100.0, 1999.0])
def test_hull_products_match_high_precision_recursion(b):
    # Levels 1..24 at hopping scales 1e-200, 1 and 1e200, at energies within
    # and beyond the norm bound 2 max(a, b): the Frobenius norm to 2 eps
    # relative (times |log norm| where that exceeds 1, the rounding of the
    # log-scale itself), and the entries over the norm to 2 eps.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for a in (1e-200, 1.0, 1e200):
        p = HoppingPair(a, a * b)
        E = np.array([0.0, 0.37, -1.3, 1.9, 2.5, -7.0]) * p.b
        got = _hull_products(p, E, list(range(1, 25)))
        assert got.shape == (24, 5, E.size)
        for i, e in enumerate(E.tolist()):
            for row, want in zip(got[:, :, i].tolist(), _mpmath_levels(p, e, 24)):
                with mpmath.workdps(50):
                    norm = mpmath.sqrt(mpmath.fsum(x**2 for x in want))
                    log_norm = mpmath.log(norm)
                    got_norm = math.sqrt(math.fsum(x * x for x in row[:4]))
                    log_got = row[4] + mpmath.log(got_norm)
                    assert abs(log_got - log_norm) <= 2 * eps * max(1.0, abs(log_norm)), (a, e)
                    for x, y in zip(row[:4], want):
                        assert abs(x / got_norm - y / norm) <= 2 * eps, (a, e)


def test_hull_products_refuse_factors_past_double_range():
    # A factor with |E / w| past double range names position 1 for a and 2
    # for b, at the first such energy; nothing is returned as inf or NaN.
    E = np.array([1.0, 1e300, -1e300])
    with pytest.raises(CocycleRangeError, match=r"E = 1e\+300 leaves double range by position 1$"):
        _hull_products(HoppingPair(1e-10, 2.0), E, [3, 4])
    with pytest.raises(CocycleRangeError, match=r"E = 1e\+300 leaves double range by position 2$"):
        _hull_products(HoppingPair(2.0, 1e-10), E, [3, 4])
    # Where 32 one-step factors leave double range, the level products do not.
    got = _hull_products(HoppingPair(1e-10, 2.0), np.array([1e290, -1e290]), [20, 21])
    assert np.isfinite(got).all()


def test_lyapunov_fit_adds_its_denominator_left_to_right():
    # At n = 2584 the centered squares of the fitted checkpoints add to
    # 5849725.555555556 left to right and one ulp lower compensated, as
    # Python 3.12's sum adds them; the fit divides by the former.
    p = HoppingPair(1, 2)
    E = np.linspace(-4.0, 4.0, 41)
    checkpoints = _fibonacci_checkpoints(2584)
    first = len(checkpoints) // 2
    xs = checkpoints[first:]
    x_mean = sum(xs) / len(xs)
    squares = [(x - x_mean) ** 2 for x in xs]
    x_var = 0.0
    for square in squares:
        x_var += square
    assert x_var == 5849725.555555556 != math.fsum(squares)
    prods = _hull_products(p, E, list(range(first + 1, len(checkpoints) + 1)))
    m11, m12, m21, m22, scale = prods.transpose(1, 0, 2)
    ys = 0.5 * np.log(m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22) + scale
    slope = sum((x - x_mean) * y for x, y in zip(xs, ys)) / x_var
    gamma, _, _ = lyapunov_grid(p, E, 2584)
    assert gamma.tobytes() == np.clip(slope, 0.0, None).tobytes()


def _mpmath_lyapunov(p, E, n):
    # Factor-by-factor cocycle over omega_s(1, n) at 40 digits, fit over the
    # same checkpoints as lyapunov_grid: (gamma, residual) as floats.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs = [fibonacci(j) for j in range(1, 64) if fibonacci(j) <= n]
        xs = xs[len(xs) // 2 :]
        e = mpmath.mpf(E)
        hop = {c: (mpmath.mpf(w), 1 / mpmath.mpf(w)) for c, w in (("a", p.a), ("b", p.b))}
        m11, m12, m21, m22 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        ys, stops = [], set(xs)
        for pos, letter in enumerate(omega_s(1, xs[-1]).letters, 1):
            w, inv = hop[letter]
            m11, m12, m21, m22 = (e * m11 - m21) * inv, (e * m12 - m22) * inv, w * m11, w * m12
            if pos in stops:
                ys.append(mpmath.log(m11**2 + m12**2 + m21**2 + m22**2) / 2)
        x_mean = mpmath.fsum(xs) / len(xs)
        slope = mpmath.fsum((x - x_mean) * y for x, y in zip(xs, ys)) / mpmath.fsum(
            (x - x_mean) ** 2 for x in xs
        )
        intercept = mpmath.fsum(ys) / len(xs) - slope * x_mean
        residual = mpmath.sqrt(mpmath.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / len(xs))
        return max(float(slope), 0.0), float(residual)


def test_lyapunov_matches_high_precision_products():
    # At (1, 3.3) the scans sit near E = +-4.01775, where rounding in the
    # products shows most; both paths are checked against 40-digit products.
    p = HoppingPair(1, 3.3)
    for E, n in ((4.01775, 17711), (-4.01775, 17711), (4.01775, 46368)):
        want_gamma, want_residual = _mpmath_lyapunov(p, E, n)
        for window in (None, omega_s(1, n)):
            est = lyapunov(p, E, n, window=window)
            assert abs(est.gamma - want_gamma) <= 1e-13, (E, n, window is None)
            assert abs(est.residual - want_residual) <= 1e-10, (E, n, window is None)


def test_lyapunov_past_the_factor_loop_range_matches_high_precision_products():
    # At |E| >= 1e12 the one-factor loop leaves double range within 32
    # factors; the default window's level products do not, and agree with
    # the 40-digit factor-by-factor products.
    p = HoppingPair(1, 2)
    n = 2584
    gamma, residual, _ = lyapunov_grid(p, [1e12, -1e30], n)
    for E, g, r in zip((1e12, -1e30), gamma.tolist(), residual.tolist()):
        want_gamma, want_residual = _mpmath_lyapunov(p, E, n)
        assert abs(g - want_gamma) <= 1e-13, E
        assert abs(r - want_residual) <= 1e-10, E


def test_lyapunov_uniform_across_hull_windows():
    # Estimates over the canonical window and five shifted hull windows
    # agree: the exponent does not depend on the hull element.
    p = HoppingPair(1, 2)
    n = fibonacci(18)
    for E in [0.0, 1.0, 5.0]:
        base = lyapunov(p, E, n).gamma
        for shift in [7, 34, 101, 555, 2000]:
            win = window_from_word(omega_s(1 + shift, n + shift).letters)
            other = lyapunov(p, E, n, window=win).gamma
            assert abs(other - base) <= 1e-2


def test_cayley_hamilton_defect_hull_example():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(6))
    assert cayley_hamilton_defect(w, p, 0.0, 4) <= 1e-10


def test_cayley_hamilton_defect_grid():
    rng = np.random.default_rng(13)
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(11))
    count = 0
    while count < 100:
        E = float(rng.uniform(-4.0, 4.0))
        k = int(rng.integers(2, 11))
        assert cayley_hamilton_defect(w, p, E, k) <= 1e-8
        count += 1


def test_cayley_hamilton_defect_strong_coupling():
    # At b = 150 the squares of M(n)'s entries overflow; the norms of the
    # scaled matrices keep the defect at rounding level.  At b = 1e5, M(2n)
    # over the level-9 square itself leaves double range.
    w = omega_s(1, 2 * square_prefix_block(9))
    energies = np.linspace(-4.0, 4.0, 10) + 0.013
    for k in range(2, 10):
        assert np.all(cayley_hamilton_defect(w, HoppingPair(1, 150), energies, k) <= 1e-12)
    assert cayley_hamilton_defect(w, HoppingPair(1, 1e5), 3.0, 8) <= 1e-12
    with pytest.raises(ArithmeticError, match=r"level-9 square at E = 3\.0 leaves double range"):
        cayley_hamilton_defect(w, HoppingPair(1, 1e5), 3.0, 9)


def _defect_loop(window, p, E, k):
    # One pair of physical matrices per energy, by the per-element rule, as
    # the reference for the stacked table read of cayley_hamilton_defect.
    n = square_prefix_block(k)
    energies = np.atleast_1d(E)
    try:
        table = cocycles([window], p, energies, [n, 2 * n])[:, :, 0]
    except CocycleRangeError as exc:
        raise ArithmeticError(f"{exc}, level {k} (square over positions 1..{2 * n})") from None
    halves, fulls = table.transpose(0, 2, 1).tolist()
    xs = finite_traces(p, energies, k + 1).tolist()
    defects = []
    for e, half, full, x in zip(energies.tolist(), halves, fulls, xs):
        with np.errstate(over="ignore"):
            try:
                m_half, m_full = _physical(half), _physical(full)
            except OverflowError:
                m_half = m_full = np.full((2, 2), math.inf)
        if not np.isfinite([m_half, m_full]).all():
            raise ArithmeticError(
                f"cocycle M(2n) over the level-{k} square at E = {e!r} leaves double range"
            )
        s = math.ldexp(1.0, math.frexp(float(np.abs(m_half).max()))[1] - 1)
        h = m_half / s
        lhs = m_full / s - 2.0 * x * h + np.eye(2) / s
        defects.append(float(np.linalg.norm(lhs)) / (1.0 / s + s * float(np.sum(h * h))))
    return defects[0] if np.ndim(E) == 0 else np.array(defects)


def _outcome(fn, *args):
    """fn's result, or the type and message of the ArithmeticError it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("b", [1.3, 2.7, 4.9, 150.0, 1999.0, 1e5])
def test_cayley_hamilton_defect_matches_per_matrix_loop(b):
    # The verify grid and a wider one, every level of the check: each defect
    # has the per-matrix loop's bits, and a failure its message.  At b = 1e5
    # M(2n) leaves double range from level 9 on.
    p = HoppingPair(1, b)
    w = omega_s(1, 2 * square_prefix_block(9))
    for energies in (np.linspace(-4.0, 4.0, 10) + 0.013, np.linspace(-2.2 * b, 2.2 * b, 37)):
        for k in range(2, 10):
            got, want = (_outcome(f, w, p, energies, k) for f in (cayley_hamilton_defect, _defect_loop))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes(), (b, k)
        assert cayley_hamilton_defect(w, p, float(energies[3]), 5) == _defect_loop(
            w, p, float(energies[3]), 5
        )


def test_table_reads_keep_the_per_element_bits():
    # Half-traces and physical products read from a table row equal the
    # per-element rules applied to each entry, up to and past overflow of
    # the scale.
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(5, 3, 40))
    rows[4] = rng.choice([0.0, -3.5, 12.25, 709.0, 709.75, -745.5], size=(3, 40))
    mats = rows.reshape(5, -1).T.tolist()
    assert trace_halves(rows).ravel().tolist() == [_trace_half(m) for m in mats]
    with np.errstate(over="ignore"):
        want = [_physical(m).ravel().tobytes() for m in mats]
    assert [m.tobytes() for m in physical_products(rows).reshape(4, -1).T] == want
    # Past double range math.exp raises in both rules: the table read
    # raises as well, or marks that product's entries not finite.
    rows[4, 1, 7] = 710.0
    with pytest.raises(OverflowError):
        _trace_half(rows[:, 1, 7].tolist())
    with pytest.raises(OverflowError):
        _physical(rows[:, 1, 7].tolist())
    with pytest.raises(OverflowError):
        trace_halves(rows)
    assert not np.isfinite(physical_products(rows)[:, :, 1, 7]).any()


def test_cayley_hamilton_defect_requires_square():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(6))
    with pytest.raises(SquareStructureError):
        cayley_hamilton_defect(w, p, 0.0, 1)  # the hull word is not a level-1 square
    bad = window_from_word("babab" * 4)
    with pytest.raises(SquareStructureError):
        cayley_hamilton_defect(bad, p, 0.0, 3)
    with pytest.raises(SquareStructureError, match="does not start with a level-2 repeated block"):
        no_decay_witness(bad, p, 0.0, 3, 0.0, 1.0)


def test_no_decay_witness_bounded_energy():
    # E = 0 has a bounded trace orbit at (1, 2); every nonzero solution keeps
    # at least 1/(1 + 2 * trace_bound) of its mass at the return positions.
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(9))
    floor = 1.0 / (1.0 + 2.0 * trace_bound(p))
    rng = np.random.default_rng(15)
    for _ in range(20):
        u0, u1 = rng.uniform(-2, 2, size=2)
        wit = no_decay_witness(w, p, 0.0, 8, float(u0), float(u1))
        assert wit >= floor


def test_no_decay_witness_outside_spectrum_large():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(9))
    assert no_decay_witness(w, p, 10.0, 8, 0.0, 1.0) > 10.0


def test_no_decay_witness_rejects_zero_solution():
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(9))
    with pytest.raises(ValueError):
        no_decay_witness(w, p, 0.0, 8, 0.0, 0.0)
    with pytest.raises(ValueError):
        no_decay_witness(w, p, 0.0, 1, 0.0, 1.0)


def test_no_decay_witness_fails_instead_of_inf():
    # A non-finite energy is rejected; an energy whose solution overflows
    # on every level raises with that energy instead of returning inf.
    p = HoppingPair(1, 2)
    w = omega_s(1, 2 * fibonacci(9))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="energies must be finite"):
            no_decay_witness(w, p, bad, 8, 0.0, 1.0)
    with pytest.raises(ArithmeticError, match=r"E = 1e\+200 "):
        no_decay_witness(w, p, 1e200, 8, 0.0, 1.0)
