"""Combinatorial oracles for the substitution-word layer.

Small cases are written out by hand; structural identities (prefix
recursion, suffix stabilization, Sturmian complexity) are checked over
ranges large enough to exercise the generation code paths.
"""

import time
import tracemalloc

import pytest

from fibjacobi.words import (
    SignedWindow,
    WindowCoverageError,
    WordLengthError,
    cyclic_conjugates,
    factor_complexity,
    fib_prefix,
    fibonacci,
    omega_s,
    periodize,
    square_prefix_block,
    square_prefix_check,
    substitute,
    subwords,
    window_from_word,
)


def test_fibonacci_values():
    assert [fibonacci(k) for k in range(11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_fibonacci_no_overflow():
    # Arbitrary-precision integers: F_300 is exact and positive.
    f = fibonacci(300)
    assert f > 10**60
    assert fibonacci(300) == fibonacci(299) + fibonacci(298)


def test_substitute_base_cases():
    assert substitute("a") == "ab"
    assert substitute("b") == "a"
    assert substitute("ab") == "aba"
    assert substitute("aba") == "abaab"
    assert substitute("abaab") == "abaababa"
    with pytest.raises(ValueError):
        substitute("abc")


def test_fib_prefix_small():
    assert fib_prefix(1) == "a"
    assert fib_prefix(2) == "ab"
    assert fib_prefix(3) == "aba"
    assert fib_prefix(4) == "abaab"
    assert fib_prefix(5) == "abaababa"
    with pytest.raises(ValueError):
        fib_prefix(0)


def test_fib_prefix_recursion():
    for k in range(3, 26):
        assert fib_prefix(k) == fib_prefix(k - 1) + fib_prefix(k - 2)
        assert len(fib_prefix(k)) == fibonacci(k)


def test_fib_prefix_is_substitution_iterate():
    w = "a"
    for k in range(1, 15):
        assert fib_prefix(k) == w
        w = substitute(w)


def test_fib_prefix_cap():
    with pytest.raises(WordLengthError):
        fib_prefix(60)


@pytest.mark.parametrize(
    "call, level",
    [
        (lambda: fib_prefix(300_000), 300_000),
        (lambda: cyclic_conjugates(300_000), 300_001),
        (lambda: square_prefix_check(omega_s(1, 4), 300_000), 300_001),
    ],
    ids=["fib_prefix", "cyclic_conjugates", "square_prefix_check"],
)
def test_deep_levels_refused_before_f_k(call, level):
    # F_300000 takes seconds to compute and has too many digits to print;
    # the level is checked against s_37, the deepest prefix within the cap.
    assert fibonacci(37) <= 50_000_000 < fibonacci(38)
    start = time.perf_counter()
    with pytest.raises(WordLengthError, match=rf"needs s_{level}, .* only s_1\.\.s_37 fit the cap of 50000000"):
        call()
    assert time.perf_counter() - start < 0.1


def test_signed_window_basics():
    w = SignedWindow(-2, 3, "aababa")
    assert w.letter(-2) == "a"
    assert w.letter(0) == "b"
    assert w.letter(1) == "a"
    assert w.slice(-1, 1) == "aba"
    assert w.covers(-2, 3)
    assert not w.covers(-3, 0)
    with pytest.raises(WindowCoverageError):
        w.letter(4)
    with pytest.raises(WindowCoverageError):
        w.slice(0, 5)
    with pytest.raises(ValueError, match="slice requires lo <= hi"):
        w.slice(1, 0)
    with pytest.raises(ValueError):
        SignedWindow(2, 1, "")
    with pytest.raises(ValueError):
        SignedWindow(1, 3, "ab")


def test_window_from_word_and_periodize():
    w = window_from_word("abaab")
    assert (w.lo, w.hi, w.letters) == (1, 5, "abaab")
    p = periodize("ab", 5)
    assert p.letters == "ababa"
    p2 = periodize("aba", 7)
    assert (p2.lo, p2.hi, p2.letters) == (1, 7, "abaabaa")
    with pytest.raises(ValueError):
        periodize("", 3)


def test_omega_s_right_half_is_fibonacci_word():
    assert omega_s(1, 5).letters == "abaab"
    assert omega_s(1, 13).letters == "abaababaabaab"
    for k in range(1, 26):
        assert omega_s(1, fibonacci(k)).letters == fib_prefix(k)


def test_omega_s_left_half():
    # Left of the origin is the stable suffix of the even prefixes.
    assert omega_s(0, 0).letters == "b"
    assert omega_s(-1, 0).letters == "ab"
    assert omega_s(-2, 0).letters == "aab"
    assert omega_s(-4, 0).letters == "abaab"
    n = fibonacci(12)
    assert omega_s(1 - n, 0).letters == fib_prefix(12)


def test_omega_s_left_suffixes_stabilize():
    # s_{2m+2} ends with s_{2m}, so deeper iterates agree on any window.
    for m in range(2, 12, 2):
        assert fib_prefix(m + 2).endswith(fib_prefix(m))


def test_omega_s_two_sided():
    assert omega_s(-2, 3).letters == "aababa"
    w = omega_s(-8, 8)
    assert w.slice(1, 8) == fib_prefix(5)
    assert w.slice(-7, 0) == fib_prefix(6)[-8:]


def test_omega_s_windows_left_of_the_origin():
    # A window ending left of position 0 holds its own positions, not the
    # whole left half from lo on.
    assert omega_s(-5, -2).letters == "aaba"
    ref = omega_s(-30, 0)
    for lo in range(-30, 0):
        for hi in range(lo, 0):
            assert omega_s(lo, hi).letters == ref.slice(lo, hi), (lo, hi)


def test_omega_s_argument_validation():
    with pytest.raises(ValueError):
        omega_s(3, 1)
    with pytest.raises(WordLengthError, match="omega_s window of 50000001 letters over the cap"):
        omega_s(0, 50_000_000)


def test_subwords_small():
    assert subwords(1) == {"a", "b"}
    assert subwords(2) == {"ab", "ba", "aa"}
    assert subwords(3) == {"aba", "baa", "aab", "bab"}


def test_subwords_complexity():
    # Sturmian complexity: exactly L + 1 factors of each length.
    for L in range(1, 51):
        facs = subwords(L)
        assert len(facs) == L + 1
        for f in facs:
            assert "bb" not in f
            assert "aaa" not in f


def test_subwords_validation():
    with pytest.raises(ValueError):
        subwords(0)
    # Factors of length 2e7 need a prefix of 6e7 + 4 letters or more.
    with pytest.raises(WordLengthError, match=r"S\^37\(a\) has 63245986 letters, over the cap"):
        subwords(20_000_000)


def test_cyclic_conjugates_small():
    assert cyclic_conjugates(1) == ["ab", "ba"]
    assert cyclic_conjugates(2) == ["aba", "baa", "aab"]
    assert cyclic_conjugates(3) == ["abaab", "baaba", "aabab", "ababa", "babaa"]
    with pytest.raises(ValueError, match="cyclic_conjugates requires k >= 1, got 0"):
        cyclic_conjugates(0)


def test_cyclic_conjugates_distinct():
    for k in range(1, 12):
        rots = cyclic_conjugates(k)
        assert len(rots) == fibonacci(k + 1)
        assert len(set(rots)) == len(rots)
        assert rots[0] == fib_prefix(k + 1)


def test_cyclic_conjugates_cap():
    # F_19^2 = 45,765,225 letters fit the cap at k = 18; k = 19 would build
    # F_20 = 10,946 rotations of 10,946 letters, and raises before any.
    assert fibonacci(19) ** 2 <= 50_000_000 < fibonacci(20) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(WordLengthError, match=r"the 10946 rotations of S\^19\(a\) hold 119814916 letters"):
            cyclic_conjugates(19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_factor_complexity_counts_and_cap():
    assert factor_complexity(0) == []
    assert factor_complexity(6) == [2, 3, 4, 5, 6, 7]
    # Lengths up to 200 (the README, the golden forms, the benchmark's
    # crosscheck) slice at most 7.2M letters; the cap is first passed at 371.
    assert factor_complexity(200) == list(range(2, 202))
    for n in (371, 1000, 100_000):
        with pytest.raises(WordLengthError, match="cap of 50000000 letters \\(passed at length 371\\)"):
            factor_complexity(n)


def test_factor_complexity_refuses_negative_lengths():
    for n in (-1, -200):
        with pytest.raises(ValueError, match=f"factor counts need a length n >= 0, got {n}"):
            factor_complexity(n)


def test_square_prefix_block_lengths():
    assert [square_prefix_block(k) for k in range(1, 6)] == [2, 3, 5, 8, 13]
    with pytest.raises(ValueError, match="square level must be >= 1, got 0"):
        square_prefix_block(0)


def test_square_prefix_check_on_hull_element():
    # The one-sided word starts with a repeated level-k block for k >= 2.
    for k in range(2, 16):
        w = omega_s(1, 2 * square_prefix_block(k))
        assert square_prefix_check(w, k)


def test_square_prefix_check_fails_at_level_one():
    # Positions 1..4 read "abaa": halves "ab" and "aa" differ.
    w = omega_s(1, 4)
    assert not square_prefix_check(w, 1)


def test_square_prefix_check_conjugate_requirement():
    # An exact square of a conjugate passes; a square of a non-factor fails.
    w = window_from_word("baaba" * 2)
    assert square_prefix_check(w, 3)
    bad = window_from_word("babab" * 2)
    assert not square_prefix_check(bad, 3)


def _square_by_rotations(w, k):
    """square_prefix_check from its definition: a repeated cyclic conjugate of S^k(a)."""
    n = square_prefix_block(k)
    first = w.slice(1, n)
    return first == w.slice(n + 1, 2 * n) and first in cyclic_conjugates(k)


def _flip(word, i):
    return word[:i] + "ab"[word[i] == "a"] + word[i + 1 :]


def test_square_prefix_check_matches_the_rotation_set():
    # Hull windows, a conjugate squared, and both with a letter flipped (in
    # one half, or in both at the same place) or shifted by one position.
    hull = omega_s(1, 2 * square_prefix_block(12) + 1).letters
    results = set()
    for k in range(1, 13):
        n = square_prefix_block(k)
        rot = cyclic_conjugates(k)[n // 3]
        words = [hull, hull[1:], rot + rot, rot[1:] + rot + rot[0]]
        for i in (0, n // 2, n - 1):
            words += [_flip(hull, i), _flip(hull, n + i), _flip(_flip(rot + rot, i), n + i)]
        for word in words:
            w = window_from_word(word[: 2 * n])
            want = _square_by_rotations(w, k)
            assert square_prefix_check(w, k) == want, (k, word[: 2 * n])
            results.add(want)
    assert results == {True, False}


def test_square_prefix_check_runs_in_linear_memory():
    # At k = 20 the F_21 = 10946 rotations of S^20(a) hold 1.2e8 letters.
    n = square_prefix_block(20)
    w = omega_s(1, 2 * n)
    tracemalloc.start()
    try:
        assert square_prefix_check(w, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_square_prefix_check_window_too_short():
    with pytest.raises(WindowCoverageError):
        square_prefix_check(omega_s(1, 5), 2)
    # A window missing position 1 cannot be checked even if it is long.
    with pytest.raises(WindowCoverageError):
        square_prefix_check(SignedWindow(2, 11, "ab" * 5), 2)
