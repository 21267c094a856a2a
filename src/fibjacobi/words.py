"""Fibonacci substitution words, hull windows, and Sturmian combinatorics.

The substitution S(a) = ab, S(b) = a has a unique one-sided fixed point
u = abaababaabaab..., the Fibonacci word.  Everything spectral in this
package is driven by finite windows of the two-sided sequence obtained by
iterating S^2 on the seed b|a: to the right of the origin it coincides
with u, to the left it is the limit of S^(2m)(b) ending at position 0.

Words are plain strings over the alphabet "ab".  Positions in two-sided
windows are integers; position 1 is the first letter of u.
"""

from __future__ import annotations

from dataclasses import dataclass

LETTER_A = "a"
LETTER_B = "b"
ALPHABET = "ab"

# Hard cap on materialized letters; generating beyond this is a caller bug,
# not a meaningful computation.
_MAX_LETTERS = 50_000_000

_SUBST = {LETTER_A: "ab", LETTER_B: "a"}


class WordLengthError(ValueError):
    """Requested word would exceed the materialization cap."""


class InsufficientDepthError(ValueError):
    """Substitution depth too small for a stable factor set."""


class WindowCoverageError(ValueError):
    """A SignedWindow does not cover the positions an operation needs."""


def fibonacci(k: int) -> int:
    """F_k with F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}.

    Python integers are arbitrary precision, so no wrapping can occur.
    """
    if k < 0:
        raise ValueError(f"fibonacci index must be >= 0, got {k}")
    f_prev, f_cur = 1, 1
    for _ in range(k):
        f_prev, f_cur = f_cur, f_prev + f_cur
    return f_prev


# The deepest prefix s_k within the cap, checked before F_k (seconds at k = 3e5) is computed.
_MAX_LEVEL = max(k for k in range(64) if fibonacci(k) <= _MAX_LETTERS)


def _check_level(what: str, k: int) -> None:
    """WordLengthError where `what` needs s_k and k is past _MAX_LEVEL."""
    if k > _MAX_LEVEL:
        raise WordLengthError(
            f"{what} needs s_{k}, of F_{k} letters; only s_1..s_{_MAX_LEVEL} fit the cap "
            f"of {_MAX_LETTERS} letters"
        )


def substitute(w: str) -> str:
    """Image of a word under S(a) = ab, S(b) = a, extended by concatenation."""
    _check_word(w)
    return "".join(_SUBST[c] for c in w)


def fib_prefix(k: int) -> str:
    """Prefix s_k of u of length F_k; s_1 = "a", s_2 = "ab", s_{k+1} = s_k s_{k-1}."""
    if k < 1:
        raise ValueError(f"fib_prefix requires k >= 1, got {k}")
    _check_level(f"fib_prefix({k})", k)
    s_prev, s_cur = "b", "a"  # s_0, with S(b) = a, and s_1
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, s_cur + s_prev
    return s_cur


@dataclass(frozen=True)
class SignedWindow:
    """Letters of a hull sequence on the integer positions lo..hi inclusive."""

    lo: int
    hi: int
    letters: str

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"window requires lo <= hi, got ({self.lo}, {self.hi})")
        if len(self.letters) != self.hi - self.lo + 1:
            raise ValueError(
                f"window ({self.lo}, {self.hi}) needs {self.hi - self.lo + 1} "
                f"letters, got {len(self.letters)}"
            )
        _check_word(self.letters, self.lo)

    def letter(self, n: int) -> str:
        if not self.lo <= n <= self.hi:
            raise WindowCoverageError(f"position {n} outside window ({self.lo}, {self.hi})")
        return self.letters[n - self.lo]

    def slice(self, lo: int, hi: int) -> str:
        """Letters on positions lo..hi inclusive."""
        if lo > hi:
            raise ValueError("slice requires lo <= hi")
        if lo < self.lo or hi > self.hi:
            raise WindowCoverageError(
                f"slice ({lo}, {hi}) outside window ({self.lo}, {self.hi})"
            )
        return self.letters[lo - self.lo : hi - self.lo + 1]

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi


def window_from_word(w: str) -> SignedWindow:
    """Wrap a plain word as a window starting at position 1."""
    return SignedWindow(1, len(w), w)


def periodize(w: str, n_letters: int) -> SignedWindow:
    """Window of n_letters letters starting at position 1, repeating w."""
    if not w:
        raise ValueError("cannot periodize the empty word")
    if n_letters > _MAX_LETTERS:
        raise WordLengthError(f"periodization of {n_letters} letters over the cap")
    reps = -(-n_letters // len(w))
    return SignedWindow(1, n_letters, (w * reps)[:n_letters])


def omega_s(lo: int, hi: int) -> SignedWindow:
    """Window of the special hull element on positions lo..hi.

    Positions n >= 1 carry u_n.  Positions n <= 0 carry the limit of
    S^(2m)(b) aligned so its last letter sits at position 0; since
    S^(2m)(b) = s_{2m} and s_{2m+2} ends with s_{2m}, the suffixes
    stabilize and the left half-line is well defined.
    """
    if lo > hi:
        raise ValueError(f"omega_s requires lo <= hi, got ({lo}, {hi})")
    if hi - lo + 1 > _MAX_LETTERS:
        raise WordLengthError(f"omega_s window of {hi - lo + 1} letters over the cap")
    right = ""
    if hi >= 1:
        k = 1
        while fibonacci(k) < hi:
            k += 1
        right = fib_prefix(k)[: hi]
    left = ""
    if lo <= 0:
        need = 1 - lo  # letters on positions lo..0
        m = 2
        while fibonacci(m) < need:
            m += 2
        src = fib_prefix(m)  # equals S^m(b) for even m
        left = src[len(src) - need :]
    # left + right holds positions min(lo, 1)..max(hi, 0).
    first = min(lo, 1)
    return SignedWindow(lo, hi, (left + right)[lo - first : hi - first + 1])


def subwords(L: int) -> set[str]:
    """All length-L factors of u, enumerated from S^depth(a).

    depth is the smallest m with F_{m+1} >= 3L + 4; every length-L factor
    already occurs in a prefix of length about phi^2 L ~ 2.62 L, so that is
    deep enough for the factor set to have stabilized.  The result must
    have exactly L + 1 elements (Sturmian complexity); a smaller count
    means the depth was insufficient and is reported as such.
    """
    if L < 1:
        raise ValueError(f"subwords requires L >= 1, got {L}")
    depth = _stable_depth(L)
    length = fibonacci(depth + 1)  # |S^depth(a)|
    if length > _MAX_LETTERS:
        raise WordLengthError(f"S^{depth}(a) has {length} letters, over the cap")
    word = fib_prefix(depth + 1)
    found = {word[i : i + L] for i in range(length - L + 1)}
    if len(found) != L + 1:
        raise InsufficientDepthError(
            f"factor set of length {L} at depth {depth} has {len(found)} "
            f"elements, expected {L + 1}"
        )
    return found


def factor_complexity(n: int) -> list[int]:
    """Counts of the factors of u of lengths 1..n (L + 1 each, from subwords).

    The scan at length L slices L (|S^depth(a)| - L + 1) letters, about
    8 n^3 / 3 over all lengths: 7.2M at n = 200, 1G at n = 1000.  An n
    whose scan would slice more than _MAX_LETTERS letters raises
    WordLengthError before any slicing, and a negative n ValueError.
    """
    if n < 0:
        raise ValueError(f"factor counts need a length n >= 0, got {n}")
    letters = 0
    for L in range(1, n + 1):
        letters += L * (fibonacci(_stable_depth(L) + 1) - L + 1)
        if letters > _MAX_LETTERS:
            raise WordLengthError(
                f"factor counts to length {n} slice more than the cap of "
                f"{_MAX_LETTERS} letters (passed at length {L})"
            )
    return [len(subwords(L)) for L in range(1, n + 1)]


def _stable_depth(L: int) -> int:
    m, f_m, f_next = 1, 1, 2  # F_m, F_{m+1}
    while f_next < 3 * L + 4:
        m, f_m, f_next = m + 1, f_next, f_m + f_next
    return m


def cyclic_conjugates(k: int) -> list[str]:
    """All rotations of S^k(a), starting from S^k(a) itself.

    S^k(a) is primitive, so the rotations are pairwise distinct; this is
    asserted rather than silently deduplicated.  The F_{k+1} rotations hold
    F_{k+1}^2 letters, within _MAX_LETTERS up to k = 18; a larger k raises
    WordLengthError before any rotation is built.
    """
    if k < 1:
        raise ValueError(f"cyclic_conjugates requires k >= 1, got {k}")
    _check_level(f"cyclic_conjugates({k})", k + 1)
    n = fibonacci(k + 1)
    if n * n > _MAX_LETTERS:
        raise WordLengthError(f"the {n} rotations of S^{k}(a) hold {n * n} letters, over the cap")
    base = fib_prefix(k + 1)  # S^k(a) = s_{k+1}
    rotations = [base[i:] + base[:i] for i in range(len(base))]
    if len(set(rotations)) != len(rotations):
        raise AssertionError(f"rotations of S^{k}(a) are not distinct")
    return rotations


def square_prefix_block(k: int) -> int:
    """Length of the square half-block checked at level k: |S^k(a)| = F_{k+1}."""
    if k < 1:
        raise ValueError(f"square level must be >= 1, got {k}")
    return fibonacci(k + 1)


def square_prefix_check(w: SignedWindow, k: int) -> bool:
    """Whether the restriction of w to n >= 1 begins with a level-k square.

    True iff the first n = |S^k(a)| letters (positions 1..n) repeat exactly
    on positions n+1..2n and form a cyclic conjugate of S^k(a).  Holds for
    the special element at every k >= 2; k = 1 is false there (u starts
    "ab aa", which is not a square).
    """
    _check_level(f"square_prefix_check at level {k}", k + 1)
    n = square_prefix_block(k)
    if not w.covers(1, 2 * n):
        raise WindowCoverageError(
            f"square check at level {k} needs positions 1..{2 * n}, "
            f"window covers ({w.lo}, {w.hi})"
        )
    first = w.slice(1, n)
    if first != w.slice(n + 1, 2 * n):
        return False
    # The rotations of S^k(a) are the factors of S^k(a) S^k(a) of its length.
    base = fib_prefix(k + 1)
    return len(first) == len(base) and first in base + base


def _check_word(w: str, first: int = 1) -> None:
    """Reject a word with a letter outside 'ab', naming the first one and its position.

    first is the position of w's first letter.
    """
    if set(w) <= set(ALPHABET):
        return
    i = next(i for i, ch in enumerate(w) if ch not in ALPHABET)
    raise ValueError(f"word has letter {w[i]!r} outside 'ab' at position {first + i}")
