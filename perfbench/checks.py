"""Output checks, one per job kind, built on the program's public functions.

check(argv, text, stdout) returns None when the output of a job that
exited 0 is correct, or a one-line reason when it is not.  `text` is the
content of the job's `--out` file and `stdout` what the job printed.
Where a check needs a reference value that the program also computes
(Fibonacci words, band counts), it builds its own.
"""

from __future__ import annotations

import json
import math

import numpy as np

from fibjacobi import (
    HoppingPair,
    build_window,
    eigenvalue_count_below,
    energy_window,
    escape_classify,
    trace_value,
)

# Points per band edge in the fallback scan for a |x| = 1 crossing.
EDGE_SCAN = 2001
# Bands sampled per escape scan for the scalar cross-check.
ESCAPE_SAMPLES = 16
# Shifts per eigenvalue list for the Sturm-count cross-check.
STURM_SHIFTS = 5
# Lyapunov exponents at energies beyond the norm bound must exceed this.
GAMMA_OUTSIDE = 0.1


def options(argv: list[str]) -> dict[str, str]:
    """The --flag value pairs of a job's argv, keyed by flag name."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def fib_word(k: int) -> str:
    """s_k with s_1 = a, s_2 = ab, s_{k+1} = s_k s_{k-1}; |s_k| = F_k, F_0 = F_1 = 1."""
    prev, cur = "a", "ab"
    if k == 1:
        return prev
    for _ in range(k - 2):
        prev, cur = cur, cur + prev
    return cur


def _hoppings(opts: dict[str, str]) -> HoppingPair:
    return HoppingPair(float(opts.get("a", 1.0)), float(opts.get("b", 2.0)))


def _json_result(argv: list[str], text: str) -> dict:
    payload = json.loads(text)
    if payload["config"]["command"] != argv[0]:
        raise ValueError(f"config names command {payload['config']['command']!r}")
    return payload["result"]


def _csv_rows(text: str) -> tuple[str, list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _sorted_disjoint(bands: np.ndarray, lo: float, hi: float) -> str | None:
    if bands.shape[0] == 0:
        return "no bands"
    if not np.all(bands[:, 0] <= bands[:, 1]):
        return "a band has lo > hi"
    if not np.all(bands[1:, 0] > bands[:-1, 1]):
        return "bands are not sorted and disjoint"
    if bands[0, 0] < lo or bands[-1, 1] > hi:
        return f"bands leave the window [{lo!r}, {hi!r}]"
    return None


def _crossing_near(p: HoppingPair, edges: np.ndarray, levels, offsets: np.ndarray) -> np.ndarray:
    """Whether |x_j| - 1 takes both signs over edge + offsets, for some level j."""
    found = np.zeros(edges.size, dtype=bool)
    for j in levels:
        g = np.abs(trace_value(p, edges[None, :] + offsets[:, None], j)) - 1.0
        found |= (g.min(axis=0) <= 0.0) & (g.max(axis=0) >= 0.0)
    return found


def _check_bandset(argv: list[str], text: str, stdout: str) -> str | None:
    opts = options(argv)
    res = _json_result(argv, text)
    p = _hoppings(opts)
    k = int(opts["k"])
    if (res["a"], res["b"], res["k"]) != (p.a, p.b, k):
        return f"result is for (a, b, k) = ({res['a']}, {res['b']}, {res['k']})"
    bands = np.array(res["bands"], dtype=float).reshape(-1, 2)
    win = energy_window(p)
    bad = _sorted_disjoint(bands, win.lo, win.hi)
    if bad:
        return bad
    # sigma_k has at most F_k bands; a cover adds the level k + 1 bands.
    levels = (k,) if argv[0] == "bands" else (k, k + 1)
    limit = sum(len(fib_word(j)) for j in levels)
    if bands.shape[0] > limit:
        return f"{bands.shape[0]} bands, more than the {limit} the levels allow"
    # Each edge must sit within tol of a crossing of |x_j| = 1 at one of the
    # levels: |x_j| - 1 takes both signs on [edge - tol, edge + tol].  Five
    # points settle most edges; the rest, next to bands narrower than the
    # point spacing, get a scan at EDGE_SCAN points.
    tol = float(res["tol"])
    edges = bands.ravel()
    ok = _crossing_near(p, edges, levels, np.linspace(-tol, tol, 5))
    if not ok.all():
        ok[~ok] = _crossing_near(p, edges[~ok], levels, np.linspace(-tol, tol, EDGE_SCAN))
    if not ok.all():
        first = float(edges[~ok][0])
        return (
            f"{int((~ok).sum())} of {edges.size} edges have no |x|=1 crossing at "
            f"levels {levels} within tol {tol:g}, first at E={first!r}"
        )
    return None


def _check_spectrum(argv: list[str], text: str, stdout: str) -> str | None:
    opts = options(argv)
    res = _json_result(argv, text)
    p = _hoppings(opts)
    kmax = int(opts["kmax"])
    grid = float(opts["grid"])
    win = energy_window(p)
    bands = np.array(res["bands"], dtype=float).reshape(-1, 2)
    bad = _sorted_disjoint(bands, win.lo, win.hi)
    if bad:
        return bad
    # A retained cell has an endpoint or its midpoint Bounded(kmax); check the
    # first cell of sampled bands with the scalar classifier.
    cell = win.width / math.ceil(win.width / grid)
    picks = np.unique(np.linspace(0, bands.shape[0] - 1, ESCAPE_SAMPLES).astype(int))
    for i in picks:
        lo = float(bands[i, 0])
        points = (lo, lo + 0.5 * cell, lo + cell)
        if all(escape_classify(p, e, kmax).escaped for e in points):
            return f"band {i} starts with a cell at E={lo!r} that escapes everywhere"
    return None


def _check_lyapunov(argv: list[str], text: str, stdout: str) -> str | None:
    opts = options(argv)
    p = _hoppings(opts)
    header, rows = _csv_rows(text)
    if header != "E,gamma,residual":
        return f"unexpected header {header!r}"
    data = np.array(rows, dtype=float).reshape(-1, 3)
    if data.shape[0] != int(opts["points"]):
        return f"{data.shape[0]} rows for {opts['points']} points"
    energy, gamma, residual = data.T
    if not np.all(np.diff(energy) > 0):
        return "energies are not increasing"
    if not (np.all(np.isfinite(gamma)) and np.all(gamma >= 0.0)):
        return "a gamma is negative or not finite"
    if not np.all(np.isfinite(residual)):
        return "a residual is not finite"
    outside = np.abs(energy) > p.norm_bound
    if np.any(gamma[outside] <= GAMMA_OUTSIDE):
        e = float(energy[outside][gamma[outside] <= GAMMA_OUTSIDE][0])
        return f"gamma <= {GAMMA_OUTSIDE} at E={e!r}, outside the norm bound {p.norm_bound!r}"
    return None


def _check_eigs(argv: list[str], text: str, stdout: str) -> str | None:
    opts = options(argv)
    res = _json_result(argv, text)
    p = _hoppings(opts)
    letters = fib_word(int(opts["k"])) if "k" in opts else opts["letters"]
    letters *= int(opts.get("repeats", 1))
    n = len(letters) + 1
    vals = np.array(res["values"], dtype=float)
    tol = float(res["tol"])
    if res["n"] != n or vals.size != n:
        return f"{vals.size} values for {n} sites"
    if not np.all(np.diff(vals) >= 0.0):
        return "eigenvalues are not sorted"
    asym = float(np.max(np.abs(vals + vals[::-1])))
    if asym > 4.0 * tol:
        return f"spectrum is not symmetric about 0: max |v_i + v_(n-1-i)| = {asym:.3g}"
    # Sturm counts at midpoints of resolved gaps must equal the index.
    gaps = np.nonzero(np.diff(vals) > 4.0 * tol)[0]
    if gaps.size:
        idx = gaps[np.unique(np.linspace(0, gaps.size - 1, STURM_SHIFTS).astype(int))]
        shifts = 0.5 * (vals[idx] + vals[idx + 1])
        counts = eigenvalue_count_below(build_window(letters, p), shifts)
        if not np.array_equal(counts, idx + 1):
            return f"Sturm counts {counts.tolist()} at shifts between values {(idx + 1).tolist()}"
    return None


def _check_dimension(argv: list[str], text: str, stdout: str) -> str | None:
    header, rows = _csv_rows(text)
    if not header.startswith("b,dim_value,method,r_squared"):
        return f"unexpected header {header!r}"
    if [r[2] for r in rows] != ["band-scaling", "box-fit"]:
        return f"methods {[r[2] for r in rows]}"
    for r in rows:
        value, r2 = float(r[1]), float(r[3])
        if not (0.0 <= value <= 1.0 and 0.0 <= r2 <= 1.0):
            return f"{r[2]} value {value} or r2 {r2} outside [0, 1]"
    return None


def _check_verify(argv: list[str], text: str, stdout: str) -> str | None:
    if "all checks passed" not in stdout.splitlines():
        return "stdout lacks 'all checks passed'"
    return None


def _check_words(argv: list[str], text: str, stdout: str) -> str | None:
    opts = options(argv)
    res = _json_result(argv, text)
    want = fib_word(int(opts["k"]))
    if res["prefix"] != want or res["length"] != len(want):
        return "prefix is not the Fibonacci word s_k"
    c = int(opts.get("complexity", 0))
    want_counts = {str(n): n + 1 for n in range(1, c + 1)}
    if res["complexity"] != want_counts:
        return "factor counts differ from the Sturmian L + 1"
    return None


CHECKS = {
    "bands": _check_bandset,
    "cover": _check_bandset,
    "spectrum": _check_spectrum,
    "lyapunov": _check_lyapunov,
    "eigs": _check_eigs,
    "dimension": _check_dimension,
    "verify": _check_verify,
    "words": _check_words,
}


def check(argv: list[str], text: str, stdout: str) -> str | None:
    """None if the job's output is correct, else the reason it is not."""
    return CHECKS[argv[0]](argv, text, stdout)
