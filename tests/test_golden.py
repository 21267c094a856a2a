"""Golden digests: band sets, dimension estimates and cocycles, pinned byte for byte.

tests/golden/bands.json holds the sha256 of bandset_to_json for sigma_j and
cover(j) at every level of a few couplings, of two escape scans, of the
repr of band_scaling_dimension at the same couplings, of the stdout of
the band-set commands in JSON and CSV and of `verify`, of the gamma and
residual bytes of six Lyapunov scans (four on the default window, two on an
explicit window, the reference path of the product loop), of the repr of
cocycle's row as a list and of cayley_hamilton_defect at a few points, of
the stdout of `eigs` in JSON and CSV, of the repr of scalar trace_value and
escape_classify at a few points, of the repr of the periodic and truncation
band checks, and of every other CLI output form whole (exit code, stdout,
stderr and the --out file).  A call that raises is pinned by its error class and message instead.  Regenerate the file with
`python tests/golden/make.py` only when an output change is intended.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from fibjacobi.bands import bandset_to_json, cover, escape_spectrum, sigma_k
import numpy as np

from fibjacobi.cli import main
from fibjacobi.fractal import band_scaling_dimension
from fibjacobi.jacobi import periodic_band_check, truncation_spectrum_consistency
from fibjacobi.tracemap import HoppingPair, escape_classify, trace_value
from fibjacobi.transfer import cayley_hamilton_defect, cocycle, lyapunov_grid
from fibjacobi.words import fibonacci, omega_s, square_prefix_block

GOLDEN = Path(__file__).parent / "golden" / "bands.json"

# (a, b, deepest level pinned); at b/a = 40 levels 13 and up raise
# RootIsolationError, which pins that message too.
COUPLINGS = ((1.0, 2.0, 16), (1.0, 1.0001, 17), (0.5, 7.3, 12), (1.0, 1.0, 8), (0.3, 0.31, 15),
             (1.0, 40.0, 13))

# Band-set commands whose stdout (summary line and payload) is pinned.
COMMANDS = (("cover", "--b", "2", "--k", "12"), ("bands", "--b", "2", "--k", "11"),
            ("spectrum", "--b", "2", "--kmax", "16", "--grid", "0.001"))

# verify writes no config to stdout; the last coupling fails a check (exit 3).
VERIFY_B = ("1.2", "2", "3.3", "4.212133165366545")

# Lyapunov scans over [-2.5 b, 2.5 b] at 2001 points: (b, cocycle length).
LYAPUNOV = ((2.0, 2584), (2.0, 46368), (4.7, 2584), (4.7, 46368))
# The same scans over the explicit window omega_s(1, n).
LYAPUNOV_WINDOW = ((2.0, 2584), (4.7, 2584))

# (b, E, n) for cocycle over omega_s(1, n), and (b, E, k) for the
# Cayley-Hamilton defect over the level-9 square prefix; a = 1 throughout.
COCYCLES = ((2.0, 0.3, 5), (2.0, 1.7, 144), (2.0, -2.9, 5000), (2.0, 10.0, 5000), (4.7, 3.3, 987))
DEFECTS = ((2.0, 0.013, 2), (2.0, 1.5, 5), (2.0, -3.1, 9), (4.7, 0.4, 7), (4.7, 9.0, 9))

# eigs commands whose stdout is pinned in JSON and CSV.
EIGS = (("eigs", "--b", "2", "--k", "13"),
        ("eigs", "--b", "3.3", "--letters", "abaab", "--repeats", "60"))

# CLI forms pinned whole: exit code, stdout and stderr, once writing to
# stdout and once with --out, which pins the file too.  In the sweep, b = 30
# fails at level 14 and b = 2 succeeds.
LYAPUNOV_ARGV = ("lyapunov", "--b", "2", "--points", "21", "--length", "233")
SWEEP_ARGV = ("dimension", "--sweep", "2:30:28", "--kmax", "14")
FORMS = (
    (*LYAPUNOV_ARGV, "--format", "csv"),
    (*LYAPUNOV_ARGV, "--format", "json"),
    ("dimension", "--b", "2", "--format", "csv"),
    ("dimension", "--b", "2", "--format", "json"),
    ("dimension", "--a", "1", "--b", "1", "--format", "csv"),
    ("dimension", "--a", "1", "--b", "1", "--format", "json"),
    (*SWEEP_ARGV, "--format", "csv"),
    (*SWEEP_ARGV, "--format", "json"),
    ("words", "--k", "10", "--complexity", "4", "--format", "json"),
    ("spectrum", "--b", "2", "--kmax", "16", "--grid", "0.001", "--format", "csv"),
    ("eigs", "--b", "3.3", "--letters", "abaab", "--repeats", "60", "--format", "csv"),
    ("verify", "--b", "2"),
)

# (a, b, E, k) for scalar trace_value: the 6-cycle orbit at E = 0, an
# irrational point, k = -1, 0 and 1, and four energies whose recursion
# overflows at (1, 2) (level 3 for 1e154, level 2 for the rest).
TRACES = ((1.0, 2.0, 0.0, 5), (1.0, 2.0, 0.0, 26), (0.8, 1.7, 1.3, 9), (1.0, 2.0, 3.0, -1),
          (1.0, 2.0, 3.0, 0), (1.0, 2.0, 3.0, 1), (1.0, 2.0, 1e154, 5), (1.0, 2.0, 1e200, 5),
          (1.0, 2.0, math.nan, 5), (1.0, 2.0, math.inf, 5))

# (a, b, E, K_max) for escape_classify on orbits that stay finite: bounded,
# escaped at k = 0, 1, 11 and 19, and the guard-band case escaping at k = 4.
ESCAPES = ((1.0, 2.0, 0.0, 100), (1.0, 2.0, 10.0, 100), (1.0, 2.0, -3.3, 30), (1.0, 2.0, 1.7, 30),
           (1.0, 2.0, 2.5, 30), (1.0, 1.0, 2.0 + 2e-13, 50), (1.0, 1.0, 2.0, 50))

# (a, b, k, m) for periodic_band_check and (a, b, k, L) for
# truncation_spectrum_consistency: 0.0 where every Sturm count holds.
PERIODIC = ((1.0, 1.0, 6, 20), (1.0, 2.0, 2, 20), (1.0, 2.0, 8, 20), (1.0, 2.0, 8, 5))
TRUNCATIONS = ((1.0, 1.0, 3, 100), (1.0, 2.0, 10, fibonacci(14)))


def _digest(make) -> str:
    try:
        data = make()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        data = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _lyapunov_bytes(b: float, n: int, window=None) -> bytes:
    energies = np.linspace(-2.5 * b, 2.5 * b, 2001)
    gamma, residual, _ = lyapunov_grid(HoppingPair(1.0, b), energies, n, window)
    return gamma.tobytes() + residual.tobytes()


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def _run_whole(argv: list[str]) -> str:
    """Exit code, stdout, stderr and any out.txt of main(argv), run in an empty directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = Path("out.txt").read_text() if Path("out.txt").exists() else ""
        finally:
            os.chdir(cwd)
    return f"exit {code}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}--file\n{written}"


def digests() -> dict[str, str]:
    out = {}
    for a, b, k_max in COUPLINGS:
        p = HoppingPair(a, b)
        for j in range(1, k_max + 1):
            out[f"sigma_k({a}, {b}, {j})"] = _digest(lambda: bandset_to_json(sigma_k(p, j)))
            out[f"cover({a}, {b}, {j})"] = _digest(lambda: bandset_to_json(cover(p, j)))
        out[f"band_scaling_dimension({a}, {b})"] = _digest(lambda: repr(band_scaling_dimension(p)))
    out["escape_spectrum(1.0, 2.0, 20, 0.0001)"] = _digest(
        lambda: bandset_to_json(escape_spectrum(HoppingPair(1.0, 2.0), 20, 1e-4))
    )
    out["escape_spectrum(1.0, 1.3, 26, 0.0001)"] = _digest(
        lambda: bandset_to_json(escape_spectrum(HoppingPair(1.0, 1.3), 26, 1e-4))
    )
    for argv in COMMANDS:
        for fmt in ("json", "csv"):
            cmd = [*argv, "--format", fmt]
            out[f"main({' '.join(cmd)})"] = _digest(lambda: _stdout(cmd))
    for b in VERIFY_B:
        out[f"main(verify --b {b})"] = _digest(lambda: _stdout(["verify", "--b", b]))
    for b, n in LYAPUNOV:
        out[f"lyapunov_grid(1.0, {b}, 2001, {n})"] = _digest(lambda: _lyapunov_bytes(b, n))
    for b, n in LYAPUNOV_WINDOW:
        out[f"lyapunov_grid(1.0, {b}, 2001, {n}, window=omega_s(1, {n}))"] = _digest(
            lambda: _lyapunov_bytes(b, n, omega_s(1, n))
        )
    for b, e, n in COCYCLES:
        out[f"cocycle(1.0, {b}, {e}, {n})"] = _digest(
            lambda: repr(cocycle(omega_s(1, n), HoppingPair(1.0, b), e, n).tolist())
        )
    square = omega_s(1, 2 * square_prefix_block(9))
    for b, e, k in DEFECTS:
        out[f"cayley_hamilton_defect(1.0, {b}, {e}, {k})"] = _digest(
            lambda: repr(cayley_hamilton_defect(square, HoppingPair(1.0, b), e, k))
        )
    for argv in EIGS:
        for fmt in ("json", "csv"):
            cmd = [*argv, "--format", fmt]
            out[f"main({' '.join(cmd)})"] = _digest(lambda: _stdout(cmd))
    for a, b, e, k in TRACES:
        out[f"trace_value({a}, {b}, {e!r}, {k})"] = _digest(
            lambda: repr(trace_value(HoppingPair(a, b), e, k))
        )
    for a, b, e, k_max in ESCAPES:
        out[f"escape_classify({a}, {b}, {e!r}, {k_max})"] = _digest(
            lambda: repr(escape_classify(HoppingPair(a, b), e, k_max))
        )
    for a, b, k, m in PERIODIC:
        out[f"periodic_band_check({a}, {b}, {k}, m={m})"] = _digest(
            lambda: repr(periodic_band_check(HoppingPair(a, b), k, m=m))
        )
    for a, b, k, n in TRUNCATIONS:
        out[f"truncation_spectrum_consistency({a}, {b}, {k}, {n})"] = _digest(
            lambda: repr(truncation_spectrum_consistency(HoppingPair(a, b), k, n))
        )
    for argv in FORMS:
        for cmd in (list(argv), [*argv, "--out", "out.txt"]):
            out[f"cli({' '.join(cmd)})"] = _digest(lambda: _run_whole(cmd))
    return out


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(expected), (
        f"golden key set changed: added {sorted(set(got) - set(expected))}, "
        f"removed {sorted(set(expected) - set(got))}"
    )
    differing = [key for key, want in expected.items() if got[key] != want]
    assert not differing, f"{len(differing)} differing outputs: {differing}"
