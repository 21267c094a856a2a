"""Golden digests: band sets, dimension estimates and cocycles, pinned byte for byte.

tests/golden/bands.json holds the sha256 of bandset_to_json for sigma_j and
cover(j) at every level of a few couplings, of two escape scans, of the
repr of band_scaling_dimension at the same couplings, of the stdout of
the band-set commands in JSON and CSV and of `verify`, of the gamma and
residual bytes of six Lyapunov scans (four on the default window, two on an
explicit window, the reference path of the product loop), and of the repr of cocycle and
cayley_hamilton_defect at a few points.  A call that raises is pinned by
its error class and message instead.  Regenerate the file with
`python tests/golden/make.py` only when an output change is intended.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from fibjacobi.bands import bandset_to_json, cover, escape_spectrum, sigma_k
import numpy as np

from fibjacobi.cli import main
from fibjacobi.fractal import band_scaling_dimension
from fibjacobi.tracemap import HoppingPair
from fibjacobi.transfer import cayley_hamilton_defect, cocycle, lyapunov_grid
from fibjacobi.words import omega_s, square_prefix_block

GOLDEN = Path(__file__).parent / "golden" / "bands.json"

# (a, b, deepest level pinned); at b/a = 40 levels 13 and up raise
# RootIsolationError, which pins that message too.
COUPLINGS = ((1.0, 2.0, 16), (1.0, 1.0001, 14), (0.5, 7.3, 12), (1.0, 1.0, 8), (0.3, 0.31, 15),
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
            lambda: repr(cocycle(omega_s(1, n), HoppingPair(1.0, b), e, n))
        )
    square = omega_s(1, 2 * square_prefix_block(9))
    for b, e, k in DEFECTS:
        out[f"cayley_hamilton_defect(1.0, {b}, {e}, {k})"] = _digest(
            lambda: repr(cayley_hamilton_defect(square, HoppingPair(1.0, b), e, k))
        )
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
