"""Golden digests: band-set JSON and dimension estimates, pinned byte for byte.

tests/golden/bands.json holds the sha256 of bandset_to_json for sigma_j and
cover(j) at every level of a few couplings, of two escape scans, of the
repr of band_scaling_dimension at the same couplings, and of the stdout of
the band-set commands in JSON and CSV.  A level that raises is pinned by
its error class and message instead.  Regenerate the file with
`python tests/golden/make.py` only when an output change is intended.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from fibjacobi.bands import bandset_to_json, cover, escape_spectrum, sigma_k
from fibjacobi.cli import main
from fibjacobi.fractal import band_scaling_dimension
from fibjacobi.tracemap import HoppingPair

GOLDEN = Path(__file__).parent / "golden" / "bands.json"

# (a, b, deepest level pinned); at b/a = 40 levels 13 and up raise
# RootIsolationError, which pins that message too.
COUPLINGS = ((1.0, 2.0, 16), (1.0, 1.0001, 14), (0.5, 7.3, 12), (1.0, 1.0, 8), (0.3, 0.31, 15),
             (1.0, 40.0, 13))

# Band-set commands whose stdout (summary line and payload) is pinned.
COMMANDS = (("cover", "--b", "2", "--k", "12"), ("bands", "--b", "2", "--k", "11"),
            ("spectrum", "--b", "2", "--kmax", "16", "--grid", "0.001"))


def _digest(make) -> str:
    try:
        text = make()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


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
    return out


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(expected), "golden key set changed"
    for key, want in expected.items():
        assert got[key] == want, f"first differing output: {key}"
