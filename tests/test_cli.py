"""CLI behavior: exit codes, output shapes, provenance, determinism.

Commands run in-process through main(argv) so the suite stays fast; the
console script wraps the same function.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden import COMMANDS

from fibjacobi import cli, fractal
from fibjacobi.bands import bandset_from_json, cover, lebesgue_measure
from fibjacobi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from fibjacobi.tracemap import HoppingPair, finite_traces
from fibjacobi.transfer import CocycleRangeError, cayley_hamilton_defect, cocycles
from fibjacobi.words import cyclic_conjugates, fibonacci, omega_s, periodize, square_prefix_block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bands_closed_form(capsys):
    code, out, err = run(capsys, "bands", "--a", "1", "--b", "2", "--k", "2")
    assert code == EXIT_OK
    assert "2 bands" in out
    measure = float(out.split("measure")[1].split()[0])
    assert measure == pytest.approx(4.0, abs=1e-8)


def test_bands_degenerate_warning(capsys):
    code, out, err = run(capsys, "bands", "--a", "1", "--b", "1", "--k", "5")
    assert code == EXIT_OK
    assert "1 bands" in out
    assert "degenerate hull" in err


def test_bands_invalid_hopping_exits_2(capsys):
    code, out, err = run(capsys, "bands", "--a", "0", "--b", "2", "--k", "2")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--a", "1e-300", "--b", "1e10"),
         "b / a leaves the range of doubles at a = 1e-300, b = 10000000000.0"),
        (("--a", "1e-320", "--b", "1"), "b / a leaves the range of doubles at a = 1e-320, b = 1.0"),
        (("--a", repr(2.0**1020), "--b", repr(1.5 * 2.0**1020), "--tol", "100"),
         f"band edges at a = {2.0**1020!r}, b = {1.5 * 2.0**1020!r} leave the normal range of "
         "doubles at scale 2^1020"),
    ],
    ids=["b-over-a", "subnormal-a", "tol"],
)
def test_bands_scale_overflow_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "bands", *argv, "--k", "3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"fibjacobi: error: {message}\n"


def test_cover_level_zero_exits_2(capsys):
    code, out, err = run(capsys, "cover", "--a", "1", "--b", "2", "--k", "0")
    assert code == EXIT_USAGE
    assert "k must be >= 1, got 0" in err
    assert out == ""


def test_bands_json_payload(tmp_path, capsys):
    out_file = tmp_path / "s2.json"
    code, _, _ = run(
        capsys, "bands", "--a", "1", "--b", "2", "--k", "2", "--out", str(out_file)
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["config"]["a"] == 1.0
    assert payload["config"]["command"] == "bands"
    bs = bandset_from_json(json.dumps(payload["result"]))
    assert len(bs.bands) == 2
    assert bs.kind == "sigma_k"


def test_cover_subcommand(capsys):
    code, out, _ = run(capsys, "cover", "--a", "1", "--b", "2", "--k", "1")
    assert code == EXIT_OK
    measure = float(out.split("measure")[1].split()[0])
    assert measure == pytest.approx(6.0, abs=1e-8)


def test_spectrum_outer_approximation(tmp_path, capsys):
    out_file = tmp_path / "esc.json"
    code, out, _ = run(
        capsys,
        "spectrum", "--a", "1", "--b", "2", "--kmax", "24", "--grid", "1e-3",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    measure = float(out.split("measure")[1].split()[0])
    c14 = cover(HoppingPair(1.0, 2.0), 14)
    assert measure < lebesgue_measure(c14)


def test_spectrum_free_case(tmp_path, capsys):
    out_file = tmp_path / "free.json"
    code, out, _ = run(
        capsys,
        "spectrum", "--a", "1", "--b", "1", "--kmax", "12", "--grid", "1e-3",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    bands = payload["result"]["bands"]
    assert len(bands) == 1
    assert bands[0][0] == pytest.approx(-2.0, abs=5e-3)
    assert bands[0][1] == pytest.approx(2.0, abs=5e-3)


def test_spectrum_missing_kmax_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--a", "1", "--b", "2", "--grid", "1e-3")
    assert code == EXIT_USAGE


def test_spectrum_invalid_grid_exits_2(capsys):
    code, out, err = run(capsys, "spectrum", "--kmax", "12", "--grid", "0")
    assert code == EXIT_USAGE
    assert "grid_step must be a positive finite number" in err
    assert out == ""
    cases = [
        (("--grid", "1e-12"), "needs 8e+12 cells"),
        (("--grid", "1e-3", "--a", "1e308", "--b", "5e307"),
         "norm bound 2 max(a, b) overflows at a = 1e+308, b = 5e+307"),
    ]
    for extra, message in cases:
        code, out, err = run(capsys, "spectrum", "--kmax", "12", *extra)
        assert code == EXIT_USAGE
        assert message in err
        assert out == ""


def test_lyapunov_free_case_csv(tmp_path, capsys):
    out_file = tmp_path / "lyap.csv"
    code, out, _ = run(
        capsys,
        "lyapunov", "--a", "1", "--b", "1", "--emin", "-3", "--emax", "3",
        "--points", "41", "--length", "233", "--out", str(out_file),
    )
    assert code == EXIT_OK
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "E,gamma,residual"
    rows = [tuple(float(x) for x in l.split(",")) for l in lines[1:]]
    assert len(rows) == 41
    for e, gamma, residual in rows:
        if abs(e) <= 1.8:
            assert gamma <= 0.02
        if abs(e) >= 2.4:
            # Free chain outside the band: gamma = arccosh(|E| / 2).
            assert gamma == pytest.approx(math.acosh(abs(e) / 2.0), abs=0.05)


def test_lyapunov_out_of_double_range_exits_3(capsys):
    # E / a = 1e310 is no double, so the factor of letter a leaves range.
    code, out, err = run(
        capsys, "lyapunov", "--a", "1e-10", "--emin", "1e300", "--emax", "2e300", "--points", "3"
    )
    assert code == EXIT_NUMERICAL
    assert "E = 1e+300 leaves double range by position 1" in err
    assert out == ""


def test_lyapunov_zero_width_window_exits_2(capsys):
    code, _, err = run(capsys, "lyapunov", "--a", "1", "--b", "2", "--emin", "1", "--emax", "1")
    assert code == EXIT_USAGE
    assert "window" in err


def test_dimension_single_pair_both_methods(tmp_path, capsys):
    out_file = tmp_path / "dim.csv"
    code, out, _ = run(
        capsys,
        "dimension", "--a", "1", "--b", "2", "--kmax", "12", "--out", str(out_file),
    )
    assert code == EXIT_OK
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "b,dim_value,method,r_squared,k_max,tol"
    rows = [l.split(",") for l in lines[1:]]
    assert sorted(r[2] for r in rows) == ["band-scaling", "box-fit"]
    for r in rows:
        assert 0.0 < float(r[1]) < 1.0


def test_dimension_sweep_table(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "dimension", "--a", "1", "--sweep", "1.2:2.0:0.4", "--kmax", "10",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.2, 1.6, 2.0]
    vals = [float(r[1]) for r in rows]
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals == sorted(vals, reverse=True)


def test_dimension_sweep_keeps_tiny_couplings(tmp_path, capsys):
    # Sweep values are rounded to 12 significant digits, not decimal places,
    # so couplings below 5e-13 do not round to b = 0.
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys,
        "dimension", "--a", "1e-13", "--sweep", "1.5e-13:2e-13:2.5e-14", "--kmax", "10",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "warning" not in err
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.5e-13, 1.75e-13, 2e-13]
    assert [r[2] for r in rows] == ["band-scaling"] * 3
    assert all(0.0 < float(r[1]) < 1.0 for r in rows)


def test_dimension_sweep_csv_rows(tmp_path, capsys):
    # b = -1 is no hopping value: its row reads nan and error, and the sweep goes on.
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys,
        "dimension", "--a", "1", "--sweep=-1:2:3", "--kmax", "14", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "warning: b = -1: hopping b must be a positive finite real" in err
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "b,dim_value,method,r_squared,k_max,tol"
    bad, ok = (l.split(",") for l in lines[1:])
    assert bad == ["-1", "nan", "error", "nan", "14", "1e-10"]
    assert float(ok[0]) == 2.0
    assert 0.0 < float(ok[1]) < 1.0
    assert ok[2] == "band-scaling"
    assert ok[4:] == ["14", "1e-10"]


@pytest.mark.parametrize(
    "bad",
    [("--tol", "nan"), ("--tol", "1e-14"), ("--kmax", "21"), ("--kmin", "8"), ("--kmax", "8"),
     ("--a", "0"), ("--a=-1",), ("--a", "nan"), ("--a", "inf")],
)
def test_dimension_sweep_checks_options_before_the_sweep(capsys, bad):
    # A --a, --tol or level range that no coupling accepts is one usage
    # error, the single-coupling form's, not an error row per coupling.
    single = run(capsys, "dimension", "--kmax", "10", *bad)
    sweep = run(capsys, "dimension", "--sweep", "1.5:1.6:0.1", "--kmax", "10", *bad)
    assert single[0] == sweep[0] == EXIT_USAGE
    assert sweep[1] == ""
    assert sweep[2] == single[2] and sweep[2].startswith("fibjacobi: error: ")
    assert sweep[2].count("\n") == 1


def test_sweep_over_the_cap_is_refused_before_any_coupling(capsys, monkeypatch):
    # The count is checked before the list of couplings is built, so a step
    # of 1e-12 (10^12 + 1 couplings) or one whose count overflows is refused
    # at once; 10000 couplings are the most a sweep takes.
    monkeypatch.setattr(fractal, "dimension_sweep", lambda *args: pytest.fail("sweep was run"))
    for arg, count in (("1:2:1e-12", "1000000000001"), ("-1e308:1e308:1", "inf")):
        code, out, err = run(capsys, "dimension", f"--sweep={arg}", "--kmax", "10")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"fibjacobi: error: sweep range has {count} couplings, more than 10000, got {arg!r}\n"
    assert len(cli._parse_sweep("1:10000:1")) == 10_000
    with pytest.raises(ValueError, match="has 10001 couplings"):
        cli._parse_sweep("1:10001:1")


def test_dimension_degenerate_flagged(capsys):
    code, out, err = run(capsys, "dimension", "--a", "1", "--b", "1", "--kmax", "10")
    assert code == EXIT_OK
    assert "degenerate" in err


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "2")
    assert code == EXIT_OK
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "all checks passed" in out


@pytest.mark.parametrize(
    "perturb, detail",
    [("1e-6", "max relative drift"), ("nan", "max relative drift nan"), ("inf", "nothing checked")],
)
def test_verify_fault_injection_fails(capsys, perturb, detail):
    # A NaN orbit never passes the 1e3 cutoff, and its drift must not read as 0.
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "2", "--perturb-recursion", perturb)
    assert code == EXIT_NUMERICAL
    assert f"FAIL  invariant-conservation: {detail}" in out
    assert "verification FAILED" in out


def test_verify_invariant_check_needs_a_sample(capsys):
    # At b/a = 2500 the start value z_0 is above the 1e3 cutoff, so no orbit
    # reaches a checked level; the check must not pass with zero drift.
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "2500")
    assert code == EXIT_NUMERICAL
    assert "FAIL  invariant-conservation: nothing checked" in out


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("--perturb-recursion", "1e-6"), "max relative drift 4.798e-04 over 41 energies, 40 levels"),
        (("--perturb-recursion", "nan"), "max relative drift nan over 41 energies, 40 levels"),
        (("--perturb-recursion", "inf"), "nothing checked: every orbit passed 1e3 at its first step"),
        (("--b", "2500"), "nothing checked: every orbit passed 1e3 at its first step"),
    ],
    ids=["perturb-1e-6", "perturb-nan", "perturb-inf", "b-2500"],
)
def test_verify_invariant_line_whole(capsys, argv, detail):
    # The check's first line, detail and all, as the orbit starts give it.
    code, out, _ = run(capsys, "verify", *argv)
    assert code == EXIT_NUMERICAL
    assert out.splitlines()[0] == f"FAIL  invariant-conservation: {detail}"


@pytest.mark.parametrize(
    "hopping, named",
    [
        (("--b", "1e200"), "a = 1.0, b = 1e+200"),
        (("--a", "1e-200"), "a = 1e-200, b = 2.0"),
        (("--a", "6e-309"), "a = 6e-309, b = 2.0"),
    ],
)
def test_verify_invariant_out_of_range_names_coupling(capsys, hopping, named):
    code, out, err = run(capsys, "verify", *hopping)
    assert code == EXIT_NUMERICAL
    assert f"invariant at {named} leaves double range" in err


def test_verify_strong_coupling_passes(capsys):
    # At b = 150 the Cayley-Hamilton norms used to overflow: "max defect inf".
    code, out, err = run(capsys, "verify", "--a", "1", "--b", "150")
    assert code == EXIT_OK
    assert "PASS  cayley-hamilton" in out
    assert err == ""


def test_verify_reports_a_diverging_check_and_runs_the_rest(capsys):
    # At b = 1999 the level-12 trace recursion overflows at the first energy.
    # The check fails naming the level and the energy; the other checks run
    # and the verdict is printed.
    code, out, err = run(capsys, "verify", "--a", "1", "--b", "1999")
    assert code == EXIT_NUMERICAL
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS  invariant-conservation",
        "FAIL  recursion-vs-cocycle",
        "PASS  cyclic-traces",
        "PASS  cayley-hamilton",
        "PASS  square-prefixes",
        "verification FAILED",
    ]
    assert lines[1] == "FAIL  recursion-vs-cocycle: trace recursion diverged at level 12 at E = -3.95"
    assert "numerical failure: trace recursion diverged at level 12 at E = -3.95" in err


@pytest.mark.parametrize(
    "hopping, failure, check",
    [
        (
            ("--b", "1e200"),
            "E = -3.95 leaves double range by position 13, level 6 (F_6 = 13)",
            "recursion-vs-cocycle",
        ),
        (
            ("--a", "1e-200"),
            "E = -3.95 leaves double range by position 8, level 5 (F_5 = 8)",
            "recursion-vs-cocycle",
        ),
        (
            ("--a", "1e-200"),
            "E = -3.987 leaves double range by position 3, level 2 (square over positions 1..6)",
            "cayley-hamilton",
        ),
    ],
)
def test_verify_cocycle_range_failure_names_the_level(capsys, hopping, failure, check):
    # recursion-vs-cocycle: the product over the level-12 prefix leaves
    # double range at a position first reached by a shorter prefix; the FAIL
    # line names that level.  cayley-hamilton names the level of its square.
    code, out, err = run(capsys, "verify", *hopping)
    assert code == EXIT_NUMERICAL
    assert f"FAIL  {check}: cocycle product at {failure}\n" in out
    assert f"numerical failure: cocycle product at {failure}\n" in err


def _trace_half(m):
    # The per-element rule 0.5 (m11 + m22) math.exp(log_scale) for one row
    # [m11, m12, m21, m22, log_scale], as the reference for trace_halves.
    return 0.5 * (m[0] + m[3]) * math.exp(m[4])


def _recursion_loop(p):
    # The recursion-vs-cocycle check with one half-trace per (level,
    # energy), as the reference for the table read.
    energies = np.linspace(-4.0, 4.0, 17) + 0.05
    levels = range(2, 13)
    lengths = [fibonacci(k) for k in levels]
    try:
        table = cocycles([omega_s(1, lengths[-1])], p, energies, lengths)[:, :, 0]
    except CocycleRangeError as exc:
        k = next(k for k, n in zip(levels, lengths) if n >= exc.position)
        raise ArithmeticError(f"{exc}, level {k} (F_{k} = {fibonacci(k)})") from None
    worst = 0.0
    for k, row in zip(levels, table.transpose(0, 2, 1).tolist()):
        for m, want in zip(row, finite_traces(p, energies, k).tolist()):
            worst = max(worst, abs(_trace_half(m) - want) / max(1.0, abs(want)))
    return worst <= 1e-9, f"max relative error {worst:.3e}, levels 2..12"


def _cyclic_loop(p):
    # The cyclic-traces check with one half-trace per (conjugate, energy).
    energies = np.linspace(-3.0, 3.0, 20) + 0.037
    worst = 0.0
    for k in range(2, 9):
        wants = finite_traces(p, energies, k + 1).tolist()
        words = cyclic_conjugates(k)
        windows = [periodize(word, len(word)) for word in words]
        prods = cocycles(windows, p, energies, [len(words[0])])[0]
        for row in prods.transpose(1, 2, 0).tolist():
            for m, want in zip(row, wants):
                worst = max(worst, abs(_trace_half(m) - want) / max(1.0, abs(want)))
    return worst <= 1e-9, f"max relative spread {worst:.3e} over all conjugates, levels 2..8"


def _outcome(check, p):
    """check's verdict and detail, or the type and message of the error it raised."""
    try:
        return check(p)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "a, b",
    [
        (1, 1.3),
        (1, 2.7),
        (1, 4.9),
        (1, 150),
        (1, 1999),  # the level-12 recursion diverges
        (1e200, 3.955045901963295e175),  # a conjugate's half-trace leaves double range
        (1e-200, 1),  # the product leaves double range by the level-5 prefix
        (0.37, 1e-9),  # the level-10 recursion diverges
    ],
)
def test_verify_trace_checks_match_per_matrix_loops(a, b):
    # The spreads read from the cocycle tables print the digits of the
    # per-entry half-traces, and fail with the same error where they fail.
    p = HoppingPair(a, b)
    assert _outcome(cli._check_recursion_vs_cocycle, p) == _outcome(_recursion_loop, p)
    assert _outcome(cli._check_cyclic_traces, p) == _outcome(_cyclic_loop, p)


def _cayley_loop(p):
    # The cayley-hamilton check as one cayley_hamilton_defect call per level.
    w = omega_s(1, 2 * square_prefix_block(9))
    energies = np.linspace(-4.0, 4.0, 10) + 0.013
    worst = 0.0
    for k in range(2, 10):
        worst = max(worst, *cayley_hamilton_defect(w, p, energies, k))
    return worst <= 1e-8, f"max defect {worst:.3e}, levels 2..9"


@pytest.mark.parametrize(
    "a, b",
    [
        (1, 1.5),
        (1, 2.7),
        (1, 150),
        (1, 1e20),
        (1, 1e50),  # the single pass leaves double range past level 5's M(2n)
        (1, 1e200),
        (1e-50, 1),
        (1e-200, 1),  # the level-2 square leaves double range
    ],
)
def test_verify_cayley_hamilton_matches_the_per_level_loop(a, b):
    p = HoppingPair(a, b)
    assert _outcome(cli._check_cayley_hamilton, p) == _outcome(_cayley_loop, p)


@pytest.mark.parametrize(
    "hopping, level", [(("--b", "1e50"), 5), (("--b", "1e200"), 2), (("--a", "1e-50"), 4)]
)
def test_verify_cayley_hamilton_names_the_first_level_out_of_range(capsys, hopping, level):
    # The one cocycles pass over every level leaves double range at a later
    # level's position (89, level 8, at b = 1e50); the FAIL line names the
    # first level whose M(2n) leaves double range, as the per-level loop does.
    code, out, err = run(capsys, "verify", *hopping)
    assert code == EXIT_NUMERICAL
    assert (
        f"FAIL  cayley-hamilton: cocycle M(2n) over the level-{level} square at E = -3.987 "
        "leaves double range\n"
    ) in out


def test_verify_half_trace_overflow_fails_the_check(capsys):
    # math.exp of a conjugate's log-scale overflows: the check fails with
    # its message, as math.exp raises it.
    code, out, err = run(capsys, "verify", "--a", "1e200", "--b", "3.955045901963295e175")
    assert code == EXIT_NUMERICAL
    assert "FAIL  cyclic-traces: math range error\n" in out


def test_verify_free_case_warns_but_passes(capsys):
    code, out, err = run(capsys, "verify", "--a", "1", "--b", "1")
    assert code == EXIT_OK
    assert "degenerate hull" in err
    assert "all checks passed" in out


def test_words_complexity_over_the_letter_cap_exits_2(capsys):
    # The factor scan grows like n^3; an n past the cap is refused before any scan.
    code, out, err = run(capsys, "words", "--k", "5", "--complexity", "100000")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cap of 50000000 letters" in err
    code, out, _ = run(capsys, "words", "--k", "5", "--complexity", "200")
    assert code == EXIT_OK
    assert "factors of length 200: 201" in out


def test_words_prefix_and_complexity(capsys):
    code, out, _ = run(capsys, "words", "--k", "5", "--complexity", "6")
    assert code == EXIT_OK
    assert "length 8" in out
    for length in range(1, 7):
        assert f"factors of length {length}: {length + 1}" in out
    code, out, _ = run(capsys, "words", "--k", "5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out.splitlines()[-1])
    assert payload["config"]["format"] == "json"
    assert payload["result"]["prefix"] == "abaababa"


def test_eigs_from_level(tmp_path, capsys):
    out_file = tmp_path / "eigs.json"
    code, out, _ = run(
        capsys,
        "eigs", "--a", "1", "--b", "2", "--k", "4", "--repeats", "2",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    values = payload["result"]["values"]
    assert len(values) == 11
    sym = np.array(values) + np.array(values)[::-1]
    assert np.max(np.abs(sym)) <= 1e-8


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
def test_eigs_extreme_hopping_scales(capsys, scale):
    # Squared hoppings leave the normal double range here; the spectrum is
    # scale times the spectrum at (1, 2).
    code, out, err = run(
        capsys, "eigs", "--a", repr(scale), "--b", repr(2 * scale), "--letters", "abaab",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert err == ""
    values = np.array(json.loads(out.splitlines()[-1])["result"]["values"])
    e = np.array([1.0, 2.0, 1.0, 1.0, 2.0])
    dense = np.linalg.eigvalsh(np.diag(e, 1) + np.diag(e, -1))
    assert np.abs(values / scale - dense).max() <= 4e-10


def test_eigs_requires_exactly_one_window_source(capsys):
    assert run(capsys, "eigs", "--a", "1", "--b", "2")[0] == EXIT_USAGE
    assert run(capsys, "eigs", "--k", "3", "--letters", "ab")[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--letters", "abc"), "letter 'c' outside 'ab' at position 3"),
        (("--letters", "ab", "--repeats", "0"), "--repeats must be >= 1, got 0"),
        (("--letters", "ab", "--repeats", "-2"), "--repeats must be >= 1, got -2"),
        # 10^12 letters: refused by their count before any string is built.
        (("--letters", "ab", "--repeats", str(5 * 10**11)), "1000000000000 letters over the cap"),
        (("--k", "20", "--repeats", "5000"), "letters over the cap"),
    ],
)
def test_eigs_window_checks_exit_2(capsys, extra, message):
    code, out, err = run(capsys, "eigs", "--a", "1", "--b", "2", *extra)
    assert code == EXIT_USAGE
    assert message in err
    assert "Traceback" not in err and out == ""


def test_eigs_past_double_range_of_the_norm_bound(capsys):
    # 2 max(h) overflows; the eigenvalues themselves are finite.
    code, out, err = run(
        capsys, "eigs", "--a", "1e308", "--b", "5e307", "--letters", "ab", "--repeats", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    result = json.loads(out.splitlines()[-1])["result"]
    assert math.isfinite(result["tol"])
    e = np.array([1.0, 0.5] * 3)
    dense = 1e308 * np.linalg.eigvalsh(np.diag(e, 1) + np.diag(e, -1))
    assert np.abs(np.array(result["values"]) - dense).max() <= result["tol"]


def test_bands_with_infinite_norm_bound_exit_2(capsys):
    code, _, err = run(capsys, "bands", "--a", "1e308", "--b", "5e307", "--k", "3")
    assert code == EXIT_USAGE
    assert "a = 1e+308, b = 5e+307" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nb = 2\nk = 3  # level\n")
    code, out, _ = run(capsys, "bands", "--config", str(cfg))
    assert code == EXIT_OK
    assert "3 bands" in out
    code, out, _ = run(capsys, "bands", "--config", str(cfg), "--k", "2")
    assert code == EXIT_OK
    assert "2 bands" in out


def test_config_file_skips_comment_and_blank_lines(tmp_path, capsys):
    # A full-line comment, a blank line and an inline comment: the output
    # file is the flags' file, bar the config file's own path in its config.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# cover at (1.3, 2.1)\na = 1.3\n\n   \nb = 2.1  # the b hopping\n#k = 9\nk = 6\n")
    out = tmp_path / "c.json"
    assert run(capsys, "cover", "--a", "1.3", "--b", "2.1", "--k", "6", "--out", str(out))[0] == EXIT_OK
    from_flags = out.read_bytes()
    assert run(capsys, "cover", "--config", str(cfg), "--out", str(out))[0] == EXIT_OK
    from_file = json.loads(out.read_bytes())
    assert from_file["config"].pop("config") == str(cfg)
    assert json.dumps(from_file, sort_keys=True, separators=(",", ":")) + "\n" == from_flags.decode()


def test_config_file_given_with_equals_writes_the_same_bytes(tmp_path, capsys):
    # --config=PATH is read as --config PATH is, and the file is applied:
    # the result is that of the flag it sets.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = 3.5\n")
    out = tmp_path / "b.json"
    assert run(capsys, "bands", "--k", "5", "--config", str(cfg), "--out", str(out))[0] == EXIT_OK
    spaced = out.read_bytes()
    assert run(capsys, "bands", "--k", "5", f"--config={cfg}", "--out", str(out))[0] == EXIT_OK
    assert out.read_bytes() == spaced
    assert run(capsys, "bands", "--k", "5", "--b", "3.5", "--out", str(out))[0] == EXIT_OK
    assert json.loads(spaced)["result"] == json.loads(out.read_bytes())["result"]


@pytest.mark.parametrize("option", ["--conf", "--con", "--c"])
def test_config_option_abbreviated_exits_2(tmp_path, capsys, option):
    # argparse would take an abbreviation for --config; the parser refuses
    # every abbreviation, so no run records a file it did not read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = 3.5\n")
    for argv in ((option, str(cfg)), (f"{option}={cfg}",)):
        code, out, err = run(capsys, "bands", "--k", "5", *argv)
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv)}" in err
        assert out == ""


def test_abbreviated_options_exit_2(capsys):
    # Every option is spelled out in full.
    for argv in (("lyapunov", "--len", "233"), ("bands", "--k", "3", "--fo", "json")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert out == ""


def test_config_path_written_is_the_file_read(tmp_path, capsys):
    # Given twice, argparse records the last --config, and that file is the
    # one applied, whichever spelling either takes.
    first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
    first.write_text("b = 3.5\n")
    last.write_text("b = 2.5\n")
    out = tmp_path / "b.json"
    assert run(capsys, "bands", "--k", "5", "--b", "2.5", "--out", str(out))[0] == EXIT_OK
    want = json.loads(out.read_bytes())["result"]
    for argv in (
        ("--config", str(first), "--config", str(last)),
        ("--config", str(first), f"--config={last}"),
        (f"--config={first}", "--config", str(last)),
    ):
        assert run(capsys, "bands", "--k", "5", *argv, "--out", str(out))[0] == EXIT_OK
        payload = json.loads(out.read_bytes())
        assert payload["config"]["config"] == str(last)
        assert payload["config"]["b"] == 2.5
        assert payload["result"] == want


def test_config_file_malformed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k 3\n")
    code, _, err = run(capsys, "bands", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "key = value" in err


def test_output_files_are_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["cover", "--a", "1.3", "--b", "2.1", "--k", "6"]
    run(capsys, *args, "--out", str(f1))
    first = f1.read_bytes()
    run(capsys, *args, "--out", str(f1))
    assert f1.read_bytes() == first
    # A different output path changes only the embedded config, not the result.
    run(capsys, *args, "--out", str(f2))
    p1, p2 = json.loads(first), json.loads(f2.read_bytes())
    assert p1["result"] == p2["result"]


def test_csv_outputs_embed_config(tmp_path, capsys):
    out_file = tmp_path / "dim.csv"
    run(capsys, "dimension", "--a", "1", "--b", "2", "--kmax", "12", "--out", str(out_file))
    text = out_file.read_text()
    assert "# a=1.0\n" in text
    assert "# command=dimension\n" in text
    assert "# kmax=12\n" in text


# Options and values a subcommand does not read, with the usage error they get.
UNREAD = [
    (("lyapunov", "--threads", "2"), "unrecognized arguments"),
    (("words", "--k", "5", "--a", "0"), "unrecognized arguments"),
    (("verify", "--format", "csv"), "unrecognized arguments"),
    (("eigs", "--k", "4", "--tol", "1e-3"), "unrecognized arguments"),
    (("words", "--k", "5", "--format", "csv"), "invalid choice: 'csv'"),
    (("spectrum", "--kmax", "12", "--grid", "1e-3", "--emin=-5"), "unrecognized arguments: --emin=-5"),
]


@pytest.mark.parametrize("argv, message", UNREAD, ids=[f"argv{i}" for i in range(len(UNREAD))])
def test_unread_option_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


# Usage errors that the commands raise after parsing, with their messages.
LATE_USAGE = [
    (("bands", "--k", "3", "--tol", "nan"), "tol must be a positive finite number, got nan"),
    (("lyapunov", "--points", "1"), "need at least 2 grid points, got 1"),
    (("dimension", "--sweep", "1:2"), "sweep range must be start:stop:step, got '1:2'"),
    (("dimension", "--sweep", "2:1:1"),
     "sweep range must have stop >= start and step > 0, got '2:1:1'"),
    (("dimension", "--sweep", "1:inf:0.5"), "sweep range must have a finite stop, got '1:inf:0.5'"),
    (("dimension", "--sweep", "1:2:inf"), "sweep range must have a finite step, got '1:2:inf'"),
    (("dimension", "--sweep", "1:2:nan"), "sweep range must have a finite step, got '1:2:nan'"),
    (("dimension", "--sweep=-inf:2:1"), "sweep range must have a finite start, got '-inf:2:1'"),
    (("dimension", "--sweep", "1:2:1e-7"),
     "sweep range has 10000001 couplings, more than 10000, got '1:2:1e-7'"),
    (("bands", "--k", "3", "--config"), "--config needs a file path"),
    (("cover", "--k", "3", "--tol", "inf"), "tol must be a positive finite number, got inf"),
    (("dimension", "--kmax", "10", "--tol", "inf"), "tol must be a positive finite number, got inf"),
    # Bounds that np.linspace would turn into a warning and NaN energies.
    (("lyapunov", "--emin=-inf"), "energy window [-inf, 4.0] must have finite bounds and width"),
    (("lyapunov", "--emin=-1e308", "--emax", "1e308"),
     "energy window [-1e+308, 1e+308] must have finite bounds and width"),
    (("lyapunov", "--emin", "nan"), "energy window [nan, 4.0] must have finite bounds and width"),
    (("lyapunov", "--emax", "inf"), "energy window [-4.0, inf] must have finite bounds and width"),
    (("words", "--k", "5", "--complexity", "-1"), "factor counts need a length n >= 0, got -1"),
]


@pytest.mark.parametrize("argv, message", LATE_USAGE, ids=[f"argv{i}" for i in range(len(LATE_USAGE))])
def test_late_usage_error_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err == f"fibjacobi: error: {message}\n"
    assert out == ""


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    # The summary lines follow the write, so a failed write prints no result.
    target = tmp_path / "missing" / "s3.json"
    for argv in (("bands", "--k", "3"), ("words", "--k", "3")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert err == f"fibjacobi: error: [Errno 2] No such file or directory: '{target}'\n"
        assert out == ""
    assert not target.parent.exists()


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "fibjacobi", "words", "--k", "3"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "level 3: length 3  aba\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "bands", "--help")[0] == EXIT_OK


def test_main_gives_the_same_bytes_in_any_order(capsys):
    # main parses with one parser per process; a usage error and a failing
    # command between two runs must leave it as it was.
    errors = [("bands", "--b", "2"), ("cover", "--k", "0")]
    first = {argv: run(capsys, *argv) for argv in [*COMMANDS, *errors]}
    assert [first[argv][0] for argv in errors] == [EXIT_USAGE, EXIT_USAGE]
    for order in itertools.permutations(COMMANDS):
        for argv in (order[0], *errors, *order[1:]):
            assert run(capsys, *argv) == first[argv], argv


def test_main_runs_the_command_bound_at_call_time(capsys, monkeypatch):
    assert run(capsys, "words", "--k", "3")[0] == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_words", lambda args: seen.append(args.k) or EXIT_NUMERICAL)
    assert run(capsys, "words", "--k", "5")[0] == EXIT_NUMERICAL
    assert seen == [5]
