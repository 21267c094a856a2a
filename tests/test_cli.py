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

from fibjacobi import cli
from fibjacobi.bands import bandset_from_json, cover, lebesgue_measure
from fibjacobi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from fibjacobi.tracemap import HoppingPair


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
    code, out, err = run(capsys, "lyapunov", "--emin", "1e12", "--emax", "2e12", "--points", "3")
    assert code == EXIT_NUMERICAL
    assert "E = 1000000000000.0 leaves double range" in err
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
    "bad", [("--tol", "nan"), ("--tol", "1e-14"), ("--kmax", "21"), ("--kmin", "8"), ("--kmax", "8")]
)
def test_dimension_sweep_checks_options_before_the_sweep(capsys, bad):
    # A --tol or level range that no coupling accepts is one usage error,
    # the single-coupling form's, not an error row per coupling.
    single = run(capsys, "dimension", "--kmax", "10", *bad)
    sweep = run(capsys, "dimension", "--sweep", "1.5:1.6:0.1", "--kmax", "10", *bad)
    assert single[0] == sweep[0] == EXIT_USAGE
    assert sweep[1] == ""
    assert sweep[2] == single[2] and sweep[2].startswith("fibjacobi: error: ")
    assert sweep[2].count("\n") == 1


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


def test_verify_free_case_warns_but_passes(capsys):
    code, out, err = run(capsys, "verify", "--a", "1", "--b", "1")
    assert code == EXIT_OK
    assert "degenerate hull" in err
    assert "all checks passed" in out


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
    (("bands", "--k", "3", "--config"), "--config needs a file path"),
    (("cover", "--k", "3", "--tol", "inf"), "tol must be a positive finite number, got inf"),
    (("dimension", "--kmax", "10", "--tol", "inf"), "tol must be a positive finite number, got inf"),
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
