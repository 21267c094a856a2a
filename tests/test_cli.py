"""CLI behavior: exit codes, output shapes, provenance, determinism.

Commands run in-process through main(argv) so the suite stays fast; the
console script wraps the same function.
"""

import json
import math

import numpy as np
import pytest

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


def test_lyapunov_threads_match_serial(tmp_path, capsys):
    args = [
        "lyapunov", "--a", "1", "--b", "2", "--emin", "-1", "--emax", "1",
        "--points", "17", "--length", "144",
    ]
    f1, f2 = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert run(capsys, *args, "--out", str(f1))[0] == EXIT_OK
    assert run(capsys, *args, "--threads", "4", "--out", str(f2))[0] == EXIT_OK
    serial = [l for l in f1.read_text().splitlines() if not l.startswith("#")]
    threaded = [l for l in f2.read_text().splitlines() if not l.startswith("#")]
    assert serial == threaded


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


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "2", "--perturb-recursion", "1e-6")
    assert code == EXIT_NUMERICAL
    assert "FAIL  invariant-conservation" in out


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


def test_eigs_requires_exactly_one_window_source(capsys):
    assert run(capsys, "eigs", "--a", "1", "--b", "2")[0] == EXIT_USAGE
    assert run(capsys, "eigs", "--k", "3", "--letters", "ab")[0] == EXIT_USAGE


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


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "bands", "--help")[0] == EXIT_OK
