"""Tests of the benchmark harness, not of the program's speed.

    python3 -m pytest perfbench

The smoke run executes a few small jobs of every workload, untraced and
traced, through every output check; nothing here has a timing threshold.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fibjacobi import cli  # noqa: E402


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_jobs_depend_only_on_seed(name):
    def first(seed, n=3):
        stream = workloads.rounds(name, seed)
        return [next(stream) for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    flags = {a for rnd in first(7, 20) for job in rnd for a in job if a.startswith("--")}
    assert not flags & {"--threads", "--tol", "--out"}


def test_sweep_repeats_ratios_exactly():
    rnd = next(workloads.rounds("sweep", 3))
    dims = [job for job in rnd if job[0] == "dimension"]
    ratios = [float(o["b"]) / float(o["a"]) for o in map(checks.options, dims)]
    scales = [float(o["a"]) for o in map(checks.options, dims)]
    assert len(set(ratios)) == len(ratios) - 2
    assert len(set(scales)) == len(scales)


def _output(argv, tmp_path):
    out = tmp_path / "job.out"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text(), stdout.getvalue()


def _edit_json(text, edit):
    payload = json.loads(text)
    edit(payload["result"])
    return json.dumps(payload)


def _shift_first_edge(res):
    res["bands"][0][0] -= 1e-6


def _shift_first_value(res):
    res["values"][0] -= 1.0


def _swap_first_letters(res):
    res["prefix"] = "ba" + res["prefix"][2:]


def _rejects(argv, text, stdout):
    try:
        return checks.check(argv, text, stdout) is not None
    except (ValueError, KeyError, IndexError):
        return True


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        # a band edge moved by 1e-6, far beyond tol
        (["cover", "--b", "2.0", "--k", "6"], lambda t: _edit_json(t, _shift_first_edge)),
        # gamma 0 at the top energy, outside the norm bound
        (["lyapunov", "--b", "1.5", "--emin", "-3.75", "--emax", "3.75",
          "--points", "21", "--length", "987"],
         lambda t: t.rsplit(",", 2)[0] + ",0.0," + t.rsplit(",", 1)[1]),
        # the lowest eigenvalue moved, breaking the symmetry about 0
        (["eigs", "--b", "2.0", "--k", "7"], lambda t: _edit_json(t, _shift_first_value)),
        (["words", "--k", "8", "--complexity", "5"], lambda t: _edit_json(t, _swap_first_letters)),
        (["dimension", "--a", "0.5", "--b", "1.0", "--kmax", "14"],
         lambda t: t.replace(",band-scaling,", ",box-fit,", 1)),
    ],
)
def test_checks_pass_real_output_and_reject_corrupted(argv, corrupt, tmp_path):
    text, stdout = _output(argv, tmp_path)
    assert checks.check(argv, text, stdout) is None
    bad = corrupt(text)
    assert bad != text
    assert _rejects(argv, bad, stdout)
