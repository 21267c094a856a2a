"""What importing the package and running a command loads.

The command line front end imports no layer and not numpy until a
command runs, and then only that command's layers.  The package API
loads whole on the first access of any public name, so a tool that wraps
the layers' functions after `from fibjacobi import ...` finds every layer
loaded.  Each case runs in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibjacobi

ROOT = Path(__file__).resolve().parents[1]
LAYERS = {"bands", "cli", "fractal", "jacobi", "tracemap", "transfer", "words"}

# The package's public names, by the layer that defines each.
EXPORTS = {
    "bands": [
        "BandSet", "EnergyWindow", "RootIsolationError", "bandset_from_json", "bandset_to_json",
        "cover", "energy_window", "escape_spectrum", "hausdorff_distance", "lebesgue_measure",
        "sigma_chain", "sigma_k",
    ],
    "fractal": [
        "DimensionEstimate", "SweepEntry", "band_scaling_dimension", "box_count", "box_dimension",
        "dimension_sweep", "eps_ladder", "local_dimension",
    ],
    "jacobi": [
        "EigenvalueList", "JacobiWindow", "build_window", "eigenvalue_count_below",
        "eigenvalues_free", "eigenvalues_from_json", "eigenvalues_to_json", "periodic_band_check",
        "truncation_spectrum_consistency",
    ],
    "tracemap": [
        "EscapeResult", "HoppingPair", "TraceDivergedError", "TraceTriple", "escape_classify",
        "escape_grid", "growth_rate_after_escape", "invariant_expected", "trace_bound",
        "trace_value",
    ],
    "transfer": [
        "CocycleRangeError", "LyapunovEstimate", "SquareStructureError", "cayley_hamilton_defect",
        "cocycle", "cocycles", "evolve_solution", "lyapunov", "lyapunov_grid", "no_decay_witness",
        "physical_products", "trace_halves",
    ],
    "words": [
        "SignedWindow", "cyclic_conjugates", "fib_prefix", "fibonacci", "omega_s", "periodize",
        "square_prefix_block", "square_prefix_check", "substitute", "subwords", "window_from_word",
    ],
}


def loaded_after(code: str) -> tuple[set[str], bool]:
    """The layers a fresh interpreter holds after running code, and whether it holds numpy."""
    script = f"{code}\nimport sys\nprint(*sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.splitlines()[-1].split()
    layers = {m.removeprefix("fibjacobi.") for m in modules} & LAYERS
    return layers, "numpy" in modules


def test_parser_help_and_usage_errors_load_neither_numpy_nor_a_layer():
    code = (
        "import contextlib, io\nfrom fibjacobi import cli\ncli.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['--help']) == 0\n"
        "    assert cli.main(['bands', '--help']) == 0\n"
        "    assert cli.main(['bands']) == 2\n"
    )
    assert loaded_after(code) == ({"cli"}, False)


@pytest.mark.parametrize("argv, layers, numpy", [
    (["words", "--k", "5", "--complexity", "3"], {"cli", "words"}, False),
    (["words", "--k", "10", "--complexity", "4", "--format", "json"], {"cli", "words"}, False),
    (["lyapunov", "--points", "3", "--length", "89"], {"cli", "tracemap", "transfer", "words"}, True),
    (["verify"], {"cli", "tracemap", "transfer", "words"}, True),
    (["bands", "--k", "5"], {"cli", "bands", "tracemap", "words"}, True),
    (["eigs", "--k", "5"], {"cli", "bands", "jacobi", "tracemap", "words"}, True),
    (["dimension", "--kmax", "11"], {"cli", "bands", "fractal", "tracemap", "words"}, True),
], ids=["words", "words-json", "lyapunov", "verify", "bands", "eigs", "dimension"])
def test_each_command_loads_only_its_layers(argv, layers, numpy):
    code = (
        "import contextlib, io\nfrom fibjacobi.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
    )
    assert loaded_after(code) == (layers, numpy)


def test_module_name_loads_only_that_module():
    assert loaded_after("import fibjacobi\nfibjacobi.words") == ({"words"}, False)
    assert loaded_after("from fibjacobi import tracemap") == ({"tracemap", "words"}, True)


def test_first_public_name_loads_every_layer():
    # perfbench/tracing.py wraps the functions of all seven layers right
    # after perfbench/checks.py's `from fibjacobi import HoppingPair, ...`.
    assert loaded_after("import fibjacobi") == (set(), False)
    assert loaded_after("from fibjacobi import fibonacci") == (LAYERS, True)
    assert loaded_after("import fibjacobi\nfibjacobi.HoppingPair") == (LAYERS, True)


def test_every_public_name_is_its_layers_object():
    listed = dir(fibjacobi)
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"fibjacobi.{layer}")
        for name in names:
            assert getattr(fibjacobi, name) is getattr(module, name), name
            assert name in listed, name
    assert sorted(fibjacobi.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert LAYERS <= set(listed)


@pytest.mark.parametrize("name", ["factor_complexity", "MIN_TOL", "_chain", "no_such_name"])
def test_other_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(fibjacobi, name)
    with pytest.raises(ImportError):
        exec(f"from fibjacobi import {name}", {})
