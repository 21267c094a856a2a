"""Spectral theory of the off-diagonal Fibonacci Jacobi operator.

Computes trace-map dynamics, band covers of the spectrum, Lebesgue-measure
decay, Lyapunov exponents, fractal-dimension estimates, and the operator
identities behind singular continuity, for the family of Jacobi matrices
with zero diagonal and hoppings a, b arranged in the Fibonacci pattern.

Importing the package loads no layer.  The first access of a public name
(``fibjacobi.sigma_k``, ``from fibjacobi import HoppingPair``) imports
every layer module and binds every name of the API below at once; a
module name (``fibjacobi.bands``, ``from fibjacobi import cli``) imports
only that module.  So the command line tool loads only the layers its
command calls.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public API, by the layer module that defines each name.
_API = {
    "bands": (
        "BandSet",
        "EnergyWindow",
        "RootIsolationError",
        "bandset_from_json",
        "bandset_to_json",
        "cover",
        "energy_window",
        "escape_spectrum",
        "hausdorff_distance",
        "lebesgue_measure",
        "sigma_chain",
        "sigma_k",
    ),
    "fractal": (
        "DimensionEstimate",
        "SweepEntry",
        "band_scaling_dimension",
        "box_count",
        "box_dimension",
        "dimension_sweep",
        "eps_ladder",
        "local_dimension",
    ),
    "jacobi": (
        "EigenvalueList",
        "JacobiWindow",
        "build_window",
        "eigenvalue_count_below",
        "eigenvalues_free",
        "eigenvalues_from_json",
        "eigenvalues_to_json",
        "periodic_band_check",
        "truncation_spectrum_consistency",
    ),
    "tracemap": (
        "EscapeResult",
        "HoppingPair",
        "TraceDivergedError",
        "TraceTriple",
        "escape_classify",
        "escape_grid",
        "growth_rate_after_escape",
        "invariant_expected",
        "trace_bound",
        "trace_value",
    ),
    "transfer": (
        "CocycleRangeError",
        "LyapunovEstimate",
        "SquareStructureError",
        "cayley_hamilton_defect",
        "cocycle",
        "cocycles",
        "evolve_solution",
        "lyapunov",
        "lyapunov_grid",
        "no_decay_witness",
        "physical_products",
        "trace_halves",
    ),
    "words": (
        "SignedWindow",
        "cyclic_conjugates",
        "fib_prefix",
        "fibonacci",
        "omega_s",
        "periodize",
        "square_prefix_block",
        "square_prefix_check",
        "substitute",
        "subwords",
        "window_from_word",
    ),
}
# Every layer module: the API's, and the command line front end.
_LAYERS = (*_API, "cli")

__all__ = sorted(name for names in _API.values() for name in names)


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    api = globals()
    for layer in _LAYERS:
        module = importlib.import_module(f"{__name__}.{layer}")
        for public in _API.get(layer, ()):
            api[public] = getattr(module, public)
    return api[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
