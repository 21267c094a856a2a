"""Spectral theory of the off-diagonal Fibonacci Jacobi operator.

Computes trace-map dynamics, band covers of the spectrum, Lebesgue-measure
decay, Lyapunov exponents, fractal-dimension estimates, and the operator
identities behind singular continuity, for the family of Jacobi matrices
with zero diagonal and hoppings a, b arranged in the Fibonacci pattern.
"""

from __future__ import annotations

from .bands import (
    BandSet,
    EnergyWindow,
    RootIsolationError,
    bandset_from_json,
    bandset_to_json,
    cover,
    energy_window,
    escape_spectrum,
    hausdorff_distance,
    lebesgue_measure,
    sigma_chain,
    sigma_k,
)
from .fractal import (
    DimensionEstimate,
    SweepEntry,
    band_scaling_dimension,
    box_count,
    box_dimension,
    dimension_sweep,
    eps_ladder,
    local_dimension,
)
from .jacobi import (
    EigenvalueList,
    JacobiWindow,
    build_window,
    eigenvalue_count_below,
    eigenvalues_free,
    eigenvalues_from_json,
    eigenvalues_to_json,
    periodic_band_check,
    truncation_spectrum_consistency,
)
from .tracemap import (
    EscapeResult,
    HoppingPair,
    TraceDivergedError,
    TraceTriple,
    escape_classify,
    escape_grid,
    growth_rate_after_escape,
    initial_triple,
    invariant_expected,
    invariant_value,
    step,
    step_inverse,
    trace_bound,
    trace_value,
)
from .transfer import (
    CocycleRangeError,
    LyapunovEstimate,
    SquareStructureError,
    TransferMatrix,
    cayley_hamilton_defect,
    cocycle,
    cocycles,
    evolve_solution,
    local_matrix,
    lyapunov,
    lyapunov_grid,
    no_decay_witness,
)
from .words import (
    SignedWindow,
    cyclic_conjugates,
    fib_prefix,
    fibonacci,
    omega_s,
    periodize,
    square_prefix_block,
    square_prefix_check,
    substitute,
    subwords,
    window_from_word,
)

__version__ = "0.1.0"
