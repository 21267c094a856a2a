"""Defaults shared by a layer and the command line parser.

This module imports nothing, so the parser reads its defaults without
loading numpy or a layer module.
"""

# Band-edge tolerance of sigma_k, cover and the dimension fits, and the
# default of their commands' --tol.
DEFAULT_TOL = 1e-10
