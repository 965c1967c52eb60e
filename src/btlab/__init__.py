"""Numerical laboratory for Toeplitz quantization on weighted spaces of
entire functions.

Import each name from its own module (``from btlab.operators import
toeplitz_matrix``).  This file imports nothing, because `btlab.cli` must
set the BLAS/OpenMP thread variables before numpy loads.
"""

__version__ = "0.1.0"
