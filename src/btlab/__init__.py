"""Numerical laboratory for Toeplitz quantization on weighted spaces of
entire functions.

Submodules are imported lazily so that the console entry point can pin
BLAS/OpenMP thread-pool environment variables before numpy loads; see
:mod:`btlab.cli`.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "errors",
    "geometry",
    "quadrature",
    "basis",
    "symbols",
    "heat",
    "operators",
    "bargmann",
    "config",
    "cli",
)

_EXPORTS = {
    # geometry
    "PhaseMatrices": "geometry",
    "SpaceContext": "geometry",
    "build_context": "geometry",
    "validate_phase": "geometry",
    "fock_phase": "geometry",
    "heat_phase": "geometry",
    "random_phase": "geometry",
    "phi_weight": "geometry",
    "psi": "geometry",
    "kappa_T": "geometry",
    # quadrature
    "QuadratureRule": "quadrature",
    "gauss_hermite_rule": "quadrature",
    "complex_grid": "quadrature",
    # basis
    "MultiIndexSet": "basis",
    "enumerate_multiindices": "basis",
    "u_alpha_eval": "basis",
    "gram_matrix": "basis",
    # symbols
    "PlaneWaveSum": "symbols",
    "CallableSymbol": "symbols",
    "plane_wave_sum": "symbols",
    "constant_symbol": "symbols",
    "cosine_symbol": "symbols",
    "sine_symbol": "symbols",
    "eval_symbol": "symbols",
    "sup_norm": "symbols",
    "q_form": "symbols",
    "poisson": "symbols",
    "cotangent_frequencies": "symbols",
    # heat
    "heat_flow": "heat",
    "heat_flow_quadrature": "heat",
    "sw_diagnostic": "heat",
    "sw_l1": "heat",
    # operators
    "toeplitz_matrix": "operators",
    "weyl_unitary_matrix": "operators",
    "operator_norm": "operators",
    "norm_converged": "operators",
    "weyl_conjugation_check": "operators",
    "bound_report": "operators",
    "deformation_residuals": "operators",
    "deformation_sweep": "operators",
    # bargmann
    "GaussianTestFn": "bargmann",
    "real_weyl_planewave_apply": "bargmann",
    "egorov_guillemin_check": "bargmann",
}

__all__ = ["__version__", *_SUBMODULES, *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
