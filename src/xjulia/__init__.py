"""Exceptional Jacobi families, their Julia sets, and equilibrium-measure
diagnostics."""

from .dynamics import (BrolinSample, EscapeData, RasterGrid, brolin_sample,
                       escape_radius, escape_raster, exact_chebyshev_moments,
                       preimage_count_in_set, raster_to_pgm)
from .errors import (ConfigError, ConvergenceError, NodeConvergenceError,
                     ValidationError, XjuliaError)
from .exceptional import (DarbouxData, ZeroClassification, classify_zeros,
                          eval_exceptional, leading_coeff_exceptional,
                          make_x1_preset, monomial_coeffs, sigma_n,
                          sigma_n_closed_form, zero_counting_measure)
from .jacobi import (DEGREE_CAP, JacobiParams, QuadratureRule,
                     eval_jacobi_derivative, eval_orthonormal_jacobi,
                     gauss_jacobi_rule, leading_coeff_jacobi)
from .measures import (EmpiricalMeasure, arcsine_cdf, chebyshev_moments,
                       green_complement_interval, ks_distance_real)
from .poly import Poly, roots

__version__ = "0.1.0"

__all__ = [
    "BrolinSample", "ConfigError", "ConvergenceError", "DEGREE_CAP",
    "DarbouxData", "EmpiricalMeasure", "EscapeData",
    "JacobiParams", "NodeConvergenceError", "Poly", "QuadratureRule",
    "RasterGrid", "ValidationError", "XjuliaError", "ZeroClassification",
    "arcsine_cdf", "brolin_sample", "chebyshev_moments",
    "classify_zeros", "escape_radius", "escape_raster",
    "eval_exceptional", "eval_jacobi_derivative", "eval_orthonormal_jacobi",
    "exact_chebyshev_moments", "gauss_jacobi_rule",
    "green_complement_interval", "ks_distance_real", "leading_coeff_exceptional",
    "leading_coeff_jacobi", "make_x1_preset", "monomial_coeffs",
    "preimage_count_in_set", "raster_to_pgm", "roots", "sigma_n",
    "sigma_n_closed_form", "zero_counting_measure",
]
