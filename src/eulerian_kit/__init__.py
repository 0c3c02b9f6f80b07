"""Exact combinatorial invariants and Eulerian-manifold checks for finite
simplicial complexes."""

from .checks import (
    check_main_formula,
    ds_residuals,
    is_eulerian,
    proof_trace,
    sphere_chi,
)
from .complexes import Face, SimplicialComplex
from .errors import InputError
from .invariants import (
    euler_characteristic,
    f_poly_eval,
    f_polynomial,
    f_vector,
    h_poly_eval,
    h_vector,
)
from .reports import CheckReport, DSResidualRow

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DSResidualRow",
    "Face",
    "InputError",
    "SimplicialComplex",
    "check_main_formula",
    "ds_residuals",
    "euler_characteristic",
    "f_poly_eval",
    "f_polynomial",
    "f_vector",
    "h_poly_eval",
    "h_vector",
    "is_eulerian",
    "proof_trace",
    "sphere_chi",
    "__version__",
]
