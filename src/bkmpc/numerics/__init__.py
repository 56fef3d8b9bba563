from .dense import (
    DimensionError,
    DomainError,
    matrix_exp,
    matrix_exp_frechet,
    phi1,
    phi1_partials,
)
from .eig import ConvergenceError, eig_values
from .autodiff import Grads, Tape, UnsupportedOpError, Var, backward

__all__ = [
    "DimensionError",
    "DomainError",
    "matrix_exp",
    "matrix_exp_frechet",
    "phi1",
    "phi1_partials",
    "ConvergenceError",
    "eig_values",
    "Tape",
    "Var",
    "Grads",
    "backward",
    "UnsupportedOpError",
]
