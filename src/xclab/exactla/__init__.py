"""Exact rational linear algebra: matrices, rank, LP, conic combinations."""

from .matrix import (
    ExactMatrix,
    Rational,
    common_denominator,
    format_rational,
    matrix_to_json,
    rank,
    rat,
    read_matrix,
    write_matrix,
)
from .simplex import LPResult, conic_combination, lp_solve

__all__ = [
    "ExactMatrix",
    "LPResult",
    "Rational",
    "common_denominator",
    "conic_combination",
    "format_rational",
    "lp_solve",
    "matrix_to_json",
    "rank",
    "rat",
    "read_matrix",
    "write_matrix",
]
