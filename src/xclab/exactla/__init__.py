"""Exact rational linear algebra: matrices, rank, unique solutions of linear
systems, LP, conic combinations."""

from .matrix import (
    ExactMatrix,
    IntegerRows,
    common_denominator,
    format_rational,
    matrix_to_json,
    rank,
    rat,
    read_matrix,
    solve_unique,
    write_matrix,
)
from .simplex import LPResult, conic_combination, lp_solve

__all__ = [
    "ExactMatrix",
    "IntegerRows",
    "LPResult",
    "common_denominator",
    "conic_combination",
    "format_rational",
    "lp_solve",
    "matrix_to_json",
    "rank",
    "rat",
    "read_matrix",
    "solve_unique",
    "write_matrix",
]
