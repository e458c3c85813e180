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
from .simplex import LPResult, conic_combination, lp_solve, lp_solve_all

__all__ = [
    "ExactMatrix",
    "IntegerRows",
    "LPResult",
    "common_denominator",
    "conic_combination",
    "format_rational",
    "lp_solve",
    "lp_solve_all",
    "matrix_to_json",
    "rank",
    "rat",
    "read_matrix",
    "solve_unique",
    "write_matrix",
]
