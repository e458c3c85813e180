"""Exact rational linear algebra: matrices, rank, linear systems solved with
some columns pinned, LP, conic combinations."""

from .matrix import (
    ExactMatrix,
    PinnedSolve,
    clear_denominators,
    common_denominator,
    format_rational,
    matrix_to_json,
    rank,
    rat,
)
from .simplex import LPResult, conic_combination, lp_solve, lp_solve_all

__all__ = [
    "ExactMatrix",
    "LPResult",
    "PinnedSolve",
    "clear_denominators",
    "common_denominator",
    "conic_combination",
    "format_rational",
    "lp_solve",
    "lp_solve_all",
    "matrix_to_json",
    "rank",
    "rat",
]
