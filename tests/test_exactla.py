"""Tests for the exact linear algebra layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xclab.errors import InputError
from xclab.exactla import (
    ExactMatrix,
    common_denominator,
    conic_combination,
    format_rational,
    lp_solve,
    matrix_to_json,
    rank,
    rat,
    solve_unique,
)

F = Fraction


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat("-7") == F(-7)
    assert rat(5) == F(5)
    assert rat(F(1, 3)) == F(1, 3)
    with pytest.raises(InputError):
        rat("x/y")
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat(1.5)  # type: ignore[arg-type]


def test_format_rational():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-8, 2)) == "-4"
    assert format_rational(F(0)) == "0"


def test_matrix_shape_validation():
    with pytest.raises(InputError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        ExactMatrix([])
    m = ExactMatrix([[1, "1/2"], [0, -3]])
    assert m.shape == (2, 2)
    assert m.entry(0, 1) == F(1, 2)


def test_matmul_and_transpose():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([["1/2", 0], [0, 1]])
    assert (a @ b).rows() == ((F(1, 2), F(2)), (F(3, 2), F(4)))
    assert a.transpose().rows() == ((F(1), F(3)), (F(2), F(4)))
    with pytest.raises(InputError):
        a @ ExactMatrix([[1, 2, 3]])


def test_norm_and_frobenius():
    m = ExactMatrix([[1, -5], ["1/2", 0]])
    assert m.max_norm() == F(5)
    other = ExactMatrix([[2, 1], [4, 9]])
    assert m.frobenius(other) == F(2) - F(5) + F(2)


def test_rank_examples():
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(2, 5)) == 0
    assert rank(ExactMatrix([[1, 2], [2, 4]])) == 1
    assert rank(ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rank(ExactMatrix([["1/3", "1/7"], ["1/5", "1/11"]])) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_rank_agrees_with_duplicated_rows(rows):
    m = ExactMatrix(rows)
    doubled = ExactMatrix(rows + rows)
    assert rank(m) == rank(doubled)
    assert rank(m) == rank(m.transpose())
    assert rank(m) <= min(m.nrows, m.ncols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_invariant_under_positive_row_scaling(data):
    rows = data.draw(
        st.lists(
            st.lists(
                st.fractions(min_value=-30, max_value=30, max_denominator=9),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    factors = data.draw(
        st.lists(
            st.fractions(min_value=F(1, 13), max_value=50, max_denominator=13),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
    for row in scaled:
        d = common_denominator(row)
        assert all((d * x).denominator == 1 for x in row)
    assert rank(ExactMatrix(scaled)) == rank(ExactMatrix(rows))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
            min_size=1,
            max_size=4,
        ).map(tuple),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_matrix_text_round_trip(rows):
    m = ExactMatrix(rows)
    again = ExactMatrix.from_text(m.to_text())
    assert again == m
    assert ExactMatrix(matrix_to_json(m.rows())) == m


def test_matrix_text_errors():
    with pytest.raises(InputError):
        ExactMatrix.from_text("")
    with pytest.raises(InputError):
        ExactMatrix.from_text("2 2\n1 2\n")
    with pytest.raises(InputError):
        ExactMatrix.from_text("1 2\n1 2 3\n")


def test_lp_bounded_single_variable():
    res = lp_solve(([[1]], [1]), None, [1], sense="max")
    assert res.status == "optimal"
    assert res.value == 1
    assert res.point == (F(1),)


def test_lp_infeasible():
    res = lp_solve(([[1], [-1]], [-1, 0]), None, [1], sense="max")
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve(([[-1]], [0]), None, [1], sense="max")
    assert res.status == "unbounded"


def test_lp_equality_and_min():
    # min x + y subject to x + y = 2, x <= 3, y <= 3, x >= 0, y >= 0
    res = lp_solve(
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], [3, 3, 0, 0]),
        ([[1, 1]], [2]),
        [1, 1],
        sense="min",
    )
    assert res.status == "optimal"
    assert res.value == 2
    assert sum(res.point) == 2


def test_lp_fractional_optimum():
    # Degree-constrained triangle: max sum x_e with each pair summing to <= 1.
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    rhs = [1, 1, 1, 0, 0, 0]
    res = lp_solve((rows, rhs), None, [1, 1, 1], sense="max")
    assert res.status == "optimal"
    assert res.value == F(3, 2)
    assert res.point == (F(1, 2), F(1, 2), F(1, 2))


def test_lp_zero_rows_and_empty_objective():
    # A zero row is a legal constraint; empty objective means the zero goal.
    res = lp_solve(([[0, 0], [1, 1]], [5, 2]), None, [], sense="max")
    assert res.status == "optimal"
    assert res.value == 0
    res = lp_solve(([[0]], [-1]), None, [1], sense="max")
    assert res.status == "infeasible"


def test_lp_free_variables():
    res = lp_solve(([[1, 1], [-1, 1]], [2, 2]), None, [0, 1], sense="max")
    assert res.status == "optimal"
    assert res.value == 2
    # x unconstrained below: minimize x with only upper bounds is unbounded
    res = lp_solve(([[1, 1], [-1, 1]], [2, 2]), None, [1, 0], sense="min")
    assert res.status == "unbounded"


def test_lp_dimension_mismatch():
    with pytest.raises(InputError):
        lp_solve(([[1, 2]], [1]), None, [1], sense="max")
    with pytest.raises(InputError):
        lp_solve(([[1], [1, 2]], [1, 1]), None, [1], sense="max")
    with pytest.raises(InputError):
        lp_solve(([[1]], [1, 2]), None, [1], sense="max")
    with pytest.raises(InputError):
        lp_solve(([[1]], [1]), None, [1], sense="argmax")


def test_lp_determinism():
    rows = [[3, -1, 2], [1, 1, 1], [-2, 5, -1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    rhs = [7, 5, 3, 0, 0, 0]
    first = lp_solve((rows, rhs), None, [2, 3, 1], sense="max")
    for _ in range(3):
        again = lp_solve((rows, rhs), None, [2, 3, 1], sense="max")
        assert again == first


def test_conic_combination_examples():
    u = conic_combination(ExactMatrix([[1, 0], [0, 1]]), (3, 5))
    assert u == (F(3), F(5))
    assert conic_combination(ExactMatrix([[1, 0], [0, 1]]), (-2, 5)) is None
    u = conic_combination(ExactMatrix([[2], [3]]), (5,))
    assert u is not None
    assert all(x >= 0 for x in u)
    assert 2 * u[0] + 3 * u[1] == 5


def test_conic_combination_dimension_error():
    with pytest.raises(InputError):
        conic_combination(ExactMatrix([[1, 0]]), (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_lp_random_small_feasible(seed):
    # Random bounded LPs: the reported point must satisfy every constraint
    # and match the reported value.
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 6))]
    rhs = [rng.randint(0, 6) for _ in rows]
    # Box the problem so it is never unbounded.
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(list(e))
        rhs.append(10)
        e2 = [0] * n
        e2[i] = -1
        rows.append(e2)
        rhs.append(10)
    c = [rng.randint(-5, 5) for _ in range(n)]
    res = lp_solve((rows, rhs), None, c, sense="max")
    assert res.status == "optimal"
    for row, b in zip(rows, rhs):
        assert sum(F(a) * x for a, x in zip(row, res.point)) <= b
    assert sum(F(a) * x for a, x in zip(c, res.point)) == res.value


def test_solve_unique_examples():
    assert solve_unique([[1, 1], [1, -1]], [3, 1]) == (F(2), F(1))
    assert solve_unique([[F(1, 2), 0], [0, 3]], [1, 1]) == (F(2), F(1, 3))
    assert solve_unique([[1, 1]], [1]) == "not unique"
    assert solve_unique([[1, 1], [2, 2]], [1, 3]) == "inconsistent"
    assert solve_unique([[1, 1], [2, 2], [1, 0]], [1, 2, 0]) == (F(0), F(1))
    # full rank after two rows; the third is only checked at the solution
    assert solve_unique([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) == "inconsistent"
    # inconsistency wins over rank deficiency
    assert solve_unique([[1, 1, 0], [1, 1, 0]], [1, 2]) == "inconsistent"
    assert solve_unique([], []) == "not unique"
    assert solve_unique([[], []], [0, 0]) == ()
    assert solve_unique([[], []], [0, 1]) == "inconsistent"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_unique_agrees_with_rank(data):
    # A x = b has a solution iff rank [A | b] == rank A, and it is unique
    # iff moreover rank A == ncols.
    ncols = data.draw(st.integers(1, 4))
    entry = st.fractions(-3, 3, max_denominator=3)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=4)
    )
    # rows combined from earlier ones make rank deficiency common
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(-2, 2))
        rows.insert(data.draw(st.integers(0, len(rows))), [a + c * b for a, b in zip(rows[i], rows[j])])
    x0 = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=ncols, max_size=ncols))
    rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 1))
        rhs[i] += data.draw(st.fractions(-2, 2, max_denominator=2))
    out = solve_unique(rows, rhs)
    r = rank(ExactMatrix(rows))
    if rank(ExactMatrix([row + [b] for row, b in zip(rows, rhs)])) > r:
        assert out == "inconsistent"
    elif r < ncols:
        assert out == "not unique"
    else:
        assert all(sum((a * x for a, x in zip(row, out)), F(0)) == b for row, b in zip(rows, rhs))
