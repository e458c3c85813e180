"""Tests for the exact linear algebra layer."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xclab
from xclab.errors import InputError
from xclab.exactla import (
    ExactMatrix,
    IntegerRows,
    LPResult,
    common_denominator,
    conic_combination,
    format_rational,
    lp_solve,
    lp_solve_all,
    matrix_to_json,
    rank,
    rat,
    solve_unique,
)
from xclab.exactla import simplex

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
    # IntegerRows.rank shares solve_unique's elimination: the rank of any
    # subset of rows, counted up to a limit, leaving the held rows alone.
    system = IntegerRows(rows, rhs)
    held = [dict(row) for row in system.rows]
    idx = data.draw(st.lists(st.integers(0, len(rows) - 1), unique=True))
    limit = data.draw(st.integers(1, ncols))
    sub = rank(ExactMatrix([rows[i] for i in idx])) if idx else 0
    assert system.rank(idx, limit) == min(sub, limit)
    assert system.rows == held
    if rank(ExactMatrix([row + [b] for row, b in zip(rows, rhs)])) > r:
        assert out == "inconsistent"
    elif r < ncols:
        assert out == "not unique"
    else:
        assert all(sum((a * x for a, x in zip(row, out)), F(0)) == b for row, b in zip(rows, rhs))


def test_post_solve_checks_survive_python_O():
    """The independent checks on the solver's answer are explicit raises,
    which `python -O` keeps: a solver returning a bad point is caught."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        import xclab.exactla.simplex as simplex
        import xclab.yannakakis as yannakakis
        from xclab.polytope import simplex_polytope, slack_matrix

        assert not __debug__, "asserts are on"
        solve = simplex._simplex_all

        def returning(point):
            simplex._simplex_all = lambda *args: [[Fraction(x) for x in point]]

        def outcome(call):
            try:
                call()
            except AssertionError as exc:
                return str(exc)
            return "no raise"

        p = simplex_polytope(2)
        ef = yannakakis.extension_from_factorization(
            p, yannakakis.slack_variable_factorization(slack_matrix(p))
        )
        yannakakis.verify_factorization = lambda *args: False
        returning([2])
        print(outcome(lambda: simplex.lp_solve(([[1]], [1]), None, [1])))
        print(outcome(lambda: simplex.lp_solve(None, ([[1]], [1]), [1])))
        print(outcome(lambda: simplex.conic_combination([[1]], [1])))
        returning([-1])
        print(outcome(lambda: simplex.conic_combination([[1]], [-1])))
        simplex._simplex_all = solve
        print(outcome(lambda: yannakakis.factorization_from_extension(p, ef.to_xy_system())))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xclab.__file__)))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "solver returned an infeasible point",
        "solver returned a point violating an equality",
        "solver returned a point off the target",
        "solver returned a negative multiplier",
        "derived factorization does not reproduce the slack matrix",
    ]


# ---------------------------------------------------------------------------
# Differential check of the integer dictionary simplex against the dense
# integer tableau it replaced: same pivots, so the same status, point and
# value.  With a zero goal the dictionary simplex stops where the
# reference's phase-one objective first reads 0, so there it makes the
# reference's pivots up to that point.  The reference writes its pivots,
# that point and the rarer paths it took to a `_RefLog`.


class _RefLog:
    def __init__(self):
        self.pivots: list[tuple[int, int]] = []  # (leaving, entering) column ids
        self.feasible_at: int | None = None  # len(pivots) when phase one first read 0
        self.events: Counter = Counter()


def _ref_simplex(
    le_rows: list[list[Fraction]],
    le_rhs: list[Fraction],
    eq_rows: list[list[Fraction]],
    eq_rhs: list[Fraction],
    nonneg: list[bool],
    goal: list[Fraction],
    log: _RefLog | None = None,
) -> list[Fraction] | str:
    """Reference: the dense integer-tableau simplex that the dictionary form
    replaced, with every column stored, basic ones included."""
    nvars = len(nonneg)
    nonneg = list(nonneg)

    # Presolve: a row -x_i <= 0 is just a sign bound, not worth a tableau row.
    kept_le: list[int] = []
    for ridx, (row, rhs) in enumerate(zip(le_rows, le_rhs)):
        nz = [(j, a) for j, a in enumerate(row) if a]
        if rhs == 0 and len(nz) == 1 and nz[0][1] < 0:
            nonneg[nz[0][0]] = True
        else:
            kept_le.append(ridx)

    # Column layout: free vars get a plus and a minus column.
    col_var: list[tuple[int, int]] = []  # (var index, sign)
    for i in range(nvars):
        col_var.append((i, +1))
        if not nonneg[i]:
            col_var.append((i, -1))
    nstruct = len(col_var)

    def scaled_int_row(row: list[Fraction], rhs: Fraction) -> tuple[list[int], int]:
        scale = common_denominator((*row, rhs))
        out = [int(row[v] * scale) * s for v, s in col_var]
        return out, int(rhs * scale)

    # Assemble tableau rows; record which need a slack or an artificial.
    body: list[list[int]] = []
    kinds: list[str] = []  # "slack" | "flipped" | "eq"
    for ridx in kept_le:
        coefs, rhs = scaled_int_row(le_rows[ridx], le_rhs[ridx])
        if rhs >= 0:
            body.append(coefs + [rhs])
            kinds.append("slack")
        else:
            body.append([-a for a in coefs] + [-rhs])
            kinds.append("flipped")
    for row, rhs in zip(eq_rows, eq_rhs):
        coefs, irhs = scaled_int_row(row, rhs)
        if irhs >= 0:
            body.append(coefs + [irhs])
        else:
            body.append([-a for a in coefs] + [-irhs])
        kinds.append("eq")

    m = len(body)
    nslack = sum(1 for k in kinds if k == "slack")
    nsurplus = sum(1 for k in kinds if k == "flipped")
    nart = sum(1 for k in kinds if k != "slack")
    width = nstruct + nslack + nsurplus + nart + 1

    tableau: list[list[int]] = []
    basis: list[int] = []
    art_cols: set[int] = set()
    slack_at = nstruct
    art_at = nstruct + nslack + nsurplus
    for i, kind in enumerate(kinds):
        row = body[i][:-1] + [0] * (nslack + nsurplus + nart) + [body[i][-1]]
        if kind == "slack":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif kind == "flipped":
            row[slack_at] = -1  # surplus
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        tableau.append(row)

    # Phase-2 objective row: z_j - c_j with the all-logical starting basis.
    cscale = common_denominator(goal)
    cint = {j: int(goal[v] * cscale) * s for j, (v, s) in enumerate(col_var)}
    obj2 = [-cint.get(j, 0) for j in range(width - 1)] + [0]
    # Phase-1 objective: maximize minus the sum of artificials.
    obj1 = [0] * width
    for i in range(m):
        if basis[i] in art_cols:
            for j in range(width):
                obj1[j] -= tableau[i][j]
    for j in art_cols:
        obj1[j] += 1

    free = {j: s for j, (v, s) in enumerate(col_var) if not nonneg[v]}
    state = _RefState(tableau, basis, obj1, obj2, width, log or _RefLog(), free)

    if art_cols:
        _ref_optimize(state, phase=1)
        if state.obj1[-1] != 0:
            return "infeasible"
        _ref_drive_out(state, art_cols)
        _ref_drop_columns(state, art_cols)

    status = _ref_optimize(state, phase=2)
    if status == "unbounded":
        return "unbounded"

    values = [Fraction(0)] * len(col_var)
    for i, b in enumerate(state.basis):
        if b < len(col_var):
            values[b] = Fraction(state.tableau[i][-1], state.den)
    point = [Fraction(0)] * nvars
    for (v, s), val in zip(col_var, values):
        point[v] += val if s > 0 else -val
    return point


class _RefState:
    __slots__ = ("tableau", "basis", "obj1", "obj2", "width", "den", "log", "free")

    def __init__(self, tableau, basis, obj1, obj2, width, log, free):
        self.tableau = tableau
        self.basis = basis
        self.obj1 = obj1
        self.obj2 = obj2
        self.width = width
        self.den = 1
        self.log = log
        self.free = free  # column id -> +1 or -1, for the ± columns of free variables


def _ref_pivot(state: _RefState, r: int, c: int) -> None:
    """Integer pivot keeping tableau = den * true dictionary."""
    tab = state.tableau
    den = state.den
    prow = tab[r]
    p = prow[c]
    assert p != 0
    state.log.events["p == den" if p == state.den else "p != den"] += 1
    if state.free.get(c) == -1:
        state.log.events["minus column enters"] += 1
    if state.basis[r] in state.free:
        state.log.events["twin leaves the basis"] += 1
    state.log.pivots.append((state.basis[r], c))
    for row in tab:
        if row is prow:
            continue
        f = row[c]
        if f:
            for j in range(state.width):
                row[j] = (row[j] * p - f * prow[j]) // den
        elif p != den:
            for j in range(state.width):
                row[j] = row[j] * p // den
    for obj in (state.obj1, state.obj2):
        f = obj[c]
        if f:
            for j in range(state.width):
                obj[j] = (obj[j] * p - f * prow[j]) // den
        elif p != den:
            for j in range(state.width):
                obj[j] = obj[j] * p // den
    state.den = p
    state.basis[r] = c
    if state.den < 0:
        # Only reachable from artificial drive-out pivots on a zero row.
        for row in tab:
            for j in range(state.width):
                row[j] = -row[j]
        for obj in (state.obj1, state.obj2):
            for j in range(state.width):
                obj[j] = -obj[j]
        state.log.events["negated"] += 1
        state.den = -state.den


def _ref_optimize(state: _RefState, phase: int) -> str:
    obj = state.obj1 if phase == 1 else state.obj2
    tab = state.tableau
    rule = "dantzig"
    stall = 0
    for _ in range(500_000):
        if phase == 1 and obj[-1] == 0 and state.log.feasible_at is None:
            state.log.feasible_at = len(state.log.pivots)
        ncols = state.width - 1
        enter = -1
        if rule == "dantzig":
            best = 0
            for j in range(ncols):
                v = obj[j]
                if v < best:
                    best = v
                    enter = j
        else:
            for j in range(ncols):
                if obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        lnum = lden = None  # ratio lnum/lden of current best
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                num = row[-1]
                if leave < 0 or num * lden < lnum * a or (
                    num * lden == lnum * a and state.basis[i] < state.basis[leave]
                ):
                    leave, lnum, lden = i, num, a
        if leave < 0:
            assert phase == 2, "phase one is bounded by construction"
            return "unbounded"
        degenerate = tab[leave][-1] == 0
        if phase == 1 and state.log.feasible_at is not None:
            assert degenerate, "a phase-one pivot at 0 moved the point"
            state.log.events["phase one pivots at 0"] += 1
        _ref_pivot(state, leave, enter)
        if degenerate:
            stall += 1
            if stall >= 8:
                rule = "bland"
                state.log.events["bland"] += 1
        else:
            stall = 0
            rule = "dantzig"
    raise AssertionError("pivot cap exceeded; termination logic broken")


def _ref_drive_out(state: _RefState, art_cols: set[int]) -> None:
    """Replace basic artificials (all at value zero here) or drop their rows."""
    i = 0
    while i < len(state.tableau):
        if state.basis[i] in art_cols:
            row = state.tableau[i]
            target = -1
            for j in range(state.width - 1):
                if j not in art_cols and row[j]:
                    target = j
                    break
            if target < 0:
                # Redundant constraint: zero over all structural columns.
                state.log.events["deleted row"] += 1
                del state.tableau[i]
                del state.basis[i]
                continue
            assert row[-1] == 0, "feasible phase one left a positive artificial"
            _ref_pivot(state, i, target)
        i += 1


def _ref_drop_columns(state: _RefState, cols: set[int]) -> None:
    keep = [j for j in range(state.width - 1) if j not in cols] + [state.width - 1]
    remap = {old: new for new, old in enumerate(keep)}
    state.tableau = [[row[j] for j in keep] for row in state.tableau]
    state.obj1 = [state.obj1[j] for j in keep]
    state.obj2 = [state.obj2[j] for j in keep]
    state.basis = [remap[b] for b in state.basis]
    state.width = len(keep)


def _random_system(rng):
    """A random system for `_simplex`: `<=` rows (some with a negative
    right-hand side), equalities with redundant combinations, free and
    nonnegative variables, entries with denominators up to 4, and often a
    vertex with repeated tight rows, where Dantzig stalls into Bland."""
    n = rng.randint(1, 6)

    def entry():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 4))

    def row():
        return [entry() for _ in range(n)]

    nonneg = [rng.random() < 0.6 for _ in range(n)]
    # Rows are built around x0, so most systems are feasible; x0 = 0 makes
    # the tight rows zero-rhs rows.
    x0 = [F(0)] * n
    if rng.random() < 0.5:
        x0 = [abs(entry()) if nn else entry() for nn in nonneg]

    def through(r, slack):
        return sum((a * x for a, x in zip(r, x0)), F(0)) + slack

    le_rows = [row() for _ in range(rng.randint(0, 5))]
    le_rhs = [through(r, abs(entry())) for r in le_rows]
    eq_rows = [row() for _ in range(rng.randint(0, 3))]
    eq_rhs = [through(r, 0) for r in eq_rows]
    for _ in range(rng.randint(0, 2) if eq_rows else 0):
        i, j = rng.randrange(len(eq_rows)), rng.randrange(len(eq_rows))
        c = F(rng.randint(-2, 2), rng.randint(1, 2))
        eq_rows.append([a + c * b for a, b in zip(eq_rows[i], eq_rows[j])])
        eq_rhs.append(eq_rhs[i] + c * eq_rhs[j])
    if rng.random() < 0.5:
        tight = [row() for _ in range(rng.randint(3, 8))]
        for _ in range(rng.randint(2, 3)):
            le_rows += tight
            le_rhs += [through(r, 0) for r in tight]
    if rng.random() < 0.2 and le_rhs + eq_rhs:
        rhs = rng.choice([r for r in (le_rhs, eq_rhs) if r])
        rhs[rng.randrange(len(rhs))] -= rng.randint(1, 5)
    return le_rows, le_rhs, eq_rows, eq_rhs, nonneg, row()


def _check_against_reference(system, rng):
    """Compare `_simplex`, pivot by pivot (up to the feasibility stop for a
    zero goal), then `lp_solve` and `conic_combination` built from the same
    rows; returns the reference's answer and log for `_simplex`."""
    le_rows, le_rhs, eq_rows, eq_rhs, nonneg, goal = system
    log = _RefLog()
    expected = _ref_simplex(*system, log)
    pivots = []
    pivot = simplex._pivot

    def recording(state, r, s):
        pivots.append((state.basis[r], state.cols[s]))
        pivot(state, r, s)

    with mock.patch.object(simplex, "_pivot", recording):
        assert simplex._simplex(*system) == expected
    stop = None if any(goal) else log.feasible_at
    assert pivots == log.pivots[:stop]

    # lp_solve: the sign bounds as -x_i <= 0 rows, max or min.
    n = len(nonneg)
    bounds = [[F(-(i == j)) for j in range(n)] for i in range(n) if nonneg[i]]
    sense = rng.choice(["max", "min"])
    ineqs = (le_rows + bounds, le_rhs + [F(0)] * len(bounds))
    eqs = (eq_rows, eq_rhs) if eq_rows else None
    ref = _ref_simplex(*ineqs, *(eqs or ([], [])), [False] * n,
                       goal if sense == "max" else [-c for c in goal])
    got = lp_solve(ineqs, eqs, goal, sense=sense)
    if isinstance(ref, str):
        assert got == LPResult(status=ref)
    else:
        value = sum(c * x for c, x in zip(goal, ref))
        assert got == LPResult(status="optimal", value=value, point=tuple(ref))

    # conic_combination: the system's rows as generators, the target either
    # the goal or a nonnegative combination of them.
    gens = le_rows + eq_rows
    if gens:
        target = goal
        if rng.random() < 0.5:
            u = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in gens]
            target = [sum((w * g[j] for w, g in zip(u, gens)), F(0)) for j in range(n)]
        ref = _ref_simplex([], [], [list(c) for c in zip(*gens)], list(target),
                           [True] * len(gens), [F(0)] * len(gens))
        got = conic_combination(ExactMatrix(gens), target)
        assert got == (None if ref == "infeasible" else tuple(ref))
    return expected, log


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dictionary_simplex_matches_tableau_reference(seed):
    rng = random.Random(seed)
    _check_against_reference(_random_system(rng), rng)


def test_reference_sweep_reaches_every_path():
    """A fixed sweep that must reach Bland's rule, drive-out row deletion,
    a negative pivot, both pivot kinds, a minus column entering, a free
    variable's column leaving the basis, a phase-one pivot after its
    objective read 0 and all three outcomes."""
    statuses, events = Counter(), Counter()
    for seed in range(300):
        rng = random.Random(seed)
        out, log = _check_against_reference(_random_system(rng), rng)
        statuses["optimal" if isinstance(out, list) else out] += 1
        events += log.events
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 0
    paths = ("bland", "deleted row", "negated", "p == den", "p != den",
             "minus column enters", "twin leaves the basis", "phase one pivots at 0")
    assert min(events[e] for e in paths) > 0, events


def test_drive_out_flips_a_slot_holding_a_minus_column():
    """Seed 15166, the only seed below 20 000 that does so, drives out an
    artificial through a free variable whose stored column is its minus
    one: the drive-out enters the plus twin by flipping the slot."""
    flips = []
    drive_out, flip = simplex._drive_out_artificials, simplex._flip

    def driving_out(state, art_cols):
        flips.append(0)
        drive_out(state, art_cols)
        flips.append(0)

    def flipping(state, s):
        flips.append(1)
        flip(state, s)

    rng = random.Random(15166)
    with mock.patch.object(simplex, "_drive_out_artificials", driving_out), \
            mock.patch.object(simplex, "_flip", flipping):
        _check_against_reference(_random_system(rng), rng)
    assert 1 in flips[flips.index(0) + 1:], flips


def test_conic_combination_free_multipliers():
    # u0 >= 0, u1 free: u0 * 1 + u1 * 1 == -1 needs u1 < 0
    assert conic_combination([[1], [1]], [-1], free=1) == (F(0), F(-1))
    assert conic_combination([[1], [1]], [-1]) is None
    assert conic_combination([[1, 0], [0, 1]], [2, -3], free=2) == (F(2), F(-3))
    for free in (-1, 3):
        with pytest.raises(InputError, match="free must be between 0 and 2"):
            conic_combination([[1], [1]], [1], free=free)


def _check_many_objectives(rng):
    """`lp_solve_all` over a `_random_system` with 1-5 objectives against a
    cold `lp_solve` per objective; returns the statuses."""
    le_rows, le_rhs, eq_rows, eq_rhs, nonneg, goal = _random_system(rng)
    n = len(nonneg)
    bounds = [[F(-(i == j)) for j in range(n)] for i in range(n) if nonneg[i]]
    ineqs = (le_rows + bounds, le_rhs + [F(0)] * len(bounds))
    eqs = (eq_rows, eq_rhs) if eq_rows else None
    objectives = [goal]
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.2:
            objectives.append([])  # the zero objective
        else:
            objectives.append([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)])
    rng.shuffle(objectives)
    sense = rng.choice(["max", "min"])
    got = lp_solve_all(ineqs, eqs, objectives, sense=sense)
    assert got == [lp_solve(ineqs, eqs, c, sense=sense) for c in objectives]
    return [res.status for res in got]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lp_solve_all_matches_cold_solves(seed):
    _check_many_objectives(random.Random(seed))


def test_many_objective_sweep_reaches_every_mix():
    """A fixed sweep that must reach an infeasible system with several
    objectives and a system whose objectives are partly unbounded and
    partly optimal."""
    mixes = Counter()
    for seed in range(200):
        statuses = _check_many_objectives(random.Random(seed))
        if len(statuses) > 1:
            mixes[tuple(sorted(set(statuses)))] += 1
    assert mixes[("infeasible",)] > 0, mixes
    assert mixes[("optimal", "unbounded")] > 0, mixes


def test_lp_solve_all_validation():
    with pytest.raises(InputError, match="objective widths differ"):
        lp_solve_all(([[1, 0]], [1]), None, [[1, 0], [1]])
    with pytest.raises(InputError, match="sense"):
        lp_solve_all(([[1]], [1]), None, [[1]], sense="up")
    assert lp_solve_all(([[1]], [1]), None, []) == []
    assert lp_solve_all(([[1]], [1]), None, [[], [2]]) == [
        LPResult("optimal", F(0), (F(0),)),
        LPResult("optimal", F(2), (F(1),)),
    ]
