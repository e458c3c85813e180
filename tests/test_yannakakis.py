from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xclab.yannakakis
from xclab.errors import InputError, NotAnExtensionError, NotDerivableError
from xclab.exactla import ExactMatrix, conic_combination, lp_solve, rat
from xclab.exactla import simplex
from xclab.matchgen import perfect_matching_polytope
from xclab.polytope import (
    LiftPlan,
    Polytope,
    XYSystem,
    hypercube_polytope,
    lp_equal_under_projection,
    simplex_polytope,
    slack_matrix,
)
from xclab.yannakakis import (
    Factorization,
    _lex_min_lift,
    extension_from_factorization,
    factorization_from_extension,
    formulation,
    formulation_from_json,
    formulation_to_json,
    slack_variable_factorization,
    verify_factorization,
)


def test_factorization_validation():
    with pytest.raises(InputError, match="nonnegative"):
        Factorization(ExactMatrix([[1, -1]]), ExactMatrix([[1], [1]]))
    with pytest.raises(InputError, match="inner dimension"):
        Factorization(ExactMatrix([[1, 1]]), ExactMatrix([[1], [1], [1]]))
    fac = Factorization(ExactMatrix.identity(2), ExactMatrix.identity(2))
    assert fac.r == 2


def test_verify_factorization():
    eye = ExactMatrix.identity(2)
    good = Factorization(eye, eye)
    bad = Factorization(eye, ExactMatrix([[2, 0], [0, 2]]))
    assert verify_factorization(eye, good)
    assert not verify_factorization(eye, bad)
    with pytest.raises(InputError, match="shape"):
        verify_factorization(ExactMatrix.identity(3), good)


def test_slack_variable_factorization():
    s = slack_matrix(simplex_polytope(2))
    fac = slack_variable_factorization(s)
    assert fac.r == 3
    assert verify_factorization(s, fac)


def test_extension_from_factorization_simplex():
    p = simplex_polytope(2)
    fac = slack_variable_factorization(slack_matrix(p))
    ef = extension_from_factorization(p, fac)
    assert ef.n_ineqs == 3
    assert ef.x_dim == 2 and ef.y_dim == 3
    report = lp_equal_under_projection(p, ef, 10, 5)
    assert report.passed, report


def test_extension_from_factorization_with_equalities():
    # a segment carrying one equality row: x0 + x1 = 1, 0 <= x0 <= 1
    p = Polytope.build(
        [[-1, 0], [1, 0]],
        [0, 1],
        [(0, 1), (1, 0)],
        eq_coefs=[[1, 1]],
        eq_rhs=[1],
    )
    fac = slack_variable_factorization(slack_matrix(p))
    ef = extension_from_factorization(p, fac)
    assert len(ef.eqs[0]) == 3  # two wrapped rows plus the original equality
    report = lp_equal_under_projection(p, ef, 8, 2)
    assert report.passed, report


def test_extension_rejects_bad_factorization():
    p = simplex_polytope(2)
    doubled = Factorization(
        ExactMatrix.identity(3),
        ExactMatrix([[2 * x for x in row] for row in slack_matrix(p).rows()]),
    )
    with pytest.raises(InputError, match="reproduce"):
        extension_from_factorization(p, doubled)
    short = Factorization(ExactMatrix.identity(2), ExactMatrix([[1, 1, 1], [0, 1, 0]]))
    with pytest.raises(InputError, match="rows"):
        extension_from_factorization(p, short)


def test_round_trip_simplex():
    p = simplex_polytope(2)
    s = slack_matrix(p)
    fac = slack_variable_factorization(s)
    ef = extension_from_factorization(p, fac)
    back = factorization_from_extension(p, ef)
    assert back.r == fac.r == ef.n_ineqs
    assert verify_factorization(s, back)
    # per-cell identity: product entries equal slacks b_i - a_i . x_j
    prod = back.product()
    for i in range(p.n_ineqs):
        row = p.ineqs[0][i]
        for j, v in enumerate(p.vertices):
            slack = p.ineqs[1][i] - sum(a * x for a, x in zip(row, v))
            assert prod.entry(i, j) == slack


def test_round_trip_cube():
    p = hypercube_polytope(2)
    s = slack_matrix(p)
    ef = extension_from_factorization(p, slack_variable_factorization(s))
    back = factorization_from_extension(p, ef)
    assert back.r == 4
    assert verify_factorization(s, back)


def test_extension_without_lift_variables():
    # y_dim = 0: the system is an inequality description of the square
    # itself, and every vertex lifts to the empty y
    p = hypercube_polytope(2)
    rows, rhs = [list(row) for row in p.ineqs[0]], p.ineqs[1]
    fac = factorization_from_extension(p, XYSystem(2, 0, (rows, rhs)))
    assert fac.r == 4
    assert verify_factorization(slack_matrix(p), fac)
    with pytest.raises(NotDerivableError) as err:
        factorization_from_extension(p, XYSystem(2, 0, (rows[1:], rhs[1:])))
    assert err.value.row_index == 0
    with pytest.raises(NotAnExtensionError):
        factorization_from_extension(p, XYSystem(2, 0, (rows, (rhs[0] - 1,) + rhs[1:])))
    with pytest.raises(InputError, match="x-dimension"):
        factorization_from_extension(p, XYSystem(3, 0, (rows, rhs)))
    with pytest.raises(InputError, match="no inequality rows"):
        factorization_from_extension(p, XYSystem(2, 0, ((), ())))


def test_factorization_from_product_with_box():
    # Q = P x [0, 1]: inequality rows act as facets, r = 3 + 2
    p = simplex_polytope(2)
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=(
            [[-1, 0, 0], [0, -1, 0], [1, 1, 0], [0, 0, -1], [0, 0, 1]],
            (rat(0), rat(0), rat(1), rat(0), rat(1)),
        ),
    )
    fac = factorization_from_extension(p, sys)
    assert fac.r == 5
    assert verify_factorization(slack_matrix(p), fac)


def test_missing_lift_raises():
    # forcing y >= 1/4 inside x1 + x2 + y = 1 cuts off the unit vertices
    p = simplex_polytope(2)
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], (rat(0), rat(0), rat("-1/4"))),
        eqs=([[1, 1, 1]], (rat(1),)),
    )
    with pytest.raises(NotAnExtensionError) as err:
        factorization_from_extension(p, sys)
    assert err.value.vertex_index in (1, 2)


def test_underivable_row_raises():
    # the box projects to more than the simplex: the sum row is not derivable
    p = simplex_polytope(2)
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=(
            [[-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]],
            (rat(0), rat(0), rat(1), rat(1), rat(0)),
        ),
    )
    with pytest.raises(NotDerivableError) as err:
        factorization_from_extension(p, sys)
    assert err.value.row_index == 2


def test_unbounded_lift_raises():
    p = simplex_polytope(2)
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=([[-1, 0, 0], [0, -1, 0], [1, 1, 0]], (rat(0), rat(0), rat(1))),
    )
    with pytest.raises(InputError, match="unbounded"):
        factorization_from_extension(p, sys)


def test_unique_lifts_take_no_lp(monkeypatch):
    # a slack-variable extension has one lift per vertex, found by algebra
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran for a unique lift")

    monkeypatch.setattr("xclab.yannakakis.lp_solve", no_lp)
    p = hypercube_polytope(3)
    s = slack_matrix(p)
    ef = extension_from_factorization(p, slack_variable_factorization(s))
    assert verify_factorization(s, factorization_from_extension(p, ef))


def _duplicated_row_matrix(system):
    """Reference: the rows that `factorization_from_extension` derived from
    before equality multipliers were free, each equality row twice, once
    negated, so that every multiplier is nonnegative."""
    big_rows = [[*row, d] for row, d in zip(*system.ineqs)]
    if system.eqs is not None:
        for row, f in zip(*system.eqs):
            big_rows += [[*row, f], [-t for t in row] + [-f]]
    return ExactMatrix(big_rows)


@pytest.mark.parametrize("n", [4, 6])
def test_free_equality_multipliers_keep_the_pivots(n, monkeypatch):
    """Equality k's free multiplier has the column ids r + 2k and r + 2k + 1
    of the old row and its negated copy, so each derivation makes the same
    (leaving, entering) pivots as over the duplicated rows, and the left
    factor is the same."""
    poly = perfect_matching_polytope(n)
    system = extension_from_factorization(
        poly, slack_variable_factorization(slack_matrix(poly))
    )
    calls = []
    pivot, conic = simplex._pivot, xclab.yannakakis.conic_combination

    def recording_pivot(state, r, s):
        calls[-1].append((state.basis[r], state.cols[s]))
        pivot(state, r, s)

    def recording_conic(*args, **kwargs):
        calls.append([])
        return conic(*args, **kwargs)

    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    monkeypatch.setattr(xclab.yannakakis, "conic_combination", recording_conic)
    fac = factorization_from_extension(poly, system)
    free_calls, calls[:] = calls[:], []

    big = _duplicated_row_matrix(system)
    zeros_y = (Fraction(0),) * system.y_dim
    left = []
    for i in range(poly.n_ineqs):
        target = poly.ineqs[0][i] + zeros_y + (poly.ineqs[1][i],)
        calls.append([])
        left.append(conic_combination(big, target)[: system.n_ineqs])
    assert free_calls == calls
    assert fac.left == ExactMatrix(left)
    if n == 6:
        # there the derivations do enter the equalities' negated copies
        minus = range(system.n_ineqs + 1, big.nrows, 2)
        assert any(enter in minus for pivots in calls for _, enter in pivots)


def test_contract_pivot_count_on_ppm6(monkeypatch):
    """Each derivation is a feasibility solve that stops at its first
    feasible basis: 1 218 pivots on ppm6, against 5 496 when every
    phase-one, drive-out and phase-two pivot ran."""
    poly = perfect_matching_polytope(6)
    system = extension_from_factorization(
        poly, slack_variable_factorization(slack_matrix(poly))
    )
    pivots = []
    pivot = simplex._pivot

    def counting(state, r, s):
        pivots.append(s)
        pivot(state, r, s)

    monkeypatch.setattr(simplex, "_pivot", counting)
    factorization_from_extension(poly, system)
    assert len(pivots) == 1218


def _ppm6_with_all_and_with_5_vertices():
    """ppm6 with all 15 vertices and with its first 5, in one system whose
    equalities decide every lift."""
    poly = perfect_matching_polytope(6)
    system = extension_from_factorization(
        poly, slack_variable_factorization(slack_matrix(poly))
    )
    few = Polytope.build(
        *poly.ineqs, poly.vertices[:5], eq_coefs=poly.eqs[0], eq_rhs=poly.eqs[1]
    )
    return (poly, system), (few, system)


def _cubes_with_a_free_y():
    """The 2-cube and the 4-cube, each in its own rows plus -y <= 0 with no
    equality rows, so that LPs decide every lift."""
    pairs = []
    for d in (2, 4):
        cube = hypercube_polytope(d)
        rows = [row + (Fraction(0),) for row in cube.ineqs[0]]
        rows.append((Fraction(0),) * d + (Fraction(-1),))
        pairs.append((cube, XYSystem(d, 1, (rows, cube.ineqs[1] + (Fraction(0),)))))
    return pairs


@pytest.mark.parametrize(
    "check, cases, trials, built, name",
    [
        pytest.param("projection", _ppm6_with_all_and_with_5_vertices, 2, ExactMatrix, "system",
                     id="projection"),
        pytest.param("contract", _ppm6_with_all_and_with_5_vertices, None, ExactMatrix, "system",
                     id="contract"),
        pytest.param("projection", _cubes_with_a_free_y, 0, LiftPlan, "__init__",
                     id="free-y-projection"),
        pytest.param("contract", _cubes_with_a_free_y, None, LiftPlan, "__init__",
                     id="free-y-contract"),
    ],
)
def test_integer_rows_builds_do_not_grow_with_the_vertex_count(
    check, cases, trials, built, name, monkeypatch
):
    """The lifts of one system share one plan, whether the equalities or
    LPs decide them: both polytopes of a case build the same number of
    `ExactMatrix.system` row systems, objective trials included where a
    case runs them.  Every LP holds its own rows as such a system, so where
    LPs decide the lifts the case counts LiftPlan builds instead: one per
    system."""
    first, second = cases()
    builds = []
    build = getattr(built, name)

    def counting(*args):
        builds.append(1)
        return build(*args)

    def count(p, system):
        builds.clear()
        if check == "projection":
            assert lp_equal_under_projection(p, system, trials, 0).passed
        else:
            assert verify_factorization(slack_matrix(p), factorization_from_extension(p, system))
        return len(builds)

    monkeypatch.setattr(built, name, counting)
    assert count(*first) == count(*second)
    if built is LiftPlan:
        assert count(*first) == 1


def _lex_lift_by_lp(system, x, vertex_index):
    """Reference: the lexicographic LP sequence for every lift, over the
    system's rows with x pinned: each row's y-block against b - a . (x, 0)."""
    ineqs, (eq_rows, eq_rhs) = (
        ([row[system.x_dim :] for row in rows],
         [b - sum((a * v for a, v in zip(row, x)), Fraction(0)) for row, b in zip(rows, rhs)])
        for rows, rhs in (system.ineqs, system.eqs)
    )
    point = None
    for i in range(system.y_dim):
        obj = [0] * system.y_dim
        obj[i] = 1
        res = lp_solve(ineqs, (eq_rows, eq_rhs), obj, sense="min")
        if res.status == "infeasible":
            raise NotAnExtensionError(vertex_index)
        pin = [Fraction(0)] * system.y_dim
        pin[i] = Fraction(1)
        eq_rows.append(pin)
        eq_rhs.append(res.value)
        point = res.point
    return point


def _lift_outcome(lift, *args):
    try:
        return lift(*args, 7)
    except NotAnExtensionError as exc:
        return ("no lift", exc.vertex_index)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direct_lift_matches_lex_lp_sequence(data):
    """Equality-form systems with y >= 0 and a few mixed inequalities; the
    y-block may be square, tall or short (then both sides run LPs)."""
    small = st.integers(-2, 2)
    x_dim = data.draw(st.integers(1, 3))
    y_dim = data.draw(st.integers(1, 3))
    n_eq = data.draw(st.integers(max(1, y_dim - 1), y_dim + 1))
    n_mixed = data.draw(st.integers(0, 2))

    def block(nrows, ncols):
        return [data.draw(st.lists(small, min_size=ncols, max_size=ncols)) for _ in range(nrows)]

    eq_x, eq_y = block(n_eq, x_dim), block(n_eq, y_dim)
    mix_x, mix_y = block(n_mixed, x_dim), block(n_mixed, y_dim)
    x0 = data.draw(st.lists(small, min_size=x_dim, max_size=x_dim))
    y0 = data.draw(st.lists(st.integers(0, 3), min_size=y_dim, max_size=y_dim))

    def at(rows_x, rows_y, i):
        return sum(a * v for a, v in zip(rows_x[i], x0)) + sum(a * v for a, v in zip(rows_y[i], y0))

    # (x0, y0) satisfies the system; a mixed row's slack at it is 0, 1 or 2,
    # or -1 so that x0 has no lift at all
    eq_rhs = [at(eq_x, eq_y, i) for i in range(n_eq)]
    mix_rhs = [at(mix_x, mix_y, i) + data.draw(st.integers(-1, 2)) for i in range(n_mixed)]
    nonneg_y = [[-int(i == j) for j in range(y_dim)] for i in range(y_dim)]
    system = XYSystem(
        x_dim=x_dim,
        y_dim=y_dim,
        ineqs=(
            [[0] * x_dim + row for row in nonneg_y]
            + [rx + ry for rx, ry in zip(mix_x, mix_y)],
            tuple(rat(v) for v in [0] * y_dim + mix_rhs),
        ),
        eqs=([rx + ry for rx, ry in zip(eq_x, eq_y)], tuple(rat(v) for v in eq_rhs)),
    )
    x1 = data.draw(st.lists(small, min_size=x_dim, max_size=x_dim))
    plan = LiftPlan(system)
    for x in (x0, x1):
        x = tuple(rat(v) for v in x)
        assert _lift_outcome(_lex_min_lift, plan, x) == _lift_outcome(
            _lex_lift_by_lp, system, x
        )


def test_formulation_json_round_trip():
    p = simplex_polytope(2)
    ef = extension_from_factorization(
        p, slack_variable_factorization(slack_matrix(p))
    )
    obj = formulation_to_json(ef)
    assert obj["variables"][:2] == ["x:0", "x:1"]
    assert obj["variables"][2] == "y:0"
    assert formulation_from_json(obj) == ef


@pytest.mark.parametrize(
    "system, message",
    [
        (XYSystem(1, 1, (((1, 0),), (1,)), (((1, 1),), (1,))), "inequality side is y >= 0"),
        (XYSystem(1, 1, (((0, -1),), (0,))), "at least one row"),
        (XYSystem(1, 0, (((1,),), (1,)), (((1,),), (1,))), "lift variable"),
    ],
    ids=["x-le-1-for-y-ge-0", "no-equality-rows", "no-y"],
)
def test_formulation_json_refuses_a_system_it_would_not_read_back(system, message):
    """The JSON holds only the equality side; `formulation_from_json` adds
    y >= 0 back, so x <= 1 with x + y = 1 would come back with -y <= 0 in
    place of x <= 1, a different system, and is refused instead."""
    with pytest.raises(InputError, match=message):
        formulation_to_json(system)


def test_formulation_validation():
    with pytest.raises(InputError, match="lift variable"):
        formulation(1, 0, [[1]], [1])
    with pytest.raises(InputError, match="widths"):
        formulation(2, 1, [[1, 1]], [1])
    with pytest.raises(InputError, match="x variable"):
        formulation(0, 1, [[1]], [1])
    with pytest.raises(InputError, match="right-hand sides"):
        formulation(1, 1, [[1, 1]], [1, 2])


@pytest.mark.parametrize(
    "eqs, message",
    [({"rows": ["11"], "rhs": [1]}, "not the string '11'"),
     ({"rows": [[1, 1]], "rhs": "1"}, "eqs.rhs must be a list")],
)
def test_formulation_json_refuses_strings_for_lists(eqs, message):
    with pytest.raises(InputError, match=message):
        formulation_from_json({"x_dim": 1, "y_dim": 1, "eqs": eqs})
