import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xclab.errors import InputError
from xclab.exactla import ExactMatrix, conic_combination, format_rational, lp_solve, rat, write_matrix
from xclab.polytope import (
    Polytope,
    ProjectionReport,
    SlackMatrix,
    XYSystem,
    cross_polytope,
    face,
    hypercube_polytope,
    lp_equal_under_projection,
    polytope_from_json,
    polytope_to_json,
    read_polytope,
    simplex_polytope,
    slack_matrix,
    verify_vertices,
    write_polytope,
)


def test_simplex_shape():
    p = simplex_polytope(2)
    assert p.dim == 2
    assert p.n_ineqs == 3
    assert len(p.vertices) == 3
    assert p.row_labels == ("nonneg:0", "nonneg:1", "sum")
    assert p.contains((Fraction(1, 3), Fraction(1, 3)))
    assert not p.contains((1, 1))


def test_hypercube_and_cross_shapes():
    c = hypercube_polytope(3)
    assert c.n_ineqs == 6 and len(c.vertices) == 8
    x = cross_polytope(3)
    assert x.n_ineqs == 8 and len(x.vertices) == 6
    assert x.contains((0, 0, 0))
    assert not x.contains((1, 1, 0))


def test_build_rejects_violating_vertex():
    with pytest.raises(InputError, match="violates"):
        Polytope.build([[1, 0], [0, 1]], [1, 1], [(0, 0), (2, 0)])


def test_build_rejects_single_point():
    with pytest.raises(InputError, match="two distinct"):
        Polytope.build([[1]], [1], [(1,), (1,)])


def test_build_rejects_label_mismatch():
    with pytest.raises(InputError, match="label"):
        Polytope.build([[1]], [1], [(0,), (1,)], row_labels=["a", "b"])


def test_slack_matrix_simplex_is_permutation():
    s = slack_matrix(simplex_polytope(2))
    # nonneg rows give the coordinates, the sum row gives 1 - x1 - x2
    assert s.matrix == ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert s.row_labels == ("nonneg:0", "nonneg:1", "sum")
    assert s.col_labels == ("origin", "unit:0", "unit:1")


def test_slack_matrix_row_filter():
    s = slack_matrix(simplex_polytope(2), lambda lab: lab == "sum")
    assert s.nrows == 1
    assert s.matrix.row(0) == (1, 0, 0)
    with pytest.raises(InputError, match="no rows"):
        slack_matrix(simplex_polytope(2), lambda lab: False)


def test_slack_matrix_text_round_trip():
    s = slack_matrix(hypercube_polytope(2))
    back = SlackMatrix.from_text(s.to_text())
    assert back.matrix == s.matrix
    assert back.row_labels == s.row_labels
    assert back.col_labels == s.col_labels


def test_slack_matrix_rejects_negative():
    with pytest.raises(InputError, match="negative"):
        SlackMatrix(ExactMatrix([[1, -1]]), ("r",), ("a", "b"))


def _ref_slack(row, b, x):
    """b - a . x in plain Fractions."""
    return b - sum(a * v for a, v in zip(row, x))


def _ref_violation(rows, rhs, eq_rows, eq_rhs, x):
    """The first row x violates, inequalities before equalities, as
    (kind, index), or None."""
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if _ref_slack(row, b, x) < 0:
            return "inequality", i
    for i, (row, f) in enumerate(zip(eq_rows, eq_rhs)):
        if _ref_slack(row, f, x) != 0:
            return "equality", i
    return None


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_offsets = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(0, 5), st.integers(1, 4))
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slack_evaluation_matches_fraction_reference(data):
    """slack_matrix, contains and the rejection message of Polytope.build
    agree with b - a . x in plain Fractions, on random rows, right-hand
    sides and points with non-unit denominators, so every row carries its
    own scale."""
    d = data.draw(st.integers(1, 4))
    vec = st.lists(_rationals, min_size=d, max_size=d)
    rows = data.draw(st.lists(vec, min_size=1, max_size=5))
    points = data.draw(st.lists(vec, min_size=2, max_size=5))
    eq_rows, eq_rhs = [], []
    if d >= 2 and data.draw(st.booleans()):
        # One equality; every point's last coordinate is solved onto it.
        e = data.draw(vec.filter(lambda r: r[-1] != 0))
        f = data.draw(_rationals)
        for x in points:
            x[-1] = _ref_slack(e[:-1], f, x[:-1]) / e[-1]
        eq_rows, eq_rhs = [e], [f]
    points = [tuple(x) for x in points]
    assume(len(set(points)) >= 2)
    # every row valid, and tight at some point unless it is offset
    rhs = [
        max(sum(a * v for a, v in zip(row, x)) for x in points) + data.draw(_offsets)
        for row in rows
    ]
    eqs = {"eq_coefs": eq_rows, "eq_rhs": eq_rhs} if eq_rows else {}

    poly = Polytope.build(rows, rhs, points, **eqs)
    keep = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    s = slack_matrix(poly, lambda lab: int(lab.split(":")[1]) in keep)
    assert s.matrix.rows() == tuple(
        tuple(_ref_slack(rows[i], rhs[i], x) for x in points) for i in sorted(keep)
    )

    p, q = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    midpoint = tuple((u + v) / 2 for u, v in zip(p, q))
    query = data.draw(st.sampled_from([p, midpoint, tuple(data.draw(vec))]))
    expected = _ref_violation(rows, rhs, eq_rows, eq_rhs, query) is None
    assert poly.contains(query) == expected

    low_rhs = [b - data.draw(_offsets) for b in rhs]
    low_eq_rhs = [f - data.draw(_offsets) for f in eq_rhs]
    if eq_rows:
        eqs["eq_rhs"] = low_eq_rhs
    for j, x in enumerate(points):
        bad = _ref_violation(rows, low_rhs, eq_rows, low_eq_rhs, x)
        if bad is not None:
            kind, i = bad
            label = f"{'row' if kind == 'inequality' else 'eq'}:{i}"
            message = f"vertex {j} (vertex:{j}) violates the system: {kind} {i} ({label})"
            with pytest.raises(InputError) as err:
                Polytope.build(rows, low_rhs, points, **eqs)
            assert str(err.value) == message
            break
    else:
        Polytope.build(rows, low_rhs, points, **eqs)


def test_verify_vertices_clean_and_dirty():
    p = simplex_polytope(2)
    assert verify_vertices(p) == (True, None)
    dirty = Polytope.build(
        [list(r) for r in p.ineq_coefs.rows()],
        list(p.ineq_rhs),
        list(p.vertices) + [(Fraction(1, 2), Fraction(1, 2))],
    )
    assert verify_vertices(dirty) == (False, 3)


def test_verify_vertices_rejects_duplicates_first():
    p = hypercube_polytope(2)
    verts = list(p.vertices)
    dup = Polytope.build(
        p.ineq_coefs, p.ineq_rhs, verts[:2] + [verts[3], verts[1]] + verts[2:]
    )
    assert verify_vertices(dup) == (False, 1)


def test_verify_vertices_takes_no_lp_at_rank_certified_vertices(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran for a rank-certified vertex")

    monkeypatch.setattr("xclab.polytope.conic_combination", no_lp)
    assert verify_vertices(hypercube_polytope(3)) == (True, None)
    assert verify_vertices(cross_polytope(3)) == (True, None)


def test_verify_vertices_relaxation_falls_back_to_lp():
    # the square as P(H) around a triangle: (1/2, 1) is a vertex of the
    # triangle but not of the square, so only the LP can accept it
    square = hypercube_polytope(2)
    tri = Polytope.build(
        square.ineq_coefs, square.ineq_rhs, [(0, 0), (1, 0), (Fraction(1, 2), 1)]
    )
    assert verify_vertices(tri) == (True, None)


def _verify_by_lp(poly):
    """Reference: one feasibility LP per listed point."""
    verts = poly.vertices
    for j in range(len(verts)):
        others = [verts[i] + (Fraction(1),) for i in range(len(verts)) if i != j]
        if conic_combination(ExactMatrix(others), verts[j] + (Fraction(1),)) is not None:
            return False, j
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_vertices_matches_lp_reference(data):
    """Random 0/1 point sets inside the cube, sometimes cut by one valid
    inequality and lifted by a pinned coordinate, with an extra point
    added: a duplicate, a convex combination, or a half-integral point
    of the cube that may or may not be a vertex of the hull."""
    d = data.draw(st.integers(2, 4))
    corners = st.tuples(*[st.integers(0, 1)] * d)
    verts = data.draw(st.lists(corners, min_size=2, max_size=6, unique=True))
    verts = [tuple(Fraction(x) for x in v) for v in verts]
    kind = data.draw(st.sampled_from(["none", "duplicate", "combination", "half"]))
    if kind == "duplicate":
        extra = data.draw(st.sampled_from(verts))
    elif kind == "combination":
        picks = data.draw(st.lists(st.sampled_from(verts), min_size=2, max_size=3))
        weights = data.draw(st.lists(st.integers(1, 3), min_size=len(picks), max_size=len(picks)))
        total = sum(weights)
        extra = tuple(
            sum(Fraction(w, total) * v[k] for w, v in zip(weights, picks)) for k in range(d)
        )
    else:
        extra = tuple(Fraction(x, 2) for x in data.draw(st.tuples(*[st.integers(0, 2)] * d)))
    if kind != "none":
        verts.insert(data.draw(st.integers(0, len(verts))), extra)

    cube = hypercube_polytope(d)
    rows, rhs = [list(r) for r in cube.ineq_coefs.rows()], list(cube.ineq_rhs)
    if data.draw(st.booleans()):
        cut = data.draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
        rows.append(cut)
        rhs.append(max(sum(c * x for c, x in zip(cut, v)) for v in verts))
    eqs = {}
    if data.draw(st.booleans()):
        verts = [v + (Fraction(1),) for v in verts]
        rows = [r + [0] for r in rows]
        eqs = {"eq_coefs": [[0] * d + [1]], "eq_rhs": [1]}
    poly = Polytope.build(rows, rhs, verts, **eqs)
    assert verify_vertices(poly) == _verify_by_lp(poly)


def test_face_of_square_edge():
    sq = hypercube_polytope(2)
    edge = face(sq, [0])  # pin x0 = 0
    assert len(edge.vertices) == 2
    assert edge.eq_labels == ("lower:0",)
    assert edge.n_ineqs == 3
    assert set(edge.vertex_labels) == {"corner:00", "corner:01"}


def test_face_errors():
    sq = hypercube_polytope(2)
    with pytest.raises(InputError, match="empty"):
        face(sq, [0, 1])  # x0 = 0 and x0 = 1 together
    with pytest.raises(InputError, match="zero-dimensional"):
        face(sq, [0, 2])  # pins the single corner (0, 0)
    with pytest.raises(InputError, match="out of range"):
        face(sq, [99])
    with pytest.raises(InputError, match="no rows"):
        face(sq, [])


def _simplex_lift() -> XYSystem:
    # x1, x2 >= 0, y >= 0, x1 + x2 + y = 1: projects to the 2-simplex
    return XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], (rat(0), rat(0), rat(0))),
        eqs=([[1, 1, 1]], (rat(1),)),
    )


def test_projection_check_passes():
    report = lp_equal_under_projection(simplex_polytope(2), _simplex_lift(), 5, 7)
    assert report.passed, report


def test_projection_check_catches_missing_lift():
    # forcing y >= 1/4 shrinks the projection to x1 + x2 <= 3/4
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], (rat(0), rat(0), rat("-1/4"))),
        eqs=([[1, 1, 1]], (rat(1),)),
    )
    report = lp_equal_under_projection(simplex_polytope(2), sys, 3, 7)
    assert not report.passed
    assert report.reason == "vertex-lift"


def test_projection_check_catches_larger_projection():
    # the system projects to the unit square, strictly above the simplex
    sys = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=(
            [[-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]],
            (rat(0), rat(0), rat(1), rat(1), rat(1), rat(0)),
        ),
    )
    report = lp_equal_under_projection(simplex_polytope(2), sys, 8, 1)
    assert not report.passed
    assert report.reason in ("objective-value", "objective-status")


def _projection_by_cold_solves(poly, system, trials, seed):
    """Reference for the randomized part: a cold `lp_solve` pair per trial,
    stopping at the first failing trial."""
    rng = random.Random(seed)
    for t in range(trials):
        c = [rng.randint(-1000, 1000) for _ in range(poly.dim)]
        over_p = lp_solve(*poly.lp_system(), c, sense="max")
        over_q = lp_solve(system.ineqs, system.eqs, c + [0] * system.y_dim, sense="max")
        if over_p.status != "optimal" or over_q.status != "optimal":
            detail = {"trial": t, "objective": c, "p": over_p.status, "q": over_q.status}
            return ProjectionReport(False, "objective-status", detail)
        if over_p.value != over_q.value:
            detail = {"trial": t, "objective": c, "p": format_rational(over_p.value),
                      "q": format_rational(over_q.value)}
            return ProjectionReport(False, "objective-value", detail)
    return ProjectionReport(True)


@pytest.mark.parametrize("seed", range(4))
def test_projection_check_reports_the_first_failing_trial(seed):
    # the simplex lift passes, the unit square fails on a value and the
    # nonnegative orthant (y free) on an unbounded objective
    square = XYSystem(
        x_dim=2,
        y_dim=1,
        ineqs=(
            [[-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]],
            (rat(0), rat(0), rat(1), rat(1), rat(1), rat(0)),
        ),
    )
    orthant = XYSystem(x_dim=2, y_dim=1, ineqs=([[-1, 0, 0], [0, -1, 0]], (rat(0), rat(0))))
    reasons = set()
    for system in (_simplex_lift(), square, orthant):
        report = lp_equal_under_projection(simplex_polytope(2), system, 6, seed)
        assert report == _projection_by_cold_solves(simplex_polytope(2), system, 6, seed)
        reasons.add(report.reason)
    assert reasons == {None, "objective-value", "objective-status"}


def test_projection_dim_mismatch():
    with pytest.raises(InputError, match="x-dimension"):
        lp_equal_under_projection(simplex_polytope(3), _simplex_lift(), 1, 0)


def test_json_round_trip():
    p = simplex_polytope(3)
    q = polytope_from_json(polytope_to_json(p))
    assert q == p


def test_json_file_round_trip(tmp_path):
    p = cross_polytope(2)
    path = tmp_path / "cross.json"
    write_polytope(str(path), p)
    assert read_polytope(str(path)) == p


def test_json_file_references(tmp_path):
    p = hypercube_polytope(2)
    aug = p.ineq_coefs.hstack(ExactMatrix([[b] for b in p.ineq_rhs]))
    write_matrix(str(tmp_path / "rows.txt"), aug)
    write_matrix(str(tmp_path / "verts.txt"), ExactMatrix([list(v) for v in p.vertices]))
    obj = {
        "ineqs": {"file": "rows.txt"},
        "vertices": {"file": "verts.txt"},
        "row_labels": list(p.row_labels),
        "vertex_labels": list(p.vertex_labels),
    }
    doc = tmp_path / "cube.json"
    doc.write_text(json.dumps(obj), encoding="utf-8")
    assert read_polytope(str(doc)) == p


def test_json_declared_dim_checked():
    obj = polytope_to_json(simplex_polytope(2))
    obj["dim"] = 5
    with pytest.raises(InputError, match="declared dim"):
        polytope_from_json(obj)


def test_json_malformed():
    with pytest.raises(InputError, match="malformed|need"):
        polytope_from_json({"vertices": [[0], [1]]})
