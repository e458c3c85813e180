import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xclab
from xclab.bounds import (
    FORBIDDEN,
    _check_cover,
    _check_fooling,
    _supports,
    BoundConfig,
    Certificate,
    Factorization,
    WeightMatrix,
    canonical_matching_cover,
    factorization_from_json,
    factorization_to_json,
    fooling_set_greedy,
    hyperplane_bound,
    max_rectangle_value,
    nmf_heuristic,
    nonnegative_rank_bounds,
    rectangle_cover_exact,
    report_to_json,
)
from xclab.errors import InputError
from xclab.exactla import ExactMatrix
from xclab.matchgen import perfect_matching_polytope
from xclab.polytope import (
    Rectangle,
    cross_polytope,
    hypercube_polytope,
    simplex_polytope,
    slack_matrix,
)
from xclab.yannakakis import verify_factorization


def naive_alpha(w: WeightMatrix) -> Fraction:
    """Oracle: scan all 2^f * 2^v rectangles."""
    best = Fraction(0)
    for rmask in range(1 << w.nrows):
        rows = [i for i in range(w.nrows) if (rmask >> i) & 1]
        for cmask in range(1 << w.ncols):
            cols = [j for j in range(w.ncols) if (cmask >> j) & 1]
            val = w.rectangle_sum(rows, cols)
            if val is not FORBIDDEN and val > best:
                best = val
    return best


def naive_min_cover(m: ExactMatrix) -> int:
    """Oracle: brute-force set cover over all maximal support rectangles."""
    from itertools import combinations

    supports = [
        frozenset(j for j in range(m.ncols) if m.entry(i, j) != 0)
        for i in range(m.nrows)
    ]
    cells = {(i, j) for i, supp in enumerate(supports) for j in supp}
    rects = set()
    for rmask in range(1, 1 << m.nrows):
        rows = [i for i in range(m.nrows) if (rmask >> i) & 1]
        cols = frozenset.intersection(*(supports[i] for i in rows))
        if not cols:
            continue
        full_rows = frozenset(i for i in range(m.nrows) if cols <= supports[i])
        rects.add((full_rows, cols))
    rects = sorted(rects)
    for size in range(0, len(rects) + 1):
        for combo in combinations(rects, size):
            covered = {(i, j) for rows, cols in combo for i in rows for j in cols}
            if covered == cells:
                return size
    raise AssertionError("unreachable")


def test_weight_matrix_validation():
    w = WeightMatrix.from_rows([[1, FORBIDDEN], ["1/2", 0]])
    assert w.nrows == 2 and w.ncols == 2
    assert w.entry(0, 1) is FORBIDDEN
    assert w.entry(1, 0) == Fraction(1, 2)
    with pytest.raises(InputError, match="unequal"):
        WeightMatrix.from_rows([[1], [1, 2]])


def test_frobenius_with_forbidden_rules():
    w = WeightMatrix.from_rows([[1, FORBIDDEN], [2, 3]])
    s_ok = ExactMatrix([[5, 0], [1, 1]])
    assert w.frobenius_with(s_ok) == 5 + 2 + 3
    s_bad = ExactMatrix([[5, 1], [1, 1]])
    with pytest.raises(InputError, match="FORBIDDEN"):
        w.frobenius_with(s_bad)
    with pytest.raises(InputError, match="dimensions"):
        w.frobenius_with(ExactMatrix([[1]]))


def test_rectangle_sum():
    w = WeightMatrix.from_rows([[1, FORBIDDEN], [2, 3]])
    assert w.rectangle_sum([0, 1], [0]) == 3
    assert w.rectangle_sum([1], [0, 1]) == 5
    assert w.rectangle_sum([0], [1]) is FORBIDDEN
    assert w.rectangle_sum([], []) == 0


def test_alpha_all_ones():
    w = WeightMatrix.from_rows([[1] * 3 for _ in range(2)])
    res = max_rectangle_value(w)
    assert res.value == 6
    assert res.certified
    assert len(res.rectangle.rows) == 2 and len(res.rectangle.cols) == 3


def test_alpha_all_negative_picks_empty():
    w = WeightMatrix.from_rows([[-1] * 2 for _ in range(2)])
    res = max_rectangle_value(w)
    assert res.value == 0
    assert res.rectangle.n_cells == 0


def test_alpha_diagonal_contrast():
    w = WeightMatrix.from_rows([[1, -1], [-1, 1]])
    assert max_rectangle_value(w).value == 1


def test_alpha_respects_forbidden():
    # the forbidden cell blocks the full rectangle; best is one row
    w = WeightMatrix.from_rows([[1, 1], [1, FORBIDDEN]])
    res = max_rectangle_value(w)
    assert res.value == 2
    assert FORBIDDEN not in (
        w.entry(i, j) for i in res.rectangle.rows for j in res.rectangle.cols
    )


def test_alpha_matches_naive_oracle_seeded():
    rng = random.Random(5)
    choices = [FORBIDDEN, Fraction(-2), Fraction(-1, 2), 0, Fraction(1, 3), 1, 2]
    for trial in range(60):
        f = rng.randint(1, 4)
        v = rng.randint(1, 4)
        w = WeightMatrix.from_rows(
            [[rng.choice(choices) for _ in range(v)] for _ in range(f)]
        )
        assert max_rectangle_value(w).value == naive_alpha(w), (trial, w)


def test_alpha_transposed_side():
    w = WeightMatrix.from_rows([[1], [1], [1], [-1], [1]])
    res = max_rectangle_value(w)
    assert res.value == 4
    assert res.rectangle.rows == frozenset({0, 1, 2, 4})


def test_alpha_cap_and_heuristic():
    w = WeightMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InputError, match="heuristic"):
        max_rectangle_value(w, cap=1)
    res = max_rectangle_value(w, mode="heuristic", restarts=5, seed=3)
    assert not res.certified
    assert 0 <= res.value <= 4


def test_heuristic_restarts_must_be_nonnegative():
    w = WeightMatrix.from_rows([[1, -2, 3], [-1, 2, 1]])
    with pytest.raises(InputError, match="restarts must be nonnegative"):
        max_rectangle_value(w, mode="heuristic", restarts=-3)
    zero = max_rectangle_value(w, mode="heuristic", restarts=0, seed=5)
    assert zero == max_rectangle_value(w, mode="heuristic", restarts=1, seed=5)


def test_heuristic_alpha_never_exceeds_exact():
    rng = random.Random(11)
    choices = [FORBIDDEN, Fraction(-1), 0, 1, 2]
    for _ in range(30):
        w = WeightMatrix.from_rows(
            [[rng.choice(choices) for _ in range(3)] for _ in range(3)]
        )
        exact = max_rectangle_value(w).value
        heur = max_rectangle_value(w, mode="heuristic", restarts=4, seed=1).value
        assert heur <= exact


def test_hyperplane_bound_identity():
    eye = ExactMatrix.identity(3)
    w = WeightMatrix.from_rows([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    alpha = max_rectangle_value(w).value
    assert alpha == 3  # any diagonal subset; the full diagonal rectangle pays off
    # sharper W: +1 diagonal, -1 off-diagonal gives alpha = 1 and bound 3
    w2 = WeightMatrix.from_rows(
        [[1 if i == j else -1 for j in range(3)] for i in range(3)]
    )
    alpha2 = max_rectangle_value(w2).value
    assert alpha2 == 1
    assert hyperplane_bound(w2, eye, alpha2) == 3


def test_hyperplane_bound_edge_cases():
    eye = ExactMatrix.identity(2)
    zero_w = WeightMatrix.from_rows([[0, 0], [0, 0]])
    assert hyperplane_bound(zero_w, eye, Fraction(1)) == 0
    assert hyperplane_bound(zero_w, eye, Fraction(0)) == 0
    pos_w = WeightMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(InputError, match="zero alpha|unbounded"):
        hyperplane_bound(pos_w, eye, Fraction(0))
    with pytest.raises(InputError, match="negative"):
        hyperplane_bound(pos_w, eye, Fraction(-1))
    forb_w = WeightMatrix.from_rows([[FORBIDDEN, 0], [0, 0]])
    with pytest.raises(InputError, match="FORBIDDEN"):
        hyperplane_bound(forb_w, eye, Fraction(1))


def test_fooling_set_identity_and_ones():
    assert len(fooling_set_greedy(ExactMatrix.identity(3))) == 3
    ones = ExactMatrix([[1, 1], [1, 1]])
    assert len(fooling_set_greedy(ones)) == 1


def test_cover_identity_and_ones():
    res = rectangle_cover_exact(ExactMatrix.identity(3))
    assert res.status == "optimal" and res.size == 3
    ones = ExactMatrix([[1] * 4 for _ in range(4)])
    res = rectangle_cover_exact(ones)
    assert res.status == "optimal" and res.size == 1


def test_cover_matches_naive_on_squares():
    square = slack_matrix(hypercube_polytope(2)).matrix
    res = rectangle_cover_exact(square)
    assert res.status == "optimal"
    assert res.size == naive_min_cover(square) == 4


def test_cover_matches_naive_seeded():
    rng = random.Random(7)
    for _ in range(25):
        m = ExactMatrix(
            [[rng.choice([0, 0, 1, 2]) for _ in range(4)] for _ in range(4)]
        )
        res = rectangle_cover_exact(m)
        assert res.status == "optimal"
        assert res.size == naive_min_cover(m)


def test_cover_budget_and_cap():
    res = rectangle_cover_exact(ExactMatrix.identity(4), limit=2)
    assert res.status == "exceeded" and res.size is None
    # the budget counts closures and search nodes alike: the identity of
    # size 3 takes 7 closures and then 3 branch-and-bound nodes
    assert rectangle_cover_exact(ExactMatrix.identity(3)).explored == 10
    with pytest.raises(InputError, match="<= 3"):
        rectangle_cover_exact(ExactMatrix.identity(4), cap=3)


def test_cover_zero_matrix():
    res = rectangle_cover_exact(ExactMatrix.zeros(2, 2))
    assert res.status == "optimal" and res.size == 0


def test_cube_and_cross_cover_is_six():
    cube = slack_matrix(hypercube_polytope(3)).matrix
    res = rectangle_cover_exact(cube)
    assert res.status == "optimal" and res.size == 6
    cross = slack_matrix(cross_polytope(3)).matrix
    res = rectangle_cover_exact(cross)
    assert res.status == "optimal" and res.size == 6


def test_fooling_le_cover_sandwich():
    for poly in (hypercube_polytope(2), hypercube_polytope(3), simplex_polytope(3)):
        m = slack_matrix(poly).matrix
        fool = len(fooling_set_greedy(m, seed=2))
        cover = rectangle_cover_exact(m)
        assert cover.status == "optimal"
        assert fool <= cover.size


def test_canonical_matching_cover_small():
    cover = canonical_matching_cover(6)
    assert len(cover.rectangles) == 45  # disjoint edge pairs of K6
    s = cover.slack
    counts = [[0] * s.ncols for _ in range(s.nrows)]
    for rect in cover.rectangles:
        for i, j in rect.cells():
            counts[i][j] += 1
    for i in range(s.nrows):
        for j in range(s.ncols):
            slack = s.matrix.entry(i, j)
            expected = (slack + 1) * slack // 2  # C(slack+1, 2)
            assert counts[i][j] == expected
    with pytest.raises(InputError):
        canonical_matching_cover(5)
    with pytest.raises(InputError):
        canonical_matching_cover(4)


def test_nmf_trivial_and_rank_gate():
    eye = ExactMatrix.identity(3)
    fac = nmf_heuristic(eye, 3)
    assert fac is not None and verify_factorization(eye, fac)
    assert nmf_heuristic(eye, 2) is None
    asym = ExactMatrix([[1, 1], [1, 0]])
    fac = nmf_heuristic(asym, 2)
    assert fac is not None and fac.r == 2 and verify_factorization(asym, fac)


def test_nmf_padding():
    eye = ExactMatrix.identity(2)
    fac = nmf_heuristic(eye, 4)
    assert fac is not None and fac.r == 4
    assert verify_factorization(eye, fac)


def test_nmf_nontrivial_rank_two():
    # two distinct rows generate the whole row cone
    m = ExactMatrix([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 2]])
    fac = nmf_heuristic(m, 2)
    assert fac is not None and fac.r == 2
    assert verify_factorization(m, fac)


def test_nmf_impossible_r():
    # the 4-gon slack needs 4: rank 3 passes the gate but no repair verifies
    square = slack_matrix(hypercube_polytope(2)).matrix
    assert nmf_heuristic(square, 3, restarts=2, seed=0) is None


def test_bounds_identity():
    report = nonnegative_rank_bounds(ExactMatrix.identity(4))
    assert report.lower == report.upper == 4
    assert report.upper_witness is not None
    methods = {c.method for c in report.certificates}
    assert {"rank", "fooling", "cover"} <= methods


def test_bounds_simplex_and_square():
    s = slack_matrix(simplex_polytope(2))
    report = nonnegative_rank_bounds(s)
    assert (report.lower, report.upper) == (3, 3)
    sq = slack_matrix(hypercube_polytope(2))
    report = nonnegative_rank_bounds(sq)
    assert (report.lower, report.upper) == (4, 4)


def test_bounds_cube_meets_cover():
    report = nonnegative_rank_bounds(slack_matrix(hypercube_polytope(3)))
    assert report.lower == report.upper == 6


def test_bounds_zero_matrix():
    report = nonnegative_rank_bounds(ExactMatrix.zeros(2, 3))
    assert (report.lower, report.upper) == (0, 0)
    assert report.upper_witness is None


def test_bounds_rejects_negative():
    with pytest.raises(InputError, match="nonnegative"):
        nonnegative_rank_bounds(ExactMatrix([[1, -1]]))


def test_bounds_with_hyperplane_certificate():
    eye = ExactMatrix.identity(3)
    w = WeightMatrix.from_rows(
        [[1 if i == j else -1 for j in range(3)] for i in range(3)]
    )
    config = BoundConfig(hyperplane=(w,))
    report = nonnegative_rank_bounds(eye, config)
    assert any(c.method == "hyperplane" and c.value == 3 for c in report.certificates)
    assert report.lower == 3


def test_report_json():
    report = nonnegative_rank_bounds(ExactMatrix.identity(2))
    obj = report_to_json(report, "w.json")
    assert obj["lower"] == obj["upper"] == 2
    assert obj["upper_witness_file"] == "w.json"
    assert {"method", "value"} <= set(obj["certificates"][0])


def test_factorization_json_round_trip():
    fac = Factorization(ExactMatrix.identity(2), ExactMatrix([[1, 2], ["1/2", 0]]))
    back = factorization_from_json(factorization_to_json(fac))
    assert back == fac
    with pytest.raises(InputError, match="malformed"):
        factorization_from_json({"left": [[1]]})


# ---------------------------------------------------------------------------
# The integer weight grid against a plain-Fraction reference


def ref_rectangle_sum(cells, rows, cols):
    total = Fraction(0)
    for i in rows:
        for j in cols:
            if cells[i][j] is FORBIDDEN:
                return FORBIDDEN
            total += cells[i][j]
    return total


def ref_frobenius(cells, s_cells):
    total = Fraction(0)
    for wrow, srow in zip(cells, s_cells):
        for w, x in zip(wrow, srow):
            if w is FORBIDDEN:
                if x:
                    return None  # an input error
            else:
                total += w * x
    return total


def ref_alpha(cells):
    nrows, ncols = len(cells), len(cells[0])
    best = Fraction(0)
    for rmask in range(1 << nrows):
        rows = [i for i in range(nrows) if (rmask >> i) & 1]
        for cmask in range(1 << ncols):
            cols = [j for j in range(ncols) if (cmask >> j) & 1]
            val = ref_rectangle_sum(cells, rows, cols)
            if val is not FORBIDDEN and val > best:
                best = val
    return best


def rationals(lo, hi, max_den):
    return st.builds(
        Fraction, st.integers(lo, hi), st.integers(1, max_den)
    )


@st.composite
def weight_and_slack(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w_cell = st.one_of(st.just(FORBIDDEN), rationals(-6, 6, 6))
    s_cell = st.one_of(st.just(Fraction(0)), rationals(0, 4, 4))
    w_cells = [[draw(w_cell) for _ in range(ncols)] for _ in range(nrows)]
    s_cells = [[draw(s_cell) for _ in range(ncols)] for _ in range(nrows)]
    rows = draw(st.sets(st.integers(0, nrows - 1)))
    cols = draw(st.sets(st.integers(0, ncols - 1)))
    return w_cells, s_cells, sorted(rows), sorted(cols)


@settings(max_examples=150, deadline=None)
@given(weight_and_slack(), st.integers(0, 3))
def test_weight_grid_matches_fraction_reference(case, seed):
    w_cells, s_cells, rows, cols = case
    w = WeightMatrix.from_rows(w_cells)
    nrows, ncols = len(w_cells), len(w_cells[0])
    assert [[w.entry(i, j) for j in range(ncols)] for i in range(nrows)] == w_cells

    want = ref_frobenius(w_cells, s_cells)
    if want is None:
        with pytest.raises(InputError, match="FORBIDDEN"):
            w.frobenius_with(ExactMatrix(s_cells))
    else:
        assert w.frobenius_with(ExactMatrix(s_cells)) == want

    assert w.rectangle_sum(rows, cols) == ref_rectangle_sum(w_cells, rows, cols)

    exact = max_rectangle_value(w)
    assert exact.value == ref_alpha(w_cells)
    assert exact.rectangle.rows <= set(range(nrows))
    assert exact.rectangle.cols <= set(range(ncols))
    assert ref_rectangle_sum(w_cells, exact.rectangle.rows, exact.rectangle.cols) == exact.value

    heur = max_rectangle_value(w, mode="heuristic", restarts=3, seed=seed)
    assert heur.value == w.rectangle_sum(heur.rectangle.rows, heur.rectangle.cols)
    assert heur.value <= exact.value


def test_hyperplane_certificate_on_ppm4_all_ones():
    s = slack_matrix(perfect_matching_polytope(4))
    w = WeightMatrix.from_rows([[1] * s.ncols for _ in range(s.nrows)])
    report = nonnegative_rank_bounds(s, BoundConfig(hyperplane=(w,)))
    assert report.lower <= report.upper
    (cert,) = [c for c in report.certificates if c.method == "hyperplane"]
    witness_w, alpha = cert.witness
    assert witness_w is w and alpha.certified
    assert alpha.value == s.nrows * s.ncols
    assert w.rectangle_sum(alpha.rectangle.rows, alpha.rectangle.cols) == alpha.value


def test_bound_checks_survive_python_O():
    """The consistency checks of nonnegative_rank_bounds are explicit
    raises, which `python -O` keeps: an overstated rank is caught and named."""
    script = textwrap.dedent(
        """
        import xclab.bounds as bounds
        from xclab.exactla import ExactMatrix

        assert not __debug__, "asserts are on"
        bounds.rank = lambda m: 99
        try:
            bounds.nonnegative_rank_bounds(ExactMatrix.identity(3))
        except AssertionError as exc:
            print(exc)
        else:
            print("no raise")
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xclab.__file__)))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "certificates exceed the verified upper bound 3: rank (99)"
    ]


# ---------------------------------------------------------------------------
# The cover budget and the support checkers


@st.composite
def small_matrices(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.sampled_from((0, 1, 2))
    return ExactMatrix([[draw(cell) for _ in range(ncols)] for _ in range(nrows)])


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_cover_budget_counts_every_step_once(m):
    full = rectangle_cover_exact(m)
    assert full.status == "optimal"
    for limit in range(full.explored):
        res = rectangle_cover_exact(m, limit=limit)
        assert res.status == "exceeded" and res.size is None and res.rectangles == ()
        assert res.explored == limit
    assert rectangle_cover_exact(m, limit=full.explored) == full


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.integers(0, 3))
def test_checkers_accept_witnesses_and_reject_mutations(m, seed):
    supports = _supports(m)
    support = {(i, j) for i, supp in enumerate(supports) for j in supp}
    off_support = [
        (i, j) for i in range(m.nrows) for j in range(m.ncols) if (i, j) not in support
    ]

    fooling = list(fooling_set_greedy(m, seed))
    assert _check_fooling(supports, fooling)
    for k in range(len(fooling)):
        for cell in off_support:
            moved = fooling[:k] + [cell] + fooling[k + 1:]
            assert not _check_fooling(supports, moved)
    for i, j in support - set(fooling):
        # the greedy set is maximal, so each new support cell shares a
        # support rectangle with a chosen one
        assert any(jj in supports[i] and j in supports[ii] for ii, jj in fooling)
        assert not _check_fooling(supports, fooling + [(i, j)])

    cover = rectangle_cover_exact(m)
    assert cover.status == "optimal"
    rects = list(cover.rectangles)
    assert _check_cover(supports, rects)
    for k in range(len(rects)):
        assert not _check_cover(supports, rects[:k] + rects[k + 1:])
        r = rects[k]
        for i in set(range(m.nrows)) - r.rows:
            # cover rectangles are maximal, so any new row leaves the support
            assert not r.cols <= supports[i]
            grown = Rectangle(r.rows | {i}, r.cols)
            assert not _check_cover(supports, rects[:k] + [grown] + rects[k + 1:])
