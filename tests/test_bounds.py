import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xclab
import xclab.bounds
from xclab.bounds import (
    _check_cover,
    _check_fooling,
    _supports,
    BoundConfig,
    Certificate,
    CoverResult,
    Factorization,
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
from xclab.exactla import ExactMatrix, common_denominator, conic_combination, lp_solve, rat
from xclab.matchgen import canonical_matching_cover, perfect_matching_polytope
from xclab.polytope import (
    Rectangle,
    cross_polytope,
    hypercube_polytope,
    simplex_polytope,
    slack_matrix,
)
from xclab.sepmeasure import FORBIDDEN, WeightMatrix
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
    assert w.frobenius_with([[5, 0], [1, 1]]) == 5 + 2 + 3
    with pytest.raises(InputError, match="FORBIDDEN"):
        w.frobenius_with([[5, 1], [1, 1]])
    with pytest.raises(InputError, match="dimensions"):
        w.frobenius_with([[1]])


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
    w = WeightMatrix.from_rows([[1] * 23] * 23)
    with pytest.raises(InputError, match="<= 22, got 23; use heuristic"):
        max_rectangle_value(w)
    w = WeightMatrix.from_rows([[1, 1], [1, 1]])
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
    bound, alpha2 = hyperplane_bound(w2, eye)
    assert alpha2.value == 1
    assert bound == 3


def test_hyperplane_bound_edge_cases():
    eye = ExactMatrix.identity(2)
    zero_w = WeightMatrix.from_rows([[0, 0], [0, 0]])
    assert hyperplane_bound(zero_w, eye)[0] == 0
    forb_w = WeightMatrix.from_rows([[FORBIDDEN, 0], [0, 0]])
    with pytest.raises(InputError, match="FORBIDDEN"):
        hyperplane_bound(forb_w, eye)


def test_hyperplane_bound_derives_alpha_and_refuses_negative_slack():
    """alpha is max_rectangle_value(w), never a caller's number: W = I
    against S = I gives alpha = 2 and the bound 2 / (1 * 2) = 1."""
    eye = ExactMatrix.identity(2)
    w = WeightMatrix.from_rows([[1, 0], [0, 1]])
    bound, alpha = hyperplane_bound(w, eye)
    assert (bound, alpha) == (1, max_rectangle_value(w))
    assert alpha.value == 2 and alpha.certified
    negative = ExactMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]])
    with pytest.raises(InputError, match="nonnegative slack"):
        hyperplane_bound(w, negative)


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
    square = slack_matrix(hypercube_polytope(2))
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
    res = rectangle_cover_exact(ExactMatrix([[0, 0], [0, 0]]))
    assert res.status == "optimal" and res.size == 0


def test_cube_and_cross_cover_is_six():
    cube = slack_matrix(hypercube_polytope(3))
    res = rectangle_cover_exact(cube)
    assert (res.status, res.size, res.explored) == ("optimal", 6, 1439)
    cross = slack_matrix(cross_polytope(3))
    res = rectangle_cover_exact(cross)
    assert (res.status, res.size, res.explored) == ("optimal", 6, 1405)


def test_cube4_cover_is_eight():
    # xc of the 4-cube is 2d = 8; the search proves it after 2 397 197 steps
    cube = slack_matrix(hypercube_polytope(4))
    res = rectangle_cover_exact(cube, limit=3_000_000)
    assert (res.status, res.size, res.explored) == ("optimal", 8, 2_397_197)
    assert _check_cover(_supports(cube), res.rectangles)


def test_fooling_le_cover_sandwich():
    for poly in (hypercube_polytope(2), hypercube_polytope(3), simplex_polytope(3)):
        m = slack_matrix(poly)
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
            slack = s.entry(i, j)
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
    square = slack_matrix(hypercube_polytope(2))
    assert nmf_heuristic(square, 3, restarts=2, seed=0) is None


def test_bounds_identity(monkeypatch):
    """The rank of I_4 already equals min(rows, cols), so no cover runs."""

    def no_cover(*args):
        raise AssertionError("rectangle_cover_exact ran")

    monkeypatch.setattr(xclab.bounds, "rectangle_cover_exact", no_cover)
    report = nonnegative_rank_bounds(ExactMatrix.identity(4))
    assert [report.lower, report.upper] == [4, 4]
    assert report.upper_witness is not None
    assert report.certificates[0] == Certificate("rank", 4)
    assert {c.method for c in report.certificates} == {"rank", "fooling"}


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


def test_bounds_lowers_the_upper_bound_through_nmf(monkeypatch):
    """L @ R is 3 x 3 of rank 2, so min(rows, cols) leaves the interval at
    [2, 3] until the NMF heuristic finds a rank-2 factorization, which is
    verified and becomes the witness of the upper bound 2."""
    m = ExactMatrix([[1, 0], [0, 1], [1, 1]]) @ ExactMatrix([[1, 2, 0], [0, 1, 3]])
    found = []
    nmf = xclab.bounds.nmf_heuristic

    def recording(*args):
        found.append(nmf(*args))
        return found[-1]

    monkeypatch.setattr(xclab.bounds, "nmf_heuristic", recording)
    report = nonnegative_rank_bounds(m)
    assert (report.lower, report.upper) == (2, 2)
    assert found == [report.upper_witness]
    assert report.upper_witness.r == 2 and verify_factorization(m, report.upper_witness)


@pytest.mark.parametrize("tries, ranks", [(0, []), (1, [5]), (3, [5, 6, 7])])
def test_nmf_max_tries_caps_the_ranks_tried(tries, ranks, monkeypatch):
    """cube4's interval is [5, 8] and NMF finds nothing in it, so the ranks
    5, 6 and 7 are tried in turn until `nmf_max_tries` calls were made."""
    tried = []
    monkeypatch.setattr(xclab.bounds, "nmf_heuristic", lambda m, r, *rest: tried.append(r))
    cube = slack_matrix(hypercube_polytope(4))
    report = nonnegative_rank_bounds(cube, BoundConfig(nmf_max_tries=tries))
    assert (report.lower, report.upper, tried) == (5, 8, ranks)


def test_bounds_zero_matrix():
    report = nonnegative_rank_bounds(ExactMatrix([[0, 0, 0], [0, 0, 0]]))
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
    value, alpha = hyperplane_bound(w, eye)
    assert value == 3 and alpha.certified
    assert w.rectangle_sum(alpha.rectangle.rows, alpha.rectangle.cols) == alpha.value == 1
    report = nonnegative_rank_bounds(eye)
    assert report.lower == value == report.upper


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
    den = common_denominator(x for row in s_cells for x in row)
    scaled = [[int(x * den) for x in row] for row in s_cells]
    if want is None:
        with pytest.raises(InputError, match="FORBIDDEN"):
            w.frobenius_with(scaled)
    else:
        assert w.frobenius_with(scaled) / den == want

    assert w.rectangle_sum(rows, cols) == ref_rectangle_sum(w_cells, rows, cols)

    exact = max_rectangle_value(w)
    assert exact.value == ref_alpha(w_cells)
    # the hyperplane bound scales the rational S once and divides <W, S> back
    norm = max(map(max, s_cells))
    if want is not None and exact.value and norm:
        assert hyperplane_bound(w, ExactMatrix(s_cells))[0] == want / (norm * exact.value)
    assert exact.rectangle.rows <= set(range(nrows))
    assert exact.rectangle.cols <= set(range(ncols))
    assert ref_rectangle_sum(w_cells, exact.rectangle.rows, exact.rectangle.cols) == exact.value

    heur = max_rectangle_value(w, mode="heuristic", restarts=3, seed=seed)
    assert heur.value == w.rectangle_sum(heur.rectangle.rows, heur.rectangle.cols)
    assert heur.value <= exact.value


@settings(max_examples=100, deadline=None)
@given(weight_and_slack(), st.lists(st.integers(0, 4), min_size=16, max_size=16))
def test_frobenius_reads_integer_rows_as_the_matrix_of_those_rows(case, ints):
    """Rows of ints and the bytes rows of the same ints give the reference's
    <W, S>, or its FORBIDDEN refusal."""
    w_cells = case[0]
    w = WeightMatrix.from_rows(w_cells)
    ncols = len(w_cells[0])
    s_rows = [tuple(ints[4 * i : 4 * i + ncols]) for i in range(len(w_cells))]
    want = ref_frobenius(w_cells, s_rows)
    for s in (s_rows, [bytes(row) for row in s_rows]):
        if want is None:
            with pytest.raises(InputError, match="FORBIDDEN"):
                w.frobenius_with(s)
        else:
            assert w.frobenius_with(s) == want
    with pytest.raises(InputError, match="dimensions"):
        w.frobenius_with(s_rows[:-1] + [s_rows[-1] + (0,)])


# ---------------------------------------------------------------------------
# Class codes against a tuple grid of the same rows


class TupleGridW:
    """W as one int (or None for FORBIDDEN) per cell over a common scale,
    with the cell-by-cell searches that read it: the reference for the
    class-coded WeightMatrix."""

    def __init__(self, rows):
        cooked = [[x if x is FORBIDDEN else rat(x) for x in row] for row in rows]
        self.scale = 1
        for row in cooked:
            for x in row:
                if x is not FORBIDDEN:
                    self.scale = self.scale * x.denominator // gcd(self.scale, x.denominator)
        self.grid = tuple(
            tuple(None if x is FORBIDDEN else int(x * self.scale) for x in row) for row in cooked
        )

    def entry(self, i, j):
        x = self.grid[i][j]
        return FORBIDDEN if x is None else Fraction(x, self.scale)

    def rectangle_sum(self, rows, cols):
        total = 0
        for i in rows:
            for j in cols:
                if self.grid[i][j] is None:
                    return FORBIDDEN
                total += self.grid[i][j]
        return Fraction(total, self.scale)

    def frobenius_with(self, s_rows):
        total = 0
        for i, (wrow, srow) in enumerate(zip(self.grid, s_rows)):
            for w, x in zip(wrow, srow):
                if w is None:
                    if x:
                        raise InputError(f"FORBIDDEN weight meets nonzero slack at row {i}")
                else:
                    total += w * x
        return Fraction(total, self.scale)

    @staticmethod
    def best_cols(grid, rows):
        cols, value = [], 0
        for j in range(len(grid[0])):
            cells = [grid[i][j] for i in rows]
            if None not in cells and sum(cells) > 0:
                cols.append(j)
                value += sum(cells)
        return frozenset(cols), value

    def alpha_exact(self):
        """The best rectangle of the first subset, in Gray-code order, of
        the smaller side that reaches the maximum."""
        transposed = len(self.grid) > len(self.grid[0])
        grid = tuple(zip(*self.grid)) if transposed else self.grid
        best_value, best_rows = 0, frozenset()
        mask = 0
        for step in range(1, 1 << len(grid)):
            mask = step ^ (step >> 1)
            rows = frozenset(i for i in range(len(grid)) if mask >> i & 1)
            value = self.best_cols(grid, rows)[1]
            if value > best_value:
                best_value, best_rows = value, rows
        cols = self.best_cols(grid, best_rows)[0]
        rect = Rectangle(cols, best_rows) if transposed else Rectangle(best_rows, cols)
        return Fraction(best_value, self.scale), rect

    def alpha_heuristic(self, restarts, seed):
        tgrid = tuple(zip(*self.grid))
        rng = random.Random(seed)
        best_value, best = 0, (frozenset(), frozenset())
        for _ in range(max(1, restarts)):
            rows = frozenset(i for i in range(len(self.grid)) if rng.random() < 0.5)
            value = -1
            while True:
                cols = self.best_cols(self.grid, rows)[0]
                new_rows, v2 = self.best_cols(tgrid, cols)
                if v2 <= value:
                    break
                rows, value = new_rows, v2
            if value > best_value:
                best_value = value
                best = (rows, self.best_cols(self.grid, rows)[0])
        return Fraction(best_value, self.scale), Rectangle(*best)


@st.composite
def coded_weights(draw):
    """Rows of up to 7 x 9 weights from a small pool with FORBIDDEN, so
    classes repeat, a slack of the same shape, and a rectangle."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    pool = draw(st.lists(st.one_of(st.just(FORBIDDEN), rationals(-6, 6, 6)), min_size=1, max_size=6))
    rows = [[draw(st.sampled_from(pool)) for _ in range(ncols)] for _ in range(nrows)]
    slack = [[draw(st.integers(0, 3)) for _ in range(ncols)] for _ in range(nrows)]
    rect = (draw(st.sets(st.integers(0, nrows - 1))), draw(st.sets(st.integers(0, ncols - 1))))
    return rows, slack, rect


@settings(max_examples=200, deadline=None)
@given(coded_weights(), st.integers(0, 5))
def test_class_codes_match_the_tuple_grid_of_the_same_rows(case, seed):
    rows, slack, (rect_rows, rect_cols) = case
    w, ref = WeightMatrix.from_rows(rows), TupleGridW(rows)
    assert w.scale == ref.scale
    assert all(
        w.entry(i, j) == ref.entry(i, j) or w.entry(i, j) is ref.entry(i, j) is FORBIDDEN
        for i in range(len(rows))
        for j in range(len(rows[0]))
    )
    assert w.rectangle_sum(rect_rows, rect_cols) == ref.rectangle_sum(rect_rows, rect_cols)
    try:
        want = ref.frobenius_with(slack)
    except InputError as exc:
        with pytest.raises(InputError, match=str(exc)):
            w.frobenius_with(slack)
    else:
        assert w.frobenius_with(slack) == want
        assert w.frobenius_with([bytes(row) for row in slack]) == want
    exact = max_rectangle_value(w)
    assert (exact.value, exact.rectangle) == ref.alpha_exact()
    heur = max_rectangle_value(w, mode="heuristic", restarts=4, seed=seed)
    assert (heur.value, heur.rectangle) == ref.alpha_heuristic(4, seed)


def test_from_rows_refuses_more_than_256_distinct_weights():
    assert WeightMatrix.from_rows([range(255), [FORBIDDEN] * 255]).levels[-1] is None
    with pytest.raises(InputError, match="at most 256 distinct weights, got 257"):
        WeightMatrix.from_rows([range(256), [FORBIDDEN] * 256])


def test_hyperplane_certificate_on_ppm4_all_ones():
    s = slack_matrix(perfect_matching_polytope(4))
    w = WeightMatrix.from_rows([[1] * s.ncols for _ in range(s.nrows)])
    value, alpha = hyperplane_bound(w, s)
    assert 0 < value <= nonnegative_rank_bounds(s).upper
    assert alpha.certified
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
    support = {
        (i, j) for i, supp in enumerate(supports) for j in range(m.ncols) if supp >> j & 1
    }
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
        assert any(supports[i] >> jj & 1 and supports[ii] >> j & 1 for ii, jj in fooling)
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
            assert not all(supports[i] >> j & 1 for j in r.cols)
            grown = Rectangle(r.rows | {i}, r.cols)
            assert not _check_cover(supports, rects[:k] + [grown] + rects[k + 1:])


# ---------------------------------------------------------------------------
# Differential check of the bitmask cover search against the frozenset
# search it replaced: the same nodes in the same order, so the same
# CoverResult at every step limit.


def _ref_supports(m: ExactMatrix) -> list[frozenset[int]]:
    return [frozenset(j for j, x in enumerate(m.row(i)) if x) for i in range(m.nrows)]


def _ref_maximal_rectangles(supports, ncols, spend):
    rects = []
    universe = frozenset(range(ncols))

    def closed(col_set: frozenset[int]):
        if not spend():
            return None
        rows = frozenset(i for i, supp in enumerate(supports) if col_set <= supp)
        if not rows:
            return rows, universe
        return rows, frozenset.intersection(*(supports[i] for i in rows))

    found = closed(frozenset())
    if found is None:
        return None
    rows, cols = found
    if rows and cols:
        rects.append(Rectangle(rows, cols))
    while cols != universe:
        for c in range(ncols - 1, -1, -1):
            if c in cols:
                continue
            prefix = frozenset(j for j in cols if j < c)
            found = closed(prefix | {c})
            if found is None:
                return None
            rows2, cols2 = found
            # lectic successor: the closure may not add anything below c
            if all(j >= c for j in cols2 - prefix):
                rows, cols = rows2, cols2
                if rows and cols:
                    rects.append(Rectangle(rows, cols))
                break
        else:
            break
    return rects


def _ref_rectangle_cover_exact(m, limit=200_000, cap=20):
    if m.nrows > cap or m.ncols > cap:
        raise InputError(
            f"exact cover needs dimensions <= {cap}, got {m.nrows}x{m.ncols}"
        )
    supports = _ref_supports(m)
    cells = frozenset(
        (i, j) for i, supp in enumerate(supports) for j in supp
    )
    if not cells:
        return CoverResult("optimal", 0, (), 0)
    explored = 0

    def spend() -> bool:
        nonlocal explored
        if explored == limit:
            return False
        explored += 1
        return True

    rects = _ref_maximal_rectangles(supports, m.ncols, spend)
    if rects is None:
        return CoverResult("exceeded", None, (), explored)

    cover_sets = [frozenset((i, j) for i in r.rows for j in r.cols) for r in rects]
    by_cell: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    for k, cs in enumerate(cover_sets):
        for c in cs:
            by_cell[c].append(k)

    # greedy start gives an upper bound and a fallback witness
    greedy: list[int] = []
    left = set(cells)
    while left:
        k = max(range(len(rects)), key=lambda k: (len(cover_sets[k] & left), -k))
        greedy.append(k)
        left -= cover_sets[k]
    best: list[int] = list(greedy)

    def search(uncovered: frozenset, chosen: list[int]) -> bool:
        """False once `spend` refuses a node."""
        nonlocal best
        if not spend():
            return False
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return True
        if len(chosen) + 1 >= len(best):
            return True
        cell = min(uncovered, key=lambda c: (len(by_cell[c]), c))
        for k in by_cell[cell]:
            chosen.append(k)
            finished = search(uncovered - cover_sets[k], chosen)
            chosen.pop()
            if not finished:
                return False
        return True

    if not search(cells, []):
        return CoverResult("exceeded", None, (), explored)
    return CoverResult(
        "optimal", len(best), tuple(rects[k] for k in best), explored
    )


@st.composite
def matrices_up_to_six(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.sampled_from((0, 1, 2))
    return ExactMatrix([[draw(cell) for _ in range(ncols)] for _ in range(nrows)])


@example(ExactMatrix([
    [2, 0, 2, 1, 2, 2], [0, 1, 1, 1, 1, 0], [1, 1, 2, 0, 2, 2],
    [2, 1, 2, 0, 0, 1], [1, 2, 2, 1, 0, 0], [1, 1, 0, 0, 1, 2],
]))  # optimal 5 after 409 steps
@settings(max_examples=300, deadline=None)
@given(matrices_up_to_six())
def test_cover_search_visits_the_reference_nodes(m):
    full = _ref_rectangle_cover_exact(m)
    for limit in range(full.explored + 3):
        assert rectangle_cover_exact(m, limit=limit) == _ref_rectangle_cover_exact(m, limit=limit)
    assert rectangle_cover_exact(m) == full


# ---------------------------------------------------------------------------
# NMF sweep iterates: rounded against the exact reference


def _ref_solve_side(m: ExactMatrix, basis: ExactMatrix) -> ExactMatrix:
    """The unrounded sweep step: keeps each residual-LP optimum exactly, so
    the LP inputs grow from sweep to sweep."""
    r = basis.nrows
    ncols = basis.ncols
    rows_out = []
    cols = [basis.column(j) for j in range(ncols)]
    for i in range(m.nrows):
        target = m.row(i)
        exact = conic_combination(basis, target)
        if exact is not None:
            rows_out.append(exact)
            continue
        ineq_rows = []
        ineq_rhs = []
        for j in range(ncols):
            col = cols[j]
            ineq_rows.append([col[k] for k in range(r)] + [-1])
            ineq_rhs.append(target[j])
            ineq_rows.append([-col[k] for k in range(r)] + [-1])
            ineq_rhs.append(-target[j])
        for k in range(r):
            row = [0] * (r + 1)
            row[k] = -1
            ineq_rows.append(row)
            ineq_rhs.append(0)
        obj = [0] * r + [1]
        res = lp_solve((ineq_rows, ineq_rhs), ((), ()), obj, sense="min")
        assert res.is_optimal
        rows_out.append(res.point[:r])
    return ExactMatrix(rows_out)


@st.composite
def nonnegative_products(draw):
    # at least inner + 1 rows and columns, so the padded trivial
    # factorization never answers and every example runs the sweeps
    inner = draw(st.integers(1, 3))
    nrows, ncols = draw(st.integers(inner + 1, 6)), draw(st.integers(inner + 1, 6))
    cell = st.integers(0, 2)
    left = ExactMatrix([[draw(cell) for _ in range(inner)] for _ in range(nrows)])
    right = ExactMatrix([[draw(cell) for _ in range(ncols)] for _ in range(inner)])
    return left @ right, inner


def _product(left, right, seed):
    return (ExactMatrix(left) @ ExactMatrix(right), len(right)), seed


# Products L @ R (with r = rows of R, and the seed) that no start
# factorizes without a sweep, and that both sweeps factorize.
_SWEEP_NEEDED = (
    ([[0, 1], [0, 2], [2, 1], [2, 1]], [[2, 1, 2, 1, 2, 0], [0, 1, 0, 2, 2, 2]], 1),
    ([[2, 2], [1, 1], [1, 1], [0, 2], [0, 1], [0, 1]], [[0, 1, 1, 0, 2], [1, 1, 1, 0, 0]], 0),
    ([[2, 2], [1, 1], [0, 1], [0, 2], [1, 1], [2, 2]], [[2, 0, 2, 1, 2], [1, 1, 1, 2, 2]], 1),
    (
        [[0, 0, 2], [1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 2, 0]],
        [[2, 2, 0, 0, 0, 1], [1, 1, 0, 1, 2, 2], [0, 2, 2, 1, 2, 1]],
        3,
    ),
)

# The recorded exceptions: the exact sweep factorizes these and the rounded
# one does not.  A scan of 4 500 seeded products like the drawn ones found
# these three; on the same scan the rounded sweep factorized 17 that the
# exact one did not.  A new exception found by the property test goes here.
_ROUNDING_MISSES = (
    ([[1, 1], [2, 2], [2, 2], [1, 2], [1, 2], [1, 1]], [[2, 1, 1, 2, 1, 0], [0, 1, 1, 1, 2, 0]], 0),
    (
        [[1, 0, 0], [2, 0, 2], [1, 1, 1], [2, 2, 2], [1, 0, 2]],
        [[1, 0, 1, 0, 1], [2, 1, 2, 2, 1], [1, 0, 0, 0, 1]],
        1,
    ),
    ([[2, 2], [2, 2], [1, 1], [1, 0], [2, 0], [2, 2]], [[0, 1, 1, 2, 1], [0, 0, 2, 0, 2]], 3),
)
_MISSED = {
    (case[0].rows(), case[1], seed)
    for case, seed in (_product(*miss) for miss in _ROUNDING_MISSES)
}


def _with_examples(test):
    for instance in _SWEEP_NEEDED + _ROUNDING_MISSES:
        test = example(*_product(*instance))(test)
    return test


@_with_examples
@settings(max_examples=80, deadline=None)
@given(nonnegative_products(), st.integers(0, 3))
def test_rounded_sweep_finds_whatever_the_exact_sweep_finds(case, seed):
    m, r = case
    rounded = nmf_heuristic(m, r, restarts=1, seed=seed)
    with mock.patch.object(xclab.bounds, "_solve_side", _ref_solve_side):
        exact = nmf_heuristic(m, r, restarts=1, seed=seed)
    for fac in (rounded, exact):
        if fac is not None:
            assert fac.r == r and verify_factorization(m, fac)
    if (m.rows(), r, seed) in _MISSED:
        assert exact is not None and rounded is None
    elif exact is not None:
        assert rounded is not None


def test_nmf_heuristic_does_not_retry_an_iterate(monkeypatch):
    # The first start here alternates between two iterates; solving every
    # sweep took 16 _solve_side calls, each after the cycle a repeat.
    (m, r), seed = _product(*_ROUNDING_MISSES[0])
    calls = []
    solve = xclab.bounds._solve_side

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(xclab.bounds, "_solve_side", counting)
    assert nmf_heuristic(m, r, restarts=1, seed=seed) is None
    assert len(calls) <= 8


def _max_bits(values) -> int:
    return max(
        (max(rat(x).numerator.bit_length(), rat(x).denominator.bit_length()) for x in values),
        default=0,
    )


def test_sweep_lp_inputs_stay_small(monkeypatch):
    # Unrounded, this run feeds its LPs inputs of over 33 000 bits.
    seen = [0]

    def recording(solve, flatten):
        def wrapper(*args, **kwargs):
            seen[0] = max(seen[0], _max_bits(flatten(*args)))
            return solve(*args, **kwargs)
        return wrapper

    def lp_values(ineqs, eqs, objective, sense="max"):
        rows, rhs = ineqs
        return [x for row in rows for x in row] + list(rhs) + list(objective)

    def conic_values(basis, target):
        return [x for row in basis.rows() for x in row] + list(target)

    monkeypatch.setattr(xclab.bounds, "lp_solve", recording(xclab.bounds.lp_solve, lp_values))
    monkeypatch.setattr(
        xclab.bounds,
        "conic_combination",
        recording(xclab.bounds.conic_combination, conic_values),
    )
    cube3 = slack_matrix(hypercube_polytope(3))
    assert nmf_heuristic(cube3, 5, restarts=1, seed=0) is None
    assert 0 < seen[0] < 32
