import functools
import hashlib
import json
import math
import os
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xclab.bounds import max_rectangle_value
from xclab.errors import InputError
from xclab.exactla import format_rational
from xclab.matchgen import enumerate_perfect_matchings, odd_set_rows, perfect_matching_polytope
from xclab.polytope import Rectangle, slack_matrix
from xclab.sepmeasure import (
    FORBIDDEN,
    CutMatchingGround,
    _load_cached_table,
    MatchingCutInstance,
    biased_indices,
    canonical_rectangle,
    mu,
    perfect_matching_count,
    q_class_size,
    q_class_total,
    rectangle_w_value,
    slack_max_norm,
    weight_matrix,
    weight_values,
    ws_inner_product,
    ws_inner_product_materialized,
)


def brute_class_sizes(n, t):
    sizes = {}
    pms = enumerate_perfect_matchings(n)
    for cut in combinations(range(n), t):
        inside = set(cut)
        for pm in pms:
            ell = sum(1 for a, b in pm if (a in inside) != (b in inside))
            sizes[ell] = sizes.get(ell, 0) + 1
    return sizes


@pytest.fixture(scope="module")
def ground63():
    return CutMatchingGround.build(6, 3)


@pytest.fixture(scope="module")
def ground105():
    return CutMatchingGround.build(10, 5)


# ---------------------------------------------------------------------------
# Class sizes

def test_perfect_matching_count():
    assert [perfect_matching_count(n) for n in (0, 2, 4, 6, 8, 10)] == [
        1, 1, 3, 15, 105, 945,
    ]
    assert perfect_matching_count(5) == 0
    assert perfect_matching_count(-2) == 0


def test_q_class_size_validation():
    with pytest.raises(InputError):
        q_class_size(5, 3, 1)
    with pytest.raises(InputError):
        q_class_size(6, 2, 1)
    with pytest.raises(InputError):
        q_class_size(6, 7, 1)
    with pytest.raises(InputError):
        q_class_size(6, 3, -1)


def test_q_class_size_even_is_zero():
    for ell in (0, 2, 4, 6):
        assert q_class_size(10, 5, ell) == 0


def test_q_class_size_past_the_largest_crossing_is_zero_at_once(monkeypatch):
    """No pair crosses more than min(t, n - t) times, so a larger class is
    empty: its size is 0 without the factorial of ell, which for ell in
    the millions takes minutes."""
    factorial = math.factorial

    def small_factorial(k):
        if k > 5:
            raise AssertionError(f"factorial({k}) for a class past t = 5")
        return factorial(k)

    monkeypatch.setattr(math, "factorial", small_factorial)
    for ell in (7, 11, 2_000_001, 6_000_001):
        assert q_class_size(10, 5, ell) == 0
    assert q_class_size(10, 3, 5) == q_class_size(10, 7, 5) == 0
    assert q_class_size(10, 5, 5) > 0


@pytest.mark.parametrize("n", [4, 6, 8])
def test_q_class_size_matches_brute_force(n):
    for t in range(1, n, 2):
        brute = brute_class_sizes(n, t)
        for ell in range(0, n + 1):
            assert q_class_size(n, t, ell) == brute.get(ell, 0), (t, ell)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_q_class_sizes_sum_to_ground_total(n):
    for t in range(1, n, 2):
        total = sum(q_class_size(n, t, ell) for ell in range(1, t + 1, 2))
        assert total == q_class_total(n, t)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_slack_max_norm_matches_the_ground(n):
    for t in range(1, n, 2):
        grid = CutMatchingGround.build(n, t).slack_grid()
        assert all(type(row) is bytes for row in grid)
        assert slack_max_norm(n, t) == max(abs(x) for row in grid for x in row), t


def test_frozen_sizes_6_3():
    assert q_class_size(6, 3, 1) == 180
    assert q_class_size(6, 3, 3) == 120
    assert q_class_total(6, 3) == 300


def test_frozen_sizes_10_5():
    assert q_class_size(10, 5, 1) == 56700
    assert q_class_size(10, 5, 3) == 151200
    assert q_class_size(10, 5, 5) == 30240
    assert q_class_total(10, 5) == 238140


# ---------------------------------------------------------------------------
# Parameter scheme

def test_instance_from_mk():
    inst = MatchingCutInstance(1, 5)
    assert (inst.n, inst.t) == (16, 5)
    inst = MatchingCutInstance(3, 5)
    assert (inst.n, inst.t) == (28, 7)
    inst = MatchingCutInstance(1, 7)
    assert (inst.n, inst.t) == (26, 7)
    assert inst.t % 2 == 1


def test_instance_validation():
    with pytest.raises(InputError):
        MatchingCutInstance(2, 5)
    with pytest.raises(InputError):
        MatchingCutInstance(1, 4)
    with pytest.raises(InputError):
        MatchingCutInstance(1, 3)


# ---------------------------------------------------------------------------
# Materialized grounds

def test_ground_shape_and_counts(ground63):
    assert ground63.n_cuts == 20
    assert ground63.n_matchings == 15
    assert ground63.class_counts() == {1: 180, 3: 120}


def test_ground_counts_match_closed_form(ground105):
    assert ground105.class_counts() == {1: 56700, 3: 151200, 5: 30240}


def test_ground_parity(ground63, ground105):
    for g in (ground63, ground105):
        for ell in g.class_counts():
            assert ell % 2 == 1


def test_ground_cap():
    assert q_class_total(12, 5) == 8_232_840
    with pytest.raises(
        InputError, match="pair count has 7 digits, over the materialization cap 1000000"
    ):
        CutMatchingGround.build(12, 5)


def test_ground_validation():
    with pytest.raises(InputError):
        CutMatchingGround.build(7, 3)
    with pytest.raises(InputError):
        CutMatchingGround.build(6, 4)


def test_ground_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    first = CutMatchingGround.build(6, 3)
    cache = tmp_path / "ground-n6-t3.txt"
    assert cache.exists()
    again = CutMatchingGround.build(6, 3)
    assert again._table == first._table
    assert again.class_counts() == {1: 180, 3: 120}


def test_ground_cache_ignores_corrupt_file(tmp_path, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    (tmp_path / "ground-n6-t3.txt").write_text("not a table\n")
    g = CutMatchingGround.build(6, 3)
    assert g.class_counts() == {1: 180, 3: 120}


# sha256 of ground-n6-t3.txt as the version-1 writer has always written it
_N6_T3_CACHE_SHA256 = "510ff65b05e2fc5f5da87df7934b848bc32408eb9b18ed288476b0e1524bd85a"


def _cache_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_ground_cache_file_keeps_its_bytes_and_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    cold = CutMatchingGround.build(6, 3)
    assert _cache_sha(tmp_path / "ground-n6-t3.txt") == _N6_T3_CACHE_SHA256
    assert _load_cached_table(6, 3, 20, 15) == cold._table


# sha256 of ground-n10-t5.txt as the version-1 writer has always written it
_N10_T5_CACHE_SHA256 = "c3b1505ebbd648026693d49d2c1121884fcfd76797f9020cb8404dbdbc297684"


def test_n10_t5_cache_file_keeps_its_bytes_and_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    cold = CutMatchingGround.build(10, 5)
    assert _cache_sha(tmp_path / "ground-n10-t5.txt") == _N10_T5_CACHE_SHA256
    assert _load_cached_table(10, 5, 252, 945) == cold._table


def _two_digit_token(text):
    return text.replace("\n1 ", "\n01 ", 1)


def _non_digit(text):
    return text.replace("\n1 ", "\nx ", 1)


def _crlf_row(text):
    head, rest = text.split("\n", 1)
    return head + "\n" + rest.replace("\n", "\r\n", 1)


def _ones_as_threes(text):
    head, rest = text.split("\n", 1)
    return head + "\n" + rest.replace("1", "3")


def _extra_row(text):
    return text + "garbage row here\n"


@pytest.mark.parametrize(
    "corrupt", [_two_digit_token, _non_digit, _crlf_row, _ones_as_threes, _extra_row]
)
def test_ground_cache_rejects_and_rebuilds_a_bad_row(tmp_path, monkeypatch, corrupt):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    cold = CutMatchingGround.build(6, 3)
    cache = tmp_path / "ground-n6-t3.txt"
    text = cache.read_bytes().decode()
    bad = corrupt(text)
    assert bad != text
    cache.write_bytes(bad.encode())
    assert _load_cached_table(6, 3, 20, 15) is None
    rebuilt = CutMatchingGround.build(6, 3)
    assert rebuilt._table == cold._table
    assert rebuilt.class_counts() == {1: 180, 3: 120}
    assert _cache_sha(cache) == _N6_T3_CACHE_SHA256


def test_ground_slack_matches_polytope_rows(ground63):
    """A proper odd-set row of the polytope and the two complementary
    ground cuts all carry slack = crossing count minus one."""
    poly = perfect_matching_polytope(6)
    s = slack_matrix(poly, row_filter=odd_set_rows)
    cut_index = {cut: i for i, cut in enumerate(ground63.cuts)}
    checked = 0
    for r, label in enumerate(filter(odd_set_rows, poly.row_labels)):
        body = label.split(":", 1)[1]
        cut = tuple(int(x) for x in body.split(","))
        comp = tuple(v for v in range(6) if v not in cut)
        for g_row in (cut_index[cut], cut_index[comp]):
            for j in range(ground63.n_matchings):
                assert s.entry(r, j) == ground63.ell(g_row, j) - 1
        checked += 1
    assert checked == 10


# ---------------------------------------------------------------------------
# Weights and the inner product

def test_weight_values():
    vals = weight_values(10, 5, 5)
    assert vals[1] is FORBIDDEN
    assert vals[3] == Fraction(1, 151200)
    assert vals[5] == Fraction(-1, 4 * 30240)


def test_weight_values_validation():
    with pytest.raises(InputError, match="Q_5"):
        weight_values(6, 3, 5)
    with pytest.raises(InputError, match="Q_7"):
        weight_values(10, 5, 7)
    with pytest.raises(InputError):
        weight_values(10, 5, 4)
    with pytest.raises(InputError):
        weight_values(10, 5, 3)


def test_ws_inner_product_counting():
    assert ws_inner_product(10, 5, 5) == 1
    assert ws_inner_product(16, 5, 5) == 1
    inst = MatchingCutInstance(3, 5)
    assert ws_inner_product(inst.n, inst.t, inst.k) == 1


def test_ws_inner_product_materialized(ground105):
    """The integer Frobenius sum equals the closed form at every
    (n <= 10, t, k >= 5) whose Q_3 and Q_k are nonempty."""
    assert ws_inner_product_materialized(ground105, 5) == 1
    cases = [
        (n, t, k)
        for n in range(2, 11, 2)
        for t in range(1, n, 2)
        for k in range(5, n + 1, 2)
        if q_class_size(n, t, 3) and q_class_size(n, t, k)
    ]
    assert (10, 5, 5) in cases
    for n, t, k in cases:
        ground = CutMatchingGround.build(n, t)
        assert ws_inner_product_materialized(ground, k) == ws_inner_product(n, t, k)


def test_forbidden_weight_on_nonzero_slack_is_an_input_error(ground105, monkeypatch):
    """One Q_1 cell, whose weight is FORBIDDEN, given slack 2 in the grid."""
    grid = [list(row) for row in CutMatchingGround.slack_grid(ground105)]
    j = next(j for j in range(ground105.n_matchings) if ground105.ell(3, j) == 1)
    grid[3][j] = 2
    monkeypatch.setattr(CutMatchingGround, "slack_grid", lambda self: grid)
    with pytest.raises(InputError, match="FORBIDDEN weight meets nonzero slack at row 3"):
        ws_inner_product_materialized(ground105, 5)


def test_weight_matrix_entries(ground63, ground105):
    w = weight_matrix(ground105, 5)
    assert w.nrows == 252 and w.ncols == 945
    i, j = 0, 0
    seen = set()
    for i in range(3):
        for j in range(ground105.n_matchings):
            ell = ground105.ell(i, j)
            expected = weight_values(10, 5, 5).get(ell, Fraction(0))
            assert w.entry(i, j) == expected or (
                expected is FORBIDDEN and w.entry(i, j) is FORBIDDEN
            )
            seen.add(ell)
    assert 1 in seen
    with pytest.raises(InputError, match="Q_5"):
        weight_matrix(ground63, 5)


def test_weight_matrix_shares_the_ground_table_and_stays_small(ground105):
    """W(10, 5, 5)'s codes are the ground's own crossing-table rows, and
    building it plus one 20-restart heuristic alpha peaks under 512 KB of
    traced memory; a 252 x 945 grid of ints alone would take about 1.9 MB."""
    tracemalloc.start()
    try:
        w = weight_matrix(ground105, 5)
        max_rectangle_value(w, mode="heuristic", restarts=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.codes) == len(ground105._table) == 252
    assert all(row is table_row for row, table_row in zip(w.codes, ground105._table))
    assert peak < 512 * 1024, peak


# ---------------------------------------------------------------------------
# Rectangle measures

def test_mu_full_ground(ground63):
    full = Rectangle.of(range(20), range(15))
    assert mu(ground63, full, 1) == 1
    assert mu(ground63, full, 3) == 1
    with pytest.raises(InputError, match="Q_5"):
        mu(ground63, full, 5)
    with pytest.raises(InputError, match="Q_2"):
        mu(ground63, full, 2)


def test_mu_single_cut(ground63):
    rect = Rectangle.of([0], range(15))
    assert mu(ground63, rect, 1) == Fraction(9, 180)
    assert mu(ground63, rect, 3) == Fraction(6, 120)


def test_canonical_rectangle(ground63):
    rect = canonical_rectangle(ground63, (0, 1), (2, 3))
    assert len(rect.rows) == 8
    assert len(rect.cols) == 1
    (j,) = rect.cols
    pm = ground63.matchings[j]
    assert (0, 1) in pm and (2, 3) in pm
    for i in rect.rows:
        inside = set(ground63.cuts[i])
        assert (0 in inside) != (1 in inside)
        assert (2 in inside) != (3 in inside)


def test_canonical_rectangle_validation(ground63):
    with pytest.raises(InputError, match="share"):
        canonical_rectangle(ground63, (0, 1), (1, 2))
    with pytest.raises(InputError):
        canonical_rectangle(ground63, (0, 0), (2, 3))
    with pytest.raises(InputError):
        canonical_rectangle(ground63, (0, 6), (2, 3))


def _parity_table(ground):
    """Crossing counts by a per-edge parity test against each cut's node mask."""
    table = []
    for cut in ground.cuts:
        mask = 0
        for v in cut:
            mask |= 1 << v
        table.append(bytes(
            sum(((mask >> a) ^ (mask >> b)) & 1 for a, b in pm) for pm in ground.matchings
        ))
    return tuple(table)


def _set_rectangle(ground, e1, e2):
    """The canonical rectangle by set membership and matching-tuple scans."""
    e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
    rows = [
        i
        for i, cut in enumerate(ground.cuts)
        if all((a in set(cut)) != (b in set(cut)) for a, b in (e1, e2))
    ]
    cols = [j for j, pm in enumerate(ground.matchings) if e1 in pm and e2 in pm]
    return Rectangle.of(rows, cols)


@st.composite
def ground_and_disjoint_edges(draw):
    n = draw(st.sampled_from([4, 6, 8]))
    t = draw(st.sampled_from(range(1, n, 2)))
    a, b, c, d = draw(st.permutations(range(n)))[:4]
    return n, t, (a, b), (c, d)


def _cold_and_cached_grounds(n, t):
    """The ground built by byte-spread sums, and again from the cache file
    that build wrote."""
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setenv("XCLAB_CACHE_DIR", root)
        cold = CutMatchingGround.build(n, t)
        assert os.listdir(root) == [f"ground-n{n}-t{t}.txt"]
        return cold, CutMatchingGround.build(n, t)


def _check_crossings(n, t, e1, e2):
    cold, hit = _cold_and_cached_grounds(n, t)
    want = _parity_table(cold)
    for ground in (cold, hit):
        assert ground._table == want
        assert canonical_rectangle(ground, e1, e2) == _set_rectangle(ground, e1, e2)


@settings(max_examples=60, deadline=None)
@given(ground_and_disjoint_edges())
def test_mask_crossings_match_parity_and_set_references(case):
    _check_crossings(*case)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(range(1, 10, 2)), st.permutations(range(10)))
def test_mask_crossings_match_the_references_at_n10(t, nodes):
    a, b, c, d = nodes[:4]
    _check_crossings(10, t, (a, b), (c, d))


def test_cache_hit_ground_holds_the_same_masks(tmp_path, monkeypatch):
    monkeypatch.setenv("XCLAB_CACHE_DIR", str(tmp_path))
    cold = CutMatchingGround.build(6, 3)
    hit = CutMatchingGround.build(6, 3)
    assert (hit.cut_holders, hit.matching_holders) == (cold.cut_holders, cold.matching_holders)
    assert canonical_rectangle(hit, (0, 1), (2, 3)) == _set_rectangle(hit, (0, 1), (2, 3))


def test_rectangle_w_value_canonical_is_finite(ground105):
    rect = canonical_rectangle(ground105, (0, 1), (2, 3))
    report = rectangle_w_value(ground105, rect, 5)
    assert report.finite
    assert report.q1_hits == 0
    assert report.value == report.mu3 - report.muk / 4
    w = weight_matrix(ground105, 5)
    assert w.rectangle_sum(rect.rows, rect.cols) == report.value


def test_rectangle_w_value_violation(ground105):
    i = 0
    j = next(
        j for j in range(ground105.n_matchings) if ground105.ell(i, j) == 1
    )
    report = rectangle_w_value(ground105, Rectangle.of([i], [j]), 5)
    assert not report.finite
    assert report.value is None
    assert report.q1_hits == 1
    w = weight_matrix(ground105, 5)
    assert w.rectangle_sum([i], [j]) is FORBIDDEN


@functools.cache
def _ground(n, t):
    """A ground and its W(n, t, 5), or None where Q_5 is empty."""
    ground = CutMatchingGround.build(n, t)
    return ground, weight_matrix(ground, 5) if t >= 5 else None


@st.composite
def ground_rectangles(draw):
    """A ground and a rectangle on it: random row and column sets (empty
    ones included, most touching Q_1), or part of a canonical rectangle."""
    n, t = draw(st.sampled_from([(6, 3), (8, 3), (10, 5)]))
    ground, w = _ground(n, t)
    if draw(st.booleans()):
        rows = draw(st.sets(st.integers(0, ground.n_cuts - 1), max_size=30))
        cols = draw(st.sets(st.integers(0, ground.n_matchings - 1), max_size=40))
    else:
        a, b, c, d = draw(st.permutations(range(n)))[:4]
        rect = canonical_rectangle(ground, (a, b), (c, d))
        rows = draw(st.sets(st.sampled_from(sorted(rect.rows))))
        cols = draw(st.sets(st.sampled_from(sorted(rect.cols))))
    return ground, w, Rectangle.of(rows, cols)


@settings(max_examples=80, deadline=None)
@given(ground_rectangles())
def test_class_hits_match_a_cell_by_cell_count(case):
    ground, w, rect = case
    hits = Counter(ground.ell(i, j) for i in rect.rows for j in rect.cols)
    for ell in range(1, ground.t + 1, 2):
        assert mu(ground, rect, ell) == Fraction(hits[ell], q_class_size(ground.n, ground.t, ell))
    if w is None:
        return
    report = rectangle_w_value(ground, rect, 5)
    assert report.q1_hits == hits[1]
    assert report.finite == (hits[1] == 0)
    want = w.rectangle_sum(rect.rows, rect.cols)
    assert report.value == (None if want is FORBIDDEN else want)


# sha256 of the 630-rectangle sweep of W(10, 5, 5): per disjoint edge pair,
# [finite, value, q1_hits] of rectangle_w_value on its canonical rectangle,
# as perfbench's golden `rect-sweep-10-5-5` digests it
_RECT_SWEEP_SHA256 = "f2d023deabfbb316868e9136577e98f2880d6ac2a20946645c1b37af318d0024"


def test_canonical_rectangle_sweep_keeps_its_digest(ground105):
    edges = list(combinations(range(10), 2))
    sweep = []
    for e1, e2 in combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        r = rectangle_w_value(ground105, canonical_rectangle(ground105, e1, e2), 5)
        sweep.append([r.finite, None if r.value is None else format_rational(r.value), r.q1_hits])
    assert len(sweep) == 630
    text = json.dumps(sweep, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _RECT_SWEEP_SHA256


# ---------------------------------------------------------------------------
# Bias checker

def test_biased_indices_full_product():
    y = [(a, b) for a in (0, 1) for b in (0, 1)]
    assert biased_indices(y, [(0, 1), (0, 1)], 0) == ()


def test_biased_indices_fixed_coordinate():
    y = [(0, b, c) for b in (0, 1) for c in (0, 1)]
    doms = [(0, 1)] * 3
    assert biased_indices(y, doms, Fraction(1, 2)) == (0,)
    assert biased_indices(y, doms, 100) == (0,)


def test_biased_indices_mixed_domains():
    y = [(a, b) for a in (0, 1) for b in ("x", "y", "z")]
    assert biased_indices(y, [(0, 1), ("x", "y", "z")], 0) == ()


def test_biased_indices_skew_threshold():
    y = [(0,)] * 3 + [(1,)] * 2
    dom = [(0, 1)]
    assert biased_indices(y, dom, Fraction(1, 2)) == ()
    assert biased_indices(y, dom, Fraction(1, 10)) == (0,)
    assert biased_indices(y, dom, "1/10") == (0,)


def test_biased_indices_validation():
    with pytest.raises(InputError, match="nonempty"):
        biased_indices([], [(0, 1)], 0)
    with pytest.raises(InputError, match="width"):
        biased_indices([(0, 1)], [(0, 1)], 0)
    with pytest.raises(InputError, match="outside"):
        biased_indices([(2,)], [(0, 1)], 0)
    with pytest.raises(InputError, match="repeat"):
        biased_indices([(0,)], [(0, 0)], 0)
    with pytest.raises(InputError, match="nonnegative"):
        biased_indices([(0,)], [(0, 1)], -1)
