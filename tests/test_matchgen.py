from fractions import Fraction
from itertools import combinations

import pytest

from xclab.errors import InputError
from xclab.matchgen import (
    EdgeIndexing,
    approximation_ratio,
    canonical_completion,
    canonical_odd_sets,
    double_factorial,
    embed_matchings_as_face,
    enumerate_matchings,
    enumerate_perfect_matchings,
    matching_polytope,
    odd_set_rows,
    odd_set_slack,
    perfect_matching_polytope,
    truncated_matching_relaxation,
)
from xclab.polytope import (
    Polytope,
    hypercube_polytope,
    simplex_polytope,
    slack_matrix,
    verify_vertices,
)


def brute_matchings(n):
    """Oracle: scan all edge subsets for pairwise disjointness."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1 << len(edges)):
        chosen = [edges[k] for k in range(len(edges)) if (mask >> k) & 1]
        nodes = [v for pair in chosen for v in pair]
        if len(nodes) == len(set(nodes)):
            out.append(tuple(sorted(chosen)))
    return set(out)


def test_edge_indexing():
    e = EdgeIndexing(4)
    assert e.n_edges == 6
    assert e.pairs[0] == (0, 1) and e.pairs[-1] == (2, 3)
    assert e.index(3, 1) == e.index(1, 3)
    assert e.nodes(e.index(2, 0)) == (0, 2)
    assert e.cut([0]) == (0, 1, 2)
    assert e.interior([1, 2, 3]) == (3, 4, 5)
    with pytest.raises(InputError):
        e.index(1, 1)
    with pytest.raises(InputError):
        e.index(0, 9)


@pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
def test_perfect_matching_counts(n, count):
    pms = enumerate_perfect_matchings(n)
    assert len(pms) == count == double_factorial(n - 1)
    assert len(set(pms)) == count


@pytest.mark.parametrize("n", [4, 6])
def test_perfect_matchings_against_brute_force(n):
    expected = {m for m in brute_matchings(n) if len(m) == n // 2}
    assert set(enumerate_perfect_matchings(n)) == expected


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 10), (6, 76)])
def test_matching_counts(n, count):
    ms = enumerate_matchings(n)
    assert len(ms) == count
    assert len(set(ms)) == count
    assert () in ms


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matchings_against_brute_force(n):
    assert {tuple(sorted(m)) for m in enumerate_matchings(n)} == brute_matchings(n)


def test_enumeration_input_errors():
    with pytest.raises(InputError):
        enumerate_perfect_matchings(5)
    with pytest.raises(InputError):
        enumerate_perfect_matchings(0)
    with pytest.raises(InputError):
        enumerate_matchings(0)


def test_canonical_odd_sets_small():
    assert canonical_odd_sets(4) == ((1,), (2,), (3,), (1, 2, 3))
    sets6 = canonical_odd_sets(6)
    assert len(sets6) == 16  # 5 singletons, 10 triples, one 5-set
    assert all(0 not in u and len(u) % 2 == 1 for u in sets6)
    assert len(set(sets6)) == 16


def test_perfect_matching_polytope_shape():
    p = perfect_matching_polytope(6)
    assert p.dim == 15
    assert len(p.vertices) == 15
    assert p.eq_coefs.nrows == 6
    proper = [lab for lab in p.row_labels if odd_set_rows(lab)]
    degree_like = [lab for lab in p.row_labels if lab.startswith("oddset1:")]
    nonneg = [lab for lab in p.row_labels if lab.startswith("nonneg:")]
    assert len(proper) == 10
    assert len(degree_like) == 6
    assert len(nonneg) == 15
    assert p.n_ineqs == 31


@pytest.mark.parametrize("n,proper", [(6, 10), (8, 56), (10, 246)])
def test_proper_odd_row_counts(n, proper):
    sets = canonical_odd_sets(n)
    assert sum(1 for u in sets if 3 <= len(u) <= n - 3) == proper


def test_perfect_matching_polytope_slack_values():
    s = odd_set_slack(perfect_matching_polytope(6))
    assert s.nrows == 10 and s.ncols == 15
    for i in range(s.nrows):
        row = s.matrix.row(i)
        assert sorted(set(row)) == [0, 2]
        assert sum(1 for x in row if x == 0) == 9
        assert sum(1 for x in row if x == 2) == 6


def test_perfect_matching_vertices_are_extreme():
    assert verify_vertices(perfect_matching_polytope(4)) == (True, None)


def test_matching_polytope_shape():
    p = matching_polytope(4)
    # 4 degree rows, 4 triples, 6 nonneg rows
    assert p.dim == 6
    assert p.n_ineqs == 14
    assert len(p.vertices) == 10
    assert "m:" in p.vertex_labels  # the empty matching
    assert verify_vertices(p) == (True, None)


def test_matching_polytope_odd_rows_not_canonicalized():
    p = matching_polytope(5)
    labels = [lab for lab in p.row_labels if lab.startswith("oddset:")]
    # all ten triples and the full 5-set appear, complements included
    assert len(labels) == 11
    assert "oddset:0,1,2" in labels and "oddset:2,3,4" in labels


def test_truncated_relaxation_rows():
    full = matching_polytope(5)
    same = truncated_matching_relaxation(5, 5)
    assert same.row_labels == full.row_labels
    assert same.ineq_coefs == full.ineq_coefs
    smaller = truncated_matching_relaxation(5, 3)
    assert sum(1 for lab in smaller.row_labels if lab.startswith("oddset:")) == 10
    degree_only = truncated_matching_relaxation(5, 1)
    assert all(not lab.startswith("oddset:") for lab in degree_only.row_labels)


def test_truncated_relaxation_validation():
    with pytest.raises(InputError, match="odd"):
        truncated_matching_relaxation(5, 2)
    with pytest.raises(InputError):
        truncated_matching_relaxation(5, 7)
    with pytest.raises(InputError):
        truncated_matching_relaxation(1, 1)


def test_even_n_full_truncation_matches_polytope():
    full = matching_polytope(4)
    same = truncated_matching_relaxation(4, 3)
    assert same.row_labels == full.row_labels


def test_canonical_completion():
    # matching {0-1} of K_3 inside K_6: 2 pairs with its partner 5,
    # the leftover outside nodes 3, 4 pair up
    assert canonical_completion(3, [(0, 1)]) == ((0, 1), (2, 5), (3, 4))
    assert canonical_completion(3, []) == ((0, 3), (1, 4), (2, 5))
    assert canonical_completion(2, [(0, 1)]) == ((0, 1), (2, 3))


def test_face_embedding_small():
    emb = embed_matchings_as_face(3)
    assert emb.host.dim == 15
    assert len(emb.face.vertices) == 4  # one per matching of K_3
    assert len(emb.tight_rows) == 6  # 9 cross edges minus 3 designated
    for m, pm in emb.completions.items():
        assert emb.restrict(pm) == m
        nodes = sorted(v for pair in pm for v in pair)
        assert nodes == list(range(6))
    # every face vertex restricts to a distinct matching
    seen = set()
    for lab in emb.face.vertex_labels:
        pairs = tuple(
            tuple(int(x) for x in token.split("-"))
            for token in lab.split(":", 1)[1].split(",")
        )
        seen.add(emb.restrict(pairs))
    assert seen == set(emb.completions)


def test_face_embedding_slack_matches_matching_polytope_supports():
    # the face's odd-set slack columns, restricted to inner triples, agree
    # with the matching polytope slack of the restricted matchings
    # inner odd set {0,1,2} corresponds to the host cut at {0,1,2}, whose
    # canonical (0-free) representative is the complement {3,4,5}
    emb = embed_matchings_as_face(3)
    inner = matching_polytope(3)
    s_face = slack_matrix(emb.face, lambda lab: lab == "oddset:3,4,5")
    s_inner = slack_matrix(inner, lambda lab: lab == "oddset:0,1,2")
    by_matching = {}
    for j, lab in enumerate(emb.face.vertex_labels):
        pairs = tuple(
            tuple(int(x) for x in token.split("-"))
            for token in lab.split(":", 1)[1].split(",")
        )
        by_matching[emb.restrict(pairs)] = s_face.matrix.entry(0, j)
    for j, lab in enumerate(inner.vertex_labels):
        key = ()
        if lab != "m:":
            key = tuple(
                tuple(int(x) for x in token.split("-"))
                for token in lab.split(":", 1)[1].split(",")
            )
        # inner slack counts interior capacity, face slack counts cut excess
        face_slack = by_matching[key]
        inner_slack = s_inner.matrix.entry(0, j)
        assert face_slack == 2 * inner_slack


def test_approximation_ratio_exact_on_itself():
    p = matching_polytope(4)
    report = approximation_ratio(p, p, 6, 11)
    assert report.ratio == 1


def test_approximation_ratio_triangle():
    k = truncated_matching_relaxation(3, 1)
    p = matching_polytope(3)
    report = approximation_ratio(k, p, 10, 3, extra_objectives=[(1, 1, 1)])
    # the all-ones objective realizes the worst case: 3/2 via x = (1/2, 1/2, 1/2)
    assert report.ratio == Fraction(3, 2)
    assert report.worst_objective == (1, 1, 1)


def test_approximation_ratio_deterministic():
    k = truncated_matching_relaxation(4, 1)
    p = matching_polytope(4)
    a = approximation_ratio(k, p, 5, 42)
    b = approximation_ratio(k, p, 5, 42)
    assert a == b
    assert 1 <= a.ratio <= Fraction(3, 2)


def test_approximation_ratio_rejects_non_relaxation():
    with pytest.raises(InputError, match="violates"):
        approximation_ratio(simplex_polytope(2), hypercube_polytope(2), 1, 0)
    with pytest.raises(InputError, match="dimensions"):
        approximation_ratio(simplex_polytope(3), hypercube_polytope(2), 1, 0)


def test_approximation_ratio_names_the_first_unbounded_objective():
    # x >= 0, x1 <= 1 holds the 2-simplex and is unbounded exactly when c2 > 0
    relax = Polytope.build([[-1, 0], [0, -1], [1, 0]], [0, 0, 1], [(0, 0), (1, 0)])
    extra = [(1, 0), (0, 1), (2, 3)]
    with pytest.raises(InputError, match=r"relaxation is unbounded for objective \(0, 1\)"):
        approximation_ratio(relax, simplex_polytope(2), 0, 0, extra_objectives=extra)
    report = approximation_ratio(relax, simplex_polytope(2), 0, 0, extra_objectives=extra[:1])
    assert report.ratio == 1


def test_approximation_ratio_rejects_bad_extra():
    p = matching_polytope(3)
    with pytest.raises(InputError, match="nonnegative"):
        approximation_ratio(p, p, 1, 0, extra_objectives=[(-1, 0, 0)])
