"""Acceptance suite: eleven timed end-to-end checks over the whole package.

Each test covers one criterion, re-deriving its expectations from
independent paths (closed forms vs enumeration, counting vs
materialization, certificates re-verified from witnesses).  Every test
asserts its own wall-clock budget and prints one summary line.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import pytest

from xclab.bounds import (
    hyperplane_bound,
    max_rectangle_value,
    nmf_heuristic,
    nonnegative_rank_bounds,
)
from xclab.exactla import ExactMatrix, rank
from xclab.matchgen import (
    EdgeIndexing,
    approximation_ratio,
    canonical_completion,
    canonical_matching_cover,
    embed_matchings_as_face,
    enumerate_matchings,
    enumerate_perfect_matchings,
    matching_polytope,
    perfect_matching_polytope,
    truncated_matching_relaxation,
)
from xclab.polytope import (
    cross_polytope,
    hypercube_polytope,
    lp_equal_under_projection,
    simplex_polytope,
    slack_matrix,
)
from xclab.sepmeasure import (
    CutMatchingGround,
    MatchingCutInstance,
    WeightMatrix,
    biased_indices,
    canonical_rectangle,
    mu,
    q_class_size,
    rectangle_w_value,
    weight_matrix,
    ws_inner_product,
    ws_inner_product_materialized,
)
from xclab.yannakakis import (
    Factorization,
    extension_from_factorization,
    factorization_from_extension,
    slack_variable_factorization,
    verify_factorization,
)


@contextmanager
def criterion(name: str, limit: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, over the {limit}s budget"
    print(f"{name}: pass in {elapsed:.2f}s (budget {limit}s)")


def test_ac01_inner_product_both_paths():
    with criterion("AC1 weight-slack inner product", 30):
        counting = ws_inner_product(10, 5, 5)
        assert counting == 1
        ground = CutMatchingGround.build(10, 5)
        assert (ground.n_cuts, ground.n_matchings) == (252, 945)
        materialized = ws_inner_product_materialized(ground, 5)
        assert materialized == 1
        assert counting == materialized

        inst = MatchingCutInstance(1, 5)
        assert (inst.n, inst.t) == (16, 5)
        assert ws_inner_product(inst.n, inst.t, inst.k) == 1


def test_ac02_parity_suite():
    with criterion("AC2 parity of classes and slacks", 10):
        for n in (6, 8, 10):
            for t in range(1, n, 2):
                for ell in range(0, n + 1, 2):
                    assert q_class_size(n, t, ell) == 0
            poly = perfect_matching_polytope(n)
            s = slack_matrix(poly, row_filter=lambda lab: lab.startswith("oddset"))
            for i in range(s.nrows):
                for x in s.row(i):
                    assert x.denominator == 1
                    assert x.numerator % 2 == 0


def test_ac03_canonical_cover_counts():
    with criterion("AC3 canonical cover multiplicities", 60):
        for n in (6, 8):
            cover = canonical_matching_cover(n)
            s = cover.slack
            counts = [[0] * s.ncols for _ in range(s.nrows)]
            for rect in cover.rectangles:
                for i in rect.rows:
                    row = counts[i]
                    for j in rect.cols:
                        row[j] += 1
            for i in range(s.nrows):
                for j in range(s.ncols):
                    slack = s.entry(i, j)
                    assert slack.denominator == 1
                    expected = math.comb(int(slack) + 1, 2)
                    assert counts[i][j] == expected
                    if slack > 0:
                        assert counts[i][j] > 0
                    else:
                        assert counts[i][j] == 0


def test_ac04_yannakakis_round_trip():
    with criterion("AC4 factorization-extension round trip", 60):
        suite = [
            simplex_polytope(2),
            hypercube_polytope(3),
            perfect_matching_polytope(4),
            matching_polytope(3),
        ]
        for poly in suite:
            s = slack_matrix(poly)
            heuristic = nmf_heuristic(s, min(s.nrows, s.ncols))
            assert heuristic is not None
            assert verify_factorization(s, heuristic)
            for fac in (slack_variable_factorization(s), heuristic):
                system = extension_from_factorization(poly, fac)
                report = lp_equal_under_projection(poly, system, trials=50, seed=11)
                assert report.passed, report
                back = factorization_from_extension(poly, system)
                assert back.product() == s
                for i in range(s.nrows):
                    a = poly.ineqs[0][i]
                    b = poly.ineqs[1][i]
                    u = back.left.row(i)
                    for j, x in enumerate(poly.vertices):
                        cell = sum(
                            u[k] * back.right.entry(k, j) for k in range(back.r)
                        )
                        assert cell == b - sum(ak * xk for ak, xk in zip(a, x))


def naive_alpha(w: WeightMatrix) -> Fraction:
    best = Fraction(0)
    for rmask in range(1 << w.nrows):
        rows = [i for i in range(w.nrows) if rmask >> i & 1]
        for cmask in range(1 << w.ncols):
            cols = [j for j in range(w.ncols) if cmask >> j & 1]
            value = Fraction(sum(w.entry(i, j) for i in rows for j in cols))
            if value > best:
                best = value
    return best


def test_ac05_separation_bound_soundness():
    with criterion("AC5 hyperplane bound below inner dimension", 120):
        rng = random.Random(20250816)
        pool = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)]
        pool += [Fraction(1, 2), Fraction(-3, 2)]
        naive_checked = 0
        for _ in range(200):
            f = rng.randint(1, 6)
            v = rng.randint(1, 6)
            r = rng.randint(1, 4)
            while True:
                left = ExactMatrix(
                    [[Fraction(rng.randint(0, 3)) for _ in range(r)] for _ in range(f)]
                )
                right = ExactMatrix(
                    [[Fraction(rng.randint(0, 3)) for _ in range(v)] for _ in range(r)]
                )
                s = left @ right
                if any(x != 0 for row in s.rows() for x in row):
                    break
            fac = Factorization(left, right)
            assert verify_factorization(s, fac)
            w = WeightMatrix.from_rows(
                [[rng.choice(pool) for _ in range(v)] for _ in range(f)]
            )
            bound, alpha = hyperplane_bound(w, s)
            assert alpha.certified
            assert bound <= fac.r
            if f <= 4 and v <= 4:
                assert alpha.value == naive_alpha(w)
                naive_checked += 1
        assert naive_checked >= 40

        for entries in product((-1, 0, 1), repeat=4):
            w = WeightMatrix.from_rows([entries[:2], entries[2:]])
            assert max_rectangle_value(w).value == naive_alpha(w)


def check_fooling(m: ExactMatrix, cells) -> None:
    for i, j in cells:
        assert m.entry(i, j) != 0
    for a in range(len(cells)):
        i1, j1 = cells[a]
        for b in range(a + 1, len(cells)):
            i2, j2 = cells[b]
            assert m.entry(i1, j2) == 0 or m.entry(i2, j1) == 0


def check_cover(m: ExactMatrix, rectangles) -> None:
    support = {
        (i, j)
        for i in range(m.nrows)
        for j in range(m.ncols)
        if m.entry(i, j) != 0
    }
    covered = set()
    for rect in rectangles:
        for cell in rect.cells():
            assert cell in support
            covered.add(cell)
    assert covered == support


def is_permuted_identity(m: ExactMatrix) -> bool:
    if m.nrows != m.ncols:
        return False
    return all(
        sum(1 for x in m.row(i) if x != 0) == 1 for i in range(m.nrows)
    ) and all(sum(1 for x in m.column(j) if x != 0) == 1 for j in range(m.ncols))


def test_ac06_bound_sandwich():
    with criterion("AC6 certified bound sandwich", 120):
        suite = [simplex_polytope(d) for d in range(1, 6)]
        suite += [
            hypercube_polytope(3),
            cross_polytope(3),
            hypercube_polytope(2),
            perfect_matching_polytope(4),
            perfect_matching_polytope(6),
            matching_polytope(4),
        ]
        expected = [(d + 1, d + 1) for d in range(1, 6)]
        expected += [(6, 6), (6, 6), (4, 4), (3, 3), (14, 15), (10, 10)]
        for poly, frozen in zip(suite, expected):
            s = slack_matrix(poly)
            report = nonnegative_rank_bounds(s)
            assert report.lower <= report.upper
            for cert in report.certificates:
                if cert.method == "rank":
                    assert cert.value == rank(s)
                elif cert.method == "fooling":
                    check_fooling(s, cert.witness)
                    assert cert.value == len(cert.witness)
                elif cert.method == "cover":
                    check_cover(s, cert.witness)
                    assert cert.value == len(cert.witness)
            if report.upper_witness is not None:
                assert verify_factorization(s, report.upper_witness)
                assert report.upper_witness.r == report.upper
            if is_permuted_identity(s):
                assert report.lower == report.upper == s.nrows
            assert (report.lower, report.upper) == frozen


def test_ac07_face_embedding():
    with criterion("AC7 matchings as a perfect-matching face", 30):
        for n in (2, 3, 4):
            emb = embed_matchings_as_face(n)
            inner = set(enumerate_matchings(n))
            host_pms = enumerate_perfect_matchings(2 * n)
            assert {emb.restrict(pm) for pm in host_pms} == inner

            edges = EdgeIndexing(2 * n)
            face_vertices = set(emb.face.vertices)
            completions = set()
            for m in sorted(inner):
                comp = canonical_completion(n, m)
                assert emb.completions[m] == comp
                assert emb.restrict(comp) == m
                completions.add(comp)
                vec = [Fraction(0)] * edges.n_edges
                for a, b in comp:
                    vec[edges.index(a, b)] = Fraction(1)
                assert tuple(vec) in face_vertices
            # restrict is a bijection between completions and matchings
            assert len(completions) == len(inner)


def test_ac08_canonical_rectangle_measures():
    with criterion("AC8 canonical rectangles under W", 60):
        ground = CutMatchingGround.build(10, 5)
        w = weight_matrix(ground, 5)
        all_edges = list(combinations(range(10), 2))
        checked = 0
        for e1, e2 in combinations(all_edges, 2):
            if set(e1) & set(e2):
                continue
            rect = canonical_rectangle(ground, e1, e2)
            assert mu(ground, rect, 1) == 0
            report = rectangle_w_value(ground, rect, 5)
            assert report.finite
            assert report.q1_hits == 0
            assert w.rectangle_sum(rect.rows, rect.cols) == report.value
            checked += 1
        assert checked == 630


def test_ac09_approximation_ratios():
    with criterion("AC9 truncation approximation ratios", 30):
        for n in (2, 3, 4, 5, 6):
            full = n if n % 2 else n - 1
            relax = truncated_matching_relaxation(n, full)
            poly = matching_polytope(n)
            report = approximation_ratio(relax, poly, trials=50, seed=97)
            assert report.ratio == 1

        k3 = approximation_ratio(
            truncated_matching_relaxation(3, 1),
            matching_polytope(3),
            trials=50,
            seed=97,
            extra_objectives=((1, 1, 1),),
        )
        assert k3.ratio == Fraction(3, 2)
        assert k3.worst_objective == (1, 1, 1)


def test_ac10_bias_checker():
    with criterion("AC10 marginal bias checker", 30):
        half = Fraction(1, 2)
        doms4 = [(0, 1)] * 4
        assert biased_indices(list(product((0, 1), repeat=4)), doms4, half) == ()

        doms16 = [(0, 1)] * 16
        full16 = list(product((0, 1), repeat=16))
        assert biased_indices(full16, doms16, half) == ()

        fixed = (2, 7, 11)
        free = [i for i in range(16) if i not in fixed]
        family = []
        for bits in product((0, 1), repeat=len(free)):
            row = [1] * 16
            for i, b in zip(free, bits):
                row[i] = b
            family.append(tuple(row))
        assert biased_indices(family, doms16, half) == fixed

        rng = random.Random(424242)
        for _ in range(50):
            seen = set()
            while len(seen) < 4096:
                seen.add(rng.getrandbits(16))
            y = [tuple((v >> i) & 1 for i in range(16)) for v in sorted(seen)]
            flagged = biased_indices(y, doms16, half)
            assert len(flagged) <= 8


def test_ac11_cube4_bound_interval():
    with criterion("AC11 certified interval for the 4-cube", 30):
        s = slack_matrix(hypercube_polytope(4))
        report = nonnegative_rank_bounds(s)
        assert report.lower <= report.upper <= min(s.nrows, s.ncols)
        for cert in report.certificates:
            if cert.method == "rank":
                assert cert.value == rank(s)
            elif cert.method == "fooling":
                check_fooling(s, cert.witness)
                assert cert.value == len(cert.witness)
            elif cert.method == "cover":
                check_cover(s, cert.witness)
                assert cert.value == len(cert.witness)
            assert cert.value <= report.lower
        if report.upper_witness is not None:
            assert verify_factorization(s, report.upper_witness)
            assert report.upper_witness.r == report.upper
