"""Complete-graph matchings and their polytopes.

Generators for the perfect matching polytope (degree equalities plus odd-cut
inequalities), the matching polytope (degree bounds plus interior odd-set
inequalities), truncated relaxations that keep odd sets only up to a size
threshold, and the face embedding that realizes the matching polytope of
K_n inside the perfect matching polytope of K_{2n}.

Odd cuts satisfy delta(U) = delta(V \\ U), so the perfect-matching generator
emits one representative per complementary pair: the one that does not
contain node 0.  Cuts delta(U) with |U| = 1 or |U| = n - 1 are degree cuts
in disguise; they get their own label prefix so slack-matrix callers can
filter them out (the default odd-set filter does).

This module owns the crossing model: `EdgeIndexing` holds a cut's edges and
a matching's edges as int bitmasks over its edge order, and the canonical
two-edge rectangles (and their cover of the odd-set slack support) are read
from those masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError
# Nothing here calls `lp_solve`; it stays a name of this module because
# perfbench's span table wraps `xclab.matchgen.lp_solve`.
from .exactla import ExactMatrix, lp_solve, lp_solve_all, rat  # noqa: F401
from .polytope import Polytope, Rectangle, SlackMatrix, face, slack_matrix


class EdgeIndexing:
    """Lexicographic indexing of the edges of the complete graph K_n."""

    def __init__(self, n: int):
        if n < 1:
            raise InputError("need at least one node")
        self.n = n
        self.pairs: tuple[tuple[int, int], ...] = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n)
        )
        self._index = {pair: k for k, pair in enumerate(self.pairs)}

    @property
    def n_edges(self) -> int:
        return len(self.pairs)

    def index(self, i: int, j: int) -> int:
        if i == j:
            raise InputError(f"self-loop ({i}, {j}) is not an edge")
        key = (i, j) if i < j else (j, i)
        try:
            return self._index[key]
        except KeyError:
            raise InputError(f"edge ({i}, {j}) out of range for n={self.n}") from None

    def nodes(self, k: int) -> tuple[int, int]:
        return self.pairs[k]

    def cut(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Edge indices with exactly one endpoint in the node set."""
        s = set(nodes)
        return tuple(
            k for k, (i, j) in enumerate(self.pairs) if (i in s) != (j in s)
        )

    def cut_mask(self, nodes: Iterable[int]) -> int:
        """The edges of `cut(nodes)` as one int: bit k set for edge k."""
        return sum(1 << k for k in self.cut(nodes))

    def matching_mask(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The edges of a matching, given as distinct node pairs, as one
        int: bit `index(i, j)` set for each pair (i, j)."""
        return sum(1 << self.index(i, j) for i, j in pairs)

    def interior(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Edge indices with both endpoints in the node set."""
        s = set(nodes)
        return tuple(k for k, (i, j) in enumerate(self.pairs) if i in s and j in s)


def enumerate_perfect_matchings(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of K_n as sorted node-pair tuples.

    Deterministic order: always match the lowest uncovered node, partners
    ascending.  Count is the double factorial (n-1)!!.
    """
    if n < 2 or n % 2:
        raise InputError(f"perfect matchings need an even n >= 2, got {n}")
    out: list[tuple[tuple[int, int], ...]] = []

    def grow(free: list[int], acc: list[tuple[int, int]]):
        if not free:
            out.append(tuple(acc))
            return
        u = free[0]
        for idx in range(1, len(free)):
            w = free[idx]
            acc.append((u, w))
            grow(free[1:idx] + free[idx + 1 :], acc)
            acc.pop()

    grow(list(range(n)), [])
    return tuple(out)


def enumerate_matchings(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All matchings of K_n (the empty one included) as node-pair tuples."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    out: list[tuple[tuple[int, int], ...]] = []

    def grow(u: int, free: set[int], acc: list[tuple[int, int]]):
        if u >= n:
            out.append(tuple(acc))
            return
        if u not in free:
            grow(u + 1, free, acc)
            return
        grow(u + 1, free, acc)  # leave u uncovered
        for w in range(u + 1, n):
            if w in free:
                acc.append((u, w))
                free.discard(u)
                free.discard(w)
                grow(u + 1, free, acc)
                free.add(u)
                free.add(w)
                acc.pop()

    grow(0, set(range(n)), [])
    return tuple(out)


def double_factorial(n: int) -> int:
    """(n)!! with the empty product equal to 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _matching_label(prefix: str, pairs: Sequence[tuple[int, int]]) -> str:
    return prefix + ",".join(f"{i}-{j}" for i, j in pairs)


def _edge_row(edges: EdgeIndexing, ks: Iterable[int], value: Fraction) -> list[Fraction]:
    """A vector over the edges: `value` at the indices ks, zero elsewhere."""
    row = [Fraction(0)] * edges.n_edges
    for k in ks:
        row[k] = value
    return row


def _matching_vector(edges: EdgeIndexing, pairs: Sequence[tuple[int, int]]):
    return tuple(_edge_row(edges, (edges.index(i, j) for i, j in pairs), Fraction(1)))


def canonical_odd_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """One representative per complementary pair of odd cuts of K_n (n even):
    all odd-size subsets of {1, ..., n-1}, sorted by size then entries."""
    sets: list[tuple[int, ...]] = []
    for size in range(1, n, 2):
        sets.extend(combinations(range(1, n), size))
    sets.sort(key=lambda u: (len(u), u))
    return tuple(sets)


def perfect_matching_polytope(n: int) -> Polytope:
    """Perfect matching polytope of K_n: degree equalities, odd-cut
    inequalities (canonicalized), and edge nonnegativity.

    Row labels: `oddset:a,b,c` for proper odd cuts, `oddset1:v` for cuts
    that equal a degree cut delta(v), `nonneg:i-j` for edge bounds.
    """
    if n < 4 or n % 2:
        raise InputError(f"perfect matching polytope needs an even n >= 4, got {n}")
    edges = EdgeIndexing(n)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    for u in canonical_odd_sets(n):
        rows.append(_edge_row(edges, edges.cut(u), Fraction(-1)))
        rhs.append(Fraction(-1))
        if len(u) == 1:
            labels.append(f"oddset1:{u[0]}")
        elif len(u) == n - 1:
            labels.append("oddset1:0")
        else:
            labels.append("oddset:" + ",".join(map(str, u)))
    for k, (i, j) in enumerate(edges.pairs):
        rows.append(_edge_row(edges, (k,), Fraction(-1)))
        rhs.append(Fraction(0))
        labels.append(f"nonneg:{i}-{j}")

    eq_rows = [_edge_row(edges, edges.cut([v]), Fraction(1)) for v in range(n)]
    eq_labels = [f"degree:{v}" for v in range(n)]

    pms = enumerate_perfect_matchings(n)
    verts = [_matching_vector(edges, m) for m in pms]
    vlabels = [_matching_label("pm:", m) for m in pms]
    return Polytope.build(
        rows,
        rhs,
        verts,
        eq_coefs=eq_rows,
        eq_rhs=[Fraction(1)] * n,
        row_labels=labels,
        eq_labels=eq_labels,
        vertex_labels=vlabels,
    )


def _matching_relaxation(n: int, max_odd: int) -> Polytope:
    """Degree bounds, interior odd sets of size 3..max_odd, nonnegativity;
    the integral matchings as the listed vertices."""
    edges = EdgeIndexing(n)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    for v in range(n):
        rows.append(_edge_row(edges, edges.cut([v]), Fraction(1)))
        rhs.append(Fraction(1))
        labels.append(f"degree:{v}")
    for size in range(3, max_odd + 1, 2):
        for u in combinations(range(n), size):
            rows.append(_edge_row(edges, edges.interior(u), Fraction(1)))
            rhs.append(Fraction((size - 1) // 2))
            labels.append("oddset:" + ",".join(map(str, u)))
    for k, (i, j) in enumerate(edges.pairs):
        rows.append(_edge_row(edges, (k,), Fraction(-1)))
        rhs.append(Fraction(0))
        labels.append(f"nonneg:{i}-{j}")
    matchings = enumerate_matchings(n)
    verts = [_matching_vector(edges, m) for m in matchings]
    vlabels = [_matching_label("m:", m) for m in matchings]
    return Polytope.build(rows, rhs, verts, row_labels=labels, vertex_labels=vlabels)


def matching_polytope(n: int) -> Polytope:
    """Matching polytope of K_n: degree bounds, interior odd-set
    inequalities x(E(U)) <= (|U|-1)/2, edge nonnegativity."""
    if n < 2:
        raise InputError(f"matching polytope needs n >= 2, got {n}")
    return _matching_relaxation(n, n if n % 2 else n - 1)


def truncated_matching_relaxation(n: int, s: int) -> Polytope:
    """Matching relaxation keeping odd-set rows only for 3 <= |U| <= s.

    The listed vertices are the integral matchings; for s below the full
    odd range the relaxation owns additional fractional vertices that are
    deliberately not enumerated.  Use the H-description for optimization.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if s % 2 == 0:
        raise InputError(f"odd-set threshold s must be odd, got {s}")
    if not 1 <= s <= n:
        raise InputError(f"s must lie in [1, {n}], got {s}")
    return _matching_relaxation(n, s)


def odd_set_rows(label: str) -> bool:
    """Default slack-matrix filter: proper odd cuts only."""
    return label.startswith("oddset:")


def odd_set_slack(poly: Polytope):
    return slack_matrix(poly, odd_set_rows)


def two_edge_rectangle(
    cut_masks: Sequence[int], matching_masks: Sequence[int], k1: int, k2: int
) -> Rectangle:
    """The canonical rectangle of edges k1 and k2: the rows whose cut mask
    holds both edges, times the columns whose matching mask holds both."""
    want = (1 << k1) | (1 << k2)
    return Rectangle(
        frozenset(i for i, mask in enumerate(cut_masks) if mask & want == want),
        frozenset(j for j, mask in enumerate(matching_masks) if mask & want == want),
    )


@dataclass(frozen=True)
class MatchingCover:
    """One rectangle per unordered pair of disjoint edges: rows are the
    proper odd cuts crossed by both edges, columns the perfect matchings
    containing both."""

    n: int
    slack: SlackMatrix
    rectangles: tuple[Rectangle, ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def canonical_matching_cover(n: int) -> MatchingCover:
    """The canonical two-edge cover of the odd-set slack support of the
    perfect matching polytope of K_n."""
    if n < 6 or n % 2:
        raise InputError(f"need an even n >= 6, got {n}")
    slack = odd_set_slack(perfect_matching_polytope(n))
    edges = EdgeIndexing(n)
    proper = [u for u in canonical_odd_sets(n) if 3 <= len(u) <= n - 3]
    if len(proper) != slack.nrows:
        raise AssertionError(f"{len(proper)} proper odd sets, {slack.nrows} slack rows")
    cut_masks = [edges.cut_mask(u) for u in proper]
    pm_masks = [edges.matching_mask(m) for m in enumerate_perfect_matchings(n)]
    rectangles = []
    pairs = []
    for k1, k2 in combinations(range(edges.n_edges), 2):
        e1, e2 = edges.pairs[k1], edges.pairs[k2]
        if set(e1) & set(e2):
            continue
        rectangles.append(two_edge_rectangle(cut_masks, pm_masks, k1, k2))
        pairs.append((e1, e2))
    return MatchingCover(n, slack, tuple(rectangles), tuple(pairs))


@dataclass(frozen=True)
class FaceEmbedding:
    """The matching polytope of K_n realized on a face of the perfect
    matching polytope of K_{2n}.

    Inner nodes are 0..n-1; the designated outside partner of inner node u
    is u + n.  A matching M of K_n completes canonically to a perfect
    matching of K_{2n}: uncovered inner nodes pair with their designated
    partners, the remaining outside nodes pair consecutively in index
    order.  The face forbids every inner-outside edge except the designated
    ones."""

    n: int
    host: Polytope
    face: Polytope
    tight_rows: tuple[int, ...]
    completions: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

    def restrict(self, pm_pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        """Keep only the edges inside the inner node set."""
        return tuple(sorted((i, j) for i, j in pm_pairs if i < self.n and j < self.n))


def canonical_completion(n: int, matching: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    covered = {v for pair in matching for v in pair}
    pm = [tuple(sorted(p)) for p in matching]
    uncovered = [u for u in range(n) if u not in covered]
    for u in uncovered:
        pm.append((u, u + n))
    rest = sorted(v + n for v in range(n) if v in covered)
    for a, b in zip(rest[0::2], rest[1::2]):
        pm.append((a, b))
    return tuple(sorted(pm))


def embed_matchings_as_face(n: int) -> FaceEmbedding:
    if n < 2:
        raise InputError(f"face embedding needs n >= 2, got {n}")
    host = perfect_matching_polytope(2 * n)
    forbidden: list[int] = []
    for idx, lab in enumerate(host.row_labels):
        if not lab.startswith("nonneg:"):
            continue
        i, j = (int(x) for x in lab.split(":", 1)[1].split("-"))
        if i < n <= j and j != i + n:
            forbidden.append(idx)
    sub = face(host, forbidden)
    completions = {
        tuple(sorted(m)): canonical_completion(n, m) for m in enumerate_matchings(n)
    }
    return FaceEmbedding(n, host, sub, tuple(forbidden), completions)


@dataclass(frozen=True)
class RatioReport:
    ratio: Fraction
    worst_objective: tuple[int, ...]
    trials: int


def approximation_ratio(
    relaxation: Polytope,
    poly: Polytope,
    trials: int,
    seed: int,
    extra_objectives: Sequence[Sequence[int]] = (),
) -> RatioReport:
    """Worst observed max-over-relaxation / max-over-polytope ratio on
    seeded nonnegative integer objectives.

    The polytope side is evaluated on its vertex list (exact), the
    relaxation side by exact LPs over its H-description, one phase one for
    all objectives (`lp_solve_all`).  Errors if some
    vertex of the polytope violates the relaxation: containment is the
    point of a relaxation."""
    if relaxation.dim != poly.dim:
        raise InputError("relaxation and polytope dimensions differ")
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    bad = relaxation.first_violation(poly.vertices)
    if bad is not None:
        j = bad[0]
        raise InputError(f"vertex {j} ({poly.vertex_labels[j]}) violates the relaxation")
    rng = random.Random(seed)
    objectives: list[tuple[int, ...]] = [tuple(int(x) for x in c) for c in extra_objectives]
    for c in objectives:
        if len(c) != poly.dim or any(x < 0 for x in c):
            raise InputError("extra objectives must be nonnegative and full width")
    objectives += [
        tuple(rng.randint(0, 1000) for _ in range(poly.dim)) for _ in range(trials)
    ]
    over_k = lp_solve_all(*relaxation.lp_system(), [list(c) for c in objectives], sense="max")
    best = Fraction(1)
    worst = objectives[0] if objectives else ()
    for c, res in zip(objectives, over_k):
        over_p = max(
            sum(rat(a) * x for a, x in zip(c, v) if a) for v in poly.vertices
        )
        if res.status != "optimal":
            raise InputError(f"relaxation is {res.status} for objective {c}")
        if over_p == 0:
            if res.value > 0:
                raise InputError(
                    f"polytope optimum is 0 but relaxation reaches "
                    f"{res.value} on objective {c}"
                )
            continue
        ratio = res.value / over_p
        if ratio > best:
            best = ratio
            worst = c
    return RatioReport(best, worst, len(objectives))
