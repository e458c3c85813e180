"""Cut-versus-matching measures behind the separation lower bound.

The ground universe pairs every t-subset of nodes (a cut) with every
perfect matching of the complete n-node graph.  Q_ell collects the pairs
whose cut crosses exactly ell matching edges; its size has a closed form,
and the uniform measures mu_ell on the classes drive the weight matrix
whose inner product with the slack grid is exactly 1.

Counting mode works from the closed form alone and scales to instances far
beyond materialization; grounds small enough to enumerate are materialized
(optionally cached on disk, see XCLAB_CACHE_DIR) and serve as an
independent cross-check path.  Cuts here are deliberately NOT
complement-canonicalized: the universe is all t-subsets, so each canonical
polytope row corresponds to two ground rows when t = n - t.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .bounds import FORBIDDEN, WeightMatrix
from .errors import InputError
from .exactla import ExactMatrix, rat
from .matchgen import double_factorial, enumerate_perfect_matchings
from .polytope import Rectangle, write_atomic

MATERIALIZE_CAP = 1_000_000


def perfect_matching_count(n: int) -> int:
    """(n-1)!! perfect matchings of the complete graph on n nodes."""
    if n < 0 or n % 2:
        return 0
    return double_factorial(n - 1)


def _validate_ground_params(n: int, t: int) -> None:
    if n < 2 or n % 2:
        raise InputError(f"need an even node count n >= 2, got {n}")
    if t % 2 == 0:
        raise InputError(f"cut size t must be odd, got {t}")
    if not 1 <= t <= n - 1:
        raise InputError(f"cut size t must lie in [1, {n - 1}], got {t}")


def q_class_size(n: int, t: int, ell: int) -> int:
    """|Q_ell|: pairs (t-cut, perfect matching) with exactly ell crossing
    edges, by closed-form counting.  Even ell gives 0 by parity."""
    _validate_ground_params(n, t)
    if ell < 0:
        raise InputError(f"class index must be nonnegative, got {ell}")
    if ell % 2 == 0:
        return 0
    return (
        math.comb(n, t)
        * math.comb(t, ell)
        * math.comb(n - t, ell)
        * math.factorial(ell)
        * perfect_matching_count(t - ell)
        * perfect_matching_count(n - t - ell)
    )


def q_class_total(n: int, t: int) -> int:
    _validate_ground_params(n, t)
    return math.comb(n, t) * perfect_matching_count(n)


@dataclass(frozen=True)
class MatchingCutInstance:
    """Parameter scheme tying the block count m and odd parameter k to the
    node count n = 3m(k-3) + 2k and cut size t = (m+1)/2 (k-3) + 3."""

    m: int
    k: int
    n: int
    t: int

    def __post_init__(self):
        if self.k < 5 or self.k % 2 == 0:
            raise InputError(f"k must be odd and >= 5, got {self.k}")
        if self.m < 1 or self.m % 2 == 0:
            raise InputError(f"m must be odd and >= 1, got {self.m}")
        if self.n != 3 * self.m * (self.k - 3) + 2 * self.k:
            raise InputError(
                f"n = {self.n} does not match 3m(k-3) + 2k = "
                f"{3 * self.m * (self.k - 3) + 2 * self.k}"
            )
        if self.t != (self.m + 1) // 2 * (self.k - 3) + 3:
            raise InputError(
                f"t = {self.t} does not match (m+1)/2 (k-3) + 3 = "
                f"{(self.m + 1) // 2 * (self.k - 3) + 3}"
            )

    @classmethod
    def from_mk(cls, m: int, k: int) -> "MatchingCutInstance":
        n = 3 * m * (k - 3) + 2 * k
        t = (m + 1) // 2 * (k - 3) + 3
        return cls(m, k, n, t)


class CutMatchingGround:
    """Materialized universe: all t-cuts against all perfect matchings,
    with the crossing count of every pair precomputed."""

    __slots__ = ("n", "t", "cuts", "matchings", "_table", "_class_counts")

    def __init__(self, n, t, cuts, matchings, table):
        self.n = n
        self.t = t
        self.cuts = cuts
        self.matchings = matchings
        self._table = table
        self._class_counts = None

    @classmethod
    def build(cls, n: int, t: int, cap: int = MATERIALIZE_CAP) -> "CutMatchingGround":
        _validate_ground_params(n, t)
        size = q_class_total(n, t)
        if size > cap:
            raise InputError(
                f"ground has {size} pairs, over the materialization cap {cap}; "
                "use the counting-mode operations"
            )
        cuts = tuple(combinations(range(n), t))
        matchings = enumerate_perfect_matchings(n)
        cached = _load_cached_table(n, t, len(cuts), len(matchings))
        if cached is not None:
            return cls(n, t, cuts, matchings, cached)
        table = []
        for cut in cuts:
            mask = 0
            for v in cut:
                mask |= 1 << v
            row = bytearray(len(matchings))
            for j, pm in enumerate(matchings):
                ell = 0
                for a, b in pm:
                    ell += ((mask >> a) ^ (mask >> b)) & 1
                row[j] = ell
            table.append(bytes(row))
        table = tuple(table)
        _store_cached_table(n, t, table)
        return cls(n, t, cuts, matchings, table)

    @property
    def n_cuts(self) -> int:
        return len(self.cuts)

    @property
    def n_matchings(self) -> int:
        return len(self.matchings)

    def ell(self, i: int, j: int) -> int:
        return self._table[i][j]

    def class_counts(self) -> dict[int, int]:
        """Pair count per crossing number, tallied from the table."""
        if self._class_counts is None:
            counts: dict[int, int] = {}
            for row in self._table:
                for ell in row:
                    counts[ell] = counts.get(ell, 0) + 1
            self._class_counts = counts
        return dict(self._class_counts)

    def slack_grid(self) -> ExactMatrix:
        """Slack of each pair: crossing count minus one."""
        values = {ell: Fraction(ell - 1) for ell in range(self.t + 1)}
        return ExactMatrix(
            [[values[ell] for ell in row] for row in self._table]
        )


def _cache_path(n: int, t: int) -> str | None:
    root = os.environ.get("XCLAB_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, f"ground-n{n}-t{t}.txt")


def _cache_header(n, t, n_cuts, n_matchings) -> str:
    """First line of a cache file: format name and version, then the shape.
    A file whose header differs in any field, the version included, is
    rebuilt."""
    return f"xclab-ground 1 {n} {t} {n_cuts} {n_matchings}"


def _load_cached_table(n, t, n_cuts, n_matchings):
    """The cached table, or None when it is absent or fails validation.

    Per odd class ell <= t, the entry count must equal the closed-form
    q_class_size.  Those sizes sum to the table's cell count, so a table
    that passes also holds no even entry and none above t."""
    path = _cache_path(n, t)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().split() != _cache_header(n, t, n_cuts, n_matchings).split():
                return None
            table = []
            for _ in range(n_cuts):
                row = bytes(int(x) for x in fh.readline().split())
                if len(row) != n_matchings:
                    return None
                table.append(row)
    except (OSError, ValueError):
        return None
    for ell in range(1, t + 1, 2):
        if sum(row.count(ell) for row in table) != q_class_size(n, t, ell):
            return None
    return tuple(table)


def _store_cached_table(n, t, table) -> None:
    """Write atomically; a failed write only costs the cache, so it warns
    instead of failing."""
    path = _cache_path(n, t)
    if path is None:
        return
    lines = [_cache_header(n, t, len(table), len(table[0]) if table else 0)]
    lines += [" ".join(str(x) for x in row) for row in table]
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"warning: ground cache not written: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The weight matrix and its exact inner product with the slack grid

def weight_values(n: int, t: int, k: int) -> dict:
    """Per-class weights: FORBIDDEN on one crossing, 1/|Q_3| on three,
    -1/((k-1)|Q_k|) on k, zero elsewhere."""
    if k < 5 or k % 2 == 0:
        raise InputError(f"the penalized class k must be odd and >= 5, got {k}")
    q3 = q_class_size(n, t, 3)
    if q3 == 0:
        raise InputError(f"class Q_3 is empty for n={n}, t={t}")
    qk = q_class_size(n, t, k)
    if qk == 0:
        raise InputError(f"class Q_{k} is empty for n={n}, t={t}")
    return {1: FORBIDDEN, 3: Fraction(1, q3), k: Fraction(-1, (k - 1) * qk)}


def weight_matrix(ground: CutMatchingGround, k: int) -> WeightMatrix:
    """Materialized weight matrix over the ground universe: the per-class
    weights go on the integer grid once, as one row indexed by crossing count."""
    values = weight_values(ground.n, ground.t, k)
    classes = WeightMatrix.from_rows([[values.get(ell, 0) for ell in range(ground.t + 1)]])
    lookup = classes.grid[0]
    return WeightMatrix(
        tuple(tuple(map(lookup.__getitem__, row)) for row in ground._table), classes.scale
    )


def ws_inner_product(n: int, t: int, k: int) -> Fraction:
    """<W, S> by class counting: the one-crossing class pairs FORBIDDEN
    weights with zero slack, the three-crossing class contributes
    2 |Q_3| / |Q_3|, the k-crossing class -(k-1) |Q_k| / ((k-1) |Q_k|)."""
    values = weight_values(n, t, k)
    total = Fraction(0)
    total += Fraction(3 - 1) * q_class_size(n, t, 3) * values[3]
    total += Fraction(k - 1) * q_class_size(n, t, k) * values[k]
    return total


def ws_inner_product_materialized(ground: CutMatchingGround, k: int) -> Fraction:
    """Independent evaluation path: full Frobenius sum over the
    materialized weight matrix and slack grid."""
    return weight_matrix(ground, k).frobenius_with(ground.slack_grid())


# ---------------------------------------------------------------------------
# Rectangles over the ground and their measures

def _class_hits(ground: CutMatchingGround, rect: Rectangle) -> Counter:
    """Per crossing count ell, how many cells of the rectangle lie in Q_ell."""
    cols = sorted(rect.cols)
    hits = Counter()
    for i in rect.rows:
        hits.update(map(ground._table[i].__getitem__, cols))
    return hits


def mu(ground: CutMatchingGround, rect: Rectangle, ell: int) -> Fraction:
    """Uniform measure of the rectangle within class Q_ell."""
    size = q_class_size(ground.n, ground.t, ell)
    if size == 0:
        raise InputError(f"class Q_{ell} is empty for n={ground.n}, t={ground.t}")
    return Fraction(_class_hits(ground, rect)[ell], size)


def _check_edge(n: int, edge) -> tuple[int, int]:
    a, b = edge
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise InputError(f"({a}, {b}) is not an edge on {n} nodes")
    return (a, b) if a < b else (b, a)


def canonical_rectangle(ground: CutMatchingGround, e1, e2) -> Rectangle:
    """Rows: cuts crossed by both edges.  Columns: perfect matchings
    containing both.  The edges must be disjoint."""
    e1 = _check_edge(ground.n, e1)
    e2 = _check_edge(ground.n, e2)
    if set(e1) & set(e2):
        raise InputError(f"edges {e1} and {e2} share a node")
    rows = []
    for i, cut in enumerate(ground.cuts):
        inside = set(cut)
        if (e1[0] in inside) != (e1[1] in inside) and (
            (e2[0] in inside) != (e2[1] in inside)
        ):
            rows.append(i)
    cols = [
        j
        for j, pm in enumerate(ground.matchings)
        if e1 in pm and e2 in pm
    ]
    return Rectangle.of(rows, cols)


@dataclass(frozen=True)
class RectangleWReport:
    """Outcome of <W, R> for a ground rectangle: finite value
    mu_3 - mu_k / (k-1), or a FORBIDDEN violation when the rectangle
    touches a one-crossing pair."""

    finite: bool
    value: Fraction | None
    mu3: Fraction | None
    muk: Fraction | None
    q1_hits: int


def rectangle_w_value(ground: CutMatchingGround, rect: Rectangle, k: int) -> RectangleWReport:
    weight_values(ground.n, ground.t, k)  # validates that Q_3 and Q_k are nonempty
    hits = _class_hits(ground, rect)
    if hits[1]:
        return RectangleWReport(False, None, None, None, hits[1])
    m3 = Fraction(hits[3], q_class_size(ground.n, ground.t, 3))
    mk = Fraction(hits[k], q_class_size(ground.n, ground.t, k))
    return RectangleWReport(True, m3 - mk / (k - 1), m3, mk, 0)


# ---------------------------------------------------------------------------
# Bias checker for product-set subfamilies

def biased_indices(
    y: Sequence[Sequence], domains: Sequence[Iterable], eps
) -> tuple[int, ...]:
    """Indices whose marginal under the uniform distribution on y strays
    from uniform-on-domain by more than a (1+eps) factor on either side.

    Exact rational two-sided test per value j of domain X_i:
    1/((1+eps)|X_i|) <= Pr[y_i = j] <= (1+eps)/|X_i|.
    """
    if not y:
        raise InputError("the tuple family must be nonempty")
    eps = rat(eps)
    if eps < 0:
        raise InputError(f"eps must be nonnegative, got {eps}")
    doms = [tuple(d) for d in domains]
    width = len(doms)
    if any(len(d) < 1 for d in doms):
        raise InputError("every coordinate domain needs at least one value")
    # tuple values must equal domain values below, so they are hashable too
    try:
        hash(tuple(doms))
    except TypeError as exc:
        raise InputError(f"domain values must be hashable: {exc}") from exc
    if any(len(d) != len(set(d)) for d in doms):
        raise InputError("coordinate domains must not repeat values")
    for row in y:
        if len(row) != width:
            raise InputError("tuple width does not match the domain count")
        for i, v in enumerate(row):
            if v not in doms[i]:
                raise InputError(f"value {v!r} outside the domain of coordinate {i}")

    total = len(y)
    one_plus = 1 + eps
    out = []
    for i, dom in enumerate(doms):
        counts = {v: 0 for v in dom}
        for row in y:
            counts[row[i]] += 1
        size = len(dom)
        for v in dom:
            p = Fraction(counts[v], total)
            if p * one_plus * size < 1 or p * size > one_plus:
                out.append(i)
                break
    return tuple(out)
