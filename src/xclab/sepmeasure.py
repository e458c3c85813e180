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
from fractions import Fraction
from itertools import combinations, compress
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InputError
from .exactla import common_denominator, rat
from .matchgen import (
    EdgeIndexing,
    double_factorial,
    enumerate_perfect_matchings,
    two_edge_rectangle,
)
from .polytope import Rectangle, bits, write_atomic
from .record import record

MATERIALIZE_CAP = 1_000_000


def perfect_matching_count(n: int) -> int:
    """(n-1)!! perfect matchings of the complete graph on n nodes."""
    if n < 0 or n % 2:
        return 0
    return double_factorial(n - 1)


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of x >= 1, found without str(x), which
    CPython refuses by default above 4 300 digits."""
    d = int(math.log10(x)) + 1
    return d - (10 ** (d - 1) > x) + (10**d <= x)


def _validate_ground_params(n: int, t: int) -> None:
    if n < 2 or n % 2:
        raise InputError(f"need an even node count n >= 2, got {n}")
    if t % 2 == 0:
        raise InputError(f"cut size t must be odd, got {t}")
    if not 1 <= t <= n - 1:
        raise InputError(f"cut size t must lie in [1, {n - 1}], got {t}")


def q_class_size(n: int, t: int, ell: int) -> int:
    """|Q_ell|: pairs (t-cut, perfect matching) with exactly ell crossing
    edges, by closed-form counting.  Even ell gives 0 by parity, and ell
    over min(t, n - t) gives 0 because no pair crosses that often."""
    _validate_ground_params(n, t)
    if ell < 0:
        raise InputError(f"class index must be nonnegative, got {ell}")
    if ell % 2 == 0 or ell > min(t, n - t):
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


def slack_max_norm(n: int, t: int) -> int:
    """max |S| over the ground: a pair's slack is its crossing count minus
    one, and the largest crossing count is min(t, n - t), which is odd
    because t is odd and n even."""
    _validate_ground_params(n, t)
    return min(t, n - t) - 1


@record
class MatchingCutInstance:
    """Parameter scheme tying the block count m and odd parameter k to the
    node count n = 3m(k-3) + 2k and cut size t = (m+1)/2 (k-3) + 3."""

    m: int
    k: int

    def __post_init__(self):
        if self.k < 5 or self.k % 2 == 0:
            raise InputError(f"k must be odd and >= 5, got {self.k}")
        if self.m < 1 or self.m % 2 == 0:
            raise InputError(f"m must be odd and >= 1, got {self.m}")

    @property
    def n(self) -> int:
        return 3 * self.m * (self.k - 3) + 2 * self.k

    @property
    def t(self) -> int:
        return (self.m + 1) // 2 * (self.k - 3) + 3


def _picker(indices: Sequence[int]):
    """Maps a row to the tuple of its entries at `indices`: one itemgetter,
    which returns a bare entry for a single index and refuses none."""
    if len(indices) < 2:
        return lambda row: tuple(row[j] for j in indices)
    return itemgetter(*indices)


class CutMatchingGround:
    """Materialized universe: all t-cuts against all perfect matchings,
    with the crossing count of every pair precomputed.  Per edge of
    EdgeIndexing(n), it also holds the cuts and the matchings that hold it."""

    __slots__ = ("n", "t", "cuts", "matchings", "edges", "cut_holders", "matching_holders",
                 "_table")

    def __init__(self, n, t, cuts, matchings, table):
        """`table` is a validated cached crossing table, or None to count
        the crossings by byte-spread sums: byte j of spread[k] is 1 when
        matching j holds edge k, so byte j of the sum over a cut's edges is
        matching j's crossing count (at most n / 2, so no byte carries)."""
        self.n = n
        self.t = t
        self.cuts = cuts
        self.matchings = matchings
        self.edges = EdgeIndexing(n)
        cut_masks = tuple(map(self.edges.cut_mask, cuts))
        self.cut_holders = self.edges.holders(cut_masks)
        self.matching_holders = self.edges.holders(map(self.edges.matching_mask, matchings))
        if table is None:
            width = len(matchings)
            spread = [int.from_bytes(format(h, f"0{width}b").encode().translate(_BIT_BYTES), "big")
                      for h in self.matching_holders]
            table = tuple(sum(map(spread.__getitem__, bits(mask))).to_bytes(width, "little")
                          for mask in cut_masks)
        self._table = table

    @classmethod
    def build(cls, n: int, t: int) -> "CutMatchingGround":
        _validate_ground_params(n, t)
        size = q_class_total(n, t)
        if size > MATERIALIZE_CAP:
            raise InputError(
                f"ground's pair count has {_decimal_digits(size)} digits, over the "
                f"materialization cap {MATERIALIZE_CAP}; use the counting-mode operations"
            )
        cuts = tuple(combinations(range(n), t))
        matchings = enumerate_perfect_matchings(n)
        cached = _load_cached_table(n, t, len(cuts), len(matchings))
        ground = cls(n, t, cuts, matchings, cached)
        if cached is None:
            _store_cached_table(n, t, ground._table)
        return ground

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
        return dict(Counter(b"".join(self._table)))

    def slack_grid(self) -> tuple[bytes, ...]:
        """Slack of each pair, as bytes rows: crossing count minus one.  Every
        count is odd, so no slack is negative."""
        minus_one = b"\xff" + bytes(range(255))
        return tuple(row.translate(minus_one) for row in self._table)


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


# Maps each ASCII digit of a cache row to its value and every other byte
# to 255, which no crossing class admits; and back, each value to its digit.
_CACHE_DIGITS = bytes(b - 48 if 48 <= b <= 57 else 255 for b in range(256))
_DIGIT_CHARS = bytes((b + 48) % 256 for b in range(256))
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _load_cached_table(n, t, n_cuts, n_matchings):
    """The cached table, or None when it is absent or fails validation.

    The file must be the header and n_cuts rows, each ended by a newline.
    One translate that deletes the spaces turns a row into entries, so each
    entry must be one digit (under MATERIALIZE_CAP none exceeds 5).  Per odd
    class ell <= t, the entry count must equal the closed-form q_class_size.
    Those sizes sum to the cell count, so a table that passes also holds no
    even entry, none above t and no byte that was not a digit."""
    path = _cache_path(n, t)
    if path is None or not os.path.exists(path):
        return None
    header = _cache_header(n, t, n_cuts, n_matchings).encode()
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except OSError:
        return None
    if lines[0].split() != header.split() or len(lines) != n_cuts + 2 or lines[-1]:
        return None
    table = tuple(row.translate(_CACHE_DIGITS, b" ") for row in lines[1:-1])
    if any(len(row) != n_matchings for row in table):
        return None
    cells = b"".join(table)
    for ell in range(1, t + 1, 2):
        if cells.count(ell) != q_class_size(n, t, ell):
            return None
    return table


def _store_cached_table(n, t, table) -> None:
    """Write atomically; a failed write only costs the cache, so it warns
    instead of failing."""
    path = _cache_path(n, t)
    if path is None:
        return
    lines = [_cache_header(n, t, len(table), len(table[0]) if table else 0)]
    lines += [" ".join(row.translate(_DIGIT_CHARS).decode()) for row in table]
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"warning: ground cache not written: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The weight matrix as class codes, and its exact inner product with the slack

class _Forbidden:
    """Singleton marker for minus-infinity weight cells."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FORBIDDEN"


FORBIDDEN = _Forbidden()


def _scaled(values: Sequence) -> tuple[tuple[int | None, ...], int]:
    """Weights as integers over their least common denominator, with None
    for FORBIDDEN, and that denominator."""
    scale = common_denominator(x for x in values if x is not FORBIDDEN)
    return tuple(None if x is FORBIDDEN else x.numerator * (scale // x.denominator)
                 for x in values), scale


def _code_table(codes: Iterable[int], hit: int, miss: int) -> bytes:
    """A translate table that maps each of `codes` to `hit`, every other byte to `miss`."""
    table = bytearray([miss]) * 256
    for c in codes:
        table[c] = hit
    return bytes(table)


@record
class WeightMatrix:
    """W held as class codes over a short table of integers and one positive
    denominator: cell (i, j) is levels[codes[i][j]] / scale, and a None
    level marks FORBIDDEN.  A rectangle touching a FORBIDDEN cell is
    worthless, FORBIDDEN against a nonzero slack is an input error, and
    FORBIDDEN times zero contributes zero."""

    codes: tuple[bytes, ...]
    levels: tuple[int | None, ...]
    scale: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "WeightMatrix":
        """Codes number the distinct weights in order of first appearance,
        so at most 256 of them fit."""
        cooked = [[x if x is FORBIDDEN else rat(x) for x in row] for row in rows]
        width = len(cooked[0]) if cooked else 0
        if any(len(row) != width for row in cooked):
            raise InputError("weight rows have unequal lengths")
        if width == 0:
            raise InputError("weight matrix needs at least one row and column")
        values = list(dict.fromkeys(x for row in cooked for x in row))
        if len(values) > 256:
            raise InputError(f"weight matrix needs at most 256 distinct weights, got {len(values)}")
        code = {x: c for c, x in enumerate(values)}.__getitem__
        levels, scale = _scaled(values)
        return cls(tuple(bytes(map(code, row)) for row in cooked), levels, scale)

    @property
    def nrows(self) -> int:
        return len(self.codes)

    @property
    def ncols(self) -> int:
        return len(self.codes[0])

    def entry(self, i: int, j: int):
        x = self.levels[self.codes[i][j]]
        return FORBIDDEN if x is None else Fraction(x, self.scale)

    def frobenius_with(self, s: Sequence[Sequence[int]]) -> Fraction:
        """<W, S> with FORBIDDEN * 0 = 0 and FORBIDDEN * nonzero an error, in
        integers: S is rows of ints (bytes rows included)."""
        if len(s) != self.nrows or any(len(row) != self.ncols for row in s):
            raise InputError("weight and slack dimensions differ")
        # per class, a table that keeps the slacks of that class's cells
        forbidden = _code_table((c for c, x in enumerate(self.levels) if x is None), 1, 0)
        weighted = [(x, _code_table([c], 1, 0)) for c, x in enumerate(self.levels) if x]
        total = 0
        for i, (crow, srow) in enumerate(zip(self.codes, s)):
            if any(compress(srow, crow.translate(forbidden))):
                raise InputError(f"FORBIDDEN weight meets nonzero slack at row {i}")
            total += sum(x * sum(compress(srow, crow.translate(keep))) for x, keep in weighted)
        return Fraction(total, self.scale)

    def rectangle_sum(self, rows: Iterable[int], cols: Iterable[int]):
        """Sum of weights over a rectangle; FORBIDDEN if any cell is."""
        pick = _picker(tuple(cols))
        total = 0
        for i in rows:
            for c in pick(self.codes[i]):
                x = self.levels[c]
                if x is None:
                    return FORBIDDEN
                total += x
        return Fraction(total, self.scale)

    # The class kernel of the rectangle searches.  Row and column sets are
    # int masks, and `forbidden` is forbidden_masks()'s list.

    def forbidden_masks(self) -> list[int]:
        """Per row, the int whose bit j is set when cell (i, j) is FORBIDDEN:
        the reversed codes translated to ASCII bits and read in base 2."""
        table = _code_table((c for c, x in enumerate(self.levels) if x is None), 49, 48)
        return [int(row[::-1].translate(table), 2) for row in self.codes]

    def best_columns(self, rows: int, forbidden: list[int]) -> tuple[int, int]:
        """The columns with no FORBIDDEN cell in `rows` and a positive weight
        sum over them, and the total of those sums.  The blocked columns are
        one OR of row masks, so only the others are summed."""
        if not rows:
            return 0, 0
        lines, blocked = [], 0
        for i in bits(rows):
            lines.append(self.codes[i])
            blocked |= forbidden[i]
        cols = value = 0
        for j in bits(~blocked & ((1 << self.ncols) - 1)):
            partial = sum(map(self.levels.__getitem__, map(itemgetter(j), lines)))
            if partial > 0:
                cols |= 1 << j
                value += partial
        return cols, value

    def best_rows(self, cols: int, forbidden: list[int]) -> tuple[int, int]:
        """The rows with no FORBIDDEN cell in `cols` and a positive weight
        sum over them, and the total of those sums."""
        if not cols:
            return 0, 0
        pick = _picker(tuple(bits(cols)))
        rows = value = 0
        for i, (row, blocked) in enumerate(zip(self.codes, forbidden)):
            if not blocked & cols:
                partial = sum(map(self.levels.__getitem__, pick(row)))
                if partial > 0:
                    rows |= 1 << i
                    value += partial
        return rows, value


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
    """W over the ground universe: its codes are the ground's crossing-table
    rows themselves, and level ell is the weight of class Q_ell."""
    values = weight_values(ground.n, ground.t, k)
    levels, scale = _scaled([values.get(ell, 0) for ell in range(ground.t + 1)])
    return WeightMatrix(ground._table, levels, scale)


def ws_inner_product(n: int, t: int, k: int) -> Fraction:
    """<W, S> by class counting: the one-crossing class pairs FORBIDDEN
    weights with zero slack, the three-crossing class contributes
    2 |Q_3| / |Q_3|, the k-crossing class -(k-1) |Q_k| / ((k-1) |Q_k|)."""
    values = weight_values(n, t, k)
    return 2 * q_class_size(n, t, 3) * values[3] + (k - 1) * q_class_size(n, t, k) * values[k]


def ws_inner_product_materialized(ground: CutMatchingGround, k: int) -> Fraction:
    """Independent evaluation path: full Frobenius sum, cell by cell in
    integers, over the class-coded weight matrix and the slack grid."""
    return weight_matrix(ground, k).frobenius_with(ground.slack_grid())


# ---------------------------------------------------------------------------
# Rectangles over the ground and their measures

def _class_cells(ground: CutMatchingGround, rect: Rectangle) -> bytes:
    """The crossing counts of the rectangle's cells, as one bytes."""
    pick = _picker(tuple(rect.cols))
    return b"".join(bytes(pick(ground._table[i])) for i in rect.rows)


def mu(ground: CutMatchingGround, rect: Rectangle, ell: int) -> Fraction:
    """Uniform measure of the rectangle within class Q_ell."""
    size = q_class_size(ground.n, ground.t, ell)
    if size == 0:
        raise InputError(f"class Q_{ell} is empty for n={ground.n}, t={ground.t}")
    return Fraction(_class_cells(ground, rect).count(ell), size)


def canonical_rectangle(ground: CutMatchingGround, e1, e2) -> Rectangle:
    """Rows: cuts crossed by both edges.  Columns: perfect matchings
    containing both.  The edges must be disjoint."""
    k1 = ground.edges.index(*e1)
    k2 = ground.edges.index(*e2)
    e1, e2 = ground.edges.nodes(k1), ground.edges.nodes(k2)
    if set(e1) & set(e2):
        raise InputError(f"edges {e1} and {e2} share a node")
    return two_edge_rectangle(ground.cut_holders, ground.matching_holders, k1, k2)


@record
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
    cells = _class_cells(ground, rect)
    q1_hits = cells.count(1)
    if q1_hits:
        return RectangleWReport(False, None, None, None, q1_hits)
    m3 = Fraction(cells.count(3), q_class_size(ground.n, ground.t, 3))
    mk = Fraction(cells.count(k), q_class_size(ground.n, ground.t, k))
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

    out = []
    for i, dom in enumerate(doms):
        counts = Counter(row[i] for row in y)
        # Pr[y_i = v] |X_i| for each v, which must lie in [1/(1+eps), 1+eps]
        scaled = (Fraction(counts[v] * len(dom), len(y)) for v in dom)
        if any(q * (1 + eps) < 1 or q > 1 + eps for q in scaled):
            out.append(i)
    return tuple(out)
